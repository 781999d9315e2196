"""Small-step dynamics of monitors, processes, and monitored systems.

Three interchangeable rule systems drive recursion:

* ``"O"``   unfolds ``rec x.m`` by substitution (one tau step),
* ``"M"``   jumps from the binder to its body, and from a variable back
            to the body of its binder,
* ``"N"``   like ``"M"`` but a variable jumps to the binder itself.

All three produce the same verdicts on every trace; ``"M"`` and ``"N"``
stay within the subterms of the original monitor, which is what the
automata construction relies on.  ``"N"`` is the default everywhere a
monitor is run; ``"O"`` and ``"M"`` are kept as oracles for it.  A free
variable is stuck under every system when a derivation works out its
binders itself.  Verdicts absorb every action of the declared alphabet
(their self-loop rule), so the alphabet is an explicit argument
throughout.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .syntax import TRANSITION, comma_list, file_lines
from .terms import (
    NO,
    TAU,
    YES,
    FreeVariableError,
    Max,
    Min,
    Monitor,
    Nil,
    Prefix,
    Process,
    Rec,
    Sum,
    Term,
    TermError,
    Var,
    Verdict,
    distinct_subterms,
    free_vars,
    rename_apart,
    subst,
)

SYSTEMS = ("O", "M", "N")
DEFAULT_SYSTEM = "N"

DEFAULT_CLOSURE_CAP = 10_000


class CapExceeded(RuntimeError):
    """A state-space safety cap was hit; pass a higher cap or force."""


def _reach(start: Iterable, successors, cap: int | None = None) -> list:
    """Everything reachable from `start` through `successors`, in
    discovery order; CapExceeded once more than `cap` items are found."""
    order = list(dict.fromkeys(start))
    seen = set(order)
    for x in order:  # the list grows while it is walked
        for y in successors(x):
            if y not in seen:
                seen.add(y)
                order.append(y)
                if cap is not None and len(order) > cap:
                    raise CapExceeded(f"tau closure exceeded {cap} distinct terms")
    return order


class Step(NamedTuple):
    label: str
    target: Term
    rule: str


def binder_map(m: Term) -> dict[str, Rec]:
    """Map each recursion variable to its binder.

    Binders must be unambiguous: a name may recur only when every
    occurrence is the same node (shared subterms are fine, conflicting
    ones are not)."""
    out: dict[str, Rec] = {}
    for t in distinct_subterms(m):
        if isinstance(t, Rec):
            if t.var in out and out[t.var] != t:
                raise TermError(
                    f"duplicate binder {t.var!r}; well-form the monitor first"
                )
            out[t.var] = t
    return out


def _names_apart(m: Term, alphabet: frozenset[str]) -> Term:
    """The term with every binder's name its own: binders renamed apart
    (rename_apart), then each free variable that shares its name
    with a binder renamed after it with primes.  A free variable is
    stuck under any name, so the result flags the same verdicts on every
    trace."""
    m = rename_apart(m, alphabet)
    bound = {t.var for t in distinct_subterms(m) if isinstance(t, (Rec, Max, Min))}
    for x in sorted(free_vars(m) & bound):
        fresh = x + "'"
        while fresh in bound:
            fresh += "'"
        m = subst(m, x, Var(fresh))
    return m


class _Ambiguous(Exception):
    """A subterm reached at two places whose binders of one of its free
    variables differ: the binder of a name cannot be told from the term."""


class StepEngine:
    """Transition relation of one monitor (or process) under one rule system.

    Under "M" and "N" a variable goes back to its binder.  Given a
    `binders` map, the engine looks it up there and an unbound variable
    raises FreeVariableError.  Without one, the engine works binders out
    along the derivation and walks nothing else of the monitor: each term
    is entered under the innermost binder around the place the derivation
    reached it from, each ``rec x`` is recorded with the binder around it
    as the derivation steps through it (mRecF), and a variable resolves
    to the nearest recorded binder of its name on that chain, or is stuck,
    as under "O", when there is none.  Every ancestor of a place a
    derivation reaches was reached first, so the binder found is the
    lexical one.  A subterm entered a second time under binders that
    differ on one of its free variables raises _Ambiguous (`derive` then
    renames the names apart and runs again).

    Strong steps are computed once per term and weak successor sets are
    cached per engine; iteration order everywhere is deterministic
    (sorted actions, discovery order for terms).
    """

    def __init__(
        self,
        alphabet: frozenset[str],
        system: str = DEFAULT_SYSTEM,
        binders: dict[str, Rec] | None = None,
        cap: int = DEFAULT_CLOSURE_CAP,
    ):
        if system not in SYSTEMS:
            raise ValueError(f"unknown rule system {system!r}")
        self.alphabet = alphabet
        self.actions = tuple(sorted(alphabet))
        self.system = system
        self.binders = binders
        self.cap = cap
        self._closure: dict[Term, tuple[Term, ...]] = {}
        self._weak: dict[tuple[Term, str], tuple[Term, ...]] = {}
        self._steps: dict[Term, list[Step]] = {}
        # Without a binder map, under "M"/"N": the innermost binder around
        # each term entered (None: none), the binder around each binder
        # stepped through, and the free variables of re-entered terms.
        self._around: dict[Term, Rec | None] | None = (
            {} if binders is None and system != "O" else None
        )
        self._outer: dict[Rec, Rec | None] = {}
        self._free: dict[Term, frozenset[str]] = {}

    # -- single steps ------------------------------------------------------

    def steps(self, m: Term) -> list[Step]:
        out = self._steps.get(m)
        if out is None:
            out = self._steps[m] = self._strong(m)
        return out

    def _strong(self, m: Term) -> list[Step]:
        around = self._around
        if around is not None:
            scope = around.setdefault(m, None)  # a term entered from nowhere is a root
        if isinstance(m, Verdict):
            return [Step(a, m, "mVerd") for a in self.actions]
        if isinstance(m, Nil):
            return []
        if isinstance(m, Prefix):
            if around is not None:
                self._enter(m.body, scope)
            return [Step(m.action, m.body, "mAct")]
        if isinstance(m, Sum):
            out: list[Step] = []
            for idx, s in enumerate(m.summands):
                if around is not None:
                    self._enter(s, scope)
                rule = "mSelL" if idx == 0 else "mSelR"
                out.extend(Step(st.label, st.target, rule) for st in self.steps(s))
            return out
        if isinstance(m, Rec):
            if self.system == "O":
                return [Step(TAU, subst(m.body, m.var, m), "mRec")]
            if around is not None:
                self._outer[m] = scope
                self._enter(m.body, m)
            return [Step(TAU, m.body, "mRecF")]
        if isinstance(m, Var):
            if self.system == "O":
                return []  # stuck; closed terms never expose a variable
            if around is None:
                binder = self.binders.get(m.name)
                if binder is None:
                    raise FreeVariableError(
                        f"variable {m.name!r} has no binder in this derivation"
                    )
            else:
                binder = self._binder(m.name, scope)
                if binder is None:
                    return []  # free: stuck, as under "O"
            if self.system == "M":
                return [Step(TAU, binder.body, "mRecP")]
            return [Step(TAU, binder, "mRecB")]
        raise TermError(f"no transition rules for {m!r}")

    def _binder(self, name: str, scope: Rec | None) -> Rec | None:
        """The nearest binder of `name` on the chain out from `scope`."""
        while scope is not None and scope.var != name:
            scope = self._outer[scope]
        return scope

    def _enter(self, t: Term, scope: Rec | None) -> None:
        old = self._around.setdefault(t, scope)
        if old is scope:
            return
        free = self._free.get(t)
        if free is None:
            free = self._free[t] = free_vars(t)
        for x in free:
            if self._binder(x, old) != self._binder(x, scope):
                raise _Ambiguous(x)

    # -- weak closures -----------------------------------------------------

    def tau_closure(self, m: Term) -> tuple[Term, ...]:
        if m not in self._closure:
            taus = lambda t: [st.target for st in self.steps(t) if st.label == TAU]
            self._closure[m] = tuple(_reach([m], taus, self.cap))
        return self._closure[m]

    def frontier_step(self, frontier: Iterable[Term], action: str) -> tuple[Term, ...]:
        """All weak `action`-successors of a tau-closed frontier."""
        order: list[Term] = []
        seen: set[Term] = set()
        for q in frontier:
            for st in self.steps(q):
                if st.label != action:
                    continue
                for q2 in self.tau_closure(st.target):
                    if q2 not in seen:
                        seen.add(q2)
                        order.append(q2)
        return tuple(order)

    def weak_successors(self, m: Term, action: str) -> tuple[Term, ...]:
        key = (m, action)
        if key not in self._weak:
            self._weak[key] = self.frontier_step(self.tau_closure(m), action)
        return self._weak[key]

    def derive(self, m: Term, trace: Iterable[str]) -> tuple[Term, ...]:
        frontier = self.tau_closure(m)
        for action in trace:
            frontier = self.frontier_step(frontier, action)
            if not frontier:
                break
        return frontier


def steps(
    m: Term,
    alphabet: frozenset[str],
    system: str = DEFAULT_SYSTEM,
    binders: dict[str, Rec] | None = None,
) -> list[Step]:
    """Strong transitions of `m`.  For "M"/"N" the binder environment is
    collected from `m` itself unless one is passed in (as a derivation
    from an enclosing monitor would); a variable it does not bind raises
    FreeVariableError."""
    if binders is None and system in ("M", "N"):
        binders = binder_map(m)
    return StepEngine(alphabet, system, binders).steps(m)


def derive(
    m: Term,
    trace: Iterable[str],
    alphabet: frozenset[str],
    system: str = DEFAULT_SYSTEM,
    cap: int = DEFAULT_CLOSURE_CAP,
) -> tuple[Term, ...]:
    """All terms reachable from `m` through the weak trace relation
    (tau steps freely interleaved, trailing taus included).  Under "M"
    and "N" binders are worked out along the derivation; when a name's
    binder is ambiguous there, the derivation runs again on _names_apart(m)."""
    trace = tuple(trace)
    try:
        return StepEngine(alphabet, system, cap=cap).derive(m, trace)
    except _Ambiguous:
        return StepEngine(alphabet, system, cap=cap).derive(_names_apart(m, alphabet), trace)


def verdicts_on(
    m: Term,
    trace: Iterable[str],
    alphabet: frozenset[str],
    system: str = DEFAULT_SYSTEM,
    cap: int = DEFAULT_CLOSURE_CAP,
) -> frozenset[str]:
    """The verdicts `m` can reach on `trace`.  Rule system "N" by
    default; "O" and "M" give the same verdicts and are kept as oracles.
    A free variable is stuck."""
    return frozenset(
        t.value for t in derive(m, trace, alphabet, system, cap) if isinstance(t, Verdict)
    )


def is_deterministic(m: Monitor) -> bool:
    """Syntactic determinism: every choice is between action prefixes
    with pairwise distinct guards (judged on the monitor as written)."""
    for t in distinct_subterms(m):
        if isinstance(t, Sum) and not (
            all(isinstance(s, Prefix) for s in t.summands)
            and len({s.action for s in t.summands}) == len(t.summands)
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# Finite labelled transition systems
# ---------------------------------------------------------------------------


class Lts:
    """A finite LTS over string states; ``tau`` labels silent moves."""

    def __init__(
        self,
        states: Iterable[str],
        transitions: Iterable[tuple[str, str, str]],
        init: str | None = None,
    ):
        self.states = frozenset(states)
        self.transitions = frozenset(transitions)
        for src, _, dst in self.transitions:
            if src not in self.states or dst not in self.states:
                raise ValueError(f"transition touches undeclared state: {src}->{dst}")
        if init is not None and init not in self.states:
            raise ValueError(f"unknown initial state {init!r}")
        self.init = init
        self._succ: dict[tuple[str, str], list[str]] = {}
        for src, label, dst in sorted(self.transitions):
            self._succ.setdefault((src, label), []).append(dst)

    def succ(self, state: str, label: str) -> list[str]:
        return self._succ.get((state, label), [])

    def labels(self) -> frozenset[str]:
        return frozenset(label for _, label, _ in self.transitions)

    def tau_closure(self, state: str) -> list[str]:
        return _reach([state], lambda s: self.succ(s, TAU))

    def weak_succ(self, state: str, action: str) -> list[str]:
        moved = [q for p in self.tau_closure(state) for q in self.succ(p, action)]
        return _reach(moved, lambda s: self.succ(s, TAU))


def parse_lts(text: str) -> Lts:
    states: list[str] = []
    init: str | None = None
    transitions: list[tuple[str, str, str]] = []
    for _, raw, key, value in file_lines(text, ("states", "init")):
        if key == "states":
            states = comma_list(value)
        elif key == "init":
            init = value
        else:
            m = TRANSITION.match(value)
            if m is None:
                raise ValueError(f"cannot parse LTS line: {raw!r}")
            transitions.append(m.groups())
    if not states:
        raise ValueError("LTS file needs a 'states:' line")
    if init is None:
        raise ValueError("LTS file needs an 'init:' line")
    return Lts(states, transitions, init)


def format_lts(lts: Lts) -> str:
    lines = [f"states: {', '.join(sorted(lts.states))}"]
    if lts.init is not None:
        lines.append(f"init: {lts.init}")
    for src, label, dst in sorted(lts.transitions):
        lines.append(f"{src} -{label}-> {dst}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Monitored systems
# ---------------------------------------------------------------------------


class MonitoredStep(NamedTuple):
    label: str
    monitor: Term
    state: str
    rule: str


def monitored_step(
    m: Term,
    state: str,
    lts: Lts,
    alphabet: frozenset[str],
    engine: StepEngine | None = None,
) -> list[MonitoredStep]:
    """One step of the instrumented pair (monitor, process state).

    The monitor mirrors every visible action of the process; if it can
    neither match the action nor move silently it falls to ``end``; both
    sides may take tau steps on their own.
    """
    if engine is None:
        engine = StepEngine(alphabet, "O")
    msteps = engine.steps(m)
    out: list[MonitoredStep] = []
    can_tau = any(st.label == TAU for st in msteps)
    for (src, label, dst) in sorted(lts.transitions):
        if src != state:
            continue
        if label == TAU:
            out.append(MonitoredStep(TAU, m, dst, "iAsyP"))
            continue
        matched = False
        for st in msteps:
            if st.label == label:
                matched = True
                out.append(MonitoredStep(label, st.target, dst, "iMon"))
        if not matched and not can_tau:
            out.append(MonitoredStep(label, Verdict("end"), dst, "iTer"))
    for st in msteps:
        if st.label == TAU:
            out.append(MonitoredStep(TAU, st.target, state, "iAsyM"))
    return out


def _reaches_verdict(
    m: Term, lts: Lts, state: str, alphabet: frozenset[str], verdict: str
) -> bool:
    if state not in lts.states:
        raise ValueError(f"unknown start state {state!r}")
    engine = StepEngine(alphabet, "O")

    def moves(cfg: tuple[Term, str]) -> list[tuple[Term, str]]:
        return [(st.monitor, st.state) for st in monitored_step(*cfg, lts, alphabet, engine)]

    return any(mm == Verdict(verdict) for mm, _ in _reach([(m, state)], moves))


def acc(m: Term, lts: Lts, state: str, alphabet: frozenset[str]) -> bool:
    """Can the instrumented system reach an accepting configuration?
    ValueError when `state` is not a state of the LTS."""
    return _reaches_verdict(m, lts, state, alphabet, YES)


def rej(m: Term, lts: Lts, state: str, alphabet: frozenset[str]) -> bool:
    """Can the instrumented system reach a rejecting configuration?
    ValueError when `state` is not a state of the LTS."""
    return _reaches_verdict(m, lts, state, alphabet, NO)


# ---------------------------------------------------------------------------
# Process dynamics (for the verdict-as-action translations)
# ---------------------------------------------------------------------------


def process_steps(p: Process) -> list[Step]:
    """Strong transitions of a process term: like a monitor but ``nil``
    is inert and there is no verdict self-loop rule.  These are the
    monitor rules under "O" over the empty alphabet, named without their
    leading ``m``."""
    return [st._replace(rule=st.rule[1:]) for st in StepEngine(frozenset(), "O").steps(p)]


def derive_process(
    p: Process, trace: Iterable[str], cap: int = DEFAULT_CLOSURE_CAP
) -> tuple[Process, ...]:
    """All process terms reachable from `p` through the weak trace
    relation.  These are the monitor dynamics under "O" with no verdict
    self-loops, which is a monitor engine over the empty alphabet."""
    return StepEngine(frozenset(), "O", cap=cap).derive(p, trace)
