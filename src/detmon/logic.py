"""Recursive modal formulas over finite LTSs, and their equation systems.

A safety formula can be flattened into a system of equations whose
right-hand sides are *standard*: a conjunction of box modalities over
system variables plus free variables, or ``ff``.  In that shape the
system can be determinized subset-style (merging the targets of equal
actions).  A system in deterministic form is a DFA of the violating
traces, its equations the states and its ``ff`` equations accepting; that
automaton, minimized, is unfolded into a monitor and read back as a
single formula.  Flattened and parsed equations share one row form: the
equations route of ``pipeline.determinize_monitor`` flattens a monitor
straight into rows, with no formula built, and reads them as an NFA of the
same traces, leaving the merge to the subset construction.  Greatest
fixpoints are solved for each equation in turn, which by Bekic's principle
agrees with solving them simultaneously; both solvers are provided.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .automata import Dfa, _Ix, dfa_to_monitor, minimize_dfa
from .semantics import Lts, _reach
from .synthesis import monitor_to_formula
from .syntax import comma_list, file_lines, parse_formula, print_term
from .terms import (
    END,
    And,
    Box,
    Diamond,
    FF,
    Formula,
    FragmentError,
    Max,
    Min,
    Monitor,
    Or,
    Prefix,
    Rec,
    SKIP,
    Sum,
    TT,
    Term,
    TermError,
    Var,
    Verdict,
    distinct_subterms,
    dualize,
    dualize_monitor,
    fold,
    free_vars,
    is_chml,
    is_shml,
    mk_and,
    subst_formula,
    uniquify_formula,
)

# ---------------------------------------------------------------------------
# Denotational semantics
# ---------------------------------------------------------------------------


def eval_formula(
    f: Formula, lts: Lts, env: dict[str, frozenset[str]] | None = None
) -> frozenset[str]:
    """The set of LTS states satisfying `f`.

    Modalities are weak (tau-absorbing).  Variables missing from `env`
    denote the empty set.
    """
    env = env or {}
    states = lts.states

    def ev(g: Formula, rho: dict[str, frozenset[str]]) -> frozenset[str]:
        if isinstance(g, TT):
            return states
        if isinstance(g, FF):
            return frozenset()
        if isinstance(g, Var):
            return rho.get(g.name, frozenset())
        if isinstance(g, Box):
            sat = ev(g.body, rho)
            return frozenset(
                p for p in states if all(q in sat for q in lts.weak_succ(p, g.action))
            )
        if isinstance(g, Diamond):
            sat = ev(g.body, rho)
            return frozenset(
                p for p in states if any(q in sat for q in lts.weak_succ(p, g.action))
            )
        if isinstance(g, And):
            out = states
            for c in g.conjuncts:
                out &= ev(c, rho)
            return out
        if isinstance(g, Or):
            out: frozenset[str] = frozenset()
            for d in g.disjuncts:
                out |= ev(d, rho)
            return out
        if isinstance(g, (Max, Min)):
            cur = states if isinstance(g, Max) else frozenset()
            while True:
                nxt = ev(g.body, {**rho, g.var: cur})
                if nxt == cur:
                    return cur
                cur = nxt
        raise TermError(f"not a formula: {g!r}")

    return ev(f, dict(env))


# ---------------------------------------------------------------------------
# Equation systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquationSystem:
    """Named equations with a distinguished principal variable.

    Equations are ordered; `free` lists variables the right-hand sides
    may mention without defining.
    """

    equations: tuple[tuple[str, Formula], ...]
    principal: str
    free: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        names = [n for n, _ in self.equations]
        if len(set(names)) != len(names):
            raise TermError("duplicate equation names")
        if self.principal not in names:
            raise TermError(f"principal {self.principal!r} is not defined")
        if self.free & set(names):
            raise TermError("free variables shadow equation names")
        defined = set(names) | self.free
        for n, f in self.equations:
            outside = {t.name for t in distinct_subterms(f) if isinstance(t, Var)} - defined
            loose = outside and free_vars(f) & outside
            if loose:
                raise TermError(
                    f"equation {n} mentions undeclared variables {sorted(loose)}"
                )

    def names(self) -> list[str]:
        return [n for n, _ in self.equations]


def solve_system(
    sys: EquationSystem, lts: Lts, env: dict[str, frozenset[str]] | None = None
) -> dict[str, frozenset[str]]:
    """Solve equation by equation: the first variable's value is the
    greatest S such that, with the rest of the system solved under
    X_1 = S, the first right-hand side denotes S again."""
    states = lts.states

    def rec(
        eqs: tuple[tuple[str, Formula], ...], rho: dict[str, frozenset[str]]
    ) -> dict[str, frozenset[str]]:
        if not eqs:
            return {}
        (x1, f1), rest = eqs[0], eqs[1:]
        cur = states
        while True:
            sub = rec(rest, {**rho, x1: cur})
            nxt = eval_formula(f1, lts, {**rho, x1: cur, **sub})
            if nxt == cur:
                break
            cur = nxt
        sub = rec(rest, {**rho, x1: cur})
        return {x1: cur, **sub}

    return rec(sys.equations, dict(env or {}))


def solve_system_simultaneous(
    sys: EquationSystem, lts: Lts, env: dict[str, frozenset[str]] | None = None
) -> dict[str, frozenset[str]]:
    """Solve all equations as one simultaneous greatest fixpoint."""
    rho = dict(env or {})
    vals = {n: lts.states for n, _ in sys.equations}
    while True:
        nxt = {
            n: eval_formula(f, lts, {**rho, **vals}) for n, f in sys.equations
        }
        if nxt == vals:
            return vals
        vals = nxt


def eval_system(
    sys: EquationSystem, lts: Lts, env: dict[str, frozenset[str]] | None = None
) -> frozenset[str]:
    """States satisfying the principal variable of the solved system."""
    return solve_system(sys, lts, env)[sys.principal]


# ---------------------------------------------------------------------------
# Standard form
# ---------------------------------------------------------------------------


def _top_ok(g: Formula) -> bool:
    """No variable occurs unguarded below anything but conjunction or
    disjunction nodes."""

    def enter(t: Formula, top: bool):
        if isinstance(t, (Box, Diamond)):
            return SKIP  # guarded below here
        return False if isinstance(t, (Max, Min)) else top

    def step(t: Formula, kids, top) -> bool:
        if isinstance(t, Var):
            return top
        if top is SKIP or isinstance(t, (TT, FF)):
            return True
        if isinstance(t, (And, Or, Max, Min)):
            return all(kids)
        raise TermError(f"not a formula: {t!r}")

    return fold(g, step, enter, True)


def is_standard_form(f: Formula) -> bool:
    """Every unguarded variable occurrence — in the formula itself and in
    each fixpoint body — sits at top level, as a direct conjunct.  The
    bodies are judged in preorder, each node object at its first
    occurrence: the first that fails, or raises, decides."""
    if not _top_ok(f):
        return False
    seen: set[int] = set()
    stack = [f]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if isinstance(t, (Max, Min)) and not _top_ok(t.body):
            return False
        stack.extend(reversed(t.children()))
    return True


def _conjoin(psi: Formula, tops: tuple[str, ...]) -> Formula:
    return mk_and([psi, *(Var(x) for x in tops)])


def _hoist(f: Formula, kids) -> tuple[Formula, tuple[str, ...]]:
    """Split f into (psi, tops), given its children's splits, with f
    equivalent to psi AND tops, where psi has no unguarded variables.
    Folded bottom-up, so the invariant holds inside boxes and fixpoint
    bodies too."""
    if isinstance(f, (TT, FF)):
        return f, ()
    if isinstance(f, Var):
        return TT(), (f.name,)
    if isinstance(f, Box):
        return Box(f.action, _conjoin(*kids[0])), ()
    if isinstance(f, And):
        psis: list[Formula] = []
        tops: list[str] = []
        for psi, t in kids:
            psis.append(psi)
            tops.extend(x for x in t if x not in tops)
        return mk_and(psis), tuple(tops)
    if isinstance(f, Max):
        psi, tops = kids[0]
        outs = tuple(x for x in tops if x != f.var)
        if not outs:
            # Nothing to pull out of the binder; f.var as a top-level
            # conjunct of its own body is redundant and dropped.
            return Max(f.var, psi), ()
        inner = Max(f.var, mk_and([psi, *(Var(x) for x in outs)]))
        if f.var in free_vars(psi):
            psi = subst_formula(psi, {f.var: inner})
        return psi, outs
    raise FragmentError(f"not a safety formula: {f!r}")


def _standardize_shml(f: Formula) -> Formula:
    return _conjoin(*fold(f, _hoist))


def to_standard_form(f: Formula) -> Formula:
    """An equivalent formula in standard form.

    Unguarded variables under a fixpoint are hoisted out by unfolding
    the binder around them once.
    """
    if is_shml(f):
        return _standardize_shml(f)
    if is_chml(f):
        return dualize(_standardize_shml(dualize(f)))
    raise FragmentError("standard form is defined per fragment; mixed formula")


# ---------------------------------------------------------------------------
# Formula -> equation system
# ---------------------------------------------------------------------------


# A flattened or parsed equation: None for ff, else its conjuncts in order,
# each a box (action, target row) or the name of a variable standing unguarded.
_Row = tuple[tuple[str, int] | str, ...] | None


def _standard_system(sys: EquationSystem) -> list[_Row]:
    """Each equation's right-hand side as a row, in order, its unguarded
    variables the system's free ones; TermError when one is not standard."""
    pos = {n: i for i, n in enumerate(sys.names())}
    rows: list[_Row] = []
    for name, f in sys.equations:
        if isinstance(f, FF):
            rows.append(None)
            continue
        row: list = []
        for c in f.conjuncts if isinstance(f, And) else (f,):
            if isinstance(c, Box) and isinstance(c.body, Var) and c.body.name in pos:
                row.append((c.action, pos[c.body.name]))
            elif isinstance(c, Var) and c.name in sys.free:
                row.append(c.name)
            elif not isinstance(c, TT):
                raise TermError(
                    f"equation {name} is not in standard form: "
                    f"offending conjunct {print_term(c)}"
                )
        rows.append(tuple(row))
    return rows


def _deterministic(row: _Row) -> bool:
    actions = [c[0] for c in row or () if type(c) is tuple]
    return len(set(actions)) == len(actions)


def is_standard_form_system(sys: EquationSystem) -> bool:
    try:
        _standard_system(sys)
    except TermError:
        return False
    return True


def is_deterministic_form_system(sys: EquationSystem) -> bool:
    """Standard, and no right-hand side boxes the same action twice."""
    try:
        return all(map(_deterministic, _standard_system(sys)))
    except TermError:
        return False


def _join(rows: list[_Row]) -> _Row:
    """The conjunction of rows as mk_and builds it: ff absorbs, and a
    repeated conjunct keeps its first place."""
    out: list = []
    for row in rows:
        if row is None:
            return None
        out.extend(row)
    return tuple(dict.fromkeys(out))


def _flatten(t: Term, actions: tuple[str, ...] = ()) -> tuple[list[_Row], list[str | None], int]:
    """Standard-form equations, one row per distinct node object, added
    bottom-up: the rows, each row's name (a fixpoint's variable, None for
    an auxiliary row), and the principal row.  `t` is a standard-form
    safety formula with distinct binders, or a closed, well-formed,
    single-verdict monitor as its synthesis reads it: a prefix a box, a
    choice a conjunction, ``rec`` max, its verdict ff, and a verdict
    summand a box to ff on each of `actions`.  A fixpoint's row is its
    body's without its own variable (max X.(X & psi) is max X.psi), and
    each row where that variable stands unguarded takes its conjuncts
    instead.  A binder name is bound at one place, so nothing is captured
    and a shared node needs one row."""
    rows: list[_Row] = []
    names: list[str | None] = []
    users: dict[str, list[int]] = {}  # the rows that have mentioned a variable unguarded

    def add(row: _Row, name: str | None = None) -> int:
        i = len(rows)
        rows.append(row)
        names.append(name)
        for c in row or ():
            if type(c) is str:
                users.setdefault(c, []).append(i)
        return i

    def build(g: Term, kids) -> int:
        if isinstance(g, (Box, Prefix)):
            return add(((g.action, kids[0]),))
        if isinstance(g, (And, Sum)):
            # ff would hold on the current trace, but a verdict in a choice
            # flags only after one more action.
            return add(_join([tuple((a, k) for a in actions) if type(s) is Verdict else rows[k]
                              for s, k in zip(g.children(), kids)]))
        if isinstance(g, Var):
            return add((g.name,))
        if isinstance(g, (Max, Rec)):
            body = rows[kids[0]]
            if body is not None and g.var in body:
                body = tuple(c for c in body if c != g.var)
            row_of_max = add(body, g.var)
            for i in users.pop(g.var, ()):
                row = rows[i]
                if row is not None and g.var in row:  # not ff by now, nor listed twice
                    rows[i] = _join([body if c == g.var else (c,) for c in row])
                    for c in body or ():
                        if type(c) is str:
                            users[c].append(i)
            return row_of_max
        if isinstance(g, TT):
            return add(())
        if isinstance(g, FF):
            return add(None)
        if isinstance(g, Verdict):
            if g.value == END:
                raise TermError("monitors containing 'end' cannot be read back as a formula")
            return add(None)
        raise FragmentError(f"not a standard safety formula: {g!r}")

    return rows, names, fold(t, build)


def formula_to_system(f: Formula) -> EquationSystem:
    """Flatten a safety formula into a standard-form equation system.

    Fixpoint binders become equations named after their variable;
    auxiliary equations are introduced bottom-up, unreachable ones are
    pruned, and the survivors are renamed X_1, X_2, ... in the order
    they are first referenced from the principal equation.
    """
    if not is_shml(f):
        raise FragmentError("only safety formulas flatten to box-conjunction systems")
    # Hoisting can duplicate a binder, so the names are made distinct again.
    rows, names, principal = _flatten(uniquify_formula(_standardize_shml(uniquify_formula(f))))
    binders = {n: i for i, n in enumerate(names) if n is not None}

    def references(i: int) -> list[int]:
        return [c[1] if type(c) is tuple else binders[c]
                for c in rows[i] or () if type(c) is tuple or c in binders]

    ordered = _reach([principal], references)
    frees = {c for i in ordered for c in rows[i] or () if type(c) is str and c not in binders}
    # Canonical names in first-reference order from the principal, which
    # keeps its variable's name if it has one.
    taken = set(frees)
    renames: dict[int, str] = {}
    for i in ordered:
        if i == principal and names[i]:
            new = names[i]
        else:
            new = "X" if i == principal else f"X_{len(renames)}"
            while new in taken:
                new += "_0"
        taken.add(new)
        renames[i] = new

    def render(row: _Row) -> Formula:
        if row is None:
            return FF()
        return mk_and([Box(c[0], Var(renames[c[1]])) if type(c) is tuple else Var(c) for c in row])

    final = tuple((renames[i], render(rows[i])) for i in ordered)
    return EquationSystem(final, renames[principal], frozenset(frees))


def _flat_nfa(m: Monitor, alphabet: frozenset[str]) -> _Ix:
    """The unnamed NFA of the traces on which a closed, well-formed,
    single-verdict monitor flags, read off its flattened equations as
    system_to_dfa reads a system: each row a state, the principal one
    initial; a box an edge, and an ff row accepting and looping on every
    symbol."""
    symbols = tuple(sorted(alphabet))
    rows, _, principal = _flatten(m, symbols)
    column = {y: k for k, y in enumerate(symbols)}
    succ: list[list[tuple[int, ...]]] = [[()] * len(rows) for _ in symbols]
    acc = bytearray(len(rows))
    for i, row in enumerate(rows):
        if row is None:
            acc[i] = 1
            for out in succ:
                out[i] = (i,)
            continue
        # The monitor is closed: all boxes.
        for action, target in row:
            succ[column[action]][i] += (target,)
    return _Ix(symbols, succ, principal, acc)


# ---------------------------------------------------------------------------
# Determinizing a system
# ---------------------------------------------------------------------------


def determinize_system(sys: EquationSystem) -> EquationSystem:
    """Subset-merge a standard system: wherever a right-hand side boxes
    the same action toward several variables, the targets fuse into one
    fresh variable standing for the set, defined as the conjunction of
    its members' equations (ff absorbing).  Original equations stay,
    rewritten; fused equations are appended as they first arise.
    """
    names = sys.names()
    rows = _standard_system(sys)

    def info(Q: frozenset[int]) -> tuple[bool, list[tuple[str, frozenset[int]]], list[str]]:
        if any(rows[i] is None for i in Q):
            return True, [], []
        targets: dict[str, set[int]] = {}  # in order of first use, as are the frees
        frees: dict[str, None] = {}
        for i in sorted(Q):
            for c in rows[i]:
                if type(c) is str:
                    frees[c] = None
                else:
                    targets.setdefault(c[0], set()).add(c[1])
        return False, [(a, frozenset(T)) for a, T in targets.items()], list(frees)

    taken = set(names) | set(sys.free)
    subset_name: dict[frozenset[int], str] = {}
    queue: deque[frozenset[int]] = deque()

    def name_of(Q: frozenset[int]) -> str:
        if len(Q) == 1:
            return names[next(iter(Q))]
        if Q not in subset_name:
            cand = "X_" + "_".join(str(i) for i in sorted(Q))
            while cand in taken:
                cand += "_"
            taken.add(cand)
            subset_name[Q] = cand
            queue.append(Q)
        return subset_name[Q]

    def rebuild(Q: frozenset[int]) -> Formula:
        is_ff, boxes, frees = info(Q)
        if is_ff:
            return FF()
        return mk_and(
            [Box(a, Var(name_of(T))) for a, T in boxes]
            + [Var(y) for y in frees]
        )

    out: list[tuple[str, Formula]] = [
        (names[i], rebuild(frozenset({i}))) for i in range(len(names))
    ]
    while queue:
        Q = queue.popleft()
        out.append((subset_name[Q], rebuild(Q)))
    return EquationSystem(tuple(out), sys.principal, sys.free)


# ---------------------------------------------------------------------------
# System -> automaton -> formula
# ---------------------------------------------------------------------------


def system_to_dfa(sys: EquationSystem, alphabet: frozenset[str]) -> Dfa:
    """The automaton of the traces that violate a closed deterministic-form
    system: each equation is a state, the principal one initial; ``[a]X``
    is an a-edge to X, and an ``ff`` equation accepts and loops on every
    symbol.  A missing edge means the system holds from there on.
    TermError on an open system (one with free variables), on one not in
    deterministic form, and on a box over an action outside `alphabet`."""
    if sys.free:
        raise TermError(f"the system is open: free variables {sorted(sys.free)}")
    rows = _standard_system(sys)
    if not all(map(_deterministic, rows)):
        raise TermError("the system is not in deterministic form")
    names = sys.names()
    accepting = frozenset(n for n, row in zip(names, rows) if row is None)
    transitions = frozenset(
        (n, a, names[t]) for n, row in zip(names, rows) for a, t in row or ()
    ) | {(n, a, n) for n in accepting for a in alphabet}
    return Dfa(frozenset(names), alphabet, transitions, sys.principal, accepting)


def system_to_formula(sys: EquationSystem) -> Formula:
    """Fold a closed deterministic-form system back into one formula: the
    minimal automaton of its violations, unfolded into a rejection
    monitor, read back.  TermError as for system_to_dfa."""
    actions = frozenset(
        t.action for _, f in sys.equations for t in distinct_subterms(f) if isinstance(t, Box)
    )
    m = dfa_to_monitor(minimize_dfa(system_to_dfa(sys, actions)), force=True)
    return TT() if m == Verdict(END) else monitor_to_formula(dualize_monitor(m))


def determinize_formula(f: Formula) -> Formula:
    """End-to-end determinization on the formula side: flatten,
    subset-merge, fold back.  Co-safety formulas run through duality."""
    if is_shml(f):
        return system_to_formula(determinize_system(formula_to_system(f)))
    if is_chml(f):
        return dualize(determinize_formula(dualize(f)))
    raise FragmentError("determinization is defined per fragment; mixed formula")


def is_deterministic_form(f: Formula) -> bool:
    """Inside every conjunction, distinct members must be boxes over
    distinct actions or free variables of the whole formula (dually for
    disjunctions with diamonds)."""
    outer_free = free_vars(f)

    def members_ok(members: tuple[Formula, ...], modality: type) -> bool:
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                if a == b:
                    continue
                if (
                    isinstance(a, Var)
                    and a.name in outer_free
                    or isinstance(b, Var)
                    and b.name in outer_free
                ):
                    continue
                if (
                    isinstance(a, modality)
                    and isinstance(b, modality)
                    and a.action != b.action
                ):
                    continue
                return False
        return True

    for t in distinct_subterms(f):
        if isinstance(t, And) and not members_ok(t.conjuncts, Box):
            return False
        if isinstance(t, Or) and not members_ok(t.disjuncts, Diamond):
            return False
    return True


# ---------------------------------------------------------------------------
# Equation system files
# ---------------------------------------------------------------------------


def parse_equation_system(text: str) -> tuple[EquationSystem, frozenset[str]]:
    alphabet: frozenset[str] | None = None
    principal: str | None = None
    free: frozenset[str] = frozenset()
    raw_eqs: list[tuple[str, str]] = []
    for _, raw, key, value in file_lines(text, ("alphabet", "principal", "free")):
        if key == "alphabet":
            alphabet = frozenset(comma_list(value))
        elif key == "principal":
            principal = value
        elif key == "free":
            free = frozenset(comma_list(value))
        elif "=" in value:
            name, rhs = value.split("=", 1)
            raw_eqs.append((name.strip(), rhs.strip()))
        else:
            raise TermError(f"cannot parse equation line: {raw!r}")
    if alphabet is None:
        raise TermError("equation system file needs an 'alphabet:' line")
    if principal is None:
        raise TermError("equation system file needs a 'principal:' line")
    eqs = tuple(
        (name, parse_formula(rhs, alphabet)) for name, rhs in raw_eqs
    )
    return EquationSystem(eqs, principal, free), alphabet


def format_equation_system(sys: EquationSystem, alphabet: frozenset[str]) -> str:
    lines = [f"alphabet: {', '.join(sorted(alphabet))}", f"principal: {sys.principal}"]
    if sys.free:
        lines.append(f"free: {', '.join(sorted(sys.free))}")
    for name, f in sys.equations:
        lines.append(f"{name} = {print_term(f)}")
    return "\n".join(lines) + "\n"
