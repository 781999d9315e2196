"""The three workloads: their seeded inputs, one timed round, and the checks.

A round makes every program call of the workload once, input by input,
in four phases: ``det`` (monitor-form determinization), ``dfa`` (monitor ->
NFA -> subset construction -> minimal DFA), ``check`` (``verdict_equiv`` of
every determinized output against its source) and ``run`` (``verdicts_on``
on the determinized outputs, under its default rule system).  Each call is
one operation.  The first round's outputs are checked with ``checks``;
every later round must reproduce them exactly.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from time import perf_counter

import detmon as dm
from detmon.terms import Prefix, Rec, Var, Verdict, mk_sum

import checks

# Routes: stratified sizes and verdicts, so that seeds change the shape
# of the monitors but not the make-up of the set.
ROUTES_COUNT = 300
ROUTES_BUDGETS = range(20, 41)
AB = frozenset({"a", "b"})

TWO_VERDICT_COUNT = 300
TWO_VERDICT_BUDGETS = range(16, 41)
ABC = frozenset({"a", "b", "c"})

TRACE_LEN = 10

# Random inputs are kept only while their determinized unfolding stays
# small.  The equations route has no size cap, and a few random monitors
# in a thousand make it run for minutes; the families workload leaves
# out M_4 on that route for the same reason.
UNFOLD_CAP = 200

# The minimal DFA is taken for every member here.  U_n is left out at
# n = 6, where the library's partition pads with a 1 and the language
# stops depending on lcm(n).
MN_DFA = range(1, 12)
UN_DFA = (2, 3, 4, 5, 7, 8, 9, 10)
# The monitor form only while the unfolding stays small.  The equations
# route does not finish within a minute on M_4 or on U_2, and gives M_3
# in 3731 nodes against 164 by the automata route.
MN_DET = range(1, 5)
MN_EQUATIONS = range(1, 3)
UN_DET = (2, 3)
# verdicts_on does not finish on the determinized M_4 under its default
# rule system, so it gets no traces; traces run on automata-route outputs.
NO_TRACES = {("mn", 4)}
FAMILY_TRACES = 3
FAMILY_TRACE_BITS = 7

# On families the determinization calls take milliseconds, about 50 ms a
# round against 12 s for the rest, too little time to average out bursts
# of load on the machine.  There the determinization phase is a pass over
# every input, made before the first input and again after each input's
# other operations, so that its samples are spread over the whole round.
# Routes and two-verdict go input by input, which spreads every phase.
DET_PASSES = {"families"}

# Breadth-first checks cover every trace up to this length.
MAX_LEN = 64
SAMPLED_WORDS = 300


@dataclass
class Item:
    id: str
    monitor: object
    alphabet: frozenset
    verdict: str | None = None          # the one verdict; None: two-verdict
    routes: tuple[str, ...] = ()        # determinization calls
    dfa: tuple[tuple[str, object], ...] = ()  # (verdict, monitor) to minimal DFAs
    family: tuple[str, int] | None = None
    traces: list[tuple[str, ...]] = field(default_factory=list)
    untraced: tuple[str, ...] = ()      # routes whose outputs get no traces

    def traced_routes(self) -> list[str]:
        return [r for r in self.routes if r not in self.untraced]


@dataclass
class Round:
    """Per operation key: its output, and its times (per action for runs),
    one per call."""

    wall: float = 0.0
    times: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Conflict:
    """determinize_two_verdict refused a conflicting monitor."""

    witness: tuple[str, ...]


class Failed:
    """An operation that raised where no exception was expected."""

    def __init__(self, error: BaseException):
        self.error = repr(error)

    def __eq__(self, other):
        return isinstance(other, Failed) and other.error == self.error


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def random_monitor(rng: random.Random, budget: int, alphabet, verdicts,
                   names=None) -> object:
    """A closed random monitor of size at most `budget` whose leaves are
    drawn from `verdicts` or from the variables in scope.

    It has the shape synthesis gives monitors: every choice is between
    action prefixes, every variable sits under at least one prefix below
    its binder, every binder is used exactly once and none directly
    follows another.  Binders are named r0, r1, ... from `names`, so
    monitors sharing it never reuse a name."""
    actions = sorted(alphabet)
    names = names if names is not None else itertools.count()
    used: set[str] = set()

    def go(budget: int, guarded: tuple[str, ...], pending: tuple[str, ...],
           after_binder: bool = False):
        # guarded: variables with a prefix since their binder; pending: not yet
        if budget <= 1:
            free = [name for name in guarded if name not in used]
            if free and rng.random() < 0.3:
                name = rng.choice(free)
                used.add(name)
                return Var(name)
            return Verdict(rng.choice(verdicts))
        roll = rng.random()
        if roll < 0.25 and budget >= 5:
            k = 3 if budget >= 8 and rng.random() < 0.3 else 2
            room = budget - (k - 1) - 2 * k     # each branch: a prefix and a body
            cuts = sorted(rng.randint(0, room) for _ in range(k - 1))
            sizes = [b - a + 1 for a, b in zip([0] + cuts, cuts + [room])]
            return mk_sum([Prefix(rng.choice(actions), go(size, guarded + pending, ()))
                           for size in sizes])
        if roll < 0.45 and not after_binder:
            name = f"r{next(names)}"
            body = go(budget - 1, guarded, pending + (name,), after_binder=True)
            return Rec(name, body) if name in used else body
        return Prefix(rng.choice(actions), go(budget - 1, guarded + pending, ()))

    return go(budget, (), ())


def all_live(m: checks.RefMonitor) -> bool:
    """Can a verdict still be reached from every position?  Synthesis
    never writes a loop that cannot flag anything."""
    preds: dict[int, list[int]] = {}
    for n in range(len(m.kinds)):
        tau, act = m.steps(n)
        for t in tau + [t for ts in act.values() for t in ts]:
            preds.setdefault(t, []).append(n)
    live = {n for n, kind in enumerate(m.kinds) if kind == "Verdict"}
    todo = list(live)
    while todo:
        for p in preds.get(todo.pop(), ()):
            if p not in live:
                live.add(p)
                todo.append(p)
    return len(live) == len(m.kinds)


def unfolding_size(m: checks.RefMonitor, cap: int) -> int:
    """Node count, stopped past `cap`, of the tree of loop-free paths
    through the monitor's reachable verdict-frontiers: the shape that both
    determinization routes write out as a monitor term."""
    succ: dict = {}
    count = 0
    stack = [(m.start(), frozenset([m.start()]))]
    while stack and count <= cap:
        frontier, on_path = stack.pop()
        count += 1
        if frontier not in succ:
            succ[frontier] = [g for g in (m.step(frontier, a) for a in m.alphabet) if g]
        for nxt in succ[frontier]:
            if nxt in on_path:
                count += 1
            else:
                stack.append((nxt, on_path | {nxt}))
    return count


def _acceptable(term, alphabet, verdicts: set[str]) -> bool:
    """Carries exactly `verdicts`, every position is live, and the
    unfolding stays within UNFOLD_CAP."""
    m = checks.RefMonitor(term, alphabet)
    present = {m.data[n] for n, kind in enumerate(m.kinds) if kind == "Verdict"}
    return (present == verdicts and all_live(m)
            and unfolding_size(m, UNFOLD_CAP) <= UNFOLD_CAP)


def routed_two_verdict(rng: random.Random, budget: int) -> object:
    """A two-verdict monitor that is conflict-free by construction: a
    deterministic router (distinct guards, no verdicts) whose exits lead
    into closed single-verdict monitors, so every trace meets at most
    one verdict."""
    actions = sorted(ABC)
    names = itertools.count()

    def router(budget: int, bound: tuple[str, ...], depth: int):
        name = f"q{next(names)}"
        bound = bound + (name,)
        guards = rng.sample(actions, rng.randint(2, len(actions)))
        share = max(2, (budget - 1) // len(guards))
        exits = []
        for g in guards:
            roll = rng.random()
            if roll < 0.25:
                exits.append(Prefix(g, Var(rng.choice(bound))))
            elif roll < 0.45 and depth < 2 and share >= 8:
                exits.append(Prefix(g, router(share - 1, bound, depth + 1)))
            else:
                v = rng.choice((dm.YES, dm.NO))
                exits.append(Prefix(g, random_monitor(rng, share - 1, ABC, (v,), names)))
        return Rec(name, mk_sum(exits))

    while True:
        m = router(budget, (), 0)
        if _acceptable(m, ABC, {dm.YES, dm.NO}):
            return m


def free_two_verdict(rng: random.Random, budget: int) -> object:
    while True:
        m = random_monitor(rng, budget, ABC, (dm.YES, dm.NO))
        if _acceptable(m, ABC, {dm.YES, dm.NO}):
            return m


def _project(term, keep: str):
    """The single-verdict monitor flagging `keep` where `term` does: the
    other of yes and no becomes end, which no flag set counts."""
    if isinstance(term, Verdict):
        return term if term.value in (keep, dm.END) else Verdict(dm.END)
    if isinstance(term, Prefix):
        return Prefix(term.action, _project(term.body, keep))
    if isinstance(term, Rec):
        return Rec(term.var, _project(term.body, keep))
    if isinstance(term, Var):
        return term
    return mk_sum([_project(s, keep) for s in term.summands])


def _as_supplied(term, alphabet):
    """Print to text and parse back, as a user hands a monitor file in."""
    text = dm.format_term_file(term, alphabet)
    monitor, declared = dm.parse_monitor_file(text)
    return monitor, declared


def _random_trace(rng: random.Random, alphabet, length: int) -> tuple[str, ...]:
    actions = sorted(alphabet)
    return tuple(rng.choice(actions) for _ in range(length))


def setup_families(seed: int) -> list[Item]:
    # The families are fixed, and so are their traces: on the determinized
    # U_3 the cost of a trace varies eighteen-fold with its bits, which
    # would make run_us_per_action follow the seed.
    rng = random.Random("families-traces")
    items = []
    for name, build, dfa_ns, det_ns in (
        ("mn", dm.mn_monitor, MN_DFA, MN_DET),
        ("un", dm.un_monitor, UN_DFA, UN_DET),
    ):
        for n in sorted(set(dfa_ns) | set(det_ns)):
            monitor, alphabet = _as_supplied(build(n), dm.ALPHABET_01E)
            routes = ("automata",) if n in det_ns else ()
            if name == "mn" and n in MN_EQUATIONS:
                routes += ("equations",)
            item = Item(f"{name}{n}", monitor, alphabet, dm.YES, routes,
                        ((dm.YES, monitor),) if n in dfa_ns else (), (name, n),
                        untraced=("equations",))
            if n in det_ns and (name, n) not in NO_TRACES:
                item.traces = [
                    _random_trace(rng, ("0", "1"), FAMILY_TRACE_BITS) + ("e",)
                    for _ in range(FAMILY_TRACES)
                ]
            items.append(item)
    return items


def setup_routes(seed: int) -> list[Item]:
    rng = random.Random(f"routes-{seed}")
    items = []
    for i in range(ROUTES_COUNT):
        budget = ROUTES_BUDGETS[i % len(ROUTES_BUDGETS)]
        verdict = (dm.YES, dm.NO)[i % 2]
        while True:
            term = random_monitor(rng, budget, AB, (verdict,))
            if _acceptable(term, AB, {verdict}):
                break
        monitor, alphabet = _as_supplied(term, AB)
        items.append(Item(f"r{i}", monitor, alphabet, verdict,
                          ("automata", "equations"), ((verdict, monitor),),
                          traces=[_random_trace(rng, AB, TRACE_LEN)]))
    return items


def setup_two_verdict(seed: int) -> list[Item]:
    rng = random.Random(f"two-verdict-{seed}")
    items = []
    for i in range(TWO_VERDICT_COUNT):
        budget = TWO_VERDICT_BUDGETS[(i // 2) % len(TWO_VERDICT_BUDGETS)]
        make = routed_two_verdict if i % 2 == 0 else free_two_verdict
        monitor, alphabet = _as_supplied(make(rng, budget), ABC)
        items.append(Item(f"t{i}", monitor, alphabet, None, ("two-verdict",),
                          tuple((v, _project(monitor, v)) for v in (dm.YES, dm.NO)),
                          traces=[_random_trace(rng, ABC, TRACE_LEN)]))
    return items


SETUPS = {
    "families": setup_families,
    "routes": setup_routes,
    "two-verdict": setup_two_verdict,
}


# ---------------------------------------------------------------------------
# One round
# ---------------------------------------------------------------------------


def _determinize(item: Item, route: str):
    if route == "two-verdict":
        try:
            return dm.determinize_two_verdict(item.monitor, item.alphabet, force=True)
        except dm.ConflictingMonitorError as conflict:
            return Conflict(tuple(conflict.witness))
    return dm.determinize_monitor(item.monitor, item.alphabet, method=route, force=True)


def _fresh_trace_state() -> None:
    """Each trace starts from what a fresh `detmon trace` process has:
    the rule system "O" keeps a module-wide cache that would otherwise
    carry over from one call to the next."""
    cache = getattr(dm.semantics, "_O_TAU_CACHE", None)
    if cache is not None:
        cache.clear()


def det_pass(items: list[Item]) -> dict:
    """The determinization phase alone, for the peak-memory pass."""
    outputs = {}
    for item in items:
        for route in item.routes:
            try:
                outputs[("det", item.id, route)] = _determinize(item, route)
            except Exception as error:  # recorded and counted as failed
                outputs[("det", item.id, route)] = Failed(error)
    return outputs


def run_round(items: list[Item], tracer, det_passes: bool = False) -> Round:
    r = Round()

    def op(key, call, input_id, per=1, before=None):
        tracer.input_id = input_id
        if before:
            before()
        t0 = perf_counter()
        try:
            result = call()
        except Exception as error:  # recorded and counted as failed
            result = Failed(error)
        r.times.setdefault(key, []).append((perf_counter() - t0) / per)
        if key not in r.outputs:
            r.outputs[key] = result
        elif r.outputs[key] != result:
            r.outputs[key] = Failed(RuntimeError("a repeated call gave another output"))

    def usable(key):
        return not isinstance(r.outputs[key], (Failed, Conflict))

    def det(item):
        for route in item.routes:
            op(("det", item.id, route), lambda: _determinize(item, route),
               f"{item.id}/{route}")

    def det_pass():
        for item in items:
            det(item)

    start = perf_counter()
    if det_passes:
        det_pass()
    for item in items:
        if not det_passes:
            det(item)
        for verdict, monitor in item.dfa:
            op(("dfa", item.id, verdict), lambda: dm.minimize_dfa(dm.subset_construction(
                dm.monitor_to_nfa(monitor, verdict, item.alphabet))),
               f"{item.id}/dfa-{verdict}")
        for route in item.routes:
            if usable(("det", item.id, route)):
                out = r.outputs[("det", item.id, route)]
                op(("check", item.id, route),
                   lambda: bool(dm.verdict_equiv(item.monitor, out, item.alphabet)),
                   f"{item.id}/{route}")
        for route in item.traced_routes():
            if usable(("det", item.id, route)):
                out = r.outputs[("det", item.id, route)]
                for k, trace in enumerate(item.traces):
                    op(("run", item.id, route, k),
                       lambda: dm.verdicts_on(out, trace, item.alphabet),
                       f"{item.id}/{route}/{k}", per=len(trace), before=_fresh_trace_state)
        if det_passes:
            det_pass()
    r.wall = perf_counter() - start
    _fresh_trace_state()
    return r


def output_size(outputs: dict) -> int:
    return sum(dm.size(v) for k, v in outputs.items()
               if k[0] == "det" and not isinstance(v, (Failed, Conflict)))


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_round(items: list[Item], outputs: dict, seed: int) -> dict:
    """Operation key -> reason, for every output that is wrong."""
    bad: dict = {}
    rng = random.Random(f"check-{seed}")
    for key, value in outputs.items():
        if isinstance(value, Failed):
            bad[key] = value.error
    for item in items:
        src = checks.RefMonitor(item.monitor, item.alphabet)
        refs = {}
        for route in item.routes:
            key = ("det", item.id, route)
            det = outputs[key]
            if key in bad:
                continue
            if item.verdict is None:
                conflict = checks.shortest_conflict(src, MAX_LEN)
                if isinstance(det, Conflict):
                    w = det.witness
                    if conflict is None:
                        bad[key] = "conflict reported on a conflict-free monitor"
                    elif src.verdicts(w) != checks.FLAGS:
                        bad[key] = f"witness {w} does not flag both verdicts"
                    elif len(w) != len(conflict):
                        bad[key] = f"witness {w} is longer than {conflict}"
                    continue
                if conflict is not None:
                    bad[key] = f"conflict on {conflict} not reported"
                    continue
            reason = _check_deterministic(src, det, item.alphabet)
            if reason:
                bad[key] = reason
                continue
            refs[route] = checks.RefMonitor(det, item.alphabet)
            for k, trace in enumerate(item.traces if route in item.traced_routes() else ()):
                run_key = ("run", item.id, route, k)
                expect = refs[route].verdicts(trace, include_end=True)
                if run_key not in bad and outputs[run_key] != expect:
                    bad[run_key] = f"verdicts {outputs[run_key]} on {trace}, expected {expect}"
            check_key = ("check", item.id, route)
            if check_key not in bad and outputs[check_key] is not True:
                bad[check_key] = "verdict_equiv denies an equivalent output"
        if "automata" in refs and "equations" in refs:
            w = checks.verdict_difference(refs["automata"], refs["equations"], MAX_LEN)
            if w is not None:
                bad[("det", item.id, "equations")] = f"routes disagree on {w}"
        for verdict, _ in item.dfa:
            key = ("dfa", item.id, verdict)
            if key not in bad:
                reason = _check_dfa(item, src, verdict, outputs[key], rng)
                if reason:
                    bad[key] = reason
    return bad


def _check_deterministic(src, det, alphabet) -> str | None:
    if not checks.is_syntactically_deterministic(det):
        return "output is not syntactically deterministic"
    extra = checks.actions_of(det) - alphabet
    if extra:
        return f"output uses actions outside the alphabet: {sorted(extra)}"
    w = checks.verdict_difference(src, checks.RefMonitor(det, alphabet), MAX_LEN)
    if w is not None:
        return f"output flags other verdicts than its source on {w}"
    return None


def _sample_word(rng: random.Random, max_prefix: int) -> tuple[str, ...]:
    prefix = tuple(rng.choice("01") for _ in range(rng.randint(0, max_prefix)))
    if rng.random() < 0.1:
        return prefix
    return prefix + ("e",) + tuple(rng.choice("01e") for _ in range(rng.randint(0, 3)))


def _check_dfa(item: Item, src, verdict: str, dfa, rng: random.Random) -> str | None:
    if not checks.dfa_is_total(dfa):
        return "minimal DFA is not total"
    if item.family is None:
        w = checks.dfa_difference(src, verdict, dfa, MAX_LEN)
        return None if w is None else f"DFA and monitor disagree on {w}"
    name, n = item.family
    states = len(dfa.states)
    if name == "mn":
        if states != 2**n + 2:
            return f"M_{n} minimal DFA has {states} states, not {2**n + 2}"
        holds, longest = checks.mn_holds, 2 * n + 2
    else:
        lcm, _ = checks.landau_parts(n)
        if states < lcm:
            return f"U_{n} minimal DFA has {states} states, fewer than lcm {lcm}"
        holds, longest = checks.un_holds, 3 * lcm
    for _ in range(SAMPLED_WORDS):
        word = _sample_word(rng, longest)
        if checks.dfa_accepts(dfa, word) != holds(n, word):
            return f"DFA and the {name} predicate disagree on {''.join(word)}"
    return None
