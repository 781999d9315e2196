"""Tests of the benchmark's own checks, on cases worked by hand.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

import run

dm = run.import_detmon()

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from detmon.terms import Prefix, Rec, Sum, Verdict  # noqa: E402

AB = frozenset({"a", "b"})


def ref(text: str, alphabet=AB) -> checks.RefMonitor:
    return checks.RefMonitor(dm.parse_monitor(text, alphabet), alphabet)


# ---------------------------------------------------------------------------
# Reference evaluator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, trace, expected",
    [
        ("a.yes", "", set()),
        ("a.yes", "a", {"yes"}),
        ("a.yes", "b", set()),
        ("a.yes", "ab", {"yes"}),            # verdicts absorb every action
        ("yes + a.no", "", set()),           # a summand moves only on an action
        ("yes + a.no", "a", {"yes", "no"}),
        ("yes + a.no", "b", {"yes"}),
        ("rec x. (a.x + b.no)", "aab", {"no"}),
        ("rec x. (a.x + b.no)", "aa", set()),
        ("rec x. (a.x + b.no)", "aba", {"no"}),
        ("a.rec x. yes", "a", {"yes"}),      # silent unfolding after the action
        ("rec x. (x + a.yes)", "a", {"yes"}),  # the variable moves as its binder
        ("rec x. a.rec y. (b.x + a.y + a.b.yes)", "aab", {"yes"}),
        ("rec x. a.rec y. (b.x + a.y + a.b.yes)", "abab", set()),
    ],
)
def test_reference_verdicts(text, trace, expected):
    assert ref(text).verdicts(tuple(trace)) == expected


def test_end_is_reported_only_when_asked():
    m = ref("a.end")
    assert m.verdicts(("a",)) == set()
    assert m.verdicts(("a",), include_end=True) == {"end"}


def test_shortest_conflict():
    assert checks.shortest_conflict(ref("a.yes + a.b.no"), 10) == ("a", "b")
    assert checks.shortest_conflict(ref("a.yes + a.no"), 10) == ("a",)
    assert checks.shortest_conflict(ref("a.yes + b.no"), 10) is None
    # yes on aa and no on aa, reached along different loops
    assert checks.shortest_conflict(ref("rec x. (a.x + a.a.yes) + a.rec y. a.no"), 10) == ("a", "a")


def test_verdict_difference():
    left = ref("rec x. (a.x + b.yes)")
    right = ref("rec y. (a.y + b.yes + a.b.yes)")
    assert checks.verdict_difference(left, right, 10) is None
    assert checks.verdict_difference(ref("a.yes"), ref("b.yes"), 10) == ("a",)
    assert checks.verdict_difference(ref("a.a.yes"), ref("a.a.no"), 10) == ("a", "a")
    # a difference beyond the bound is not seen
    assert checks.verdict_difference(ref("a.a.yes"), ref("a.a.no"), 1) is None


def test_syntactic_determinism():
    p = lambda text: dm.parse_monitor(text, AB)  # noqa: E731
    assert checks.is_syntactically_deterministic(p("rec x. (a.x + b.no)"))
    assert not checks.is_syntactically_deterministic(p("a.yes + a.no"))
    assert not checks.is_syntactically_deterministic(p("yes + a.no"))
    assert not checks.is_syntactically_deterministic(p("rec x. (a.x + rec y. b.y)"))
    assert checks.actions_of(p("a.b.yes + b.no")) == {"a", "b"}


# ---------------------------------------------------------------------------
# Witness languages and automata
# ---------------------------------------------------------------------------


def test_landau_parts():
    assert checks.landau_parts(2) == (2, {2})
    assert checks.landau_parts(5) == (6, {2, 3})
    assert checks.landau_parts(7) == (12, {3, 4})
    assert checks.landau_parts(10) == (30, {2, 3, 5})
    with pytest.raises(ValueError):
        checks.landau_parts(6)  # 6 and 1+2+3 both reach lcm 6


@pytest.mark.parametrize(
    "n, word, expected",
    [(2, "10e", True), (2, "01e", False), (2, "1e", False), (2, "10", False),
     (2, "110e0", True), (1, "e1", False), (3, "1001e", False), (3, "0100e1", True)],
)
def test_mn_holds(n, word, expected):
    assert checks.mn_holds(n, word) is expected


@pytest.mark.parametrize(
    "word, expected",
    [("e", False), ("0e", False), ("00e", True), ("000e", True), ("00000e", False),
     ("0101010e", True), ("0010e", True), ("0000011e", True), ("00", False),
     ("0e00", False)],
)
def test_un_holds_counts_only_parts_above_one(word, expected):
    assert checks.un_holds(5, word) is expected  # parts 2 and 3


def _toggle_dfa(drop=None):
    """Accepts the words over {a, b} with an odd number of a's."""
    transitions = {("p", "a", "q"), ("p", "b", "p"), ("q", "a", "p"), ("q", "b", "q")}
    return SimpleNamespace(states=frozenset("pq"), alphabet=AB, initial="p",
                           accepting=frozenset("q"), transitions=transitions - {drop})


def test_dfa_helpers():
    d = _toggle_dfa()
    assert checks.dfa_is_total(d)
    assert checks.dfa_accepts(d, "aba") is False
    assert checks.dfa_accepts(d, "abb") is True
    partial = _toggle_dfa(drop=("q", "b", "q"))
    assert not checks.dfa_is_total(partial)
    assert checks.dfa_accepts(partial, "ab") is False
    m = ref("rec x. (b.x + a.rec y. (b.y + a.x + a.yes))")  # yes once two a's are read
    assert checks.dfa_difference(m, "yes", d, 10) == ("a",)


# ---------------------------------------------------------------------------
# Mutations must be counted as failed
# ---------------------------------------------------------------------------


def _flip_first_verdict(t):
    if isinstance(t, Verdict):
        return Verdict("no" if t.value == "yes" else "yes")
    if isinstance(t, Prefix):
        return Prefix(t.action, _flip_first_verdict(t.body))
    if isinstance(t, Rec):
        return Rec(t.var, _flip_first_verdict(t.body))
    if isinstance(t, Sum):
        for i, s in enumerate(t.summands):
            flipped = _flip_first_verdict(s)
            if flipped != s:
                return Sum(t.summands[:i] + (flipped,) + t.summands[i + 1:])
    return t


def _routes_item():
    m = dm.parse_monitor("rec x. (a.x + b.x + a.b.yes)", AB)
    return workloads.Item("r0", m, AB, "yes", ("automata", "equations"), (("yes", m),),
                          traces=[tuple("aab")])


def _failed(items, r):
    _, failed, _ = run.count_failed(items, [r], seed=1, workloads=workloads)
    return failed


def test_unmutated_outputs_pass():
    items = [_routes_item()]
    assert _failed(items, workloads.run_round(items, tracing.Tracer())) == 0


def test_flipped_verdict_is_failed():
    items = [_routes_item()]
    r = workloads.run_round(items, tracing.Tracer())
    key = ("det", "r0", "automata")
    flipped = _flip_first_verdict(r.outputs[key])
    assert flipped != r.outputs[key]
    r.outputs[key] = flipped
    assert _failed(items, r) >= 1


def test_dropped_dfa_transition_is_failed():
    items = [_routes_item()]
    r = workloads.run_round(items, tracing.Tracer())
    d = r.outputs[("dfa", "r0", "yes")]
    drop = sorted(d.transitions)[0]
    r.outputs[("dfa", "r0", "yes")] = dm.Dfa(d.states, d.alphabet, d.transitions - {drop},
                                      d.initial, d.accepting)
    assert _failed(items, r) == 1


def test_family_dfa_mutations_are_failed():
    monitor = dm.mn_monitor(3)
    item = workloads.Item("mn3", monitor, dm.ALPHABET_01E, "yes", (), (("yes", monitor),),
                          ("mn", 3))
    r = workloads.run_round([item], tracing.Tracer())
    assert _failed([item], r) == 0
    d = r.outputs[("dfa", "mn3", "yes")]
    # redirect one edge: still total, with 2^3 + 2 states, but M_3 is lost
    src, sym, dst = next(t for t in sorted(d.transitions) if t[0] == d.initial and t[1] == "1")
    redirected = d.transitions - {(src, sym, dst)} | {(src, sym, src)}
    r.outputs[("dfa", "mn3", "yes")] = dm.Dfa(d.states, d.alphabet, redirected, d.initial, d.accepting)
    assert _failed([item], r) == 1


def test_later_round_must_repeat_the_first():
    items = [_routes_item()]
    first = workloads.run_round(items, tracing.Tracer())
    second = workloads.run_round(items, tracing.Tracer())
    assert run.count_failed(items, [first, second], 1, workloads)[:2] == (14, 0)
    second.outputs[("run", "r0", "automata", 0)] = frozenset({"no"})
    assert run.count_failed(items, [first, second], 1, workloads)[:2] == (14, 1)


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


def test_tracer_records_nested_spans_and_restores():
    original = dm.determinize_monitor
    monitor = dm.parse_monitor("a.yes + a.b.yes", AB)
    tracer = tracing.Tracer()
    tracer.input_id = "x"
    tracer.install()
    try:
        dm.determinize_monitor(monitor, AB)
    finally:
        tracer.uninstall()
    assert dm.determinize_monitor is original
    assert dm.pipeline.monitor_to_nfa is dm.automata.monitor_to_nfa
    names = [s[0] for s in tracer.spans]
    assert names[0] == "pipeline.self"
    assert {"terms.well_form", "automata.nfa", "automata.subset",
            "automata.minimize", "automata.unfold"} <= set(names)
    assert all(s[3] >= 0 and s[4] == "x" for s in tracer.spans[1:])
    totals = tracer.totals()
    assert totals["pipeline.self_calls"] == 1
    assert totals["automata.nfa_states"] >= 1
    assert 0 < totals["pipeline.self_s"] < tracer.spans[0][2] - tracer.spans[0][1]
