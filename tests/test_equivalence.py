"""Verdict equivalence, its bounded approximation, and trace pumping."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detmon.equivalence import (
    EquivResult,
    bounded_equiv,
    pump_check,
    simple_traces,
    verdict_equiv,
)
from detmon.semantics import verdicts_on
from detmon.syntax import parse_monitor
from detmon.terms import END, NO, YES, Prefix, Verdict, height, mk_sum, size

from gen import random_monitor

A = frozenset({"a"})
AB = frozenset({"a", "b"})


# ---------------------------------------------------------------------------
# verdict_equiv
# ---------------------------------------------------------------------------


def test_unfolding_is_invisible():
    assert verdict_equiv(parse_monitor("a.yes", A), parse_monitor("rec x. a.yes", A), A)


def test_the_running_example_determinizes_to_two_steps():
    m_e = parse_monitor("rec x. a.(a.no + x)", A)
    assert verdict_equiv(m_e, parse_monitor("a.a.no", A), A)


def test_inequivalence_carries_a_shortest_witness():
    r = verdict_equiv(parse_monitor("a.yes", A), parse_monitor("a.a.yes", A), A)
    assert not r
    assert r.witness == ("a",)
    assert r.verdict == YES
    assert bool(r) is False


def test_verdicts_are_compared_verdict_by_verdict():
    r = verdict_equiv(parse_monitor("a.yes", A), parse_monitor("a.no", A), A)
    assert not r
    assert r.verdict in (YES, NO)


def test_end_is_ignored_unless_asked_for():
    quiet = Verdict(END)
    late = parse_monitor("a.end", A)
    assert verdict_equiv(quiet, late, A)
    r = verdict_equiv(quiet, late, A, include_end=True)
    assert not r
    assert r.witness == ()
    assert r.verdict == END


def test_a_verdict_carried_by_one_side_only_is_still_compared():
    # `c` is outside the alphabet, so this no is carried but never flagged
    unreachable = mk_sum([Prefix("a", Verdict(YES)), Prefix("c", Verdict(NO))])
    assert verdict_equiv(unreachable, parse_monitor("a.yes", AB), AB)
    r = verdict_equiv(parse_monitor("a.yes + b.no", AB), parse_monitor("a.yes", AB), AB)
    assert not r
    assert (r.witness, r.verdict) == (("b",), NO)


def test_result_is_truthy_on_success():
    r = verdict_equiv(Verdict(YES), Verdict(YES), A)
    assert isinstance(r, EquivResult)
    assert r
    assert r.witness is None and r.verdict is None


# ---------------------------------------------------------------------------
# bounded_equiv agrees with the exact decision
# ---------------------------------------------------------------------------


def test_bounded_sees_the_difference_at_its_depth():
    m1 = parse_monitor("a.yes", A)
    m2 = parse_monitor("a.a.yes", A)
    assert bounded_equiv(m1, m2, 0, A)
    assert not bounded_equiv(m1, m2, 1, A)


def test_bounded_vs_exact_on_random_pairs():
    rng = random.Random(411)
    agree_budget = 0
    for _ in range(120):
        m1 = random_monitor(rng, rng.randint(1, 9), AB, verdicts=(YES,))
        m2 = random_monitor(rng, rng.randint(1, 9), AB, verdicts=(YES,))
        exact = bool(verdict_equiv(m1, m2, AB))
        approx = bounded_equiv(m1, m2, 8, AB)
        if exact:
            # a sound bound can never separate equal monitors
            assert approx
        elif approx:
            # the bound may miss deep differences, but only deep ones
            w = verdict_equiv(m1, m2, AB).witness
            assert w is not None and len(w) > 8
            agree_budget += 1
    assert agree_budget <= 5  # depth 8 resolves almost everything this small


def test_bounded_equiv_honours_the_witness_length():
    m1 = parse_monitor("rec x. a.(a.no + x)", A)
    m2 = parse_monitor("a.a.a.no", A)
    r = verdict_equiv(m1, m2, A)
    assert not r
    cut = len(r.witness)
    assert bounded_equiv(m1, m2, cut - 1, A)
    assert not bounded_equiv(m1, m2, cut, A)


# ---------------------------------------------------------------------------
# simple_traces
# ---------------------------------------------------------------------------


def test_simple_traces_golden():
    m = parse_monitor("rec x. a.(a.no + x)", A)
    assert simple_traces(m, height(m)) == {(), ("a",), ("a", "a")}


def test_simple_traces_are_prefix_closed():
    rng = random.Random(7)
    for _ in range(80):
        m = random_monitor(rng, rng.randint(1, 12), AB)
        traces = simple_traces(m, height(m))
        for t in traces:
            assert t[:-1] in traces or t == ()


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_simple_traces_counts_bounded_by_size_and_height(seed):
    rng = random.Random(seed)
    m = random_monitor(rng, rng.randint(1, 12), AB)
    traces = simple_traces(m, height(m))
    assert len(traces) <= size(m)
    assert all(len(t) <= height(m) for t in traces)


def test_simple_traces_respects_the_length_cap():
    m = parse_monitor("a.a.a.yes", A)
    assert simple_traces(m, 2) == {(), ("a",), ("a", "a")}


# ---------------------------------------------------------------------------
# pump_check
# ---------------------------------------------------------------------------


def test_pump_check_returns_none_on_simple_traces():
    m = parse_monitor("rec x. a.(a.no + x)", A)
    assert pump_check(m, ("a", "a"), A) is None


def test_pump_check_finds_the_loop():
    m = parse_monitor("rec x. a.(a.no + x)", A)
    split = pump_check(m, ("a", "a", "a", "a"), A)
    assert split is not None
    x, u, z = split
    assert x + u + z == ("a", "a", "a", "a")
    assert len(u) >= 1
    base = verdicts_on(m, ("a", "a", "a", "a"), A)
    for i in range(4):
        assert verdicts_on(m, x + u * i + z, A) == base


def test_pump_check_on_random_long_traces():
    rng = random.Random(1109)
    checked = 0
    for _ in range(60):
        m = random_monitor(rng, rng.randint(3, 10), AB)
        trace = tuple(rng.choice(sorted(AB)) for _ in range(height(m) + 2))
        split = pump_check(m, trace, AB)
        if split is None:
            continue
        checked += 1
        x, u, z = split
        assert x + u + z == trace
        base = verdicts_on(m, trace, AB)
        for i in range(4):
            assert verdicts_on(m, x + u * i + z, AB) == base
    assert checked > 10
