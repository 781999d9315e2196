"""Conflict detection and the two-verdict determinization pipeline."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from detmon.equivalence import verdict_equiv
from detmon.semantics import StepEngine, binder_map, is_deterministic, verdicts_on
from detmon.syntax import parse_monitor, print_term
from detmon.terms import (
    NO,
    NO_MARKER,
    Prefix,
    TermError,
    Verdict,
    YES,
    eliminate_verdict_sums,
    verdicts_in,
    well_form,
)
from detmon.verdicts import (
    ConflictingMonitorError,
    determinize_two_verdict,
    is_conflicting,
    nu,
    nu_inverse,
)

from gen import all_words, random_two_verdict

A = frozenset({"a"})
AB = frozenset({"a", "b"})


# ---------------------------------------------------------------------------
# The marker translation
# ---------------------------------------------------------------------------


def test_nu_golden():
    m = parse_monitor("a.yes + b.no", AB)
    t = nu(m, AB)
    assert print_term(t) == "a.yes + b.[no].yes"
    assert nu_inverse(t) == m


def test_nu_shifts_the_no_language_by_one_marker():
    m = parse_monitor("a.no", A)
    t = nu(m, A)
    ext = frozenset(A | {NO_MARKER})
    assert verdicts_on(t, ("a", NO_MARKER), ext) == {YES}
    assert verdicts_on(t, ("a",), ext) == frozenset()


def test_nu_rejects_marker_collisions():
    with pytest.raises(TermError):
        nu(parse_monitor("a.no", A), frozenset({"a", NO_MARKER}))
    marked = parse_monitor(f"{NO_MARKER}.yes", A, allow_marker=True)
    with pytest.raises(TermError):
        nu(marked, A)


def test_nu_rejects_verdict_summands():
    with pytest.raises(TermError):
        nu(parse_monitor("a.yes + no", AB), AB)


def test_nu_inverse_rejects_misplaced_markers():
    bad = Prefix(NO_MARKER, Verdict(NO))
    with pytest.raises(TermError):
        nu_inverse(bad)


@settings(deadline=None)
@given(st.integers(0, 5_000))
def test_nu_round_trip(seed):
    m = random_two_verdict(random.Random(seed), 10)
    m = eliminate_verdict_sums(well_form(m, AB), AB)
    prepared = nu(m, AB)
    assert nu_inverse(prepared) == m
    # determinize_two_verdict hands this on without well-forming it again.
    assert well_form(prepared, AB | {NO_MARKER}) == prepared


# ---------------------------------------------------------------------------
# Conflicts
# ---------------------------------------------------------------------------


def test_conflict_goldens():
    c = is_conflicting(parse_monitor("a.yes + a.no", AB), AB)
    assert c and c.witness == ("a",)
    assert not is_conflicting(parse_monitor("rec x. a.(a.no + x)", A), A)
    assert not is_conflicting(parse_monitor("a.yes + b.no", AB), AB)


def test_conflict_through_recursion():
    m = parse_monitor("rec x. (a.x + b.yes + b.a.no)", AB)
    c = is_conflicting(m, AB)
    # after b the monitor holds yes; one more a raises no on the same run?
    # no: yes and no must appear on the SAME trace.  b gives yes, b.a gives
    # both because yes persists.
    assert c and c.witness == ("b", "a")


def _frontier_conflict(m, alphabet, max_depth=8):
    """Independent oracle: breadth-first over verdict-set frontiers."""
    engine = StepEngine(alphabet, "N", binder_map(m))

    def close(ts):
        out = set()
        for t in ts:
            out.update(engine.tau_closure(t))
        return frozenset(out)

    def both(front):
        vs = {t.value for t in front if isinstance(t, Verdict)}
        return YES in vs and NO in vs

    start = close({m})
    seen = {start}
    frontier = [start]
    for _ in range(max_depth + 1):
        for f in frontier:
            if both(f):
                return True
        nxt = []
        for f in frontier:
            for a in sorted(alphabet):
                out = set()
                for t in f:
                    out.update(engine.weak_successors(t, a))
                g = frozenset(out)
                if g and g not in seen:
                    seen.add(g)
                    nxt.append(g)
        frontier = nxt
    return False


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 6_000))
def test_conflict_matches_frontier_oracle(seed):
    m = random_two_verdict(random.Random(seed), 12)
    got = is_conflicting(m, AB)
    # the oracle is bounded; stretch its horizon to the claimed witness
    bound = max(8, len(got.witness)) if got else 8
    assert bool(got) == _frontier_conflict(m, AB, bound), m


def test_conflict_witness_is_conflicted():
    m = parse_monitor("rec x. (a.x + a.b.yes + a.b.no)", AB)
    c = is_conflicting(m, AB)
    assert c
    flags = verdicts_on(m, c.witness, AB)
    assert {YES, NO} <= flags


# ---------------------------------------------------------------------------
# Two-verdict determinization
# ---------------------------------------------------------------------------


def test_two_verdict_golden():
    m = parse_monitor("a.yes + b.no", AB)
    d = determinize_two_verdict(m, AB)
    assert is_deterministic(d)
    assert verdicts_on(d, ("a",), AB) == {YES}
    assert verdicts_on(d, ("b",), AB) == {NO}
    assert NO_MARKER not in print_term(d)


def test_two_verdict_rejects_conflicts():
    with pytest.raises(ConflictingMonitorError) as exc:
        determinize_two_verdict(parse_monitor("a.yes + a.no", AB), AB)
    assert exc.value.witness == ("a",)


def test_two_verdict_delegates_single_verdict():
    m = parse_monitor("rec x. a.(a.no + x)", A)
    d = determinize_two_verdict(m, A)
    assert is_deterministic(d)
    assert verdict_equiv(m, d, A)


def test_bare_verdict_summands_usually_conflict():
    # a bare `no` summand self-loops on every action, so it reaches no on
    # any nonempty trace — together with a.yes that is a conflict on "a"
    c = is_conflicting(parse_monitor("a.yes + no", AB), AB)
    assert c and c.witness == ("a",)


def test_two_verdict_with_verdict_summands():
    # here the verdict summand sits behind b, disjoint from the yes region
    m = parse_monitor("b.(a.no + no) + a.yes", AB)
    assert not is_conflicting(m, AB)
    d = determinize_two_verdict(m, AB)
    assert is_deterministic(d)
    for w in all_words(AB, 4):
        assert verdicts_on(m, w, AB) == verdicts_on(d, w, AB), w


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 4_000))
def test_two_verdict_random_equivalence(seed):
    rng = random.Random(seed)
    m = random_two_verdict(rng, 8)
    m = well_form(m, AB)
    try:
        d = determinize_two_verdict(m, AB, force=True)
    except ConflictingMonitorError:
        return
    assert is_deterministic(d)
    r = verdict_equiv(m, d, AB)
    assert r, (print_term(m), print_term(d), r.witness, r.verdict)
