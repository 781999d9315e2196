"""Automata algorithms, checked against brute-force oracles."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from detmon.automata import (
    Dfa,
    Nfa,
    as_nfa,
    dfa_to_monitor,
    distinguishing_word,
    format_automaton,
    irrevocable_closure,
    is_empty,
    is_irrevocable,
    language_equiv,
    member,
    minimize_dfa,
    monitor_to_nfa,
    nfa_to_monitor,
    parse_automaton,
    subset_construction,
)
from detmon.families import ALPHABET_01E, mn_monitor, un_monitor
from detmon.semantics import CapExceeded, is_deterministic, verdicts_on
from detmon.syntax import parse_monitor, print_term
from detmon.terms import NO, Prefix, TermError, Verdict, YES, size, subterms

from gen import all_words, random_monitor

A = frozenset({"a"})
AB = frozenset({"a", "b"})
FIELDS = ("states", "alphabet", "transitions", "initial", "accepting")


def me():
    return parse_monitor("rec x. a.(a.no + x)", A)


def random_nfa(rng: random.Random, max_states: int = 4) -> Nfa:
    n = rng.randint(1, max_states)
    states = [f"q{i}" for i in range(n)]
    transitions = set()
    for s in states:
        for sym in sorted(AB):
            for _ in range(rng.choice((0, 1, 1, 2))):
                transitions.add((s, sym, rng.choice(states)))
    accepting = frozenset(s for s in states if rng.random() < 0.4)
    return Nfa(frozenset(states), AB, frozenset(transitions), "q0", accepting)


# ---------------------------------------------------------------------------
# Monitor -> NFA
# ---------------------------------------------------------------------------


def test_running_example_nfa_shape():
    nfa = monitor_to_nfa(me(), NO, A)
    assert len(nfa.states) == 4
    assert len(nfa.accepting) == 1
    acc = next(iter(nfa.accepting))
    assert nfa.succ(acc, "a") == [acc]  # the verdict self-loop


def test_nfa_language_is_the_no_language():
    nfa = monitor_to_nfa(me(), NO, A)
    for w in all_words(A, 5):
        assert member(nfa, w) == (NO in verdicts_on(me(), w, A)), w


def test_wrong_verdict_is_rejected():
    with pytest.raises(TermError):
        monitor_to_nfa(me(), YES, A)
    with pytest.raises(TermError):
        monitor_to_nfa(me(), "end", A)


@settings(deadline=None)
@given(st.integers(0, 3_000))
def test_state_count_never_exceeds_monitor_size(seed):
    m = random_monitor(random.Random(seed), 12, verdicts=(YES, "end"))
    nfa = monitor_to_nfa(m, YES, AB)
    assert len(nfa.states) <= size(m)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 3_000))
def test_nfa_membership_tracks_monitor_verdicts(seed):
    rng = random.Random(seed)
    m = random_monitor(rng, 10, verdicts=(YES, "end"))
    nfa = monitor_to_nfa(m, YES, AB)
    for w in all_words(AB, 4):
        assert member(nfa, w) == (YES in verdicts_on(m, w, AB, system="N")), (m, w)


# ---------------------------------------------------------------------------
# Subset construction and minimization
# ---------------------------------------------------------------------------


def _brute_minimal_states(d: Dfa) -> int:
    """Myhill-Nerode by table filling, independently of minimize_dfa."""
    delta = d.delta()
    syms = sorted(d.alphabet)
    reach = [d.initial]
    seen = {d.initial}
    for q in reach:
        for s in syms:
            t = delta.get((q, s))
            if t is not None and t not in seen:
                seen.add(t)
                reach.append(t)
    sink = object()
    states: list[object] = list(reach)
    if any(delta.get((q, s)) is None for q in reach for s in syms):
        states.append(sink)

    def step(q, s):
        if q is sink:
            return sink
        t = delta.get((q, s))
        return sink if t is None else t

    def accepting(q):
        return q is not sink and q in d.accepting

    marked = {
        (p, q)
        for p in states
        for q in states
        if accepting(p) != accepting(q)
    }
    changed = True
    while changed:
        changed = False
        for p in states:
            for q in states:
                if (p, q) in marked:
                    continue
                if any((step(p, s), step(q, s)) in marked for s in syms):
                    marked.add((p, q))
                    changed = True
    classes = []
    for p in states:
        if not any((p, rep) not in marked for rep in classes):
            classes.append(p)
    return len(classes)


@pytest.mark.parametrize("seed", range(20))
def test_stage_outputs_equal_their_constructed_copies(seed):
    rng = random.Random(seed)
    nfa = random_nfa(rng)
    m = random_monitor(rng, 8, AB, verdicts=(YES,))
    outputs = (
        lambda: monitor_to_nfa(m, YES, AB),
        lambda: subset_construction(nfa),
        lambda: minimize_dfa(subset_construction(nfa)),
    )
    for make in outputs:
        fresh = make()
        assert "transitions" not in vars(fresh)  # names are made when read
        copy = type(fresh)(*[getattr(make(), f) for f in FIELDS])
        assert fresh == copy and hash(fresh) == hash(copy)
        assert format_automaton(fresh) == format_automaton(copy)


# y leads from a to the subset {a, b}, whose name 'a+b' is a state's.
COLLIDING = """\
states: a, b, a+b
alphabet: x, y
initial: a
accepting: a+b
a -x-> a+b
a -y-> a
a -y-> b
"""


def test_subset_names_that_collide_are_refused():
    """A subset named like another state (names that hold '+') would
    merge the two and change the language, so it is an error."""
    nfa = Nfa(
        frozenset({"p", "q", "p+q"}), frozenset({"x", "y"}),
        frozenset({("p", "x", "p"), ("p", "x", "q"), ("p", "y", "p+q")}), "p",
        frozenset({"q"}),
    )
    with pytest.raises(TermError, match=r"two subset states are named 'p\+q'"):
        subset_construction(nfa)
    nfa = parse_automaton(COLLIDING)
    with pytest.raises(TermError, match=r"two subset states are named 'a\+b'"):
        subset_construction(nfa)
    # Names that hold '+' without a collision keep their subsets apart.
    fine = Nfa(nfa.states, nfa.alphabet, nfa.transitions - {("a", "y", "b")}, "a", nfa.accepting)
    dfa = subset_construction(fine)
    assert dfa.states == {"a", "a+b"} and language_equiv(dfa, fine)


@pytest.mark.parametrize("source", ["generated", 1, 2, 3])
def test_order_dependent_reads_do_not_see_the_stage_numbering(source, monkeypatch):
    """A stage output keeps the numbering its kernel gave it, so the reads
    whose result depends on order sort by name: successor lists, the
    member order inside subset names, and the unfolding of an NFA all
    equal those of the same NFA built through the constructor, on
    generated monitors and on the benchmark's routes inputs."""
    if source == "generated":
        rng = random.Random(19)
        cases = [(random_monitor(rng, rng.randint(4, 16), AB, (v,)), v) for v in [YES, NO] * 150]
    else:
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import workloads

        cases = [(item.monitor, item.verdict) for item in workloads.setup_routes(source)]
    unfolded = 0
    for m, verdict in cases:
        a = monitor_to_nfa(m, verdict, AB)
        b = Nfa(*[getattr(monitor_to_nfa(m, verdict, AB), f) for f in FIELDS])
        for q in sorted(a.states):
            for y in sorted(AB):
                assert a.succ(q, y) == sorted(a.succ(q, y)) == b.succ(q, y)
        assert subset_construction(monitor_to_nfa(m, verdict, AB)).states == \
            subset_construction(b).states
        if len(a.states) <= 14:
            fresh = nfa_to_monitor(monitor_to_nfa(m, verdict, AB), force=True)
            assert fresh == nfa_to_monitor(b, force=True), print_term(m)
            unfolded += 1
    assert unfolded >= 100


def test_subset_construction_of_running_example():
    nfa = monitor_to_nfa(me(), NO, A)
    dfa = subset_construction(nfa)
    assert isinstance(dfa, Dfa)
    for w in all_words(A, 5):
        assert member(dfa, w) == member(nfa, w)


def test_minimize_collapses_to_three_states():
    nfa = monitor_to_nfa(me(), NO, A)
    m = minimize_dfa(subset_construction(nfa))
    assert len(m.states) == 3  # a, aa, and the accepting loop


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 5_000))
def test_minimize_matches_table_filling_oracle(seed):
    nfa = random_nfa(random.Random(seed))
    dfa = subset_construction(nfa)
    assert len(minimize_dfa(dfa).states) == _brute_minimal_states(dfa)


ABC = frozenset({"a", "b", "c"})


@st.composite
def partial_dfas(draw) -> Dfa:
    """Up to 12 states over 3 symbols, any edge possibly missing, any
    initial state (so others may be unreachable), any accepting set."""
    n = draw(st.integers(1, 12))
    states = [f"q{i}" for i in range(n)]
    transitions = set()
    for s in states:
        for sym in sorted(ABC):
            t = draw(st.none() | st.integers(0, n - 1))
            if t is not None:
                transitions.add((s, sym, states[t]))
    accepting = draw(st.sets(st.sampled_from(states)))
    initial = draw(st.sampled_from(states))
    return Dfa(frozenset(states), ABC, frozenset(transitions), initial, frozenset(accepting))


@settings(deadline=None, max_examples=150)
@given(partial_dfas())
def test_minimize_partial_dfas_matches_table_filling_oracle(d):
    m = minimize_dfa(d)
    assert len(m.states) == _brute_minimal_states(d)
    for w in all_words(ABC, 4):
        assert member(m, w) == member(d, w), w


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 5_000))
def test_minimize_preserves_the_language(seed):
    nfa = random_nfa(random.Random(seed))
    m = minimize_dfa(subset_construction(nfa))
    for w in all_words(AB, 4):
        assert member(m, w) == member(nfa, w)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 5_000))
def test_minimize_is_idempotent_and_total(seed):
    nfa = random_nfa(random.Random(seed))
    m = minimize_dfa(subset_construction(nfa))
    assert minimize_dfa(m) == m
    delta = m.delta()
    for q in m.states:
        for s in sorted(m.alphabet):
            assert (q, s) in delta


def test_language_equiv_and_witness():
    n1 = monitor_to_nfa(parse_monitor("a.yes + b.yes", AB), YES, AB)
    n2 = monitor_to_nfa(parse_monitor("a.yes", AB), YES, AB)
    assert not language_equiv(n1, n2)
    assert distinguishing_word(n1, n2) == ("b",)
    assert distinguishing_word(n1, n1) is None
    assert language_equiv(n1, subset_construction(n1))


def test_language_equiv_across_alphabets():
    # the verdict self-loop ranges over the monitor's own alphabet, so
    # the same text over a larger alphabet has a strictly larger language
    only_a = monitor_to_nfa(parse_monitor("a.yes", A), YES, A)
    ab = monitor_to_nfa(parse_monitor("a.yes", AB), YES, AB)
    assert not language_equiv(only_a, ab)
    assert distinguishing_word(only_a, ab) == ("a", "b")
    # empty languages agree regardless of alphabet
    dead_a = monitor_to_nfa(parse_monitor("a.end", A), YES, A)
    dead_ab = monitor_to_nfa(parse_monitor("b.end", AB), YES, AB)
    assert language_equiv(dead_a, dead_ab)


def test_emptiness():
    nfa = monitor_to_nfa(parse_monitor("a.end", A), YES, A)
    assert is_empty(nfa)
    assert not is_empty(monitor_to_nfa(parse_monitor("a.yes", A), YES, A))


# ---------------------------------------------------------------------------
# Irrevocability and the way back to monitors
# ---------------------------------------------------------------------------


def test_verdict_automata_are_irrevocable():
    assert is_irrevocable(monitor_to_nfa(me(), NO, A))


def test_closure_repairs_revocable_acceptance():
    raw = Nfa(
        frozenset({"q0", "q1"}), A, frozenset({("q0", "a", "q1")}), "q0",
        frozenset({"q1"}),
    )
    assert not is_irrevocable(raw)
    closed = irrevocable_closure(raw)
    assert is_irrevocable(closed)
    assert member(closed, ("a", "a", "a"))


def test_nfa_to_monitor_requires_irrevocability():
    raw = Nfa(
        frozenset({"q0", "q1"}), A, frozenset({("q0", "a", "q1")}), "q0",
        frozenset({"q1"}),
    )
    with pytest.raises(TermError):
        nfa_to_monitor(raw)


def test_nfa_to_monitor_corner_cases():
    empty = Nfa(frozenset({"q0"}), A, frozenset({("q0", "a", "q0")}), "q0", frozenset())
    assert nfa_to_monitor(empty) == Verdict("end")
    allacc = Nfa(
        frozenset({"q0"}), A, frozenset({("q0", "a", "q0")}), "q0", frozenset({"q0"})
    )
    assert nfa_to_monitor(allacc) == Verdict(YES)


def test_nfa_to_monitor_cap_and_force():
    states = frozenset(f"q{i}" for i in range(11))
    chain = {(f"q{i}", "a", f"q{i + 1}") for i in range(10)} | {("q10", "a", "q10")}
    big = Nfa(states, A, frozenset(chain), "q0", frozenset({"q10"}))
    with pytest.raises(CapExceeded):
        nfa_to_monitor(big)
    m = nfa_to_monitor(big, force=True)
    assert YES in verdicts_on(m, ("a",) * 10, A)
    assert verdicts_on(m, ("a",) * 9, A) == frozenset()


@pytest.mark.parametrize("names", ["012", "pqr"])
def test_unfolding_puts_the_goal_first_on_a_symbol(names):
    # The accepting states are read as one goal, which comes before the
    # other targets of the same symbol whatever the states are called.
    s0, s1, s2 = names
    nfa = parse_automaton(
        f"states: {s0}, {s1}, {s2}\nalphabet: a, b\ninitial: {s0}\naccepting: {s2}\n"
        f"{s0} -a-> {s1}\n{s0} -a-> {s2}\n{s1} -b-> {s2}\n{s2} -a-> {s2}\n{s2} -b-> {s2}\n"
    )
    assert print_term(nfa_to_monitor(nfa)) == "a.yes + a.b.yes"


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 4_000))
def test_unfolded_monitor_keeps_the_language(seed):
    closed = irrevocable_closure(random_nfa(random.Random(seed), max_states=4))
    m = nfa_to_monitor(closed, force=True)
    back = monitor_to_nfa(m, YES, AB)
    assert language_equiv(back, closed)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 4_000))
def test_dfa_to_monitor_is_deterministic_and_bounded(seed):
    closed = irrevocable_closure(random_nfa(random.Random(seed), max_states=3))
    dfa = minimize_dfa(subset_construction(closed))
    m = dfa_to_monitor(dfa, force=True)
    assert is_deterministic(m)
    n = len(dfa.states)
    assert size(m) <= 2 * n * len(dfa.alphabet) ** n
    back = monitor_to_nfa(m, YES, AB)
    assert language_equiv(back, dfa)


def test_an_unfolding_shares_one_goal_prefix_per_symbol():
    dfa = minimize_dfa(subset_construction(monitor_to_nfa(mn_monitor(4), YES, ALPHABET_01E)))
    m = dfa_to_monitor(dfa, force=True)
    goals = [t for t in subterms(m) if isinstance(t, Prefix) and isinstance(t.body, Verdict)]
    assert len(goals) > 100
    assert len({id(t) for t in goals}) == len({t for t in goals}) == 1  # only e.yes


def _renamed(d: Dfa, rng: random.Random) -> Dfa:
    names = sorted(d.states)
    new = dict(zip(names, rng.sample([f"q{i}" for i in range(len(names))], len(names))))
    return Dfa(
        frozenset(new.values()), d.alphabet,
        frozenset((new[s], y, new[t]) for s, y, t in d.transitions),
        new[d.initial], frozenset(new[q] for q in d.accepting),
    )


@pytest.mark.parametrize("m", [mn_monitor(3), mn_monitor(4), un_monitor(3)])
def test_dfa_unfolding_does_not_depend_on_state_names(m):
    # State names fix state numbers (sorted order: s10 before s2 in the
    # 18 states of M_4); the unfolding follows edges by symbol instead.
    dfa = minimize_dfa(subset_construction(monitor_to_nfa(m, YES, ALPHABET_01E)))
    out = dfa_to_monitor(dfa, force=True)
    rng = random.Random(len(dfa.states))
    for _ in range(3):
        assert dfa_to_monitor(_renamed(dfa, rng), force=True) == out


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------


def test_automaton_file_round_trip():
    nfa = monitor_to_nfa(me(), NO, A)
    assert parse_automaton(format_automaton(nfa)) == nfa
    dfa = minimize_dfa(subset_construction(nfa))
    back = parse_automaton(format_automaton(dfa))
    assert back == dfa and isinstance(back, Dfa)


def test_automaton_file_errors():
    with pytest.raises(TermError):
        parse_automaton("type: nfa\nstates: q0\nalphabet: a\naccepting:\n")
    with pytest.raises(TermError):
        parse_automaton(
            "type: dfa\nstates: q0\nalphabet: a\ninitial: q0\naccepting:\n"
            "q0 -a-> q0\nq0 -a-> q0 extra\n"
        )


def test_dfa_validation_rejects_nondeterminism():
    with pytest.raises(TermError):
        Dfa(
            frozenset({"q0", "q1"}), A,
            frozenset({("q0", "a", "q0"), ("q0", "a", "q1")}),
            "q0", frozenset(),
        )
    # the same transitions are fine as an NFA
    as_nfa(
        Nfa(
            frozenset({"q0", "q1"}), A,
            frozenset({("q0", "a", "q0"), ("q0", "a", "q1")}),
            "q0", frozenset(),
        )
    )
