"""The indexed compile of monitors to automata, checked against
term-by-term StepEngine walks kept here as oracles: the NFA walk, the
conflict product walk, and verdict equivalence by one pair of NFAs per
verdict, compared by canonical minimal tables.  Then verdict_equiv
against bounded_equiv and brute force on generated pairs, witness
included."""

import random
from collections import deque

from detmon.automata import (
    Nfa,
    _determinize,
    _minimal,
    distinguishing_word,
    language_equiv,
    minimize_dfa,
    monitor_to_nfa,
    subset_construction,
)
from detmon.equivalence import EquivResult, bounded_equiv, verdict_equiv
from detmon.families import ALPHABET_01E, mn_monitor, un_monitor
from detmon.pipeline import determinize_monitor
from detmon.semantics import (
    DEFAULT_CLOSURE_CAP,
    CapExceeded,
    StepEngine,
    binder_map,
    verdicts_on,
)
from detmon.syntax import parse_monitor
from detmon.terms import (
    END,
    NO,
    YES,
    FreeVariableError,
    Term,
    TermError,
    Verdict,
    prefix_chain,
    rename_apart,
    verdicts_in,
)
from detmon.verdicts import (
    ConflictResult,
    ConflictingMonitorError,
    determinize_two_verdict,
    is_conflicting,
)

from gen import all_words, random_monitor, random_two_verdict, scramble

A = frozenset({"a"})
AB = frozenset({"a", "b"})
ABC = frozenset({"a", "b", "c"})


# ---------------------------------------------------------------------------
# Oracles: the StepEngine walks
# ---------------------------------------------------------------------------


def binders_apart(m, alphabet):
    try:
        return m, binder_map(m)
    except TermError:
        m = rename_apart(m, alphabet)
        return m, binder_map(m)


def oracle_nfa(m, alphabet, accept_verdict):
    m, binders = binders_apart(m, alphabet)
    engine = StepEngine(alphabet, "N", binders)
    target = Verdict(accept_verdict)
    ids: dict[Term, str] = {}
    order: list[Term] = []

    def id_of(t):
        if t not in ids:
            ids[t] = f"q{len(order)}"
            order.append(t)
        return ids[t]

    id_of(m)
    transitions = set()
    i = 0
    while i < len(order):
        q = order[i]
        for a in sorted(alphabet):
            for q2 in engine.weak_successors(q, a):
                transitions.add((ids[q], a, id_of(q2)))
        i += 1
    accepting = frozenset(ids[t] for t in order if target in engine.tau_closure(t))
    return Nfa(frozenset(ids.values()), alphabet, frozenset(transitions), ids[m], accepting)


def oracle_monitor_to_nfa(m, accept_verdict, alphabet):
    other = NO if accept_verdict == YES else YES
    if other in verdicts_in(m):
        raise TermError(
            f"monitor carries the {other!r} verdict; not a {accept_verdict}-monitor"
        )
    return oracle_nfa(m, alphabet, accept_verdict)


def oracle_conflict(m, alphabet):
    m, binders = binders_apart(m, alphabet)
    engine = StepEngine(alphabet, "N", binders)

    def conflicted(pair):
        return set(pair) == {Verdict(YES), Verdict(NO)}

    start = engine.tau_closure(m)
    parents = {}
    queue = deque()
    for p in start:
        for q in start:
            if (p, q) not in parents:
                parents[(p, q)] = None
                queue.append((p, q))
    while queue:
        pair = queue.popleft()
        if conflicted(pair):
            word = []
            cur = pair
            while parents[cur] is not None:
                cur, a = parents[cur]
                word.append(a)
            return ConflictResult(True, tuple(reversed(word)))
        p, q = pair
        for a in sorted(alphabet):
            for p2 in engine.weak_successors(p, a):
                for q2 in engine.weak_successors(q, a):
                    if (p2, q2) not in parents:
                        parents[(p2, q2)] = (pair, a)
                        queue.append((p2, q2))
    return ConflictResult(False)


def oracle_difference(a, b, symbols):
    """A shortest word over `symbols` accepted by exactly one of two
    indexed automata, or None: both sides determinized and minimized to
    canonical tables, which are compared, then searched breadth-first in
    product."""
    (ta, fa), (tb, fb) = [_minimal(*_determinize(x, symbols)[1:], 0) for x in (a, b)]
    if (ta, fa) == (tb, fb):
        return None
    parents = {(0, 0): None}
    queue = deque(parents)
    while queue:
        pair = queue.popleft()
        if fa[pair[0]] != fb[pair[1]]:
            word = []
            while parents[pair] is not None:
                pair, y = parents[pair]
                word.append(y)
            return tuple(reversed(word))
        for k, y in enumerate(symbols):
            nxt = (ta[k][pair[0]], tb[k][pair[1]])
            if nxt not in parents:
                parents[nxt] = (pair, y)
                queue.append(nxt)
    raise AssertionError("unequal canonical tables with no differing pair")


def oracle_words(a, b):
    return oracle_difference(a._ix, b._ix, tuple(sorted(a.alphabet | b.alphabet)))


def oracle_equiv(m1, m2, alphabet, include_end=False):
    verdicts = (YES, NO, END) if include_end else (YES, NO)
    present = verdicts_in(m1) | verdicts_in(m2)
    for v in verdicts:
        if v not in present:
            continue
        witness = oracle_words(oracle_nfa(m1, alphabet, v), oracle_nfa(m2, alphabet, v))
        if witness is not None:
            return EquivResult(False, witness, v)
    return EquivResult(True)


def outcome(f, *args):
    """What f returns, or the type and message of what it raises."""
    try:
        return f(*args)
    except (TermError, RuntimeError) as e:
        return type(e), str(e)


def same(f, oracle, *args):
    got, want = outcome(f, *args), outcome(oracle, *args)
    assert got == want, args
    return got


# Open terms and reused binder names; the last two are conflicting.
TRICKY = [
    "a.x + b.yes",
    "(rec x. a.b.yes) + b.x",
    "b.x + rec x. a.b.yes",
    "rec x. a.(rec x. b.x + a.yes) + b.x",
    "rec x. a.x + b.(rec y. a.x + b.y + a.b.z)",
    "a.(rec x. a.x + b.no) + b.(rec x. b.x + a.no)",
    "rec x. a.(rec x. b.x + a.no) + a.x + b.yes",
    "a.(rec x. a.x + b.no) + a.(rec x. b.x + a.yes)",
]


def generated(seed, count):
    """Seeded tests/gen.py monitors of every verdict make-up, every
    other one with its binder names scrambled."""
    rng = random.Random(seed)
    for i in range(count):
        kind = i % 3
        if kind == 2:
            m = random_two_verdict(rng, rng.randint(5, 16))
        else:
            verdicts = (YES, END) if kind == 0 else (NO, END)
            m = random_monitor(rng, rng.randint(1, 16), AB, verdicts)
        yield scramble(rng, m) if i % 2 else m


# ---------------------------------------------------------------------------
# The compile against the walks
# ---------------------------------------------------------------------------


def test_monitor_to_nfa_matches_the_walk_on_generated_monitors():
    for m in generated(601, 900):
        for v in (YES, NO):
            same(monitor_to_nfa, oracle_monitor_to_nfa, m, v, AB)


def test_is_conflicting_matches_the_walk_on_generated_monitors():
    conflicting = 0
    for m in generated(602, 900):
        r = same(is_conflicting, oracle_conflict, m, AB)
        conflicting += isinstance(r, ConflictResult) and r.conflicting
    assert conflicting > 50


def test_verdict_equiv_matches_the_walk_on_generated_pairs():
    ms = list(generated(603, 300))
    rng = random.Random(603)
    for m1 in ms:
        m2 = rng.choice(ms)
        for include_end in (False, True):
            same(verdict_equiv, oracle_equiv, m1, m2, AB, include_end)
            same(verdict_equiv, oracle_equiv, m1, m1, AB, include_end)


def test_open_and_reused_binder_monitors():
    for text in TRICKY:
        m = parse_monitor(text, AB)
        for v in (YES, NO):
            same(monitor_to_nfa, oracle_monitor_to_nfa, m, v, AB)
        same(is_conflicting, oracle_conflict, m, AB)
        for other in TRICKY:
            same(verdict_equiv, oracle_equiv, m, parse_monitor(other, AB), AB)
    unbound = outcome(monitor_to_nfa, parse_monitor("a.x + b.yes", AB), YES, AB)
    assert unbound[0] is FreeVariableError
    c = is_conflicting(parse_monitor(TRICKY[-1], AB), AB)
    assert c == ConflictResult(True, ("a", "a", "b"))


def test_shared_monitors():
    for n in (1, 2, 5, 12, 40):
        m = mn_monitor(n)  # the levels below the top choice are shared
        same(monitor_to_nfa, oracle_monitor_to_nfa, m, YES, ALPHABET_01E)
        same(is_conflicting, oracle_conflict, m, ALPHABET_01E)
    for n in (2, 3, 5):
        m = un_monitor(n)
        same(monitor_to_nfa, oracle_monitor_to_nfa, m, YES, ALPHABET_01E)
        same(verdict_equiv, oracle_equiv, m, mn_monitor(n), ALPHABET_01E)


def test_a_100000_deep_chain():
    deep = 100_000
    m = prefix_chain(["a"] * deep, parse_monitor("rec x. b.x + a.yes", AB))
    nfa = same(monitor_to_nfa, oracle_monitor_to_nfa, m, YES, AB)
    assert len(nfa.states) == deep + 4
    both = prefix_chain(["a"] * deep, parse_monitor("a.yes + b.(a.no + b.yes) + b.b.no", AB))
    c = same(is_conflicting, oracle_conflict, both, AB)
    assert c.witness == ("a",) * deep + ("b", "b")
    r = verdict_equiv(m, prefix_chain(["a"], m), AB)
    assert r == EquivResult(False, ("a",) * (deep + 1), YES)


def test_the_closure_cap_still_holds():
    body = " + ".join(f"rec x{i}. a.yes" for i in range(10_001))
    m = parse_monitor(f"a.({body})", AB)
    err = same(monitor_to_nfa, oracle_monitor_to_nfa, m, YES, AB)
    assert err[0] is CapExceeded


def test_language_equiv_matches_the_canonical_tables():
    """NFAs, subset DFAs and minimal DFAs of generated monitors over
    three alphabets, compared in random pairs and each with its own
    DFAs."""
    automata = []
    for i, m in enumerate(generated(605, 240)):
        alphabet = (A, AB, ABC)[i % 3]
        for v in (YES, NO):
            nfa = outcome(monitor_to_nfa, m, v, alphabet)
            if isinstance(nfa, Nfa):
                dfa = subset_construction(nfa)
                automata.append((nfa, dfa, minimize_dfa(dfa)))
    rng = random.Random(605)
    kinds = set()
    for own in automata:
        other = rng.choice(automata)
        for x, y in [(own[0], own[1]), (own[2], own[0])] + [
            (rng.choice(own), rng.choice(other)) for _ in range(3)
        ]:
            want = oracle_words(x, y)
            assert distinguishing_word(x, y) == want, (x, y)
            assert language_equiv(x, y) == (want is None)
            kinds.add((x.alphabet == y.alphabet, want is None))
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


def test_an_error_behind_a_later_difference_is_still_raised():
    """The two sides differ on `a` already, but every position a trace
    reaches is compiled first, the first monitor's first."""
    differs = parse_monitor("b.b.yes", AB)
    assert verdict_equiv(parse_monitor("a.yes + b.b.yes", AB), differs, AB) == EquivResult(
        False, ("a",), YES
    )
    unbound = parse_monitor("a.yes + b.b.x", AB)
    nested = " + ".join(f"rec x{i}. a.yes" for i in range(DEFAULT_CLOSURE_CAP + 1))
    wide = parse_monitor(f"a.yes + b.b.({nested})", AB)  # one closure of all the binders
    for m1, m2, error in [
        (unbound, differs, FreeVariableError),
        (differs, unbound, FreeVariableError),
        (wide, differs, CapExceeded),
        (differs, wide, CapExceeded),
        (unbound, wide, FreeVariableError),
        (wide, unbound, CapExceeded),
    ]:
        got = outcome(verdict_equiv, m1, m2, AB)
        assert got[0] is error, got
        assert got == outcome(monitor_to_nfa, m2 if m1 is differs else m1, YES, AB)


# ---------------------------------------------------------------------------
# verdict_equiv against bounded_equiv
# ---------------------------------------------------------------------------


def pairs(seed, count):
    """Equivalent pairs (a monitor and its determinization) and pairs of
    unrelated monitors, mostly inequivalent."""
    rng = random.Random(seed)
    for i in range(count):
        if i % 3 == 0:
            m = random_two_verdict(rng, rng.randint(5, 12))
            try:
                yield m, determinize_two_verdict(m, AB)
            except ConflictingMonitorError:
                continue
        elif i % 3 == 1:
            m = random_monitor(rng, rng.randint(1, 12), AB, (YES, NO, END))
            yield m, random_monitor(rng, rng.randint(1, 12), AB, (YES, NO, END))
        else:
            m = random_monitor(rng, rng.randint(1, 12), AB, (NO,))
            yield m, determinize_monitor(m, AB)


def test_verdict_equiv_agrees_with_bounded_equiv():
    equivalent = inequivalent = 0
    for m1, m2 in pairs(604, 240):
        r = verdict_equiv(m1, m2, AB, include_end=True)
        if r:
            equivalent += 1
            assert bounded_equiv(m1, m2, 6, AB), (m1, m2)
            continue
        inequivalent += 1
        w, v = r.witness, r.verdict
        assert (v in verdicts_on(m1, w, AB)) != (v in verdicts_on(m2, w, AB)), (m1, m2)
        assert not bounded_equiv(m1, m2, len(w), AB)
        shorter = [u for u in all_words(AB, len(w)) if len(u) < len(w)]
        for u in shorter:  # and no shorter trace separates v
            assert (v in verdicts_on(m1, u, AB)) == (v in verdicts_on(m2, u, AB)), (m1, m2, u)
    assert equivalent > 50 and inequivalent > 50


def test_witnesses_are_the_least_differing_traces():
    """On generated inequivalent pairs, no trace before the witness in
    shortlex order tells the two monitors apart on its verdict, and the
    witness does.  Pairs with an unbound variable in reach are skipped."""
    ms = list(generated(606, 300))
    rng = random.Random(606)
    checked = 0
    while checked < 200:
        m1, m2 = rng.choice(ms), rng.choice(ms)
        include_end = rng.random() < 0.5
        r = outcome(verdict_equiv, m1, m2, AB, include_end)
        if not isinstance(r, EquivResult) or r:
            continue
        checked += 1
        v = r.verdict
        first = next(
            u for u in all_words(AB, len(r.witness))
            if (v in verdicts_on(m1, u, AB)) != (v in verdicts_on(m2, u, AB))
        )
        assert first == r.witness, (m1, m2, include_end)
