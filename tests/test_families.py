"""The witness families and their supporting number theory."""

import math
import random
import time
from itertools import product

import pytest

from detmon.automata import language_equiv, member, minimize_dfa, monitor_to_nfa, subset_construction
from detmon.families import (
    ALPHABET_01E,
    chrobak_predicate,
    encode_binary,
    landau_lcm,
    landau_partition,
    ln_predicate,
    mn_dfa,
    mn_monitor,
    mn_nfa,
    mn_predicate,
    un_monitor,
    un_predicate,
)
from detmon.semantics import verdicts_on
from detmon.syntax import print_term
from detmon.terms import TermError, YES, size


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


def test_ln_predicate():
    assert ln_predicate(1, "1")
    assert ln_predicate(2, "10")
    assert not ln_predicate(2, "01")
    assert not ln_predicate(3, "10")  # too short


def test_mn_predicate():
    assert mn_predicate(2, "10e")
    assert mn_predicate(2, "0110e001")
    assert not mn_predicate(2, "10")       # no marker
    assert not mn_predicate(2, "01e10e")   # first marker decides
    assert mn_predicate(1, "1e")


# ---------------------------------------------------------------------------
# The exponential family
# ---------------------------------------------------------------------------


def test_mn_nfa_size_and_membership():
    for n in range(1, 6):
        nfa = mn_nfa(n)
        assert len(nfa.states) == n + 2
        for length in range(min(n + 2, 5) + 1):
            for w in product("01e", repeat=length):
                assert member(nfa, w) == mn_predicate(n, w), (n, w)


def test_mn_dfa_is_exponential():
    for n in range(1, 7):
        assert len(mn_dfa(n).states) == 2**n + 2


def test_mn_dfa_13_is_built_in_seconds():
    # Subset construction and minimization stay near-linear in the
    # 2^n + 2 states the paper proves necessary.
    start = time.perf_counter()
    assert len(mn_dfa(13).states) == 8194
    assert time.perf_counter() - start < 5.0


def test_mn_monitor_smallest_instance():
    assert print_term(mn_monitor(1)) == "rec x. 0.x + 1.x + 1.e.yes"


def test_mn_monitor_size_formula():
    for n in range(1, 9):
        assert size(mn_monitor(n)) == 8 + 5 * 2 ** (n - 1) - 3
        assert size(mn_monitor(n)) >= 3 * 2 ** (n - 1)


def test_mn_monitor_recognises_mn():
    for n in (1, 2, 3):
        got = monitor_to_nfa(mn_monitor(n), YES, ALPHABET_01E)
        assert language_equiv(got, mn_nfa(n)), n


def test_mn_rejects_nonpositive():
    with pytest.raises(TermError):
        mn_nfa(0)
    with pytest.raises(TermError):
        mn_monitor(0)


# ---------------------------------------------------------------------------
# Maximal-lcm partitions
# ---------------------------------------------------------------------------


def _all_partitions(n, smallest=1):
    if n == 0:
        yield ()
        return
    for first in range(smallest, n + 1):
        for rest in _all_partitions(n - first, first):
            yield (first,) + rest


def test_landau_goldens():
    assert landau_partition(5) == (2, 3)
    assert landau_partition(7) == (3, 4)
    assert landau_lcm(8) == 15
    assert landau_lcm(60) == 1021020


def test_landau_against_exhaustive_search():
    for n in range(1, 21):
        best = max(math.lcm(*p) for p in _all_partitions(n))
        assert landau_lcm(n) == best, n


def test_landau_partition_is_a_partition_of_prime_powers():
    for n in range(1, 41):
        parts = landau_partition(n)
        assert sum(parts) == n
        for p in parts:
            if p == 1:
                continue
            # p must be q^k for a single prime q
            q = min(d for d in range(2, p + 1) if p % d == 0)
            while p % q == 0:
                p //= q
            assert p == 1


# ---------------------------------------------------------------------------
# The linear-size family
# ---------------------------------------------------------------------------


def test_un_size_linear_bound():
    for n in range(2, 61):
        assert size(un_monitor(n)) <= 20 * n, n
    assert size(un_monitor(2)) == 39  # tight at the bottom


def test_un_needs_at_least_two():
    with pytest.raises(TermError):
        un_monitor(1)


def test_un_predicate_goldens():
    # parts of 5 are (2, 3)
    assert un_predicate(5, "11e")
    assert un_predicate(5, "111e")
    assert un_predicate(5, "1111e")     # 4 = 2*2
    assert not un_predicate(5, "1e")
    assert not un_predicate(5, "10e")   # both counts are 1
    assert un_predicate(5, "00e11")     # suffix after the marker is free
    assert not un_predicate(5, "11")    # no marker


def test_un_monitor_matches_predicate_on_short_words():
    n = 5
    mon = un_monitor(n)
    dfa = minimize_dfa(subset_construction(monitor_to_nfa(mon, YES, ALPHABET_01E)))
    for length in range(0, 7):
        for w in product("01e", repeat=length):
            assert member(dfa, w) == un_predicate(n, w), w


def test_un_deterministic_size_is_driven_by_the_lcm():
    # the minimal DFA tracks both counters modulo the parts, so it must
    # have at least lcm-many states; at n = 6 and 11 the partition is
    # padded with a 1, which must not count
    for n in range(2, 12):
        nfa = monitor_to_nfa(un_monitor(n), YES, ALPHABET_01E)
        dfa = minimize_dfa(subset_construction(nfa))
        assert len(dfa.states) >= landau_lcm(n), n


def test_chrobak_predicate():
    assert chrobak_predicate(5, "1", "11")
    assert chrobak_predicate(5, "1", "111")
    assert chrobak_predicate(5, "0", "000")
    assert not chrobak_predicate(5, "1", "1")
    assert not chrobak_predicate(5, "1", "10")
    assert not chrobak_predicate(5, "1", "")
    # landau_partition(6) is (1, 2, 3): the padding 1 divides nothing
    assert landau_partition(6) == (1, 2, 3)
    assert not chrobak_predicate(6, "1", "1")
    assert not chrobak_predicate(6, "1", "11111")
    assert not un_predicate(6, "1e")


def test_encode_binary():
    assert encode_binary("10e") == "010011"
    assert encode_binary("") == ""
    with pytest.raises(TermError):
        encode_binary("x")
