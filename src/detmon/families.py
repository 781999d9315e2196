"""Witness families for the cost of determinization.

Two parametric languages over {0, 1, e}:

* M_n — words with an ``e`` whose prefix before the first ``e`` has a
  ``1`` exactly n positions from its end.  A small NFA (n+2 states) and
  a small nondeterministic monitor recognise it, but any deterministic
  device needs to remember the last n symbols: the minimal DFA has
  exactly 2^n + 2 states, so deterministic monitors grow exponentially.

* U_n — words with an ``e`` before which the count of some symbol is a
  positive multiple of one part > 1 of the maximal-lcm partition of n.  Its
  compact monitor has size linear in n, yet the shortest verdict-equal
  deterministic monitor is driven by lcm(partition), which grows like
  e^sqrt(n ln n) — a second, size-based lower bound.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Sequence

from .automata import Dfa, Nfa, minimize_dfa, subset_construction
from .terms import Monitor, Prefix, Rec, Sum, TermError, Var, Verdict, YES, mk_sum

ALPHABET_01E = frozenset({"0", "1", "e"})

__all__ = [
    "ALPHABET_01E",
    "chrobak_predicate",
    "encode_binary",
    "landau_lcm",
    "landau_partition",
    "ln_predicate",
    "mn_dfa",
    "mn_monitor",
    "mn_nfa",
    "mn_predicate",
    "un_monitor",
    "un_predicate",
]


def ln_predicate(n: int, word: Sequence[str]) -> bool:
    """Is the n-th symbol from the end of the word a ``1``?"""
    return len(word) >= n and word[len(word) - n] == "1"


def mn_predicate(n: int, word: Sequence[str]) -> bool:
    word = tuple(word)
    if "e" not in word:
        return False
    return ln_predicate(n, word[: word.index("e")])


def mn_nfa(n: int) -> Nfa:
    """The (n+2)-state recogniser of M_n: guess the distinguished ``1``,
    count n-1 more symbols, check the ``e``."""
    if n < 1:
        raise TermError("n must be positive")
    states = [f"q{i}" for i in range(n + 1)] + ["Y"]
    transitions: set[tuple[str, str, str]] = set()
    for sym in ("0", "1"):
        transitions.add(("q0", sym, "q0"))
        transitions.add(("Y", sym, "Y"))
    transitions.add(("Y", "e", "Y"))
    transitions.add(("q0", "1", "q1"))
    for i in range(1, n):
        for sym in ("0", "1"):
            transitions.add((f"q{i}", sym, f"q{i + 1}"))
    transitions.add((f"q{n}", "e", "Y"))
    return Nfa(
        frozenset(states), ALPHABET_01E, frozenset(transitions), "q0", frozenset({"Y"})
    )


def mn_dfa(n: int) -> Dfa:
    """Minimal total DFA for M_n; 2^n + 2 states."""
    return minimize_dfa(subset_construction(mn_nfa(n)))


def mn_monitor(n: int) -> Monitor:
    """An acceptance monitor for M_n, linear-in-2^n in size because
    choice trees are terms, not graphs: the committed branch is a full
    binary tree of depth n-1."""
    if n < 1:
        raise TermError("n must be positive")

    # Built from the last level up; both branches share the level below.
    tail: Monitor = Prefix("e", Verdict(YES))
    for _ in range(n - 1):
        tail = mk_sum([Prefix("0", tail), Prefix("1", tail)])

    return Rec(
        "x",
        mk_sum([Prefix("0", Var("x")), Prefix("1", Var("x")), Prefix("1", tail)]),
    )


# ---------------------------------------------------------------------------
# Maximal-lcm partitions (Landau's function) and the linear-size family
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def landau_partition(n: int) -> tuple[int, ...]:
    """A partition of n with maximal lcm, canonically chosen: pairwise
    coprime prime powers padded with 1s, preferring (on equal lcm) fewer
    parts, then lexicographically smaller sorted parts."""
    if n < 0:
        raise TermError("n must be nonnegative")
    if n == 0:
        return ()
    sieve = [True] * (n + 1)
    sieve[0] = sieve[1] = False
    for p in range(2, int(math.isqrt(n)) + 1):
        if sieve[p]:
            for k in range(p * p, n + 1, p):
                sieve[k] = False
    primes = [p for p in range(2, n + 1) if sieve[p]]

    def key(prod: int, parts: tuple[int, ...]) -> tuple:
        return (-prod, len(parts) + n - sum(parts), tuple(sorted(parts)))

    best: list[tuple[int, tuple[int, ...]]] = [(1, ())] * (n + 1)
    for p in primes:
        prev = best[:]
        for budget in range(n + 1):
            champion = prev[budget]
            power = p
            while power <= budget:
                prod, parts = prev[budget - power]
                cand = (prod * power, parts + (power,))
                if key(*cand) < key(*champion):
                    champion = cand
                power *= p
            best[budget] = champion
    prod, parts = best[n]
    padded = tuple(sorted(parts)) + (1,) * (n - sum(parts))
    return tuple(sorted(padded))


def landau_lcm(n: int) -> int:
    return math.lcm(*landau_partition(n)) if n else 1


def _counting_parts(n: int) -> list[int]:
    """The distinct parts > 1 of the maximal-lcm partition of n.  The 1s
    that pad it are left out: every positive count is a multiple of 1,
    so a part 1 would hide all the others."""
    return sorted({m for m in landau_partition(n) if m > 1})


def chrobak_predicate(n: int, symbol: str, word: Sequence[str]) -> bool:
    """Is the word symbol^k with k a positive multiple of some part > 1
    of the maximal-lcm partition of n?"""
    word = tuple(word)
    if not word or any(c != symbol for c in word):
        return False
    k = len(word)
    return any(k % m == 0 for m in _counting_parts(n))


def un_monitor(n: int) -> Monitor:
    """The linear-size monitor for U_n: for each symbol and each distinct
    part m > 1, a counting cycle of length m that ignores the other symbol
    and offers ``e.yes`` exactly at positive multiples of m.  Size stays
    under 20n while any verdict-equal deterministic monitor must be as
    large as lcm(partition)."""
    if n < 2:
        raise TermError("n must be at least 2")
    parts = _counting_parts(n)
    summands: list[Monitor] = []
    for symbol, other in (("0", "1"), ("1", "0")):
        for m in parts:
            names = [f"x{symbol}_{m}_{level}" for level in range(m + 1)]
            node: Monitor = Rec(
                names[m],
                mk_sum(
                    [
                        Prefix(other, Var(names[m])),
                        Prefix(symbol, Var(names[1])),
                        Prefix("e", Verdict(YES)),
                    ]
                ),
            )
            for level in range(m - 1, -1, -1):
                node = Rec(
                    names[level],
                    mk_sum([Prefix(other, Var(names[level])), Prefix(symbol, node)]),
                )
            summands.append(node)
    return mk_sum(summands)


def un_predicate(n: int, word: Sequence[str]) -> bool:
    word = tuple(word)
    if "e" not in word:
        return False
    prefix = word[: word.index("e")]
    parts = _counting_parts(n)
    for symbol in ("0", "1"):
        count = sum(1 for c in prefix if c == symbol)
        if count > 0 and any(count % m == 0 for m in parts):
            return True
    return False


def encode_binary(word: Iterable[str]) -> str:
    """Flatten {0,1,e} words into {0,1} words: 0 -> 00, 1 -> 01, e -> 11."""
    table = {"0": "00", "1": "01", "e": "11"}
    out = []
    for c in word:
        if c not in table:
            raise TermError(f"cannot encode symbol {c!r}")
        out.append(table[c])
    return "".join(out)
