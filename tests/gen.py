"""Seeded random generators shared across the test suite.

Everything is driven by an explicit random.Random so failures are
reproducible from the seed alone.
"""

from __future__ import annotations

import random

from detmon.semantics import Lts
from detmon.terms import (
    And,
    Box,
    END,
    FF,
    Max,
    Monitor,
    NO,
    Prefix,
    Rec,
    Sum,
    TT,
    Var,
    Verdict,
    YES,
    fold,
    mk_and,
    mk_sum,
    verdicts_in,
)

DEFAULT_AB = frozenset({"a", "b"})


def random_monitor(
    rng: random.Random,
    budget: int,
    alphabet: frozenset[str] = DEFAULT_AB,
    verdicts: tuple[str, ...] = (YES, NO, END),
) -> Monitor:
    """A closed random monitor of size at most `budget`, with globally
    fresh recursion binders (r0, r1, ...)."""
    actions = sorted(alphabet)
    counter = [0]

    def leaf(bound: tuple[str, ...]) -> Monitor:
        if bound and rng.random() < 0.3:
            return Var(rng.choice(bound))
        return Verdict(rng.choice(verdicts))

    def go(budget: int, bound: tuple[str, ...]) -> Monitor:
        if budget <= 1:
            return leaf(bound)
        roll = rng.random()
        if roll < 0.40:
            return Prefix(rng.choice(actions), go(budget - 1, bound))
        if roll < 0.65 and budget >= 5:
            k = 3 if budget >= 8 and rng.random() < 0.3 else 2
            remaining = budget - (k - 1)
            cuts = sorted(rng.randint(1, remaining - 1) for _ in range(k - 1))
            parts = []
            prev = 0
            for c in cuts + [remaining]:
                parts.append(max(1, c - prev))
                prev = c
            return mk_sum([go(p, bound) for p in parts])
        if roll < 0.85:
            name = f"r{counter[0]}"
            counter[0] += 1
            return Rec(name, go(budget - 1, bound + (name,)))
        return Prefix(rng.choice(actions), go(budget - 1, bound))

    return go(budget, ())


def scramble(rng: random.Random, m: Monitor) -> Monitor:
    """`m` with every binder renamed to x or y and every variable to x, y
    or z: names bound twice, variables left free, and free variables that
    share a name with a binder elsewhere."""

    def step(t, kids):
        if isinstance(t, Rec):
            return Rec(rng.choice("xy"), kids[0])
        if isinstance(t, Var):
            return Var(rng.choice("xyz"))
        return t.rebuild(kids)

    return fold(m, step)


def random_two_verdict(
    rng: random.Random, budget: int, alphabet: frozenset[str] = DEFAULT_AB
) -> Monitor:
    """A random monitor that actually mentions both yes and no."""
    if budget < 5:
        # two verdict leaves only ever appear via the choice branch,
        # which needs this much room; below it the retry loop never ends
        raise ValueError("random_two_verdict needs a budget of at least 5")
    while True:
        m = random_monitor(rng, budget, alphabet, verdicts=(YES, NO))
        if {YES, NO} <= verdicts_in(m):
            return m


def random_split_two_verdict(
    rng: random.Random, budget: int, alphabet: frozenset[str] = DEFAULT_AB
) -> Monitor:
    """A two-verdict monitor that is conflict-free by construction: its
    first action leads to a random yes-monitor or to a random no-monitor,
    each of size at most `budget` // 2."""
    yes_first, no_first = rng.sample(sorted(alphabet), 2)
    return mk_sum([
        Prefix(yes_first, random_monitor(rng, budget // 2, alphabet, (YES, END))),
        Prefix(no_first, random_monitor(rng, budget // 2, alphabet, (NO, END))),
    ])


def random_shml(
    rng: random.Random,
    depth: int,
    alphabet: frozenset[str] = DEFAULT_AB,
    var_prob: float = 0.25,
    free: tuple[str, ...] = (),
) -> "object":
    """A random safety formula of nesting depth at most `depth`, whose
    leaves are variables in scope with probability `var_prob`; the
    variables `free` are in scope throughout and left free."""
    actions = sorted(alphabet)
    counter = [0]

    def leaf(bound: tuple[str, ...]):
        roll = rng.random()
        if bound and roll < var_prob:
            return Var(rng.choice(bound))
        return TT() if roll < 0.6 else FF()

    def go(depth: int, bound: tuple[str, ...]):
        if depth == 0:
            return leaf(bound)
        roll = rng.random()
        if roll < 0.35:
            return Box(rng.choice(actions), go(depth - 1, bound))
        if roll < 0.6:
            return mk_and([go(depth - 1, bound) for _ in range(rng.randint(2, 3))])
        if roll < 0.85:
            name = f"X{counter[0]}"
            counter[0] += 1
            return Max(name, go(depth - 1, bound + (name,)))
        return leaf(bound)

    return go(depth, free)


def random_lts(
    rng: random.Random,
    max_states: int,
    alphabet: frozenset[str] = DEFAULT_AB,
    tau_prob: float = 0.25,
) -> Lts:
    n = rng.randint(1, max_states)
    states = [f"s{i}" for i in range(n)]
    transitions: list[tuple[str, str, str]] = []
    for s in states:
        for a in sorted(alphabet):
            for _ in range(rng.choice((0, 0, 1, 1, 2))):
                transitions.append((s, a, rng.choice(states)))
        if rng.random() < tau_prob:
            transitions.append((s, "tau", rng.choice(states)))
    return Lts(states, transitions, "s0")


def random_word(
    rng: random.Random, max_len: int, alphabet: frozenset[str] = DEFAULT_AB
) -> tuple[str, ...]:
    actions = sorted(alphabet)
    return tuple(rng.choice(actions) for _ in range(rng.randint(0, max_len)))


def all_words(alphabet: frozenset[str], max_len: int):
    """Every word up to max_len, shortest first, lexicographic within a
    length."""
    actions = sorted(alphabet)
    frontier: list[tuple[str, ...]] = [()]
    yield ()
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for a in actions:
                word = w + (a,)
                yield word
                nxt.append(word)
        frontier = nxt
