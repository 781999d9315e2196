"""Deciding when two monitors are interchangeable.

Two monitors are verdict-equivalent when they flag exactly the same
traces with exactly the same verdicts.  Verdict by verdict this is
language equality of their acceptance automata, decided exactly by a
product walk that yields the shortlex-least distinguishing trace when it
fails.  `bounded_equiv` is the cheap cousin: compare verdict sets on
every trace up to a length bound.

`simple_traces` enumerates the traces a monitor can follow without ever
taking a recursion backedge; any flagged trace outside that set must
pump, and `pump_check` exhibits the decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .automata import _difference, _Positions, _subset_steps
from .semantics import StepEngine, binder_map, verdicts_on
from .terms import END, NO, SKIP, YES, Monitor, Prefix, Term, Verdict, fold


@dataclass(frozen=True)
class EquivResult:
    equivalent: bool
    witness: tuple[str, ...] | None = None
    verdict: str | None = None

    def __bool__(self) -> bool:
        return self.equivalent


def verdict_equiv(
    m1: Monitor,
    m2: Monitor,
    alphabet: frozenset[str],
    include_end: bool = False,
) -> EquivResult:
    """Exact verdict equivalence, one acceptance automaton per verdict.

    Each monitor is compiled to its positions once, and every position a
    trace reaches is worked out before any verdict is compared, the first
    monitor's first: a compile error is raised even behind a difference.
    For each verdict in turn, `_difference` walks pairs of subsets of
    action-step targets, their successors shared across verdicts; the
    witness is the shortlex-least trace that exactly one monitor flags
    with that verdict.

    The `end` verdict marks deliberate abdication and is usually not an
    observable outcome worth separating on; pass include_end=True to
    compare it as well.  A verdict that neither monitor carries is
    flagged on no trace by either, so it is not compared.
    """
    verdicts = (YES, NO, END) if include_end else (YES, NO)
    p1, p2 = _Positions(m1, alphabet), _Positions(m2, alphabet)
    verdicts = [v for v in verdicts if v in p1.verdicts or v in p2.verdicts]
    if not verdicts:
        return EquivResult(True)
    sides = [(p, p.reachable(), _subset_steps(p.moves, len(p.symbols))) for p in (p1, p2)]
    for v in verdicts:
        witness = _difference(p1.symbols, *[
            (steps, p.root, {q for q in order if p.verdicts.get(v, -1) in p.closure(q)})
            for p, order, steps in sides
        ])
        if witness is not None:
            return EquivResult(False, witness, v)
    return EquivResult(True)


def bounded_equiv(
    m1: Monitor,
    m2: Monitor,
    max_len: int,
    alphabet: frozenset[str],
    system: str = "N",
) -> bool:
    """Do the two monitors produce identical verdict sets on every trace
    of length at most max_len?  A depth-bounded joint walk, so no
    completeness guarantee beyond the bound."""
    e1 = StepEngine(alphabet, system, binder_map(m1))
    e2 = StepEngine(alphabet, system, binder_map(m2))

    def flags(frontier: frozenset[Term]) -> frozenset[str]:
        return frozenset(t.value for t in frontier if isinstance(t, Verdict))

    seen: set[tuple[frozenset[Term], frozenset[Term], int]] = set()

    def go(f1: frozenset[Term], f2: frozenset[Term], remaining: int) -> bool:
        # Both frontiers are tau-closed: a step's weak successors are
        # those of the whole frontier.
        if flags(f1) != flags(f2):
            return False
        if remaining == 0:
            return True
        key = (f1, f2, remaining)
        if key in seen:
            return True
        seen.add(key)
        return all(
            go(frozenset(e1.frontier_step(f1, a)), frozenset(e2.frontier_step(f2, a)), remaining - 1)
            for a in sorted(alphabet)
        )

    return go(frozenset(e1.tau_closure(m1)), frozenset(e2.tau_closure(m2)), max_len)


def simple_traces(m: Monitor, max_len: int) -> frozenset[tuple[str, ...]]:
    """All traces the monitor can exhibit without ever following a
    recursion variable back to its binder.  Prefix-closed and finite: at
    most size(m) traces, none longer than height(m)."""
    out: set[tuple[str, ...]] = {()}

    def enter(t: Term, trace: tuple[str, ...]):
        if isinstance(t, Prefix):
            if len(trace) >= max_len:
                return SKIP
            trace = trace + (t.action,)
            out.add(trace)
        return trace

    fold(m, lambda t, kids, trace: None, enter, ())
    return frozenset(out)


def pump_check(
    m: Monitor,
    trace: Sequence[str],
    alphabet: frozenset[str],
) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]] | None:
    """For a trace outside the simple set, find a split x·u·z whose
    middle can be repeated (checked for 0..3 copies) without changing
    the verdicts.  Returns None for simple traces or if no verified
    split exists."""
    trace = tuple(trace)
    if trace in simple_traces(m, len(trace)):
        return None
    base = verdicts_on(m, trace, alphabet)
    n = len(trace)
    for ulen in range(1, n + 1):
        for start in range(0, n - ulen + 1):
            x = trace[:start]
            u = trace[start : start + ulen]
            z = trace[start + ulen :]
            if all(
                verdicts_on(m, x + u * i + z, alphabet) == base for i in (0, 1, 2, 3)
            ):
                return (x, u, z)
    return None
