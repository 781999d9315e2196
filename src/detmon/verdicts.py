"""Two-verdict monitors: conflict detection and determinization.

A monitor that can reach both ``yes`` and ``no`` on the *same* trace is
conflicting — irrevocability would force it to stand by contradictory
calls — and cannot be determinized meaningfully.  A conflict-free one
is determinized on one compile of its positions as the three-valued
deterministic monitor of Bauer, Leucker and Schallhart: the subset
construction runs on an NFA of the root and its action targets, each
labelled yes where ``yes`` lies in its tau closure and no where ``no``
does; a subset takes its members' labels as it is found, the first with
both being a conflict, which a breadth-first walk over pairs of
positions names; minimization starts from the partition by label; and
the unfolding writes ``yes`` or ``no`` on each edge into a labelled
state.
``nu`` and ``nu_inverse`` move every ``no`` behind a reserved marker
action and back, making a two-verdict monitor a yes-monitor.
"""

from __future__ import annotations

from itertools import product
from dataclasses import dataclass

from .automata import _Clash, _Positions, _determinized, _shortest_word
from .terms import (
    NO,
    NO_MARKER,
    YES,
    Monitor,
    Prefix,
    Sum,
    TermError,
    Verdict,
    actions_in,
    distinct_subterms,
    fold,
    well_form,
)

__all__ = [
    "ConflictResult",
    "ConflictingMonitorError",
    "determinize_two_verdict",
    "is_conflicting",
    "nu",
    "nu_inverse",
]


class ConflictingMonitorError(TermError):
    def __init__(self, witness: tuple[str, ...]):
        super().__init__(
            f"monitor flags both yes and no on the trace {'.'.join(witness) or 'ε'}"
        )
        self.witness = witness


@dataclass(frozen=True)
class ConflictResult:
    conflicting: bool
    witness: tuple[str, ...] | None = None

    def __bool__(self) -> bool:
        return self.conflicting


def nu(m: Monitor, alphabet: frozenset[str]) -> Monitor:
    """Relocate every ``no`` verdict onto the reserved marker action, so
    a two-verdict monitor becomes a yes-monitor over the extended
    alphabet: the trace w flags no exactly when w·marker is accepted.

    Verdict summands would not survive the round trip (their implicit
    any-action behaviour has no marker image), so they are rejected;
    eliminate_verdict_sums removes them losslessly first.
    """
    if NO_MARKER in alphabet:
        raise TermError(f"alphabet already contains the reserved action {NO_MARKER!r}")
    if NO_MARKER in actions_in(m):
        raise TermError(f"monitor already uses the reserved action {NO_MARKER!r}")
    for t in distinct_subterms(m):
        if isinstance(t, Sum) and any(isinstance(s, Verdict) for s in t.summands):
            raise TermError("verdict summand: run eliminate_verdict_sums first")

    def step(t: Monitor, kids) -> Monitor:
        if isinstance(t, Verdict):
            return Prefix(NO_MARKER, Verdict(YES)) if t.value == NO else t
        return t.rebuild(kids)  # no summand becomes a choice

    return fold(m, step)


def nu_inverse(m: Monitor) -> Monitor:
    """Undo the marker relocation.  Exact inverse on images of nu; on
    other marker-carrying monitors it still folds each marker prefix
    back into ``no`` but may then produce verdict summands."""

    def step(t: Monitor, kids) -> Monitor:
        if isinstance(t, Prefix) and t.action == NO_MARKER:
            if t.body != Verdict(YES):
                raise TermError(
                    f"marker action {NO_MARKER!r} must be followed by yes"
                )
            return Verdict(NO)
        return t.rebuild(kids)  # no summand becomes a choice

    return fold(m, step)


def _conflict(positions: _Positions) -> tuple[str, ...] | None:
    """A shortest trace on which the compiled monitor can reach both
    verdicts, or None: a breadth-first product walk of its positions
    against themselves."""
    yes, no = positions.verdicts.get(YES), positions.verdicts.get(NO)
    weak, start = positions.weak, positions.closure(positions.root)

    def edges(pair: tuple[int, int]):
        p, q = pair
        return [
            (a, (p2, q2))
            for k, a in enumerate(positions.symbols)
            for p2 in weak(p, k) for q2 in weak(q, k)
        ]

    return _shortest_word(product(start, start), edges, {(yes, no), (no, yes)}.__contains__)


def is_conflicting(m: Monitor, alphabet: frozenset[str]) -> ConflictResult:
    """Can any single trace be flagged with both verdicts?  The witness,
    when there is one, is a shortest conflicted trace, though not always
    the shortlex-least: one trace leads to several pairs of positions,
    and each pair's symbols are tried before the next pair's."""
    witness = _conflict(_Positions(m, alphabet))
    return ConflictResult(False) if witness is None else ConflictResult(True, witness)


def determinize_two_verdict(
    m: Monitor, alphabet: frozenset[str], force: bool = False
) -> Monitor:
    """Determinize a conflict-free monitor that may carry both verdicts.

    Raises ConflictingMonitorError (with is_conflicting's witness) when
    the two verdicts can collide, and CapExceeded when the minimal DFA
    has more than DFA_MONITOR_CAP states unless forced.  Every position
    a trace reaches is worked out before any subset, so a compile error
    comes before a conflict.  A single-verdict monitor comes out as
    determinize_monitor's automata route gives it.
    """
    positions = _Positions(well_form(m, alphabet), alphabet)
    table = positions.nfa((YES, NO), weak=False)
    # With one verdict or none no subset holds both, and no pair is walked.
    both = YES in positions.verdicts and NO in positions.verdicts

    def fail_fast() -> None:
        # Subsets can grow exponentially before a conflict the pairs meet.
        if (witness := _conflict(positions)) is not None:
            raise ConflictingMonitorError(witness)

    try:
        return _determinized(table, force, (YES, NO), fail_fast if both else None)
    except _Clash:
        pass
    raise ConflictingMonitorError(_conflict(positions))
