"""Two-verdict monitors: conflict detection and determinization.

A monitor that can reach both ``yes`` and ``no`` on the *same* trace is
conflicting — irrevocability would force it to stand by contradictory
calls — and cannot be determinized meaningfully.  Conflict-free
two-verdict monitors are handled by relocating every ``no`` onto a
reserved marker action, determinizing the resulting single-verdict
monitor over the extended alphabet, and folding the marker back into a
verdict.  Because verdicts are irrevocable, a state that can emit the
marker may simply *become* ``no``, which is what the folding does.
"""

from __future__ import annotations

from itertools import product
from dataclasses import dataclass

from .automata import _Positions, _shortest_word
from .terms import (
    NO,
    NO_MARKER,
    YES,
    Monitor,
    Prefix,
    Rec,
    Sum,
    TermError,
    Verdict,
    actions_in,
    eliminate_verdict_sums,
    fold,
    mk_sum,
    subterms,
    verdicts_in,
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
    for t in subterms(m):
        if isinstance(t, Sum) and any(isinstance(s, Verdict) for s in t.summands):
            raise TermError("verdict summand: run eliminate_verdict_sums first")

    def step(t: Monitor, kids) -> Monitor:
        if isinstance(t, Verdict):
            return Prefix(NO_MARKER, Verdict(YES)) if t.value == NO else t
        if isinstance(t, Sum):
            return mk_sum(kids)
        return t.rebuild(kids)

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
        if isinstance(t, Sum):
            return mk_sum(kids)
        return t.rebuild(kids)

    return fold(m, step)


def is_conflicting(m: Monitor, alphabet: frozenset[str]) -> ConflictResult:
    """Can any single trace be flagged with both verdicts?  Breadth-first
    product walk of the monitor's compiled positions against themselves;
    the witness, when there is one, is a shortest conflicted trace."""
    positions = _Positions(m, alphabet)
    yes, no = positions.verdicts.get(YES), positions.verdicts.get(NO)
    weak, start = positions.weak, positions.closure(positions.root)

    def edges(pair: tuple[int, int]):
        p, q = pair
        return [
            (a, (p2, q2))
            for k, a in enumerate(positions.symbols)
            for p2 in weak(p, k) for q2 in weak(q, k)
        ]

    witness = _shortest_word(product(start, start), edges, {(yes, no), (no, yes)}.__contains__)
    return ConflictResult(False) if witness is None else ConflictResult(True, witness)


def _fold_marker(t: Monitor, kids) -> Monitor:
    """Bottom-up: marker prefixes become ``no``, and anything that can
    immediately go ``no`` is ``no`` (sound because the source monitor is
    conflict-free and verdicts are irrevocable)."""
    no = Verdict(NO)
    if isinstance(t, Prefix) and t.action == NO_MARKER:
        assert t.body == Verdict(YES)
        return no
    if isinstance(t, Sum):
        return no if no in kids else mk_sum(kids)
    if isinstance(t, Rec) and kids[0] == no:
        return no
    return t.rebuild(kids)


def determinize_two_verdict(
    m: Monitor, alphabet: frozenset[str], force: bool = False
) -> Monitor:
    """Determinize a conflict-free monitor that may carry both verdicts.

    Raises ConflictingMonitorError (with a shortest conflicted trace)
    when the two verdicts can collide.  Single-verdict monitors are
    passed straight to the ordinary pipeline.
    """
    from .pipeline import _determinize_well_formed  # import cycle: pipeline uses this module

    m = well_form(m, alphabet)
    conflict = is_conflicting(m, alphabet)
    if conflict:
        raise ConflictingMonitorError(conflict.witness or ())
    present = verdicts_in(m)
    if not (YES in present and NO in present):
        return _determinize_well_formed(m, alphabet, present, force=force)

    # Still well formed: the relocation adds no binder, and leaves only yes.
    prepared = nu(eliminate_verdict_sums(m, alphabet), alphabet)
    extended = frozenset(alphabet | {NO_MARKER})
    det = _determinize_well_formed(prepared, extended, frozenset({YES}), force=force)
    out = fold(det, _fold_marker)
    assert NO_MARKER not in actions_in(out)
    return out
