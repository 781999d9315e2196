"""End-to-end determinization of monitors, and the measurement harness.

Two independent routes arrive at a deterministic monitor:

* ``automata`` — language automaton, subset construction, minimization,
  unfold back into a monitor.  Works for any single-verdict monitor and
  is the default.
* ``equations`` — through the logic side: read the monitor (its dual,
  for a ``yes`` monitor) back as a safety formula and flatten that into
  standard-form equations, whose rows are the states of an NFA (an
  ``ff`` row accepting and looping on every symbol).  Requires the
  monitor to be end-free.

The automata route composes the public stages: DFA, minimization,
unfolding, and a dual for ``no``; their outputs keep their kernels'
numbering and are never named on the way.  The equations route reads
its flattened equations as an unnamed NFA table and runs the kernel tail
of two-verdict determinization on it, whose unfolding writes the
monitor's own verdict; no stage output or equation system is built, and
the result is the one ``formula_to_system``, ``determinize_system`` and
``system_to_dfa`` give.
The unfolding can blow up exponentially, so it refuses minimal DFAs of
more than ``DFA_MONITOR_CAP`` states on either route, and ``force=True``
lifts the cap.  ``bench`` runs either witness family across a range of
sizes with a per-stage timeout and reports CSV rows.
"""

from __future__ import annotations

import signal
import time
from typing import Callable

from .automata import (
    _determinized,
    dfa_to_monitor,
    minimize_dfa,
    monitor_to_nfa,
    subset_construction,
)
from .families import ALPHABET_01E, mn_monitor, un_monitor
from .logic import _flat_nfa
from .semantics import CapExceeded
from .synthesis import monitor_to_formula
from .terms import (
    END,
    NO,
    YES,
    Monitor,
    TermError,
    Verdict,
    dualize_monitor,
    eliminate_verdict_sums,
    size,
    verdicts_in,
    well_form,
)
from .verdicts import determinize_two_verdict  # noqa: F401  (public pipeline API)

__all__ = ["bench", "bench_csv", "determinize_monitor", "determinize_two_verdict"]


def determinize_monitor(
    m: Monitor,
    alphabet: frozenset[str],
    method: str = "automata",
    force: bool = False,
) -> Monitor:
    """A deterministic monitor flagging the same verdict on the same
    traces.  Single-verdict monitors only; use determinize_two_verdict
    when both yes and no occur."""
    if method not in ("automata", "equations"):
        raise TermError(f"unknown method {method!r}")
    m = well_form(m, alphabet)
    present = verdicts_in(m)
    if YES in present and NO in present:
        raise TermError(
            "monitor carries both verdicts; use determinize_two_verdict"
        )
    if YES not in present and NO not in present:
        return Verdict(END)  # flags nothing, deterministically
    verdict = YES if YES in present else NO

    if method == "equations":
        # Verdict summands must be expanded first: the formula reading
        # maps them onto tt/ff, which already holds on the current trace,
        # while a verdict inside a choice only flags after one more
        # action.  The expansion makes the two readings line up.  A yes
        # monitor is read as the safety formula of its dual.
        e = eliminate_verdict_sums(m, alphabet)
        f = monitor_to_formula(e if verdict == NO else dualize_monitor(e))
        return _determinized(_flat_nfa(f, alphabet), force, (verdict,))
    # One expression, so that the subset DFA, which keeps its subsets
    # until its names are read, is dropped before the unfolding.
    det = dfa_to_monitor(
        minimize_dfa(subset_construction(monitor_to_nfa(m, verdict, alphabet))), force=force
    )
    return det if verdict == YES else dualize_monitor(det)


# ---------------------------------------------------------------------------
# Benchmarks
# ---------------------------------------------------------------------------

BENCH_COLUMNS = (
    "family", "n", "monitor_size", "nfa_states", "subset_states", "min_dfa_states",
    "det_monitor_size", "t_nfa", "t_subset", "t_min", "t_unfold", "status",
)

_FAMILIES: dict[str, Callable[[int], Monitor]] = {"mn": mn_monitor, "un": un_monitor}

# Each stage: its time column's suffix, its size column, and its run.
_BENCH_STAGES: tuple[tuple[str, str, Callable], ...] = (
    ("nfa", "nfa_states", lambda m: monitor_to_nfa(m, YES, ALPHABET_01E)),
    ("subset", "subset_states", subset_construction),
    ("min", "min_dfa_states", minimize_dfa),
    ("unfold", "det_monitor_size", lambda d: dfa_to_monitor(d, force=True)),
)


class _StageTimeout(Exception):
    pass


def _with_timeout(seconds: float, fn: Callable[[], object]) -> object:
    """Run fn under a wall-clock limit.  Uses SIGALRM when available
    (main thread on POSIX); otherwise runs unguarded."""
    if seconds <= 0 or not hasattr(signal, "setitimer"):
        return fn()

    def handler(signum, frame):  # noqa: ARG001
        # Raise only in detmon's code: elsewhere (a garbage-collector callback,
        # a context-manager generator) the raise can be swallowed or recast.
        if frame is not None and frame.f_globals.get("__name__", "").startswith("detmon."):
            raise _StageTimeout

    old = signal.signal(signal.SIGALRM, handler)
    # The alarm repeats, so a tick that lands elsewhere is followed by another.
    signal.setitimer(signal.ITIMER_REAL, seconds, 0.1)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def bench(
    family: str, min_n: int, max_n: int, timeout: float = 60.0
) -> list[dict[str, object]]:
    """Measure the determinization pipeline on a witness family.  Each
    stage runs under the timeout; a row that times out or hits a size
    cap keeps whatever stages finished and is marked status=timeout or
    status=cap."""
    if family not in _FAMILIES:
        raise TermError(f"unknown family {family!r}; choose from {sorted(_FAMILIES)}")
    build = _FAMILIES[family]
    rows: list[dict[str, object]] = []
    for n in range(min_n, max_n + 1):
        row: dict[str, object] = {c: "" for c in BENCH_COLUMNS}
        row.update(family=family, n=n, status="ok")
        try:
            out: object = build(n)
            row["monitor_size"] = size(out)
            for stage, column, run in _BENCH_STAGES:
                t0 = time.perf_counter()
                out = _with_timeout(timeout, lambda: run(out))
                row[f"t_{stage}"] = round(time.perf_counter() - t0, 4)
                row[column] = size(out) if stage == "unfold" else len(out.states)
        except _StageTimeout:
            row["status"] = "timeout"
        except CapExceeded:
            row["status"] = "cap"
        rows.append(row)
    return rows


def bench_csv(rows: list[dict[str, object]]) -> str:
    lines = [",".join(BENCH_COLUMNS)]
    for row in rows:
        lines.append(",".join(str(row.get(c, "")) for c in BENCH_COLUMNS))
    return "\n".join(lines) + "\n"
