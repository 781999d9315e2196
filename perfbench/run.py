"""Determinization benchmark for detmon.

Run from the root of a checkout:

    python3 perfbench/run.py --workload routes --seed 1 --seconds 25 --trace 0

It imports ``detmon`` from the checkout's ``src`` directory, builds the
workload's inputs from the seed, repeats whole rounds of the workload for
about ``--seconds`` seconds in this one process and thread, checks every
output, and prints one JSON object as its last line.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced
rounds and reports the per-layer metrics.  Spans and results are written
under ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Set-up is short, so it is repeated and its median reported: once
# before the first round and SETUPS_PER_ROUND times after each round, so
# that its samples are spread over the run like the rounds' are.
SETUPS_PER_ROUND = 4


def import_detmon():
    """Import detmon from this checkout's sources, and nowhere else."""
    src = ROOT / "src"
    if not (src / "detmon" / "__init__.py").is_file():
        raise SystemExit(f"no detmon sources under {src}")
    sys.path.insert(0, str(src))
    import detmon

    if Path(detmon.__file__).resolve().parent != src / "detmon":
        raise SystemExit(f"detmon was imported from {detmon.__file__}, not {src}")
    return detmon


def timed_setup(setup, seed: int, tracer=None):
    gc.collect()
    if tracer:
        tracer.input_id = "setup"
        tracer.install()
    try:
        t0 = perf_counter()
        items = setup(seed)
        elapsed = perf_counter() - t0
    finally:
        if tracer:
            tracer.uninstall()
    return items, elapsed


def rounds_for(seconds: float, step, minimum: int) -> list:
    """Whole rounds until another would end more than half a round past
    `seconds`; at least `minimum`.

    Before each round, what the benchmark holds (inputs, earlier rounds'
    outputs) is moved out of the collector's view with ``gc.freeze``, so
    that the program's collections do not scan it and cost more as the
    rounds pile up."""
    done = []
    start = perf_counter()
    while True:
        gc.collect()
        gc.freeze()
        done.append(step(len(done)))
        elapsed = perf_counter() - start
        if len(done) >= minimum and elapsed + 0.5 * done[-1].wall > seconds:
            return done


def count_failed(items, rounds, seed: int, workloads) -> tuple[int, int, list[str]]:
    """Attempted and failed operations over all rounds.  Round one is
    checked; a later round fails an operation unless it reproduces the
    checked output exactly."""
    first = rounds[0].outputs
    bad = workloads.check_round(items, first, seed)
    failed = len(bad)
    attempted = 0
    for r in rounds:
        attempted += len(r.outputs)
        if r is rounds[0]:
            continue
        for key, value in r.outputs.items():
            if key in bad or first.get(key, None) != value:
                failed += 1
        failed += len(first.keys() - r.outputs.keys())
    reasons = [f"{' '.join(map(str, k))}: {v}" for k, v in sorted(bad.items(), key=str)]
    return attempted, failed, reasons


def peak_mb(items, workloads) -> float:
    gc.collect()
    tracemalloc.start()
    try:
        workloads.det_pass(items)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("families", "routes", "two-verdict"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_detmon()
    import tracing
    import workloads

    setup = workloads.SETUPS[args.workload]
    tracer = tracing.Tracer()
    OUT.mkdir(exist_ok=True)
    if args.trace:
        items, _ = timed_setup(setup, args.seed, tracer)
        setup_spans = len(tracer.spans)
        marks = []

        # Traced and untraced rounds alike make each call once, so that
        # per-layer figures are those of one round of operations.
        def step(i):
            if i % 2 == 0:
                return workloads.run_round(items, tracer)
            first = len(tracer.spans)
            tracer.install()
            try:
                r = workloads.run_round(items, tracer)
            finally:
                tracer.uninstall()
            marks.append((first, len(tracer.spans)))
            return r

        rounds = rounds_for(args.seconds, step, minimum=2)
        plain = [r.wall for i, r in enumerate(rounds) if i % 2 == 0]
        traced = [r.wall for i, r in enumerate(rounds) if i % 2 == 1]
        setup_totals = tracer.totals(0, setup_spans)
        per_round = [tracer.totals(a, b) for a, b in marks]
        metrics = {}
        for name in setup_totals:
            value = setup_totals[name] + sum(t[name] for t in per_round) / len(per_round)
            metrics[name] = metric(value, "s" if name.endswith("_s") else "count")
        metrics["trace.overhead_s"] = metric(
            statistics.median(traced) - statistics.median(plain), "s")
        tracer.write(OUT / f"spans-{args.workload}-s{args.seed}.jsonl")
    else:
        items, elapsed = timed_setup(setup, args.seed)
        setups = [elapsed]
        det_passes = args.workload in workloads.DET_PASSES

        def step(i):
            r = workloads.run_round(items, tracer, det_passes)
            for _ in range(SETUPS_PER_ROUND):
                setups.append(timed_setup(setup, args.seed)[1])
            return r

        rounds = rounds_for(args.seconds, step, minimum=3)
        # Each operation's time is the median of all its calls in the run,
        # which drops the calls a burst of load on the machine slowed down.
        median = {k: statistics.median(t for r in rounds for t in r.times.get(k, ()))
                  for k in rounds[0].times}
        phase = {p: [t for k, t in median.items() if k[0] == p]
                 for p in ("det", "dfa", "check", "run")}
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "det_s": metric(sum(phase["det"]), "s"),
            "det_p50_ms": metric(statistics.median(phase["det"]) * 1e3, "ms"),
            "dfa_s": metric(sum(phase["dfa"]), "s"),
            "check_s": metric(sum(phase["check"]), "s"),
            # Per-action costs of single traces span four orders of
            # magnitude; their arithmetic mean is set by the few largest
            # outputs and moves with the seed, the geometric mean does not.
            "run_us_per_action": metric(
                math.exp(statistics.fmean(math.log(t) for t in phase["run"])) * 1e6, "us"),
            "out_size": metric(workloads.output_size(rounds[0].outputs), "count"),
            "peak_mb": metric(peak_mb(items, workloads), "MB"),
        }

    attempted, failed, reasons = count_failed(items, rounds, args.seed, workloads)
    for reason in reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({"round_walls_s": [r.wall for r in rounds], **result}, indent=1) + "\n")
    print(f"{args.workload}: {len(rounds)} rounds, {len(items)} inputs", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
