#!/usr/bin/env python
"""CI performance-regression gate for the Fig. 5 runtime sweep.

Runs the fig5 smoke sweep serially (``workers=1``, twice) and in
parallel (``--workers N``), writes every measurement to ``BENCH_ci.json``
(the CI workflow uploads it as an artifact), and fails the job when any of
three checks trips:

1. **Determinism** — the released answers of every serial and the
   parallel sweep must be byte-identical at the fixed seed.  This is
   exact, not a timing check, and never flaky.
2. **Parallel sanity** (same-run, same-machine, so machine speed cancels)
   — with at least 2 CPU cores, the parallel sweep's wall-clock must not
   exceed the serial sweep's by more than the tolerance.
3. **Baseline comparison** — each combo's summed ``mechanism_seconds``
   (the faster of the two serial sweeps), *normalized by a calibration
   kernel timed in the same process*, must not exceed the committed
   ``BENCH_baseline.json`` value by more than the tolerance.  The
   calibration is the median timing of perfbench's machine kernel
   (``perfbench/measure.py``), sampled around the sweeps; the kernel runs
   none of the repository's code, so it tracks the machine's speed only,
   and a change that speeds up or slows down the mechanism moves every
   normalized cost the way it moves the raw seconds.  Refresh the
   baseline with ``--update-baseline`` after intentional performance
   changes.

``REPRO_PERF_GATE=warn`` downgrades timing failures (checks 2–3) to
warnings — determinism failures always fail.  Exit codes: 0 pass,
1 regression, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench.measure import machine_kernel_seconds  # noqa: E402
from repro.core.efficient import EfficientRecursiveMechanism  # noqa: E402
from repro.core.params import RecursiveMechanismParams  # noqa: E402
from repro.experiments.harness import resolve_scale  # noqa: E402
from repro.experiments.runtime import fig5_runtime_sweep  # noqa: E402
from repro.graphs import random_graph_with_avg_degree  # noqa: E402
from repro.lp import HIGHS  # noqa: E402
from repro.parallel import fork_available, resolve_workers  # noqa: E402
from repro.subgraphs import subgraph_krelation, triangle  # noqa: E402

#: Serial sweeps per run; each combo's cost is its fastest.  Interference
#: on a shared host only ever slows a sweep, and one sweep's combos of
#: 0.1-0.3 s moved by ±15% between runs.
SERIAL_SWEEPS = 2

BASELINE_DEFAULT = Path(__file__).resolve().parent / "BENCH_baseline.json"


def kernel_samples(repeats: int = 9) -> list:
    """``repeats`` timings (seconds) of perfbench's machine kernel.

    The kernel touches none of the repository's code, so the
    combo/calibration ratio cancels the machine's speed but not a change
    in the mechanism's.  On a shared host that speed moves within
    fractions of a second, so the gate takes samples before, between and
    after the sweeps and normalizes by their median.
    """
    return [machine_kernel_seconds() for _ in range(repeats)]


def solve_timings(repeats: int = 2):
    """Best-of-``repeats`` solve seconds of one fixed release.

    Times one edge-DP triangle release (compilation excluded) on the LP
    solver, plus the released answer so the artifact doubles as a
    determinism record.  Recorded into ``BENCH_ci.json`` for trend
    tracking; not gated.
    """
    graph = random_graph_with_avg_degree(40, 8.0, rng=0)
    relation = subgraph_krelation(graph, triangle(), privacy="edge")
    params = RecursiveMechanismParams.paper(0.5)
    best = float("inf")
    answer = None
    for _ in range(repeats):
        mechanism = EfficientRecursiveMechanism(relation)
        start = time.perf_counter()
        result = mechanism.run(params, 0)
        best = min(best, time.perf_counter() - start)
        answer = result.answer
    return {"solve_seconds": best, "answer": answer}


def run_sweep(scale, workers: int):
    start = time.perf_counter()
    result = fig5_runtime_sweep(scale=scale, rng=2024, workers=workers)
    wall = time.perf_counter() - start
    combo_seconds = {
        combo: sum(row["mechanism_seconds"] for row in rows)
        for combo, rows in result.items()
    }
    answers = {combo: [row["answer"] for row in rows] for combo, rows in result.items()}
    return wall, combo_seconds, answers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallel worker count (default: resolved)",
    )
    parser.add_argument("--scale", default="smoke")
    parser.add_argument("--output", default="BENCH_ci.json")
    parser.add_argument("--baseline", default=str(BASELINE_DEFAULT))
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional regression (default 0.25)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from this run and pass",
    )
    args = parser.parse_args(argv)

    mode = os.environ.get("REPRO_PERF_GATE", "fail").lower()
    if mode not in ("fail", "warn", "off"):
        print(f"unknown REPRO_PERF_GATE={mode!r} (use fail|warn|off)")
        return 2
    scale = resolve_scale(args.scale)
    workers = resolve_workers(args.workers)
    if workers < 2 and fork_available():
        workers = 2  # the gate's whole point is serial vs parallel

    samples = kernel_samples()
    serial_runs = []
    for _ in range(SERIAL_SWEEPS):
        serial_runs.append(run_sweep(scale, workers=1))
        samples += kernel_samples()
    serial_wall = min(wall for wall, _, _ in serial_runs)
    serial_combos = {
        combo: min(combos[combo] for _, combos, _ in serial_runs)
        for combo in serial_runs[0][1]
    }
    serial_answers = serial_runs[0][2]
    parallel_wall, parallel_combos, parallel_answers = run_sweep(scale, workers=workers)
    samples += kernel_samples()
    calibration = statistics.median(samples)
    normalized = {c: s / calibration for c, s in serial_combos.items()}

    report = {
        "scale": scale.name,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "lp_backend": HIGHS.name,
        "backend_seconds": {HIGHS.name: solve_timings()},
        "calibration_seconds": calibration,
        "serial_wall_seconds": serial_wall,
        "parallel_wall_seconds": parallel_wall,
        "speedup": serial_wall / parallel_wall if parallel_wall else None,
        "serial_combo_seconds": serial_combos,
        "parallel_combo_seconds": parallel_combos,
        "normalized_combo_cost": normalized,
        "tolerance": args.tolerance,
    }
    failures = []
    timing_failures = []

    if any(answers != serial_answers for _, _, answers in serial_runs):
        failures.append(
            "determinism: repeated serial sweeps released different answers"
        )
    if serial_answers != parallel_answers:
        bad = [
            c for c in serial_answers if serial_answers[c] != parallel_answers.get(c)
        ]
        failures.append(
            f"determinism: serial vs parallel released answers differ for {bad}"
        )

    if (os.cpu_count() or 1) >= 2 and fork_available():
        if parallel_wall > serial_wall * (1.0 + args.tolerance):
            timing_failures.append(
                f"parallel sweep ({parallel_wall:.2f}s) is more than "
                f"{args.tolerance:.0%} slower than serial ({serial_wall:.2f}s)"
            )
    else:
        report["parallel_sanity"] = "skipped (single core or no fork)"

    baseline_path = Path(args.baseline)
    if args.update_baseline or not baseline_path.exists():
        baseline_path.write_text(json.dumps({
            "normalized_combo_cost": normalized,
            "calibration_reference_seconds": calibration,
            "scale": scale.name,
        }, indent=2, sort_keys=True) + "\n")
        report["baseline"] = "written (bootstrap/update, not compared)"
    else:
        baseline = json.loads(baseline_path.read_text())
        base_costs = baseline.get("normalized_combo_cost", {})
        for combo, cost in sorted(normalized.items()):
            base = base_costs.get(combo)
            if base is None:
                report.setdefault("baseline_missing_combos", []).append(combo)
                continue
            if cost > base * (1.0 + args.tolerance):
                timing_failures.append(
                    f"{combo}: normalized cost {cost:.3f} exceeds baseline "
                    f"{base:.3f} by more than {args.tolerance:.0%}"
                )

    report["failures"] = failures + timing_failures
    Path(args.output).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report, indent=2, sort_keys=True))

    if timing_failures and mode == "fail":
        failures += timing_failures
    elif timing_failures:
        print("PERF GATE (softened by REPRO_PERF_GATE):", *timing_failures, sep="\n  ")
    if mode == "off":
        failures = [f for f in failures if f.startswith("determinism")]
    if failures:
        print("PERF GATE FAILED:", *failures, sep="\n  ")
        return 1
    print(
        f"perf gate passed (speedup x{report['speedup']:.2f} "
        f"on {os.cpu_count()} cores, workers={workers})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
