#!/usr/bin/env python3
"""The repository benchmark: private releases end to end, and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload warm-wire --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of an untraced run; ``--trace 1`` runs the workload
untraced, then again traced on a fresh set-up, and reports the per-layer
metrics.  The lines before it are for people: sample counts, the
exact-work record, the answer digest and any failure.  The spans of a
traced run are written to ``perfbench/out/``.  The benchmark needs the
``repro`` sources at ``src/`` next to this directory and exits with code 2
without them.

Workloads (``workloads.py``; every loop is closed)
--------------------------------------------------
``cold-release``
    A fixed corpus of small G(n, p) graphs (40-50 nodes, average degree
    5-6), each asked the paper's query set (triangle, 2-star, 2-triangle
    × node, edge) once through an in-process ``PrivateSession`` with
    ``workers=1``, the shape ``repro count`` and local ``repro batch``
    use.  Every release is a compiled-cache miss, so the Δ search
    dominates: a Δ-search change (ROADMAP item 2) must show here.
``warm-wire``
    A 200-node graph behind a ``ServiceRouter`` on its loop thread
    (``BackgroundService``, ``workers=1`` as ``repro serve``), one
    ``ServiceClient`` connection carrying four unlimited tenants.  Every
    spec is warmed in set-up; three quarters of the releases are cheap
    (triangle, 2-triangle × node, edge) and one quarter is 2-star/edge,
    so p50 sits inside the cheap class and p90 inside the 2-star class.
    Wire, admission, budget and cache lookups show at p50; the warm X-step
    LP at p90.  A Δ-search change must show no change here.
``live-updates``
    A ``VersionedGraph`` (2000 nodes, average degree 8) served with
    updates on.  Each round sends two wire ``update`` frames of four edge
    toggles each, then a triangle/node and a triangle/edge release at the
    new version (both compiled-cache misses served from the maintained
    columnar store) and a triangle/edge re-read (a hit).  Writes beside
    reads on ``dynamic`` and ``store``; update round trips are reported
    apart from releases.
``pool-fanout``
    The warm-wire graph and mix through ``PrivateSession.submit`` with
    ``workers=2`` and two releases in flight.  Every spec is warmed in the
    parent before the first fork, so no Δ probe (whose forked race does
    timing-dependent work) runs in the timed phase.  Measures the
    ``parallel`` layer (ROADMAP item 3).

The datasets are fixed; ``--seed`` draws the traffic (op order, tenants,
per-request noise seeds, the update stream).  The op list is sized from
``--seconds`` with each workload's measured cost per op, so a run lasts
about ``--seconds`` and the same ``(seed, seconds)`` always does the same
work.

End-to-end metrics (untraced)
-----------------------------
``release_p50_ms`` / ``release_p90_ms``
    Client-observed latency of one private release (each workload issues
    at least 100 per run; the sample count is printed).
``releases_per_s``
    Releases completed ÷ wall seconds of the timed phase.
``setup_s``
    Imports (from the start of this script) plus the median of
    :data:`SETUP_REPEATS` set-ups (dataset load, service start, warm-up);
    the last set-up serves the timed phase.
``peak_rss_mb``
    Peak resident memory of this process plus its live pool workers.

The times are reported at a reference machine speed.  On a shared
2-vCPU VM the machine's speed drifted by a quarter, at times by half,
over minutes, and identical runs drifted with it.  So the timed phase
runs in :data:`SEGMENTS` segments, a fixed pure-Python/NumPy kernel that
does not touch the repository is timed before, between and after them,
and each segment's times are multiplied by ``REFERENCE_KERNEL_MS / kernel
ms``; set-up is scaled by the samples around it.  Over six seeds per
workload this cut the quartile spread of p90 from 0.08-0.41 to 0.05-0.11
of the median.
The unscaled values are printed on the ``unscaled`` line.

Failures count in the result's ``failed``: an op fails when it raises or
is refused, when its answer is not finite, or when its echoed ``version``
or ``cache_hit`` differs from the op list's prediction.  After the timed
phase every distinct (spec, version) must have a prepared count equal to
the independent ``repro.subgraphs.counting`` count, and the ledger's ε
total must equal the ε granted; otherwise ``correct`` is false.

Per-layer metrics (traced; ``layers.py``)
-----------------------------------------
Spans come from ``spans.py``, which wraps each layer's public entry
points from outside for the traced phase only.  Layer → what is timed →
the end-to-end metric it should move:

* ``service`` — ``wire_ms`` (client latency minus the request's
  ``PrivateSession.submit`` span), ``server_ms`` / ``admission_wait_ms``
  (``repro_query_seconds`` / ``repro_admission_wait_seconds`` read with
  ``ServiceClient.metrics()``), ``update_ms`` (``apply_update`` span),
  ``update_rtt_p50_ms`` / ``update_rtt_p90_ms`` (untraced wire ``update``
  round trips) → ``release_p50_ms`` on warm-wire; update latency on
  live-updates.
* ``session`` — ``overhead_ms`` (self time of ``query``/``submit``),
  ``budget_ms`` (``reserve`` + ``commit``), ``cache_hit_ratio``,
  ``cache_entries`` → ``release_p50_ms`` on warm-wire, ``peak_rss_mb`` on
  live-updates.
* ``mechanisms`` — ``prepare_ms`` (``Mechanism.prepare``), ``release_ms``
  (``PreparedQuery.release``; worker-side mean on pool-fanout).
* ``subgraphs`` — ``enumerate_ms`` (``occurrences_for_pattern``) and
  ``occurrences`` → ``release_p50_ms`` on cold-release.
* ``relax`` — ``encode_ms`` (``EncodedRelation`` construction, self
  time) and ``x_ms`` (``solve_x_relaxation``).
* ``lp`` — ``compile_ms`` (``CompiledProgram.__init__``);
  ``g_decide_calls`` / ``g_decide_ms`` (``solve_g_decide``) →
  ``release_p90_ms`` and ``releases_per_s`` on cold-release, no change on
  warm-wire and pool-fanout; ``x_calls`` / ``x_ms`` (``solve_x``) →
  ``release_p90_ms`` on warm-wire, ``releases_per_s`` on pool-fanout;
  ``h_calls`` / ``h_ms`` (``solve_h``, ``solve_many``); ``iterations``
  (``repro_lp_iterations``).
* ``core`` — ``delta_search_ms`` (``compute_delta``), ``g_probes``
  (``g_entry_leq``), ``g_probe_lp_ratio`` (``lp.g_decide_calls`` ÷
  ``core.g_probes``), ``x_step_ms`` (``h_entries`` +
  ``solve_x_relaxation``) → cold-release, as ``lp.g_decide_ms``.
* ``dynamic`` — ``apply_ms`` (``IncrementalOccurrences.apply``, per
  update), ``ball_nodes`` (largest delta-join ball) and ``rebuilds``
  (must stay 0) → update latency on live-updates.
* ``store`` — ``relation_ms`` (``VersionedGraph.relation_for``),
  ``index_rebuilds``, ``tombstones`` → ``release_p50_ms`` on
  live-updates.
* ``parallel`` — ``dispatch_ms`` (``WorkerPool.submit``), ``tasks``, and
  ``overhead_ms`` (release latency minus the workers' mean release time
  from the merged ``repro_release_seconds``) → ``release_p50_ms`` and
  ``releases_per_s`` on pool-fanout.
* ``trace.overhead_pct`` — untraced vs traced ``releases_per_s`` of the
  same run; ``machine.calib_ms`` — the median kernel time of the untraced
  phase.  Per-layer times are not scaled; ``machine.calib_ms`` scales them.

Exact-work record
-----------------
Every run prints LP calls by kind, LP iterations, Δ-search probes, cache
hits and misses, maintenance deltas, ball sizes, index rebuilds and pool
tasks, and a sha256 digest of the released answers in op order.  With
the same code and seed they repeat exactly, so a slow run is the
machine's, not different work.  On pool-fanout the workers' H solves and
LP iterations depend on which worker took which release (each keeps its
own H cache and warm solver state), so they are printed apart and not
part of the record.

Leads for later performance work
--------------------------------
Traced 10-second runs on a 2-vCPU VM:

* cold-release: the Δ search is 67 ms of an 84 ms mean release, and 458
  of its 611 probes needed an LP.  Those probe LPs are missing from
  ``repro_lp_solve_seconds`` and ``repro_lp_iterations``; only the
  outside timer sees them.
* warm-wire: the X-step LP is 6.9 ms of an 8.6 ms mean release.  A warm
  release whose noise needs an H entry no earlier release computed pays
  for it (14 H batches in 741 releases, about 85 ms each).
* live-updates: a release at a new version compiles and searches Δ again
  (33 ms of a 46 ms server-side release); an update takes 0.5 ms to
  apply.  Resident memory grows by about 13 MB a round, two compiled
  programs retained per version, because the cache keeps every version.
* pool-fanout: a pooled release costs about 2 ms more than the worker's
  own release time.
"""

import os
import sys
import time

_START = time.perf_counter()
# One thread per BLAS: the releases are single-threaded, and a second
# thread pool only adds contention on a small machine.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"
# Run the package's defaults whatever the caller's environment selects.
for _variable in [name for name in os.environ if name.startswith("REPRO_")]:
    del os.environ[_variable]

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SOURCES = HERE.parent / "src"
#: Set-ups per run; ``setup_s`` reports the median.
SETUP_REPEATS = 3
#: The timed phase runs the op list in this many consecutive segments and
#: samples the machine kernel before, between and after them.
SEGMENTS = 10
#: Kernel runs per sample (the sample is their median).
KERNEL_RUNS = 3
#: Kernel milliseconds of the reference machine speed the end-to-end
#: times are reported at (the kernel's typical time on a 2-vCPU VM).
REFERENCE_KERNEL_MS = 7.0
WORKLOAD_NAMES = ("cold-release", "warm-wire", "live-updates", "pool-fanout")
#: ``(name, unit)`` of the end-to-end metrics.
END_TO_END = (
    ("release_p50_ms", "ms"),
    ("release_p90_ms", "ms"),
    ("releases_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
#: Counters of the workloads' ``work()`` rows, reported as phase deltas.
WORK_COUNTERS = (
    "cache_hits",
    "cache_misses",
    "maintenance_deltas",
    "maintenance_rebuilds",
    "store_index_rebuilds",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Phase:
    """One timed pass over the op list, with what was read around it.

    ``segments`` holds ``(results, wall seconds, speed)`` per segment of the
    op list, where ``speed`` scales the segment's times to the reference
    machine speed (see :func:`timed_phase`).
    """

    def __init__(self, segments, registry, service, work, counts):
        self.results = [r for results, _, _ in segments for r in results]
        self.speeds = [speed for results, _, speed in segments for _ in results]
        self.wall = sum(wall for _, wall, _ in segments)
        self.scaled_wall = sum(wall * speed for _, wall, speed in segments)
        self.registry_before, self.registry_after = registry
        self.service_before, self.service_after = service
        work_before, self.work = work
        self.work_delta = {
            key: self.work[key] - work_before[key]
            for key in WORK_COUNTERS
            if key in self.work
        }
        self.counts = counts
        self.problems = []
        self.peak_rss_mb = 0.0

    def ok_ops(self):
        return [(i, r) for i, r in enumerate(self.results) if r.failure is None]

    def release_seconds(self, scaled=True):
        return [
            r.seconds * (self.speeds[i] if scaled else 1.0)
            for i, r in self.ok_ops()
            if r.kind == "release"
        ]

    def releases_per_s(self, scaled=True):
        wall = self.scaled_wall if scaled else self.wall
        return len(self.release_seconds()) / wall

    def failures(self):
        return [(i, r.failure) for i, r in enumerate(self.results) if r.failure]

    def digest(self):
        text = "\n".join(repr(r.answer) for r in self.results)
        return hashlib.sha256(text.encode()).hexdigest()


def machine_ms():
    """One machine-speed sample: the median of :data:`KERNEL_RUNS` kernels."""
    from measure import machine_kernel_seconds, median

    return 1e3 * median([machine_kernel_seconds() for _ in range(KERNEL_RUNS)])


def timed_phase(workload, state, ops, trace):
    """Run the op list once on ``state`` with a span recorder installed,
    then read the registry, verify, and tear ``state`` down.

    The op list runs in :data:`SEGMENTS` consecutive segments with a
    machine-kernel sample before, between and after them.  Each segment's
    times are scaled by ``REFERENCE_KERNEL_MS / kernel ms`` (the mean of
    the samples on either side), so that the speed of the shared machine,
    which drifts by a quarter over minutes, cancels out of the end-to-end
    metrics.
    """
    from measure import peak_rss_mb, registry_rows
    from spans import SpanRecorder

    from repro.obs import metrics as obs_metrics

    def service_rows():
        payload = workload.service_metrics(state)
        return None if payload is None else registry_rows(payload)

    recorder = SpanRecorder(trace=trace).install()
    try:
        service_before = service_rows()
        work_before = workload.work(state)
        registry_before = registry_rows(obs_metrics().snapshot())
        gc.collect()
        bounds = [len(ops) * k // SEGMENTS for k in range(SEGMENTS + 1)]
        samples = [machine_ms()]
        segments = []
        for first, stop in zip(bounds, bounds[1:]):
            recorder.active = True
            start = time.perf_counter()
            results = workload.run(state, ops[first:stop], recorder, first)
            wall = time.perf_counter() - start
            recorder.active = False
            samples.append(machine_ms())
            speed = 2 * REFERENCE_KERNEL_MS / (samples[-2] + samples[-1])
            segments.append((results, wall, speed))
        counts = dict(recorder.counts)
        if trace:
            counts = {name: row["count"] for name, row in recorder.aggregate().items()}
        phase = Phase(
            segments,
            (registry_before, registry_rows(obs_metrics().snapshot())),
            (service_before, service_rows()),
            (work_before, workload.work(state)),
            counts,
        )
        phase.kernel_ms = samples
        phase.peak_rss_mb = peak_rss_mb(workload.has_children)
        phase.problems = workload.verify(state, ops, phase.results)
    finally:
        recorder.restore()
        workload.teardown(state)
    return phase, recorder


def exact_work(workload, phase):
    """The counts that must repeat exactly for the same code and seed, and
    (pool-fanout) the worker-side counts that depend on scheduling."""
    from measure import registry_delta

    def registry(name, **labels):
        return registry_delta(
            phase.registry_before, phase.registry_after, name, **labels
        )

    record = {
        "releases": sum(r.kind == "release" for r in phase.results),
        "updates": sum(r.kind == "update" for r in phase.results),
        "lp_calls": {
            kind: phase.counts.get(f"lp.{kind}", 0)
            for kind in ("g_decide", "h", "many", "x")
        },
        "lp_solves_observed": {
            kind: int(registry("repro_lp_solve_seconds", overlay=kind)[0])
            for kind in ("g", "h", "x")
        },
        "lp_iterations": int(registry("repro_lp_iterations")[1]),
        "g_probes": phase.counts.get("core.g_probe", 0),
        "pool_tasks": int(registry("repro_pool_tasks_total")[0]),
        **phase.work_delta,
        **{k: v for k, v in phase.work.items() if k not in WORK_COUNTERS},
    }
    scheduling = {}
    if workload.has_children:
        # which worker served which release decides these (see docstring)
        for key in ("lp_solves_observed", "lp_iterations"):
            scheduling[key] = record.pop(key)
    return record, scheduling


def main(argv=None):
    args = parse_args(argv)
    if not (SOURCES / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro package under {SOURCES}; "
            "run from a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SOURCES))
    import measure
    from layers import PER_LAYER, layer_metrics
    from workloads import WORKLOADS

    imports_s = time.perf_counter() - _START
    workload = WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed, args.seconds)
    ops = inputs["ops"]

    setups = []
    setup_kernel_ms = machine_ms()
    for repeat in range(SETUP_REPEATS):
        if repeat:
            workload.teardown(state)
        gc.collect()
        start = time.perf_counter()
        state = workload.setup(inputs, args.seed)
        setups.append(time.perf_counter() - start)

    phase, _ = timed_phase(workload, state, ops, trace=False)
    calib_ms = measure.median(phase.kernel_ms)
    failures = phase.failures()
    problems = phase.problems
    attempted = len(phase.results)
    if args.trace:
        state = workload.setup(inputs, args.seed)
        traced, recorder = timed_phase(workload, state, ops, trace=True)
        failures += traced.failures()
        problems += traced.problems
        attempted += len(traced.results)
        (HERE / "out").mkdir(exist_ok=True)
        spans_path = HERE / "out" / f"spans-{args.workload}-{args.seed}.jsonl"
        recorder.write(spans_path)

    releases = phase.release_seconds()
    setup_s = imports_s + measure.median(setups)
    setup_speed = 2 * REFERENCE_KERNEL_MS / (setup_kernel_ms + phase.kernel_ms[0])
    record, scheduling = exact_work(workload, phase)
    print(
        f"workload {args.workload} seed {args.seed} ops {len(ops)} "
        f"releases {len(releases)} "
        f"updates {record['updates']} wall {phase.wall:.3f}s "
        f"imports {imports_s:.3f}s "
        f"setups {' '.join(f'{s:.3f}' for s in setups)}s "
        f"kernel {calib_ms:.2f}ms"
    )
    raw = phase.release_seconds(scaled=False)
    print(
        f"unscaled release_p50_ms {1e3 * measure.median(raw):.4f} "
        f"release_p90_ms {1e3 * measure.percentile(raw, 0.9):.4f} "
        f"releases_per_s {phase.releases_per_s(scaled=False):.4f} "
        f"setup_s {setup_s:.4f}"
    )
    print("work " + json.dumps(record, sort_keys=True))
    if scheduling:
        print("scheduling-dependent " + json.dumps(scheduling, sort_keys=True))
    print(f"answers sha256 {phase.digest()}")
    for index, failure in failures[:10]:
        print(f"FAILED op {index}: {failure}")
    for problem in problems[:10]:
        print(f"CHECK FAILED: {problem}")

    if args.trace:
        print(f"spans {len(recorder.spans)} written to {spans_path}")
        values = layer_metrics(recorder, traced, phase, calib_ms)
        units = dict(PER_LAYER)
    else:
        values = {
            "release_p50_ms": 1e3 * measure.median(releases),
            "release_p90_ms": 1e3 * measure.percentile(releases, 0.9),
            "releases_per_s": phase.releases_per_s(),
            "setup_s": setup_s * setup_speed,
            "peak_rss_mb": phase.peak_rss_mb,
        }
        units = dict(END_TO_END)
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
