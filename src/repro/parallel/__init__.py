"""Process-pool execution layer: shared compiled state, two ways.

Two tiers of parallelism build on the same principle — pay the
expensive one-time compilation once and share the compiled arrays with
every worker, re-instantiating per-process solver state (persistent
HiGHS models) lazily in each worker:

1. batch overlay solves
   (:meth:`~repro.lp.compiled.CompiledProgram.solve_many`);
2. experiment sharding
   (:class:`~repro.experiments.harness.ParallelHarness`).

The Δ search is not among them: it is one sequential walk on a single
warm G model (:meth:`~repro.lp.compiled.CompiledProgram.solve_g_decide`).

Two sharing schemes implement it.  *Fork-after-compile*
(:class:`~repro.parallel.pool.WorkerPool`) forks workers after the
arrays exist so they inherit them copy-on-write — free, but the fork
must happen after compilation in the compiling process.  *Shared-memory
attach* (:mod:`repro.parallel.shm` + :class:`~repro.parallel.pool
.SpawnWorkerPool`) exports the arrays into named refcounted segments
that **any** process attaches read-only by name — no ordering
constraint, same physical pages.  ``$REPRO_START_METHOD`` selects the
scheme (default: fork where available).

``workers=1`` (or a platform with no start method at all) takes an
in-process fallback with byte-identical results; the worker count
resolves as argument > ``$REPRO_WORKERS`` > ``os.cpu_count()``.
"""

from .pool import (
    SpawnWorkerPool,
    WorkerPool,
    fork_available,
    map_tasks,
    register_fork_reset,
    resolve_start_method,
    resolve_workers,
    run_fork_resets,
    spawn_available,
)
from .shm import (
    SegmentRegistry,
    attach_array,
    export_array,
    registry,
    release_spec,
    shm_available,
)

__all__ = [
    "WorkerPool",
    "SpawnWorkerPool",
    "fork_available",
    "spawn_available",
    "map_tasks",
    "register_fork_reset",
    "resolve_start_method",
    "resolve_workers",
    "run_fork_resets",
    "SegmentRegistry",
    "registry",
    "export_array",
    "attach_array",
    "release_spec",
    "shm_available",
]
