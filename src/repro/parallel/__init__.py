"""Process-pool execution layer: compile once, fork, evaluate many.

Two tiers of parallelism build on the same principle — pay the
expensive one-time compilation once and let every worker inherit the
compiled arrays, re-instantiating per-process solver state (persistent
HiGHS models) lazily in each worker:

1. batch overlay solves
   (:meth:`~repro.lp.compiled.CompiledProgram.solve_many`);
2. experiment sharding
   (:class:`~repro.experiments.harness.ParallelHarness`).

The Δ search is not among them: it is one sequential walk on a single
G model seeded at a closed-form vertex
(:meth:`~repro.lp.compiled.CompiledProgram.solve_g_decide`).

One sharing scheme implements it: :class:`~repro.parallel.pool.WorkerPool`
forks workers after the arrays exist, so they inherit them copy-on-write.

``workers=1``, or a platform without the ``fork`` start method, takes an
in-process fallback with byte-identical results; the worker count
resolves as argument > ``$REPRO_WORKERS`` > ``os.cpu_count()``.
"""

from .pool import (
    WorkerPool,
    fork_available,
    map_tasks,
    register_fork_reset,
    resolve_workers,
    run_fork_resets,
)

__all__ = [
    "WorkerPool",
    "fork_available",
    "map_tasks",
    "register_fork_reset",
    "resolve_workers",
    "run_fork_resets",
]
