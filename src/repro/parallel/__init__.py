"""Process-pool execution layer: compile once, fork, evaluate many.

There is one level of parallelism: whole releases or whole trials fan
out, and every mechanism solves its own LPs in-process.  Two users build
on the same principle — pay the expensive one-time compilation once and
let every worker inherit the compiled arrays, re-instantiating
per-process solver state (persistent HiGHS models) lazily in each
worker:

1. session fan-out (:meth:`~repro.session.PrivateSession.submit`);
2. experiment sharding: trial repetitions
   (:func:`~repro.experiments.harness.run_mechanism_trials`) and sweep
   grid points, each task seeded by its own spawned sequence.

One sharing scheme implements it: :class:`~repro.parallel.pool.WorkerPool`
forks workers after the arrays exist, so they inherit them copy-on-write.
Each worker serves one duplex pipe; one reader thread in the parent
collects every result, and a worker that dies fails its task with
:class:`~repro.errors.WorkerPoolError` and is replaced by a fresh fork.

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
