"""Fork-after-compile worker pools.

The expensive part of every mechanism evaluation is the one-time
compilation of an :class:`~repro.relax.encode.EncodedRelation` into a
:class:`~repro.lp.compiled.CompiledProgram` (CSR blocks, bounds, G rows).
Forking worker processes *after* that compilation lets every worker
inherit the base arrays through copy-on-write for free, so the marginal
cost of answering one more release or trial on an idle core is just
that work itself.  That is the same amortize-preprocessing-across-many-
evaluations principle that drives compiled query answering under updates.

Two things do **not** survive the fork:

* persistent solver models (any :class:`~repro.lp.backends.PersistentModel`
  — HiGHS or a third-party backend's) hold native solver state
  that must not be mutated concurrently from several processes sharing
  copy-on-write pages of bookkeeping — each worker lazily re-instantiates
  its own models from the (shared) arrays via the backend's
  ``build_persistent`` hook;
* in-flight NumPy generators — parallel trial running therefore derives
  one :class:`numpy.random.SeedSequence` child per task up front
  (:func:`repro.rng.spawn_seed_sequences`), which keeps released answers
  byte-identical between serial and parallel execution at a fixed seed.

The first point is enforced through a process-wide registry: objects with
per-process solver state call :func:`register_fork_reset` at construction
time, and every worker runs :func:`run_fork_resets` immediately after the
fork, before touching any task.

Platforms without the ``fork`` start method (Windows, some embedded
interpreters) and ``workers=1`` runs take a clean in-process fallback:
the same task functions run sequentially in the parent, with identical
results.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import weakref
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..obs import metrics as obs_metrics
from ..obs import tracer as obs_tracer

__all__ = [
    "fork_available",
    "resolve_workers",
    "register_fork_reset",
    "run_fork_resets",
    "map_tasks",
    "WorkerPool",
]

#: Environment variable consulted when ``workers`` is not given explicitly.
WORKERS_ENV = "REPRO_WORKERS"

#: Objects whose per-process solver state must be dropped in forked
#: children (weak references — registration must not leak programs).
_FORK_RESETTABLE: "weakref.WeakSet" = weakref.WeakSet()

#: Payloads of live pools, inherited by forked workers through fork
#: (never pickled); keyed so concurrent pools do not clash.
_PAYLOADS: Dict[int, Tuple[Callable, object]] = {}
_PAYLOAD_KEYS = itertools.count(1)

#: Set in each worker by the pool initializer: the key of the payload
#: this worker serves.
_ACTIVE_KEY: Optional[int] = None


def fork_available() -> bool:
    """Whether copy-on-write worker pools can be used on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def _available_cpus() -> int:
    """CPUs actually schedulable for this process (cgroup/affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def resolve_workers(workers: Optional[int] = None) -> int:
    """Resolve a worker count: argument > ``$REPRO_WORKERS`` > CPU count.

    An explicit argument (or ``$REPRO_WORKERS`` value) must be an integer
    ``>= 1`` — anything else raises :class:`ValueError` with the uniform
    :func:`repro.validation.validate_workers` message.  Returns 1 when the
    platform cannot fork (the in-process fallback), so callers can branch
    on ``workers > 1``.
    """
    from ..validation import validate_workers

    workers = validate_workers(workers)
    if workers is None:
        env = os.environ.get(WORKERS_ENV)
        if env is not None and env.strip():
            try:
                workers = int(env)
            except ValueError:
                raise ValueError(
                    f"${WORKERS_ENV} must be an integer, got {env!r}"
                ) from None
            workers = validate_workers(workers, name=f"${WORKERS_ENV}")
        else:
            workers = _available_cpus()
    if workers > 1 and not fork_available():
        return 1  # no fork start method: the in-process fallback
    if workers > 1 and multiprocessing.current_process().daemon:
        # Pool workers are daemonic and may not fork children of their
        # own (e.g. a task that asks for a pool of its own inside a
        # ParallelHarness shard or a session worker) — demote to the
        # in-process fallback instead of crashing on "daemonic processes
        # are not allowed to have children".
        return 1
    return workers


def register_fork_reset(obj) -> None:
    """Register ``obj.fork_reset()`` to run in every forked worker.

    ``obj`` is held weakly; objects with per-process solver state (for
    example :class:`~repro.lp.compiled.CompiledProgram`) register
    themselves at construction time.
    """
    _FORK_RESETTABLE.add(obj)


def run_fork_resets() -> None:
    """Drop per-process solver state after a fork (child side)."""
    for obj in list(_FORK_RESETTABLE):
        obj.fork_reset()


def _worker_init(key: int) -> None:
    """Pool initializer: runs in each worker right after the fork."""
    global _ACTIVE_KEY
    _ACTIVE_KEY = key
    run_fork_resets()
    # Telemetry state inherited through the fork belongs to the parent:
    # re-baseline the metrics registry (so this worker only ever ships
    # increments it caused) and switch the tracer to buffer mode (the
    # parent's sink stream must not be written from two processes).
    obs_metrics().rebaseline()
    obs_tracer().worker_mode()


class _ObsTask:
    """A task wrapped with the submitter's span context."""

    def __init__(self, context, task):
        self.context = context
        self.task = task


class _ObsEnvelope:
    """A worker result plus the telemetry it produced.

    Crosses the result pipe in place of the bare result; the pool
    unwraps it parent-side (merging metrics deltas and buffered spans
    into the parent's registry/tracer) before any caller sees it.
    """

    def __init__(self, result, metrics_delta, spans):
        self.result = result
        self.metrics_delta = metrics_delta
        self.spans = spans


def _wrap_task(task):
    """Attach the current span context (when tracing is active)."""
    context = obs_tracer().current_context()
    return task if context is None else _ObsTask(context, task)


def _absorb(envelope):
    """Merge one envelope's telemetry; returns the bare result."""
    obs_metrics().merge(envelope.metrics_delta)
    if envelope.spans:
        obs_tracer().absorb(envelope.spans)
    return envelope.result


def _invoke(task):
    """Run one task against the worker's inherited payload: activate the
    submitter's span context, run, and pack the telemetry it produced."""
    fn, payload = _PAYLOADS[_ACTIVE_KEY]
    tracing = obs_tracer()
    if isinstance(task, _ObsTask):
        token = tracing.activate(task.context)
        try:
            result = fn(payload, task.task)
        finally:
            tracing.deactivate(token)
    else:
        result = fn(payload, task)
    return _ObsEnvelope(result, obs_metrics().drain_delta(), tracing.drain_buffered())


class _PoolResult:
    """Handle to one submitted task (``ready()`` / ``get(timeout)``).

    Wraps the pool's ``AsyncResult`` so ``get()`` hands back the bare
    worker result: the telemetry envelope was already merged by the
    completion callback, which runs before the result becomes ready.
    """

    __slots__ = ("_async",)

    def __init__(self, async_result):
        self._async = async_result

    def ready(self) -> bool:
        return self._async.ready()

    def get(self, timeout: Optional[float] = None):
        value = self._async.get(timeout)
        return value.result if isinstance(value, _ObsEnvelope) else value


class WorkerPool:
    """A pool of processes forked after the payload was built.

    Parameters
    ----------
    workers:
        Number of worker processes (must be ≥ 2; use :func:`map_tasks`
        for the transparent serial fallback).
    fn:
        ``fn(payload, task) -> result``.  Inherited by the workers via
        fork, so closures over unpicklable state (compiled programs,
        persistent solver handles, mechanism objects) are fine; only
        tasks and results cross process boundaries and must pickle.
    payload:
        Arbitrary object handed to every ``fn`` call, inherited
        copy-on-write — fork happens at construction time, so build (and
        warm) the payload *before* creating the pool.
    """

    def __init__(self, workers: int, fn: Callable, payload=None):
        if workers < 2:
            raise ValueError(f"WorkerPool needs >= 2 workers, got {workers}")
        if not fork_available():
            raise RuntimeError("WorkerPool requires the 'fork' start method")
        self._key = next(_PAYLOAD_KEYS)
        _PAYLOADS[self._key] = (fn, payload)
        #: Weak refs to every AsyncResult handed out by :meth:`submit`
        #: that may still be in flight — close() fails them instead of
        #: letting an abandoned ``.get()`` block forever.
        self._pending: List["weakref.ref"] = []
        context = multiprocessing.get_context("fork")
        self._pool = context.Pool(
            processes=workers,
            initializer=_worker_init,
            initargs=(
                self._key,
            ),
        )

    def map(self, tasks: Sequence) -> List:
        """Run every task; results come back in task order."""
        tasks = [_wrap_task(task) for task in tasks]
        obs_metrics().counter("repro_pool_tasks_total", mode="fork").inc(len(tasks))
        return [_absorb(envelope) for envelope in self._pool.map(_invoke, tasks)]

    def submit(
        self,
        task,
        callback: Optional[Callable] = None,
        error_callback: Optional[Callable] = None,
    ):
        """Schedule one task asynchronously; returns a result handle.

        The session layer's future-based fan-out: the returned handle's
        ``get()`` blocks for (and re-raises errors from) the worker-side
        run; ``ready()`` polls it.  ``callback`` / ``error_callback``
        fire on the pool's result-handler thread when the task completes
        — ``callback`` receives the bare result (the telemetry envelope
        is unwrapped and merged first).
        """
        if self._pool is None:
            raise RuntimeError("WorkerPool is closed")
        registry = obs_metrics()
        registry.counter("repro_pool_tasks_total", mode="fork").inc()
        inflight_gauge = registry.gauge("repro_pool_inflight")
        inflight_gauge.inc()

        def _on_envelope(envelope) -> None:
            inflight_gauge.dec()
            value = _absorb(envelope)
            if callback is not None:
                callback(value)

        def _on_failure(error: BaseException) -> None:
            inflight_gauge.dec()
            if error_callback is not None:
                error_callback(error)

        result = self._pool.apply_async(
            _invoke,
            (
                _wrap_task(task),
            ),
            callback=_on_envelope,
            error_callback=_on_failure,
        )
        still_pending = []
        for ref in self._pending:
            existing = ref()  # bind once: the target may be GC'd anytime
            if existing is not None and not existing.ready():
                still_pending.append(ref)
        still_pending.append(weakref.ref(result))
        self._pending = still_pending
        return _PoolResult(result)

    def inflight(self) -> int:
        """Number of submitted tasks whose results are not yet ready.

        Only counts results something still holds a reference to — an
        abandoned (garbage-collected) result cannot be waited on, so it
        does not block callers that need a drained pool (e.g.
        ``PrivateSession.apply_update``).
        """
        count = 0
        for ref in self._pending:
            result = ref()
            if result is not None and not result.ready():
                count += 1
        return count

    def close(self) -> None:
        """Terminate the workers and release the payload slot.

        Safe to call with submissions still in flight: the pool is
        terminated without waiting for them, and every unconsumed
        ``AsyncResult`` is failed with a
        :class:`~repro.errors.WorkerPoolError` — an abandoned
        ``result.get()`` raises promptly instead of deadlocking on a
        result that can no longer arrive.
        """
        if self._pool is not None:
            pool, self._pool = self._pool, None
            pool.terminate()
            pool.join()
            self._fail_pending()
        _PAYLOADS.pop(self._key, None)

    def _fail_pending(self) -> None:
        """Resolve abandoned in-flight submissions with a clear error."""
        from ..errors import WorkerPoolError

        error = WorkerPoolError(
            "worker pool was shut down before this task completed; "
            "its result was abandoned"
        )
        for ref in self._pending:
            result = ref()
            if result is None or result.ready():
                continue
            try:
                # AsyncResult._set is the only way to resolve a result the
                # terminated pool will never deliver; it marks the result
                # ready and fires the error callback (stable across
                # CPython 3.8-3.13).
                result._set(0, (False, error))
            except Exception:  # pragma: no cover - belt and braces
                pass
        self._pending = []

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def map_tasks(
    fn: Callable,
    tasks: Sequence,
    payload=None,
    workers: Optional[int] = None,
) -> List:
    """``[fn(payload, task) for task in tasks]``, fanned across workers.

    The single entry point used by the batch APIs: resolves ``workers``
    (argument > env > CPU count) and falls back to a sequential
    in-process loop when only one worker is available (or useful).
    Otherwise a :class:`WorkerPool` forks *after* ``payload`` exists so
    workers inherit it copy-on-write.  Results are in task order and
    identical in both execution modes.
    """
    tasks = list(tasks)
    workers = min(resolve_workers(workers), len(tasks))
    if workers <= 1:
        return [fn(payload, task) for task in tasks]
    with WorkerPool(workers, fn, payload) as pool:
        return pool.map(tasks)
