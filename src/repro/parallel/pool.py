"""Fork-after-compile worker pools.

The expensive part of every mechanism evaluation is the one-time
compilation of an :class:`~repro.relax.encode.EncodedRelation` into a
:class:`~repro.lp.compiled.CompiledProgram` (sparse blocks, objective, G rows).
Forking worker processes *after* that compilation lets every worker
inherit the base arrays through copy-on-write for free, so the marginal
cost of answering one more release or trial on an idle core is just
that work itself.  That is the same amortize-preprocessing-across-many-
evaluations principle that drives compiled query answering under updates.

Two things do **not** survive the fork:

* persistent solver models (the HiGHS models of
  :class:`~repro.lp.highs_engine.PersistentLP`) hold native solver state
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

:class:`WorkerPool` runs N forked workers, each on one duplex
:func:`multiprocessing.Pipe`.  ``submit`` pickles a task in the caller's
thread and writes it to an idle worker, or queues it in FIFO order; one
reader thread waits on every pipe with
:func:`multiprocessing.connection.wait`, resolves each result (merging
the telemetry the worker shipped with it) and hands that worker its next
queued task.  A worker that dies shows EOF on its pipe: its task fails
with :class:`~repro.errors.WorkerPoolError` and a replacement is forked.

Platforms without the ``fork`` start method (Windows, some embedded
interpreters) and ``workers=1`` runs take a clean in-process fallback:
the same task functions run sequentially in the parent, with identical
results.
"""

from __future__ import annotations

import atexit
import collections
import multiprocessing
import os
import threading
import traceback
import weakref
from multiprocessing.connection import wait
from multiprocessing.pool import ExceptionWithTraceback
from multiprocessing.reduction import ForkingPickler
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..errors import WorkerPoolError
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

#: Pools not yet closed, closed at interpreter exit.
_LIVE_POOLS: "weakref.WeakSet" = weakref.WeakSet()


def _close_live_pools() -> None:
    for pool in list(_LIVE_POOLS):
        pool.close()


# Registered after multiprocessing's own exit hook (``multiprocessing.util``
# registers it, and ``multiprocessing.connection`` imported it above), so
# this runs first: pools close before that hook terminates their daemonic
# workers, whose EOFs a live reader would answer by forking replacements.
atexit.register(_close_live_pools)


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

    count = validate_workers(workers)
    if count is None:
        env = os.environ.get(WORKERS_ENV)
        if env is not None and env.strip():
            try:
                count = int(env)
            except ValueError:
                raise ValueError(
                    f"${WORKERS_ENV} must be an integer, got {env!r}"
                ) from None
            count = validate_workers(count, name=f"${WORKERS_ENV}")
        else:
            count = _available_cpus()
    if count > 1 and not fork_available():
        return 1  # no fork start method: the in-process fallback
    if count > 1 and multiprocessing.current_process().daemon:
        # Pool workers are daemonic and may not fork children of their
        # own (e.g. a task that asks for a pool of its own inside an
        # experiment shard or a session worker) — demote to the
        # in-process fallback instead of crashing on "daemonic processes
        # are not allowed to have children".
        return 1
    return count


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


def _worker_init() -> None:
    """Runs in each worker right after the fork, before any task."""
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


def _invoke(fn, payload, task):
    """Run one task against the worker's inherited payload: activate the
    submitter's span context, run, and pack the telemetry it produced."""
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

    ``get()`` hands back the bare worker result.  By the time the handle
    turns ready the telemetry envelope is merged and the task's callback
    has run, so a caller woken by ``get()`` sees the callback's effects.
    """

    __slots__ = ("_done", "_outcome", "__weakref__")

    def __init__(self):
        self._done = threading.Event()
        self._outcome: Tuple[bool, object] = (False, None)

    def ready(self) -> bool:
        return self._done.is_set()

    def get(self, timeout: Optional[float] = None):
        """The task's result; re-raises its error, and raises
        :class:`multiprocessing.TimeoutError` after ``timeout`` seconds."""
        if not self._done.wait(timeout):
            raise multiprocessing.TimeoutError
        ok, value = self._outcome
        if ok:
            return value
        raise value


class _Job:
    """The pool's side of one task: callbacks, in-flight gauge and a weak
    reference to the caller's handle (an abandoned handle is not waited
    on by :meth:`WorkerPool.inflight`)."""

    __slots__ = ("handle", "callback", "error_callback", "gauge")

    def __init__(self, handle, callback, error_callback, gauge):
        self.handle = weakref.ref(handle)
        self.callback = callback
        self.error_callback = error_callback
        self.gauge = gauge


def _finish(job: _Job, ok: bool, value) -> None:
    """Resolve one task: merge its telemetry, run its callback, then mark
    its handle ready."""
    job.gauge.dec()
    if ok:
        value = _absorb(value)
    callback = job.callback if ok else job.error_callback
    if callback is not None:
        try:
            callback(value)
        except Exception:  # a failing callback must not stop the reader
            traceback.print_exc()
    handle = job.handle()
    if handle is not None:
        handle._outcome = (ok, value)
        handle._done.set()


def _abandoned() -> BaseException:
    return WorkerPoolError(
        "worker pool was shut down before this task completed; "
        "its result was abandoned"
    )


def _worker_main(fn, payload, conn, inherited) -> None:
    """Worker process body: run tasks from ``conn`` until its EOF.

    ``fn`` and ``payload`` reach the child through the fork, never
    pickled.  ``inherited`` are the parent-side pipe ends the child got
    through the fork; closing them lets each worker see EOF once the
    parent's copy of its pipe is gone.
    """
    for other in inherited:
        other.close()
    _worker_init()
    while True:
        try:
            data = conn.recv_bytes()
        except EOFError:
            return
        try:
            reply = (True, _invoke(fn, payload, ForkingPickler.loads(data)))
        except Exception as error:
            reply = (False, ExceptionWithTraceback(error, error.__traceback__))
        try:
            conn.send(reply)
        except Exception as error:  # the result (or error) does not pickle
            conn.send(
                (False, WorkerPoolError(f"task result could not be pickled: {error!r}"))
            )


class _Worker:
    """One forked worker, the parent end of its pipe, and its task."""

    __slots__ = ("process", "conn", "job")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.job: Optional[_Job] = None


class WorkerPool:
    """A pool of processes forked after the payload was built.

    Each worker serves one duplex pipe.  :meth:`submit` pickles the task
    in the caller's thread and writes it to an idle worker, or queues it
    in FIFO order.  One reader thread waits on every worker's pipe,
    resolves each result and hands that worker its next queued task.  A
    worker that dies shows EOF on its pipe: its task fails with
    :class:`~repro.errors.WorkerPoolError` and a replacement is forked.

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
        self._fn = fn
        self._payload = payload
        self._lock = threading.Lock()
        self._closed = False
        #: Pickled tasks waiting for a worker, oldest first.
        self._queue: Deque[Tuple[bytes, _Job]] = collections.deque()
        self._idle: List[_Worker] = []
        #: Every live worker, by the parent end of its pipe.
        self._workers: Dict[object, _Worker] = {}
        #: close() writes here to wake the reader out of its wait.
        self._wake, self._waker = multiprocessing.Pipe(duplex=False)
        for _ in range(workers):
            self._idle.append(self._fork())
        self._reader = threading.Thread(
            target=self._read, name="repro-pool-reader", daemon=True
        )
        self._reader.start()
        _LIVE_POOLS.add(self)

    def _fork(self) -> _Worker:
        """Fork one worker on a fresh duplex pipe."""
        conn, child = multiprocessing.Pipe()
        inherited = [conn, self._wake, self._waker, *self._workers]
        process = multiprocessing.get_context("fork").Process(
            target=_worker_main,
            args=(self._fn, self._payload, child, inherited),
            daemon=True,
        )
        process.start()
        child.close()
        worker = _Worker(process, conn)
        self._workers[conn] = worker
        return worker

    @staticmethod
    def _send(worker: _Worker, data, job: _Job) -> None:
        """Hand ``worker`` one pickled task (under the lock)."""
        worker.job = job
        try:
            worker.conn.send_bytes(data)
        except OSError:
            pass  # the worker died: the reader fails the job at its EOF

    def _next_task(self, worker: _Worker) -> None:
        """Hand a free ``worker`` the oldest queued task, or mark it idle
        (under the lock)."""
        if self._queue:
            self._send(worker, *self._queue.popleft())
        else:
            self._idle.append(worker)

    def _read(self) -> None:
        """Reader thread: resolve each result as its pipe turns readable."""
        while True:
            with self._lock:
                if self._closed:
                    return
                conns = [self._wake, *self._workers]
            for conn in wait(conns):
                # close() may have run while this thread waited (or in a
                # callback): the pool's state is then no longer ours
                with self._lock:
                    if self._closed:
                        return
                self._collect(self._workers[conn])

    def _collect(self, worker: _Worker) -> None:
        """Resolve ``worker``'s task from its pipe and give it the next."""
        try:
            ok, value = worker.conn.recv()
        except (EOFError, OSError):
            self._replace(worker)
            return
        except Exception as error:  # a reply that does not unpickle
            ok, value = False, error
        with self._lock:
            if self._closed:
                return  # close() fails the job
            job, worker.job = worker.job, None
            self._next_task(worker)
        _finish(job, ok, value)

    def _replace(self, worker: _Worker) -> None:
        """Fail a dead worker's task and fork its replacement."""
        process = worker.process
        process.terminate()  # a no-op unless it closed its pipe and lives
        process.join()
        with self._lock:
            if self._closed:
                return
            job, worker.job = worker.job, None
            del self._workers[worker.conn]
            if worker in self._idle:
                self._idle.remove(worker)
            worker.conn.close()
            self._next_task(self._fork())
        if job is not None:
            _finish(
                job,
                False,
                WorkerPoolError(
                    f"worker process {process.pid} died (exit code "
                    f"{process.exitcode}) while running this task"
                ),
            )

    def map(self, tasks: Sequence) -> List:
        """Run every task; results come back in task order."""
        handles = [self.submit(task) for task in tasks]
        return [handle.get() for handle in handles]

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
        fire on the pool's reader thread when the task completes —
        ``callback`` receives the bare result (the telemetry envelope is
        unwrapped and merged first).  A task that does not pickle fails
        its handle (``error_callback`` fires before ``submit`` returns);
        a task whose worker dies fails with
        :class:`~repro.errors.WorkerPoolError`.
        """
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        registry = obs_metrics()
        registry.counter("repro_pool_tasks_total", mode="fork").inc()
        gauge = registry.gauge("repro_pool_inflight")
        gauge.inc()
        handle = _PoolResult()
        job = _Job(handle, callback, error_callback, gauge)
        try:
            data = ForkingPickler.dumps(_wrap_task(task))
        except Exception as error:  # the task cannot cross to a worker
            _finish(job, False, error)
            return handle
        with self._lock:
            if not self._closed:
                if self._idle:
                    self._send(self._idle.pop(), data, job)
                else:
                    self._queue.append((data, job))
                return handle
        _finish(job, False, _abandoned())  # close() ran since the check above
        return handle

    def _unfinished(self) -> List[_Job]:
        """Every task sent to a worker or queued (under the lock)."""
        jobs = [worker.job for worker in self._workers.values() if worker.job]
        jobs.extend(job for _, job in self._queue)
        return jobs

    def inflight(self) -> int:
        """Number of submitted tasks whose results are not yet ready.

        Only counts results something still holds a reference to — an
        abandoned (garbage-collected) result cannot be waited on, so it
        does not block callers that need a drained pool (e.g.
        ``PrivateSession.apply_update``).
        """
        with self._lock:
            jobs = self._unfinished()
        return sum(job.handle() is not None for job in jobs)

    def close(self) -> None:
        """Terminate the workers and release the payload.

        Safe to call with submissions still in flight: the workers are
        terminated without waiting for them, and every unfinished task
        fails with a :class:`~repro.errors.WorkerPoolError` (its
        ``error_callback`` fires) — an abandoned ``result.get()`` raises
        promptly instead of deadlocking on a result that can no longer
        arrive.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            jobs = self._unfinished()
            self._queue.clear()
            self._waker.send_bytes(b"")
        if threading.current_thread() is not self._reader:
            self._reader.join()
        for worker in self._workers.values():
            worker.process.terminate()
        for worker in self._workers.values():
            worker.process.join()
            worker.conn.close()
        self._wake.close()
        self._waker.close()
        self._payload = None
        _LIVE_POOLS.discard(self)
        for job in jobs:
            _finish(job, False, _abandoned())

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
