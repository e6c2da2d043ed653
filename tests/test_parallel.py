"""The process-pool execution layer: fork-after-compile workers.

Pins the three guarantees of ``repro.parallel``:

* **determinism** — released answers are byte-identical between serial
  (``workers=1``) and parallel (``workers=k``) execution at a fixed seed,
  for trial sharding and sweep-grid sharding (a mechanism solves its
  LPs in-process for any worker count);
* **fork-safety** — persistent HiGHS models never cross the fork: each
  worker re-instantiates its own lazily, and using a parent's model from
  a child raises instead of corrupting shared solver state;
* **fallback** — ``workers=1`` (or no fork support) runs the identical
  scheme in-process.
"""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest
from lp_oracle import LP_BACKENDS

from repro.core.efficient import EfficientRecursiveMechanism
from repro.core.params import RecursiveMechanismParams
from repro.experiments.comparison import fig1_comparison_table
from repro.experiments.harness import Scale, run_mechanism_trials
from repro.experiments.mechanisms import make_runner
from repro.experiments.runtime import fig5_runtime_sweep
from repro.graphs import random_graph_with_avg_degree
from repro.parallel import fork_available, map_tasks, resolve_workers
from repro.rng import spawn_seed_sequences
from repro.subgraphs import subgraph_krelation, triangle

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform has no fork start method"
)


@pytest.fixture(scope="module")
def small_graph():
    return random_graph_with_avg_degree(26, 5.0, rng=3)


@pytest.fixture()
def mechanism(small_graph, lp_backend):
    """The edge-DP triangle mechanism, on HiGHS and on the linprog oracle."""
    relation = subgraph_krelation(small_graph, triangle(), privacy="edge")
    return EfficientRecursiveMechanism(relation, backend=lp_backend)


class TestResolveWorkers:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert resolve_workers(3) == 3

    def test_env_beats_cpu_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers(None) == 5

    def test_default_is_available_cpus(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        if hasattr(os, "sched_getaffinity"):
            expected = len(os.sched_getaffinity(0))
        else:
            expected = os.cpu_count() or 1
        assert resolve_workers(None) == max(1, expected)

    def test_non_positive_rejected(self):
        # uniform entry-point validation: workers must be >= 1 or None
        with pytest.raises(ValueError, match="positive integer"):
            resolve_workers(0)
        with pytest.raises(ValueError, match="positive integer"):
            resolve_workers(-4)

    def test_bad_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ValueError, match="positive integer"):
            resolve_workers(None)

    def test_bad_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_workers(None)

    @needs_fork
    def test_nested_parallelism_demotes_in_daemonic_workers(self):
        """Pool workers are daemonic and may not fork: a task that asks
        for a pool of its own resolves to the in-process fallback."""
        assert map_tasks(_resolved_workers, [2, 2], workers=2) == [1, 1]

    def test_forkless_platform_runs_in_process(self, monkeypatch):
        monkeypatch.setattr("repro.parallel.pool.fork_available", lambda: False)
        assert resolve_workers(4) == 1
        assert map_tasks(_double, [1, 2, 3], payload=10, workers=4) == [12, 14, 16]


class TestScaleSubsetEmpty:
    def test_empty_sweep_raises_with_scale_names(self):
        scale = Scale("t", 1.0, 1, 1, 1.0, 1.0, sweep_points=3)
        with pytest.raises(ValueError, match="empty sweep") as excinfo:
            scale.subset([])
        assert "smoke" in str(excinfo.value)


def _double(payload, task):
    return (payload or 0) + 2 * task


def _resolved_workers(payload, task):
    return resolve_workers(task)


def _boom(payload, task):
    raise ValueError(f"boom on {task}")


@needs_fork
class TestMapTasks:
    def test_order_and_payload(self):
        assert map_tasks(_double, [1, 2, 3, 4], payload=10, workers=2) == [
            12,
            14,
            16,
            18,
        ]

    def test_serial_fallback_identical(self):
        serial = map_tasks(_double, range(6), payload=1, workers=1)
        parallel = map_tasks(_double, range(6), payload=1, workers=3)
        assert serial == parallel

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError, match="boom"):
            map_tasks(_boom, [1, 2], workers=2)


def _sleep_task(payload, task):
    import time

    time.sleep(task)
    return task


@needs_fork
class TestWorkerPoolShutdown:
    def test_close_does_not_deadlock_on_abandoned_submit(self):
        """Regression: closing a pool with an unconsumed in-flight
        apply_async result must return promptly, and the abandoned future
        must raise instead of blocking forever."""
        import threading

        from repro.errors import WorkerPoolError
        from repro.parallel.pool import WorkerPool

        pool = WorkerPool(2, _sleep_task)
        abandoned = pool.submit(60.0)  # never consumed before close
        closer = threading.Thread(target=pool.close)
        closer.start()
        closer.join(timeout=30)
        assert not closer.is_alive(), "WorkerPool.close deadlocked"
        with pytest.raises(WorkerPoolError, match="shut down"):
            abandoned.get(timeout=5)

    def test_close_fires_error_callback_for_abandoned_submit(self):
        from repro.parallel.pool import WorkerPool

        failures = []
        pool = WorkerPool(2, _sleep_task)
        pool.submit(60.0, error_callback=failures.append)
        pool.close()
        assert len(failures) == 1

    def test_completed_results_survive_close(self):
        from repro.parallel.pool import WorkerPool

        pool = WorkerPool(2, _sleep_task)
        done = pool.submit(0.0)
        assert done.get(timeout=30) == 0.0
        pool.close()
        assert done.get(timeout=1) == 0.0  # still readable after close

    def test_submit_after_close_raises(self):
        from repro.parallel.pool import WorkerPool

        pool = WorkerPool(2, _sleep_task)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit(0.0)


    def test_close_stops_every_worker_and_the_reader(self):
        import multiprocessing
        import threading

        from repro.parallel.pool import WorkerPool

        children = set(multiprocessing.active_children())
        threads = set(threading.enumerate())
        pool = WorkerPool(2, _sleep_task)
        pool.submit(60.0)
        workers = set(multiprocessing.active_children()) - children
        readers = set(threading.enumerate()) - threads
        assert workers and readers
        pool.close()
        assert not workers & set(multiprocessing.active_children())
        assert not any(thread.is_alive() for thread in readers)


def _die_on(payload, task):
    if task == "die":
        os.kill(os.getpid(), signal.SIGKILL)
    return task


@needs_fork
class TestWorkerPoolDispatch:
    def test_concurrent_submitters_get_every_result_once(self):
        """Threads submitting at once (more workers than cores, frequent
        thread switches) each get their own result, every callback fires
        once, and the pool drains to zero in flight."""
        import sys
        import threading

        from repro.parallel.pool import WorkerPool

        per_thread, callbacks, results = 60, [], {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with WorkerPool(4, _double, payload=1) as pool:

                def submitter(base):
                    handles = [
                        (task, pool.submit(task, callback=callbacks.append))
                        for task in range(base, base + per_thread)
                    ]
                    for task, handle in handles:
                        results[task] = handle.get(timeout=60)

                threads = [
                    threading.Thread(target=submitter, args=(k * per_thread,))
                    for k in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
                assert pool.inflight() == 0
        finally:
            sys.setswitchinterval(interval)
        expected = {task: 1 + 2 * task for task in range(4 * per_thread)}
        assert results == expected
        assert sorted(callbacks) == sorted(expected.values())

    def test_dead_worker_fails_its_task_and_is_replaced(self):
        from repro.errors import WorkerPoolError
        from repro.parallel.pool import WorkerPool

        failures = []
        with WorkerPool(2, _die_on) as pool:
            # more deaths than workers: only replacements keep it serving
            for _ in range(3):
                doomed = pool.submit("die", error_callback=failures.append)
                with pytest.raises(WorkerPoolError, match="died"):
                    doomed.get(timeout=30)
            assert len(failures) == 3
            assert pool.inflight() == 0
            assert pool.submit(7).get(timeout=30) == 7
            assert pool.map(range(6)) == list(range(6))


class TestSpawnSeedSequences:
    def test_deterministic_from_int(self):
        a = [s.generate_state(2).tolist() for s in spawn_seed_sequences(11, 4)]
        b = [s.generate_state(2).tolist() for s in spawn_seed_sequences(11, 4)]
        assert a == b

    def test_generator_input_is_deterministic(self):
        a = spawn_seed_sequences(np.random.default_rng(5), 3)
        b = spawn_seed_sequences(np.random.default_rng(5), 3)
        assert [s.generate_state(1)[0] for s in a] == [
            s.generate_state(1)[0] for s in b
        ]


@needs_fork
class TestDeterminism:
    """Serial vs parallel released answers are byte-identical."""

    def test_trials_byte_identical(self, small_graph):
        """Forked trials equal in-process ones, and every experiment entry
        point called without ``workers`` returns what ``workers=2`` does."""
        run_once, truth = make_runner("recursive-edge", small_graph, "triangle", 1.0)
        errors = [
            run_mechanism_trials(run_once, truth, 5, rng=123, workers=workers)
            for workers in (1, 2, 4)
        ]
        assert errors == [run_mechanism_trials(run_once, truth, 5, rng=123)] * 3

        tiny = Scale("tiny", 0.08, 3, 1, 0.05, 0.02, sweep_points=2)
        fig1 = [
            [
                row["median_relative_error"]
                for row in fig1_comparison_table(
                    queries=("triangle",), scale=tiny, rng=5, **workers
                )
            ]
            for workers in ({}, {"workers": 2})
        ]
        assert fig1[0] == fig1[1]

        stable = ("nodes", "tuples", "lp_size", "true_answer", "answer")
        fig5 = [
            [
                {key: row[key] for key in stable}
                for row in fig5_runtime_sweep(
                    queries=("2-star",),
                    privacies=("node",),
                    scale=tiny,
                    rng=5,
                    **workers,
                )["2-star/node"]
            ]
            for workers in ({}, {"workers": 2})
        ]
        assert fig5[0] == fig5[1]

    def test_fig5_grid_sharding_identical(self):
        tiny = Scale("tiny", 0.08, 1, 1, 0.05, 0.02, sweep_points=2)
        serial = fig5_runtime_sweep(scale=tiny, rng=5, workers=1)
        parallel = fig5_runtime_sweep(scale=tiny, rng=5, workers=2)
        assert list(serial) == list(parallel)
        stable = ("nodes", "tuples", "lp_size", "true_answer", "answer")
        for combo, rows in serial.items():
            for row, other in zip(rows, parallel[combo]):
                assert {k: row[k] for k in stable} == {
                    k: other[k] for k in stable
                }, combo


def _probe_worker_models(program, index):
    """Worker-side: report whether the parent's H model survived the fork."""
    inherited_model = program._h_model is not None
    solution = program.solve_h(index)
    return os.getpid(), inherited_model, float(solution.objective)


@needs_fork
class TestForkSafety:
    def test_workers_reinstantiate_models(self, mechanism):
        program = mechanism._encoded._compiled
        assert program is not None
        index = program.num_participants / 2.0
        expected = float(program.solve_h(index).objective)
        results = map_tasks(
            _probe_worker_models, [index, index, index], payload=program, workers=2
        )
        assert all(pid != os.getpid() for pid, _, _ in results)
        # every worker's first task found the persistent models dropped
        first_by_pid = {}
        for pid, inherited_model, _ in results:
            first_by_pid.setdefault(pid, inherited_model)
        assert set(first_by_pid.values()) == {False}
        assert all(value == expected for _, _, value in results)
        # the parent's model is untouched and still usable
        assert float(program.solve_h(index).objective) == expected

    def test_persistent_lp_cross_fork_guard(self, mechanism):
        from repro.errors import LPError

        program = mechanism._encoded._compiled
        program.solve_h(program.num_participants / 2.0)
        model = program._h_model
        assert model is not None
        model._owner_pid = os.getpid() + 1  # simulate a forked child
        try:
            with pytest.raises(LPError, match="fork"):
                model.solve()
        finally:
            model._owner_pid = os.getpid()

    def test_fork_reset_drops_models(self, mechanism):
        program = mechanism._encoded._compiled
        program.solve_h(program.num_participants / 2.0)
        program.solve_x(0.5)
        program.fork_reset()
        assert program._h_model is None
        assert program._g_model is None
        assert program._x_model is None
        assert program._x_basis is None


class TestSolveManyAndRace:
    """Batched H solves and the in-process Δ walk agree with cold solves."""

    def test_solve_many_matches_pointwise(self, mechanism):
        program = mechanism._encoded._compiled
        n = program.num_participants
        indices = [n / 2.0, n / 3.0, 2 * n / 3.0]
        batched = program.solve_many(indices)
        pointwise = [program.solve_h(i) for i in indices]
        assert [s.objective for s in batched] == [s.objective for s in pointwise]

    def test_in_process_release_never_forks(self, small_graph, monkeypatch):
        """A mechanism solves in-process whatever the session's worker
        count: neither a query() release nor a batch of cold H entries
        outside an X step may start a pool."""
        from repro import PrivateSession
        from repro.parallel import pool

        def refuse(*args, **kwargs):
            raise AssertionError("a mechanism solve started a worker pool")

        monkeypatch.setattr(pool.WorkerPool, "__init__", refuse)
        session = PrivateSession(small_graph, workers=2, rng=4)
        session.query(triangle(), privacy="edge", epsilon=0.5)
        mechanism = session.prepared(triangle(), privacy="edge").mechanism
        assert mechanism._encoded._x_step is None
        n = mechanism.num_participants
        interior = [i for i in range(1, n) if i not in mechanism._h_cache]
        assert mechanism.h_entries(interior) == [
            EfficientRecursiveMechanism(mechanism.relation)._encoded.solve_h(i)
            for i in interior
        ]

    def test_walk_matches_cold_decision(self, small_graph):
        """A mechanism's Δ walk decides like cold solves, also when H
        solves on the same in-process program run between its steps."""
        relation = subgraph_krelation(small_graph, triangle(), privacy="edge")
        cold = EfficientRecursiveMechanism(relation)._encoded
        walk = EfficientRecursiveMechanism(relation)._encoded
        n = cold.num_participants
        full = cold.solve_g(n)
        for i in (n // 3, n // 2, 2 * n // 3):
            exact = cold.solve_g(float(i))
            for threshold in (0.25 * full, 0.5 * full, 0.9 * full):
                decided, value, _ = walk.g_decide(float(i), threshold)
                assert decided == (exact <= threshold), (i, threshold)
                assert value == pytest.approx(exact, rel=1e-9, abs=1e-9)
                assert walk.solve_h(float(i)) == cold.solve_h(float(i))


class TestCrossBackendIdentity:
    """Released answers are byte-identical on the persistent HiGHS models
    and on the one-shot linprog oracle.

    At a fixed seed the mechanism's noise and its deterministic
    intermediates (Δ-walk decisions, batched ``solve_many`` objectives)
    must not depend on whether each solve is resumed on a live model or
    run cold through ``linprog``.
    """

    def test_released_answers_identical(self, small_graph):
        results = {}
        for name, backend in LP_BACKENDS.items():
            relation = subgraph_krelation(small_graph, triangle(), privacy="edge")
            mech = EfficientRecursiveMechanism(relation, backend=backend())
            outcome = mech.run(RecursiveMechanismParams.paper(0.5), 17)
            results[name] = (outcome.answer, outcome.delta_hat)
        assert len(set(results.values())) == 1, results

    def test_g_decide_walk_identical(self, small_graph):
        """Every backend's Δ walk makes the decisions of cold solves."""
        relation = subgraph_krelation(small_graph, triangle(), privacy="edge")
        decisions = {}
        for name, backend in LP_BACKENDS.items():
            encoded = EfficientRecursiveMechanism(relation, backend=backend())._encoded
            cold = EfficientRecursiveMechanism(relation, backend=backend())._encoded
            n = encoded.num_participants
            full = encoded.solve_g(n)
            probes = [
                (float(i), threshold)
                for i in (n // 3, n // 2, 2 * n // 3)
                for threshold in (0.25 * full, 0.5 * full, 0.9 * full)
            ]
            decisions[name] = tuple(encoded.g_decide(*probe)[0] for probe in probes)
            expected = tuple(cold.solve_g(i) <= threshold for i, threshold in probes)
            assert decisions[name] == expected, name
        assert len(set(decisions.values())) == 1, decisions

    def test_solve_many_identical(self, small_graph):
        relation = subgraph_krelation(small_graph, triangle(), privacy="edge")
        sweeps = {}
        for name, backend in LP_BACKENDS.items():
            program = EfficientRecursiveMechanism(
                relation, backend=backend()
            )._encoded._compiled
            n = program.num_participants
            indices = [n / 4.0, n / 2.0, 3 * n / 4.0]
            sweeps[name] = tuple(s.objective for s in program.solve_many(indices))
        assert len(set(sweeps.values())) == 1, sweeps


class TestCliWorkers:
    def test_fig_accepts_workers(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["fig", "fig5", "--workers", "3"])
        assert args.workers == 3

    def test_batch_and_serve_accept_workers(self):
        from repro.cli import build_parser

        parser = build_parser()
        assert parser.parse_args(["batch", "spec.json", "--workers", "2"]).workers == 2
        assert parser.parse_args(["serve", "--workers", "2"]).workers == 2

    def test_count_rejects_workers(self):
        """A single release solves in-process: count has no --workers."""
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["count", "--workers", "2"])
