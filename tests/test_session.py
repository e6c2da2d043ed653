"""Tests for the session serving layer: accountant, cache, futures, replay."""

import json
import math
import os
import pickle
import signal

import numpy as np
import pytest

from repro import (
    PrivateSession,
    RecursiveMechanismParams,
    private_subgraph_count,
    random_graph_with_avg_degree,
    triangle,
)
from repro.core import EfficientRecursiveMechanism
from repro.core.queries import WeightedQuery
from repro.dynamic import VersionedGraph
from repro.errors import PrivacyParameterError, SessionError, WorkerPoolError
from repro.mechanisms.base import PreparedQuery
from repro.obs import metrics
from repro.session import (
    BudgetAccountant,
    BudgetExhausted,
    HierarchicalAccountant,
    LedgerEntry,
    SharedCompiledCache,
)
from repro.subgraphs import Pattern, k_star, subgraph_krelation


@pytest.fixture(scope="module")
def graph():
    return random_graph_with_avg_degree(30, 6, rng=1)


def _double_weight(_tup) -> float:
    return 2.0


#: A triangle whose task cannot pickle (a module-level lambda constraint).
_UNPICKLABLE_TRIANGLE = Pattern(
    [(0, 1), (1, 2), (0, 2)], node_constraints={0: lambda data: True}
)


def _entry(label, epsilon):
    return LedgerEntry(0, label, "recursive", "triangle/node", epsilon)


class TestBudgetAccountant:
    def test_sequential_composition_sums_exactly(self):
        accountant = BudgetAccountant(1.0)
        for i in range(4):
            accountant.charge(_entry(f"q{i}", 0.25))
        assert accountant.spent == 1.0
        assert accountant.remaining == 0.0
        assert len(accountant) == 4

        # Thousands of mixed-magnitude charges across users: every total
        # is bit-identical to math.fsum over the ledger.
        rng = np.random.default_rng(2)
        users = ["alice", "bob", "carol", None]
        accountant = HierarchicalAccountant(1e9)
        charges = []
        for i in range(3000):
            epsilon = float(10.0 ** rng.uniform(-12, 3))
            user = users[int(rng.integers(len(users)))]
            charges.append(epsilon)
            accountant.charge(LedgerEntry(0, f"q{i}", "m", "t", epsilon, user=user))
            if i % 250 == 0 or i == 2999:
                ledger = accountant.ledger
                total = math.fsum(entry.epsilon for entry in ledger)
                assert accountant.spent == total
                assert accountant.remaining == 1e9 - total
                for name in users:
                    assert accountant.user_spent(name) == math.fsum(
                        entry.epsilon for entry in ledger if entry.user == name
                    )
        # the input has teeth: a float running sum drifts on it
        assert sum(charges) != math.fsum(charges)
        assert accountant.users() == ("alice", "bob", "carol")

    def test_exhausted_at_cap(self):
        accountant = BudgetAccountant(1.0)
        accountant.charge(_entry("a", 0.75))
        with pytest.raises(BudgetExhausted):
            accountant.charge(_entry("b", 0.5))
        # the refused charge spent nothing
        assert accountant.spent == 0.75
        accountant.charge(_entry("c", 0.25))  # exact fit still allowed
        assert accountant.remaining == 0.0

    def test_unlimited_still_ledgered(self):
        accountant = BudgetAccountant(None)
        for _ in range(3):
            accountant.charge(_entry("q", 100.0))
        assert accountant.remaining is None
        assert accountant.spent == 300.0
        assert len(accountant.ledger) == 3

    def test_invalid_budget_and_epsilon(self):
        with pytest.raises(ValueError):
            BudgetAccountant(0.0)
        with pytest.raises(ValueError):
            BudgetAccountant(1.0).charge(_entry("q", -1.0))
        with pytest.raises(ValueError):
            BudgetAccountant(1.0).charge(_entry("q", float("nan")))

    def test_budget_exhausted_is_value_error(self):
        assert issubclass(BudgetExhausted, ValueError)

    def test_audit_log_is_json_serializable(self):
        accountant = BudgetAccountant(1.0)
        accountant.charge(_entry("q", 0.5))
        text = json.dumps(accountant.audit_log())
        assert '"epsilon": 0.5' in text


class TestReservations:
    def test_reserve_holds_budget_until_commit(self):
        accountant = BudgetAccountant(1.0)
        reservation = accountant.reserve(0.6, label="a")
        assert accountant.reserved == 0.6
        assert accountant.remaining == pytest.approx(0.4)
        assert accountant.spent == 0.0  # held, not yet spent
        with pytest.raises(BudgetExhausted):
            accountant.reserve(0.5, label="b")  # hold counts against cap
        reservation.commit(_entry("a", 0.6))
        assert accountant.spent == 0.6
        assert accountant.reserved == 0.0

    def test_rollback_releases_the_hold(self):
        accountant = BudgetAccountant(1.0)
        reservation = accountant.reserve(0.9)
        reservation.rollback()
        assert accountant.reserved == 0.0
        accountant.reserve(0.9)  # fits again

    def test_commit_requires_matching_epsilon_and_is_single_shot(self):
        accountant = BudgetAccountant(1.0)
        reservation = accountant.reserve(0.5)
        with pytest.raises(ValueError, match="holds eps"):
            reservation.commit(_entry("q", 0.25))
        reservation.commit(_entry("q", 0.5))
        with pytest.raises(ValueError, match="already"):
            reservation.commit(_entry("q", 0.5))
        with pytest.raises(ValueError, match="already"):
            reservation.rollback()


class TestHierarchicalAccountant:
    def test_user_sub_budgets_partition_the_global_cap(self):
        accountant = HierarchicalAccountant(1.0, default_user_budget=0.6)
        accountant.charge(LedgerEntry(0, "a0", "recursive", "t/n", 0.5, user="alice"))
        with pytest.raises(BudgetExhausted) as excinfo:
            accountant.check(0.2, label="a1", user="alice")
        assert excinfo.value.user == "alice"
        assert "alice" in str(excinfo.value)
        # bob's own sub-budget is fresh; the global cap has 0.5 left
        accountant.charge(LedgerEntry(0, "b0", "recursive", "t/n", 0.5, user="bob"))
        # now the *global* cap binds for everyone, carrying no tenant
        with pytest.raises(BudgetExhausted) as excinfo:
            accountant.check(0.1, label="c0", user="carol")
        assert excinfo.value.user is None

    def test_explicit_user_budgets_override_default(self):
        accountant = HierarchicalAccountant(
            10.0, default_user_budget=1.0, user_budgets={"vip": 5.0}
        )
        assert accountant.user_budget("vip") == 5.0
        assert accountant.user_budget("anyone") == 1.0
        accountant.set_user_budget("anyone", 2.0)
        assert accountant.user_budget("anyone") == 2.0

    def test_anonymous_releases_only_hit_the_global_cap(self):
        accountant = HierarchicalAccountant(1.0, default_user_budget=0.1)
        accountant.charge(_entry("q", 0.9))  # user=None
        assert accountant.user_remaining(None) is None
        assert accountant.spent == 0.9

    def test_per_user_accounting_is_exact(self):
        accountant = HierarchicalAccountant(None, default_user_budget=1.0)
        for _ in range(10):
            accountant.charge(LedgerEntry(0, "q", "m", "t", 0.1, user="u"))
        assert accountant.user_spent("u") == pytest.approx(1.0)
        assert not accountant.can_afford(0.1, user="u")
        assert accountant.users() == ("u",)

    def test_session_mounts_hierarchical_accountant(self, graph):
        accountant = HierarchicalAccountant(2.0, default_user_budget=0.5)
        session = PrivateSession(graph, accountant=accountant)
        session.query(triangle(), privacy="edge", epsilon=0.5, rng=1, user="alice")
        with pytest.raises(BudgetExhausted) as excinfo:
            session.query(triangle(), privacy="edge", epsilon=0.5, rng=1, user="alice")
        assert excinfo.value.user == "alice"
        session.query(triangle(), privacy="edge", epsilon=0.5, rng=1, user="bob")
        assert session.ledger[0].user == "alice"
        assert session.ledger[1].user == "bob"
        assert accountant.user_spent("alice") == 0.5
        # failed queries roll their reservation back
        with pytest.raises(Exception):
            session.query(
                triangle(),
                privacy="edge",
                epsilon=0.4,
                rng=1,
                user="bob",
                mechanism="nope",
            )
        assert accountant.reserved == 0.0
        assert accountant.user_spent("bob") == 0.5
        session.close()

    def test_session_rejects_budget_and_accountant_together(self, graph):
        with pytest.raises(SessionError):
            PrivateSession(graph, budget=1.0, accountant=BudgetAccountant(1.0))
        with pytest.raises(SessionError):
            PrivateSession(graph, accountant="not an accountant")
        with pytest.raises(SessionError):
            PrivateSession(graph, cache="not a cache")


class TestSharedCompiledCacheUnit:
    def test_lru_order_and_eviction_counters(self):
        cache = SharedCompiledCache(maxsize=2)
        cache.get_or_build(("a",), lambda: "A")
        cache.get_or_build(("b",), lambda: "B")
        cache.get_or_build(("a",), lambda: "A2")  # hit refreshes a
        cache.get_or_build(("c",), lambda: "C")   # evicts b (LRU)
        assert ("b",) not in cache and ("a",) in cache
        info = cache.info()
        assert (info.hits, info.misses, info.size, info.evictions,
                info.maxsize) == (1, 3, 2, 1, 2)

    def test_touch_is_a_hit_without_a_build(self):
        cache = SharedCompiledCache(maxsize=2)
        view = cache.namespaced("alpha")
        view.get_or_build(("a",), lambda: "A")
        view.get_or_build(("b",), lambda: "B")
        assert view.touch(("a",)) is True  # refreshes a, as a hit does
        assert view.touch(("z",)) is False  # absent: counts nothing
        view.get_or_build(("c",), lambda: "C")  # evicts b (LRU)
        assert ("b",) not in view and ("a",) in view
        assert (view.info().hits, view.info().misses) == (1, 3)
        assert (cache.info().hits, cache.info().misses) == (1, 3)

    def test_resize_evicts_down(self):
        cache = SharedCompiledCache(maxsize=None)
        for key in range(4):
            cache.get_or_build((key,), lambda: key)
        cache.resize(1)
        assert len(cache) == 1 and (3,) in cache
        with pytest.raises(ValueError):
            cache.resize(0)
        with pytest.raises(ValueError):
            SharedCompiledCache(maxsize=-3)

    def test_thread_safe_builds_build_once(self):
        import threading

        cache = SharedCompiledCache(maxsize=8)
        builds = []

        def build():
            builds.append(1)
            return "value"

        threads = [
            threading.Thread(target=lambda: cache.get_or_build(("k",), build))
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(builds) == 1
        assert cache.info().hits == 7


class TestSessionQueries:
    def test_wrapper_byte_identical_to_direct_mechanism_path(self, graph):
        """Pin: the session-routed wrapper equals the pre-redesign path."""
        for privacy in ("node", "edge"):
            relation = subgraph_krelation(graph, triangle(), privacy=privacy)
            params = RecursiveMechanismParams.paper(
                1.0, node_privacy=(privacy == "node")
            )
            direct = EfficientRecursiveMechanism(relation).run(params, 5)
            wrapped = private_subgraph_count(
                graph, triangle(), privacy=privacy, epsilon=1.0, rng=5
            )
            assert wrapped.answer == direct.answer
            assert wrapped.delta == direct.delta
            assert wrapped.x_value == direct.x_value

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cache_hit_byte_identical_to_cold(self, graph, workers):
        session = PrivateSession(graph, workers=workers)
        cold = session.query(triangle(), privacy="edge", epsilon=1.0, rng=5)
        assert session.cache_info().misses == 1
        warm = session.query(triangle(), privacy="edge", epsilon=1.0, rng=5)
        info = session.cache_info()
        assert info.hits == 1 and info.misses == 1 and info.size == 1
        assert warm.answer == cold.answer
        # and both equal a completely fresh session's cold answer
        fresh = PrivateSession(graph, workers=workers).query(
            triangle(), privacy="edge", epsilon=1.0, rng=5
        )
        assert fresh.answer == cold.answer
        session.close()

    def test_equivalent_pattern_objects_share_cache_slot(self, graph):
        session = PrivateSession(graph)
        session.query(triangle(), privacy="edge", epsilon=0.5, rng=1)
        session.query("triangle", privacy="edge", epsilon=0.5, rng=1)
        session.query(triangle(), privacy="edge", epsilon=0.5, rng=1)
        info = session.cache_info()
        assert info.misses == 1 and info.hits == 2

    def test_distinct_specs_get_distinct_slots(self, graph):
        session = PrivateSession(graph)
        session.query(triangle(), privacy="edge", epsilon=0.5, rng=1)
        session.query(triangle(), privacy="node", epsilon=0.5, rng=1)
        session.query(k_star(2), privacy="edge", epsilon=0.5, rng=1)
        session.query(
            triangle(), privacy="edge", epsilon=0.5, rng=1, mechanism="smooth"
        )
        assert session.cache_info().misses == 4

    def test_budget_cap_enforced(self, graph):
        session = PrivateSession(graph, budget=1.0)
        session.query(triangle(), privacy="edge", epsilon=0.6, rng=1)
        with pytest.raises(BudgetExhausted):
            session.query(triangle(), privacy="edge", epsilon=0.6, rng=1)
        # refused query spends nothing; a smaller one still fits
        session.query(triangle(), privacy="edge", epsilon=0.4, rng=1)
        assert session.spent == pytest.approx(1.0)

    def test_relation_session_linear_queries(self, graph):
        relation = subgraph_krelation(graph, triangle(), privacy="edge")
        session = PrivateSession(relation, budget=2.0)
        count = session.query(None, epsilon=0.5, rng=3)
        assert count.true_answer == 44.0
        doubled = session.query(
            WeightedQuery(_double_weight, name="double"), epsilon=0.5, rng=3
        )
        assert doubled.true_answer == 88.0
        # distinct weights are distinct cache slots; repeats hit
        session.query(None, epsilon=0.5, rng=4)
        info = session.cache_info()
        assert info.misses == 2 and info.hits == 1
        session.close()

    def test_session_rejects_bad_data_and_closed_use(self, graph):
        with pytest.raises(SessionError):
            PrivateSession([1, 2, 3])
        session = PrivateSession(graph)
        session.close()
        with pytest.raises(SessionError):
            session.query(triangle(), epsilon=0.5)

    def test_missing_epsilon_rejected(self, graph):
        session = PrivateSession(graph)
        with pytest.raises(SessionError):
            session.query(triangle())


class TestValidation:
    def test_epsilon_validated_at_every_entry_point(self, graph):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                private_subgraph_count(graph, triangle(), epsilon=bad, rng=0)
            with pytest.raises(ValueError):
                PrivateSession(graph).query(triangle(), epsilon=bad)
        with pytest.raises(ValueError):
            PrivateSession(graph, budget=-2.0)

    def test_epsilon_error_is_privacy_parameter_error(self, graph):
        with pytest.raises(PrivacyParameterError):
            private_subgraph_count(graph, triangle(), epsilon=-1, rng=0)

    def test_workers_validated(self, graph):
        with pytest.raises(ValueError):
            PrivateSession(graph, workers=0)
        with pytest.raises(ValueError):
            PrivateSession(graph, workers=-2)

    def test_workers_is_not_a_mechanism_option(self, graph):
        """Mechanisms solve in-process: workers= is no query option, and
        a rejected query spends nothing and caches nothing."""
        session = PrivateSession(graph, budget=1.0)
        with pytest.raises(TypeError, match="workers"):
            session.query(triangle(), privacy="edge", epsilon=0.5, workers=2)
        with pytest.raises(TypeError, match="workers"):
            private_subgraph_count(graph, triangle(), epsilon=1.0, workers=2)
        assert session.spent == 0.0 and session.cache_info().size == 0

    def test_worker_count_is_not_in_the_cache_key(self, graph):
        """Sessions that differ only in their worker count share one
        compiled entry per spec."""
        from repro.session import shared_cache

        view = shared_cache().namespaced("test-workers-not-in-key")
        view.invalidate(lambda key: True)
        for workers in (1, 2):
            session = PrivateSession(graph, workers=workers, cache=view)
            session.query(triangle(), privacy="edge", epsilon=0.5, rng=1)
            session.close()
        assert view.info().size == 1

    def test_pooled_submit_rejects_unknown_option_before_charging(self, graph):
        """Once the pool exists the parent does not prepare a new spec;
        an unknown option must still fail before the ε is committed."""
        session = PrivateSession(graph, budget=2.0, workers=2, rng=3)
        session.submit(triangle(), privacy="edge", epsilon=0.5).result()
        with pytest.raises(TypeError, match="workers"):
            session.submit(k_star(2), privacy="edge", epsilon=0.5, workers=2)
        assert session.spent == 0.5 and len(session.ledger) == 1
        session.close()


class TestLedgerAndReplay:
    def test_ledger_replay_matches_released_answers(self, graph):
        session = PrivateSession(graph, budget=3.0, rng=11)
        session.query(triangle(), privacy="edge", epsilon=0.5)
        session.query(triangle(), privacy="edge", epsilon=0.5, rng=42)
        session.query(k_star(2), privacy="edge", epsilon=0.5, mechanism="smooth")
        records = session.replay()
        assert len(records) == 3
        assert all(record.matches for record in records)
        assert session.verify_ledger()
        # replay spends no budget
        assert session.spent == pytest.approx(1.5)

    def test_generator_rng_not_replayable_but_ledgered(self, graph):
        session = PrivateSession(graph)
        session.query(
            triangle(), privacy="edge", epsilon=0.5, rng=np.random.default_rng(0)
        )
        (record,) = session.replay()
        assert record.matches is None
        assert session.ledger[0].epsilon == 0.5

    def test_ledger_records_metadata(self, graph):
        session = PrivateSession(graph, budget=1.0, rng=3)
        session.query(triangle(), privacy="node", epsilon=0.5, label="tri")
        entry = session.ledger[0]
        assert entry.label == "tri"
        assert entry.mechanism == "recursive"
        assert entry.query == "triangle/node"
        assert entry.status == "released"
        assert entry.cache_hit is False
        assert json.dumps(session.audit_log())


class TestSubmitFutures:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_submit_released_answers_identical_any_worker_count(self, graph, workers):
        session = PrivateSession(graph, workers=workers, rng=42)
        futures = [
            session.submit(triangle(), privacy="edge", epsilon=0.25) for _ in range(4)
        ]
        answers = [future.result().answer for future in futures]
        reference = PrivateSession(graph, workers=1, rng=42)
        expected = [
            reference.submit(triangle(), privacy="edge", epsilon=0.25).result().answer
            for _ in range(4)
        ]
        assert answers == expected
        # ledger entries completed with answers recorded
        assert [e.status for e in session.ledger] == ["released"] * 4
        assert [e.answer for e in session.ledger] == answers
        session.close()
        reference.close()

    def test_submit_charges_budget_upfront(self, graph):
        session = PrivateSession(graph, budget=0.5, workers=1, rng=0)
        session.submit(triangle(), privacy="edge", epsilon=0.5)
        with pytest.raises(BudgetExhausted):
            session.submit(triangle(), privacy="edge", epsilon=0.1)
        session.close()

    def test_submit_with_int_seed_matches_query(self, graph):
        session = PrivateSession(graph, workers=1)
        submitted = session.submit(
            triangle(), privacy="edge", epsilon=0.5, rng=9
        ).result()
        queried = session.query(triangle(), privacy="edge", epsilon=0.5, rng=9)
        assert submitted.answer == queried.answer
        session.close()

    def test_submit_rejects_generator_rng(self, graph):
        session = PrivateSession(graph, workers=1)
        with pytest.raises(SessionError):
            session.submit(
                triangle(), privacy="edge", epsilon=0.5, rng=np.random.default_rng(0)
            )

    def test_new_spec_after_fork_compiles_in_workers(self, graph):
        """A spec first submitted after the pool forked must not block the
        submitter on a parent-side compile the workers would repeat."""
        session = PrivateSession(graph, workers=2, rng=9)
        first = session.submit(triangle(), privacy="edge", epsilon=0.5)
        second = session.submit(k_star(2), privacy="edge", epsilon=0.5)
        assert first.result().answer != second.result().answer
        # only the pre-fork spec was compiled in the parent...
        assert session.cache_info().size == 1
        # ...and replay still reproduces both (compiling lazily on demand)
        assert session.verify_ledger()
        session.close()

    def test_pooled_release_looks_the_spec_up_once(self, graph):
        """Once the pool exists, only the worker looks a spec up: the hit
        counter rises by one per pooled release, and the ledger's
        cache_hit and the session's cache counters still say whether the
        parent holds the spec."""
        hits = metrics().counter("repro_cache_requests_total", result="hit")
        session = PrivateSession(graph, workers=2, rng=3)
        session.submit(triangle(), privacy="edge", epsilon=0.25).result()
        before, info = hits.value, session.cache_info()
        futures = [
            session.submit(triangle(), privacy="edge", epsilon=0.25) for _ in range(5)
        ]
        for future in futures:
            future.result()
        assert hits.value - before == 5
        assert session.cache_info().hits - info.hits == 5
        session.submit(k_star(2), privacy="edge", epsilon=0.25).result()
        assert [entry.cache_hit for entry in session.ledger] == [False] + [True] * 5 + [
            False
        ]
        session.close()

    def test_unpicklable_pooled_task_fails_its_future(self, graph):
        """A task that does not pickle fails its future and its ledger
        entry (the ε stays charged); the pool keeps serving."""
        session = PrivateSession(graph, workers=2, rng=3)
        session.submit(triangle(), privacy="edge", epsilon=0.5).result(timeout=60)
        future = session.submit(_UNPICKLABLE_TRIANGLE, privacy="edge", epsilon=0.5)
        with pytest.raises(pickle.PicklingError):
            future.result(timeout=30)
        assert future.entry.status == "failed"
        assert session.spent == pytest.approx(1.0)
        after = session.submit(triangle(), privacy="edge", epsilon=0.5)
        assert math.isfinite(after.result(timeout=60).answer)
        session.close()

    def test_worker_death_fails_the_entry_and_the_pool_keeps_serving(
        self, monkeypatch
    ):
        """A release that kills its worker fails its future and ledger
        entry (the ε stays charged); the worker is replaced, so
        apply_update() proceeds and later pooled answers equal a
        workers=1 session's at the same seeds."""
        parent, release = os.getpid(), PreparedQuery.release

        def release_or_die(self, epsilon, rng=None, params=None):
            if epsilon == 0.125 and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return release(self, epsilon, rng, params=params)

        # patched before the pool forks, so every worker inherits it
        monkeypatch.setattr(PreparedQuery, "release", release_or_die)
        update = [{"action": "remove_node", "node": 3}]

        def answers(session, seeds):
            futures = [
                session.submit(triangle(), privacy="edge", epsilon=0.5, rng=seed)
                for seed in seeds
            ]
            return [future.result(timeout=60).answer for future in futures]

        session = PrivateSession(
            VersionedGraph(random_graph_with_avg_degree(30, 6, rng=1)), workers=2
        )
        pooled = answers(session, [1])
        doomed = session.submit(triangle(), privacy="edge", epsilon=0.125, rng=2)
        with pytest.raises(WorkerPoolError, match="died"):
            doomed.result(timeout=30)
        assert doomed.entry.status == "failed"
        assert session.spent == pytest.approx(0.625)
        pooled += answers(session, [3, 4, 5])
        session.apply_update(update)
        pooled += answers(session, [6, 7])
        session.close()

        reference = PrivateSession(
            VersionedGraph(random_graph_with_avg_degree(30, 6, rng=1)), workers=1
        )
        expected = answers(reference, [1, 3, 4, 5])
        reference.apply_update(update)
        expected += answers(reference, [6, 7])
        assert pooled == expected

    def test_pool_fanout_replay(self, graph):
        """Replay also covers answers computed in forked workers."""
        session = PrivateSession(graph, workers=2, rng=5)
        futures = [
            session.submit(triangle(), privacy="edge", epsilon=0.25) for _ in range(3)
        ]
        for future in futures:
            future.result()
        assert session.verify_ledger()
        session.close()


def _release_path_run(how, workers, dynamic):
    """One scripted workload through ``query`` or ``submit``: its answers,
    audit rows without ``seconds``, and replayed answers."""
    data = random_graph_with_avg_degree(30, 6, rng=1)
    session = PrivateSession(VersionedGraph(data) if dynamic else data, workers=workers)
    if how == "query":
        release = session.query
    else:
        def release(*args, **kwargs):
            return session.submit(*args, **kwargs).result()
    answers = [release(triangle(), privacy="edge", epsilon=0.5, rng=3).answer]
    if dynamic:
        session.apply_update([{"action": "remove_node", "node": 3}])
    # a cache hit (historical at version 0 on the dynamic session)
    at_version = {"at_version": 0} if dynamic else {}
    answers.append(
        release(triangle(), privacy="edge", epsilon=0.5, rng=17, **at_version).answer
    )
    answers.append(release(k_star(2), privacy="edge", epsilon=0.25, rng=5).answer)
    rows = [
        {key: value for key, value in row.items() if key != "seconds"}
        for row in session.audit_log()
    ]
    replayed = [
        record.replayed_answer
        for record in session.replay()
        if record.entry.status == "released"
    ]
    session.close()
    return answers, rows, replayed


class TestOneReleasePath:
    """``query`` and ``submit`` admit and ledger a release the same way,
    and the worker pool runs exactly the task the ledger records."""

    @pytest.mark.parametrize("dynamic", [False, True], ids=["static", "dynamic"])
    def test_query_and_submit_ledger_rows_differ_only_in_seconds(self, dynamic):
        answers, rows, replayed = _release_path_run("query", 1, dynamic)
        assert [row["cache_hit"] for row in rows if row["status"] == "released"] == [
            False, True, False
        ]
        assert replayed == answers
        for workers in (1, 2):
            submitted = _release_path_run("submit", workers, dynamic)
            assert submitted[0] == answers
            assert submitted[1] == rows
            # pooled answers are what replay() re-derives from the ledger
            assert submitted[2] == submitted[0]


class TestSessionContextManager:
    def test_context_manager_closes(self, graph):
        with PrivateSession(graph, budget=1.0) as session:
            session.query(triangle(), privacy="edge", epsilon=0.5, rng=1)
        with pytest.raises(SessionError):
            session.query(triangle(), privacy="edge", epsilon=0.1)
        # ledger still readable after close
        assert len(session.ledger) == 1
