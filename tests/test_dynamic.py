"""Tests for the dynamic-graph subsystem (repro/dynamic/) and its
threading through the session, cache, service, and CLI layers.

The two pins the subsystem lives or dies by:

* **incremental == from-scratch** — for randomized insert/delete streams
  over the edge / triangle / 2-star patterns (and the generic-matcher
  and constrained fallbacks), the maintained occurrence sets match full
  re-enumeration exactly at every step;
* **answers are version-faithful** — a dynamic session's released
  answers after updates are byte-identical to a fresh session on the
  final graph at the same seeds, replay reproduces every answer against
  the version it was released at, and no compiled relation from a
  superseded version is ever served to a new query.
"""

import random
import threading

import pytest

from repro import PrivateSession, VersionedGraph, random_graph_with_avg_degree
from repro.dynamic import GraphDelta, GraphSnapshot, IncrementalOccurrences
from repro.errors import (
    GraphError,
    ServiceForbidden,
    SessionError,
)
from repro.graphs import Graph
from repro.service import BackgroundService, ServiceClient, ServiceRouter
from repro.session import (
    HierarchicalAccountant,
    SharedCompiledCache,
)
from repro.subgraphs import k_star, triangle
from repro.subgraphs.patterns import Pattern, cycle_pattern
from repro.validation import validate_batch_spec, validate_service_request


class TestGraphDelta:
    def test_action_round_trip(self):
        for action in (
            {"action": "add_edge", "u": 1, "v": 2},
            {"action": "remove_edge", "u": "a", "v": "b"},
            {"action": "add_node", "node": 7},
        ):
            delta = GraphDelta.from_action(action)
            assert delta.to_dict() == action

    def test_remove_node_keeps_captured_edges(self):
        delta = GraphDelta.remove_node(3, removed_edges=[(3, 1), (3, 2)])
        out = delta.to_dict()
        assert out["action"] == "remove_node" and out["node"] == 3
        assert out["removed_edges"] == [[3, 1], [3, 2]]
        # an audit-exported update log re-parses verbatim (round trip)
        back = GraphDelta.from_action(out)
        assert back.u == 3 and back.removed_edges == ((3, 1), (3, 2))
        validate_service_request({"v": 1, "op": "update", "actions": [out]})

    def test_malformed_actions_rejected(self):
        with pytest.raises(GraphError, match="action must be one of"):
            GraphDelta.from_action({"action": "explode", "u": 1, "v": 2})
        with pytest.raises(GraphError, match="add_edge action needs"):
            GraphDelta.from_action({"action": "add_edge", "u": 1})
        with pytest.raises(GraphError, match="remove_node action needs"):
            GraphDelta.from_action({"action": "remove_node", "u": 1})
        with pytest.raises(GraphError, match="must be an object"):
            GraphDelta.from_action(["add_edge", 1, 2])

    def test_apply_to_replays_onto_plain_graph(self):
        g = Graph(edges=[(0, 1), (1, 2)])
        GraphDelta.add_edge(0, 2).apply_to(g)
        GraphDelta.remove_node(1).apply_to(g)
        assert set(map(frozenset, g.edges())) == {frozenset({0, 2})}


class TestVersionedGraph:
    def test_versions_count_effective_mutations_only(self):
        g = VersionedGraph(edges=[(0, 1)])
        assert g.version == 0 and g.log == ()
        g.add_edge(0, 1)          # present: no-op
        g.add_node(0)             # present: no-op
        assert g.version == 0
        g.add_edge(1, 2)
        g.add_node(9)
        g.remove_edge(0, 1)
        assert g.version == 3
        assert [d.kind for d in g.log] == ["add_edge", "add_node", "remove_edge"]

    def test_edge_insert_is_one_delta_despite_new_endpoints(self):
        g = VersionedGraph()
        g.add_edge("a", "b")  # both endpoints created implicitly
        assert g.version == 1 and g.log[0].kind == "add_edge"

    def test_remove_node_records_incident_edges(self):
        g = VersionedGraph(edges=[(0, 1), (0, 2), (1, 2)])
        g.remove_node(0)
        (delta,) = g.log
        assert delta.kind == "remove_node"
        assert sorted(delta.removed_edges) == [(0, 1), (0, 2)]

    def test_snapshots_and_at_version(self):
        base = random_graph_with_avg_degree(20, 4, rng=0)
        g = VersionedGraph(base)
        snap0 = g.snapshot()
        g.add_edge(0, 1) if not g.has_edge(0, 1) else g.remove_edge(0, 1)
        g.remove_node(5)
        snap2 = g.snapshot()
        assert isinstance(snap0, GraphSnapshot)
        assert snap0.materialize() == base
        assert snap2.materialize() == g.as_graph()
        assert g.at_version(g.version) == g.as_graph()
        # snapshots are independent copies, not views
        materialized = snap2.materialize()
        materialized.add_edge(100, 101)
        assert not g.has_node(100)

    def test_at_version_bounds_checked(self):
        g = VersionedGraph(edges=[(0, 1)])
        with pytest.raises(GraphError, match="version must be"):
            g.at_version(1)
        with pytest.raises(GraphError, match="version must be"):
            g.at_version(-1)

    def test_checkout_is_equal_but_independent(self):
        g = VersionedGraph(edges=[(0, 1), (1, 2)])
        g.add_edge(0, 2)
        old = g.checkout(0)
        assert isinstance(old, VersionedGraph)
        assert old.version == 0
        assert old.as_graph() == Graph(edges=[(0, 1), (1, 2)])

    def test_apply_action_noop_returns_none(self):
        g = VersionedGraph(edges=[(0, 1)])
        assert g.apply({"action": "add_edge", "u": 0, "v": 1}) is None
        assert g.version == 0
        delta = g.apply({"action": "add_edge", "u": 1, "v": 2})
        assert delta is not None and g.version == 1

    def test_apply_invalid_removal_raises(self):
        g = VersionedGraph(edges=[(0, 1)])
        with pytest.raises(GraphError):
            g.apply({"action": "remove_edge", "u": 0, "v": 9})

    def test_constructor_guards(self):
        with pytest.raises(GraphError, match="wraps a Graph"):
            VersionedGraph("not a graph")
        with pytest.raises(GraphError, match="not both"):
            VersionedGraph(Graph(edges=[(0, 1)]), edges=[(1, 2)])

    def test_copy_is_independent_and_rebased(self):
        g = VersionedGraph(edges=[(0, 1)])
        g.add_edge(1, 2)
        clone = g.copy()
        assert clone.version == 0 and clone.as_graph() == g.as_graph()
        clone.add_edge(5, 6)
        assert not g.has_node(5)


#: The acceptance patterns: edge (1-star), triangle, 2-star — plus the
#: generic-matcher cycle to exercise the non-specialized path.
ACCEPTANCE_PATTERNS = [k_star(1), triangle(), k_star(2), cycle_pattern(4)]


def _random_stream(g, rng, steps, node_pool=16):
    """Drive a random insert/delete stream; yields after every delta."""
    for _ in range(steps):
        op = rng.random()
        if op < 0.45:
            u, v = rng.sample(range(node_pool), 2)
            g.add_edge(u, v)
        elif op < 0.65:
            edges = g.edges()
            if edges:
                g.remove_edge(*rng.choice(edges))
        elif op < 0.8:
            g.add_node(rng.randrange(node_pool))
        else:
            nodes = g.nodes()
            if nodes:
                g.remove_node(rng.choice(nodes))
        yield


class TestIncrementalEquivalence:
    """The equivalence oracle: incremental == from-scratch, always."""

    def test_randomized_streams_match_rescan_exactly(self):
        rng = random.Random(20260729)
        for trial in range(3):
            g = VersionedGraph(random_graph_with_avg_degree(14, 4, rng=trial))
            for pattern in ACCEPTANCE_PATTERNS:
                g.occurrences_for(pattern)
            for _ in _random_stream(g, rng, steps=60):
                g.maintainer.verify()  # raises on any divergence
            info = {row["pattern"]: row for row in g.maintainer.info()}
            # the acceptance patterns were maintained, never rebuilt
            for pattern in ACCEPTANCE_PATTERNS:
                assert info[pattern.name]["rebuilds"] == 0
                assert info[pattern.name]["deltas_applied"] == g.version

    def test_occurrence_lists_are_canonical_across_histories(self):
        """Same final graph, different update paths => identical lists."""
        g1 = VersionedGraph(edges=[(0, 1), (1, 2), (0, 2), (2, 3)])
        g1.occurrences_for(triangle())
        g1.add_edge(1, 3)
        g1.add_edge(0, 3)
        g2 = VersionedGraph(g1.as_graph())
        for p1, p2 in zip(
            g1.occurrences_for(triangle()), g2.occurrences_for(triangle())
        ):
            assert p1.nodes == p2.nodes and p1.edges == p2.edges

    def test_constrained_pattern_falls_back_to_rebuild(self):
        pattern = Pattern(
            [(0, 1), (1, 2), (0, 2)],
            name="hot-triangle",
            node_constraints={0: lambda data: True},
        )
        g = VersionedGraph(random_graph_with_avg_degree(12, 4, rng=5))
        inc = g.maintainer
        inc.register(pattern)
        g.add_edge(0, 1) if not g.has_edge(0, 1) else g.remove_edge(0, 1)
        inc.verify(pattern)
        (row,) = [r for r in inc.info() if r["pattern"] == "hot-triangle"]
        assert not row["incremental"] and row["rebuilds"] == 1

    def test_standalone_maintainer_contract(self):
        graph = random_graph_with_avg_degree(16, 4, rng=2)
        inc = IncrementalOccurrences(graph)
        inc.register(triangle())
        before = inc.count(triangle())
        graph.add_edge(0, 1) if not graph.has_edge(0, 1) else None
        inc.apply(GraphDelta.add_edge(0, 1))
        inc.verify()
        assert inc.count(triangle()) >= before - 1  # sanity: tracked
        # diff() reports divergence if the graph mutates behind its back
        graph.remove_node(0)
        missing, extra = inc.diff(triangle())
        inc.full_rebuild()
        inc.verify()

    def test_register_rejects_non_patterns(self):
        inc = IncrementalOccurrences(Graph(edges=[(0, 1)]))
        with pytest.raises(GraphError, match="takes a Pattern"):
            inc.register("triangle")

    def test_equal_repr_nodes_survive_either_removal_orientation(self):
        """Regression: edge identity must be orientation-free.

        ``Occurrence.normalize_edge`` breaks repr ties by argument
        order, so a delete arriving as (b, a) used to miss the index
        entry stored under (a, b) for distinct equal-repr endpoints —
        leaving a dead occurrence in the maintained set."""

        class Twin:
            def __repr__(self):
                return "twin"

        a, b = Twin(), Twin()
        g = VersionedGraph(edges=[(a, b), (a, "x"), (b, "x")])
        g.occurrences_for(triangle())
        assert g.maintainer.count(triangle()) == 1
        g.remove_edge(b, a)  # the orientation normalize_edge flips
        g.maintainer.verify()
        assert g.maintainer.count(triangle()) == 0
        g.add_edge(b, a)
        g.maintainer.verify()
        assert g.maintainer.count(triangle()) == 1
        g.remove_node(a)
        g.maintainer.verify()
        assert g.maintainer.count(triangle()) == 0


class TestDynamicSession:
    def _graph(self, seed=1, n=28):
        return VersionedGraph(random_graph_with_avg_degree(n, 5.0, rng=seed))

    def test_version_keyed_cache_never_serves_stale(self):
        g = self._graph()
        with PrivateSession(g, rng=7) as s:
            before = s.query("triangle", privacy="node", epsilon=0.5, rng=11)
            s.apply_update(
                [
                    {"action": "add_edge", "u": 0, "v": 1},
                    {"action": "add_edge", "u": 0, "v": 2},
                    {"action": "add_edge", "u": 1, "v": 2},
                ]
            )
            after = s.query("triangle", privacy="node", epsilon=0.5, rng=11)
            # same seed, new version: the compiled relation was rebuilt
            # (a stale cache hit would reproduce the old answer bit-for-bit)
            assert s.cache_info().misses == 2
            assert before.true_answer != after.true_answer
            warm = s.query("triangle", privacy="node", epsilon=0.5, rng=11)
            assert s.cache_info().hits == 1
            assert warm.answer == after.answer

    def test_answers_byte_identical_to_fresh_session_on_final_graph(self):
        """The acceptance pin for answers across updates."""
        g = self._graph(seed=3)
        seeds = [101, 202, 303]
        cases = [("triangle", "node"), ("2-star", "edge"), ("triangle", "edge")]
        with PrivateSession(g, rng=1) as s:
            s.query("triangle", privacy="node", epsilon=0.5, rng=77)
            s.apply_update(
                [
                    {"action": "add_edge", "u": 1, "v": 3},
                    {"action": "remove_node", "node": 5},
                ]
            )
            updated = [
                s.query(q, privacy=p, epsilon=0.5, rng=seed)
                for (q, p), seed in zip(cases, seeds)
            ]
            final = VersionedGraph(g.as_graph())
        with PrivateSession(final, rng=999) as fresh:
            fresh_answers = [
                fresh.query(q, privacy=p, epsilon=0.5, rng=seed)
                for (q, p), seed in zip(cases, seeds)
            ]
        for updated_result, fresh_result in zip(updated, fresh_answers):
            assert updated_result.answer == fresh_result.answer

    def test_replay_reproduces_answers_across_mutations(self):
        g = self._graph(seed=4)
        with PrivateSession(g, rng=5) as s:
            s.query("triangle", privacy="node", epsilon=0.4)
            s.apply_update([{"action": "add_edge", "u": 2, "v": 4}])
            s.query("triangle", privacy="node", epsilon=0.4)
            s.apply_update([{"action": "remove_edge", "u": 2, "v": 4}])
            s.query("2-star", privacy="edge", epsilon=0.3)
            assert s.verify_ledger()
            # ... even when superseded compiled relations were dropped
            # (forces rebuild from log snapshots)
            s.apply_update([{"action": "add_node", "node": 90}])
            assert s.cache_info().invalidations > 0
            assert s.verify_ledger()

    def test_update_entries_are_ledgered_with_deltas(self):
        g = self._graph(seed=6)
        with PrivateSession(g, budget=1.0, rng=2) as s:
            s.apply_update([{"action": "add_edge", "u": 0, "v": 3}], label="grow")
            (entry,) = s.ledger
            assert entry.status == "update" and entry.epsilon == 0.0
            assert entry.extra["update"] == [{"action": "add_edge", "u": 0, "v": 3}]
            assert s.spent == 0.0  # updates never touch the privacy budget
            exported = s.audit_log()[0]
            assert exported["version"] == 1
            assert exported["update"] == entry.extra["update"]

    def test_partial_update_failure_records_prefix_and_raises(self):
        g = self._graph(seed=8)
        with PrivateSession(g, rng=2) as s:
            with pytest.raises(GraphError):
                s.apply_update([
                    {"action": "add_edge", "u": 0, "v": 1},
                    {"action": "remove_edge", "u": 90, "v": 91},  # absent
                    {"action": "add_edge", "u": 0, "v": 2},
                ])
            (entry,) = s.ledger
            assert entry.status == "update-failed"
            # the prefix took effect and is recorded
            applied = entry.extra["update"]
            assert len(applied) <= 1
            assert s.graph_version == len(applied)

    def test_apply_update_requires_dynamic_data(self):
        static = random_graph_with_avg_degree(20, 4.0, rng=1)
        with PrivateSession(static, rng=1) as s:
            with pytest.raises(SessionError, match="dynamic graph"):
                s.apply_update([{"action": "add_edge", "u": 0, "v": 1}])

    def test_submit_futures_across_updates(self):
        g = self._graph(seed=9)
        with PrivateSession(g, rng=11, workers=1) as s:
            f1 = s.submit("triangle", privacy="node", epsilon=0.3)
            f1.result()
            s.apply_update([{"action": "add_edge", "u": 0, "v": 6}])
            f2 = s.submit("triangle", privacy="node", epsilon=0.3)
            assert f2.entry.extra["version"] == 1
            assert s.verify_ledger()

    def test_pooled_submissions_refork_after_update(self):
        """workers>=2: the pool is retired on update, so later forks see
        the new graph — pooled answers match the serial path exactly."""
        from repro.parallel import fork_available

        if not fork_available():
            pytest.skip("needs the fork start method")
        answers = {}
        for workers in (1, 2):
            g = self._graph(seed=10)
            with PrivateSession(g, rng=13, workers=workers) as s:
                first = s.submit("triangle", privacy="node", epsilon=0.3)
                first.result()
                s.apply_update(
                    [
                        {"action": "add_edge", "u": 0, "v": 7},
                        {"action": "remove_node", "node": 2},
                    ]
                )
                second = s.submit("triangle", privacy="node", epsilon=0.3)
                third = s.submit("2-star", privacy="edge", epsilon=0.2)
                answers[workers] = (first.result().answer,
                                    second.result().answer,
                                    third.result().answer)
                assert s.verify_ledger()
        assert answers[1] == answers[2]

    def test_direct_mutation_retires_stale_pool(self):
        """Mutating the VersionedGraph without apply_update must not let
        a pool forked on the old state answer for the new version."""
        from repro.parallel import fork_available

        if not fork_available():
            pytest.skip("needs the fork start method")
        g = self._graph(seed=11)
        with PrivateSession(g, rng=17, workers=2) as s:
            first = s.submit("triangle", privacy="node", epsilon=0.2)
            first.result()
            g.add_edge(0, 8) if not g.has_edge(0, 8) else g.remove_edge(0, 8)
            second = s.submit("2-star", privacy="edge", epsilon=0.2)
            second.result()
            assert second.entry.extra["version"] == g.version
            assert s.verify_ledger()


class TestSharedCacheInvalidationRaces:
    """Satellite: eviction + invalidation under concurrent querying.

    Values stored under a version-tagged key carry their version; a
    reader must never get a value whose version disagrees with the key
    it asked for, no matter how updates interleave, and the hit/miss
    counters must stay exact.
    """

    def test_concurrent_get_or_build_and_invalidate(self):
        cache = SharedCompiledCache(maxsize=16)
        current_version = [0]
        stop = threading.Event()
        violations = []
        calls = [0] * 8
        lock = threading.Lock()

        def reader(thread_index):
            rng = random.Random(thread_index)
            while not stop.is_set():
                version = current_version[0]
                pattern = rng.randrange(4)
                key = (
                    ("data", 1), ("version", version), "recursive", ("pattern", pattern)
                )
                value, _hit = cache.get_or_build(
                    key, lambda: {"version": key[1], "pattern": pattern}
                )
                with lock:
                    calls[thread_index] += 1
                if value["version"] != key[1] or value["pattern"] != pattern:
                    violations.append((key, value))

        def updater():
            while not stop.is_set():
                current_version[0] += 1
                current = ("version", current_version[0])
                cache.invalidate(lambda k: k[1] != current and random.random() < 0.7)

        threads = [
            threading.Thread(target=reader, args=(i,))
            for i in range(8)
        ]
        threads.append(threading.Thread(target=updater))
        for thread in threads:
            thread.start()
        import time
        time.sleep(0.8)
        stop.set()
        for thread in threads:
            thread.join()
        assert not violations
        info = cache.info()
        assert info.hits + info.misses == sum(calls)
        assert info.size <= 16

    def test_eviction_and_invalidation_counters_exact_serial(self):
        cache = SharedCompiledCache(maxsize=2)
        for i in range(4):
            cache.get_or_build((("version", 0), i), lambda i=i: i)
        info = cache.info()
        assert info.size == 2 and info.evictions == 2
        removed = cache.invalidate(lambda key: key[0] == ("version", 0))
        assert removed == 2
        info = cache.info()
        assert info.size == 0 and info.invalidations == 2


class TestServiceUpdates:
    def _session(self, seed=1):
        graph = VersionedGraph(random_graph_with_avg_degree(24, 4.0, rng=seed))
        return PrivateSession(
            graph,
            rng=7,
            accountant=HierarchicalAccountant(None),
            cache=SharedCompiledCache(maxsize=8),
        )

    @staticmethod
    def _serve(session, *, seed=None, updates=False, writer_token=None):
        """``session`` as the one lane of a router, run in-process."""
        router = ServiceRouter(seed=seed)
        router.add_dataset(
            "default", session, updates=updates, writer_token=writer_token
        )
        return BackgroundService(router)

    def test_update_op_end_to_end_with_versions(self):
        session = self._session()
        with self._serve(session, seed=42, updates=True) as bg:
            with ServiceClient(bg.address) as client:
                hello = client.hello()
                assert hello["updates"] is True
                assert hello["graph_version"] == 0
                first = client.query(
                    "triangle", epsilon=0.5, privacy="node", user="alice"
                )
                assert first["version"] == 0
                outcome = client.update(
                    [{"action": "add_edge", "u": 0, "v": 1},
                     {"action": "add_edge", "u": 0, "v": 1}],  # 2nd: no-op
                    label="grow",
                )
                assert outcome["applied"] in (0, 1)
                second = client.query(
                    "triangle", epsilon=0.5, privacy="node", user="alice"
                )
                assert second["version"] == outcome["version"]
                audit = client.audit(replay=True)
                statuses = [e["entry"]["status"] for e in audit["entries"]]
                assert "update" in statuses
                released = [
                    e for e in audit["entries"] if e["entry"]["status"] == "released"
                ]
                assert all(e["matches"] for e in released)
        session.close()

    def test_updates_disabled_by_default(self):
        session = self._session(seed=2)
        with self._serve(session) as bg:
            with ServiceClient(bg.address) as client:
                assert client.hello()["updates"] is False
                with pytest.raises(ServiceForbidden, match="disabled"):
                    client.update([{"action": "add_edge", "u": 0, "v": 1}])
                # the refusal costs nothing and the connection survives
                assert client.ping()["pong"]
        session.close()

    def test_update_token_gate(self):
        session = self._session(seed=3)
        with self._serve(session, updates=True, writer_token="hunter2") as bg:
            with ServiceClient(bg.address) as client:
                with pytest.raises(ServiceForbidden, match="token"):
                    client.update([{"action": "add_node", "node": 99}])
                with pytest.raises(ServiceForbidden, match="token"):
                    client.update([{"action": "add_node", "node": 99}], token="wrong")
                outcome = client.update(
                    [{"action": "add_node", "node": 99}], token="hunter2"
                )
                assert outcome["version"] == 1
        session.close()

    def test_update_requires_dynamic_session(self):
        static = PrivateSession(random_graph_with_avg_degree(20, 4.0, rng=1))
        with pytest.raises(ValueError, match="dynamic session"):
            ServiceRouter().add_dataset("d", static, updates=True)
        static.close()

    def test_invalid_update_actions_are_bad_requests(self):
        session = self._session(seed=4)
        with self._serve(session, updates=True) as bg:
            with ServiceClient(bg.address) as client:
                with pytest.raises(ValueError, match="actions"):
                    client.update([])
                with pytest.raises(ValueError, match="action"):
                    client.update([{"action": "explode"}])
                # removal of an absent edge fails but keeps serving
                with pytest.raises(ValueError):
                    client.update([{"action": "remove_edge", "u": 900, "v": 901}])
                assert client.ping()["pong"]
                # a mid-sequence failure names the applied prefix
                with pytest.raises(ValueError, match=r"WERE applied.*v0->v1"):
                    client.update(
                        [
                            {"action": "add_node", "node": 700},
                            {"action": "remove_edge", "u": 900, "v": 901},
                        ]
                    )
                assert client.hello()["graph_version"] == 1
        session.close()

    def test_interleaved_clients_see_consistent_versions(self):
        """Queries racing an update each see exactly one version, and the
        version they see determines their answer deterministically."""
        session = self._session(seed=5)
        answers = []
        errors = []

        def hammer(address, user):
            try:
                with ServiceClient(address, user=user) as client:
                    for index in range(6):
                        result = client.query(
                            "triangle",
                            epsilon=0.05,
                            privacy="edge",
                            seed=1000 + index,
                        )
                        answers.append((result["version"], result["answer"]))
            except Exception as error:  # pragma: no cover - fail loudly
                errors.append(error)

        with self._serve(session, updates=True, seed=3) as bg:
            address = bg.address
            threads = [
                threading.Thread(target=hammer, args=(address, f"user{i}"))
                for i in range(3)
            ]
            for thread in threads:
                thread.start()
            with ServiceClient(address) as admin:
                for step in range(4):
                    admin.update([{"action": "add_node", "node": 500 + step}])
            for thread in threads:
                thread.join()
        assert not errors
        assert len(answers) == 18
        final_version = session.data.version
        # every answer must be exactly the release its (version, seed)
        # pair dictates — no answer from a half-updated state can exist
        expected_by_version = {}
        for version, answer in answers:
            assert 0 <= version <= final_version
            if version not in expected_by_version:
                snapshot = VersionedGraph(session.data.at_version(version))
                with PrivateSession(snapshot) as check:
                    expected_by_version[version] = {
                        check.query("triangle", privacy="edge",
                                    epsilon=0.05, rng=1000 + index).answer
                        for index in range(6)
                    }
            assert answer in expected_by_version[version], (version, answer)
        session.close()


class TestValidation:
    def test_service_update_request_shapes(self):
        validate_service_request(
            {
                "v": 1,
                "op": "update",
                "token": "t",
                "actions": [{"action": "add_edge", "u": 1, "v": 2}],
            }
        )
        with pytest.raises(ValueError, match="actions: required"):
            validate_service_request({"v": 1, "op": "update"})
        with pytest.raises(ValueError, match=r"actions\[0\]\.action"):
            validate_service_request(
                {"v": 1, "op": "update", "actions": [{"action": "boom"}]}
            )
        with pytest.raises(ValueError, match=r"actions\[1\]\.v: required"):
            validate_service_request(
                {
                    "v": 1,
                    "op": "update",
                    "actions": [
                        {"action": "add_node", "node": 1},
                        {"action": "add_edge", "u": 1},
                    ],
                }
            )
        with pytest.raises(ValueError, match="unknown key"):
            validate_service_request(
                {
                    "v": 1,
                    "op": "update",
                    "actions": [{"action": "add_node", "node": 1, "x": 2}],
                }
            )

    def test_batch_spec_update_steps(self):
        validate_batch_spec(
            {
                "queries": [
                    {"query": "triangle", "epsilon": 0.5},
                    {
                        "update": [{"action": "remove_node", "node": 3}],
                        "label": "shrink",
                    },
                ]
            }
        )
        with pytest.raises(ValueError, match=r"queries\[0\]\.update"):
            validate_batch_spec({"queries": [{"update": "not-a-list"}]})
        with pytest.raises(ValueError, match="unknown key"):
            validate_batch_spec(
                {
                    "queries": [
                        {"update": [{"action": "add_node", "node": 1}], "epsilon": 0.5}
                    ]
                }
            )


class TestBatchCLIWithUpdates:
    def test_local_batch_interleaves_updates(self, tmp_path, capsys):
        import json

        from repro.cli import main

        spec = {
            "graph": {"nodes": 24, "avgdeg": 4, "seed": 1},
            "seed": 7,
            "queries": [
                {"query": "triangle", "privacy": "node", "epsilon": 0.5},
                {
                    "update": [
                        {"action": "add_edge", "u": 0, "v": 1},
                        {"action": "add_edge", "u": 0, "v": 2},
                    ],
                    "label": "grow",
                },
                {"query": "triangle", "privacy": "node", "epsilon": 0.5},
            ],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["batch", str(path)]) == 0
        out = capsys.readouterr().out
        assert "dynamic (interleaved updates)" in out
        assert "applied" in out and "update->v2" in out

    def test_serve_parser_accepts_update_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--updates", "--update-token", "tok", "--port", "0"]
        )
        assert args.updates is True and args.update_token == "tok"
        args = build_parser().parse_args(["batch", "spec.json", "--update-token", "t"])
        assert args.update_token == "t"

    def test_serve_rejects_token_without_updates(self, tmp_path, capsys):
        import json

        from repro.cli import main

        assert main(["serve", "--nodes", "10", "--update-token", "t"]) == 2
        assert "--updates" in capsys.readouterr().err
        # under --datasets the flags are per-dataset config keys instead
        path = tmp_path / "datasets.json"
        path.write_text(json.dumps({"datasets": {"a": {}}}))
        assert main(["serve", "--datasets", str(path), "--updates"]) == 2
        assert "per-dataset" in capsys.readouterr().err

    def test_lenient_edge_list_flag_loads_snap_style_files(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "both_orientations.txt"
        path.write_text("0 1\n1 0\n1 2\n2 1\n")  # SNAP-style double listing
        with pytest.raises(GraphError, match="duplicate edge"):
            main(
                [
                    "count",
                    "--edge-list",
                    str(path),
                    "--query",
                    "triangle",
                    "--privacy",
                    "edge",
                    "--seed",
                    "1",
                ]
            )
        argv = [
            "count",
            "--edge-list",
            str(path),
            "--lenient-edge-list",
            "--query",
            "triangle",
            "--privacy",
            "edge",
            "--seed",
            "1",
        ]
        assert main(argv) == 0
        assert "2 edges" in capsys.readouterr().out
