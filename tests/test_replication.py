"""Tests for primary/replica serving (:mod:`repro.service.replication`).

The acceptance pin (the replica consistency contract): under a
randomized update stream with concurrent read replicas, **every** answer
a replica releases is byte-identical to a fresh
:class:`~repro.session.PrivateSession` over the primary's graph checked
out at the version the answer echoes, at the same seed.  Plus the
supporting surface: the ``snapshot``/``log`` replication feed, replica
bootstrap mid-stream, write refusal on replicas, and the ``min_version``
read-your-writes contract across the wire.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro import PrivateSession, random_graph_with_avg_degree
from repro.dynamic import VersionedGraph
from repro.errors import ServiceForbidden
from repro.service import (
    BackgroundService,
    ReplicaService,
    ServiceClient,
    ServiceRouter,
)
from repro.session import HierarchicalAccountant, SharedCompiledCache

PRIMARY_SEED = 20260807
WRITER_TOKEN = "replication-key"


def _versioned_graph():
    return VersionedGraph(random_graph_with_avg_degree(24, 4.0, rng=5))


def _session_over(data, rng=7):
    return PrivateSession(
        data,
        workers=1,
        rng=rng,
        accountant=HierarchicalAccountant(),
        cache=SharedCompiledCache(maxsize=8),
    )


def _primary(graph, **router_kwargs):
    router = ServiceRouter(seed=PRIMARY_SEED, **router_kwargs)
    session = _session_over(graph)
    router.add_dataset(
        "alpha", session, updates=True, writer_token=WRITER_TOKEN, default=True
    )
    return router, session


class _UpdateStream:
    """A deterministic stream of valid update batches.

    Tracks a shadow edge set so every generated action is applicable
    (``remove_edge`` of a missing edge would refuse the whole batch).
    """

    def __init__(self, graph: VersionedGraph, seed: int):
        self._rng = random.Random(seed)
        base = graph.as_graph()
        self._edges = {tuple(sorted(edge)) for edge in base.edges()}
        self._next_node = 1000

    def batch(self, size: int):
        actions = []
        for _ in range(size):
            roll = self._rng.random()
            if roll < 0.25 and self._edges:
                edge = self._rng.choice(sorted(self._edges))
                self._edges.discard(edge)
                actions.append({"action": "remove_edge", "u": edge[0], "v": edge[1]})
            elif roll < 0.35:
                actions.append({"action": "add_node", "node": self._next_node})
                self._next_node += 1
            else:
                while True:
                    u, v = self._rng.sample(range(24), 2)
                    edge = tuple(sorted((u, v)))
                    if edge not in self._edges:
                        break
                self._edges.add(edge)
                actions.append({"action": "add_edge", "u": edge[0], "v": edge[1]})
        return actions


class TestReplicationFeed:
    def test_snapshot_and_log_ops(self):
        graph = _versioned_graph()
        base_edges = {tuple(sorted(e)) for e in graph.as_graph().edges()}
        router, session = _primary(graph)
        with BackgroundService(router) as bg:
            with ServiceClient(bg.address) as client:
                snapshot = client.snapshot()
                assert snapshot["dataset"] == "alpha"
                assert snapshot["base_version"] == 0
                assert snapshot["version"] == 0
                assert ({tuple(sorted(e)) for e in snapshot["edges"]} == base_edges)
                client.update(
                    [
                        {"action": "add_edge", "u": 100, "v": 101},
                        {"action": "add_node", "node": 102},
                    ],
                    token=WRITER_TOKEN,
                )
                shipped = client.log()
                suffix = client.log(since=1)
        assert shipped["version"] == 2
        assert [item["version"] for item in shipped["deltas"]] == [1, 2]
        assert shipped["deltas"][0]["delta"]["action"] == "add_edge"
        assert shipped["deltas"][1]["delta"]["action"] == "add_node"
        assert [item["version"] for item in suffix["deltas"]] == [2]
        session.close()

    def test_feed_refused_on_static_dataset(self):
        static = random_graph_with_avg_degree(20, 3.0, rng=6)
        router = ServiceRouter(seed=PRIMARY_SEED)
        session = _session_over(static)
        router.add_dataset("alpha", session)
        with BackgroundService(router) as bg:
            with ServiceClient(bg.address) as client:
                with pytest.raises(ValueError, match="static"):
                    client.snapshot()
                with pytest.raises(ValueError, match="static"):
                    client.log()
        session.close()


class TestReplicaStop:
    def test_stop_ends_a_tail_that_swallowed_its_cancel(self):
        # Before Python 3.12, asyncio.wait_for can swallow a cancel that
        # lands as its inner call completes; stop() must still end the tail.
        async def stubborn_tail():
            try:
                await asyncio.sleep(60)
            except asyncio.CancelledError:
                pass
            await asyncio.sleep(60)

        async def run():
            replica = ReplicaService(
                ("127.0.0.1", 1), "alpha", _session_over, poll_interval=0.01
            )
            tail = asyncio.get_running_loop().create_task(stubborn_tail())
            replica._follow_task = tail
            await asyncio.sleep(0)
            stop = asyncio.ensure_future(replica.stop())
            done, _ = await asyncio.wait([stop], timeout=5)
            return stop in done and tail.cancelled()

        assert asyncio.run(run())


class TestReplicaConsistency:
    REPLICAS = 2
    ROUNDS = 3
    EPSILON = 0.2

    def test_replicas_byte_identical_under_randomized_updates(self):
        """The acceptance pin: every replica answer == a fresh session
        over the primary graph at the echoed version and the same seed."""
        graph = _versioned_graph()
        router, primary_session = _primary(graph)
        replica_sessions = []

        def factory(replicated):
            session = _session_over(replicated)
            replica_sessions.append(session)
            return session

        released = []  # (echoed version, seed, answer)
        with BackgroundService(router) as primary_bg:
            stream = _UpdateStream(graph, seed=99)
            replicas = [
                BackgroundService(
                    ReplicaService(
                        primary_bg.address,
                        "alpha",
                        factory,
                        poll_interval=0.05,
                        seed=PRIMARY_SEED + k,
                    )
                )
                for k in range(self.REPLICAS)
            ]
            for bg in replicas:
                bg.start()
            try:
                with ServiceClient(primary_bg.address) as writer:
                    for round_index in range(self.ROUNDS):
                        out = writer.update(
                            stream.batch(1 + round_index % 3),
                            token=WRITER_TOKEN,
                        )
                        version = out["version"]
                        for k, bg in enumerate(replicas):
                            seed = 1000 + 10 * round_index + k
                            with ServiceClient(bg.address) as reader:
                                result = reader.query(
                                    "triangle",
                                    epsilon=self.EPSILON,
                                    privacy="edge",
                                    seed=seed,
                                    min_version=version,
                                )
                            # the read-your-writes floor guarantees the
                            # replica reached `version`; the answer must
                            # echo the exact version it saw
                            assert result["version"] >= version
                            assert result["dataset"] == "alpha"
                            released.append((result["version"], seed, result["answer"]))
            finally:
                for bg in replicas:
                    bg.stop()
        assert len(released) == self.REPLICAS * self.ROUNDS
        # Byte-identity against fresh sessions over the primary's own
        # versioned store, checked out at each echoed version.
        for version, seed, answer in released:
            fresh = PrivateSession(graph.at_version(version), workers=1)
            expected = fresh.query(
                "triangle", privacy="edge", epsilon=self.EPSILON, rng=seed
            )
            fresh.close()
            assert answer == expected.answer, (version, seed)
        primary_session.close()
        for session in replica_sessions:
            session.close()

    def test_replica_bootstrap_mid_stream_aligns_versions(self):
        """A replica started after updates replays the full log, so its
        version numbers line up with the primary's."""
        graph = _versioned_graph()
        router, primary_session = _primary(graph)
        replica_sessions = []

        def factory(replicated):
            session = _session_over(replicated)
            replica_sessions.append(session)
            return session

        with BackgroundService(router) as primary_bg:
            stream = _UpdateStream(graph, seed=7)
            with ServiceClient(primary_bg.address) as writer:
                out = writer.update(stream.batch(3), token=WRITER_TOKEN)
            primary_version = out["version"]
            replica = BackgroundService(
                ReplicaService(
                    primary_bg.address,
                    "alpha",
                    factory,
                    poll_interval=0.05,
                )
            )
            replica.start()
            try:
                with ServiceClient(replica.address) as reader:
                    hello = reader.hello()
                    assert hello["role"] == "replica"
                    assert hello["default_dataset"] == "alpha"
                    lane = hello["datasets"]["alpha"]
                    assert lane["graph_version"] == primary_version
                    assert lane["updates"] is False
                    # writes are refused on replicas, even with the
                    # primary's valid writer token
                    with pytest.raises(ServiceForbidden, match="updates are disabled"):
                        reader.update(
                            [{"action": "add_node", "node": 5000}],
                            token=WRITER_TOKEN,
                        )
            finally:
                replica.stop()
        primary_session.close()
        for session in replica_sessions:
            session.close()
