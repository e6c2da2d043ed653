"""Tests for the protocol-v2 multi-dataset router (:mod:`repro.service.router`).

The acceptance pins:

* a v1 client (raw ``v: 1`` frames, no ``dataset`` field) against a v2
  router gets **byte-identical** answers to a one-lane router serving
  that dataset alone at the same seed — the default-dataset
  compatibility contract;
* explicit and default routing to the same dataset agree; routing to a
  different dataset answers over that dataset's graph;
* per-dataset writer tokens, per-dataset cache/stats counters, and the
  ``min_version`` / ``at_version`` consistency surface all behave as
  declared by the v2 ``hello``.
"""

from __future__ import annotations

import dataclasses
import json
import socket
import time

import pytest

from repro import PrivateSession, random_graph_with_avg_degree
from repro.dynamic import VersionedGraph
from repro.errors import RemoteServiceError, ServiceForbidden
from repro.obs import metrics
from repro.service import (
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
    BackgroundService,
    ResultFrame,
    ServiceClient,
    ServiceRouter,
    request_seed,
)
from repro.service.protocol import encode_frame
from repro.service.router import CAPABILITIES
from repro.session import HierarchicalAccountant, SharedCompiledCache

ROUTER_SEED = 20260801


@pytest.fixture(scope="module")
def alpha_graph():
    return random_graph_with_avg_degree(30, 5.0, rng=1)


@pytest.fixture(scope="module")
def beta_graph():
    return random_graph_with_avg_degree(24, 4.0, rng=2)


def _session(graph, *, cache=None, budget=None, user_budget=None, rng=7):
    accountant = HierarchicalAccountant(budget, default_user_budget=user_budget)
    return PrivateSession(
        graph,
        workers=1,
        rng=rng,
        accountant=accountant,
        cache=cache if cache is not None else SharedCompiledCache(maxsize=8),
    )


def _two_dataset_router(
    alpha_graph, beta_graph, *, seed=ROUTER_SEED, cache=None, **router_kwargs
):
    """A router serving static ``alpha`` (default) and ``beta``."""
    router = ServiceRouter(seed=seed, **router_kwargs)
    shared = cache if cache is not None else SharedCompiledCache(maxsize=16)
    sessions = [
        _session(alpha_graph, cache=shared.namespaced("alpha")),
        _session(beta_graph, cache=shared.namespaced("beta")),
    ]
    router.add_dataset("alpha", sessions[0], default=True)
    router.add_dataset("beta", sessions[1])
    return router, sessions


def _close_all(sessions):
    for session in sessions:
        session.close()


class TestHelloAndMounting:
    def test_hello_v2_shape(self, alpha_graph, beta_graph):
        router, sessions = _two_dataset_router(alpha_graph, beta_graph)
        with BackgroundService(router) as bg:
            with ServiceClient(bg.address) as client:
                hello = client.hello()
        assert hello["protocol"] == PROTOCOL_VERSION == 2
        assert hello["protocols"] == list(SUPPORTED_VERSIONS) == [1, 2]
        assert set(CAPABILITIES) <= set(hello["capabilities"])
        # no replication feed: a lane's accountant is the dataset's only ledger
        assert not {"snapshot", "log"} & set(hello["capabilities"])
        assert hello["default_dataset"] == "alpha"
        assert set(hello["datasets"]) == {"alpha", "beta"}
        for row in hello["datasets"].values():
            assert row["updates"] is False and row["dynamic"] is False
            assert row["graph_version"] is None
            assert row["lp_backend"] == sessions[0].lp_backend
        # v1-compat keys still describe the default dataset
        assert hello["multi_tenant"] is True
        assert hello["updates"] is False
        assert "budget" in hello and "mechanisms" in hello
        _close_all(sessions)

    def test_mounting_rules(self, alpha_graph):
        router = ServiceRouter()
        with pytest.raises(KeyError, match="no datasets"):
            router.lane()
        session = _session(alpha_graph)
        router.add_dataset("alpha", session)
        assert router.default_dataset == "alpha"  # first mount is default
        with pytest.raises(ValueError, match="already mounted"):
            router.add_dataset("alpha", session)
        with pytest.raises(ValueError, match="non-empty string"):
            router.add_dataset("", session)
        with pytest.raises(TypeError, match="PrivateSession"):
            router.add_dataset("other", object())
        with pytest.raises(ValueError, match="dynamic"):
            router.add_dataset("upd", _session(alpha_graph), updates=True)
        session.close()


class TestRouting:
    def test_default_and_explicit_routing_identical(self, alpha_graph, beta_graph):
        router, sessions = _two_dataset_router(alpha_graph, beta_graph)
        with BackgroundService(router) as bg:
            with ServiceClient(bg.address) as client:
                implicit = client.query(
                    "triangle", epsilon=0.25, privacy="edge", seed=4242
                )
                explicit = client.query(
                    "triangle", epsilon=0.25, privacy="edge", seed=4242, dataset="alpha"
                )
        assert implicit["dataset"] == explicit["dataset"] == "alpha"
        assert implicit["answer"] == explicit["answer"]
        _close_all(sessions)

    def test_datasets_answer_over_their_own_graphs(self, alpha_graph, beta_graph):
        router, sessions = _two_dataset_router(alpha_graph, beta_graph)
        with BackgroundService(router) as bg:
            # a client pinned to beta via the constructor kwarg ...
            with ServiceClient(bg.address, dataset="beta") as client:
                beta = client.query("triangle", epsilon=0.25, privacy="edge", seed=4242)
                # ... can still route per call
                alpha = client.query(
                    "triangle", epsilon=0.25, privacy="edge", seed=4242, dataset="alpha"
                )
        assert beta["dataset"] == "beta" and alpha["dataset"] == "alpha"
        expected_beta = PrivateSession(beta_graph).query(
            "triangle", privacy="edge", epsilon=0.25, rng=4242
        )
        assert beta["answer"] == expected_beta.answer
        assert alpha["answer"] != beta["answer"]
        _close_all(sessions)

    def test_unknown_dataset_is_refused(self, alpha_graph, beta_graph):
        router, sessions = _two_dataset_router(alpha_graph, beta_graph)
        with BackgroundService(router) as bg:
            with ServiceClient(bg.address) as client:
                with pytest.raises(
                    RemoteServiceError, match="unknown_dataset"
                ) as excinfo:
                    client.query(
                        "triangle", epsilon=0.25, privacy="edge", dataset="gamma"
                    )
        assert "alpha" in str(excinfo.value)  # served datasets are listed
        _close_all(sessions)

    def test_per_dataset_seed_streams_are_independent(self, alpha_graph, beta_graph):
        """Each lane advances its own per-tenant granted counter."""
        router, sessions = _two_dataset_router(alpha_graph, beta_graph)
        with BackgroundService(router) as bg:
            with ServiceClient(bg.address, user="alice") as client:
                a0 = client.query("triangle", epsilon=0.2, privacy="edge")
                client.query("triangle", epsilon=0.2, privacy="edge", dataset="beta")
                a1 = client.query("triangle", epsilon=0.2, privacy="edge")
        reference = PrivateSession(alpha_graph, workers=1)
        for index, result in enumerate((a0, a1)):
            expected = reference.query(
                "triangle",
                privacy="edge",
                epsilon=0.2,
                rng=request_seed(ROUTER_SEED, "alice", index),
            )
            # the beta query in between must not shift alpha's stream
            assert result["answer"] == expected.answer
        reference.close()
        _close_all(sessions)

    def test_merged_metrics_never_move_lane_state(self, alpha_graph, beta_graph):
        """Seed indices and in-flight counts are lane state, not telemetry:
        merging a payload that carries the lane's own labels (as a worker
        envelope or a scraped snapshot can) changes neither."""
        router, sessions = _two_dataset_router(alpha_graph, beta_graph)
        lane = router.lane("alpha")
        labels = dict(lane._obs_labels)
        with BackgroundService(router) as bg:
            with ServiceClient(bg.address, user="alice") as client:
                a0 = client.query("triangle", epsilon=0.2, privacy="edge")
                metrics().merge({"metrics": [
                    {"name": "repro_lane_granted_total", "kind": "counter",
                     "labels": dict(labels, user="alice"), "value": 3.0},
                    {"name": "repro_lane_inflight", "kind": "gauge",
                     "labels": labels, "value": 64.0},
                ]})
                assert lane.granted["alice"] == 1
                assert lane.inflight == 0
                # admitted (not "overloaded"), at alice's second seed
                a1 = client.query("triangle", epsilon=0.2, privacy="edge")
        reference = PrivateSession(alpha_graph, workers=1)
        for index, result in enumerate((a0, a1)):
            expected = reference.query(
                "triangle",
                privacy="edge",
                epsilon=0.2,
                rng=request_seed(ROUTER_SEED, "alice", index),
            )
            assert result["answer"] == expected.answer
        reference.close()
        _close_all(sessions)


class TestV1Compatibility:
    def test_v1_frames_route_to_default_and_match_classic_service(self, alpha_graph):
        """A v1 client against the two-lane router == a one-lane router."""
        classic_session = _session(alpha_graph)
        one_lane = ServiceRouter(seed=ROUTER_SEED)
        one_lane.add_dataset("default", classic_session)
        with BackgroundService(one_lane) as bg:
            with ServiceClient(bg.address) as client:
                classic = client.query("triangle", epsilon=0.3, privacy="edge")
        classic_session.close()

        router, sessions = _two_dataset_router(
            alpha_graph, random_graph_with_avg_degree(10, 2.0, rng=9)
        )
        with BackgroundService(router) as bg:
            host, port = bg.address
            with socket.create_connection((host, port), timeout=30) as sock:
                file = sock.makefile("rb")
                sock.sendall(encode_frame({"v": 1, "id": 1, "op": "hello"}))
                hello = json.loads(file.readline())
                assert hello["v"] == 1 and hello["ok"] is True
                sock.sendall(
                    encode_frame(
                        {
                            "v": 1,
                            "id": 2,
                            "op": "query",
                            "query": "triangle",
                            "epsilon": 0.3,
                            "privacy": "edge",
                        }
                    )
                )
                frame = json.loads(file.readline())
        assert frame["v"] == 1 and frame["ok"] is True
        # no dataset field -> the default lane, same derived seed stream
        assert frame["result"]["dataset"] == "alpha"
        assert frame["result"]["answer"] == classic["answer"]
        _close_all(sessions)


class TestResultFrame:
    def test_query_payload_is_the_declared_frame(self, alpha_graph, beta_graph):
        router, sessions = _two_dataset_router(alpha_graph, beta_graph)
        with BackgroundService(router) as bg:
            with ServiceClient(bg.address, user="alice") as client:
                result = client.query(
                    "triangle", epsilon=0.25, privacy="edge", label="first"
                )
        fields = {f.name for f in dataclasses.fields(ResultFrame)}
        assert set(result) == fields  # every key on the wire, no ad-hoc ones
        frame = ResultFrame.from_payload(result)
        assert frame.dataset == "alpha"
        assert frame.user == "alice" and frame.label == "first"
        assert frame.status == "released" and frame.index == 0
        assert frame.lp_backend == sessions[0].lp_backend
        assert frame.version is None  # static dataset
        assert frame.seed is not None
        _close_all(sessions)

    def test_from_payload_ignores_unknown_keys(self):
        payload = {"answer": 1.5, "status": "released", "novel_field": True}
        frame = ResultFrame.from_payload(payload)
        assert frame.answer == 1.5 and frame.dataset is None


class TestWriterAuthAndVersions:
    def _dynamic_router(self, *, min_version_wait=0.3):
        router = ServiceRouter(seed=ROUTER_SEED, min_version_wait=min_version_wait)
        graphs = {
            "alpha": VersionedGraph(random_graph_with_avg_degree(20, 3.0, rng=3)),
            "beta": VersionedGraph(random_graph_with_avg_degree(20, 3.0, rng=4)),
        }
        sessions = []
        for name, graph in graphs.items():
            session = _session(graph)
            sessions.append(session)
            router.add_dataset(
                name,
                session,
                updates=True,
                writer_token=f"{name}-key",
                default=(name == "alpha"),
            )
        return router, sessions, graphs

    def test_writer_tokens_are_per_dataset(self):
        router, sessions, _ = self._dynamic_router()
        with BackgroundService(router) as bg:
            with ServiceClient(bg.address) as client:
                action = [{"action": "add_edge", "u": 100, "v": 101}]
                with pytest.raises(ServiceForbidden, match="writer token"):
                    client.update(action, token="beta-key")  # wrong lane's
                out = client.update(action, token="alpha-key")
                assert out["dataset"] == "alpha" and out["version"] == 1
                # beta is untouched by alpha's update
                stats = client.stats()
        assert stats["datasets"]["alpha"]["graph_version"] == 1
        assert stats["datasets"]["beta"]["graph_version"] == 0
        _close_all(sessions)

    def test_min_version_gates_and_version_behind(self):
        router, sessions, _ = self._dynamic_router(min_version_wait=0.3)
        with BackgroundService(router) as bg:
            with ServiceClient(bg.address) as client:
                # already satisfied: no wait
                ok = client.query(
                    "triangle", epsilon=0.2, privacy="edge", min_version=0
                )
                assert ok["version"] == 0
                with pytest.raises(RemoteServiceError, match="version_behind"):
                    client.query("triangle", epsilon=0.2, privacy="edge", min_version=5)
                # read-your-writes: write then read at the write's version
                out = client.update(
                    [{"action": "add_edge", "u": 200, "v": 201}],
                    token="alpha-key",
                )
                res = client.query(
                    "triangle", epsilon=0.2, privacy="edge", min_version=out["version"]
                )
                assert res["version"] == out["version"] == 1
        _close_all(sessions)

    def test_static_lane_refuses_unmet_floor_at_once(self, alpha_graph, beta_graph):
        """Nothing can advance a lane with updates disabled, so an unmet
        ``min_version`` is refused without parking for the wait bound."""
        router, sessions = _two_dataset_router(
            alpha_graph, beta_graph, min_version_wait=30.0
        )
        with BackgroundService(router) as bg:
            with ServiceClient(bg.address) as client:
                start = time.perf_counter()
                with pytest.raises(RemoteServiceError, match="version_behind"):
                    client.query("triangle", epsilon=0.2, privacy="edge", min_version=1)
                assert time.perf_counter() - start < 1.0
                ok = client.query("triangle", epsilon=0.2, privacy="edge", min_version=0)
        assert ok["version"] is None
        assert sessions[0].accountant.spent == pytest.approx(0.2)
        _close_all(sessions)

    def test_replication_ops_are_refused(self):
        """``snapshot`` and ``log`` are not wire ops: a lane's accountant
        is the only way to release against its dataset."""
        router, sessions, _ = self._dynamic_router()
        frames = [
            {"v": 2, "id": "s1", "op": "snapshot", "dataset": "alpha"},
            {"v": 2, "id": "l1", "op": "log", "dataset": "alpha", "since": 0},
        ]
        with BackgroundService(router) as bg:
            with socket.create_connection(bg.address, timeout=30) as sock:
                file = sock.makefile("rb")
                replies = []
                for frame in frames:
                    sock.sendall(encode_frame(frame))
                    replies.append(json.loads(file.readline()))
        for frame, reply in zip(frames, replies):
            assert reply["id"] == frame["id"] and reply["ok"] is False
            assert reply["error"]["code"] == "bad_request"
        for session in sessions:
            assert session.accountant.spent == 0
            assert not session.accountant.ledger
        _close_all(sessions)

    def test_at_version_answers_historical_graph(self):
        router, sessions, graphs = self._dynamic_router()
        with BackgroundService(router) as bg:
            with ServiceClient(bg.address) as client:
                # fresh node ids: both edges are genuinely new, so the
                # batch commits exactly two versions
                client.update(
                    [
                        {"action": "add_edge", "u": 100, "v": 101},
                        {"action": "add_edge", "u": 100, "v": 102},
                    ],
                    token="alpha-key",
                )
                historical = client.query(
                    "triangle", epsilon=0.25, privacy="edge", seed=777, at_version=0
                )
                live = client.query("triangle", epsilon=0.25, privacy="edge", seed=777)
        assert historical["version"] == 0 and live["version"] == 2
        fresh = PrivateSession(graphs["alpha"].at_version(0), workers=1)
        expected = fresh.query("triangle", privacy="edge", epsilon=0.25, rng=777)
        fresh.close()
        assert historical["answer"] == expected.answer
        _close_all(sessions)


class TestPerDatasetStats:
    def test_cache_counters_are_namespaced(self, alpha_graph, beta_graph):
        shared = SharedCompiledCache(maxsize=16)
        router, sessions = _two_dataset_router(alpha_graph, beta_graph, cache=shared)
        with BackgroundService(router) as bg:
            with ServiceClient(bg.address) as client:
                client.query("triangle", epsilon=0.1, privacy="edge", seed=1)
                client.query("triangle", epsilon=0.1, privacy="edge",
                             seed=2)  # same compiled relation: a hit
                client.query(
                    "triangle", epsilon=0.1, privacy="edge", seed=3, dataset="beta"
                )
                stats = client.stats()
        alpha = stats["datasets"]["alpha"]
        beta = stats["datasets"]["beta"]
        assert alpha["cache"]["misses"] == 1 and alpha["cache"]["hits"] == 1
        assert beta["cache"]["misses"] == 1 and beta["cache"]["hits"] == 0
        assert alpha["granted"] == 0  # explicit seeds don't advance streams
        assert stats["default_dataset"] == "alpha"
        # one store underneath: both datasets' entries count to the bound
        assert shared.info().size == 2
        _close_all(sessions)

    def test_namespaced_views_do_not_share_entries(self, alpha_graph):
        """One graph under two dataset names compiles twice — namespaces
        isolate tenants even when the data coincides."""
        shared = SharedCompiledCache(maxsize=8)
        s1 = PrivateSession(alpha_graph, cache=shared.namespaced("one"))
        s2 = PrivateSession(alpha_graph, cache=shared.namespaced("two"))
        a = s1.query("triangle", privacy="edge", epsilon=0.2, rng=5)
        b = s2.query("triangle", privacy="edge", epsilon=0.2, rng=5)
        assert a.answer == b.answer  # same graph, same seed
        assert shared.namespaced("one").info().misses == 1
        assert shared.namespaced("two").info().misses == 1
        assert shared.namespaced("two").info().hits == 0
        assert shared.info().size == 2
        s1.close()
        s2.close()


class TestClientSurface:
    def test_positional_host_port_ctor_is_gone(self):
        with pytest.raises(TypeError):
            ServiceClient("127.0.0.1", 8732)

    def test_connect_context_manager(self, alpha_graph):
        session = _session(alpha_graph)
        router = ServiceRouter()
        router.add_dataset("alpha", session)
        with BackgroundService(router) as bg:
            host, port = bg.address
            with ServiceClient(f"{host}:{port}").connect() as client:
                assert client.ping()["pong"] is True
        session.close()

    def test_connect_surfaces_connection_errors_eagerly(self):
        client = ServiceClient("127.0.0.1:1")  # nothing listens on port 1
        with pytest.raises(OSError):
            client.connect()
