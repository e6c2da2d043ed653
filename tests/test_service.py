"""Tests for the network serving layer: protocol, service, client, CLI.

The acceptance pins:

* every answer released over the wire is **byte-identical** to the
  equivalent in-process :class:`~repro.session.PrivateSession` release at
  the same seed;
* N concurrent clients hammering one service leave a ledger whose
  ``fsum`` equals exactly the sum of granted ε, with per-tenant refusals
  independent of cross-tenant interleaving;
* the audit stream replays the ledger bit-for-bit.
"""

from __future__ import annotations

import json
import math
import socket
import threading

import numpy as np
import pytest

from repro import PrivateSession, random_graph_with_avg_degree
from repro.cli import _build_router, _served_session, build_parser, main
from repro.dynamic import VersionedGraph
from repro.errors import (
    ProtocolError,
    ServiceError,
    ServiceForbidden,
    ServiceOverloaded,
)
from repro.service import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    BackgroundService,
    ServiceClient,
    ServiceRouter,
    parse_address,
    request_seed,
    seed_from_wire,
    seed_to_wire,
)
from repro.service.protocol import decode_frame, encode_frame
from repro.session import (
    BudgetExhausted,
    HierarchicalAccountant,
    SharedCompiledCache,
)
from repro.validation import validate_service_request

SERVICE_SEED = 20260729


@pytest.fixture(scope="module")
def graph():
    return random_graph_with_avg_degree(30, 5.0, rng=1)


def _service_session(graph, budget=None, default_user_budget=None, workers=1, rng=7):
    accountant = HierarchicalAccountant(budget, default_user_budget=default_user_budget)
    return PrivateSession(
        graph,
        workers=workers,
        rng=rng,
        accountant=accountant,
        cache=SharedCompiledCache(maxsize=8),
    )


def _serve(session, **router_kwargs):
    """``session`` as the one lane of a router, run in-process."""
    router = ServiceRouter(**router_kwargs)
    router.add_dataset("default", session)
    return BackgroundService(router)


class TestProtocol:
    def test_frame_round_trip(self):
        frame = {"v": 1, "op": "query", "epsilon": 0.5, "user": "alice"}
        assert decode_frame(encode_frame(frame)) == frame

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            decode_frame(b"not json\n")
        with pytest.raises(ProtocolError):
            decode_frame(b"[1, 2]\n")
        with pytest.raises(ProtocolError):
            decode_frame(b"x" * (MAX_FRAME_BYTES + 1))

    def test_seed_wire_round_trip(self):
        seq = np.random.SeedSequence(entropy=99, spawn_key=(3, 1))
        back = seed_from_wire(seed_to_wire(seq))
        assert back.entropy == 99 and back.spawn_key == (3, 1)
        assert seed_from_wire(seed_to_wire(17)) == 17
        assert seed_to_wire(None) is None and seed_from_wire(None) is None

    def test_request_seed_is_pure_and_tenant_separated(self):
        a0 = request_seed(5, "alice", 0)
        assert a0.spawn_key == request_seed(5, "alice", 0).spawn_key
        assert a0.spawn_key != request_seed(5, "bob", 0).spawn_key
        assert a0.spawn_key != request_seed(5, "alice", 1).spawn_key
        # ... and actually drives a generator deterministically
        x = np.random.default_rng(a0).standard_normal()
        y = np.random.default_rng(request_seed(5, "alice", 0)).standard_normal()
        assert x == y

    def test_parse_address_forms(self):
        assert parse_address("tcp://10.0.0.1:8732") == ("10.0.0.1", 8732)
        assert parse_address("localhost:99") == ("localhost", 99)
        assert parse_address(("h", 1)) == ("h", 1)
        assert parse_address("[::1]:8732") == ("::1", 8732)
        assert parse_address("tcp://[fe80::2]:65535") == ("fe80::2", 65535)
        for bad in (
            "no-port",
            "127.0.0.1:70000",
            "127.0.0.1:0",
            "[]:8732",
            ("h", 65536),
            ("h", 0),
        ):
            with pytest.raises(ServiceError):
                parse_address(bad)

    def test_options_must_not_shadow_named_fields(self):
        with pytest.raises(ValueError, match="options"):
            validate_service_request(
                {
                    "v": 1,
                    "op": "query",
                    "query": "triangle",
                    "epsilon": 0.5,
                    "options": {"user": "mallory"},
                }
            )

    def test_validate_request_per_field_errors(self):
        with pytest.raises(ValueError, match="op: required"):
            validate_service_request({"v": 1})
        with pytest.raises(ValueError, match="epsilon: must be"):
            validate_service_request(
                {"v": 1, "op": "query", "query": "triangle", "epsilon": "x"}
            )
        with pytest.raises(ValueError, match="frobnicate: unknown key"):
            validate_service_request(
                {
                    "v": 1,
                    "op": "query",
                    "query": "triangle",
                    "epsilon": 0.5,
                    "frobnicate": True,
                }
            )
        with pytest.raises(ValueError, match="query: required"):
            validate_service_request({"v": 1, "op": "query", "epsilon": 0.5})


class TestServiceEndToEnd:
    def test_answers_byte_identical_to_in_process_session(self, graph):
        """The acceptance pin: wire answers == in-process answers."""
        workload = [
            ("alice", "triangle", "node", 0.4),
            ("bob", "triangle", "edge", 0.3),
            ("alice", "2-star", "edge", 0.2),
            ("bob", "triangle", "edge", 0.3),
        ]
        session = _service_session(graph, budget=4.0)
        remote = {}
        with _serve(session, seed=SERVICE_SEED) as bg:
            with ServiceClient(bg.address) as client:
                for i, (user, query, privacy, eps) in enumerate(workload):
                    result = client.query(
                        query, epsilon=eps, privacy=privacy, user=user
                    )
                    remote[i] = result["answer"]
        session.close()

        # Re-derive every answer from a fresh in-process session using the
        # service's deterministic per-tenant seed scheme.
        reference = PrivateSession(graph, workers=1)
        counts: dict = {}
        for i, (user, query, privacy, eps) in enumerate(workload):
            index = counts.get(user, 0)
            counts[user] = index + 1
            expected = reference.query(
                query,
                epsilon=eps,
                privacy=privacy,
                rng=request_seed(SERVICE_SEED, user, index),
            )
            assert remote[i] == expected.answer, (i, user, query)
        reference.close()

    def test_explicit_int_seed_matches_in_process(self, graph):
        session = _service_session(graph)
        with _serve(session) as bg:
            with ServiceClient(bg.address) as client:
                result = client.query(
                    "triangle", epsilon=0.5, privacy="edge", seed=1234
                )
        session.close()
        expected = PrivateSession(graph).query(
            "triangle", privacy="edge", epsilon=0.5, rng=1234
        )
        assert result["answer"] == expected.answer

    def test_per_user_sub_budgets_enforced_with_tenant_in_error(self, graph):
        session = _service_session(graph, budget=5.0, default_user_budget=0.7)
        with _serve(session) as bg:
            with ServiceClient(bg.address, user="alice") as client:
                client.query("triangle", epsilon=0.5, privacy="edge")
                with pytest.raises(BudgetExhausted) as excinfo:
                    client.query("triangle", epsilon=0.5, privacy="edge")
                assert excinfo.value.user == "alice"
                # bob still has head room under the global cap
                client.query("triangle", epsilon=0.5, privacy="edge", user="bob")
                budget = client.budget(user="alice")
        assert budget["user"]["spent"] == 0.5
        assert session.accountant.user_spent("alice") == 0.5
        assert session.accountant.user_spent("bob") == 0.5
        session.close()

    def test_budget_and_hello_and_ping(self, graph):
        session = _service_session(graph, budget=1.0)
        with _serve(session, name="t") as bg:
            with ServiceClient(bg.address) as client:
                hello = client.hello()
                assert hello["protocol"] == PROTOCOL_VERSION
                assert hello["multi_tenant"] is True
                assert "recursive" in hello["mechanisms"]
                assert client.ping()["pong"] is True
                client.query("triangle", epsilon=0.25, privacy="edge")
                snapshot = client.budget()
        assert snapshot["budget"] == 1.0
        assert snapshot["spent"] == 0.25
        assert snapshot["remaining"] == 0.75
        session.close()

    def test_overload_refusal_is_429_like(self, graph):
        session = _service_session(graph)
        with _serve(session, max_pending=0) as bg:
            with ServiceClient(bg.address) as client:
                with pytest.raises(ServiceOverloaded):
                    client.query("triangle", epsilon=0.5, privacy="edge")
                # non-query ops still served under backpressure
                assert client.ping()["pong"] is True
        # a refused query reserved and spent nothing
        assert len(session.accountant.ledger) == 0
        session.close()

    def test_bad_requests_do_not_kill_the_connection(self, graph):
        session = _service_session(graph)
        with _serve(session) as bg:
            with ServiceClient(bg.address) as client:
                with pytest.raises(ValueError, match="unknown mechanism"):
                    client.query(
                        "triangle", epsilon=0.5, privacy="edge", mechanism="nope"
                    )
                with pytest.raises(ValueError, match="epsilon"):
                    client.query("triangle", epsilon=-1, privacy="edge")
                # the removed legacy-LP switch is an unknown option now
                with pytest.raises(ValueError, match="compiled"):
                    client.query(
                        "triangle",
                        epsilon=0.5,
                        privacy="edge",
                        options={"compiled": False},
                    )
                # same connection keeps serving
                assert client.query("triangle", epsilon=0.5,
                                    privacy="edge")["status"] == "released"
        # the three rejected queries never touched the ledger
        assert [e.status for e in session.accountant.ledger] == ["released"]
        assert session.accountant.spent == 0.5
        session.close()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_workers_option_is_a_bad_request(self, graph, workers):
        """Mechanisms take no worker count: options.workers is refused as
        bad_request before any ε is reserved, pool or no pool."""
        session = _service_session(graph, workers=workers)
        with _serve(session) as bg:
            with ServiceClient(bg.address) as client:
                released = client.query("triangle", epsilon=0.5, privacy="edge")
                assert released["status"] == "released"
                for query in ("triangle", "2-star"):
                    with pytest.raises(ValueError, match="workers"):
                        client.query(
                            query, epsilon=0.5, privacy="edge", options={"workers": 2}
                        )
        assert [e.status for e in session.accountant.ledger] == ["released"]
        assert session.accountant.spent == 0.5
        session.close()

    def test_unsupported_version_and_malformed_frames(self, graph):
        session = _service_session(graph)
        with _serve(session) as bg:
            host, port = bg.address
            with socket.create_connection((host, port), timeout=10) as sock:
                file = sock.makefile("rb")
                sock.sendall(encode_frame({"v": 99, "op": "ping", "id": 1}))
                frame = json.loads(file.readline())
                assert frame["ok"] is False
                assert frame["error"]["code"] == "unsupported_version"
                sock.sendall(b"this is not json\n")
                frame = json.loads(file.readline())
                assert frame["ok"] is False
                assert frame["error"]["code"] == "bad_request"
                # connection still alive
                sock.sendall(
                    encode_frame({"v": PROTOCOL_VERSION, "op": "ping", "id": 2})
                )
                assert json.loads(file.readline())["ok"] is True
        session.close()

    def test_global_cap_refusal_carries_no_tenant(self, graph):
        """A refusal by the *shared* cap must not blame the requester."""
        session = _service_session(graph, budget=0.5)
        with _serve(session) as bg:
            with ServiceClient(bg.address, user="alice") as client:
                client.query("triangle", epsilon=0.4, privacy="edge")
                with pytest.raises(BudgetExhausted) as excinfo:
                    client.query("triangle", epsilon=0.4, privacy="edge")
        assert excinfo.value.user is None  # same as the in-process API
        session.close()

    def test_large_frames_within_protocol_bound_are_served(self, graph):
        """Frames over asyncio's 64 KiB default (but under the protocol's
        1 MiB bound) must be answered, not dropped."""
        session = _service_session(graph)
        with _serve(session) as bg:
            with ServiceClient(bg.address) as client:
                big = "x" * (100 * 1024)
                with pytest.raises(ValueError, match="label"):
                    # 100 KB frame round-trips; it fails *validation*
                    # (label type), proving the server parsed it.
                    client.query(
                        "triangle", epsilon=0.5, privacy="edge", label={"huge": big}
                    )
                assert client.ping()["pong"] is True
        session.close()

    def test_oversized_frame_is_refused_and_connection_dropped(self, graph):
        session = _service_session(graph)
        with _serve(session) as bg:
            host, port = bg.address
            with socket.create_connection((host, port), timeout=30) as sock:
                file = sock.makefile("rb")
                sock.sendall(b'{"pad": "' + b"x" * (MAX_FRAME_BYTES + 16) + b'"}\n')
                frame = json.loads(file.readline())
                assert frame["ok"] is False
                assert "exceeds" in frame["error"]["message"]
                assert file.readline() == b""  # server closed the stream
        session.close()

    def test_audit_stream_replays_ledger(self, graph):
        session = _service_session(graph, budget=2.0)
        with _serve(session, seed=3) as bg:
            with ServiceClient(bg.address, user="alice") as client:
                client.query("triangle", epsilon=0.5, privacy="edge")
                client.query("triangle", epsilon=0.25, privacy="edge", user="bob")
                audit = client.audit(replay=True)
                alice_only = client.audit(user="alice")
        assert audit["count"] == 2 and audit["matched"] == 2
        assert all(e["matches"] for e in audit["entries"])
        assert [e["entry"]["user"] for e in audit["entries"]] == \
            ["alice", "bob"]
        assert audit["spent"] == 0.75
        assert alice_only["count"] == 1
        assert alice_only["entries"][0]["entry"]["user"] == "alice"
        session.close()


class TestConcurrentClients:
    USERS = [f"user{i}" for i in range(5)]
    EPS = 0.3
    PER_USER_CAP = 0.7  # grants 2 x 0.3, refuses the third
    ATTEMPTS = 3

    def _hammer(self, address, user, outcomes, errors):
        try:
            with ServiceClient(address, user=user, timeout=120.0) as client:
                for _ in range(self.ATTEMPTS):
                    try:
                        result = client.query(
                            "triangle", epsilon=self.EPS, privacy="edge"
                        )
                        outcomes[user].append(("ok", result["answer"]))
                    except BudgetExhausted as refusal:
                        outcomes[user].append(("refused", refusal.user))
        except BaseException as error:  # surface thread failures
            errors.append((user, error))

    def test_hammering_ledger_exact_and_deterministic(self, graph):
        """N concurrent clients: ledger sums exactly, refusals and answers
        are independent of interleaving."""
        session = _service_session(
            graph, budget=10.0, default_user_budget=self.PER_USER_CAP
        )
        outcomes = {user: [] for user in self.USERS}
        errors: list = []
        with _serve(session, seed=SERVICE_SEED) as bg:
            threads = [
                threading.Thread(
                    target=self._hammer, args=(bg.address, user, outcomes, errors)
                )
                for user in self.USERS
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        assert not errors, errors
        assert all(not t.is_alive() for t in threads)

        # Refusals deterministic: every user gets exactly 2 grants then a
        # refusal naming that user, regardless of interleaving.
        for user in self.USERS:
            kinds = [kind for kind, _ in outcomes[user]]
            assert kinds == ["ok", "ok", "refused"], (user, kinds)
            assert outcomes[user][2][1] == user

        # Ledger total is exactly the fsum of granted epsilon.
        granted = [self.EPS] * (2 * len(self.USERS))
        assert session.accountant.spent == math.fsum(granted)
        assert len(session.accountant.ledger) == len(granted)
        assert session.accountant.reserved == 0.0

        # Answers byte-identical to the serial in-process path.
        reference = PrivateSession(graph, workers=1)
        for user in self.USERS:
            for index in range(2):
                expected = reference.query(
                    "triangle",
                    privacy="edge",
                    epsilon=self.EPS,
                    rng=request_seed(SERVICE_SEED, user, index),
                )
                assert outcomes[user][index][1] == expected.answer
        reference.close()

        # And the whole ledger replays bit-for-bit.
        assert session.verify_ledger()
        session.close()


class TestSharedCacheAcrossSessions:
    def test_two_sessions_share_one_compiled_relation(self, graph):
        cache = SharedCompiledCache(maxsize=4)
        s1 = PrivateSession(graph, cache=cache)
        s2 = PrivateSession(graph, cache=cache)
        a = s1.query("triangle", privacy="edge", epsilon=0.5, rng=3)
        b = s2.query("triangle", privacy="edge", epsilon=0.5, rng=3)
        assert a.answer == b.answer
        info = cache.info()
        assert info.misses == 1 and info.hits == 1 and info.size == 1
        s1.close()
        s2.close()

    def test_different_datasets_never_share_entries(self, graph):
        """A shared cache must key on the dataset: sessions over
        different graphs must not exchange compiled programs."""
        other = random_graph_with_avg_degree(30, 5.0, rng=99)
        cache = SharedCompiledCache(maxsize=8)
        s1 = PrivateSession(graph, cache=cache)
        s2 = PrivateSession(other, cache=cache)
        a = s1.query("triangle", privacy="edge", epsilon=0.5, rng=3)
        b = s2.query("triangle", privacy="edge", epsilon=0.5, rng=3)
        assert cache.info().misses == 2 and cache.info().hits == 0
        assert a.true_answer != b.true_answer  # genuinely different graphs
        # each session's answer equals its own private-cache run
        fresh = PrivateSession(other).query(
            "triangle", privacy="edge", epsilon=0.5, rng=3
        )
        assert b.answer == fresh.answer
        s1.close()
        s2.close()

    def test_lru_eviction_respects_bound(self, graph):
        cache = SharedCompiledCache(maxsize=2)
        session = PrivateSession(graph, cache=cache)
        session.query("triangle", privacy="edge", epsilon=0.1, rng=1)
        session.query("2-star", privacy="edge", epsilon=0.1, rng=1)
        session.query("triangle", privacy="edge", epsilon=0.1, rng=1)  # hit
        session.query("3-star", privacy="edge", epsilon=0.1, rng=1)
        info = cache.info()
        assert info.size == 2 and info.evictions == 1
        # 2-star was the LRU entry and got evicted; triangle survived
        session.query("triangle", privacy="edge", epsilon=0.1, rng=1)
        assert cache.info().hits == 2
        session.query("2-star", privacy="edge", epsilon=0.1, rng=1)
        assert cache.info().misses == 4  # recompiled after eviction
        session.close()


class TestRemoteBatchCLI:
    SPEC = {
        "seed": 11,
        "queries": [
            {"query": "triangle", "privacy": "node", "epsilon": 0.5, "user": "alice"},
            # an explicit-seed item must not shift the derived stream
            {
                "query": "triangle",
                "privacy": "edge",
                "epsilon": 0.25,
                "user": "carol",
                "seed": 77,
                "label": "pinned",
            },
            {"query": "triangle", "privacy": "node", "epsilon": 0.25, "user": "bob"},
            {
                "query": "triangle",
                "privacy": "node",
                "epsilon": 0.5,
                "user": "alice",
                "label": "over",
            },
        ],
    }

    def test_remote_batch_matches_local_batch(self, graph, tmp_path, capsys):
        """`repro batch --remote` answers == local `repro batch` answers."""
        from repro.cli import main

        local_spec = dict(self.SPEC)
        local_spec["graph"] = {"nodes": 30, "avgdeg": 5, "seed": 1}
        local_spec["budget"] = 1.0
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(local_spec))
        assert main(["batch", str(path)]) == 0
        local_out = capsys.readouterr().out

        session = _service_session(graph, budget=1.0, rng=11)
        with _serve(session) as bg:
            host, port = bg.address
            remote_path = tmp_path / "remote_spec.json"
            remote_path.write_text(json.dumps(self.SPEC))
            code = main(
                ["batch", str(remote_path), "--remote", f"{host}:{port}", "--audit-log"]
            )
        session.close()
        assert code == 0
        remote_out = capsys.readouterr().out

        def answers(text):
            rows = {}
            for line in text.splitlines():
                parts = line.split()
                if parts and parts[0] in ("q0", "pinned", "q2", "over"):
                    rows[parts[0]] = parts[-1]
            return rows

        local_rows, remote_rows = answers(local_out), answers(remote_out)
        assert set(local_rows) == {"q0", "pinned", "q2", "over"}
        assert local_rows == remote_rows
        assert local_rows["over"] == "-"  # refused in both runs
        assert '"matches": true' in remote_out


class TestServiceConstruction:
    def test_rejects_non_session(self, graph):
        with pytest.raises(TypeError):
            ServiceRouter().add_dataset("d", object())
        session = PrivateSession(graph)
        with pytest.raises(TypeError, match="ServiceRouter"):
            BackgroundService(session)
        session.close()

    def test_rejects_bad_max_pending(self):
        with pytest.raises(ValueError):
            ServiceRouter(max_pending=-1)

    def test_serve_parser_flags(self):
        args = build_parser().parse_args([
            "serve", "--nodes", "40", "--epsilon", "2.0",
            "--user-epsilon", "0.5", "--port", "0",
            "--user-budget", "alice=1.0",
        ])
        assert args.command == "serve"
        assert args.epsilon == 2.0
        assert args.user_budget == ["alice=1.0"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--epsilon", "-1"])


class TestServeBuilder:
    """``repro serve``/``repro replica`` build their sessions in one place
    (:func:`repro.cli._served_session`, mounted by ``_build_router``)."""

    # (user, query, privacy, epsilon): alice's third and bob's third
    # query overrun the 1.0 per-user cap; the rest fit under 2.0 globally.
    WORKLOAD = [
        ("alice", "triangle", "node", 0.4),
        ("bob", "triangle", "edge", 0.3),
        ("alice", "2-star", "edge", 0.4),
        ("bob", "triangle", "node", 0.5),
        ("alice", "triangle", "edge", 0.4),
        ("bob", "2-star", "edge", 0.3),
        ("bob", "triangle", "edge", 0.1),
        ("alice", "triangle", "node", 0.1),
    ]
    BUDGET_FLAGS = ["--epsilon", "2.0", "--user-epsilon", "1.0", "--seed", "7"]

    def _wire_outcomes(self, argv):
        router, sessions = _build_router(build_parser().parse_args(argv))
        outcomes = []
        try:
            with BackgroundService(router) as bg, ServiceClient(bg.address) as client:
                for user, query, privacy, eps in self.WORKLOAD:
                    try:
                        result = client.query(
                            query, epsilon=eps, privacy=privacy, user=user
                        )
                        outcomes.append(result["answer"])
                    except BudgetExhausted as refusal:
                        outcomes.append(("refused", refusal.user))
        finally:
            for session in sessions:
                session.close()
        return router, outcomes

    def test_single_graph_flags_answer_like_the_one_entry_config(
        self, graph, tmp_path
    ):
        flags_router, from_flags = self._wire_outcomes(
            ["serve", "--nodes", "30", "--avgdeg", "5", "--graph-seed", "1"]
            + self.BUDGET_FLAGS
        )
        path = tmp_path / "datasets.json"
        path.write_text(json.dumps({"datasets": {
            "default": {"graph": {"nodes": 30, "avgdeg": 5, "seed": 1}},
        }}))
        config_router, from_config = self._wire_outcomes(
            ["serve", "--datasets", str(path)] + self.BUDGET_FLAGS
        )
        assert flags_router.datasets == config_router.datasets == ("default",)
        assert flags_router.lane().session.name == "serve[default]"
        assert repr(from_flags) == repr(from_config)
        refused = [i for i, o in enumerate(from_flags) if isinstance(o, tuple)]
        assert refused == [4, 5]
        assert from_flags[4] == ("refused", "alice")
        # every granted answer is the in-process release at the server's
        # derived per-tenant seed
        reference = PrivateSession(graph, workers=1)
        granted: dict = {}
        for (user, query, privacy, eps), outcome in zip(self.WORKLOAD, from_flags):
            if isinstance(outcome, tuple):
                continue
            index = granted.get(user, 0)
            granted[user] = index + 1
            expected = reference.query(
                query, epsilon=eps, privacy=privacy,
                rng=request_seed(7, user, index),
            )
            assert outcome == expected.answer
        reference.close()

    def test_user_budget_is_every_datasets_default(self, tmp_path, capsys):
        path = tmp_path / "datasets.json"
        path.write_text(json.dumps({"datasets": {
            "alpha": {"graph": {"nodes": 12, "avgdeg": 3, "seed": 1}},
            "beta": {"graph": {"nodes": 12, "avgdeg": 3, "seed": 2},
                     "user_budgets": {"alice": 0.5}},
        }}))
        argv = ["serve", "--datasets", str(path), "--user-budget", "alice=0.1"]
        router, sessions = _build_router(build_parser().parse_args(argv))
        for session in sessions:
            session.close()
        assert router.lane("alpha").session.accountant.user_budget("alice") == 0.1
        # a dataset's own user_budgets win over the flag
        assert router.lane("beta").session.accountant.user_budget("alice") == 0.5
        with pytest.raises(ValueError, match="USER=EPS"):
            _build_router(build_parser().parse_args(
                argv + ["--user-budget", "garbage"]
            ))
        assert main(["serve", "--nodes", "10", "--user-budget", "bob=-1"]) == 2
        assert "not a positive finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("entry, named", [
        # a typo'd key must not mount alpha with no cap and carol uncapped
        ({"user_budget": {"carol": 0.1}, "budgt": 1.0},
         ["datasets.alpha.user_budget", "datasets.alpha.budgt"]),
        (5, ["datasets.alpha: must be an object"]),
    ], ids=["typo", "non-object"])
    def test_datasets_config_names_the_bad_entry(
        self, tmp_path, capsys, entry, named
    ):
        path = tmp_path / "datasets.json"
        path.write_text(json.dumps({"datasets": {"alpha": entry}}))
        argv = ["serve", "--datasets", str(path)]
        with pytest.raises(ValueError) as excinfo:
            _build_router(build_parser().parse_args(argv))
        for fragment in named:
            assert fragment in str(excinfo.value)
        assert main(argv) == 2
        assert named[0] in capsys.readouterr().err

    def test_updates_flags_mount_a_token_gated_dynamic_lane(self):
        router, sessions = _build_router(build_parser().parse_args([
            "serve", "--nodes", "20", "--avgdeg", "4", "--seed", "3",
            "--updates", "--update-token", "t",
        ]))
        lane = router.lane()
        assert lane.updates_enabled and lane.session.dynamic
        with BackgroundService(router) as bg, ServiceClient(bg.address) as client:
            with pytest.raises(ServiceForbidden, match="token"):
                client.update([{"action": "add_node", "node": 99}])
            outcome = client.update([{"action": "add_node", "node": 99}], token="t")
        assert outcome["version"] == 1
        for session in sessions:
            session.close()

    def test_replica_session_carries_its_epsilon_cap(self):
        args = build_parser().parse_args([
            "replica", "--primary", "127.0.0.1:1", "--dataset", "alpha",
            "--epsilon", "0.7", "--seed", "5",
        ])
        graph = VersionedGraph(random_graph_with_avg_degree(12, 3.0, rng=1))
        session = _served_session(args, args.dataset, graph, {})
        assert session.name == "replica[alpha]"
        assert session.accountant.budget == 0.7
        with pytest.raises(BudgetExhausted):
            session.query("triangle", epsilon=0.8, privacy="edge")
        session.query("triangle", epsilon=0.5, privacy="edge")
        assert session.accountant.spent == 0.5
        session.close()
