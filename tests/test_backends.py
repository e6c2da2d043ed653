"""The solver-backend registry: discovery, selection, and identity plumbing.

Pins the registry contract introduced with the pluggable-backend refactor:

* **registry** — ``backends.get``/``create``/``resolve`` honour names and
  aliases, reject unknown names with the list of registered backends,
  report unavailable backends (an out-of-tree backend missing its module)
  with an actionable message naming the missing module and the fallback,
  and refuse objects without ``build_persistent``;
* **selection** — ``REPRO_LP_BACKEND`` overrides the static-preference
  auto-detect order, and the CLI ``--lp-backend`` knob validates eagerly;
* **identity** — the chosen backend's ``cache_token`` flows into session
  cache keys, ``lp_backend`` into audit-ledger entries and the service
  ``hello`` frame;
* **statuses** — one canonical status vocabulary shared by every backend.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.boolexpr import Var
from repro.errors import LPError
from repro.graphs import random_graph_with_avg_degree
from repro.lp import ScipyBackend, backends, status
from repro.lp.backends import BACKEND_ENV, PersistentModel, SolverBackend
from repro.relax.encode import EncodedRelation
from repro.session import PrivateSession
from repro.subgraphs import triangle

AVAILABLE = tuple(backends.available())


class MissingModuleBackend(SolverBackend):
    """An out-of-tree backend whose solver module is not installed."""

    name = "dummy-missing"
    aliases = ("dummy-alias",)
    preference = 99

    @classmethod
    def availability(cls):
        return False, "No module named 'dummy_solver'"


class PluginBackend(ScipyBackend):
    """An out-of-tree backend that is available (it reuses linprog)."""

    name = "dummy-plugin"
    aliases = ()  # leave ScipyBackend's "linprog" alias with scipy
    preference = 1


class SolveOnlyBackend:
    """An object with only a one-shot ``solve_arrays``, not the contract."""

    def solve_arrays(self, *args, **kwargs):
        raise AssertionError("never called")


@pytest.fixture
def scratch_registry(monkeypatch):
    """Let a test register backends without leaking them to the suite."""
    monkeypatch.setattr(backends, "_REGISTRY", dict(backends._REGISTRY))
    monkeypatch.setattr(backends, "_INSTANCES", dict(backends._INSTANCES))
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    return backends


@pytest.fixture
def graph():
    return random_graph_with_avg_degree(24, 4.0, rng=2)


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert backends.registered() == ["highs", "scipy"]

    def test_scipy_always_available(self):
        assert "scipy" in AVAILABLE

    def test_get_resolves_aliases(self):
        assert backends.get("linprog") is backends.get("scipy")
        assert backends.get("persistent") is backends.get("highs")
        assert backends.get("HIGHS") is backends.get("highs")  # case-blind

    def test_unknown_name_lists_registry(self):
        with pytest.raises(LPError, match="unknown LP backend 'nope'") as exc:
            backends.get("nope")
        message = str(exc.value)
        for name in ("scipy", "highs"):
            assert name in message

    def test_resolve_caches_one_instance_per_name(self):
        assert backends.resolve("scipy") is backends.resolve("scipy")
        # create() stays uncached so callers can pass constructor kwargs
        assert backends.create("scipy") is not backends.create("scipy")

    def test_describe_rows_carry_capabilities(self):
        rows = {row["name"]: row for row in backends.describe()}
        assert rows["scipy"]["available"] is True
        assert rows["scipy"]["aliases"] == ["linprog"]
        assert rows["highs"]["preference"] > rows["scipy"]["preference"]
        # sorted by preference, best-first
        preferences = [row["preference"] for row in backends.describe()]
        assert preferences == sorted(preferences, reverse=True)

    def test_unavailable_backend_degrades_cleanly(self, scratch_registry):
        scratch_registry.register(MissingModuleBackend)
        assert scratch_registry.get("dummy-alias") is MissingModuleBackend
        rows = {row["name"]: row for row in scratch_registry.describe()}
        assert rows["dummy-missing"]["available"] is False
        assert "dummy_solver" in rows["dummy-missing"]["reason"]
        assert "dummy-missing" not in scratch_registry.available()
        # the highest preference, but unavailable: never auto-detected
        assert scratch_registry.default_backend().name != "dummy-missing"
        with pytest.raises(LPError) as exc:
            scratch_registry.create("dummy-missing")
        message = str(exc.value)
        assert "[lp-backend dummy-missing]" in message
        assert "dummy_solver" in message  # names the missing module
        assert BACKEND_ENV in message  # names the fallback knob

    def test_out_of_tree_backend_registers_and_serves(self, scratch_registry, graph):
        scratch_registry.register(PluginBackend)
        assert "dummy-plugin" in scratch_registry.available()
        plugin = PrivateSession(graph, backend="dummy-plugin")
        assert plugin.lp_backend == "dummy-plugin"
        reference = PrivateSession(graph, backend="scipy")
        answers = {
            session.query(triangle(), privacy="node", epsilon=0.5, rng=42).answer
            for session in (plugin, reference)
        }
        assert len(answers) == 1

    def test_resolve_refuses_backend_without_build_persistent(self):
        with pytest.raises(LPError, match="build_persistent"):
            backends.resolve(SolveOnlyBackend())

    def test_compiled_program_refuses_backend_without_build_persistent(self):
        with pytest.raises(LPError, match="must implement build_persistent"):
            EncodedRelation(["a"], [(Var("a"), 1.0)], SolveOnlyBackend())

    def test_env_var_overrides_preference_order(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "scipy")
        assert backends.default_backend().name == "scipy"
        monkeypatch.setenv(BACKEND_ENV, "no-such-backend")
        with pytest.raises(LPError, match="no-such-backend"):
            backends.default_backend()

    def test_default_backend_prefers_measured_order(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        default = backends.default_backend()
        best = max(
            (backends.get(name) for name in AVAILABLE),
            key=lambda cls: cls.preference,
        )
        assert default.name == best.name

    def test_resolve_accepts_none_name_and_instance(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert backends.resolve(None).name == backends.default_backend().name
        assert backends.resolve("scipy").name == "scipy"
        explicit = ScipyBackend()
        assert backends.resolve(explicit) is explicit
        with pytest.raises(LPError, match="not an LP backend"):
            backends.resolve(object())

    def test_cache_tokens_distinguish_backends(self):
        tokens = {backends.create(name).cache_token for name in AVAILABLE}
        assert len(tokens) == len(AVAILABLE)
        assert ScipyBackend().cache_token == ("lp-backend", "scipy")


class TestBackendContract:
    def test_abstract_backend_refuses_to_solve(self):
        model = SolverBackend().build_persistent(
            sparse.csr_matrix((0, 1)), [1.0], [0.0], [1.0], [], []
        )
        with pytest.raises(LPError, match=r"\[lp-backend abstract\]"):
            model.solve()

    def test_array_model_splits_rows_for_solve_arrays(self):
        """The default model hands ``lower = -inf`` rows to ``A_ub`` and
        ``lower = upper`` rows to ``A_eq``, with the current bounds and
        costs; it ignores ``resume``."""
        calls = []

        class RecordingBackend(SolverBackend):
            name = "recording"

            def solve_arrays(
                self, c, a_ub, b_ub, a_eq, b_eq, bounds, objective_constant=0.0
            ):
                calls.append(
                    (c.copy(), a_ub.toarray(), b_ub, a_eq.toarray(), b_eq, bounds)
                )
                return ScipyBackend().solve_arrays(
                    c, a_ub, b_ub, a_eq, b_eq, bounds, objective_constant
                )

        matrix = sparse.csr_matrix([[1.0, 2.0], [1.0, 1.0], [3.0, 0.0]])
        model = RecordingBackend().build_persistent(
            matrix,
            col_costs=np.array([1.0, 1.0]),
            col_lower=np.zeros(2),
            col_upper=np.ones(2),
            row_lower=np.array([-np.inf, 0.0, -np.inf]),
            row_upper=np.array([2.5, 0.0, 2.0]),
        )
        model.set_row_bounds(1, 1.5, 1.5)
        model.set_col_costs([1], [-1.0])
        solution = model.solve(resume=True)
        c, a_ub, b_ub, a_eq, b_eq, bounds = calls[-1]
        np.testing.assert_array_equal(c, [1.0, -1.0])
        np.testing.assert_array_equal(a_ub, [[1.0, 2.0], [3.0, 0.0]])
        np.testing.assert_array_equal(b_ub, [2.5, 2.0])
        np.testing.assert_array_equal(a_eq, [[1.0, 1.0]])
        np.testing.assert_array_equal(b_eq, [1.5])
        np.testing.assert_array_equal(bounds, [[0.0, 1.0], [0.0, 1.0]])
        assert solution.is_optimal
        assert solution.objective == pytest.approx(-0.5)

    def test_persistent_model_fork_guard(self):
        import os

        model = PersistentModel.__new__(PersistentModel)
        model._owner_pid = os.getpid() + 1
        with pytest.raises(LPError, match="fork"):
            model._assert_owner()


class TestStatusVocabulary:
    def test_canonical_accepts_all_constants(self):
        for name in status.CANONICAL_STATUSES:
            assert status.canonical(name) == name

    def test_canonical_rejects_foreign_spellings(self):
        for bad in ("Optimal", "kOptimal", "solved", ""):
            with pytest.raises(ValueError, match="status"):
                status.canonical(bad)

    def test_linprog_map_covers_scipy_codes(self):
        assert status.LINPROG_STATUS[0] == status.OPTIMAL
        assert status.LINPROG_STATUS[2] == status.INFEASIBLE
        assert status.LINPROG_STATUS[3] == status.UNBOUNDED
        assert set(status.LINPROG_STATUS.values()) <= set(status.CANONICAL_STATUSES)


class TestEngineProbeCaching:
    def test_probe_is_cached(self):
        from repro.lp import highs_engine

        assert highs_engine._probe() is highs_engine._probe()

    def test_require_engine_message_names_backend_and_fallback(self, monkeypatch):
        from repro.lp import highs_engine

        monkeypatch.setattr(
            highs_engine, "_PROBE", (False, "No module named '_highspy'")
        )
        with pytest.raises(LPError) as exc:
            highs_engine.require_engine("highs")
        message = str(exc.value)
        assert "[lp-backend highs]" in message
        assert "_highspy" in message
        assert "REPRO_LP_BACKEND=scipy" in message


class TestSessionIdentity:
    def test_session_resolves_backend_eagerly(self, graph):
        session = PrivateSession(graph, backend="scipy")
        assert session.lp_backend == "scipy"
        default = PrivateSession(graph)
        assert default.lp_backend in AVAILABLE

    def test_ledger_entries_record_backend(self, graph):
        session = PrivateSession(graph, backend="scipy", budget=2.0)
        session.query(triangle(), privacy="edge", epsilon=0.5, rng=1)
        entry = session.ledger[-1]
        assert entry.extra["lp_backend"] == "scipy"
        assert entry.to_dict()["lp_backend"] == "scipy"

    def test_backend_identity_partitions_cache_keys(self, graph):
        if len(AVAILABLE) < 2:
            pytest.skip("only one backend available")
        first, second = AVAILABLE[:2]
        session_a = PrivateSession(graph, backend=first)
        session_b = PrivateSession(graph, backend=second)
        *_, key_a = session_a._resolve_spec(triangle(), "edge", "recursive", None, {})
        *_, key_b = session_b._resolve_spec(triangle(), "edge", "recursive", None, {})
        assert key_a != key_b

    def test_cross_backend_released_answers_identical(self, graph):
        answers = set()
        for name in AVAILABLE:
            session = PrivateSession(graph, backend=name)
            result = session.query(triangle(), privacy="node", epsilon=0.5, rng=42)
            answers.add(result.answer)
        assert len(answers) == 1


class TestServiceIdentity:
    def test_hello_frame_reports_backend(self, graph):
        from repro.service import ServiceRouter

        service = ServiceRouter()
        service.add_dataset(
            "default", PrivateSession(graph, backend="scipy", name="svc")
        )
        frame = service._op_hello({})
        assert frame["lp_backend"] == "scipy"


class TestCliKnob:
    def test_count_accepts_lp_backend(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["count", "--lp-backend", "scipy"])
        assert args.lp_backend == "scipy"

    def test_unknown_backend_rejected_at_parse_time(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["count", "--lp-backend", "nope"])
        assert "registered backends" in capsys.readouterr().err

    def test_batch_serve_fig_accept_lp_backend(self):
        from repro.cli import build_parser

        parser = build_parser()
        assert (
            parser.parse_args(
                ["batch", "queries.json", "--lp-backend", "scipy"]
            ).lp_backend
            == "scipy"
        )
        assert (
            parser.parse_args(["serve", "--lp-backend", "scipy"]).lp_backend == "scipy"
        )
        assert (
            parser.parse_args(
                ["fig", "fig5", "--lp-backend", "scipy"]
            ).lp_backend
            == "scipy"
        )

