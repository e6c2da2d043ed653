"""The one LP solver: its failure modes, its identity, and the retired knob.

* **bindings** — the HiGHS bindings are imported once, on the first model
  build; when they are missing, that build raises one
  :class:`~repro.errors.LPError` naming the module and the SciPy floor;
* **contract** — a persistent model refuses to run in a process other
  than the one that built it, ``CompiledProgram`` refuses an object
  without ``build_persistent``, and the test-side ``ArrayModel`` hands a
  one-shot backend the rows it holds;
* **identity** — audit-ledger entries, result frames and the service
  ``hello`` frame report ``lp_backend: "highs"``;
* **no knob** — ``--lp-backend`` on any subcommand and a ``backend``
  query option, local or over the wire, are refused.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest
from lp_oracle import ArrayBackend, LinprogBackend
from scipy import sparse

from repro import private_subgraph_count
from repro.boolexpr import Var
from repro.core import EfficientRecursiveMechanism, RecursiveMechanismParams
from repro.errors import LPError
from repro.graphs import random_graph_with_avg_degree
from repro.lp import HIGHS, highs_engine
from repro.lp.backends import PersistentModel, SolverBackend
from repro.relax.encode import EncodedRelation
from repro.service import BackgroundService, ServiceClient, ServiceRouter
from repro.session import PrivateSession
from repro.subgraphs import subgraph_krelation, triangle


class SolveOnlyBackend:
    """An object with only a one-shot ``solve_arrays``, not the contract."""

    def solve_arrays(self, *args, **kwargs):
        raise AssertionError("never called")


@pytest.fixture
def graph():
    return random_graph_with_avg_degree(24, 4.0, rng=2)


def _tiny_model():
    return HIGHS.build_persistent(
        sparse.csr_matrix([[1.0]]),
        np.ones(1),
        np.zeros(1),
        np.ones(1),
        np.array([-np.inf]),
        np.array([1.0]),
    )


class TestBackendContract:
    def test_abstract_backend_refuses_to_solve(self):
        with pytest.raises(LPError, match=r"\[lp-solver abstract\]"):
            SolverBackend().build_persistent(
                sparse.csr_matrix((0, 1)), [1.0], [0.0], [1.0], [], []
            )

    def test_compiled_program_refuses_backend_without_build_persistent(self):
        with pytest.raises(LPError, match="must implement build_persistent"):
            EncodedRelation(["a"], [(Var("a"), 1.0)], SolveOnlyBackend())

    def test_array_model_splits_rows_for_solve_arrays(self):
        """The array model hands ``lower = -inf`` rows to ``A_ub`` and
        ``lower = upper`` rows to ``A_eq``, with the current bounds and
        costs; it ignores ``resume``."""
        calls = []

        class RecordingBackend(ArrayBackend):
            name = "recording"

            def solve_arrays(
                self, c, a_ub, b_ub, a_eq, b_eq, bounds, objective_constant=0.0
            ):
                calls.append(
                    (c.copy(), a_ub.toarray(), b_ub, a_eq.toarray(), b_eq, bounds)
                )
                return LinprogBackend().solve_arrays(
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
        model = PersistentModel.__new__(PersistentModel)
        model._owner_pid = os.getpid() + 1
        with pytest.raises(LPError, match="fork"):
            model._assert_owner()

    def test_highs_model_refuses_another_process(self):
        """Every mutating entry point of a HiGHS model checks its owner."""
        model = _tiny_model()
        model._owner_pid = os.getpid() + 1
        for call in (
            lambda: model.set_row_bounds(0, 0.0, 1.0),
            lambda: model.set_col_costs([0], [2.0]),
            model.solve,
        ):
            with pytest.raises(LPError, match=r"\[lp-solver highs\].*fork"):
                call()


class TestEngineProbeCaching:
    def test_probe_is_cached(self):
        assert highs_engine._engine() is highs_engine._engine()

    def test_require_engine_message_names_backend_and_fallback(self, monkeypatch):
        """Without the bindings the first model build fails with one error
        naming the solver, the missing module and the SciPy to install."""
        monkeypatch.setattr(highs_engine, "_core", None)
        monkeypatch.setitem(sys.modules, highs_engine.ENGINE_MODULE, None)
        with pytest.raises(LPError) as exc:
            _tiny_model()
        message = str(exc.value)
        assert "[lp-solver highs]" in message
        assert highs_engine.ENGINE_MODULE in message
        assert f"SciPy >= {highs_engine.SCIPY_FLOOR}" in message

    def test_bindings_without_a_required_name_are_refused(self, monkeypatch):
        class Stripped:
            """A bindings module that lacks ``_Highs``."""

            MatrixFormat = ObjSense = object

        _install_bindings(monkeypatch, Stripped)
        with pytest.raises(LPError, match="lacks _Highs"):
            _tiny_model()

    def test_bindings_without_the_array_load_enums_are_refused(self, monkeypatch):
        """Models are loaded through ``passModel``'s array overload, which
        takes ``ObjSense``: bindings without it name the SciPy floor."""
        from scipy.optimize._highspy import _core

        class Stripped:
            """A bindings module that lacks ``ObjSense``."""

            _Highs = _core._Highs
            MatrixFormat = _core.MatrixFormat

        _install_bindings(monkeypatch, Stripped)
        with pytest.raises(LPError) as exc:
            _tiny_model()
        message = str(exc.value)
        assert "[lp-solver highs]" in message
        assert "lacks ObjSense" in message
        assert f"SciPy >= {highs_engine.SCIPY_FLOOR}" in message


def _install_bindings(monkeypatch, module) -> None:
    """Make ``module`` the HiGHS bindings the next model build imports."""
    import scipy.optimize._highspy as package

    monkeypatch.setattr(highs_engine, "_core", None)
    monkeypatch.setitem(sys.modules, highs_engine.ENGINE_MODULE, module)
    monkeypatch.setattr(package, "_core", module)


class TestSessionIdentity:
    def test_ledger_entries_record_backend(self, graph):
        session = PrivateSession(graph, budget=2.0)
        assert session.lp_backend == "highs"
        session.query(triangle(), privacy="edge", epsilon=0.5, rng=1)
        entry = session.ledger[-1]
        assert entry.extra["lp_backend"] == "highs"
        assert entry.to_dict()["lp_backend"] == "highs"

    def test_cross_backend_released_answers_identical(self, graph):
        """A session release on HiGHS equals the direct mechanism's on the
        one-shot linprog oracle at the same seed."""
        session = PrivateSession(graph)
        served = session.query(triangle(), privacy="node", epsilon=0.5, rng=42)
        relation = subgraph_krelation(graph, triangle(), "node")
        direct = EfficientRecursiveMechanism(relation, backend=LinprogBackend()).run(
            RecursiveMechanismParams.paper(0.5, node_privacy=True), 42
        )
        assert served.answer == direct.answer

    def test_backend_is_no_session_or_query_argument(self, graph):
        """The solver is not a choice: ``backend=`` is refused by the
        session, the one-call wrapper and the recursive mechanism's
        options, before any ε is spent."""
        with pytest.raises(TypeError, match="backend"):
            PrivateSession(graph, backend="highs")
        with pytest.raises(TypeError, match="backend"):
            private_subgraph_count(graph, triangle(), backend="highs")
        session = PrivateSession(graph, budget=1.0)
        with pytest.raises(TypeError, match="backend"):
            session.query(triangle(), privacy="edge", epsilon=0.5, backend="highs")
        assert session.spent == 0.0 and session.cache_info().size == 0


class TestServiceIdentity:
    def test_hello_frame_reports_backend(self, graph):
        service = ServiceRouter()
        service.add_dataset("default", PrivateSession(graph, name="svc"))
        frame = service._op_hello({})
        assert frame["lp_backend"] == "highs"
        assert frame["datasets"]["default"]["lp_backend"] == "highs"

    def test_result_frames_report_backend_and_refuse_the_option(self, graph):
        session = PrivateSession(graph, budget=1.0, rng=7)
        router = ServiceRouter()
        router.add_dataset("default", session)
        with BackgroundService(router) as bg:
            with ServiceClient(bg.address) as client:
                released = client.query("triangle", epsilon=0.5, privacy="edge")
                assert released["lp_backend"] == "highs"
                with pytest.raises(ValueError, match="backend"):
                    client.query(
                        "triangle",
                        epsilon=0.5,
                        privacy="edge",
                        options={"backend": "highs"},
                    )
        assert [e.status for e in session.accountant.ledger] == ["released"]
        session.close()


class TestCliKnob:
    def test_unknown_backend_rejected_at_parse_time(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["count", "--lp-backend", "nope"])
        assert "unrecognized arguments: --lp-backend" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["count"],
            ["batch", "queries.json"],
            ["serve"],
            ["fig", "fig5"],
        ],
        ids=["count", "batch", "serve", "fig"],
    )
    def test_no_subcommand_takes_lp_backend(self, argv, capsys):
        from repro.cli import build_parser

        parser = build_parser()
        parser.parse_args(argv)
        with pytest.raises(SystemExit):
            parser.parse_args([*argv, "--lp-backend", "highs"])
        assert "--lp-backend" in capsys.readouterr().err
