"""The LP solver: persistent HiGHS models via SciPy's bindings.

Every φ-epigraph LP is solved here.  SciPy ships the HiGHS bindings as
``scipy.optimize._highspy._core``.  A :class:`PersistentLP` loads one
overlay's CSC matrix, costs and bounds into a HiGHS instance **once**,
through the array overload of ``_Highs.passModel``, which reads the
NumPy buffers in place (filling ``HighsLp`` fields from Python instead
copies each element through pybind).  Between solves it only mutates
the few numbers that change: a row's bounds, some objective entries.

A solve is cold (``clearSolver``; presolve and the size-chosen method,
HiGHS's ``choose`` or IPM above :data:`IPM_THRESHOLD` columns) unless
the caller resumes, when dual simplex continues from the kept basis.
That is how ``CompiledProgram`` walks the Δ search's G model from probe
to probe, re-solves the X model after a cost change, and solves the H
entries next to an X optimum with a mass row appended
(:meth:`PersistentLP.add_row`, ``getBasis`` / ``setBasis``).  Resumed
values differ from cold ones in their last bits, so every H value is
certified and snapped to a small rational before it is used
(:mod:`repro.lp.certify`).  Every optimal solution carries its row
duals: the Δ search reads them as subgradients of ``G``, the
certificates as Lagrange multipliers.

This is a private SciPy API, present from SciPy :data:`SCIPY_FLOOR` on,
so the bindings are imported on the first model build: when they, or a
name the load uses (``_Highs``, ``MatrixFormat``, ``ObjSense``), are
missing, that build raises one :class:`~repro.errors.LPError` naming
the module and the SciPy floor.
"""

from __future__ import annotations

import numpy as np

from ..errors import LPError
from . import status
from .backends import PersistentModel, SolverBackend
from .model import LPSolution

__all__ = [
    "IPM_THRESHOLD",
    "SCIPY_FLOOR",
    "cold_solver",
    "PersistentLP",
    "HighsBackend",
    "HIGHS",
]

#: The private SciPy module the persistent engine is built on.
ENGINE_MODULE = "scipy.optimize._highspy._core"

#: The first SciPy release that ships :data:`ENGINE_MODULE`.
SCIPY_FLOOR = "1.15"

#: Column count above which a cold solve runs the interior-point code
#: instead of HiGHS's ``choose``: the φ-epigraph LPs of big K-relations
#: are heavily degenerate, where simplex stalls (observed >10× slowdowns)
#: while IPM stays stable.
IPM_THRESHOLD = 3000

_REQUIRED_NAMES = ("_Highs", "MatrixFormat", "ObjSense")

_core = None


def _engine():
    """The HiGHS bindings, imported and checked on first use."""
    global _core
    if _core is None:
        try:
            import scipy.optimize._highspy._core as core
        except ImportError as exc:
            raise LPError(
                f"[lp-solver highs] {ENGINE_MODULE} failed to import ({exc}); "
                f"the LP solver needs SciPy >= {SCIPY_FLOOR}"
            ) from exc
        missing = [name for name in _REQUIRED_NAMES if not hasattr(core, name)]
        if missing:
            raise LPError(
                f"[lp-solver highs] {ENGINE_MODULE} lacks {', '.join(missing)}; "
                f"the LP solver needs SciPy >= {SCIPY_FLOOR}"
            )
        _core = core
    return _core


def cold_solver(num_cols: int) -> str:
    """The HiGHS ``solver`` option of a cold solve on ``num_cols`` columns."""
    return "ipm" if num_cols > IPM_THRESHOLD else "choose"


def _status_name(model_status) -> str:
    """The canonical status of a HiGHS model status.

    HiGHS reports a model without columns as empty, whatever its row
    bounds; the programs compiled here have no row without a column, so
    an empty one is optimal at objective 0.
    """
    if model_status in (
        _core.HighsModelStatus.kOptimal,
        _core.HighsModelStatus.kModelEmpty,
    ):
        return status.OPTIMAL
    if model_status == _core.HighsModelStatus.kInfeasible:
        return status.INFEASIBLE
    if model_status == _core.HighsModelStatus.kUnbounded:
        return status.UNBOUNDED
    if model_status == _core.HighsModelStatus.kIterationLimit:
        return status.ITERATION_LIMIT
    return status.ERROR


#: HiGHS options of a resumed solve: dual simplex from the kept basis.
_RESUME_OPTIONS = {"solver": "simplex", "simplex_strategy": 1}


class PersistentLP(PersistentModel):
    """One HiGHS model kept alive across solves.

    Parameters
    ----------
    matrix:
        The full constraint matrix, in SciPy's CSC format (the compiled
        overlays are built in it; another sparse format is converted).
        Row activities are constrained to
        ``row_lower <= A x <= row_upper`` — encode a ``<=`` row with
        ``-inf`` lower and an ``==`` row with equal bounds.
    col_costs / col_lower / col_upper:
        Objective and box bounds per column (``np.inf`` allowed).
    row_lower / row_upper:
        Initial row bounds; mutable per solve via :meth:`set_row_bounds`.
    solver:
        The HiGHS ``solver`` option of a cold solve (``"choose"`` or
        ``"ipm"``).
    """

    backend_name = "highs"

    def __init__(
        self,
        matrix,
        col_costs: np.ndarray,
        col_lower: np.ndarray,
        col_upper: np.ndarray,
        row_lower: np.ndarray,
        row_upper: np.ndarray,
        solver: str = "choose",
    ):
        _engine()
        # the owner-pid fork guard lives in PersistentModel: a persistent
        # model must not cross a fork (the C++ solver state would be
        # mutated through copy-on-write pages in several processes at
        # once); workers re-instantiate their own models lazily
        # (CompiledProgram.fork_reset).
        super().__init__()
        a = matrix.tocsc()
        num_rows, num_cols = a.shape
        self.num_rows = num_rows
        self.num_cols = num_cols
        # a cold solve runs ``solver``; a resumed one switches to dual
        # simplex (see solve) and a later cold solve switches back
        self._cold_options = {"solver": solver, "simplex_strategy": 1}
        self._resumed = False
        self._solver = _core._Highs()
        self._solver.setOptionValue("output_flag", False)
        self._solver.setOptionValue("solver", solver)
        # an empty integrality array makes this overload fail: mark
        # every column continuous
        loaded = self._solver.passModel(
            num_cols,
            num_rows,
            a.nnz,
            _core.MatrixFormat.kColwise,
            _core.ObjSense.kMinimize,
            0.0,
            np.asarray(col_costs, dtype=float),
            np.asarray(col_lower, dtype=float),
            np.asarray(col_upper, dtype=float),
            np.asarray(row_lower, dtype=float),
            np.asarray(row_upper, dtype=float),
            np.asarray(a.indptr, dtype=np.int32),
            np.asarray(a.indices, dtype=np.int32),
            np.asarray(a.data, dtype=float),
            np.zeros(num_cols, dtype=np.int32),
        )
        if loaded == _core.HighsStatus.kError:
            raise LPError(
                f"[lp-solver {self.backend_name}] HiGHS rejected the " "compiled model"
            )

    # -- per-solve mutations -------------------------------------------------
    def set_row_bounds(self, row: int, lower: float, upper: float) -> None:
        """Rebound one row (e.g. the ``Σf = i`` mass row) in place."""
        self._assert_owner()
        self._solver.changeRowBounds(int(row), float(lower), float(upper))

    def set_col_costs(self, indices: np.ndarray, values: np.ndarray) -> None:
        """Overwrite the objective coefficients of the given columns."""
        self._assert_owner()
        idx = np.asarray(indices, dtype=np.int32)
        self._solver.changeColsCost(len(idx), idx, np.asarray(values, dtype=float))

    def add_row(self, indices, values, lower: float, upper: float) -> int:
        """Append one row; HiGHS extends a valid basis with its slack."""
        self._assert_owner()
        idx = np.asarray(indices, dtype=np.int32)
        status = self._solver.addRow(
            float(lower), float(upper), len(idx), idx, np.asarray(values, dtype=float)
        )
        if status == _core.HighsStatus.kError:
            raise LPError(f"[lp-solver {self.backend_name}] HiGHS rejected a row")
        self.num_rows += 1
        return self.num_rows - 1

    def delete_row(self, row: int) -> None:
        """Delete a row :meth:`add_row` appended.

        The instance stays, simplex state included: the X model of a
        program keeps its basis between X solves on purpose (see
        ``CompiledProgram.solve_x``), and its owner restores that basis
        with :meth:`set_basis` after the row is gone.
        """
        self._assert_owner()
        self._solver.deleteRows(1, np.array([row], dtype=np.int32))
        self.num_rows -= 1

    def get_basis(self):
        """A copy of HiGHS's current basis (``getBasis``)."""
        self._assert_owner()
        return self._solver.getBasis()

    def set_basis(self, basis) -> None:
        """Load ``basis`` into HiGHS (``setBasis``); the next resumed
        solve starts from it."""
        self._assert_owner()
        if self._solver.setBasis(basis) == _core.HighsStatus.kError:
            raise LPError(f"[lp-solver {self.backend_name}] HiGHS rejected a basis")

    # -- solving -------------------------------------------------------------
    def solve(self, resume: bool = False) -> LPSolution:
        """Solve; statuses match the canonical set (:mod:`repro.lp.status`).

        The default clears the solver state and runs the cold ``solver``
        with presolve.  ``resume=True`` keeps the previous basis
        and re-solves with dual simplex: after a row-bound change that
        basis stays dual feasible, so a few dual pivots restore primal
        feasibility, where HiGHS's ``choose`` could re-run IPM instead.
        After a cost change (the X relaxation) it stays primal feasible
        instead; dual simplex from it still took fewer pivots than
        primal simplex on the 3,817-column 2-star/edge program of a
        200-node graph.
        """
        self._assert_owner()
        if resume != self._resumed:
            options = _RESUME_OPTIONS if resume else self._cold_options
            for key, value in options.items():
                self._solver.setOptionValue(key, value)
            self._resumed = resume
        if not resume:
            self._solver.clearSolver()
        run_status = self._solver.run()
        model_status = self._solver.getModelStatus()
        name = _status_name(model_status)
        message = self._solver.modelStatusToString(model_status)
        if run_status == _core.HighsStatus.kError and name == "optimal":
            name = status.ERROR
        info = self._solver.getInfo()
        self.last_iteration_count = int(info.simplex_iteration_count) + int(
            info.ipm_iteration_count
        )
        if name != "optimal":
            return LPSolution(name, float("nan"), np.zeros(0), message=message)
        solution = self._solver.getSolution()
        return LPSolution(
            "optimal",
            float(info.objective_function_value),
            np.asarray(solution.col_value, dtype=float),
            message=message,
            row_dual=np.asarray(solution.row_dual, dtype=float),
        )

    def __repr__(self) -> str:
        return f"PersistentLP(num_cols={self.num_cols}, num_rows={self.num_rows})"


class HighsBackend(SolverBackend):
    """Builds one :class:`PersistentLP` per overlay from the compiled CSC
    matrix, so per-call work shrinks to mutating one row's bounds and
    re-running the solver; the cold method is chosen by size
    (:func:`cold_solver`)."""

    name = "highs"

    def build_persistent(self, matrix, *arrays, **named) -> PersistentLP:
        """A :class:`PersistentLP` over ``matrix`` and the cost and bound
        arrays of :meth:`SolverBackend.build_persistent`."""
        solver = cold_solver(matrix.shape[1])
        return PersistentLP(matrix, *arrays, solver=solver, **named)


#: The backend every relation and mechanism solves on unless a test hands
#: in another through ``backend=``.
HIGHS = HighsBackend()
