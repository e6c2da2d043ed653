"""Test-side LP oracles: array backends and a from-scratch reference.

Independent checks on the one production solve path
(:class:`~repro.lp.compiled.CompiledProgram` on persistent HiGHS models):

* :class:`ArrayModel` / :class:`ArrayBackend` — a model kept as arrays
  that splits its rows back into ``A_ub`` / ``A_eq`` blocks and hands
  them to the backend's one-shot ``solve_arrays`` on every solve (no
  basis, no row growth, so ``resume`` is ignored and ``add_row`` declines).
  Any ``solve_arrays`` backend passed as ``backend=`` runs through
  ``CompiledProgram`` this way.
* :class:`LinprogBackend` — ``"scipy"``: each solve one cold
  :func:`scipy.optimize.linprog` call (HiGHS, the same size-based method
  choice as production), with the row duals from linprog's marginals.
  It shares HiGHS but none of the persistent model's assembly, option
  handling or warm starts.
* :class:`SimplexBackend` — a self-contained dense two-phase primal
  simplex (classical tableau, Bland's rule, so it always terminates); it
  reports no duals.  With ``exact=True`` it pivots in ``Fraction``
  arithmetic and reports the exact optimum (:func:`exact_h`).
* :func:`reference_h` / :func:`reference_g` / :func:`reference_x` — the
  ``H_i`` (Eq. 16), ``G_i`` (Eq. 19) and X-step (Eq. 20) programs rebuilt
  from an :class:`~repro.relax.encode.EncodedRelation`'s frozen COO
  triplets as dense rows, one program per call, and solved with the
  simplex above.  They share no assembly code with ``CompiledProgram``,
  take no closed-form shortcut at the endpoints, and are *unshifted*:
  every one of the ``|P|`` participants has a column, the idle ones
  (appended after the encoded columns) included, and ``i`` is the full
  index.

Standard-form conversion in the simplex: every variable ``lb <= x <= ub``
is shifted to ``x' = x - lb >= 0`` (finite upper bounds become extra
rows), and every inequality gains a slack/surplus column; phase 1 drives
artificials to zero.  Meant for programs with at most a few hundred
variables.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.errors import LPError
from repro.lp import HighsBackend, LPSolution, status
from repro.lp.backends import PersistentModel, SolverBackend
from repro.lp.highs_engine import IPM_THRESHOLD

__all__ = [
    "ArrayModel",
    "ArrayBackend",
    "LinprogBackend",
    "LP_BACKENDS",
    "SimplexBackend",
    "reference_h",
    "reference_g",
    "reference_x",
    "exact_h",
    "g_row_entries",
    "g_rows_by_name",
    "stacked_g_overlay",
]

_EPS = 1e-9

#: Smallest pivot element the ratio test accepts: pivoting on an entry
#: barely above ``_EPS`` amplifies rounding until the basis is garbage.
_PIVOT_TOL = 1e-7

#: :func:`scipy.optimize.linprog` ``result.status`` codes → canonical names.
_LINPROG_STATUS = {
    0: status.OPTIMAL,
    1: status.ITERATION_LIMIT,
    2: status.INFEASIBLE,
    3: status.UNBOUNDED,
    4: status.ERROR,
}


class ArrayModel(PersistentModel):
    """A compiled program kept as arrays and solved one-shot.

    It holds the row bounds and column costs, and each :meth:`solve`
    splits the rows back into ``A_ub`` rows (lower bound ``-inf``) and
    ``A_eq`` rows (lower equals upper) for ``backend.solve_arrays``, and
    puts the row duals it reports back in the model's row order.  A
    one-shot solve has no basis to continue from, so ``resume`` is
    ignored.
    """

    def __init__(
        self,
        backend: "ArrayBackend",
        matrix,
        col_costs: np.ndarray,
        col_lower: np.ndarray,
        col_upper: np.ndarray,
        row_lower: np.ndarray,
        row_upper: np.ndarray,
    ):
        super().__init__()
        self.backend_name = backend.name
        self._backend = backend
        self._matrix = sparse.csr_matrix(matrix)
        self._costs = np.array(col_costs, dtype=float)
        self._bounds = np.column_stack([col_lower, col_upper]).astype(float)
        self._row_lower = np.array(row_lower, dtype=float)
        self._row_upper = np.array(row_upper, dtype=float)

    def set_row_bounds(self, row: int, lower: float, upper: float) -> None:
        self._assert_owner()
        self._row_lower[row] = lower
        self._row_upper[row] = upper

    def set_col_costs(self, indices, values) -> None:
        self._assert_owner()
        self._costs[np.asarray(indices)] = values

    def _rows(self, mask: np.ndarray):
        """``(A, b)`` of the masked rows, or ``(None, None)`` for none."""
        if not mask.any():
            return None, None
        return self._matrix[np.flatnonzero(mask)], self._row_upper[mask]

    def solve(self, resume: bool = False) -> LPSolution:
        self._assert_owner()
        ub = self._row_lower == -np.inf
        eq = self._row_lower == self._row_upper
        if not np.all(ub | eq):
            raise LPError(
                f"[lp-solver {self.backend_name}] a row bounded on both "
                "sides is neither A_ub nor A_eq"
            )
        a_ub, b_ub = self._rows(ub)
        a_eq, b_eq = self._rows(eq)
        solution = self._backend.solve_arrays(
            c=self._costs,
            a_ub=a_ub,
            b_ub=b_ub,
            a_eq=a_eq,
            b_eq=b_eq,
            bounds=self._bounds,
        )
        if solution.row_dual is not None:
            # solve_arrays reports the A_ub rows' duals, then the A_eq rows'
            order = np.concatenate([np.flatnonzero(ub), np.flatnonzero(eq)])
            row_dual = np.empty(len(order))
            row_dual[order] = solution.row_dual
            solution.row_dual = row_dual
        return solution


class ArrayBackend(SolverBackend):
    """A backend that solves one-shot through :meth:`solve_arrays`, each
    compiled overlay kept as an :class:`ArrayModel`."""

    def solve_arrays(
        self,
        c: np.ndarray,
        a_ub,
        b_ub: Optional[np.ndarray],
        a_eq,
        b_eq: Optional[np.ndarray],
        bounds,
        objective_constant: float = 0.0,
    ) -> LPSolution:
        """One-shot solve of a program already assembled as arrays."""
        raise NotImplementedError

    def build_persistent(
        self, matrix, col_costs, col_lower, col_upper, row_lower, row_upper
    ) -> ArrayModel:
        return ArrayModel(
            self, matrix, col_costs, col_lower, col_upper, row_lower, row_upper
        )


class LinprogBackend(ArrayBackend):
    """Every solve one cold :func:`scipy.optimize.linprog` call."""

    name = "scipy"

    def solve_arrays(
        self,
        c: np.ndarray,
        a_ub,
        b_ub: Optional[np.ndarray],
        a_eq,
        b_eq: Optional[np.ndarray],
        bounds,
        objective_constant: float = 0.0,
    ) -> LPSolution:
        """Solve with HiGHS (``method="highs"``), or its IPM above
        ``IPM_THRESHOLD`` columns; an optimal solution carries linprog's
        ``ineqlin`` then ``eqlin`` marginals as its ``row_dual``."""
        n = len(c)
        if n == 0:
            return LPSolution("optimal", float(objective_constant), np.zeros(0))
        result = linprog(
            c=c,
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=bounds,
            method="highs-ipm" if n > IPM_THRESHOLD else "highs",
        )
        name = _LINPROG_STATUS.get(result.status, status.ERROR)
        if name != status.OPTIMAL:
            return LPSolution(name, float("nan"), np.zeros(0), message=result.message)
        return LPSolution(
            "optimal",
            float(result.fun) + float(objective_constant),
            np.asarray(result.x, dtype=float),
            message=result.message,
            row_dual=np.concatenate(
                [result.ineqlin.marginals, result.eqlin.marginals]
            ).astype(float),
        )


#: The production solver and the one-shot linprog oracle, by test id.
LP_BACKENDS = {"highs": HighsBackend, "scipy": LinprogBackend}


def _dense(matrix) -> Optional[np.ndarray]:
    if matrix is None:
        return None
    if sparse.issparse(matrix):
        return matrix.toarray()
    return np.asarray(matrix, dtype=float)


class SimplexBackend(ArrayBackend):
    """Dense two-phase primal simplex with Bland's anti-cycling rule.

    ``exact=True`` runs the same pivots on ``Fraction`` entries, so the
    optimum (objective and ``x``) is exact; meant for programs of a few
    dozen variables.
    """

    name = "simplex"

    def __init__(self, max_iterations: int = 100_000, exact: bool = False):
        self.max_iterations = max_iterations
        self.exact = exact

    def solve_arrays(
        self,
        c: np.ndarray,
        a_ub,
        b_ub: Optional[np.ndarray],
        a_eq,
        b_eq: Optional[np.ndarray],
        bounds,
        objective_constant: float = 0.0,
    ) -> LPSolution:
        """Solve ``min c·x`` s.t. ``a_ub x <= b_ub``, ``a_eq x == b_eq``, bounds.

        ``bounds`` is an ``(n, 2)`` array or a sequence of ``(lb, ub)``
        pairs; ``ub`` may be ``None`` or ``inf``, ``lb`` must be finite.
        Statuses mirror :class:`LinprogBackend`'s; exceeding ``max_iterations``
        raises :class:`~repro.errors.LPError`.
        """
        c = np.asarray(c, dtype=float)
        if self.exact:
            c = np.array([Fraction(value) for value in c], dtype=object)
        n = len(c)
        if n == 0:
            return LPSolution("optimal", float(objective_constant), np.zeros(0))
        lower = np.empty(n, dtype=c.dtype)
        upper: List[Optional[float]] = []
        for index, (lb, ub) in enumerate(bounds):
            if lb is None or not np.isfinite(lb):
                raise LPError("the simplex oracle needs finite lower bounds")
            lower[index] = Fraction(lb) if self.exact else float(lb)
            upper.append(None if ub is None or not np.isfinite(ub) else float(ub))

        # Rows: the given constraints (rhs adjusted for the lb shift) plus
        # one "<=" row per finite upper bound.
        rows: List[Tuple[np.ndarray, str, float]] = []
        for matrix, rhs, sense in ((a_ub, b_ub, "<="), (a_eq, b_eq, "==")):
            dense = _dense(matrix)
            if dense is None:
                continue
            for row, value in zip(dense, np.asarray(rhs, dtype=float)):
                rows.append((row.copy(), sense, float(value) - float(row @ lower)))
        for index, ub in enumerate(upper):
            if ub is not None:
                row = np.zeros(n)
                row[index] = 1.0
                rows.append((row, "<=", ub - lower[index]))

        solution = self._solve_standard(rows, c)
        if solution is None:
            return LPSolution("infeasible", float("nan"), np.zeros(0))
        status, x_shifted, objective = solution
        if status == "unbounded":
            return LPSolution("unbounded", float("nan"), np.zeros(0))
        x = x_shifted + lower
        # an oracle must fail loudly, never report an infeasible "optimum"
        gaps = [lower - x, x - np.array([np.inf if u is None else u for u in upper])]
        if a_ub is not None:
            gaps.append(_dense(a_ub) @ x - np.asarray(b_ub, dtype=float))
        if a_eq is not None:
            gaps.append(np.abs(_dense(a_eq) @ x - np.asarray(b_eq, dtype=float)))
        worst = max(float(np.max(gap, initial=0.0)) for gap in gaps)
        if worst > 1e-6:
            raise LPError(f"simplex oracle lost feasibility (violation {worst:.2e})")
        if self.exact:
            constant = Fraction(objective_constant)
            return LPSolution("optimal", objective + c @ lower + constant, x)
        return LPSolution(
            "optimal", objective + float(c @ lower) + float(objective_constant), x
        )

    # -- tableau machinery ----------------------------------------------------
    def _solve_standard(
        self,
        rows: List[Tuple[np.ndarray, str, float]],
        c: np.ndarray,
    ) -> Optional[Tuple[str, np.ndarray, float]]:
        """Solve min c'x s.t. rows, x >= 0.  None means infeasible."""
        n = len(c)
        m = len(rows)
        if m == 0:
            # Feasible iff objective bounded: any negative cost is unbounded.
            if np.any(c < -_EPS):
                return ("unbounded", np.zeros(n), float("nan"))
            return ("optimal", np.zeros(n), 0.0)

        # Sign-normalize so every rhs >= 0, then count extra columns: one
        # slack/surplus per inequality, artificials for ">=" and "==" rows.
        norm_rows = []
        for row, sense, rhs in rows:
            if rhs < 0:
                row = -row
                rhs = -rhs
                sense = {"<=": ">=", ">=": "<=", "==": "=="}[sense]
            norm_rows.append((row, sense, rhs))

        num_slack = sum(1 for _, sense, _ in norm_rows if sense != "==")
        dtype = object if self.exact else float
        a = np.zeros((m, n + num_slack), dtype=dtype)
        b = np.zeros(m, dtype=dtype)

        needs_artificial = []
        slack_col = n
        for i, (row, sense, rhs) in enumerate(norm_rows):
            a[i, :n] = row
            b[i] = rhs
            if sense == "<=":
                a[i, slack_col] = 1.0
                needs_artificial.append(False)
                slack_col += 1
            elif sense == ">=":
                a[i, slack_col] = -1.0
                needs_artificial.append(True)
                slack_col += 1
            else:
                needs_artificial.append(True)

        artificial_cols = []
        extra = sum(needs_artificial)
        if extra:
            art = np.zeros((m, extra), dtype=dtype)
            j = 0
            for i, needed in enumerate(needs_artificial):
                if needed:
                    art[i, j] = 1.0
                    artificial_cols.append(n + num_slack + j)
                    j += 1
            a = np.hstack([a, art])

        total = a.shape[1]
        basis = [-1] * m
        # initial basis: slack for "<=" rows, artificial otherwise
        slack_col = n
        art_iter = iter(artificial_cols)
        for i, (_, sense, _) in enumerate(norm_rows):
            if sense == "<=":
                basis[i] = slack_col
                slack_col += 1
            else:
                if sense == ">=":
                    slack_col += 1
                basis[i] = next(art_iter)

        tableau = self._cast(np.hstack([a, b.reshape(-1, 1)]))

        if artificial_cols:
            phase1_cost = np.zeros(total, dtype=dtype)
            phase1_cost[artificial_cols] = 1.0
            phase1_cost = self._cast(phase1_cost)
            status = self._run_simplex(tableau, basis, phase1_cost)
            if status == "unbounded":  # cannot happen in phase 1
                raise LPError("phase 1 unbounded — internal error")
            if self._objective_value(tableau, basis, phase1_cost) > 1e-7:
                return None  # infeasible
            self._drive_out_artificials(tableau, basis, set(artificial_cols))

        full_cost = np.zeros(total, dtype=dtype)
        full_cost[:n] = c
        full_cost = self._cast(full_cost)
        blocked = set(artificial_cols)
        status = self._run_simplex(tableau, basis, full_cost, blocked_columns=blocked)
        x = np.zeros(total, dtype=dtype)
        for i, col in enumerate(basis):
            if col >= 0:
                x[col] = tableau[i, -1]
        if status == "unbounded":
            return ("unbounded", x[:n], float("nan"))
        value = full_cost @ x
        return ("optimal", x[:n], value if self.exact else float(value))

    def _cast(self, array: np.ndarray) -> np.ndarray:
        """``array`` with ``Fraction`` entries in exact mode (a float
        entry would turn every product it meets back into a float)."""
        if not self.exact:
            return array
        return np.vectorize(Fraction, otypes=[object])(array)

    def _objective_value(self, tableau, basis, cost) -> float:
        total = tableau.shape[1] - 1
        x = np.zeros(total, dtype=tableau.dtype)
        for i, col in enumerate(basis):
            if col >= 0:
                x[col] = tableau[i, -1]
        return float(cost @ x)

    def _run_simplex(
        self,
        tableau: np.ndarray,
        basis: List[int],
        cost: np.ndarray,
        blocked_columns=frozenset(),
    ) -> str:
        m, width = tableau.shape
        total = width - 1
        for _ in range(self.max_iterations):
            # reduced costs: c_j - z_j with z from basic costs
            reduced = cost - cost[basis] @ tableau[:, :total]
            entering = -1
            for j in range(total):  # Bland: smallest index with negative cost
                if j in blocked_columns:
                    continue
                if reduced[j] < -_EPS:
                    entering = j
                    break
            if entering < 0:
                return "optimal"
            # ratio test (Bland ties: smallest basis index)
            best_ratio = None
            leaving = -1
            for i in range(m):
                coeff = tableau[i, entering]
                if coeff > _PIVOT_TOL:
                    ratio = tableau[i, -1] / coeff
                    if (
                        best_ratio is None
                        or ratio < best_ratio - _EPS
                        or (
                            abs(ratio - best_ratio) <= _EPS
                            and basis[i] < basis[leaving]
                        )
                    ):
                        best_ratio = ratio
                        leaving = i
            if leaving < 0:
                return "unbounded"
            self._pivot(tableau, leaving, entering)
            basis[leaving] = entering
        raise LPError("simplex iteration limit exceeded")

    @staticmethod
    def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
        tableau[row] /= tableau[row, col]
        # eliminate every other row, tiny entries too, so no residue
        # survives to be amplified by later pivots
        factors = tableau[:, col].copy()
        factors[row] = 0
        tableau -= np.outer(factors, tableau[row])

    def _drive_out_artificials(self, tableau, basis, artificial_cols) -> None:
        """Pivot basic artificials out of the basis where possible."""
        m, width = tableau.shape
        total = width - 1
        for i in range(m):
            if basis[i] in artificial_cols:
                pivot_col = -1
                for j in range(total):
                    if j not in artificial_cols and abs(tableau[i, j]) > _EPS:
                        pivot_col = j
                        break
                if pivot_col >= 0:
                    self._pivot(tableau, i, pivot_col)
                    basis[i] = pivot_col
                # else: redundant row with zero rhs; leave the artificial at 0.

    def __repr__(self) -> str:
        return f"SimplexBackend(max_iterations={self.max_iterations})"


# -- from-scratch reference programs ------------------------------------------


def _width(encoded) -> int:
    """Columns of the unshifted program: the encoded ones, then one per
    idle participant."""
    return encoded.num_lp_variables + encoded.num_idle


def _epigraph_rows(encoded) -> Tuple[np.ndarray, np.ndarray]:
    """The base ``A x <= b`` rows, summing duplicate COO entries."""
    a = np.zeros((len(encoded._ub_rhs), _width(encoded)))
    for row, col, value in zip(
        encoded._ub_rows.tolist(),
        encoded._ub_cols.tolist(),
        encoded._ub_vals.tolist(),
    ):
        a[row, col] += value
    return a, np.asarray(encoded._ub_rhs, dtype=float)


def _root_objective(encoded) -> np.ndarray:
    """``Σ_t q(t)·v_root(t)`` as a dense cost vector."""
    c = np.zeros(_width(encoded))
    for var, weight in zip(
        encoded._root_vars.tolist(), encoded._root_weights.tolist()
    ):
        c[var] += weight
    return c


def _participant_columns(encoded) -> np.ndarray:
    """The columns of all ``|P|`` participants: the encoded ones first,
    the idle ones last."""
    active = np.arange(len(encoded.participants))
    idle = np.arange(encoded.num_lp_variables, _width(encoded))
    return np.concatenate([active, idle])


def _mass_row(encoded, width: int) -> np.ndarray:
    """``Σ_p f_p`` over every participant column, padded to ``width``."""
    row = np.zeros((1, width))
    row[0, _participant_columns(encoded)] = 1.0
    return row


def _solve(backend, **program) -> LPSolution:
    solution = backend.solve_arrays(**program)
    if not solution.is_optimal:
        raise LPError(f"reference LP not optimal: {solution.status}")
    return solution


def reference_h(encoded, i: float, backend=None) -> float:
    """``H_i`` (Eq. 16): ``min Σ_t q·v_root`` over the slice ``Σ f = i``."""
    a, b = _epigraph_rows(encoded)
    n = _width(encoded)
    solution = _solve(
        backend or SimplexBackend(),
        c=_root_objective(encoded),
        a_ub=a,
        b_ub=b,
        a_eq=_mass_row(encoded, n),
        b_eq=np.array([float(i)]),
        bounds=[(0.0, 1.0)] * n,
        objective_constant=encoded._constant_weight,
    )
    return max(0.0, solution.objective)


def exact_h(encoded, i: int) -> Fraction:
    """``H_i`` exactly: :func:`reference_h`'s program, solved in
    ``Fraction`` arithmetic (finite for the small weights of counting
    queries; every float input converts exactly)."""
    return reference_h(encoded, i, backend=SimplexBackend(exact=True))


def g_row_entries(indptr, cols, vals) -> List[List[Tuple[int, float]]]:
    """A G-row CSR triple read back row by row: ``[(column, q·S), …]``
    per row, in row and entry order."""
    indptr, cols, vals = (np.asarray(part).tolist() for part in (indptr, cols, vals))
    return [
        list(zip(cols[start:end], vals[start:end]))
        for start, end in zip(indptr[:-1], indptr[1:])
    ]


def g_rows_by_name(encoded) -> List[Tuple[str, List[Tuple[int, float]]]]:
    """An encoded relation's G rows as ``(participant, entries)`` pairs in
    row order (:func:`g_row_entries`, owners from ``_g_owners``)."""
    names = [encoded.participants[owner] for owner in encoded._g_owners.tolist()]
    return list(zip(names, g_row_entries(*encoded._g_rows)))


def reference_g(encoded, i: float, backend=None) -> float:
    """``G_i`` (Eq. 19): ``2·min z`` with ``z ≥ Σ_t q·S_{t,p}·v_root`` per p."""
    base, b = _epigraph_rows(encoded)
    n = _width(encoded)
    rows = [np.append(row, 0.0) for row in base]
    g_rows = g_row_entries(*encoded._g_rows)
    for g_row in g_rows:
        row = np.zeros(n + 1)
        row[n] = -1.0
        for var, coeff in g_row:
            row[var] += coeff
        rows.append(row)
    c = np.zeros(n + 1)
    c[n] = 1.0
    solution = _solve(
        backend or SimplexBackend(),
        c=c,
        a_ub=np.array(rows).reshape(len(rows), n + 1),
        b_ub=np.concatenate([b, np.zeros(len(g_rows))]),
        a_eq=_mass_row(encoded, n + 1),
        b_eq=np.array([float(i)]),
        bounds=[(0.0, 1.0)] * n + [(0.0, None)],
    )
    return max(0.0, 2.0 * solution.objective)


def reference_x(encoded, delta_hat: float, backend=None) -> Tuple[float, float]:
    """Eq. 20 over the whole cube: ``(value, Σ f_p at the optimum)``."""
    a, b = _epigraph_rows(encoded)
    n = _width(encoded)
    p = encoded.num_participants
    columns = _participant_columns(encoded)
    c = _root_objective(encoded)
    c[columns] -= delta_hat
    solution = _solve(
        backend or SimplexBackend(),
        c=c,
        a_ub=a,
        b_ub=b,
        a_eq=None,
        b_eq=None,
        bounds=[(0.0, 1.0)] * n,
        objective_constant=encoded._constant_weight + p * delta_hat,
    )
    return solution.objective, float(np.sum(solution.x[columns]))


def stacked_g_overlay(program) -> dict:
    """The G overlay of a ``CompiledProgram``, assembled block by block.

    The construction ``CompiledProgram._build_g_overlay`` replaced: the
    min-max rows as their own CSR block from a Python triple loop, the
    ``z`` column, the base rows padded by ``hstack``, the mass row built
    densely, all joined by ``vstack``.  The production assembly must hand
    the backend the same matrix (after ``tocsc()``), bounds and costs.
    """
    n = program.num_variables
    a_ub = program._a_ub
    num_ub = a_ub.shape[0]
    entries = g_row_entries(program._g_indptr, program._g_cols, program._g_vals)
    num_g = len(entries)
    rows, cols, vals = [], [], []
    for row_index, row_entries in enumerate(entries):
        for var, coeff in row_entries:
            rows.append(row_index)
            cols.append(var)
            vals.append(float(coeff))
    g_matrix = sparse.csr_matrix((vals, (rows, cols)), shape=(num_g, n))
    z_column = sparse.csr_matrix(
        (
            np.full(num_g, -1.0),
            (np.arange(num_g, dtype=np.int64), np.zeros(num_g, dtype=np.int64)),
        ),
        shape=(num_g, 1),
    )
    padded = sparse.hstack([a_ub, sparse.csr_matrix((num_ub, 1))], format="csr")
    g_block = sparse.hstack([g_matrix, z_column], format="csr")
    mass_coeffs = np.zeros(n + 1)
    mass_coeffs[: program.num_participants] = 1.0
    mass = sparse.csr_matrix(mass_coeffs[np.newaxis, :])
    costs = np.zeros(n + 1)
    costs[n] = 1.0
    return {
        "matrix": sparse.vstack([padded, g_block, mass], format="csr"),
        "col_costs": costs,
        "col_lower": np.zeros(n + 1),
        "col_upper": np.append(np.ones(n), np.inf),
        "row_lower": np.concatenate(
            [np.full(num_ub, -np.inf), np.full(num_g, -np.inf), [0.0]]
        ),
        "row_upper": np.concatenate([program._b_ub, np.zeros(num_g), [0.0]]),
    }
