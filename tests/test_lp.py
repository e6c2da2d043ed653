"""Tests for the LP backends' ``solve_arrays`` contract.

Every backend is driven through the same array entry point
:class:`~repro.lp.compiled.CompiledProgram` uses; the portable SciPy backend
and the dense simplex oracle (``tests/lp_oracle.py``) must agree on status,
objective and solution.
"""

import numpy as np
import pytest
from lp_oracle import SimplexBackend
from scipy.optimize import linprog

from repro.errors import LPError
from repro.lp import ScipyBackend, status
from repro.lp.scipy_backend import IPM_THRESHOLD, resolve_method


def program(
    c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=None, constant=0.0
):
    """Keyword arguments of one ``solve_arrays`` call (dense rows)."""
    c = np.asarray(c, dtype=float)
    return {
        "c": c,
        "a_ub": None if a_ub is None else np.asarray(a_ub, dtype=float),
        "b_ub": None if b_ub is None else np.asarray(b_ub, dtype=float),
        "a_eq": None if a_eq is None else np.asarray(a_eq, dtype=float),
        "b_eq": None if b_eq is None else np.asarray(b_eq, dtype=float),
        "bounds": [(0.0, None)] * len(c) if bounds is None else bounds,
        "objective_constant": constant,
    }


def _solve_both(lp):
    return ScipyBackend().solve_arrays(**lp), SimplexBackend().solve_arrays(**lp)


class TestBackends:
    def test_trivial_empty(self, any_backend):
        solution = any_backend.solve_arrays(**program([]))
        assert solution.is_optimal
        assert solution.objective == 0.0

    def test_simple_minimum(self, any_backend):
        # x + y >= 4 as -x - y <= -4
        lp = program([1, 2], a_ub=[[-1, -1]], b_ub=[-4], bounds=[(0, 10), (0, 10)])
        solution = any_backend.solve_arrays(**lp)
        assert solution.is_optimal
        assert solution.objective == pytest.approx(4.0)
        assert solution.x[0] == pytest.approx(4.0)

    def test_equality_constraint(self, any_backend):
        lp = program([3, 1], a_eq=[[1, 1]], b_eq=[1.2], bounds=[(0, 1), (0, 1)])
        solution = any_backend.solve_arrays(**lp)
        assert solution.objective == pytest.approx(0.2 * 3 + 1.0)

    def test_objective_constant(self, any_backend):
        lp = program([1], bounds=[(0, 1)], constant=7.0)
        assert any_backend.solve_arrays(**lp).objective == pytest.approx(7.0)

    def test_infeasible(self, any_backend):
        lp = program([1], a_ub=[[-1]], b_ub=[-2.0], bounds=[(0, 1)])
        assert any_backend.solve_arrays(**lp).status == "infeasible"

    def test_unbounded(self, any_backend):
        lp = program([-1], bounds=np.array([[0.0, np.inf]]))
        assert any_backend.solve_arrays(**lp).status == "unbounded"

    def test_nonzero_lower_bounds(self, any_backend):
        solution = any_backend.solve_arrays(**program([1], bounds=[(2.0, 5.0)]))
        assert solution.objective == pytest.approx(2.0)
        assert solution.x[0] == pytest.approx(2.0)

    def test_negative_rhs_normalization(self, any_backend):
        lp = program([1], a_ub=[[-1]], b_ub=[-3.0], bounds=[(0, 10)])  # x >= 3
        assert any_backend.solve_arrays(**lp).objective == pytest.approx(3.0)

    def test_redundant_equality_rows(self, any_backend):
        lp = program(
            [1, 3],
            a_eq=[[1, 1], [2, 2]],  # the second row is redundant
            b_eq=[4, 8],
            bounds=[(0, 10), (0, 10)],
        )
        assert any_backend.solve_arrays(**lp).objective == pytest.approx(4.0)

    def test_backends_agree_on_random_lps(self):
        rng = np.random.default_rng(42)
        for trial in range(25):
            n = int(rng.integers(2, 6))
            upper = [float(rng.uniform(0.5, 3)) for _ in range(n)]
            rows, rhs = [], []
            for _ in range(int(rng.integers(1, 5))):
                row = np.zeros(n)
                chosen = rng.choice(n, size=min(n, 3), replace=False)
                row[chosen] = [float(rng.uniform(-2, 2)) for _ in chosen]
                flip = 1.0 if int(rng.integers(2)) == 0 else -1.0  # <= or >=
                bound = float(rng.uniform(-1, 3))
                rows.append(flip * row)
                rhs.append(flip * bound)
            lp = program(
                rng.uniform(-1, 2, size=n),
                a_ub=rows,
                b_ub=rhs,
                bounds=[(0.0, ub) for ub in upper],
            )
            s1, s2 = _solve_both(lp)
            assert s1.status == s2.status, f"trial {trial}"
            if s1.is_optimal:
                assert s1.objective == pytest.approx(s2.objective, abs=1e-6), (
                    f"trial {trial}"
                )

    def test_simplex_iteration_limit(self):
        backend = SimplexBackend(max_iterations=1)
        lp = program(
            [1, 1],
            a_ub=[[-1, -2], [-2, -1]],  # x + 2y >= 3, 2x + y >= 3
            b_ub=[-3, -3],
            bounds=[(0, 10), (0, 10)],
        )
        with pytest.raises(LPError):
            backend.solve_arrays(**lp)

    def test_simplex_takes_compiled_program_inputs(self):
        """CSR rows and an ``(n, 2)`` bounds array with ``inf`` — the forms
        ``CompiledProgram`` passes — solve like dense rows and tuples."""
        from scipy import sparse

        dense = program(
            [1, 2, -1],
            a_ub=[[-1, -1, 0], [0, 1, 1]],
            b_ub=[-1.5, 4.0],
            a_eq=[[1, 0, 1]],
            b_eq=[2.0],
            bounds=[(0, 1), (0, 1), (0, None)],
        )
        compiled = dict(
            dense,
            a_ub=sparse.csr_matrix(dense["a_ub"]),
            a_eq=sparse.csr_matrix(dense["a_eq"]),
            bounds=np.array([[0.0, 1.0], [0.0, 1.0], [0.0, np.inf]]),
        )
        oracle = SimplexBackend()
        expected = oracle.solve_arrays(**dense)
        assert expected.is_optimal
        solution = oracle.solve_arrays(**compiled)
        assert solution.objective == pytest.approx(expected.objective)
        np.testing.assert_allclose(solution.x, expected.x)
        assert ScipyBackend().solve_arrays(**compiled).objective == pytest.approx(
            expected.objective
        )

    def test_simplex_refuses_unbounded_below_columns(self):
        with pytest.raises(LPError, match="finite lower bounds"):
            SimplexBackend().solve_arrays(**program([1], bounds=[(None, 1.0)]))

    def test_adaptive_method_selection(self):
        assert IPM_THRESHOLD == 3000
        assert resolve_method(1) == "highs"
        assert resolve_method(IPM_THRESHOLD) == "highs"
        assert resolve_method(IPM_THRESHOLD + 1) == "highs-ipm"


def _dense_random_lp(seed=0, num_variables=40, num_rows=30):
    """A feasible, bounded LP that HiGHS cannot finish in one iteration."""
    rng = np.random.default_rng(seed)
    rows, rhs = [], []
    for _ in range(num_rows):
        rows.append(rng.uniform(-1, 1, size=num_variables))
        rhs.append(float(rng.uniform(0.5, 1.5)))
    return program(
        rng.uniform(-1, 1, num_variables),
        a_ub=rows,
        b_ub=rhs,
        bounds=[(0.0, 1.0)] * num_variables,
    )


class TestScipyIterationLimit:
    def test_limit_reported_as_iteration_limit(self):
        """HiGHS's maxiter stop maps to the distinct ``iteration_limit``
        status — not a bare "error"."""
        lp = _dense_random_lp()
        result = linprog(
            c=lp["c"],
            A_ub=lp["a_ub"],
            b_ub=lp["b_ub"],
            bounds=lp["bounds"],
            method="highs",
            options={"maxiter": 1, "presolve": False},
        )
        assert "iteration" in result.message.lower()
        assert status.canonical(status.LINPROG_STATUS[result.status]) == (
            status.ITERATION_LIMIT
        )

    def test_same_program_solves_without_limit(self):
        solution = ScipyBackend().solve_arrays(**_dense_random_lp())
        assert solution.is_optimal
