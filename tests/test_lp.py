"""Tests for the LP solver contract.

Every backend is driven the way :class:`~repro.lp.compiled.CompiledProgram`
drives it: a model built once through ``build_persistent`` and solved.  The
persistent HiGHS models, the one-shot linprog oracle and the dense simplex
oracle (``tests/lp_oracle.py``) must agree on status, objective and
solution; on HiGHS the infeasible, unbounded, empty and redundant-row
cases pin the status translation (``highs_engine._status_name``).
"""

import numpy as np
import pytest
from lp_oracle import LinprogBackend, SimplexBackend
from scipy import sparse

from repro.errors import LPError
from repro.lp import HIGHS, status
from repro.lp.highs_engine import IPM_THRESHOLD, cold_solver


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


def solve(backend, lp):
    """Solve ``lp`` (a :func:`program`) on a model ``backend`` builds: the
    ``A_ub`` rows with lower bound ``-inf``, then the ``A_eq`` rows with
    equal bounds, as ``CompiledProgram`` lays out its rows."""
    n = len(lp["c"])
    blocks, lower, upper = [], [], []
    if lp["a_ub"] is not None:
        blocks.append(lp["a_ub"])
        lower.extend([-np.inf] * len(lp["b_ub"]))
        upper.extend(lp["b_ub"])
    if lp["a_eq"] is not None:
        blocks.append(lp["a_eq"])
        lower.extend(lp["b_eq"])
        upper.extend(lp["b_eq"])
    bounds = [
        (-np.inf if lo is None else lo, np.inf if hi is None else hi)
        for lo, hi in lp["bounds"]
    ]
    bounds = np.array(bounds, dtype=float).reshape(n, 2)
    model = backend.build_persistent(
        sparse.csr_matrix(np.vstack(blocks)) if blocks else sparse.csr_matrix((0, n)),
        col_costs=lp["c"],
        col_lower=bounds[:, 0],
        col_upper=bounds[:, 1],
        row_lower=np.array(lower, dtype=float),
        row_upper=np.array(upper, dtype=float),
    )
    solution = model.solve()
    if solution.is_optimal:
        solution.objective += lp["objective_constant"]
    return solution


def _solve_all(lp):
    backends = (HIGHS, LinprogBackend(), SimplexBackend())
    return [solve(backend, lp) for backend in backends]


class TestBackends:
    def test_trivial_empty(self, any_backend):
        solution = solve(any_backend, program([]))
        assert solution.is_optimal
        assert solution.objective == 0.0

    def test_simple_minimum(self, any_backend):
        # x + y >= 4 as -x - y <= -4
        lp = program([1, 2], a_ub=[[-1, -1]], b_ub=[-4], bounds=[(0, 10), (0, 10)])
        solution = solve(any_backend, lp)
        assert solution.is_optimal
        assert solution.objective == pytest.approx(4.0)
        assert solution.x[0] == pytest.approx(4.0)

    def test_equality_constraint(self, any_backend):
        lp = program([3, 1], a_eq=[[1, 1]], b_eq=[1.2], bounds=[(0, 1), (0, 1)])
        solution = solve(any_backend, lp)
        assert solution.objective == pytest.approx(0.2 * 3 + 1.0)

    def test_objective_constant(self, any_backend):
        lp = program([1], bounds=[(0, 1)], constant=7.0)
        assert solve(any_backend, lp).objective == pytest.approx(7.0)

    def test_infeasible(self, any_backend):
        lp = program([1], a_ub=[[-1]], b_ub=[-2.0], bounds=[(0, 1)])
        assert solve(any_backend, lp).status == "infeasible"

    def test_unbounded(self, any_backend):
        lp = program([-1], bounds=np.array([[0.0, np.inf]]))
        assert solve(any_backend, lp).status == "unbounded"

    def test_nonzero_lower_bounds(self, any_backend):
        solution = solve(any_backend, program([1], bounds=[(2.0, 5.0)]))
        assert solution.objective == pytest.approx(2.0)
        assert solution.x[0] == pytest.approx(2.0)

    def test_negative_rhs_normalization(self, any_backend):
        lp = program([1], a_ub=[[-1]], b_ub=[-3.0], bounds=[(0, 10)])  # x >= 3
        assert solve(any_backend, lp).objective == pytest.approx(3.0)

    def test_redundant_equality_rows(self, any_backend):
        lp = program(
            [1, 3],
            a_eq=[[1, 1], [2, 2]],  # the second row is redundant
            b_eq=[4, 8],
            bounds=[(0, 10), (0, 10)],
        )
        assert solve(any_backend, lp).objective == pytest.approx(4.0)

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
            first, *others = _solve_all(lp)
            for other in others:
                assert other.status == first.status, f"trial {trial}"
                if first.is_optimal:
                    assert other.objective == pytest.approx(
                        first.objective, abs=1e-6
                    ), f"trial {trial}"

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
        assert LinprogBackend().solve_arrays(**compiled).objective == pytest.approx(
            expected.objective
        )

    def test_simplex_refuses_unbounded_below_columns(self):
        with pytest.raises(LPError, match="finite lower bounds"):
            SimplexBackend().solve_arrays(**program([1], bounds=[(None, 1.0)]))

    def test_adaptive_method_selection(self):
        assert IPM_THRESHOLD == 3000
        assert cold_solver(1) == "choose"
        assert cold_solver(IPM_THRESHOLD) == "choose"
        assert cold_solver(IPM_THRESHOLD + 1) == "ipm"
        for width, solver in ((IPM_THRESHOLD, "choose"), (IPM_THRESHOLD + 1, "ipm")):
            model = HIGHS.build_persistent(
                sparse.csr_matrix((1, width)),
                np.zeros(width),
                np.zeros(width),
                np.ones(width),
                np.array([-np.inf]),
                np.array([1.0]),
            )
            assert model._cold_options["solver"] == solver


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
    """HiGHS through SciPy's bindings, stopped early."""

    def test_limit_reported_as_iteration_limit(self):
        """HiGHS's iteration-limit stop maps to the distinct
        ``iteration_limit`` status — not a bare "error"."""
        lp = _dense_random_lp()
        model = HIGHS.build_persistent(
            sparse.csr_matrix(lp["a_ub"]),
            col_costs=lp["c"],
            col_lower=np.zeros(len(lp["c"])),
            col_upper=np.ones(len(lp["c"])),
            row_lower=np.full(len(lp["b_ub"]), -np.inf),
            row_upper=lp["b_ub"],
        )
        model._solver.setOptionValue("presolve", "off")
        model._solver.setOptionValue("simplex_iteration_limit", 1)
        solution = model.solve()
        assert solution.status == status.ITERATION_LIMIT
        assert "iteration" in solution.message.lower()

    def test_same_program_solves_without_limit(self):
        solution = solve(HIGHS, _dense_random_lp())
        assert solution.is_optimal
