"""Failure injection and complexity-contract tests.

The mechanism must fail loudly — never release a junk answer — when its
substrate misbehaves (solver failures, invalid intermediate values), and
its query complexity must match the paper's contracts (few G-entries per
Δ search, two H-entries per X).
"""

import math

import numpy as np
import pytest
from lp_oracle import ArrayBackend, LinprogBackend

from repro.boolexpr import parse
from repro.core import (
    EfficientRecursiveMechanism,
    RecursiveMechanismParams,
    SensitiveKRelation,
)
from repro.errors import LPError, MechanismError
from repro.graphs import random_graph_with_avg_degree
from repro.lp import HighsBackend, LPSolution
from repro.subgraphs import subgraph_krelation, triangle

# Most doubles below implement only ``solve_arrays``, so each solve reaches
# them through the test-side ``ArrayModel`` their base builds.
# ``FailingWalkBackend`` instead wraps the HiGHS G model the Δ search
# walks on.


def _is_g_program(c):
    """The G overlay is the only program whose objective is the lone
    trailing ``z`` column."""
    c = np.asarray(c)
    return c[-1] == 1.0 and not np.any(c[:-1])


class FailingBackend(ArrayBackend):
    """A backend that reports infeasibility for every program."""

    name = "failing"

    def solve_arrays(self, c, a_ub, b_ub, a_eq, b_eq, bounds, objective_constant=0.0):
        return LPSolution("infeasible", float("nan"), np.zeros(0), "injected")


class IterationLimitedBackend(ArrayBackend):
    """A backend whose every solve stops on the iteration limit."""

    name = "iteration-limited"

    def solve_arrays(self, c, a_ub, b_ub, a_eq, b_eq, bounds, objective_constant=0.0):
        return LPSolution(
            "iteration_limit", float("nan"), np.zeros(0), "Iteration limit reached"
        )


class TruncatedSolutionBackend(ArrayBackend):
    """A backend that claims optimality but returns no variable values."""

    name = "truncated"

    def solve_arrays(self, c, a_ub, b_ub, a_eq, b_eq, bounds, objective_constant=0.0):
        return LPSolution("optimal", 1.0, np.zeros(0), "truncated")


class CorruptingBackend(LinprogBackend):
    """Real solves, but a wrong (optimal-looking) X-step objective.

    The X overlay (Eq. 20) is the only program without the mass row, so
    ``a_eq is None`` singles it out; H and G solves stay exact.
    """

    def __init__(self, offset=100.0):
        super().__init__()
        self.offset = offset

    def solve_arrays(self, c, a_ub, b_ub, a_eq, b_eq, bounds, objective_constant=0.0):
        solution = super().solve_arrays(
            c, a_ub, b_ub, a_eq, b_eq, bounds, objective_constant
        )
        if solution.is_optimal and a_eq is None:
            solution.objective += self.offset
        return solution


class ErroringProbeBackend(LinprogBackend):
    """Exact solves, except that every G solve (each a cold Δ probe, as an
    array model ignores ``resume``) errors out."""

    def __init__(self):
        super().__init__()
        self.probes = 0

    def solve_arrays(self, c, a_ub, b_ub, a_eq, b_eq, bounds, objective_constant=0.0):
        if _is_g_program(c):
            self.probes += 1
            return LPSolution("error", float("nan"), np.zeros(0), "injected")
        return super().solve_arrays(
            c, a_ub, b_ub, a_eq, b_eq, bounds, objective_constant
        )


class FailingWalkBackend(HighsBackend):
    """Real HiGHS models, except that the Δ walk's G model reports
    ``status`` on its cold solves (``resumed=False``) or on its resumed
    ones (``resumed=True``)."""

    def __init__(self, status, resumed):
        super().__init__()
        self.status = status
        self.resumed = resumed
        self.injected = 0

    def build_persistent(self, matrix, col_costs, *args, **kwargs):
        model = super().build_persistent(matrix, col_costs, *args, **kwargs)
        if _is_g_program(col_costs):
            solve = model.solve

            def failing_solve(resume=False):
                solution = solve(resume=resume)
                if resume != self.resumed:
                    return solution
                self.injected += 1
                return LPSolution(self.status, float("nan"), np.zeros(0), "injected")

            model.solve = failing_solve
        return model


@pytest.fixture
def relation():
    return SensitiveKRelation(
        ["a", "b", "c"],
        [("t1", parse("a & b")), ("t2", parse("b & c")), ("t3", parse("a | c"))],
    )


class TestSolverFailures:
    def test_infeasible_solver_raises_not_releases(self, relation):
        mechanism = EfficientRecursiveMechanism(relation, backend=FailingBackend())
        params = RecursiveMechanismParams.paper(1.0)
        with pytest.raises(LPError):
            mechanism.run(params, rng=0)

    def test_truncated_solution_raises_lperror_not_indexerror(self, relation):
        """solve_x_relaxation reads x positionally per participant; an
        "optimal" solution without values must fail loudly, not with an
        opaque IndexError."""
        mechanism = EfficientRecursiveMechanism(
            relation, backend=TruncatedSolutionBackend()
        )
        with pytest.raises(LPError, match="variable values"):
            mechanism._compute_x(0.5)

    def test_iteration_limited_solver_cause_surfaced(self, relation):
        """An LP stopped on the iteration budget must name the real cause
        in the raised error rather than a bare \"error\"."""
        mechanism = EfficientRecursiveMechanism(
            relation, backend=IterationLimitedBackend()
        )
        with pytest.raises(LPError, match="iteration_limit"):
            mechanism.h_entry(2)

    @staticmethod
    def _walk_failure(backend):
        """Run one Δ search on ``backend``; return the raised LPError."""
        graph = random_graph_with_avg_degree(30, 6, rng=0)
        relation = subgraph_krelation(graph, triangle(), privacy="node")
        mechanism = EfficientRecursiveMechanism(relation, backend=backend)
        params = RecursiveMechanismParams.paper(0.5, node_privacy=True)
        with pytest.raises(LPError) as caught:
            mechanism.compute_delta(params)
        # the failed walk's model is freed like a finished one's
        assert mechanism._encoded._compiled._g_model is None
        return caught.value

    def test_errored_g_probe_raises_not_decides(self):
        """A Δ probe whose solver reports ``error`` — on the walk's cold
        first solve, on a resumed solve, or through an array model — must
        abort the Δ search with an LPError, never be read as ``G_i > τ``."""
        for resumed in (False, True):
            backend = FailingWalkBackend("error", resumed=resumed)
            error = self._walk_failure(backend)
            assert "probe failed: error" in str(error)
            assert backend.injected == 1
        backend = ErroringProbeBackend()
        assert "probe failed: error" in str(self._walk_failure(backend))
        assert backend.probes == 1

    def test_iteration_limited_g_probe_names_the_status(self):
        for resumed in (False, True):
            backend = FailingWalkBackend("iteration_limit", resumed=resumed)
            error = self._walk_failure(backend)
            assert "probe failed: iteration_limit" in str(error)
            assert backend.injected == 1

    def test_corrupted_x_relaxation_detected_by_convexity_guard(self, relation):
        """A solver returning a too-high Eq. 20 relaxation trips the
        consistency check instead of silently biasing the release."""
        mechanism = EfficientRecursiveMechanism(
            relation, backend=CorruptingBackend(offset=100.0)
        )
        with pytest.raises(MechanismError, match="convexity violation"):
            mechanism._compute_x(0.5)

    def test_corrupted_objective_detected_by_convexity_guard(self, relation):
        """A solver returning too-low X values trips the Eq. 20 consistency
        check instead of silently biasing the release."""
        mechanism = EfficientRecursiveMechanism(relation)
        # corrupt only the H entries used by _compute_x via a hostile cache
        mechanism._h_cache = {0: -500.0, 1: -500.0, 2: -500.0, 3: -500.0}
        with pytest.raises(MechanismError):
            mechanism._compute_x(0.5)


class TestComplexityContracts:
    def test_delta_search_touches_logarithmic_g_entries(self):
        graph = random_graph_with_avg_degree(60, 8, rng=0)
        relation = subgraph_krelation(graph, triangle(), privacy="node")
        mechanism = EfficientRecursiveMechanism(relation)
        params = RecursiveMechanismParams.paper(0.5, node_privacy=True)
        mechanism.compute_delta(params)
        # full-index closed forms, and the core's entries by core index
        touched = len(mechanism._g_cache) + len(mechanism._g_core)
        g_final = mechanism.g_entry(mechanism.num_participants)
        # Sec. 5.3: O(log(ln(G)/beta)) entries; generous constant
        bound = 4 + 2 * math.log2(max(2.0, 1 + math.log(max(g_final, 2)) / params.beta))
        assert touched <= bound

    def test_x_touches_constant_h_entries_per_run(self, relation):
        mechanism = EfficientRecursiveMechanism(relation)
        params = RecursiveMechanismParams.paper(1.0)
        mechanism.run(params, rng=0)
        first = len(mechanism._h_cache)
        mechanism.run(params, rng=1)
        mechanism.run(params, rng=2)
        # each extra run adds at most 2 new H entries (floor/ceil of i')
        assert len(mechanism._h_cache) <= first + 4

    def test_lp_size_linear_in_annotation_length(self):
        graph = random_graph_with_avg_degree(40, 8, rng=1)
        relation = subgraph_krelation(graph, triangle(), privacy="node")
        mechanism = EfficientRecursiveMechanism(relation)
        length = relation.total_annotation_length()
        assert mechanism.lp_size <= length + relation.num_participants + 1

    def test_trial_cost_independent_of_trial_count(self, relation):
        """Repeated runs reuse Δ: G entries stay fixed across trials."""
        mechanism = EfficientRecursiveMechanism(relation)
        params = RecursiveMechanismParams.paper(1.0)
        for seed in range(3):
            mechanism.run(params, rng=seed)
        g_after_three = len(mechanism._g_cache)
        for seed in range(3, 13):
            mechanism.run(params, rng=seed)
        assert len(mechanism._g_cache) == g_after_three


class TestValidationGuards:
    def test_zero_epsilon_everywhere(self, relation):
        from repro.errors import PrivacyParameterError

        with pytest.raises(PrivacyParameterError):
            RecursiveMechanismParams.paper(0.0)

    def test_answer_never_uses_unknown_weight_sign(self):
        from repro.core.queries import WeightedQuery
        from repro.errors import MechanismError

        relation = SensitiveKRelation(["a"], [("t", parse("a"))])
        with pytest.raises(MechanismError):
            EfficientRecursiveMechanism(relation, query=WeightedQuery(lambda t: -2.0))

    def test_mechanism_diagnostics_populated(self, relation):
        mechanism = EfficientRecursiveMechanism(relation)
        result = mechanism.run(RecursiveMechanismParams.paper(1.0), rng=0)
        assert result.diagnostics["num_participants"] == 3.0
        assert result.seconds > 0
        assert result.j_star >= 0
