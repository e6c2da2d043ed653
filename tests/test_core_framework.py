"""Tests for parameters, the Δ/X machinery, and the mechanism lemmas.

The Δ and X computations are deterministic given the database, so the
lemmas of Sec. 4.1 (Lemma 1–3, 7) can be checked exactly on concrete
recursive/bounding sequences.
"""

import math

import numpy as np
import pytest

from repro.core import RecursiveMechanismParams, theorem1_error_bound
from repro.core.framework import MechanismResult, RecursiveMechanismBase
from repro.errors import PrivacyParameterError


class SequenceMechanism(RecursiveMechanismBase):
    """A mechanism defined directly by explicit H and G sequences."""

    def __init__(self, h, g):
        super().__init__()
        assert len(h) == len(g)
        self._h = list(h)
        self._g = list(g)

    @property
    def num_participants(self):
        return len(self._h) - 1

    def _h_entry(self, i):
        return self._h[i]

    def _g_entry(self, i):
        return self._g[i]

    def true_answer(self):
        return self._h[-1]


def linear_scan_delta(g, beta, theta):
    """Reference implementation of Eq. 11 by scanning all i."""
    n = len(g) - 1
    for i in range(n + 1):
        if g[n - i] <= math.exp(i * beta) * theta:
            return math.exp(i * beta) * theta, i
    raise AssertionError("no feasible i — G_0 must be 0")


class TestParams:
    def test_paper_defaults(self):
        params = RecursiveMechanismParams.paper(0.5)
        assert params.epsilon == pytest.approx(0.5)
        assert params.beta == pytest.approx(0.1)
        assert params.theta == 1.0
        assert params.mu == 0.5
        params_node = RecursiveMechanismParams.paper(0.5, node_privacy=True)
        assert params_node.mu == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(epsilon1=0, epsilon2=1, beta=1),
            dict(epsilon1=1, epsilon2=-1, beta=1),
            dict(epsilon1=1, epsilon2=1, beta=0),
            dict(epsilon1=1, epsilon2=1, beta=1, theta=0),
            dict(epsilon1=1, epsilon2=1, beta=1, mu=0),
            dict(epsilon1=1, epsilon2=1, beta=1, g=0),
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(PrivacyParameterError):
            RecursiveMechanismParams(**kwargs)

    def test_invalid_epsilon_for_paper(self):
        with pytest.raises(PrivacyParameterError):
            RecursiveMechanismParams.paper(-1.0)
        with pytest.raises(PrivacyParameterError):
            RecursiveMechanismParams.paper(1.0, split=1.5)

    def test_failure_probability(self):
        params = RecursiveMechanismParams.paper(0.5)
        p = params.failure_probability(3.0)
        assert 0 < p < 1

    def test_theorem1_bound_positive_and_monotone_in_g(self):
        params = RecursiveMechanismParams.paper(0.5)
        b1 = theorem1_error_bound(params, 5.0)
        b2 = theorem1_error_bound(params, 50.0)
        assert 0 < b1 < b2

    def test_theorem1_bound_needs_positive_c(self):
        params = RecursiveMechanismParams.paper(0.5)
        with pytest.raises(PrivacyParameterError):
            theorem1_error_bound(params, 5.0, c=0)


class TestComputeDelta:
    @pytest.mark.parametrize(
        "h,g",
        [
            ([0, 0, 0, 1, 3, 6], [0, 0, 1, 2, 3, 3]),
            ([0, 1, 2, 3], [0, 1, 1, 1]),
            ([0, 0, 0, 0], [0, 0, 0, 0]),
            ([0] + [0] * 19 + [100], [0] * 15 + [40] * 6),
        ],
    )
    def test_binary_search_matches_linear_scan(self, h, g):
        params = RecursiveMechanismParams.paper(0.5)
        mech = SequenceMechanism(h, g)
        delta, j = mech.compute_delta(params)
        expected_delta, expected_j = linear_scan_delta(g, params.beta, params.theta)
        assert delta == pytest.approx(expected_delta)
        assert j == expected_j

    def test_lemma2_delta_bounded(self):
        """Lemma 2: Δ <= max(θ, e^β G_{|P|})."""
        params = RecursiveMechanismParams.paper(0.5)
        for g_values in ([0, 2, 5, 9], [0, 0, 0, 0], [0, 1, 1, 200]):
            h = [0] * len(g_values)
            mech = SequenceMechanism(h, g_values)
            delta, _ = mech.compute_delta(params)
            assert delta <= max(
                params.theta, math.exp(params.beta) * g_values[-1]
            ) + 1e-9

    def test_lemma3_g_at_shifted_index_bounded_by_delta(self):
        """Lemma 3: G_{|P| - ln(Δ/θ)/β} <= Δ."""
        params = RecursiveMechanismParams.paper(0.5)
        g_values = [0, 1, 2, 4, 8, 16]
        mech = SequenceMechanism([0] * 6, g_values)
        delta, j = mech.compute_delta(params)
        shift = round(math.log(delta / params.theta) / params.beta)
        assert shift == j
        assert g_values[len(g_values) - 1 - shift] <= delta + 1e-9

    def test_zero_participants(self):
        params = RecursiveMechanismParams.paper(0.5)
        mech = SequenceMechanism([0], [0])
        delta, j = mech.compute_delta(params)
        assert delta == params.theta
        assert j == 0

    def test_lemma1_log_delta_sensitivity(self):
        """GS_{ln Δ} <= β: j moves by at most 1 between neighbors.

        We simulate neighbors by the recursive-monotonicity relation:
        H_i(P2) <= H_i(P1) <= H_{i+1}(P2).  For sequence mechanisms,
        shifting the sequence by one index models a withdrawal.
        """
        params = RecursiveMechanismParams.paper(0.5)
        rng = np.random.default_rng(0)
        for _ in range(50):
            # random nondecreasing G with G_0 = 0 for the larger database
            increments = rng.random(8) * rng.integers(0, 4, size=8)
            g2 = [0.0]
            for inc in increments:
                g2.append(g2[-1] + float(inc))
            # neighbor: G1_i sandwiched between G2_i and G2_{i+1}
            lam = rng.random(len(g2) - 1)
            g1 = [g2[i] + lam[i] * (g2[i + 1] - g2[i]) for i in range(len(g2) - 1)]
            g1[0] = 0.0
            d1, _ = SequenceMechanism([0] * len(g1), g1).compute_delta(params)
            d2, _ = SequenceMechanism([0] * len(g2), g2).compute_delta(params)
            assert abs(math.log(d1) - math.log(d2)) <= params.beta + 1e-9


class TestComputeX:
    def test_scan_minimum(self):
        mech = SequenceMechanism([0, 0, 1, 5], [0, 1, 2, 3])
        value, index = mech._compute_x(0.5)
        expected = min([0 + 3 * 0.5, 0 + 2 * 0.5, 1 + 1 * 0.5, 5 + 0 * 0.5])
        assert value == pytest.approx(expected)
        assert index == 1.0

    def test_lemma7_x_sensitivity_bounded_by_delta_hat(self):
        """|X(P1) - X(P2)| <= Δ̂ for neighboring sequences."""
        rng = np.random.default_rng(1)
        for _ in range(50):
            # random convex nondecreasing H2 with H2_0 = 0
            increments = np.sort(rng.random(7))
            h2 = [0.0]
            for inc in increments:
                h2.append(h2[-1] + float(inc) * 3)
            # neighbor H1 interleaved: H2_i <= H1_i <= H2_{i+1}
            lam = rng.random(len(h2) - 1)
            h1 = [h2[i] + lam[i] * (h2[i + 1] - h2[i]) for i in range(len(h2) - 1)]
            h1[0] = 0.0
            delta_hat = float(rng.random() * 2)
            x1, _ = SequenceMechanism(h1, [0] * len(h1))._compute_x(delta_hat)
            x2, _ = SequenceMechanism(h2, [0] * len(h2))._compute_x(delta_hat)
            assert x1 - 1e-9 <= x2 <= x1 + delta_hat + 1e-9


class TestRun:
    def test_run_produces_result(self):
        params = RecursiveMechanismParams.paper(1.0)
        mech = SequenceMechanism([0, 1, 2, 5], [0, 1, 2, 2])
        result = mech.run(params, rng=0)
        assert isinstance(result, MechanismResult)
        assert result.true_answer == 5
        assert result.delta_hat > 0
        assert result.relative_error is not None

    def test_run_deterministic_given_seed(self):
        params = RecursiveMechanismParams.paper(1.0)
        mech = SequenceMechanism([0, 1, 2, 5], [0, 1, 2, 2])
        r1 = mech.run(params, rng=7)
        r2 = SequenceMechanism([0, 1, 2, 5], [0, 1, 2, 2]).run(params, rng=7)
        assert r1.answer == r2.answer

    def test_sample_answers_reuses_cache(self):
        params = RecursiveMechanismParams.paper(1.0)
        mech = SequenceMechanism([0, 1, 2, 5], [0, 1, 2, 2])
        rng = np.random.default_rng(3)
        results = [mech.run(params, rng)]
        g_entries = len(mech._g_cache)
        results += [mech.run(params, rng) for _ in range(19)]
        assert len(mech._g_cache) == g_entries  # Δ's G entries are reused
        answers = {r.answer for r in results}
        assert len(answers) > 1  # fresh noise per trial

    def test_delta_hat_bias_upward(self):
        """With μ > 0, Δ̂ >= Δ with high probability (Lemma 6)."""
        params = RecursiveMechanismParams.paper(0.5, node_privacy=True)
        mech = SequenceMechanism([0, 1, 3, 6], [0, 2, 4, 4])
        delta, _ = mech.compute_delta(params)
        rng = np.random.default_rng(5)
        above = sum(mech.noisy_delta(delta, params, rng) >= delta for _ in range(400))
        # failure probability is e^{-mu*eps1/beta}/2 = e^{-2.5}/2 ≈ 0.04
        assert above > 320

    def test_mechanism_result_relative_error_zero_truth(self):
        result = MechanismResult(
            answer=0.0,
            delta=1,
            delta_hat=1,
            x_value=0,
            x_index=0,
            j_star=0,
            params=RecursiveMechanismParams.paper(1.0),
            true_answer=0.0,
        )
        assert result.relative_error == 0.0
        result.answer = 1.0
        assert result.relative_error == float("inf")
