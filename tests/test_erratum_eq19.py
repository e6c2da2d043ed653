"""Erratum: Eq. 19's bounding sequence is not recursive for disjunctions.

During this reproduction, property-based testing surfaced a counterexample
to the paper's Theorem 4 claim that the Eq. 19 sequence ``G`` is a
recursive sequence (the claim's proof says "the same as the proof for H",
but the H argument does not transfer: the ``max_p`` over participants can
*increase* when a fresh participant's row couples several tuples).

Counterexample (documented in the README, "Deviations from the paper"):

    P2 = {p0..p4},  tuples  t0 : p0 ∨ p1,   t1 : p0 ∨ p2,   q ≡ 1
    P1 = P2 - {p0}  (so t0 : p1, t1 : p2)

    G_3(P2) = 4/3  >  G_3(P1) = 1         (Def. 17 requires ≤)

and consequently ``ln Δ`` moves by 2β between these neighbors, i.e. the
Lemma-1 sensitivity bound — and with it the ε1 budget accounting — fails
by a factor of 2 on this instance (the factor is unbounded in general:
chain one shared variable across T tuples).

For *conjunctive* annotations (every subgraph-counting relation) the
property does hold — tuples containing the withdrawn participant have
φ = 0 whenever its coordinate is 0, so the fresh row vanishes at the
embedded minimizer — which is why the paper's flagship results are
unaffected.  The library's ``bounding="uniform"`` mode (``Ĝ = 2·S̄·H``)
restores soundness for arbitrary annotations.

These tests pin down the erratum so it cannot be silently "fixed" into
unfaithfulness, and verify both repair paths.
"""

import math

import pytest

from repro.boolexpr import parse
from repro.core import EfficientRecursiveMechanism, SensitiveKRelation
from repro.core.params import RecursiveMechanismParams


@pytest.fixture
def counterexample():
    full = SensitiveKRelation(
        ["p0", "p1", "p2", "p3", "p4"],
        [("t0", parse("p0 | p1")), ("t1", parse("p0 | p2"))],
    )
    return full, full.withdraw("p0")


class TestEq19Violation:
    def test_g_values_match_hand_computation(self, counterexample):
        full, less = counterexample
        mech_full = EfficientRecursiveMechanism(full, bounding="paper")
        mech_less = EfficientRecursiveMechanism(less, bounding="paper")
        # hand-derived: minimizer puts f0=f1=f2=1/3 (full) / f1=f2=1/2 (less)
        assert mech_full.g_entry(3) == pytest.approx(4.0 / 3.0, abs=1e-6)
        assert mech_less.g_entry(3) == pytest.approx(1.0, abs=1e-6)

    def test_def17_violated_by_paper_g(self, counterexample):
        full, less = counterexample
        mech_full = EfficientRecursiveMechanism(full, bounding="paper")
        mech_less = EfficientRecursiveMechanism(less, bounding="paper")
        # Def. 17 requires G_i(P2) <= G_i(P1); here it FAILS at i = 3.
        assert mech_full.g_entry(3) > mech_less.g_entry(3) + 0.3

    def test_lemma1_violated_by_paper_g(self, counterexample):
        full, less = counterexample
        params = RecursiveMechanismParams(epsilon1=0.25, epsilon2=0.25, beta=0.1)
        delta_full, _ = EfficientRecursiveMechanism(
            full, bounding="paper"
        ).compute_delta(params)
        delta_less, _ = EfficientRecursiveMechanism(
            less, bounding="paper"
        ).compute_delta(params)
        gap = abs(math.log(delta_full) - math.log(delta_less))
        assert gap == pytest.approx(2 * params.beta, abs=1e-9)  # 2x the bound

    def test_violation_grows_with_coupling(self):
        """Chaining one shared variable across T tuples grows the ratio."""
        for t_count, min_ratio in ((2, 1.3), (4, 1.5)):
            participants = ["hub"] + [f"q{i}" for i in range(t_count)] + [
                f"spare{i}" for i in range(t_count)
            ]
            full = SensitiveKRelation(
                participants,
                [(f"t{i}", parse(f"hub | q{i}")) for i in range(t_count)],
            )
            less = full.withdraw("hub")
            i = t_count + 1  # spares full, one unit spread over the q's
            g_full = EfficientRecursiveMechanism(full, bounding="paper").g_entry(i)
            g_less = EfficientRecursiveMechanism(less, bounding="paper").g_entry(i)
            assert g_full >= min_ratio * g_less


class TestRepairs:
    def test_uniform_mode_restores_def17(self, counterexample):
        full, less = counterexample
        mech_full = EfficientRecursiveMechanism(full, bounding="uniform", s_bar=1.0)
        mech_less = EfficientRecursiveMechanism(less, bounding="uniform", s_bar=1.0)
        for i in range(less.num_participants + 1):
            assert mech_full.g_entry(i) <= mech_less.g_entry(i) + 1e-9
            assert mech_less.g_entry(i) <= mech_full.g_entry(i + 1) + 1e-9

    def test_uniform_mode_restores_lemma1(self, counterexample):
        full, less = counterexample
        params = RecursiveMechanismParams(epsilon1=0.25, epsilon2=0.25, beta=0.1)
        delta_full, _ = EfficientRecursiveMechanism(
            full, bounding="uniform", s_bar=1.0
        ).compute_delta(params)
        delta_less, _ = EfficientRecursiveMechanism(
            less, bounding="uniform", s_bar=1.0
        ).compute_delta(params)
        assert abs(math.log(delta_full) - math.log(delta_less)) <= params.beta + 1e-9

    def test_uniform_g_is_2bounding(self, counterexample):
        """Ĝ must still satisfy Def. 18 (g = 2) so Theorem 1 applies."""
        full, _ = counterexample
        mech = EfficientRecursiveMechanism(full, bounding="uniform", s_bar=1.0)
        n = mech.num_participants
        h = [mech.h_entry(i) for i in range(n + 1)]
        g = [mech.g_entry(i) for i in range(n + 1)]
        for i in range(n + 1):
            for j in range(i, n + 1):
                k = n - (n - j) // 2
                assert h[j] <= h[i] + (n - i) * g[k] + 1e-7

    def test_auto_mode_selects_safely(self, counterexample):
        full, _ = counterexample
        assert EfficientRecursiveMechanism(full).bounding == "uniform"
        conj = SensitiveKRelation(["a", "b"], [("t", parse("a & b"))])
        assert EfficientRecursiveMechanism(conj).bounding == "paper"

    def test_invalid_bounding_rejected(self, counterexample):
        from repro.errors import MechanismError

        full, _ = counterexample
        with pytest.raises(MechanismError):
            EfficientRecursiveMechanism(full, bounding="magic")
