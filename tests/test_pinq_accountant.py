"""Tests for the PINQ-style baseline.

Budget accounting (charging, the cap, refusal, rollback) is pinned by the
budget tests in ``tests/test_session.py``.
"""

import pytest

from repro.baselines.pinq import PINQStyleLaplace
from repro.boolexpr import parse
from repro.core import EfficientRecursiveMechanism, SensitiveKRelation
from repro.errors import MechanismError, PrivacyParameterError
from repro.graphs import random_graph_with_avg_degree
from repro.subgraphs import subgraph_krelation, triangle


@pytest.fixture
def star_relation():
    """One participant ('hub') appears in many tuples — unrestricted join."""
    pairs = [(f"t{i}", parse(f"hub & leaf{i}")) for i in range(10)]
    participants = ["hub"] + [f"leaf{i}" for i in range(10)]
    return SensitiveKRelation(participants, pairs)


class TestPINQBaseline:
    def test_restricted_join_is_unbiased(self):
        """When the bound holds, the clipped count equals the true count."""
        pairs = [(f"t{i}", parse(f"a{i} & b{i}")) for i in range(6)]
        participants = [f"a{i}" for i in range(6)] + [f"b{i}" for i in range(6)]
        relation = SensitiveKRelation(participants, pairs)
        mech = PINQStyleLaplace(relation, max_tuples_per_participant=1)
        assert mech.clipped_answer == mech.true_answer == 6.0
        assert mech.dropped_weight == 0.0

    def test_unrestricted_join_clips(self, star_relation):
        mech = PINQStyleLaplace(star_relation, max_tuples_per_participant=3)
        assert mech.true_answer == 10.0
        assert mech.clipped_answer == 3.0  # hub capped at 3 tuples
        assert mech.dropped_weight == 7.0

    def test_strict_mode_refuses(self, star_relation):
        with pytest.raises(MechanismError):
            PINQStyleLaplace(star_relation, max_tuples_per_participant=3, strict=True)

    def test_noise_scale_is_bound_over_epsilon(self, star_relation):
        mech = PINQStyleLaplace(star_relation, max_tuples_per_participant=4)
        assert mech.noise_scale(0.5) == pytest.approx(8.0)

    def test_run_returns_result(self, star_relation):
        result = PINQStyleLaplace(star_relation, 2).run(1.0, rng=0)
        assert result.mechanism == "pinq-bound-2"
        assert result.diagnostics["dropped_weight"] == 8.0

    def test_invalid_parameters(self, star_relation):
        with pytest.raises(PrivacyParameterError):
            PINQStyleLaplace(star_relation, 0)
        with pytest.raises(PrivacyParameterError):
            PINQStyleLaplace(star_relation, 2).run(0.0)

    def test_bias_vs_recursive_mechanism(self):
        """The paper's comparison: on unrestricted joins, PINQ-style clipping
        biases the answer while the recursive mechanism stays consistent."""
        g = random_graph_with_avg_degree(40, 8, rng=3)
        relation = subgraph_krelation(g, triangle(), privacy="node")
        pinq = PINQStyleLaplace(relation, max_tuples_per_participant=1)
        # heavy clipping: most triangles share nodes
        assert pinq.clipped_answer < 0.6 * pinq.true_answer
        recursive = EfficientRecursiveMechanism(relation)
        assert recursive.true_answer() == pinq.true_answer

