"""RHMS output perturbation (Rastogi, Hay, Miklau & Suciu, PODS 2009).

RHMS answers counting queries for arbitrary connected subgraphs under
(ε,γ)-*adversarial* privacy — a strictly weaker guarantee than differential
privacy, holding only against a specific class of adversaries.  Its error
for a ``k``-node ``l``-edge connected subgraph is
``Θ((k·l²·log|V|)^{l-1}/ε)`` (the paper's Fig. 1 row), i.e. the noise
magnitude grows exponentially with the number of subgraph edges — which is
why it produces no meaningful answer for triangle or 2-triangle counting in
Fig. 4.

We reproduce it as output perturbation with Laplace noise of exactly that
scale.  (The original uses a shifted/truncated noise distribution tuned to
the adversarial-privacy proof; the error magnitude, which is what the
evaluation compares, is the Fig. 1 scale.)  Re-implementation decisions are
recorded in the README section "Deviations from the paper".
"""

from __future__ import annotations

import math
import time

from ..errors import PatternError, PrivacyParameterError
from ..graphs.graph import Graph
from ..rng import RngLike, laplace
from ..subgraphs.patterns import Pattern
from .common import BaselineResult

__all__ = ["RHMSMechanism"]


class RHMSMechanism:
    """Output perturbation with the RHMS noise scale.

    Parameters
    ----------
    graph:
        The host graph (only ``|V|`` enters the noise scale).
    pattern:
        The query subgraph — ``k`` nodes, ``l`` edges.
    true_answer:
        The exact count (RHMS itself is O(1) given the count, Fig. 1).
    """

    def __init__(self, graph: Graph, pattern: Pattern, true_answer: float):
        self.graph = graph
        self.pattern = pattern
        self.true_answer = float(true_answer)
        if pattern.num_edges < 1:
            raise PatternError("pattern must have at least one edge")

    def noise_scale(self, epsilon: float) -> float:
        """``(k·l²·ln|V|)^{l-1} / ε``."""
        k = self.pattern.num_nodes
        num_edges = self.pattern.num_edges
        log_v = math.log(max(self.graph.num_nodes, 2))
        return (k * num_edges * num_edges * log_v) ** (num_edges - 1) / epsilon

    def run(self, epsilon: float, rng: RngLike = None) -> BaselineResult:
        """Release the count with the Fig. 1 RHMS noise scale."""
        if epsilon <= 0:
            raise PrivacyParameterError(f"epsilon must be positive, got {epsilon}")
        start = time.perf_counter()
        scale = self.noise_scale(epsilon)
        answer = self.true_answer + laplace(scale, rng)
        return BaselineResult(
            answer=answer,
            true_answer=self.true_answer,
            noise_scale=scale,
            mechanism=f"rhms-{self.pattern.name}",
            privacy="adversarial-edge",
            epsilon=epsilon,
            seconds=time.perf_counter() - start,
        )
