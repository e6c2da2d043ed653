"""Karwa et al. (PVLDB 2011) k-triangle counting ((ε,δ)-DP, edge privacy).

A k-triangle is a base edge plus ``k`` apexes from its common neighborhood.
Changing one edge ``(u,v)`` affects (i) the k-triangles based on ``(u,v)``
itself — ``C(a_uv, k)`` of them — and (ii) k-triangles based on other edges
for which the changed edge adds/removes an apex or a side; each is bounded
through ``a_max = max_(i,j)∈E a_ij``.  We use the local-sensitivity bound::

    LS(G) ≤ C(a_max, k) + 2·a_max·C(a_max - 1, k - 1)

whose own (edge-)global sensitivity is controlled by ``a_max`` changing by
at most 1 per edge rewiring.  Following Karwa et al.'s noisy-local-
sensitivity recipe, the mechanism:

1. releases ``â = a_max + Lap(1/ε₁) + ln(1/δ)/ε₁`` — an (ε₁)-DP upper
   bound on ``a_max`` that is valid except with probability δ;
2. releases the count with Laplace noise ``3·LS_bound(â)/ε₂``.

The composition is (ε₁+ε₂, δ)-differentially private; the paper's Fig. 1
row "O(LS/ε) error if ln(1/δ)/ε = O(a_max)" is exactly this mechanism's
behaviour.  Re-implemented from the published description (README
"Deviations from the paper").
"""

from __future__ import annotations

import math
import time

from ..errors import PatternError, PrivacyParameterError
from ..graphs.graph import Graph
from ..rng import RngLike, ensure_rng
from .common import BaselineResult

__all__ = ["KarwaKTriangleMechanism"]


class KarwaKTriangleMechanism:
    """(ε,δ)-DP k-triangle counting via a noisy local-sensitivity bound."""

    def __init__(self, graph: Graph, k: int):
        if k < 1:
            raise PatternError(f"k must be >= 1, got {k}")
        self.graph = graph
        self.k = k
        self._a_max = graph.max_common_neighbors()
        self._n = graph.num_nodes
        from ..subgraphs.counting import count_k_triangles

        self._true = float(count_k_triangles(graph, k))

    def _ls_bound(self, a: float) -> float:
        """The LS upper bound as a function of (a bound on) ``a_max``."""
        a = max(0, int(math.floor(a)))
        a = min(a, max(0, self._n - 2))
        return float(
            math.comb(a, self.k) + 2 * a * math.comb(max(a - 1, 0), self.k - 1)
        )

    def run(self, epsilon: float, delta: float, rng: RngLike = None) -> BaselineResult:
        """One (ε,δ)-DP release of the k-triangle count."""
        if epsilon <= 0 or not 0 < delta < 1:
            raise PrivacyParameterError(
                f"need epsilon > 0 and 0 < delta < 1, got {epsilon}, {delta}"
            )
        start = time.perf_counter()
        generator = ensure_rng(rng)
        eps1 = epsilon / 2.0
        eps2 = epsilon / 2.0
        a_hat = (
            self._a_max
            + float(generator.laplace(0.0, 1.0 / eps1))
            + math.log(1.0 / delta) / eps1
        )
        scale = 3.0 * self._ls_bound(a_hat) / eps2
        noise = float(generator.laplace(0.0, scale)) if scale > 0 else 0.0
        return BaselineResult(
            answer=self._true + noise,
            true_answer=self._true,
            noise_scale=scale,
            mechanism=f"karwa-{self.k}-triangle",
            epsilon=epsilon,
            delta=delta,
            seconds=time.perf_counter() - start,
            diagnostics={"a_max": float(self._a_max), "a_hat": a_hat},
        )
