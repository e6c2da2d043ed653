"""Karwa et al. (PVLDB 2011) k-star counting under edge privacy (ε-DP).

Adding an edge ``(i, j)`` creates ``C(d_i, k-1) + C(d_j, k-1)`` new k-stars
(centered at ``i`` and ``j``), so the local sensitivity is governed by the
two largest degrees::

    LS(G)      = C(d₍₁₎, k-1) + C(d₍₂₎, k-1)
    LS^{(s)}(G) = C(min(d₍₁₎+s, n-1), k-1) + C(min(d₍₂₎+s, n-1), k-1)

(at distance ``s`` each degree can grow by at most ``s``).  The mechanism
releases the count with Cauchy noise calibrated to the β-smooth bound —
the ε-differentially-private variant Karwa et al. evaluate.  This is a
re-implementation from the published description (README "Deviations
from the paper"); their
exact algorithm computes the same smooth bound with a faster sweep.
"""

from __future__ import annotations

import math
import time
from typing import List

from ..errors import PatternError
from ..graphs.graph import Graph
from ..rng import RngLike
from .common import BaselineResult
from .smooth import SmoothSensitivity, cauchy_noise_release

__all__ = ["KarwaKStarMechanism"]


class KarwaKStarMechanism:
    """ε-DP k-star counting via degree-based smooth sensitivity."""

    def __init__(self, graph: Graph, k: int):
        if k < 1:
            raise PatternError(f"k must be >= 1, got {k}")
        self.graph = graph
        self.k = k
        degrees = sorted(graph.degrees().values(), reverse=True)
        self._d1 = degrees[0] if degrees else 0
        self._d2 = degrees[1] if len(degrees) > 1 else 0
        self._n = graph.num_nodes
        from ..subgraphs.counting import count_k_stars

        self._true = float(count_k_stars(graph, k))

    def _ls_at_distance(self, s: int) -> float:
        cap = max(0, self._n - 1)
        d1 = min(self._d1 + s, cap)
        d2 = min(self._d2 + s, cap)
        return float(math.comb(d1, self.k - 1) + math.comb(d2, self.k - 1))

    def _ls_cap(self) -> float:
        cap = max(0, self._n - 1)
        return float(2 * math.comb(cap, self.k - 1))

    def run(self, epsilon: float, rng: RngLike = None) -> BaselineResult:
        """One ε-DP release of the k-star count."""
        start = time.perf_counter()
        smooth = SmoothSensitivity(self._ls_at_distance, ls_cap=self._ls_cap())
        result = cauchy_noise_release(
            self._true,
            smooth,
            epsilon,
            rng=rng,
            mechanism=f"karwa-{self.k}-star",
        )
        result.seconds = time.perf_counter() - start
        return result
