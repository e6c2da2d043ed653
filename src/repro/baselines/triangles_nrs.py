"""NRS07 smooth sensitivity of the triangle count (edge privacy).

Changing one edge ``(i, j)`` changes the triangle count by ``a_ij`` (their
common-neighbor count), so ``LS(G) = max_ij a_ij``.  At rewiring distance
``s``, NRS07 show the local sensitivity is::

    LS^{(s)}(G) = max_{i<j} c_ij(s),
    c_ij(s) = min( a_ij + floor((s + min(s, b_ij)) / 2),  n - 2 )

where ``b_ij`` counts nodes adjacent to exactly one of ``i, j`` (each such
node needs one new edge to become a common neighbor; fresh nodes need two).

Computing the max over all ``O(n²)`` pairs is exact but quadratic; by
default we restrict to *candidate pairs* — adjacent pairs, distance-2 pairs
(``a_ij > 0``) and the cross pairs of the highest-degree nodes (which
maximize ``b_ij``) — and note that for every other pair ``c_ij(s) ≤
floor(s + min(s, b)/...)`` is dominated by a top-degree pair.  Exact mode
(``exact_pairs=True``) is available for tests.
"""

from __future__ import annotations

import itertools
import math
import time
from typing import Dict, Iterable, List, Set, Tuple

from ..graphs.graph import Graph
from ..rng import RngLike
from .common import BaselineResult
from .smooth import SmoothSensitivity, cauchy_noise_release

__all__ = ["NRSTriangleMechanism", "triangle_local_sensitivity_at_distance"]


def _pair_stats(graph: Graph, u, v) -> Tuple[int, int]:
    """``(a_ij, b_ij)`` — common and one-sided neighbor counts."""
    nu = graph.neighbors(u) - {v}
    nv = graph.neighbors(v) - {u}
    a = len(nu & nv)
    b = len(nu ^ nv)
    return a, b


def _candidate_pairs(graph: Graph, top_degrees: int = 30) -> Set[Tuple[object, object]]:
    """Adjacent pairs, distance-2 pairs, and top-degree cross pairs."""
    pairs: Set[Tuple[object, object]] = set()

    def norm(u, v):
        return (u, v) if repr(u) <= repr(v) else (v, u)

    for u, v in graph.edges():
        pairs.add(norm(u, v))
    for w in graph.nodes():
        neighbors = sorted(graph.neighbors(w), key=repr)
        for u, v in itertools.combinations(neighbors, 2):
            pairs.add(norm(u, v))
    by_degree = sorted(graph.nodes(), key=lambda n: (-graph.degree(n), repr(n)))
    for u, v in itertools.combinations(by_degree[:top_degrees], 2):
        pairs.add(norm(u, v))
    return pairs


def triangle_local_sensitivity_at_distance(
    graph: Graph, s: int, exact_pairs: bool = False
) -> int:
    """``LS^{(s)}`` of the triangle count at edge-rewiring distance ``s``."""
    n = graph.num_nodes
    if n < 3:
        return 0
    cap = n - 2
    if exact_pairs:
        pairs: Iterable[Tuple[object, object]] = itertools.combinations(
            graph.nodes(), 2
        )
    else:
        pairs = _candidate_pairs(graph)
    best = 0
    for u, v in pairs:
        a, b = _pair_stats(graph, u, v)
        value = min(a + (s + min(s, b)) // 2, cap)
        best = max(best, value)
        if best >= cap:
            return cap
    # a fresh (non-candidate) pair has a = 0 and b bounded by the two largest
    # degrees; candidate generation included those, so `best` already covers it.
    return best


class NRSTriangleMechanism:
    """ε-DP triangle counting via smooth sensitivity + Cauchy noise.

    The per-graph pair statistics are computed once in ``__init__`` and
    the local sensitivity once per distance; after the first :meth:`run`
    a release costs one smooth max over cached values and one noise draw.
    """

    def __init__(self, graph: Graph, exact_pairs: bool = False):
        self.graph = graph
        self.exact_pairs = exact_pairs
        n = graph.num_nodes
        self._cap = max(0, n - 2)
        if exact_pairs:
            pairs: Iterable[Tuple[object, object]] = itertools.combinations(
                graph.nodes(), 2
            )
        else:
            pairs = _candidate_pairs(graph)
        self._stats: List[Tuple[int, int]] = [
            _pair_stats(graph, u, v) for u, v in pairs
        ]
        from ..subgraphs.counting import count_triangles

        self._true = float(count_triangles(graph))
        self._ls_cache: Dict[int, float] = {}

    def _ls_at_distance(self, s: int) -> float:
        # deterministic in s, and every run's smooth max asks the same
        # distances again: scan the pairs once per distance
        if s in self._ls_cache:
            return self._ls_cache[s]
        best = 0
        for a, b in self._stats:
            value = min(a + (s + min(s, b)) // 2, self._cap)
            if value > best:
                best = value
                if best >= self._cap:
                    break
        self._ls_cache[s] = float(best)
        return self._ls_cache[s]

    def run(self, epsilon: float, rng: RngLike = None) -> BaselineResult:
        """One ε-DP release of the triangle count."""
        start = time.perf_counter()
        smooth = SmoothSensitivity(self._ls_at_distance, ls_cap=self._cap)
        result = cauchy_noise_release(
            self._true, smooth, epsilon, rng=rng, mechanism="nrs-triangle"
        )
        result.seconds = time.perf_counter() - start
        return result
