"""Specialized subgraph enumerators.

The generic matcher handles any connected pattern, but the patterns the
paper evaluates admit much faster direct enumeration:

* triangles — neighbor-intersection over edges with an ordering trick,
  ``O(Σ_e min-degree)``;
* k-stars — per center, all ``C(deg, k)`` leaf subsets;
* k-triangles — per edge, all ``C(a_ij, k)`` apex subsets of the common
  neighborhood;
* k-cliques / paths — pruned backtracking.

Each enumerator yields :class:`~repro.subgraphs.matching.Occurrence`
objects, so the annotation layer treats all sources uniformly.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from ..errors import PatternError
from ..graphs.graph import Graph
from .matching import Occurrence

__all__ = [
    "enumerate_triangles",
    "enumerate_k_stars",
    "enumerate_k_triangles",
    "enumerate_k_cliques",
    "enumerate_paths",
    "count_triangles",
    "count_k_stars",
    "count_k_triangles",
]


def _edge(u, v):
    return Occurrence.normalize_edge(u, v)


def enumerate_triangles(graph: Graph) -> Iterator[Occurrence]:
    """Each triangle once, via ordered neighbor intersection."""
    rank = {node: index for index, node in enumerate(graph.nodes())}
    for u, v in graph.edges():
        if rank[u] > rank[v]:
            u, v = v, u
        for w in graph.common_neighbors(u, v):
            if rank[w] > rank[v]:
                yield Occurrence(
                    nodes=frozenset((u, v, w)),
                    edges=frozenset((_edge(u, v), _edge(u, w), _edge(v, w))),
                )


def enumerate_k_stars(graph: Graph, k: int) -> Iterator[Occurrence]:
    """Each k-star once: a center plus a ``k``-subset of its neighbors.

    Note the usual convention (matching the paper's counting): two stars
    with the same edge set but different designated centers cannot occur
    for ``k >= 2`` since the edge set determines the center; for ``k = 1``
    a star is just an edge.
    """
    if k < 1:
        raise PatternError(f"k must be >= 1, got {k}")
    if k == 1:
        for u, v in graph.edges():
            yield Occurrence(nodes=frozenset((u, v)), edges=frozenset((_edge(u, v),)))
        return
    # each edge is named as Graph.edges() orients it, by node rank; for
    # distinct reprs that is the repr order normalize_edge gives
    nodes = graph.nodes()
    rank = {node: index for index, node in enumerate(nodes)}
    for center in nodes:
        neighbors = sorted(graph.neighbors(center), key=repr)
        for leaves in itertools.combinations(neighbors, k):
            yield Occurrence(
                nodes=frozenset((center,) + leaves),
                edges=frozenset(
                    (center, leaf) if rank[center] < rank[leaf] else (leaf, center)
                    for leaf in leaves
                ),
            )


def enumerate_k_triangles(graph: Graph, k: int) -> Iterator[Occurrence]:
    """Each k-triangle once: a base edge plus ``k`` common-neighbor apexes."""
    if k < 1:
        raise PatternError(f"k must be >= 1, got {k}")
    for u, v in graph.edges():
        common = sorted(graph.common_neighbors(u, v), key=repr)
        if len(common) < k:
            continue
        for apexes in itertools.combinations(common, k):
            edges = {_edge(u, v)}
            for apex in apexes:
                edges.add(_edge(u, apex))
                edges.add(_edge(v, apex))
            yield Occurrence(nodes=frozenset((u, v) + apexes), edges=frozenset(edges))


def enumerate_k_cliques(graph: Graph, k: int) -> Iterator[Occurrence]:
    """Each k-clique once, by ordered extension."""
    if k < 2:
        raise PatternError(f"k must be >= 2, got {k}")
    rank = {node: index for index, node in enumerate(graph.nodes())}

    def extend(clique, candidates):
        if len(clique) == k:
            yield Occurrence(
                nodes=frozenset(clique),
                edges=frozenset(
                    _edge(a, b) for a, b in itertools.combinations(clique, 2)
                ),
            )
            return
        for node in sorted(candidates, key=lambda n: rank[n]):
            new_candidates = {
                c
                for c in candidates
                if rank[c] > rank[node] and graph.has_edge(node, c)
            }
            if len(clique) + 1 + len(new_candidates) >= k:
                yield from extend(clique + [node], new_candidates)

    yield from extend([], set(graph.nodes()))


def enumerate_paths(graph: Graph, length: int) -> Iterator[Occurrence]:
    """Each simple path with ``length`` edges once (endpoint-symmetric)."""
    if length < 1:
        raise PatternError(f"length must be >= 1, got {length}")
    rank = {node: index for index, node in enumerate(graph.nodes())}

    def walk(path):
        if len(path) == length + 1:
            # emit once per undirected path: require first endpoint < last
            if rank[path[0]] < rank[path[-1]]:
                yield Occurrence(
                    nodes=frozenset(path),
                    edges=frozenset(_edge(a, b) for a, b in zip(path, path[1:])),
                )
            return
        for neighbor in sorted(graph.neighbors(path[-1]), key=lambda n: rank[n]):
            if neighbor not in path:
                yield from walk(path + [neighbor])

    for start in graph.nodes():
        yield from walk([start])


def count_triangles(graph: Graph) -> int:
    """The exact triangle count (no enumeration of node sets retained)."""
    return sum(1 for _ in enumerate_triangles(graph))


def count_k_stars(graph: Graph, k: int) -> int:
    """``Σ_v C(deg(v), k)`` — closed form, no enumeration."""
    if k < 1:
        raise PatternError(f"k must be >= 1, got {k}")
    if k == 1:
        return graph.num_edges
    import math

    return sum(math.comb(d, k) for d in graph.degrees().values())


def count_k_triangles(graph: Graph, k: int) -> int:
    """``Σ_{(u,v)∈E} C(a_uv, k)`` — closed form over edges."""
    import math

    return sum(
        math.comb(len(graph.common_neighbors(u, v)), k) for u, v in graph.edges()
    )
