"""Query subgraph patterns.

A :class:`Pattern` is a small connected graph with optional per-node and
per-edge constraints.  Constraints receive the *data* attached to the host
graph's node/edge (when provided to the matcher) and return a bool — this
implements the paper's claim that the mechanism supports "arbitrary kinds
of constraints imposed on any edges or nodes of the subgraph" (Sec. 1.1),
since a constrained occurrence is still just one tuple in the K-relation.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..errors import PatternError
from ..graphs.graph import Graph

__all__ = ["Pattern", "triangle", "k_star", "k_triangle", "k_clique", "path_pattern"]

NodeConstraint = Callable[[object], bool]
EdgeConstraint = Callable[[object], bool]


class Pattern:
    """A connected query subgraph with optional constraints.

    Parameters
    ----------
    edges:
        Pattern edges over integer pattern-node ids ``0..k-1``.
    name:
        Display name used in experiment tables.
    node_constraints / edge_constraints:
        Optional maps from pattern node id / pattern edge to predicates on
        host node/edge data.
    """

    def __init__(
        self,
        edges: List[Tuple[int, int]],
        name: str = "pattern",
        node_constraints: Optional[Dict[int, NodeConstraint]] = None,
        edge_constraints: Optional[Dict[Tuple[int, int], EdgeConstraint]] = None,
    ):
        self.name = name
        self.graph = Graph()
        for u, v in edges:
            self.graph.add_edge(u, v)
        if self.graph.num_nodes == 0:
            raise PatternError("pattern must have at least one edge")
        if not self._connected():
            raise PatternError(f"pattern {name!r} must be connected")
        self.node_constraints = dict(node_constraints or {})
        self.edge_constraints = {
            self._norm_edge(e): fn for e, fn in (edge_constraints or {}).items()
        }
        for node in self.node_constraints:
            if not self.graph.has_node(node):
                raise PatternError(f"constraint on unknown pattern node {node}")
        for u, v in self.edge_constraints:
            if not self.graph.has_edge(u, v):
                raise PatternError(f"constraint on unknown pattern edge ({u},{v})")
        # computed on first use (a pattern is not changed once built)
        self._cache_token = None

    @staticmethod
    def _norm_edge(edge: Tuple[int, int]) -> Tuple[int, int]:
        u, v = edge
        return (u, v) if u <= v else (v, u)

    def _connected(self) -> bool:
        nodes = self.graph.nodes()
        if not nodes:
            return False
        seen = {nodes[0]}
        stack = [nodes[0]]
        while stack:
            current = stack.pop()
            for neighbor in self.graph.neighbors(current):
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        return len(seen) == len(nodes)

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    @property
    def cache_token(self):
        """Hashable identity for compiled-relation caching.

        Two unconstrained patterns with the same name and edge set share
        one cache slot (so ``triangle()`` built twice still warm-hits the
        session cache).  Constraints are arbitrary callables with no
        semantic equality, so a constrained pattern caches by object
        identity only — the same *object* re-queried hits, two equal-
        looking constructions do not (conservative, never wrong).
        """
        if self._cache_token is None:
            edges = tuple(sorted(self._norm_edge(e) for e in self.graph.edges()))
            token = ("pattern", self.name, edges)
            if self.node_constraints or self.edge_constraints:
                token += ("constrained", id(self))
            self._cache_token = token
        return self._cache_token

    def __repr__(self) -> str:
        return (
            f"Pattern({self.name!r}, nodes={self.num_nodes}, edges={self.num_edges})"
        )


def triangle() -> Pattern:
    """The 3-clique."""
    return Pattern([(0, 1), (1, 2), (0, 2)], name="triangle")


def k_star(k: int) -> Pattern:
    """A center connected to ``k`` leaves (the paper's k-star)."""
    if k < 1:
        raise PatternError(f"k-star needs k >= 1, got {k}")
    return Pattern([(0, leaf) for leaf in range(1, k + 1)], name=f"{k}-star")


def k_triangle(k: int) -> Pattern:
    """``k`` triangles sharing one common edge (the paper's k-triangle)."""
    if k < 1:
        raise PatternError(f"k-triangle needs k >= 1, got {k}")
    edges = [(0, 1)]
    for apex in range(2, k + 2):
        edges.append((0, apex))
        edges.append((1, apex))
    return Pattern(edges, name=f"{k}-triangle")


def k_clique(k: int) -> Pattern:
    """The complete graph on ``k`` nodes."""
    if k < 2:
        raise PatternError(f"k-clique needs k >= 2, got {k}")
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    return Pattern(edges, name=f"{k}-clique")


def path_pattern(length: int) -> Pattern:
    """A simple path with ``length`` edges."""
    if length < 1:
        raise PatternError(f"path needs length >= 1, got {length}")
    return Pattern([(i, i + 1) for i in range(length)], name=f"path-{length}")


def cycle_pattern(k: int) -> Pattern:
    """The simple cycle on ``k`` nodes (k ≥ 3).

    No specialized enumerator exists for cycles — counting goes through the
    generic backtracking matcher, exercising the "any kind of subgraph"
    claim of the paper (Sec. 1).
    """
    if k < 3:
        raise PatternError(f"cycle needs k >= 3, got {k}")
    edges = [(i, (i + 1) % k) for i in range(k)]
    return Pattern(edges, name=f"cycle-{k}")
