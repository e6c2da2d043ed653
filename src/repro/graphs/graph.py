"""A minimal undirected simple graph.

Nodes are arbitrary hashable labels (the generators use ``int``); edges are
unordered pairs without self-loops or multiplicity.  The class keeps
adjacency as sets for O(1) membership, which the subgraph enumerators rely
on, and exposes the handful of statistics the baselines need (degrees,
common neighbors).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Set, Tuple

from ..errors import GraphError

__all__ = ["Graph"]

Node = Hashable
Edge = Tuple[Node, Node]


class Graph:
    """An undirected simple graph backed by adjacency sets.

    >>> g = Graph()
    >>> g.add_edge(1, 2); g.add_edge(2, 3)
    >>> g.num_nodes, g.num_edges, g.degree(2)
    (3, 2, 2)
    """

    def __init__(self, nodes: Iterable[Node] = (), edges: Iterable[Edge] = ()):
        self._adj: Dict[Node, Set[Node]] = {}
        self._num_edges = 0  # kept by every mutator, see num_edges
        for node in nodes:
            self.add_node(node)
        for u, v in edges:
            self.add_edge(u, v)

    # -- construction ------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        """Add an isolated node (no-op if present)."""
        self._adj.setdefault(node, set())

    def add_edge(self, u: Node, v: Node) -> None:
        """Add the undirected edge ``{u, v}``, creating nodes as needed."""
        if u == v:
            raise GraphError(f"self-loop on {u!r} not allowed in a simple graph")
        self.add_node(u)
        self.add_node(v)
        if v not in self._adj[u]:
            self._adj[u].add(v)
            self._adj[v].add(u)
            self._num_edges += 1

    def add_edges_from(self, edges: Iterable[Edge]) -> None:
        """Bulk edge insert — one pass, no per-edge method dispatch.

        Semantically a loop of :meth:`add_edge` (self-loops raise,
        duplicates are no-ops), but inlined against the adjacency dict
        for streaming ingestion of large edge lists.
        """
        adj = self._adj
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop on {u!r} not allowed in a simple graph")
            seen_u = adj.get(u)
            if seen_u is None:
                seen_u = adj[u] = set()
            seen_v = adj.get(v)
            if seen_v is None:
                seen_v = adj[v] = set()
            if v not in seen_u:
                seen_u.add(v)
                seen_v.add(u)
                self._num_edges += 1

    def remove_node(self, node: Node) -> List[Edge]:
        """Remove ``node`` and all incident edges (the node-privacy change).

        Returns the removed incident edges as ``(node, neighbor)`` pairs
        in deterministic (sorted-repr) order, so callers tracking updates
        (the dynamic-graph store) see exactly what vanished.
        """
        if node not in self._adj:
            raise GraphError(f"unknown node {node!r}")
        neighbors = sorted(self._adj[node], key=repr)
        for neighbor in neighbors:
            self._adj[neighbor].discard(node)
        del self._adj[node]
        self._num_edges -= len(neighbors)
        return [(node, neighbor) for neighbor in neighbors]

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove the edge ``{u, v}`` (the edge-privacy change)."""
        if not self.has_edge(u, v):
            raise GraphError(f"unknown edge ({u!r}, {v!r})")
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._num_edges -= 1

    def copy(self) -> "Graph":
        """An independent deep copy of the adjacency structure."""
        clone = Graph()
        clone._adj = {node: set(neighbors) for node, neighbors in self._adj.items()}
        clone._num_edges = self._num_edges
        return clone

    # -- queries --------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """``|E|`` in O(1): a counter that :meth:`add_edge`,
        :meth:`add_edges_from` (new edges only), :meth:`remove_edge`,
        :meth:`remove_node`, :meth:`copy` and :meth:`subgraph` keep.
        Code that assigns ``_adj`` wholesale must set ``_num_edges``
        too."""
        return self._num_edges

    def nodes(self) -> List[Node]:
        """All nodes in deterministic (sorted-repr) order."""
        return sorted(self._adj, key=repr)

    def edges(self) -> List[Edge]:
        """All edges, each emitted exactly once, in deterministic order.

        Dedup is by node *rank* in the :meth:`nodes` ordering (as in the
        triangle enumerator) — a repr comparison would emit both
        orientations when two distinct nodes share a ``repr``.
        """
        ordered = self.nodes()
        rank = {node: index for index, node in enumerate(ordered)}
        seen = []
        for u in ordered:
            for v in self._adj[u]:
                if rank[u] < rank[v]:
                    seen.append((u, v))
        return sorted(seen, key=repr)

    def has_node(self, node: Node) -> bool:
        """Membership test for a node."""
        return node in self._adj

    def has_edge(self, u: Node, v: Node) -> bool:
        """Membership test for an undirected edge."""
        return u in self._adj and v in self._adj[u]

    def neighbors(self, node: Node) -> Set[Node]:
        """A fresh set of the node's neighbors."""
        if node not in self._adj:
            raise GraphError(f"unknown node {node!r}")
        return set(self._adj[node])

    def degree(self, node: Node) -> int:
        """Number of neighbors of ``node``."""
        if node not in self._adj:
            raise GraphError(f"unknown node {node!r}")
        return len(self._adj[node])

    def degrees(self) -> Dict[Node, int]:
        """``node -> degree`` for every node."""
        return {node: len(neighbors) for node, neighbors in self._adj.items()}

    def max_degree(self) -> int:
        """``d_max`` (0 for the empty graph)."""
        return max((len(n) for n in self._adj.values()), default=0)

    def average_degree(self) -> float:
        """``2|E| / |V|`` (0 for the empty graph)."""
        if not self._adj:
            return 0.0
        return 2.0 * self.num_edges / self.num_nodes

    def common_neighbors(self, u: Node, v: Node) -> Set[Node]:
        """Shared neighbors of ``u`` and ``v`` (the ``a_ij`` of the paper)."""
        if u not in self._adj or v not in self._adj:
            raise GraphError(f"unknown node in pair ({u!r}, {v!r})")
        return self._adj[u] & self._adj[v]

    def max_common_neighbors(self) -> int:
        """``a_max`` over *adjacent* pairs — used by the k-triangle baseline."""
        best = 0
        for u, v in self.edges():
            best = max(best, len(self.common_neighbors(u, v)))
        return best

    def subgraph(self, nodes: Iterable[Node]) -> "Graph":
        """The induced subgraph on ``nodes``."""
        keep = set(nodes)
        unknown = {node for node in keep if node not in self._adj}
        if unknown:
            raise GraphError(f"unknown nodes {sorted(map(repr, unknown))}")
        out = Graph(nodes=keep)
        ends = 0
        for u in keep:
            for v in self._adj[u]:
                if v in keep:
                    out._adj[u].add(v)
                    ends += 1
        out._num_edges = ends // 2
        return out

    def __contains__(self, node: Node) -> bool:
        return node in self._adj

    def __iter__(self) -> Iterator[Node]:
        return iter(self.nodes())

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self._adj == other._adj

    def __repr__(self) -> str:
        return f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"
