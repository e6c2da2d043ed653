"""The versioned graph store: :class:`VersionedGraph`.

A :class:`VersionedGraph` *is* a :class:`~repro.graphs.Graph` (every
enumerator, mechanism, and statistic works on it unchanged) that
additionally:

* keeps an **append-only update log** of effective
  :class:`~repro.dynamic.delta.GraphDelta`\\ s and a **monotone version
  counter** — version ``v`` is the state after the first ``v`` deltas,
  version ``0`` the base graph;
* hands out **cheap immutable snapshots** (:meth:`snapshot` is O(1);
  :meth:`GraphSnapshot.materialize` / :meth:`at_version` replays the log
  prefix onto a copy of the base when a historical state is actually
  needed — e.g. session replay across mutations);
* owns an :class:`~repro.dynamic.incremental.IncrementalOccurrences`
  maintainer fed with every delta, so pattern-occurrence relations are
  maintained instead of re-enumerated
  (:meth:`occurrences_for` is the provider hook
  :meth:`repro.mechanisms.Mechanism._relation_for` consumes).

No-op mutations (adding a present edge/node) change neither the log nor
the version, so the version token is a faithful identity of graph
*state* for compiled-relation cache keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from ..errors import GraphError
from ..graphs.graph import Edge, Graph, Node
from ..subgraphs.patterns import Pattern
from .delta import GraphDelta
from .incremental import IncrementalOccurrences

__all__ = ["VersionedGraph", "GraphSnapshot", "version_token"]


def version_token(version: int) -> Tuple[str, int]:
    """The hashable cache-key component naming one graph version.

    The single source of the token's shape: compiled-relation cache keys
    embed it, and the session's eviction of superseded versions matches
    on it — both through this function, so the two can never drift apart.
    """
    return ("version", version)


@dataclass(frozen=True)
class GraphSnapshot:
    """An O(1) immutable handle on one version of a :class:`VersionedGraph`.

    Holds no copied adjacency — :meth:`materialize` reconstructs the
    state (base graph + log prefix) only when asked, and the result is
    a plain independent :class:`~repro.graphs.Graph`.
    """

    store: "VersionedGraph"
    version: int

    def materialize(self) -> Graph:
        """The snapshot's state as an independent plain graph."""
        return self.store.at_version(self.version)

    def __repr__(self) -> str:
        return f"GraphSnapshot(version={self.version})"


class VersionedGraph(Graph):
    """An updatable graph with an update log, versions, and maintenance.

    Parameters
    ----------
    graph:
        Base state to copy (version 0).  Mutually exclusive with
        ``nodes``/``edges``.
    nodes / edges:
        Base state built in place (also version 0).

    >>> g = VersionedGraph(edges=[(0, 1), (1, 2)])
    >>> g.add_edge(0, 2); g.version
    1
    >>> g.remove_edge(0, 1); [d.kind for d in g.log]
    ['add_edge', 'remove_edge']
    >>> g.at_version(0).num_edges, g.num_edges
    (2, 2)
    """

    def __init__(
        self,
        graph: Optional[Graph] = None,
        nodes: Iterable[Node] = (),
        edges: Iterable[Edge] = (),
    ):
        # Attribute order matters: the overridden mutators consult
        # ``_recording`` and it must exist before Graph.__init__ runs them.
        self._recording = False
        self._log: List[GraphDelta] = []
        self._version = 0
        self._maintainer = IncrementalOccurrences(self)
        if graph is not None:
            if not isinstance(graph, Graph):
                raise GraphError(
                    f"VersionedGraph wraps a Graph, got {type(graph).__name__}"
                )
            if tuple(nodes) or tuple(edges):
                raise GraphError("pass either a base graph or nodes=/edges=, not both")
            super().__init__()
            self._adj = {node: set(adj) for node, adj in graph._adj.items()}
            self._num_edges = graph._num_edges
        else:
            super().__init__(nodes=nodes, edges=edges)
        self._base = Graph()
        self._base._adj = {node: set(adj) for node, adj in self._adj.items()}
        self._base._num_edges = self._num_edges
        self._recording = True

    # -- identity ---------------------------------------------------------------
    @property
    def version(self) -> int:
        """The monotone state counter (0 = the base graph)."""
        return self._version

    @property
    def log(self) -> Tuple[GraphDelta, ...]:
        """The append-only update log (delta ``i`` takes ``i`` → ``i+1``)."""
        return tuple(self._log)

    @property
    def maintainer(self) -> IncrementalOccurrences:
        """The incremental occurrence maintainer fed by every delta."""
        return self._maintainer

    def version_token(self) -> Tuple[str, int]:
        """Hashable version identity for compiled-relation cache keys."""
        return version_token(self._version)

    # -- recorded mutation ------------------------------------------------------
    def _commit(self, delta: GraphDelta) -> GraphDelta:
        self._log.append(delta)
        self._version += 1
        self._maintainer.apply(delta)
        return delta

    def add_node(self, node: Node) -> None:
        if not self._recording or node in self._adj:
            return super().add_node(node)
        super().add_node(node)
        self._commit(GraphDelta.add_node(node))

    def add_edges_from(self, edges: Iterable[Edge]) -> None:
        """Bulk insert, recorded: one delta per *effective* new edge.

        Unlike the plain-graph fast path this routes every edge through
        :meth:`add_edge`, so the update log, version counter, and
        occurrence maintenance all see each insert.  For log-free bulk
        loading, build a plain :class:`~repro.graphs.Graph` first and
        wrap it (what :func:`repro.store.ingest_edge_list` does).
        """
        if not self._recording:
            return super().add_edges_from(edges)
        for u, v in edges:
            self.add_edge(u, v)

    def add_edge(self, u: Node, v: Node) -> None:
        if not self._recording:
            return super().add_edge(u, v)
        if self.has_edge(u, v):
            return  # no-op: state (and version) unchanged
        # Graph.add_edge creates missing endpoints via self.add_node —
        # suppress recording so an edge insert is one delta, not three.
        self._recording = False
        try:
            super().add_edge(u, v)
        finally:
            self._recording = True
        self._commit(GraphDelta.add_edge(u, v))

    def remove_edge(self, u: Node, v: Node) -> None:
        super().remove_edge(u, v)
        if self._recording:
            self._commit(GraphDelta.remove_edge(u, v))

    def remove_node(self, node: Node) -> List[Edge]:
        removed = super().remove_node(node)
        if self._recording:
            self._commit(GraphDelta.remove_node(node, removed))
        return removed

    def apply(self, action) -> Optional[GraphDelta]:
        """Apply one update action (wire form or :class:`GraphDelta`).

        Returns the committed delta, or ``None`` for a no-op (inserting
        an already-present edge/node — the version does not move).
        Removals of absent edges/nodes raise
        :class:`~repro.errors.GraphError` like the underlying mutators.
        """
        delta = GraphDelta.from_action(action)
        before = self._version
        if delta.kind == "add_edge":
            self.add_edge(delta.u, delta.v)
        elif delta.kind == "remove_edge":
            self.remove_edge(delta.u, delta.v)
        elif delta.kind == "add_node":
            self.add_node(delta.u)
        else:
            self.remove_node(delta.u)
        return self._log[-1] if self._version > before else None

    def apply_updates(self, actions: Iterable) -> List[GraphDelta]:
        """Apply a sequence of actions in order; returns effective deltas.

        Application is sequential, not transactional: an invalid action
        raises after the earlier ones took effect (each already logged,
        so history stays consistent).
        """
        applied = []
        for action in actions:
            delta = self.apply(action)
            if delta is not None:
                applied.append(delta)
        return applied

    # -- snapshots & history ----------------------------------------------------
    def snapshot(self) -> GraphSnapshot:
        """An O(1) immutable handle on the current version."""
        return GraphSnapshot(self, self._version)

    def at_version(self, version: int) -> Graph:
        """The state at ``version`` as an independent plain graph."""
        if not isinstance(version, int) or not 0 <= version <= self._version:
            raise GraphError(
                f"version must be an int in [0, {self._version}], " f"got {version!r}"
            )
        graph = self._base.copy()
        for delta in self._log[:version]:
            delta.apply_to(graph)
        return graph

    def checkout(self, version: int) -> "VersionedGraph":
        """A fresh :class:`VersionedGraph` based at ``version`` (empty log).

        Session replay uses this to rebuild a query's relation exactly as
        it was compiled — through the same occurrence-provider path as
        the live store, so the tuple order (and hence the compiled LP)
        is bit-identical.
        """
        return VersionedGraph(self.at_version(version))

    # -- occurrence maintenance hooks -------------------------------------------
    def occurrences_for(self, pattern: Pattern):
        """Maintained (canonically ordered) occurrences of ``pattern``.

        The provider hook query preparation consumes: first use pays one
        full enumeration (registration), every later call — including
        after updates — returns the incrementally maintained relation.
        """
        return self._maintainer.occurrences(pattern)

    def relation_for(self, pattern: Pattern, privacy: str):
        """Columnar-backed sensitive K-relation, or ``None`` to fall back.

        The stronger provider hook: where :meth:`occurrences_for` hands
        back materialized occurrence objects, this returns the
        maintained relation directly in participant-index form
        (:class:`~repro.store.relation.ConjunctiveKRelation`), no
        per-occurrence objects.  Its rows are in the store's canonical
        occurrence order, so it is a row permutation of what
        :func:`~repro.subgraphs.annotate.subgraph_krelation` builds from
        the same graph (same participants, same rows), not a
        float-identical copy.  ``None`` means "build it from the
        occurrences instead".
        """
        return self._maintainer.relation_for(pattern, privacy)

    # -- copies -----------------------------------------------------------------
    def as_graph(self) -> Graph:
        """The current state as an independent plain graph."""
        clone = Graph()
        clone._adj = {node: set(adj) for node, adj in self._adj.items()}
        clone._num_edges = self._num_edges
        return clone

    def copy(self) -> "VersionedGraph":
        """An independent store based at the current state (history drops)."""
        return VersionedGraph(self.as_graph())

    def __repr__(self) -> str:
        return (
            f"VersionedGraph(num_nodes={self.num_nodes}, "
            f"num_edges={self.num_edges}, version={self._version})"
        )
