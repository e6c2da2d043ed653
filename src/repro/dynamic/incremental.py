"""Incremental occurrence-relation maintenance under graph updates.

Enumerating a pattern's occurrences is the expensive front of every
query preparation; re-running it from scratch after each small graph
update throws away almost all of the previous work.
:class:`IncrementalOccurrences` keeps, for every registered pattern, the
full occurrence set of the *current* graph and applies each
:class:`~repro.dynamic.delta.GraphDelta` by touching only the
occurrences the delta can actually affect — the delta-join idea behind
answering queries under updates (Berkholz–Keppeler–Schweikardt):

* ``add_edge (u, v)`` — every new occurrence must *use* the new edge, and
  a connected pattern on ``k`` nodes that uses ``{u, v}`` lies entirely
  within distance ``k - 2`` of ``{u, v}``.  The maintainer therefore
  enumerates the pattern only in the induced subgraph on that
  neighborhood ball and inserts the matches containing the new edge.
* ``remove_edge (u, v)`` — an inverted index (edge → occurrences)
  drops exactly the occurrences using the edge, no scan.
* ``remove_node`` — the captured incident edges are removed in turn
  (every occurrence touching the node uses at least one of them, since
  patterns are connected).
* ``add_node`` / removing an isolated node — occurrence sets are
  unchanged (patterns have at least one edge).

The maintenance logic lives here; the *representation* of a maintained
set is the :mod:`repro.store` columnar backend (interned ids, NumPy
tables, searchsorted inverted indexes).  The canonical occurrence order
breaks ties by insertion order, so a dict-of-frozensets oracle fed the
same insert/drop call sequence (``tests/store_oracle.py``) yields the
same order and hence the same compiled LP.

Constrained patterns carry opaque predicate callables with no update
algebra, so they take the :meth:`full rebuild <IncrementalOccurrences.
full_rebuild>` fallback on every delta — still correct, just not
incremental.  The equivalence oracle (:meth:`IncrementalOccurrences.
verify`) pins maintained state against a from-scratch enumeration, and
the randomized-stream tests in ``tests/test_dynamic.py`` exercise it over
insert/delete streams for every pattern family.

Occurrence *order* is part of the compiled relation's float-level
identity, so :meth:`occurrences` returns a canonically sorted tuple — the
same tuple whether the state was reached by updates or by registering the
pattern on the final graph.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..errors import GraphError
from ..graphs.graph import Graph
from ..obs import metrics as obs_metrics
from ..obs import SIZE_BUCKETS
from ..store.backend import ColumnarOccurrenceBackend
from ..store.interning import InternTable
from ..subgraphs.annotate import occurrences_for_pattern
from ..subgraphs.matching import Occurrence
from ..subgraphs.patterns import Pattern
from .delta import GraphDelta

__all__ = ["IncrementalOccurrences"]


def _neighborhood_ball(
    graph: Graph, seeds: Iterable[object], radius: int
) -> Set[object]:
    """All nodes within ``radius`` hops of any seed (BFS)."""
    frontier = [node for node in seeds if graph.has_node(node)]
    ball = set(frontier)
    for _ in range(radius):
        if not frontier:
            break
        next_frontier = []
        for node in frontier:
            for neighbor in graph.neighbors(node):
                if neighbor not in ball:
                    ball.add(neighbor)
                    next_frontier.append(neighbor)
        frontier = next_frontier
    return ball


class _PatternState:
    """Maintained occurrence set of one registered pattern."""

    __slots__ = (
        "pattern",
        "incremental",
        "backend",
        "rebuilds",
        "deltas_applied",
        "ball_last",
        "ball_max",
    )

    def __init__(
        self, pattern: Pattern, incremental: bool, backend: ColumnarOccurrenceBackend
    ):
        self.pattern = pattern
        self.incremental = incremental
        self.backend = backend
        self.rebuilds = 0
        self.deltas_applied = 0
        # delta-join neighborhood-ball sizes (maintenance diagnostics)
        self.ball_last = 0
        self.ball_max = 0

    def rebuild(self, graph: Graph) -> None:
        self.backend.bulk_load(occurrences_for_pattern(graph, self.pattern))
        self.rebuilds += 1

    def sorted_occurrences(self) -> Tuple[Occurrence, ...]:
        return self.backend.sorted_occurrences()


class IncrementalOccurrences:
    """Maintain pattern-occurrence sets of one live graph under deltas.

    The owner (normally a :class:`~repro.dynamic.VersionedGraph`) mutates
    the graph first and then calls :meth:`apply` with the delta, so the
    maintainer always sees the *post*-mutation graph.  Standalone use
    follows the same contract::

        graph = random_graph_with_avg_degree(50, 6, rng=0)
        inc = IncrementalOccurrences(graph)
        inc.register(triangle())
        graph.add_edge(1, 2)
        inc.apply(GraphDelta.add_edge(1, 2))
        inc.verify()          # oracle: maintained == from-scratch
    """

    def __init__(self, graph: Graph):
        self._graph = graph
        self._states: Dict[tuple, _PatternState] = {}
        # One intern table shared by every pattern table, so a node/edge
        # has the same dense id in all of them.  Its graph-presence flags
        # are synced lazily at first registration and maintained per
        # delta afterwards.
        self._interner = InternTable()
        self._interner_synced = False

    @property
    def interner(self) -> InternTable:
        """The intern table shared by every pattern's store."""
        return self._interner

    def _make_backend(self, pattern: Pattern) -> ColumnarOccurrenceBackend:
        return ColumnarOccurrenceBackend(
            self._interner,
            num_nodes=pattern.num_nodes,
            num_edges=pattern.graph.num_edges,
        )

    def _sync_interner(self) -> None:
        if not self._interner_synced:
            self._interner.sync(self._graph)
            self._interner_synced = True

    # -- registration -----------------------------------------------------------
    def register(self, pattern: Pattern) -> None:
        """Start maintaining ``pattern`` (one full enumeration, idempotent).

        Unconstrained patterns are maintained incrementally; constrained
        ones (opaque predicates) fall back to a full rebuild per delta.
        """
        if not isinstance(pattern, Pattern):
            raise GraphError(
                f"register() takes a Pattern, got {type(pattern).__name__}"
            )
        token = pattern.cache_token
        if token in self._states:
            return
        self._sync_interner()
        incremental = not (pattern.node_constraints or pattern.edge_constraints)
        state = _PatternState(pattern, incremental, self._make_backend(pattern))
        state.rebuild(self._graph)
        state.rebuilds = 0  # the registration scan is not a fallback rebuild
        self._states[token] = state

    def patterns(self) -> List[Pattern]:
        """Every registered pattern."""
        return [state.pattern for state in self._states.values()]

    def _state(self, pattern: Pattern) -> _PatternState:
        token = pattern.cache_token
        if token not in self._states:
            self.register(pattern)
        return self._states[token]

    # -- reads ------------------------------------------------------------------
    def occurrences(self, pattern: Pattern) -> Tuple[Occurrence, ...]:
        """The pattern's occurrence tuple, canonically ordered.

        Registers the pattern on first use; afterwards this is the
        maintained set — query preparation over a dynamic graph reads it
        instead of re-enumerating.  The tuple is cached and immutable:
        repeated calls between updates return the same object, no copy.
        """
        return self._state(pattern).sorted_occurrences()

    def relation_for(self, pattern: Pattern, privacy: str):
        """A columnar-backed sensitive K-relation, or ``None`` to fall back.

        The fast relation path: unless a repr collision makes string-keyed
        orders ambiguous, the participant/annotation structure is read
        straight out of the intern table and occurrence table as index
        arrays — no per-occurrence ``Occurrence``/``And`` objects.  The
        rows are in canonical occurrence order: the result is a row
        permutation of :func:`~repro.subgraphs.annotate.subgraph_krelation`
        over the same graph (same participants, same multiset of rows),
        float-identical to it only where the two orders agree.
        """
        if privacy not in ("node", "edge"):
            return None
        state = self._state(pattern)
        interner = self._interner
        if interner.has_repr_collision:
            return None
        if not interner.counts_match(self._graph):
            # the graph was mutated behind the maintainer's back —
            # re-anchor the presence flags before trusting them
            interner.sync(self._graph)
        from ..store.relation import conjunctive_relation

        return conjunctive_relation(state.backend, privacy)

    def count(self, pattern: Pattern) -> int:
        """Number of maintained occurrences of ``pattern``."""
        return len(self._state(pattern).backend)

    def info(self) -> List[Dict[str, object]]:
        """Maintenance counters, one row per registered pattern."""
        rows = []
        for state in self._states.values():
            row: Dict[str, object] = {
                "pattern": state.pattern.name,
                "incremental": state.incremental,
                "occurrences": len(state.backend),
                "deltas_applied": state.deltas_applied,
                "rebuilds": state.rebuilds,
                "ball_last": state.ball_last,
                "ball_max": state.ball_max,
            }
            row.update(state.backend.info())
            rows.append(row)
        return rows

    # -- maintenance ------------------------------------------------------------
    def apply(self, delta: GraphDelta) -> None:
        """Apply one delta (the graph must already reflect it)."""
        if not isinstance(delta, GraphDelta):
            raise GraphError(f"apply() takes a GraphDelta, got {type(delta).__name__}")
        if self._interner_synced:
            self._apply_presence(delta)
        registry = obs_metrics()
        for state in self._states.values():
            state.deltas_applied += 1
            registry.counter(
                "repro_maintenance_deltas_total", pattern=state.pattern.name
            ).inc()
            if not state.incremental:
                state.rebuild(self._graph)
                registry.counter(
                    "repro_maintenance_rebuilds_total", pattern=state.pattern.name
                ).inc()
            elif delta.kind == "add_edge":
                self._apply_edge_insert(state, delta.u, delta.v)
            elif delta.kind == "remove_edge":
                state.backend.drop_edge(delta.u, delta.v)
            elif delta.kind == "remove_node":
                for a, b in delta.removed_edges:
                    state.backend.drop_edge(a, b)
            # add_node: no occurrence can involve an isolated node

    def _apply_presence(self, delta: GraphDelta) -> None:
        """Mirror one delta into the intern table's presence flags."""
        interner = self._interner
        if delta.kind == "add_edge":
            interner.add_edge(delta.u, delta.v)
        elif delta.kind == "remove_edge":
            interner.drop_edge(delta.u, delta.v)
        elif delta.kind == "add_node":
            interner.add_node(delta.u)
        elif delta.kind == "remove_node":
            for a, b in delta.removed_edges:
                interner.drop_edge(a, b)
            interner.drop_node(delta.u)

    def _apply_edge_insert(self, state: _PatternState, u, v) -> None:
        """Delta-join for one edge insert: enumerate only around the edge.

        A connected ``k``-node occurrence containing the edge ``{u, v}``
        has every node within ``k - 2`` hops of ``{u, v}`` (shortest
        paths inside the occurrence's own spanning tree), so enumerating
        the pattern in the induced subgraph on that ball finds every new
        occurrence — and the ``uses-the-new-edge`` filter keeps exactly
        the delta.
        """
        pattern = state.pattern
        edge = frozenset((u, v))
        radius = max(pattern.num_nodes - 2, 0)
        ball = _neighborhood_ball(self._graph, (u, v), radius)
        state.ball_last = len(ball)
        if state.ball_last > state.ball_max:
            state.ball_max = state.ball_last
        obs_metrics().histogram(
            "repro_maintenance_ball_size",
            buckets=SIZE_BUCKETS,
            pattern=pattern.name,
        ).observe(float(state.ball_last))
        neighborhood = self._graph.subgraph(ball)
        for occurrence in occurrences_for_pattern(neighborhood, pattern):
            uses_edge = any(frozenset(pair) == edge for pair in occurrence.edges)
            if uses_edge:
                state.backend.insert(occurrence)

    def full_rebuild(self, pattern: Optional[Pattern] = None) -> None:
        """Re-enumerate from scratch (one pattern, or all of them).

        The always-correct fallback: constrained patterns use it per
        delta, and callers can invoke it to re-anchor after mutating the
        graph behind the maintainer's back.
        """
        if pattern is not None:
            self._state(pattern).rebuild(self._graph)
            return
        for state in self._states.values():
            state.rebuild(self._graph)

    # -- the equivalence oracle -------------------------------------------------
    def diff(self, pattern: Pattern) -> Tuple[Set, Set]:
        """``(missing, extra)`` of the maintained set vs a fresh scan."""
        state = self._state(pattern)
        fresh = {
            frozenset(frozenset(pair) for pair in occ.edges)
            for occ in occurrences_for_pattern(self._graph, pattern)
        }
        maintained = state.backend.occ_keys()
        return fresh - maintained, maintained - fresh

    def verify(self, pattern: Optional[Pattern] = None) -> bool:
        """Assert maintained state equals from-scratch enumeration.

        Raises :class:`~repro.errors.GraphError` naming the first
        divergent pattern and its missing/extra occurrence counts;
        returns ``True`` when every registered pattern matches.
        """
        states = (
            [self._state(pattern)]
            if pattern is not None
            else list(self._states.values())
        )
        for state in states:
            missing, extra = self.diff(state.pattern)
            if missing or extra:
                raise GraphError(
                    f"incremental occurrences diverged for pattern "
                    f"{state.pattern.name!r}: {len(missing)} missing, "
                    f"{len(extra)} extra vs from-scratch enumeration"
                )
        return True
