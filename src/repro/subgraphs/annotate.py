"""Building sensitive K-relations from subgraph occurrences (Fig. 2).

Under **node privacy** the participants are the graph's nodes and an
occurrence with nodes ``{a, b, c}`` is annotated ``a ∧ b ∧ c``; under
**edge privacy** the participants are the edges and the annotation is the
conjunction of its edge variables (``e_ab ∧ e_ac ∧ e_bc`` for a triangle).
Both are single conjunctions of distinct variables — DNF, φ-sensitivity 1 —
so the efficient mechanism's error is proportional to the *local* empirical
sensitivity of the count (Sec. 5.2).

Isolated nodes still count as participants under node privacy (a
participant whose withdrawal changes nothing is still a participant);
under edge privacy every edge is a participant.

Because every annotation is such a conjunction, the relation is built in
index form — one row of participant indices per occurrence
(:class:`~repro.store.relation.ConjunctiveKRelation`), indexing only the
participants that occur in some row — and the ``And``-of-``Var`` trees
exist only if a consumer asks for the pairs.
"""

from __future__ import annotations

import math
from itertools import chain, combinations
from operator import attrgetter
from typing import Iterable, List, Optional

import numpy as np

from ..boolexpr.expr import And, Var
from ..core.sensitive import SensitiveKRelation
from ..errors import PatternError
from ..graphs.graph import Graph
from .counting import (
    enumerate_k_cliques,
    enumerate_k_stars,
    enumerate_k_triangles,
    enumerate_paths,
    enumerate_triangles,
)
from .matching import Occurrence, enumerate_subgraphs
from .patterns import Pattern

__all__ = ["node_var", "edge_var", "occurrences_for_pattern", "subgraph_krelation"]


def node_var(node) -> str:
    """Participant variable name for a node."""
    return f"v:{node}"


def edge_var(u, v) -> str:
    """Participant variable name for an edge (order-normalized)."""
    a, b = Occurrence.normalize_edge(u, v)
    return f"e:{a}-{b}"


def occurrences_for_pattern(graph: Graph, pattern: Pattern) -> List[Occurrence]:
    """Enumerate occurrences, dispatching to a specialized enumerator.

    Constrained patterns always go through the generic matcher (the
    specialized enumerators have no constraint hooks).
    """
    if pattern.node_constraints or pattern.edge_constraints:
        return list(enumerate_subgraphs(graph, pattern))
    name = pattern.name
    if name == "triangle":
        return list(enumerate_triangles(graph))
    if name.endswith("-star"):
        k = int(name.split("-")[0])
        return list(enumerate_k_stars(graph, k))
    if name.endswith("-triangle"):
        k = int(name.split("-")[0])
        return list(enumerate_k_triangles(graph, k))
    if name.endswith("-clique"):
        k = int(name.split("-")[0])
        return list(enumerate_k_cliques(graph, k))
    if name.startswith("path-"):
        length = int(name.split("-")[1])
        return list(enumerate_paths(graph, length))
    return list(enumerate_subgraphs(graph, pattern))


def subgraph_krelation(
    graph: Graph,
    pattern: Pattern,
    privacy: str = "node",
    occurrences: Optional[Iterable[Occurrence]] = None,
) -> SensitiveKRelation:
    """The sensitive K-relation of a subgraph-counting query (Fig. 2(a)).

    Parameters
    ----------
    graph:
        The host graph.
    pattern:
        The query subgraph.
    privacy:
        ``"node"`` — participants are nodes, annotations conjoin the
        occurrence's node variables; ``"edge"`` — participants are edges,
        annotations conjoin its edge variables.
    occurrences:
        Pre-enumerated occurrences (skips enumeration when provided —
        useful when the same match list feeds several mechanisms).

    The relation comes back in index form
    (:class:`~repro.store.relation.ConjunctiveKRelation`): one row of
    participant indices per occurrence, in the order of ``occurrences``,
    with the ``And``-of-``Var`` pairs built only if something asks for
    them.  An unconstrained k-star (``k ≥ 2``) with no ``occurrences``
    given skips enumeration: its rows come straight from adjacency, and
    its occurrences are built only with the pairs (:func:`_star_rows`).
    When two participant names or two node/edge reprs collide (e.g.
    nodes ``1`` and ``"1"``) the orders that form is defined by are
    ambiguous, and the pairs are built eagerly instead.
    """
    if privacy not in ("node", "edge"):
        raise PatternError(f"privacy must be 'node' or 'edge', got {privacy!r}")
    if privacy == "node":
        objects = graph.nodes()
        names = [node_var(node) for node in objects]
        children, var = attrgetter("nodes"), node_var
        width = pattern.graph.num_nodes
    else:
        objects = [Occurrence.normalize_edge(u, v) for u, v in graph.edges()]
        names = [edge_var(u, v) for u, v in objects]
        children, var = attrgetter("edges"), lambda edge: edge_var(*edge)
        width = pattern.graph.num_edges
    matrix = None
    if occurrences is None:
        star = _star_rows(graph, pattern, privacy, objects, names)
        if star is not None:
            matrix, occurrences = star
        else:
            occurrences = occurrences_for_pattern(graph, pattern)
    if matrix is None:
        occurrences = list(occurrences)
        if occurrences:
            width = len(children(occurrences[0]))
        matrix = _index_rows(objects, names, occurrences, children, width)
    if matrix is not None:
        from ..store.relation import ConjunctiveKRelation

        # keep only the participants some row names (the LP's columns)
        used, inverse = np.unique(matrix.ravel(), return_inverse=True)
        ordered = sorted(names)
        return ConjunctiveKRelation(
            [ordered[i] for i in used.tolist()],
            inverse.reshape(matrix.shape),
            privacy,
            occurrences,
            participants=names,
            num_participants=len(names),
        )
    pairs = [
        (occurrence, And(Var(var(c)) for c in sorted(children(occurrence), key=repr)))
        for occurrence in occurrences
    ]
    return SensitiveKRelation(names, pairs)


def _index_rows(objects, names, occurrences, children, width):
    """The ``(N, width)`` participant-index matrix, or ``None``.

    Participant ``j`` is the ``j``-th name in sorted order; row ``r``
    holds occurrence ``r``'s participants in repr order of its nodes
    (normalized edges) — the children order of the eager annotation.
    ``None`` when two names or two reprs collide (the orders are then
    ambiguous) or the occurrences are not rectangular over ``objects``
    (a node/edge outside the graph, varying or zero widths); the eager
    pairs then report or encode them as before.
    """
    ranking = _repr_ranking(objects, names)
    if ranking is None:
        return None
    if occurrences and (
        width == 0 or any(len(children(occ)) != width for occ in occurrences)
    ):
        return None
    by_repr, name_of_rank = ranking
    rank = {objects[i]: r for r, i in enumerate(by_repr)}
    try:
        ranks = np.fromiter(
            chain.from_iterable(
                map(rank.__getitem__, children(occ)) for occ in occurrences
            ),
            dtype=np.int64,
            count=len(occurrences) * width,
        )
    except KeyError:
        return None
    ranks = ranks.reshape(len(occurrences), width)
    ranks.sort(axis=1)
    return name_of_rank[ranks]


def _repr_ranking(objects, names):
    """``(by_repr, name_of_rank)``, or ``None`` when names or reprs collide.

    ``by_repr`` lists the positions of ``objects`` in repr order;
    ``name_of_rank[r]`` is the sorted-name index of the object of repr
    rank ``r``.
    """
    reprs = [repr(obj) for obj in objects]
    if len(set(reprs)) != len(reprs) or len(set(names)) != len(names):
        return None
    positions = range(len(objects))
    by_repr = sorted(positions, key=reprs.__getitem__)
    name_index = np.empty(len(objects), dtype=np.int64)
    name_index[sorted(positions, key=names.__getitem__)] = positions
    return by_repr, name_index[by_repr]


def _star_rows(graph, pattern, privacy, objects, names):
    """An unconstrained k-star's (``k ≥ 2``) matrix straight from adjacency.

    Returns ``(matrix, occurrences)``, the matrix :func:`_index_rows` makes
    of :func:`~repro.subgraphs.counting.enumerate_k_stars`' occurrences:
    centers in ``graph.nodes()`` order, each center's neighbours sorted by
    repr and taken in ``itertools.combinations`` order, each row's members
    ranked by repr.  No occurrence is built here: ``occurrences`` is a
    callable that builds them from the captured center and leaf arrays,
    never from ``graph``, which may change after this returns.  ``None``
    for any other pattern, or when names or reprs collide.
    """
    if pattern.node_constraints or pattern.edge_constraints:
        return None
    head, _, tail = pattern.name.partition("-")
    if tail != "star" or not head.isdigit() or int(head) < 2:
        return None
    k = int(head)
    ranking = _repr_ranking(objects, names)
    ranked = graph.nodes()  # in repr order; a star's nodes are ranks into it
    if ranking is None or len(set(map(repr, ranked))) != len(ranked):
        return None
    node_rank = {node: r for r, node in enumerate(ranked)}
    centers, neighbours = [], []
    for center in ranked:
        around = sorted(map(node_rank.__getitem__, graph.neighbors(center)))
        if len(around) >= k:
            centers.append(node_rank[center])
            neighbours.append(around)
    counts = [math.comb(len(around), k) for around in neighbours]
    center_col = np.repeat(np.asarray(centers, dtype=np.int64), counts)
    leaves = np.fromiter(
        chain.from_iterable(
            chain.from_iterable(combinations(around, k) for around in neighbours)
        ),
        dtype=np.int64,
        count=len(center_col) * k,
    ).reshape(len(center_col), k)
    if privacy == "node":
        ranks = np.concatenate((center_col[:, None], leaves), axis=1)
    else:
        # an edge's repr rank, looked up by its end ranks' code lo·n + hi
        n = len(ranked)
        edges = [objects[i] for i in ranking[0]]
        ends = np.array(
            [[node_rank[u], node_rank[v]] for u, v in edges], dtype=np.int64
        ).reshape(len(edges), 2)
        ends.sort(axis=1)
        codes = ends[:, 0] * n + ends[:, 1]
        order = np.argsort(codes)
        lo = np.minimum(center_col[:, None], leaves)
        hi = np.maximum(center_col[:, None], leaves)
        ranks = order[np.searchsorted(codes[order], lo * n + hi)]
    ranks.sort(axis=1)
    matrix = ranking[1][ranks]

    def occurrences():
        edge = Occurrence.normalize_edge
        built = []
        for c, row in zip(center_col.tolist(), leaves.tolist()):
            center, tips = ranked[c], [ranked[leaf] for leaf in row]
            built.append(
                Occurrence(
                    nodes=frozenset([center, *tips]),
                    edges=frozenset(edge(center, tip) for tip in tips),
                )
            )
        return built

    return matrix, occurrences
