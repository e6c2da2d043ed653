"""Test-side oracle: the eager object construction of subgraph K-relations.

:func:`eager_subgraph_krelation` builds the sensitive K-relation of a
subgraph-counting query the way the library did before its index form:
one ``And``-of-``Var`` annotation tree per occurrence, children in repr
order of the occurrence's nodes (edges), pairs in enumeration order,
validated by :class:`~repro.core.sensitive.SensitiveKRelation`.  The
index form (:func:`repro.subgraphs.annotate.subgraph_krelation`) must
encode, materialize and release exactly like it.
"""

from __future__ import annotations

from repro.boolexpr.expr import And, Var
from repro.core.sensitive import SensitiveKRelation
from repro.subgraphs.annotate import edge_var, node_var, occurrences_for_pattern

__all__ = ["eager_subgraph_krelation"]


def eager_subgraph_krelation(graph, pattern, privacy="node", occurrences=None):
    if occurrences is None:
        occurrences = occurrences_for_pattern(graph, pattern)
    pairs = []
    if privacy == "node":
        participants = [node_var(node) for node in graph.nodes()]
        for occurrence in occurrences:
            annotation = And(
                Var(node_var(node)) for node in sorted(occurrence.nodes, key=repr)
            )
            pairs.append((occurrence, annotation))
    else:
        participants = [edge_var(u, v) for u, v in graph.edges()]
        for occurrence in occurrences:
            annotation = And(
                Var(edge_var(u, v)) for u, v in sorted(occurrence.edges, key=repr)
            )
            pairs.append((occurrence, annotation))
    return SensitiveKRelation(participants, pairs)
