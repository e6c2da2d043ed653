"""Plain-graph subgraph relations in index form behave like eager ones.

:func:`~repro.subgraphs.annotate.subgraph_krelation` hands back a
:class:`~repro.store.relation.ConjunctiveKRelation` — a participant-index
matrix whose ``(occurrence, And)`` pairs materialize only on demand.  The
eager object construction it replaced lives on as
``tests/annotate_oracle.py``.  Against it, for every pattern under node
and edge privacy on graphs with int, str and mixed labels, isolated
nodes, and no occurrences at all:

* the LP encoding is element-identical (triplets, objective, G rows in
  key order, the closed-form ``G_{|P|}``, ``S̄``, bounding);
* the lazily materialized pairs equal the eager pairs, tuple for tuple;
* released answers are bit-equal on every backend;

and graphs whose names or reprs collide fall back to eager pairs.
"""

import numpy as np
import pytest
from lp_oracle import g_rows_by_name
from annotate_oracle import eager_subgraph_krelation

from repro import PrivateSession
from repro.core import EfficientRecursiveMechanism, RecursiveMechanismParams
from repro.core.queries import WeightedQuery
from repro.core.sensitive import SensitiveKRelation
from repro.graphs import Graph, random_graph_with_avg_degree
from repro.relax.encode import EncodedRelation
from repro.store.relation import ConjunctiveKRelation
from repro.subgraphs import (
    Pattern,
    annotate,
    cycle_pattern,
    enumerate_subgraphs,
    k_clique,
    k_star,
    k_triangle,
    path_pattern,
    subgraph_krelation,
    triangle,
)

PATTERNS = [
    triangle(),
    k_star(1),
    k_star(2),
    k_star(3),
    k_triangle(2),
    k_clique(4),
    path_pattern(3),
    cycle_pattern(4),
]

#: The paper's query set (perfbench's ``QUERY_SET``).
QUERY_SET = [
    (triangle(), "node"),
    (triangle(), "edge"),
    (k_star(2), "node"),
    (k_star(2), "edge"),
    (k_triangle(2), "node"),
    (k_triangle(2), "edge"),
]


def _relabelled(graph, label):
    relabelled = Graph()
    for node in graph.nodes():
        relabelled.add_node(label(node))
    for u, v in graph.edges():
        relabelled.add_edge(label(u), label(v))
    return relabelled


def _graphs():
    """``(id, graph)``: int, str and mixed labels, isolated nodes, and a
    graph without edges (no occurrences of any pattern)."""
    base = random_graph_with_avg_degree(18, 5, rng=4)
    ints = _relabelled(base, lambda node: node)
    for isolated in (100, 7000):
        ints.add_node(isolated)
    yield "int-isolated", ints
    yield "str", _relabelled(base, lambda node: f"n{node}")
    # "a" sorts before "1" by repr ("'a'") but after it by name ("v:a")
    yield "mixed", _relabelled(base, lambda node: node if node % 2 else f"s{node}")
    edgeless = Graph()
    for node in range(5):
        edgeless.add_node(node)
    yield "edgeless", edgeless


GRAPHS = list(_graphs())


def _encoding(relation):
    """Everything the compiled program is built from, in order."""
    encoded = EfficientRecursiveMechanism(relation)._encoded
    arrays = {
        name: getattr(encoded, name).tolist()
        for name in (
            "_ub_rows",
            "_ub_cols",
            "_ub_vals",
            "_ub_rhs",
            "_root_vars",
            "_root_weights",
        )
    }
    return {
        **arrays,
        "objective": encoded._compiled._c.tolist(),
        "participants": encoded.participants,
        "g_rows": g_rows_by_name(encoded),
        "g_top": encoded.g_closed_form(encoded.num_participants),
        "max_phi_sensitivity": encoded.max_phi_sensitivity,
        "total_weight": encoded.total_weight,
    }


def _assert_same_relation(relation, oracle):
    assert isinstance(relation, ConjunctiveKRelation)
    assert relation._pairs_cache is None
    assert relation.participants == oracle.participants
    assert len(relation) == len(oracle)
    assert relation.total_annotation_length() == oracle.total_annotation_length()
    assert _encoding(relation) == _encoding(oracle)
    assert relation._pairs_cache is None  # encoding never materialized pairs
    assert relation.items() == oracle.items()
    assert [type(a) for _, a in relation.items()] == [
        type(a) for _, a in oracle.items()
    ]


@pytest.mark.parametrize("privacy", ["node", "edge"])
@pytest.mark.parametrize("pattern", PATTERNS, ids=[p.name for p in PATTERNS])
@pytest.mark.parametrize("graph", [g for _, g in GRAPHS], ids=[n for n, _ in GRAPHS])
def test_index_form_encodes_like_the_eager_relation(graph, pattern, privacy):
    relation = subgraph_krelation(graph, pattern, privacy)
    oracle = eager_subgraph_krelation(graph, pattern, privacy)
    _assert_same_relation(relation, oracle)
    mechanism = EfficientRecursiveMechanism(oracle)
    assert mechanism.bounding == EfficientRecursiveMechanism(relation).bounding


@pytest.mark.parametrize("privacy", ["node", "edge"])
def test_constrained_occurrences_keep_their_order(privacy):
    """Pre-enumerated occurrences (here a constrained pattern's, from the
    generic matcher with host data) become rows in the order given."""
    graph = GRAPHS[0][1]
    pattern = Pattern(
        [(0, 1), (1, 2), (0, 2)],
        name="hub-triangle",
        node_constraints={0: lambda data: data == "hub"},
    )
    hubs = {node: "hub" for node in graph.nodes() if node % 3 == 0}
    occurrences = list(enumerate_subgraphs(graph, pattern, node_data=hubs))
    assert 0 < len(occurrences)
    occurrences.reverse()
    relation = subgraph_krelation(graph, pattern, privacy, occurrences=occurrences)
    oracle = eager_subgraph_krelation(graph, pattern, privacy, occurrences)
    _assert_same_relation(relation, oracle)


@pytest.mark.parametrize(
    "pattern,privacy",
    [(k_star(1), "edge"), (triangle(), "node")],
    ids=["1-star/edge", "triangle/node"],
)
def test_repeated_occurrences_encode_like_the_eager_relation(pattern, privacy):
    """An occurrence listed twice is two tuples on both paths, including
    width-1 rows whose root is the bare participant variable."""
    graph = GRAPHS[0][1]
    occurrences = subgraph_krelation(graph, pattern, privacy).support()
    occurrences = list(occurrences) + list(occurrences[:3])
    relation = subgraph_krelation(graph, pattern, privacy, occurrences=occurrences)
    oracle = eager_subgraph_krelation(graph, pattern, privacy, occurrences)
    _assert_same_relation(relation, oracle)


class _Label:
    """A node label whose repr says nothing about which node it is."""

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return "label"

    def __str__(self):
        return self.name


def _collision_graphs():
    names = Graph()  # 1 and "1" are both participant "v:1"
    names.add_edges_from([(1, 2), (2, 3), (1, 3), ("1", 2), ("1", 3)])
    yield "names", names
    a, b, c, d = (_Label(name) for name in "abcd")
    reprs = Graph()
    reprs.add_edges_from([(a, b), (b, c), (a, c), (c, d), (b, d)])
    yield "reprs", reprs


@pytest.mark.parametrize("privacy", ["node", "edge"])
@pytest.mark.parametrize(
    "graph",
    [g for _, g in _collision_graphs()],
    ids=[n for n, _ in _collision_graphs()],
)
def test_collisions_fall_back_to_the_eager_relation(graph, privacy):
    # k-stars are built from adjacency, the others from occurrences
    for pattern in (triangle(), k_star(2)):
        oracle = eager_subgraph_krelation(graph, pattern, privacy)
        relation = subgraph_krelation(graph, pattern, privacy)
        assert type(relation) is SensitiveKRelation
        assert relation.participants == oracle.participants
        assert relation.items() == oracle.items()
        assert _encoding(relation) == _encoding(oracle)


@pytest.mark.parametrize("privacy", ["node", "edge"])
def test_stars_skip_enumeration_and_outlive_graph_updates(privacy, monkeypatch):
    """A k-star relation is built from adjacency without enumerating, and
    its lazily built occurrences describe the graph it was built from,
    not the graph as later updates leave it."""
    graph = random_graph_with_avg_degree(18, 5, rng=4)
    oracle = eager_subgraph_krelation(graph, k_star(2), privacy)
    monkeypatch.setattr(annotate, "occurrences_for_pattern", None)
    relation = subgraph_krelation(graph, k_star(2), privacy)
    hub = max(graph.nodes(), key=graph.degree)
    for neighbour in sorted(graph.neighbors(hub)):
        graph.remove_edge(hub, neighbour)
    graph.add_edge("x", "y")
    assert relation._pairs_cache is None
    assert relation.items() == oracle.items()
    assert relation.participants == oracle.participants


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    "spec", QUERY_SET, ids=[f"{p.name}/{privacy}" for p, privacy in QUERY_SET]
)
def test_released_answers_are_bit_equal(spec, seed, lp_backend):
    pattern, privacy = spec
    graph = random_graph_with_avg_degree(22, 5, rng=seed)
    params = RecursiveMechanismParams.paper(1.0, node_privacy=privacy == "node")
    answers = [
        EfficientRecursiveMechanism(relation, backend=lp_backend)
        .run(params, np.random.default_rng(seed))
        .answer
        for relation in (
            subgraph_krelation(graph, pattern, privacy),
            eager_subgraph_krelation(graph, pattern, privacy),
        )
    ]
    assert answers[0] == answers[1]


def test_count_queries_on_plain_graphs_stay_in_index_form(monkeypatch):
    """A count release on a plain graph encodes from the matrix and never
    builds the pairs; a custom weight materializes them and releases what
    the eager relation releases."""
    built = []
    from_conjunctions = EncodedRelation.from_conjunctions.__func__

    def spy(cls, *args, **kwargs):
        built.append(cls)
        return from_conjunctions(cls, *args, **kwargs)

    monkeypatch.setattr(EncodedRelation, "from_conjunctions", classmethod(spy))
    graph = random_graph_with_avg_degree(24, 5, rng=8)
    with PrivateSession(graph, rng=3) as session:
        session.query(triangle(), privacy="edge", epsilon=1.0, rng=5)
        relation = session.prepared(triangle(), privacy="edge").mechanism.relation
        assert isinstance(relation, ConjunctiveKRelation)
        assert relation._pairs_cache is None
        assert built == [EncodedRelation]

        weight = WeightedQuery(lambda occurrence: 1.0 + min(occurrence.nodes) % 3)
        answer = session.query(
            triangle(), privacy="edge", epsilon=1.0, rng=5, weight=weight
        ).answer
        weighted = session.prepared(triangle(), privacy="edge", weight=weight)
        assert weighted.mechanism.relation._pairs_cache is not None
        assert built == [EncodedRelation]  # the weighted query took the pairs
    expected = EfficientRecursiveMechanism(
        eager_subgraph_krelation(graph, triangle(), "edge"), query=weight
    ).run(
        RecursiveMechanismParams.paper(1.0, node_privacy=False),
        np.random.default_rng(5),
    )
    assert answer == expected.answer
