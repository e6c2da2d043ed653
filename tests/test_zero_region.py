"""G's zero region is answered in closed form and clips the Δ search.

On a conjunctive relation of width ``w ≥ 2`` with ``n_act`` active and
``m`` idle participants, the uniform point ``f ≡ a/n_act`` puts every row
at ``max(0, w·a/n_act − (w−1))``, so ``G_i = 0`` for every
``i ≤ i₀ = m + ⌊n_act·(w−1)/w⌋`` (``EncodedRelation.g_closed_form``).
Here those zeros are held to ``tests/lp_oracle.py``'s reference program,
and the Δ search that skips the region (``compute_delta`` clips its range
to ``|P| − i₀``) is held to one that decides every interior probe by a
cold LP.
"""

from functools import partial

import pytest
from lp_oracle import reference_g

from repro import VersionedGraph
from repro.core import EfficientRecursiveMechanism, RecursiveMechanismParams
from repro.graphs import random_graph_with_avg_degree
from repro.subgraphs import k_star, k_triangle, subgraph_krelation, triangle

EPSILONS = [0.25, 0.5, 1.0, 2.0, 4.0]


def _store_relation():
    """A maintained triangle/node relation with isolated (idle) nodes."""
    graph = VersionedGraph(random_graph_with_avg_degree(12, 5, rng=3))
    graph.maintainer.register(triangle())
    for node in (0, 5):
        for neighbour in sorted(graph.neighbors(node)):
            graph.remove_edge(node, neighbour)
    return graph.relation_for(triangle(), "node")


def _graph_relation(pattern, privacy, nodes):
    graph = random_graph_with_avg_degree(nodes, 5, rng=nodes)
    return subgraph_krelation(graph, pattern, privacy)


def _relations():
    for pattern, nodes in ((triangle(), 12), (k_star(2), 12), (k_triangle(2), 14)):
        for privacy in ("node", "edge"):
            factory = partial(_graph_relation, pattern, privacy, nodes)
            yield f"{pattern.name}/{privacy}", privacy, factory
    yield "store/triangle/node", "node", _store_relation


RELATIONS = list(_relations())


@pytest.mark.parametrize(
    "privacy,factory", [r[1:] for r in RELATIONS], ids=[r[0] for r in RELATIONS]
)
def test_zero_region_is_closed_form_and_exact(privacy, factory):
    relation = factory()
    encoded = EfficientRecursiveMechanism(relation)._encoded
    m, n = encoded.num_idle, encoded.num_participants
    active, width = len(encoded.participants), relation.matrix.shape[1]
    i0 = encoded.g_zero_index
    assert i0 == m + active * (width - 1) // width
    assert m < i0 < n
    if factory is _store_relation:
        assert m > 0
    for i in range(i0 + 1):
        assert encoded.g_closed_form(i) == 0.0
    assert encoded.g_closed_form(i0 - 0.5) == 0.0
    for i in sorted({m, (m + i0) // 2, i0}):
        assert reference_g(encoded, float(i)) == pytest.approx(0.0, abs=1e-9)
    assert encoded.g_closed_form(i0 + 0.5) is None
    assert encoded.g_closed_form(i0 + 1) is None
    assert encoded._compiled._g_model is None  # no LP was built


@pytest.mark.parametrize(
    "privacy,factory", [r[1:] for r in RELATIONS], ids=[r[0] for r in RELATIONS]
)
def test_clipped_search_matches_forced_lps(privacy, factory, monkeypatch):
    """``(Δ, j*)`` with the zero region equals the search that knows only
    the idle region and |P| in closed form and solves every other probe
    cold; at some ε the clip at ``|P| − i₀`` is the range's binding end."""
    relation = factory()
    clipped = EfficientRecursiveMechanism(relation)
    forced = EfficientRecursiveMechanism(relation)
    encoded = forced._encoded
    m, n = encoded.num_idle, encoded.num_participants
    closed = encoded.g_closed_form
    monkeypatch.setattr(
        encoded, "g_closed_form", lambda i: closed(i) if i <= m or i >= n else None
    )
    monkeypatch.setattr(encoded, "g_zero_index", m)
    monkeypatch.setattr(forced, "_g_predicate", lambda i, t: forced.g_entry(i) <= t)
    probes, first_probes = [], []
    probe = clipped.g_entry_leq
    monkeypatch.setattr(
        clipped, "g_entry_leq", lambda i, t: probes.append(i) or probe(i, t)
    )
    for epsilon in EPSILONS:
        params = RecursiveMechanismParams.paper(epsilon, node_privacy=privacy == "node")
        probes.clear()
        assert clipped.compute_delta(params) == forced.compute_delta(params)
        first_probes.extend(probes[:1])  # the search range's upper end
    assert clipped._encoded.g_zero_index in first_probes
