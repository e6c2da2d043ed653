"""Idle participants are an index shift, held to the unshifted program.

A participant in no annotation (an idle one) enters Eqs. 16, 19 and 20
only through the mass row, so the encoding gives it no LP column and
answers ``H_i = H^act_{max(0, i−m)}``, ``G_i = G^act_{max(0, i−m)}`` and
X at ``i' = i'_act + m`` (``repro.relax.encode``).  Here every one of
those is checked against ``tests/lp_oracle.py``'s reference programs,
which rebuild the *unshifted* program with a column for each of the
``|P|`` participants, on four kinds of relation:

* a hand-built ``SensitiveKRelation`` with idle names;
* the columnar store's relation after updates that isolate nodes;
* a relation whose participants are all idle;
* a relation with no idle participant.

Indices are integral and fractional, on both sides of the idle count
``m``.  Each relation is also checked to give no model an idle column.
"""

import math

import numpy as np
import pytest
from lp_oracle import reference_g, reference_h, reference_x

from repro import VersionedGraph
from repro.boolexpr import parse
from repro.core import EfficientRecursiveMechanism, SensitiveKRelation
from repro.graphs import Graph, random_graph_with_avg_degree
from repro.store import ConjunctiveKRelation
from repro.subgraphs import k_star, subgraph_krelation, triangle

#: Δ̂ values away from the slopes of H on the relations below, so the X
#: step's argmin is not a tie
DELTAS = [0.37, 1.3, 2.9]


def _hand_built():
    return SensitiveKRelation(
        list("abcdefghi"),
        [
            ("t1", parse("a & b")),
            ("t2", parse("(b & c) | d")),
            ("t3", parse("a")),
            ("t4", parse("c & d & b")),
        ],
    )


def _store_graph():
    """A maintained triangle relation's graph after updates that isolate
    three nodes and cut one more edge."""
    graph = VersionedGraph(random_graph_with_avg_degree(11, 4, rng=5))
    graph.maintainer.register(triangle())
    for node in (0, 4, 7):
        for neighbour in sorted(graph.neighbors(node)):
            graph.remove_edge(node, neighbour)
    u, v = sorted(graph.edges())[0]
    graph.remove_edge(u, v)
    return graph


def _store(privacy):
    relation = _store_graph().relation_for(triangle(), privacy)
    assert isinstance(relation, ConjunctiveKRelation)
    return relation


def _relations():
    yield "hand-built", _hand_built
    yield "store/node", lambda: _store("node")
    yield "store/edge", lambda: _store("edge")
    yield "all-idle", lambda: SensitiveKRelation(list("abcd"), [])
    yield "no-triangle", lambda: subgraph_krelation(
        Graph(edges=[(0, 1), (1, 2), (2, 3)]), triangle(), "node"
    )
    yield "no-idle", lambda: SensitiveKRelation(
        list("abc"), [("t1", parse("a & b")), ("t2", parse("b & c"))]
    )
    yield "no-idle/2-star", lambda: subgraph_krelation(
        Graph(edges=[(0, 1), (1, 2), (2, 0), (2, 3)]), k_star(2), "edge"
    )


RELATIONS = dict(_relations())


def _active_names(relation):
    """The participants some annotation names, from the pairs."""
    used = set()
    for _, annotation in relation.items():
        used |= annotation.variables()
    return used


def _indices(n, m):
    """Integral and fractional indices of ``[0, n]``, on both sides of
    ``m``."""
    candidates = {0.0, 0.5, m - 1, m - 0.5, m, m + 0.5, m + 1, n - 0.5, n}
    candidates.update(range(n + 1))
    return sorted(i for i in candidates if 0 <= i <= n)


@pytest.mark.parametrize("name", sorted(RELATIONS))
def test_shifted_programs_match_the_unshifted_oracle(name, lp_backend):
    relation = RELATIONS[name]()
    mechanism = EfficientRecursiveMechanism(relation, backend=lp_backend)
    encoded = mechanism._encoded
    walk = EfficientRecursiveMechanism(relation, backend=lp_backend)._encoded
    n = relation.num_participants
    active = _active_names(relation)
    m = n - len(active)
    assert encoded.num_participants == n
    assert encoded.num_idle == m
    assert set(encoded.participants) == active

    h = {}
    for i in _indices(n, m):
        h[i] = reference_h(encoded, i)
        assert encoded.solve_h(i) == pytest.approx(h[i], abs=1e-9), i
        oracle_g = reference_g(encoded, i)
        assert encoded.solve_g(i) == pytest.approx(oracle_g, abs=1e-9), i
        for threshold in (0.5 * oracle_g - 0.25, oracle_g + 0.25):
            decided, value, _ = walk.g_decide(i, threshold)
            assert value == pytest.approx(oracle_g, abs=1e-9), i
            assert decided == (oracle_g <= threshold), (i, threshold)
    walk.end_g_walk()
    integral = [h[k] for k in range(n + 1)]
    assert encoded.solve_h_many(range(n + 1)) == pytest.approx(integral, abs=1e-9)

    for delta_hat in DELTAS:
        value, i_prime = encoded.solve_x_relaxation(delta_hat)
        encoded.end_x_step()
        oracle_value, _ = reference_x(encoded, delta_hat)
        assert value == pytest.approx(oracle_value, abs=1e-9)
        # i' is an optimal mass of the unshifted relaxation
        assert m - 1e-9 <= i_prime <= n + 1e-9
        at_i_prime = reference_h(encoded, i_prime) + (n - i_prime) * delta_hat
        assert at_i_prime == pytest.approx(oracle_value, abs=1e-9)
        # the integer X and its argmin, over every full index
        x_value, x_index = mechanism._compute_x(delta_hat)
        scan = [integral[k] + (n - k) * delta_hat for k in range(n + 1)]
        assert x_value == pytest.approx(min(scan), abs=1e-9)
        assert x_index == float(int(x_index))
        assert scan[int(x_index)] == pytest.approx(min(scan), abs=1e-9)


@pytest.mark.parametrize("name", sorted(RELATIONS))
def test_no_model_has_an_idle_column(name, lp_backend):
    """Every participant column of the H, G and X models is named by an
    epigraph row, a min-max row or the objective."""
    relation = RELATIONS[name]()
    encoded = EfficientRecursiveMechanism(relation, backend=lp_backend)._encoded
    program = encoded._compiled
    active = len(_active_names(relation))
    assert program.num_participants == len(encoded.participants) == active
    columns = encoded.num_lp_variables
    assert program.num_variables == columns
    assert program._a_ub.shape[1] == columns
    used = np.zeros(columns, dtype=bool)
    used[program._a_ub.tocoo().col] = True
    used[np.flatnonzero(program._c)] = True
    used[program._g_cols] = True
    assert used[:active].all()
    if program.num_g_rows:
        overlay = program._build_g_overlay()
        assert overlay["matrix"].shape[1] == columns + 1  # and z
    if encoded.num_encoded_tuples:
        encoded.solve_x_relaxation(1.0)
        encoded.end_x_step()
        assert len(program._x_model.solve().x) == columns


def test_store_relation_counts_the_idle_participants():
    """The store names only participants in some row; the rest are counted,
    and named (from the presence flags of their own version) only when
    something reads the participant set."""
    graph = _store_graph()
    for privacy in ("node", "edge"):
        relation = graph.relation_for(triangle(), privacy)
        plain = subgraph_krelation(graph.as_graph(), triangle(), privacy)
        assert relation.num_participants == plain.num_participants
        assert relation.num_idle == plain.num_idle > 0
        assert relation.sorted_participants == plain.sorted_participants
        active = len(relation.sorted_participants)
        assert active + relation.num_idle == len(plain.participants)
        # later updates do not move this version's participants
        graph.add_edge("x", "y")
        graph.add_node("z")
        assert relation.participants == plain.participants
        assert len(relation.participants) == relation.num_participants
        graph.remove_node("x")
        graph.remove_node("y")
        graph.remove_node("z")


def test_idle_closed_forms_need_no_lp(lp_backend):
    """Up to ``i = m`` H is the constant weight and G is 0, with no LP."""
    relation = _hand_built()
    encoded = EfficientRecursiveMechanism(relation, backend=lp_backend)._encoded
    m = encoded.num_idle
    assert m == 5
    for i in (0, 0.5, 1, m - 0.5, m):
        assert encoded.h_closed_form(i) == 0.0
        assert encoded.g_closed_form(i) == 0.0
    assert encoded.h_closed_form(m + 0.5) is None
    assert encoded.g_closed_form(m + 0.5) is None
    assert encoded._compiled._h_model is None
    assert encoded._compiled._g_model is None
    n = encoded.num_participants
    assert encoded.h_closed_form(n) == encoded.true_answer() == 4.0
    assert math.isclose(encoded.g_closed_form(n), reference_g(encoded, n))
