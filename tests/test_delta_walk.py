"""The Δ search as one warm walk on the exact G model stays exact.

Every probe of a Δ search re-solves one persistent G model from the
previous probe's basis (``CompiledProgram.solve_g_decide``).  These tests
hold that walk to cold solves: a fixed probe sequence that jumps far in
both directions must return the same booleans as a fresh cold
``solve_g`` and as the dense simplex reference (``tests/lp_oracle.py``),
and ``compute_delta`` must not depend on what an earlier search on the
same mechanism left behind.
"""

import pytest
from lp_oracle import reference_g

from repro.core import EfficientRecursiveMechanism, RecursiveMechanismParams
from repro.graphs import random_graph_with_avg_degree
from repro.lp.highs_engine import PersistentLP, engine_available
from repro.subgraphs import k_star, k_triangle, subgraph_krelation, triangle

COMBOS = [
    ("triangle/node", triangle, "node", 12),
    ("2-star/edge", lambda: k_star(2), "edge", 12),
    ("2-triangle/node", lambda: k_triangle(2), "node", 14),
]


def _relation(pattern, privacy, nodes):
    graph = random_graph_with_avg_degree(nodes, 5, rng=nodes)
    return subgraph_krelation(graph, pattern(), privacy=privacy)


def _probe_indices(n):
    """Interior indices that jump far up and down, with one repeat."""
    order = [n // 2, n - 1, 1, 3 * n // 4, n // 4, n - 2, 2, n // 2 + 1, n - 1]
    return [i for i in order if 0 < i < n]


@pytest.mark.parametrize("combo", COMBOS, ids=[c[0] for c in COMBOS])
def test_walk_decisions_match_cold_solves_and_oracle(combo, lp_backend):
    _, pattern, privacy, nodes = combo
    relation = _relation(pattern, privacy, nodes)
    walk = EfficientRecursiveMechanism(relation, backend=lp_backend)._encoded
    cold = EfficientRecursiveMechanism(relation, backend=lp_backend)._encoded
    n = walk.num_participants
    for step, i in enumerate(_probe_indices(n)):
        exact = cold.solve_g(float(i))  # always a cold solve
        oracle = reference_g(walk, float(i))
        assert exact == pytest.approx(oracle, abs=1e-6)
        # thresholds well clear of G_i, the lower one first on even steps
        below, above = 0.75 * exact - 0.5, 1.25 * exact + 0.5
        for threshold in (below, above) if step % 2 == 0 else (above, below):
            decided, value = walk.g_decide(float(i), threshold)
            assert decided == (exact <= threshold) == (oracle <= threshold)
            assert value == pytest.approx(exact, rel=1e-6, abs=1e-6)
    walk.end_g_walk()


@pytest.mark.skipif(not engine_available(), reason="scipy HiGHS bindings unavailable")
def test_walk_resumes_after_a_cold_first_solve(monkeypatch):
    """The first probe of a walk solves cold, later probes resume, and a
    walk that ended starts the next one cold again."""
    calls = []
    original = PersistentLP.solve

    def recording_solve(self, resume=False):
        calls.append(resume)
        return original(self, resume=resume)

    monkeypatch.setattr(PersistentLP, "solve", recording_solve)
    relation = _relation(lambda: k_star(2), "edge", 12)
    encoded = EfficientRecursiveMechanism(relation, backend="highs")._encoded
    n = encoded.num_participants
    for i in (n // 2, n // 4, 3 * n // 4):
        encoded.g_decide(float(i), 1.0)
    encoded.end_g_walk()
    encoded.g_decide(float(n // 2), 1.0)
    assert calls == [False, True, True, False]


@pytest.mark.parametrize("combo", COMBOS, ids=[c[0] for c in COMBOS])
def test_compute_delta_independent_of_earlier_searches(combo, lp_backend):
    _, pattern, privacy, nodes = combo
    relation = _relation(pattern, privacy, nodes)
    node = privacy == "node"
    settings = [
        RecursiveMechanismParams.paper(0.5, node_privacy=node),
        RecursiveMechanismParams.paper(2.0, node_privacy=node),
    ]
    shared = EfficientRecursiveMechanism(relation, backend=lp_backend)
    for params in settings:
        fresh = EfficientRecursiveMechanism(relation, backend=lp_backend)
        assert shared.compute_delta(params) == fresh.compute_delta(params)
        # the walk's model is freed when the search returns
        assert shared._encoded._compiled._g_model is None
