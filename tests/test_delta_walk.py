"""The Δ search as one warm walk on the exact G model stays exact.

A Δ search seeds one persistent G model at mass RHS ``|P|`` or 0 and
re-solves every probe from the previous probe's basis
(``CompiledProgram.solve_g_decide``).  These tests hold that walk to cold
solves: a fixed probe sequence that jumps far in both directions must
return the same booleans as a fresh cold ``solve_g`` and as the dense
simplex reference (``tests/lp_oracle.py``), and ``compute_delta`` must
not depend on what an earlier search on the same mechanism left behind.
Each probe's mass-row dual is a subgradient of ``G``: the tangent
decisions it allows must match cold solves, and its sign must match a
finite difference on both backends.
"""

import pytest
from lp_oracle import LP_BACKENDS, SimplexBackend, reference_g

from repro.boolexpr import parse
from repro.core import (
    EfficientRecursiveMechanism,
    RecursiveMechanismParams,
    SensitiveKRelation,
    efficient,
)
from repro.graphs import random_graph_with_avg_degree
from repro.lp.compiled import _TOP_SEED_REACH
from repro.lp.highs_engine import PersistentLP
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
            decided, value, _ = walk.g_decide(float(i), threshold)
            assert decided == (exact <= threshold) == (oracle <= threshold)
            assert value == pytest.approx(exact, rel=1e-6, abs=1e-6)
    walk.end_g_walk()


def test_idle_participants_get_no_column_in_the_g_model(lp_backend):
    """Participants in no annotation only pad the mass row, so they get
    no column: the G model holds the active participants, the node
    variables and ``z``, and its G is the unshifted reference G, probed
    by the walk and solved cold, at integer and fractional masses, below
    and above the idle count."""
    names = ["a", "b", "c", "d", "e", "f", "g"]
    relation = SensitiveKRelation(
        names, [("t1", parse("a & b")), ("t2", parse("b & c")), ("t3", parse("a"))]
    )
    walk = EfficientRecursiveMechanism(relation, backend=lp_backend)._encoded
    cold = EfficientRecursiveMechanism(relation, backend=lp_backend)._encoded
    assert walk.participants == ["a", "b", "c"]  # d..g are idle
    assert walk.num_idle == 4 and walk.num_participants == 7
    overlay = walk._compiled._build_g_overlay()
    # a, b, c, the two And nodes and z
    assert overlay["matrix"].shape[1] == 3 + 2 + 1
    assert list(overlay["col_upper"]) == [1.0] * 5 + [float("inf")]
    for i in (6.5, 1, 4.5, 3, 5, 0.5, 2):
        oracle = reference_g(walk, float(i))
        assert cold.solve_g(float(i)) == pytest.approx(oracle, abs=1e-6)
        assert walk.g_decide(float(i), 0.0)[1] == pytest.approx(oracle, abs=1e-6)
    walk.end_g_walk()


def test_walk_resumes_after_a_cold_first_solve(monkeypatch):
    """A walk solves cold only at mass RHS ``|P|`` or 0 (its seed, chosen
    by how far below ``|P|`` its first probe lies) and every interior
    probe resumes, in hand-driven walks and in real searches; a walk that
    ended seeds the next one afresh."""
    calls, rhs = [], {}
    original_bounds, original_solve = PersistentLP.set_row_bounds, PersistentLP.solve

    def recording_bounds(self, row, lower, upper):
        rhs[id(self)] = lower  # only the mass row is ever rebound
        return original_bounds(self, row, lower, upper)

    def recording_solve(self, resume=False):
        calls.append((resume, rhs[id(self)]))
        return original_solve(self, resume=resume)

    monkeypatch.setattr(PersistentLP, "set_row_bounds", recording_bounds)
    monkeypatch.setattr(PersistentLP, "solve", recording_solve)
    relation = _relation(lambda: k_star(2), "edge", 12)
    mechanism = EfficientRecursiveMechanism(relation)
    encoded = mechanism._encoded
    n = encoded.num_participants
    # the first index past G's closed-form zero region, far enough below
    # |P| that a walk opening there seeds at mass RHS 0
    mid = encoded.g_zero_index + 1
    assert encoded.num_idle == 0 and n - mid > _TOP_SEED_REACH * n
    for i in (n - 1, mid, 3 * n // 4):
        encoded.g_decide(float(i), 1.0)
    encoded.end_g_walk()
    encoded.g_decide(float(mid), 1.0)
    encoded.end_g_walk()
    assert calls == [
        (False, n),
        (True, n - 1),
        (True, mid),
        (True, 3 * n // 4),
        (False, 0),
        (True, mid),
    ]
    calls.clear()
    for epsilon in (0.25, 1.0, 4.0):
        mechanism.compute_delta(RecursiveMechanismParams.paper(epsilon))
    assert calls
    assert all(mass in (0, n) for resume, mass in calls if not resume)
    assert all(resume for resume, mass in calls if 0 < mass < n)


@pytest.mark.parametrize("combo", COMBOS, ids=[c[0] for c in COMBOS])
def test_tangent_decisions_match_cold_solves(combo, lp_backend, monkeypatch):
    """Every ``how="tangent"`` decision equals a cold ``solve_g`` decision,
    and every kept tangent bounds ``G`` from below at each integer index."""
    _, pattern, privacy, nodes = combo
    relation = _relation(pattern, privacy, nodes)
    mechanism = EfficientRecursiveMechanism(relation, backend=lp_backend)
    cold = EfficientRecursiveMechanism(relation, backend=lp_backend)._encoded
    n = mechanism.num_participants
    exact = [cold.solve_g(float(j)) for j in range(n + 1)]
    routes = []
    monkeypatch.setattr(efficient, "_count_probe", routes.append)

    def probe(mechanism, i, threshold):
        decided = mechanism._g_predicate(i, threshold)
        if routes[-1] == "tangent":
            assert decided == (exact[i] <= threshold), (i, threshold)

    # descending, so each LP probe's tangent reaches the indices below it
    for i in range(n - 1, 0, -1):
        for factor in (0.9, 0.5):
            probe(mechanism, i, factor * exact[i])
    mechanism._encoded.end_g_walk()
    tangents = [mechanism._g_tangents]
    # one LP probe at k, then thresholds just under its tangent (which
    # it decides) and just over G (where a bound above G would decide)
    for k in sorted(tangents[0]):
        fresh = EfficientRecursiveMechanism(relation, backend=lp_backend)
        probe(fresh, k, 0.5 * exact[k])
        assert routes[-1] == "lp"
        value, slope = fresh._g_tangents[k]
        for j in range(1, n):
            bound = value + slope * (j - k)
            if j != k and bound > 1e-3:
                probe(fresh, j, bound - 1e-3)
                probe(fresh, j, exact[j] + 1e-3)
        fresh._encoded.end_g_walk()
        tangents.append(fresh._g_tangents)
    for kept in tangents:
        for k, (value, slope) in kept.items():
            for j in range(n + 1):
                assert value + slope * (j - k) <= exact[j] + 1e-6, (k, j)


def test_mass_row_dual_is_the_slope_of_g_on_both_backends():
    """Where ``G`` is smooth, the slope ``g_decide`` returns from the
    ``highs`` and ``scipy`` duals agrees and matches a finite difference."""
    relation = _relation(lambda: k_star(2), "edge", 12)
    cold = EfficientRecursiveMechanism(relation)._encoded
    n = cold.num_participants

    def forward(i, step):
        return (cold.solve_g(i + step) - cold.solve_g(i)) / step

    def smooth_at(i):
        # G is convex, so equal chords on both sides make it linear around i
        return forward(i - 0.25, 0.25) == pytest.approx(forward(i, 0.25), abs=1e-9)

    smooth = [i for i in range(1, n) if cold.solve_g(float(i)) > 0 and smooth_at(i)]
    assert smooth
    for i in smooth:
        slopes = {}
        for backend in ("highs", "scipy"):
            encoded = EfficientRecursiveMechanism(
                relation, backend=LP_BACKENDS[backend]()
            )._encoded
            _, _, slopes[backend] = encoded.g_decide(float(i), 0.0)
            encoded.end_g_walk()
        assert slopes["highs"] == pytest.approx(slopes["scipy"], abs=1e-6)
        assert slopes["highs"] == pytest.approx(forward(i, 0.25), abs=1e-6)


def test_tangents_decide_real_searches_unless_the_backend_has_no_duals(
    lp_backend, monkeypatch
):
    """Real Δ searches take the tangent route; the simplex oracle reports
    no duals, so it takes none and still finds the same ``(Δ, j*)``."""
    relation = _relation(lambda: k_star(2), "edge", 12)
    deltas, routes = {}, {}
    for name, backend in (("duals", lp_backend), ("oracle", SimplexBackend())):
        mechanism = EfficientRecursiveMechanism(relation, backend=backend)
        routes[name] = []
        monkeypatch.setattr(efficient, "_count_probe", routes[name].append)
        deltas[name] = [
            mechanism.compute_delta(RecursiveMechanismParams.paper(epsilon))
            for epsilon in (0.25, 0.5, 1.0, 2.0, 4.0)
        ]
    assert deltas["duals"] == deltas["oracle"]
    assert "tangent" in routes["duals"]
    assert "tangent" not in routes["oracle"]


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
