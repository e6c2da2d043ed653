"""Certified H intervals and snapped H values (``repro.lp.certify``).

Pinned here:

* against exact values: on small conjunctive and disjunctive relations,
  ``tests/lp_oracle.py``'s simplex in ``Fraction`` arithmetic gives the
  exact ``H_k``; for every ``k`` the certificate of a cold solve brackets
  it and the snapped value is its float, on HiGHS and the linprog oracle;
* the routes: on cold-release-shaped graphs (40–50 nodes, the six query
  specs) the X step's ``x_lp``, ``resumed`` and ``cold`` routes — and
  the pooled cold route — store bit-identical H values, and none fails
  to snap;
* an interval too wide to isolate a rational sends the entry to the cold
  route, is counted in ``repro_h_unsnapped_total``, and stores the
  solver's value;
* :func:`~repro.lp.certify.snap` on its own.
"""

import math
import random
from fractions import Fraction

import pytest
from lp_oracle import exact_h
from test_compiled_equivalence import random_expression

from repro.boolexpr import parse
from repro.core import EfficientRecursiveMechanism, SensitiveKRelation
from repro.graphs import random_graph_with_avg_degree
from repro.lp import HIGHS
from repro.lp.certify import Certificate, snap
from repro.obs import metrics
from repro.relax.encode import EncodedRelation
from repro.subgraphs import k_star, k_triangle, subgraph_krelation, triangle

QUERY_SET = [
    (pattern, privacy)
    for pattern in (triangle(), k_star(2), k_triangle(2))
    for privacy in ("node", "edge")
]


def _disjunctive():
    return SensitiveKRelation(
        ["a", "b", "c", "d", "e"],
        [
            ("t1", parse("a | b")),
            ("t2", parse("(b & c) | d")),
            ("t3", parse("c & e")),
            ("t4", parse("a & (d | e)")),
        ],
    )


def _random_counting(seed):
    """Random positive annotations, each tuple of weight 1 or 2."""
    rng = random.Random(seed)
    names = [f"p{i}" for i in range(rng.randint(3, 5))]
    annotated = [
        (random_expression(rng, names, rng.randint(1, 3)), float(rng.randint(1, 2)))
        for _ in range(rng.randint(2, 4))
    ]
    return names, annotated


def _small_relations():
    """``(id, factory(backend) -> EncodedRelation)``: conjunctive ones built
    by ``from_conjunctions`` and through annotation trees, disjunctive
    ones through annotation trees."""
    graph = random_graph_with_avg_degree(7, 3, rng=1)
    yield "triangle/node", lambda b: EfficientRecursiveMechanism(
        subgraph_krelation(graph, triangle(), "node"), backend=b
    )._encoded
    small = random_graph_with_avg_degree(5, 2.4, rng=2)
    yield "2-star/edge", lambda b: EfficientRecursiveMechanism(
        subgraph_krelation(small, k_star(2), "edge"), backend=b
    )._encoded
    yield "disjunctive", lambda b: EfficientRecursiveMechanism(
        _disjunctive(), backend=b
    )._encoded
    for seed in range(4):
        names, annotated = _random_counting(seed)
        yield f"random-{seed}", (
            lambda b, names=names, annotated=annotated: EncodedRelation(
                names, annotated, b
            )
        )


SMALL = dict(_small_relations())


#: ``(relation id, k) → exact H_k``, shared by the backends
_EXACT = {}


def _exact(name, encoded, k):
    if (name, k) not in _EXACT:
        _EXACT[name, k] = Fraction(exact_h(encoded, k))
    return _EXACT[name, k]


def _cold_certificate(encoded, a):
    """The certificate of a cold solve of the active program at ``a``."""
    solution = encoded._compiled.solve_h(float(a))
    assert solution.is_optimal
    mass_row = encoded._compiled.num_ub_rows
    return encoded._certificate(solution, solution.row_dual[mass_row])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_interval_holds_the_exact_value_and_snaps_to_it(name, lp_backend):
    encoded = SMALL[name](lp_backend)
    n = encoded.num_participants
    for k in range(1, n):
        exact = _exact(name, encoded, k)
        # the active program's index: H_k = H^act_{max(0, k − m)}
        a = max(0, k - encoded.num_idle)
        certificate = _cold_certificate(encoded, a)
        lower, upper = certificate.interval(a)
        assert Fraction(lower) <= exact <= Fraction(upper), (k, lower, upper)
        assert upper - lower < 1e-9
        assert snap(lower, upper) == float(exact)
        assert encoded.solve_h(k) == float(exact)
        # past the solution's own mass, U raises f until Σf ≥ a + 1
        above = _exact(name, encoded, k + 1) if k + 1 < n else encoded.solve_h(n)
        assert Fraction(certificate.upper(a + 1)) >= above


def _counts():
    registry = metrics()
    routes = {
        how: registry.counter("repro_h_entries_total", how=how).value
        for how in ("closed_form", "x_lp", "resumed", "cold")
    }
    routes["unsnapped"] = registry.counter("repro_h_unsnapped_total").value
    return routes


#: Δ̂ values around the slopes of H on the graphs below, so that the X
#: relaxations' optima land both on and between integers
DELTAS = [0.3, 0.9, 1.7, 2.6, 4.1, 6.5, 9.8]


@pytest.mark.parametrize("size", [40, 50])
def test_routes_store_bit_identical_h(size, lp_backend):
    graph = random_graph_with_avg_degree(size, 5.5, rng=7000 + size)
    before = _counts()
    for pattern, privacy in QUERY_SET:
        relation = subgraph_krelation(graph, pattern, privacy)
        fast = EfficientRecursiveMechanism(relation, backend=lp_backend)
        for delta_hat in DELTAS:
            fast._compute_x(delta_hat)
        cold = EfficientRecursiveMechanism(relation, backend=lp_backend)
        indices = sorted(fast._h_cache)
        expected = [cold._encoded.solve_h(k) for k in indices]
        assert [fast._h_cache[k] for k in indices] == expected
        # the same entries as one batch of cold misses, outside any X step
        batched = EfficientRecursiveMechanism(relation, backend=lp_backend)
        assert batched.h_entries(indices) == expected
    after = _counts()
    assert after["unsnapped"] == before["unsnapped"]
    assert after["x_lp"] > before["x_lp"]
    if lp_backend.name == "highs":
        assert after["resumed"] > before["resumed"]
    else:  # an array model cannot add a row: its fractional neighbours go cold
        assert after["resumed"] == before["resumed"]


@pytest.mark.parametrize(
    "nodes, degree", [(44, 6), (90, 8)], ids=["simplex", "ipm-size"]
)
def test_resumed_solves_leave_the_x_model_as_it_was(nodes, degree):
    # 2-star/edge on 90 nodes has 3,894 columns: its cold solves run IPM,
    # and the model keeps the simplex state of its resumes
    relation = subgraph_krelation(
        random_graph_with_avg_degree(nodes, degree, rng=7002), k_star(2), "edge"
    )
    used = EfficientRecursiveMechanism(relation)
    before = _counts()
    for delta_hat in DELTAS:
        used._compute_x(delta_hat)
    assert _counts()["resumed"] > before["resumed"]
    fresh = EfficientRecursiveMechanism(relation)
    for delta_hat in DELTAS:
        assert used._encoded.solve_x_relaxation(delta_hat) == (
            fresh._encoded.solve_x_relaxation(delta_hat)
        )


@pytest.mark.parametrize(
    "nodes, degree", [(44, 6), (90, 8)], ids=["simplex", "ipm-size"]
)
def test_resumed_x_solves_release_what_fresh_ones_do(nodes, degree):
    relation = subgraph_krelation(
        random_graph_with_avg_degree(nodes, degree, rng=7002), k_star(2), "edge"
    )
    used = EfficientRecursiveMechanism(relation)
    program = used._encoded._compiled
    solve_x = program.solve_x
    ipm_iterations = []

    def recorded(delta_hat):
        solution = solve_x(delta_hat)
        info = program._x_model._solver.getInfo()
        ipm_iterations.append(int(info.ipm_iteration_count))
        return solution

    program.solve_x = recorded
    indices = set()
    for delta_hat in DELTAS:
        x_value, x_index = used._compute_x(delta_hat)
        fresh = EfficientRecursiveMechanism(relation)
        assert fresh._compute_x(delta_hat) == (x_value, x_index)
        assert fresh._h_cache == {k: used._h_cache[k] for k in fresh._h_cache}
        indices.add(x_index)
    assert len(indices) >= 3
    assert len(ipm_iterations) == len(DELTAS)
    # every X solve after the first resumes from the last X basis
    assert ipm_iterations[1:] == [0] * (len(DELTAS) - 1)
    if nodes == 90:
        assert ipm_iterations[0] > 0


def test_too_wide_an_interval_takes_the_cold_route(monkeypatch, lp_backend):
    relation = subgraph_krelation(
        random_graph_with_avg_degree(40, 5.5, rng=7000), k_star(2), "edge"
    )
    reference = EfficientRecursiveMechanism(relation, backend=lp_backend)
    lower = Certificate.lower
    monkeypatch.setattr(Certificate, "lower", lambda self, k: lower(self, k) - 1e-3)
    mechanism = EfficientRecursiveMechanism(relation, backend=lp_backend)
    before = _counts()
    x_value, x_index = mechanism._compute_x(2.6)
    after = _counts()
    entries = [k for k in mechanism._h_cache if 0 < k < mechanism.num_participants]
    assert entries
    assert after["x_lp"] == before["x_lp"]
    assert after["resumed"] == before["resumed"]
    assert after["cold"] - before["cold"] == len(entries)
    # every entry misses once on the cold route, and once before it on
    # the X step's own route where one was tried
    assert after["unsnapped"] - before["unsnapped"] >= len(entries)
    for k in entries:
        solution = mechanism._encoded._compiled.solve_h(
            float(k - mechanism._encoded.num_idle)
        )
        assert mechanism._h_cache[k] == max(0.0, solution.objective)
        assert mechanism._h_cache[k] == pytest.approx(
            reference._encoded.solve_h(k), abs=1e-9
        )
    monkeypatch.undo()
    assert (x_value, x_index) == pytest.approx(reference._compute_x(2.6), abs=1e-9)


class TestSnap:
    def test_isolates_the_rational(self):
        third = 1.0 / 3.0
        assert snap(third - 1e-12, third + 1e-12) == third
        assert snap(2.5 - 1e-10, 2.5) == 2.5
        assert snap(-1e-12, 1e-12) == 0.0

    def test_no_rational_or_too_wide(self):
        # 1/(2·1000²) is the widest interval that can isolate one rational
        assert snap(0.1, 0.1 + 6e-7) is None
        # no p/q with q ≤ 1000 within 1e-12 of π
        assert snap(math.pi - 1e-12, math.pi + 1e-12) is None
        # an empty (crossed) interval proves nothing
        assert snap(1.0 + 1e-12, 1.0) is None

    def test_denominator_bound(self):
        assert snap(0.999 - 1e-12, 0.999 + 1e-12) == 0.999
        # 1000/1001 has no neighbour with q ≤ 1000 within 1e-12
        assert snap(1000 / 1001 - 1e-12, 1000 / 1001 + 1e-12) is None

    def test_no_duals_no_lower_bound(self):
        encoded = SMALL["triangle/node"](HIGHS)
        solution = encoded._compiled.solve_h(3.0)
        solution.row_dual = None
        certificate = encoded._certificate(solution, 0.0)
        assert certificate.lower(3.0) == -math.inf
        assert certificate.snapped(3.0) is None
        assert certificate.upper(3.0) >= encoded.solve_h(3)
