"""Property test: the compiled-LP solves equal a from-scratch reference.

For random small annotated relations, ``solve_h`` / ``solve_g`` /
``solve_g_uniform`` / ``solve_x_relaxation`` through the one-time-compiled
CSR arrays must match the legacy formulation — each program rebuilt from
the relation's frozen triplets and solved by the dense simplex oracle
(``tests/lp_oracle.py``) — within 1e-6.  The full mechanism (Δ and X, in
both ``"paper"`` and ``"uniform"`` bounding modes) must agree on its
deterministic intermediates when the oracle itself is the backend.  Both
tests run on the persistent HiGHS models and on the one-shot linprog
oracle (the ``lp_backend`` fixture), so the live models' warm starts are
held to the same equivalence contract as cold solves.
"""

import random

import numpy as np
import pytest
from lp_oracle import (
    LinprogBackend,
    SimplexBackend,
    g_row_entries,
    reference_g,
    reference_h,
    reference_x,
    stacked_g_overlay,
)
from scipy import sparse
from test_delta_walk import COMBOS

from repro import VersionedGraph
from repro.boolexpr import parse
from repro.boolexpr.expr import And, Or, Var
from repro.core import (
    EfficientRecursiveMechanism,
    RecursiveMechanismParams,
    SensitiveKRelation,
)
from repro.graphs import random_graph_with_avg_degree
from repro.lp import highs_engine
from repro.relax.encode import EncodedRelation
from repro.store import ConjunctiveKRelation
from repro.subgraphs import k_star, subgraph_krelation, triangle


def random_expression(rng: random.Random, names, depth: int):
    """A random positive expression (Var/And/Or) over ``names``."""
    if depth == 0 or rng.random() < 0.3:
        return Var(rng.choice(names))
    arity = rng.randint(2, 3)
    children = [random_expression(rng, names, depth - 1) for _ in range(arity)]
    node = And(children) if rng.random() < 0.5 else Or(children)
    if not isinstance(node, (And, Or)):  # folded to a leaf — retry shallower
        return random_expression(rng, names, 0)
    return node


def random_relation(seed: int):
    rng = random.Random(seed)
    names = [f"p{i}" for i in range(rng.randint(3, 6))]
    annotated = [
        (random_expression(rng, names, rng.randint(1, 3)), rng.uniform(0.5, 3.0))
        for _ in range(rng.randint(1, 5))
    ]
    return names, annotated


@pytest.mark.parametrize("seed", range(12))
def test_compiled_matches_legacy_solves(seed, lp_backend):
    names, annotated = random_relation(seed)
    compiled = EncodedRelation(names, annotated, lp_backend)

    indices = list(range(len(names) + 1)) + [0.5, len(names) - 0.5]
    h_legacy = {i: reference_h(compiled, i) for i in indices}
    g_legacy = {i: reference_g(compiled, i) for i in indices}
    for i in indices:
        assert compiled.solve_h(i) == pytest.approx(h_legacy[i], abs=1e-6)
        assert compiled.solve_g(i) == pytest.approx(g_legacy[i], abs=1e-6)
        assert compiled.solve_g_uniform(i) == pytest.approx(
            2.0 * compiled.max_phi_sensitivity * h_legacy[i], abs=1e-6
        )
    assert compiled.solve_h_many(indices) == pytest.approx(
        [h_legacy[i] for i in indices], abs=1e-6
    )
    for i in range(len(names) + 1):
        g_exact = g_legacy[i]
        for threshold in (0.0, g_exact - 0.1, g_exact + 0.1, g_exact * 2 + 1.0):
            if threshold < 0:
                continue
            assert compiled.g_decide(i, threshold)[0] == (g_exact <= threshold + 1e-9)
    for delta in (0.0, 0.05, 0.5, 2.0):
        value_c, index_c = compiled.solve_x_relaxation(delta)
        value_l, index_l = reference_x(compiled, delta)
        assert value_c == pytest.approx(value_l, abs=1e-6)
        # the optimal mass i' need not be unique (flat stretches of H),
        # but both must be feasible masses
        assert 0.0 <= index_c <= len(names)
        assert -1e-9 <= index_l <= len(names) + 1e-9


@pytest.mark.parametrize("seed", range(4))
def test_reference_programs_agree_across_solvers(seed):
    """The reference rebuilds solve alike under the simplex and linprog,
    so an equivalence failure points at the compiled path, not the oracle."""
    names, annotated = random_relation(200 + seed)
    scipy = LinprogBackend()
    encoded = EncodedRelation(names, annotated, scipy)
    for i in (0, 0.5, 1, len(names) - 0.5, len(names)):
        assert reference_h(encoded, i) == pytest.approx(
            reference_h(encoded, i, backend=scipy), abs=1e-6
        )
        assert reference_g(encoded, i) == pytest.approx(
            reference_g(encoded, i, backend=scipy), abs=1e-6
        )
    for delta in (0.05, 2.0):
        assert reference_x(encoded, delta)[0] == pytest.approx(
            reference_x(encoded, delta, backend=scipy)[0], abs=1e-6
        )


def test_h_entries_preserves_fractional_indices():
    """Batched cached access must not truncate fractional H indices."""
    names, annotated = random_relation(3)
    relation = SensitiveKRelation(
        names, [(f"t{k}", expr) for k, (expr, _) in enumerate(annotated)]
    )
    mechanism = EfficientRecursiveMechanism(relation)
    i = len(names) - 0.5
    assert mechanism.h_entries([i])[0] == pytest.approx(
        mechanism._encoded.solve_h(i), abs=1e-9
    )
    # integral floats share the cache slot with int callers
    mechanism.h_entries([2.0])
    assert 2 in mechanism._h_cache


@pytest.mark.parametrize("bounding", ["paper", "uniform"])
@pytest.mark.parametrize("seed", range(6))
def test_mechanism_intermediates_agree_across_paths(seed, bounding, lp_backend):
    names, annotated = random_relation(100 + seed)
    relation = SensitiveKRelation(
        names, [(f"t{k}", expr) for k, (expr, _) in enumerate(annotated)]
    )
    fast = EfficientRecursiveMechanism(relation, bounding=bounding, backend=lp_backend)
    slow = EfficientRecursiveMechanism(
        relation, bounding=bounding, backend=SimplexBackend()
    )

    params = RecursiveMechanismParams.paper(1.0)
    delta_fast, j_fast = fast.compute_delta(params)
    delta_slow, j_slow = slow.compute_delta(params)
    assert delta_fast == pytest.approx(delta_slow, abs=1e-6)
    assert j_fast == j_slow
    for delta_hat in (0.1, 1.0):
        x_fast = fast._compute_x(delta_hat)
        x_slow = slow._compute_x(delta_hat)
        # X itself is unique (a minimum); its argmin may not be
        assert x_fast[0] == pytest.approx(x_slow[0], abs=1e-6)


def _overlay_relations():
    """``(id, relation)``: the walk combos at two sizes, random
    expression relations, one with idle participants, one with no G rows."""
    for name, pattern, privacy, nodes in COMBOS:
        for size in (nodes, 3 * nodes):
            graph = random_graph_with_avg_degree(size, 5, rng=size)
            yield f"{name}@{size}", subgraph_krelation(graph, pattern(), privacy)
    for seed in range(6):
        names, annotated = random_relation(300 + seed)
        yield f"random{seed}", SensitiveKRelation(
            names, [(f"t{k}", expr) for k, (expr, _) in enumerate(annotated)]
        )
    yield "idle", SensitiveKRelation(
        list("abcdefg"),
        [("t1", parse("a & b")), ("t2", parse("b & c")), ("t3", parse("a"))],
    )
    yield "no-g-rows", SensitiveKRelation(["a", "b", "c"], [])


@pytest.mark.parametrize(
    "relation",
    [r for _, r in _overlay_relations()],
    ids=[name for name, _ in _overlay_relations()],
)
def test_g_overlay_equals_the_stacked_block_assembly(relation):
    """The one-pass COO assembly of the G overlay hands the backend the
    same CSC arrays, bounds and costs as the block-by-block construction."""
    program = EfficientRecursiveMechanism(relation)._encoded._compiled
    built = program._build_g_overlay()
    oracle = stacked_g_overlay(program)
    assert set(built) == set(oracle)
    matrix, expected = built["matrix"].tocsc(), oracle["matrix"].tocsc()
    assert matrix.shape == expected.shape
    for part in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(
            getattr(matrix, part), getattr(expected, part), err_msg=part
        )
    for key in ("col_costs", "col_lower", "col_upper", "row_lower", "row_upper"):
        np.testing.assert_array_equal(built[key], oracle[key], err_msg=key)


def _model_relations():
    """``(id, encoded relation)``: conjunctive ones of width 1, with idle
    participants and from the store, and a general one with ``Or``
    nodes, repeated children, weights other than 1 and idle names."""
    graph = random_graph_with_avg_degree(14, 4, rng=14)
    graph.add_node("isolated")
    conjunctive = {
        "1-star/edge": subgraph_krelation(graph, k_star(1), "edge"),
        "triangle/node+idle": subgraph_krelation(graph, triangle(), "node"),
        "2-star/edge": subgraph_krelation(graph, k_star(2), "edge"),
    }
    store = VersionedGraph(graph.copy())
    store.maintainer.register(triangle())
    store.add_node("also-isolated")
    conjunctive["store-triangle/edge"] = store.relation_for(triangle(), "edge")
    for name, relation in conjunctive.items():
        assert isinstance(relation, ConjunctiveKRelation), name
        yield name, EfficientRecursiveMechanism(relation)._encoded
    a, b, c = Var("a"), Var("b"), Var("c")
    yield "general", EncodedRelation(
        list("abcde"),
        [(And([a, a, b]), 2.5), (Or([And([a, b]), c, c]), 0.5), (b, 1.25)],
    )


def _highs_arrays(model) -> dict:
    """What the HiGHS instance behind a model holds (``getLp``)."""
    lp = model._solver.getLp()
    matrix = lp.a_matrix_
    assert matrix.format_ == highs_engine._core.MatrixFormat.kColwise
    assert (matrix.num_row_, matrix.num_col_) == (lp.num_row_, lp.num_col_)
    return {
        "shape": (lp.num_row_, lp.num_col_),
        "indptr": np.asarray(matrix.start_),
        "indices": np.asarray(matrix.index_),
        "data": np.asarray(matrix.value_),
        "col_costs": np.asarray(lp.col_cost_),
        "col_lower": np.asarray(lp.col_lower_),
        "col_upper": np.asarray(lp.col_upper_),
        "row_lower": np.asarray(lp.row_lower_),
        "row_upper": np.asarray(lp.row_upper_),
    }


def _reference_arrays(dense, costs, col_upper, row_lower, row_upper) -> dict:
    """A model's arrays from its dense matrix: the canonical CSC (rows
    ascending in each column), unit-cube lower bounds of 0."""
    matrix = sparse.csc_matrix(dense)
    return {
        "shape": dense.shape,
        "indptr": matrix.indptr,
        "indices": matrix.indices,
        "data": matrix.data,
        "col_costs": costs,
        "col_lower": np.zeros(dense.shape[1]),
        "col_upper": col_upper,
        "row_lower": row_lower,
        "row_upper": row_upper,
    }


@pytest.mark.parametrize(
    "encoded",
    [e for _, e in _model_relations()],
    ids=[name for name, _ in _model_relations()],
)
def test_highs_models_equal_the_encoded_triplets(encoded):
    """The H, G and X models loaded into HiGHS hold exactly the program
    the encoded relation's triplets and G rows describe."""
    program = encoded._compiled
    n, p = encoded.num_lp_variables, len(encoded.participants)
    rows = len(encoded._ub_rhs)
    base = np.zeros((rows, n))
    np.add.at(base, (encoded._ub_rows, encoded._ub_cols), encoded._ub_vals)
    costs = np.zeros(n)
    np.add.at(costs, encoded._root_vars, encoded._root_weights)
    mass = np.zeros((1, n))
    mass[0, :p] = 1.0
    lower = np.full(rows, -np.inf)
    upper = np.asarray(encoded._ub_rhs, dtype=float)

    expected = {
        "h": _reference_arrays(
            np.vstack([base, mass]),
            costs,
            np.ones(n),
            np.append(lower, 0.0),
            np.append(upper, 0.0),
        )
    }
    entries = g_row_entries(*encoded._g_rows)
    g_block = np.zeros((len(entries), n + 1))
    for row, row_entries in enumerate(entries):
        g_block[row, n] = -1.0
        for column, value in row_entries:
            g_block[row, column] += value
    g_costs = np.zeros(n + 1)
    g_costs[n] = 1.0
    padded = np.hstack([base, np.zeros((rows, 1))])
    expected["g"] = _reference_arrays(
        np.vstack([padded, g_block, np.append(mass, 0.0)]),
        g_costs,
        np.append(np.ones(n), np.inf),
        np.concatenate([lower, np.full(len(entries), -np.inf), [0.0]]),
        np.concatenate([upper, np.zeros(len(entries)), [0.0]]),
    )
    delta_hat = 0.75
    x_costs = costs.copy()
    x_costs[:p] -= delta_hat
    expected["x"] = _reference_arrays(base, x_costs, np.ones(n), lower, upper)

    encoded.solve_x_relaxation(delta_hat)
    encoded.end_x_step()
    models = {
        "h": program._ensure_h_model(),
        "g": program._ensure_g_model(),
        "x": program._x_model,
    }
    for overlay, model in models.items():
        assert isinstance(model, highs_engine.PersistentLP)
        built = _highs_arrays(model)
        assert built["shape"] == expected[overlay]["shape"], overlay
        for key, value in expected[overlay].items():
            np.testing.assert_array_equal(built[key], value, err_msg=f"{overlay} {key}")
