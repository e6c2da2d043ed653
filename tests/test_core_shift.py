"""Isolated rows are a τ-dependent index shift onto the core's G.

On a conjunctive relation of width ``w ≥ 2`` a row whose participants
occur in no other row is isolated.  ``G_i ≤ τ`` holds exactly when
``i ≤ cap(τ)``, the largest mass with every load at most ``τ/2``, and
``cap`` adds up over the relation's independent parts: 1 per idle
participant, ``(w − 1) + min(1, τ/2)`` per isolated row, and the core's
own ``cap``.  So the Δ search decides ``G_i ≤ τ`` on the core alone, at
``k = i − m − N·(w−1) − N·min(1, τ/2)``
(``EncodedRelation.core_index``).

Here random conjunctive relations with planted isolated rows and idle
participants hold that shifted predicate to a cold ``solve_g`` on the
whole program at every index, and hold ``(Δ, j*)`` to the general
constructor's over the same ``And``-of-``Var`` annotations, which finds
no isolated row.
"""

import numpy as np
import pytest

from repro.boolexpr.expr import And, Var
from repro.core import (
    EfficientRecursiveMechanism,
    RecursiveMechanismParams,
    SensitiveKRelation,
    efficient,
)
from repro.store import ConjunctiveKRelation

THRESHOLDS = [0.3, 0.9, 1.0, 1.45, 2.0, 2.7, 4.1, 6.5]
EPSILONS = [0.1, 0.25, 0.5, 1.0, 2.0, 4.0]
CASES = [(width, seed) for width in (2, 3, 4) for seed in range(5)]


def _random_relation(width, seed):
    """A core of rows over a small shared pool, planted isolated rows and
    idle participants, in shuffled row and participant order."""
    rng = np.random.default_rng(1000 * width + seed)
    pool = int(rng.integers(width + 1, 3 * width + 2))
    core = [
        rng.choice(pool, size=width, replace=False)
        for _ in range(int(rng.integers(0 if seed == 0 else 2, 9)))
    ]
    planted = int(rng.integers(1, 5)) if seed != 1 else 0
    isolated = [pool + width * r + np.arange(width) for r in range(planted)]
    rows = np.array(core + isolated, dtype=np.int64).reshape(-1, width)
    rows = rows[rng.permutation(len(rows))]
    # keep the participants some row names, in a shuffled order
    used = np.unique(rows)
    order = rng.permutation(used.size)
    index = np.empty(rows.max() + 1, dtype=np.int64)
    index[used] = order
    matrix = index[rows]
    names = [f"p{k:03d}" for k in range(used.size)]
    idle = [f"z{k}" for k in range(int(rng.integers(0, 4)))]
    pairs = [
        (f"t{r}", And([Var(names[k]) for k in row])) for r, row in enumerate(matrix)
    ]
    conjunctive = ConjunctiveKRelation(
        names,
        matrix,
        "node",
        [f"t{r}" for r in range(len(matrix))],
        names + idle,
        len(names) + len(idle),
    )
    general = SensitiveKRelation(names + idle, pairs)
    return conjunctive, general, planted


@pytest.mark.parametrize("width,seed", CASES)
def test_shifted_predicate_matches_cold_full_solves(width, seed):
    relation, _, planted = _random_relation(width, seed)
    mechanism = EfficientRecursiveMechanism(relation)
    encoded = mechanism._encoded
    cold = EfficientRecursiveMechanism(relation)._encoded
    matrix = relation.matrix
    counts = np.bincount(matrix.ravel())
    assert encoded.num_isolated == int((counts[matrix] == 1).all(axis=1).sum())
    assert encoded.num_isolated >= planted
    assert encoded.num_idle == relation.num_idle
    assert encoded.num_core_participants == (
        len(relation.sorted_participants) - width * encoded.num_isolated
    )
    n = encoded.num_participants
    for i in range(n + 1):
        exact = cold.solve_g(float(i))  # a cold solve on the whole program
        for threshold in THRESHOLDS:
            if abs(exact - threshold) < 1e-6:
                continue  # a tie: either answer is within the solver's noise
            decided = mechanism._g_predicate(i, threshold)
            assert decided == (exact <= threshold), (i, threshold, exact)
    mechanism._encoded.end_g_walk()
    # the walk ran on the core; no model of the whole program was built
    if encoded.num_isolated:
        assert encoded._compiled._g_model is None
    assert encoded._compiled._h_model is None
    assert encoded._compiled._x_model is None


@pytest.mark.parametrize("width,seed", CASES)
def test_delta_matches_the_general_constructor(width, seed):
    conjunctive, general, _ = _random_relation(width, seed)
    split = EfficientRecursiveMechanism(conjunctive)
    whole = EfficientRecursiveMechanism(general)
    assert whole._encoded.num_isolated == 0
    assert whole.bounding == split.bounding == "paper"
    for epsilon in EPSILONS:
        for node in (True, False):
            params = RecursiveMechanismParams.paper(epsilon, node_privacy=node)
            assert split.compute_delta(params) == whole.compute_delta(params)


def test_all_rows_isolated_needs_no_lp(monkeypatch):
    """With every row isolated the core is empty: each probe past the zero
    region is decided by the shift alone, and no model is built."""
    matrix = np.arange(12, dtype=np.int64).reshape(4, 3)
    names = [f"p{k:02d}" for k in range(12)]
    relation = ConjunctiveKRelation(names, matrix, "node", range(4), names + ["z"], 13)
    mechanism = EfficientRecursiveMechanism(relation)
    encoded = mechanism._encoded
    assert encoded.num_isolated == 4 and encoded.num_core_participants == 0
    routes = []
    monkeypatch.setattr(efficient, "_count_probe", routes.append)
    for epsilon in EPSILONS:
        mechanism.compute_delta(RecursiveMechanismParams.paper(epsilon))
    assert "lp" not in routes and "core_shift" in routes
    # cap(τ) = 1 + 4·(2 + min(1, τ/2)): G_i ≤ τ exactly when i ≤ cap(τ)
    for i in range(10, 14):
        for threshold in THRESHOLDS:
            cap = 1 + 4 * (2 + min(1.0, threshold / 2))
            assert mechanism._g_predicate(i, threshold) == (i <= cap)
    assert encoded._compiled._g_model is None
    assert encoded._core is None


def test_core_program_builds_only_its_g_overlay():
    """The core's program is compiled on the first core LP probe and
    never builds an H or X model, the epigraph CSC or a certificate's
    transposes; the whole program builds those with itself."""
    relation, _, planted = _random_relation(3, 2)
    assert planted
    mechanism = EfficientRecursiveMechanism(relation)
    encoded = mechanism._encoded
    assert encoded._core is None
    for epsilon in EPSILONS:
        mechanism.compute_delta(RecursiveMechanismParams.paper(epsilon))
    core = encoded._core
    assert core is not None and core is not encoded._compiled
    assert core.num_participants == encoded.num_core_participants
    assert core._g_model is None  # freed when each search ended
    assert core._h_model is None and core._x_model is None
    for lazy in ("_a_ub", "_a_ub_t", "_abs_a_ub_t"):
        assert lazy not in vars(core)
        assert lazy in vars(encoded._compiled)
