"""The X step decided from earlier releases' argmins (Eq. 12).

``RecursiveMechanismBase.x_step`` answers a release with no LP when the
argmins of earlier releases at ``Δ̂_a ≤ Δ̂ ≤ Δ̂_b`` agree.  Pinned here:

* every ``x_step`` result bit-equals a fresh mechanism's ``_compute_x``
  at the same ``Δ̂``, for ascending, descending and shuffled streams with
  exact repeats, on triangle/node, 2-star/edge, 2-triangle/node, a
  disjunctive relation under ``bounding="uniform"`` and the general
  mechanism, on HiGHS and on the one-shot linprog oracle;
* the one-sided ends (``k = 0`` and ``k = |P|``), the bound of
  ``2(|P|+1)`` kept decisions, and the ``repro_x_step_total{how}`` routes;
* the closed-form top on conjunctive relations: ``H_{|P|} − H_{|P|−1}``
  is the largest load bit for bit, every ``Δ̂`` above it returns
  ``(q(supp R), |P|)`` with no LP and no bracket, and no other relation
  or ``Δ̂`` takes that route;
* an LP error on the fallback route records nothing;
* released answers do not depend on the route: trials seeded by spawned
  sequences are byte-identical for one and two workers, and a warm
  session's answers equal cold one-release sessions at the same seeds.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from repro.boolexpr import And, Var, parse
from repro.core import (
    EfficientRecursiveMechanism,
    GeneralRecursiveMechanism,
    RecursiveMechanismParams,
    SensitiveKRelation,
)
from repro.errors import LPError
from repro.graphs import random_graph_with_avg_degree
from repro.obs import metrics
from repro.parallel import map_tasks
from repro.rng import spawn_seed_sequences
from repro.session import PrivateSession
from repro.store import ConjunctiveKRelation
from repro.subgraphs import k_star, k_triangle, subgraph_krelation, triangle

#: Δ̂ values spanning the slopes of H on the relations below
GRID = [0.02 * 1.7 ** t for t in range(16)]


def _graph():
    return random_graph_with_avg_degree(12, 5, rng=3)


def _disjunctive_relation():
    return SensitiveKRelation(
        ["a", "b", "c", "d", "e"],
        [
            ("t1", parse("a | b")),
            ("t2", parse("(b & c) | d")),
            ("t3", parse("c & e")),
            ("t4", parse("a & (d | e)")),
        ],
    )


def _efficient(relation, backend, **options):
    return lambda: EfficientRecursiveMechanism(relation, backend=backend, **options)


def _general():
    database = _disjunctive_relation().as_sensitive_database()
    return GeneralRecursiveMechanism(database, lambda world: float(len(world)))


FACTORIES = {
    "triangle/node": lambda b: _efficient(
        subgraph_krelation(_graph(), triangle(), "node"), b
    ),
    "2-star/edge": lambda b: _efficient(
        subgraph_krelation(_graph(), k_star(2), "edge"), b
    ),
    "2-triangle/node": lambda b: _efficient(
        subgraph_krelation(_graph(), k_triangle(2), "node"), b
    ),
    "disjunctive/uniform": lambda b: _efficient(
        _disjunctive_relation(), b, bounding="uniform"
    ),
    "general": lambda b: _general,
}


def _streams():
    repeats = GRID + GRID[3:9:2]
    shuffled = list(repeats)
    random.Random(7).shuffle(shuffled)
    return {
        "ascending": sorted(repeats),
        "descending": sorted(repeats, reverse=True),
        "shuffled": shuffled,
    }


def _routes():
    return {
        how: metrics().counter("repro_x_step_total", how=how).value
        for how in ("top", "bracket", "solve")
    }


@pytest.mark.parametrize("stream", sorted(_streams()))
@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_x_step_bit_equals_a_fresh_compute_x(name, stream, lp_backend):
    factory = FACTORIES[name](lp_backend)
    warm = factory()
    n = warm.num_participants
    before = _routes()
    for delta_hat in _streams()[stream]:
        assert warm.x_step(delta_hat) == factory()._compute_x(delta_hat)
        # at most two decisions per index, kept sorted and monotone
        assert len(warm._x_brackets) <= 2 * (n + 1)
        assert warm._x_brackets == sorted(warm._x_brackets)
        indices = [k for _, k in warm._x_brackets]
        assert indices == sorted(indices)
    after = _routes()
    decided = sum(after[how] - before[how] for how in after)
    assert decided == len(_streams()[stream])
    # exact repeats at least never solve again
    assert after["bracket"] - before["bracket"] >= len(GRID[3:9:2])


def _unit_relation(n=4):
    """``H_i = i``: the argmin is ``0`` below ``Δ̂ = 1`` and ``|P|`` above."""
    names = [f"p{i}" for i in range(n)]
    return SensitiveKRelation(names, [(f"t{i}", Var(p)) for i, p in enumerate(names)])


class TestBrackets:
    def test_one_sided_ends_decide_without_a_solve(self):
        mechanism = EfficientRecursiveMechanism(_unit_relation())
        n = mechanism.num_participants
        assert mechanism.x_step(0.5) == (n * 0.5, 0.0)
        assert mechanism.x_step(2.0) == (float(n), float(n))
        before = _routes()
        # below the k = 0 decision and above the k = |P| one
        assert mechanism.x_step(0.25) == (n * 0.25, 0.0)
        assert mechanism.x_step(9.0) == (float(n), float(n))
        after = _routes()
        assert after["bracket"] - before["bracket"] == 2
        assert after["solve"] == before["solve"]
        assert mechanism._x_brackets == [(0.5, 0), (2.0, n)]

    def test_interior_of_a_run_is_dropped(self):
        mechanism = EfficientRecursiveMechanism(_unit_relation())
        n = mechanism.num_participants
        for delta_hat in (0.1, 0.9, 0.5):
            mechanism.x_step(delta_hat)
        # 0.5 lies inside [0.1, 0.9], both k = 0: decided, not recorded
        assert mechanism._x_brackets == [(0.1, 0), (0.9, 0)]
        mechanism.x_step(3.0)
        before = _routes()
        mechanism.x_step(0.95)
        # 0.95 solved (0 | n bracket), extends the k = 0 run: 0.9 goes
        assert _routes()["solve"] - before["solve"] == 1
        assert mechanism._x_brackets == [(0.1, 0), (0.95, 0), (3.0, n)]

    def test_lp_error_records_nothing(self, monkeypatch):
        mechanism = EfficientRecursiveMechanism(_unit_relation())
        mechanism.x_step(0.5)
        recorded = list(mechanism._x_brackets)

        def failing(delta_hat):
            raise LPError("injected X-relaxation failure")

        monkeypatch.setattr(mechanism._encoded, "solve_x_relaxation", failing)
        with pytest.raises(LPError, match="injected"):
            mechanism.x_step(2.0)
        assert mechanism._x_brackets == recorded
        # a bracketed Δ̂ still needs no LP
        assert mechanism.x_step(0.25) == (1.0, 0.0)

    def test_index_outside_the_bracket_is_not_recorded(self, monkeypatch):
        mechanism = EfficientRecursiveMechanism(_unit_relation())
        solved = iter([(7.0, 2.0), (9.0, 3.0)])
        monkeypatch.setattr(mechanism, "_compute_x", lambda delta_hat: next(solved))
        assert mechanism.x_step(1.0) == (7.0, 2.0)
        # below Δ̂ = 1 the argmin is at most 2: an index of 3 is released
        # as solved but never kept as a bracket
        assert mechanism.x_step(0.5) == (9.0, 3.0)
        assert mechanism._x_brackets == [(1.0, 2)]

    def test_run_routes_through_x_step(self):
        relation = subgraph_krelation(_graph(), triangle(), "node")
        mechanism = EfficientRecursiveMechanism(relation)
        params = RecursiveMechanismParams.paper(1.0, node_privacy=True)
        rng = np.random.default_rng(4)
        results = [mechanism.run(params, rng) for _ in range(30)]
        fresh = EfficientRecursiveMechanism(relation)
        for result in results:
            assert (result.x_value, result.x_index) == fresh._compute_x(
                result.delta_hat
            )
        assert 0 < len(mechanism._x_brackets) < 30


def _conjunctive_relation(width, seed):
    """A random conjunctive relation of ``width`` (1–4) with idle
    participants, as the index-form relation and the same ``And``-of-``Var``
    annotations for the general constructor."""
    rng = np.random.default_rng(100 * width + seed)
    pool = int(rng.integers(width, 3 * width + 4))
    rows = np.array(
        [
            rng.choice(pool, size=width, replace=False)
            for _ in range(int(rng.integers(1, 12)))
        ],
        dtype=np.int64,
    )
    used = np.unique(rows)
    index = np.empty(pool, dtype=np.int64)
    index[used] = rng.permutation(used.size)
    matrix = index[rows]
    names = [f"p{k:02d}" for k in range(used.size)]
    idle = [f"z{k}" for k in range(int(rng.integers(0, 4)))]
    conjunctive = ConjunctiveKRelation(
        names,
        matrix,
        "node",
        [f"t{r}" for r in range(len(matrix))],
        names + idle,
        len(names) + len(idle),
    )
    general = SensitiveKRelation(
        names + idle,
        [
            (f"t{r}", And([Var(names[k]) for k in row]))
            for r, row in enumerate(matrix)
        ],
    )
    return conjunctive, general


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_top_chord_decides_x_above_the_largest_load(width):
    """``H_{|P|} − H_{|P|−1}`` is the largest load ``d``, bit for bit, so
    every ``Δ̂ > d`` has argmin ``|P|`` and ``X = q(supp R)`` (50 random
    relations per width)."""
    for seed in range(50):
        conjunctive, general = _conjunctive_relation(width, seed)
        warm = EfficientRecursiveMechanism(conjunctive)
        encoded = warm._encoded
        n = warm.num_participants
        total = encoded.true_answer()
        d = float(np.bincount(conjunctive.matrix.ravel()).max())
        assert warm._h_top_chord() == d
        below = encoded.solve_h(n - 1)
        assert below == total - d, seed
        # a decision below the top records a bracket; the top adds none
        warm.x_step(d / 2)
        recorded = list(warm._x_brackets)
        for delta_hat in (d * (1 + 1e-6), d + 0.5, 3 * d):
            before = _routes()
            assert warm.x_step(delta_hat) == (total, float(n)), seed
            fresh = EfficientRecursiveMechanism(conjunctive)._compute_x(delta_hat)
            assert fresh == (total, float(n)), (seed, delta_hat)
            after = _routes()
            assert after["top"] - before["top"] == 1
            assert after["bracket"] == before["bracket"]
            assert after["solve"] == before["solve"]
            assert warm._x_brackets == recorded
        # one ulp above d: F(|P|−1) − F(|P|) = Δ̂ − d > 0 exactly, and H is
        # convex, so |P| is the exact argmin of every F(i)
        delta_hat = math.nextafter(d, math.inf)
        assert warm.x_step(delta_hat) == (total, float(n))
        exact = Fraction(delta_hat)
        values = [
            Fraction(h) + (n - i) * exact
            for i, h in enumerate(warm.h_entries(range(n + 1)))
        ]
        assert values[n] < values[n - 1] and values[n] == min(values), seed
        # at or below d, and on the general constructor, never the top
        whole = EfficientRecursiveMechanism(general)
        assert whole._h_top_chord() is None
        before = _routes()
        for delta_hat in (d, math.nextafter(d, 0.0), d / 3):
            warm.x_step(delta_hat)
        for delta_hat in (d + 0.5, 3 * d):
            assert whole.x_step(delta_hat) == (total, float(n))
        after = _routes()
        assert after["top"] == before["top"]
        decided = sum(after[how] - before[how] for how in after)
        assert decided == 5


def test_general_mechanism_never_takes_the_top():
    mechanism = _general()
    assert mechanism._h_top_chord() is None
    before = _routes()
    mechanism.x_step(1e6)
    assert _routes()["top"] == before["top"]


def _released_answer(mechanism, task):
    params, seed_sequence = task
    return mechanism.run(params, np.random.default_rng(seed_sequence)).answer


def test_sample_answers_identical_for_one_and_two_workers():
    relation = subgraph_krelation(_graph(), k_star(2), "edge")
    params = RecursiveMechanismParams.paper(1.0)
    tasks = [(params, seed) for seed in spawn_seed_sequences(9, 24)]
    answers = [
        map_tasks(
            _released_answer,
            tasks,
            payload=EfficientRecursiveMechanism(relation),
            workers=workers,
        )
        for workers in (1, 2)
    ]
    assert answers[0] == answers[1]


def test_warm_session_answers_equal_cold_sessions():
    graph = _graph()
    specs = [
        (triangle(), "node", seed) for seed in range(10)
    ] + [(k_star(2), "edge", seed) for seed in range(10, 18)]
    warm = PrivateSession(graph, rng=3)
    released = [
        warm.query(pattern, privacy=privacy, epsilon=0.5, rng=seed).answer
        for pattern, privacy, seed in specs
    ]
    assert warm.verify_ledger()
    # the same releases, each the first on its own cold session
    cold = [
        PrivateSession(graph).query(
            pattern, privacy=privacy, epsilon=0.5, rng=seed
        ).answer
        for pattern, privacy, seed in specs
    ]
    assert released == cold
    # and a fresh session taking them in reverse order replays them all
    fresh = PrivateSession(graph, rng=3)
    reversed_answers = [
        fresh.query(pattern, privacy=privacy, epsilon=0.5, rng=seed).answer
        for pattern, privacy, seed in reversed(specs)
    ]
    assert reversed_answers == released[::-1]
    assert all(record.matches for record in fresh.replay())
