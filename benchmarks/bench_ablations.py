"""Ablation benches for the repository's main design choices.

1. **LP backend** — HiGHS vs the from-scratch simplex oracle
   (``tests/lp_oracle.py``) on identical small programs, both through the
   compiled arrays path (correctness is asserted, relative speed is
   reported).
2. **Annotation form** — raw CNF vs minimal-DNF-normalized annotations:
   normalization reduces the φ-sensitivity S and hence G and the error.
3. **μ bias** — node-privacy μ=1 vs edge-privacy μ=0.5: larger μ inflates
   Δ̂ (more noise) but cuts the probability of the Δ̂ < Δ failure mode.
4. **g-bounding slack** — the efficient mechanism's 2-bounding G vs the
   general mechanism's exact bounding sequence on a small instance.
"""

import importlib.util
import math
import statistics
from pathlib import Path

import numpy as np

from repro.core import (
    EfficientRecursiveMechanism,
    GeneralRecursiveMechanism,
    RecursiveMechanismParams,
)
from repro.experiments import format_table
from repro.graphs import Graph, random_graph_with_avg_degree
from repro.krand import random_cnf_krelation
from repro.lp import HIGHS
from repro.subgraphs import subgraph_krelation, triangle


def _simplex_oracle():
    """The dense simplex backend that lives with the test suite."""
    path = Path(__file__).resolve().parents[1] / "tests" / "lp_oracle.py"
    spec = importlib.util.spec_from_file_location("lp_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SimplexBackend()


def test_ablation_lp_backend(benchmark, scale, record_figure):
    g = random_graph_with_avg_degree(24, 6, rng=11)
    relation = subgraph_krelation(g, triangle(), privacy="edge")

    def solve_with(backend):
        mech = EfficientRecursiveMechanism(relation, backend=backend)
        return [mech.h_entry(i) for i in range(0, mech.num_participants + 1, 7)]

    highs_values = benchmark.pedantic(lambda: solve_with(HIGHS), rounds=1, iterations=1)
    simplex_values = solve_with(_simplex_oracle())
    rows = [
        {"index": i, "highs": a, "simplex": b}
        for i, (a, b) in enumerate(zip(highs_values, simplex_values))
    ]
    record_figure(
        "ablation_lp_backend",
        format_table(
            rows,
            ["index", "highs", "simplex"],
            title="Ablation — H entries: HiGHS vs from-scratch simplex",
        ),
    )
    for a, b in zip(highs_values, simplex_values):
        assert math.isclose(a, b, abs_tol=1e-6)


def test_ablation_annotation_form(benchmark, scale, record_figure):
    """CNF vs normalized minimal-DNF annotations of the same K-relation."""
    relation = random_cnf_krelation(60, clauses=3, rng=5)
    params = RecursiveMechanismParams.paper(0.5)

    def run(normalize):
        mech = EfficientRecursiveMechanism(
            relation, normalize=normalize, bounding="paper"
        )
        rng = np.random.default_rng(0)
        errors = [mech.run(params, rng).relative_error for _ in range(scale.trials)]
        g_final = mech.g_entry(mech.num_participants)
        return statistics.median(errors), g_final

    raw = benchmark.pedantic(lambda: run(False), rounds=1, iterations=1)
    normalized = run(True)
    record_figure(
        "ablation_annotation_form",
        format_table(
            [
                {"form": "raw CNF", "median_rel_error": raw[0], "G_final": raw[1]},
                {
                    "form": "minimal DNF",
                    "median_rel_error": normalized[0],
                    "G_final": normalized[1],
                },
            ],
            ["form", "median_rel_error", "G_final"],
            title="Ablation — annotation normal form (3-CNF K-relation)",
        ),
    )
    # DNF normalization can only shrink the bounding sequence
    assert normalized[1] <= raw[1] + 1e-6


def test_ablation_mu_bias(benchmark, scale, record_figure):
    g = random_graph_with_avg_degree(30, 8, rng=13)
    relation = subgraph_krelation(g, triangle(), privacy="edge")
    mech = EfficientRecursiveMechanism(relation)

    def failure_rate(mu):
        params = RecursiveMechanismParams(
            epsilon1=0.25, epsilon2=0.25, beta=0.1, mu=mu, g=2
        )
        delta, _ = mech.compute_delta(params)
        rng = np.random.default_rng(1)
        draws = [mech.noisy_delta(delta, params, rng) for _ in range(300)]
        below = sum(d < delta for d in draws) / len(draws)
        inflation = statistics.median(draws) / delta
        return below, inflation

    low = benchmark.pedantic(lambda: failure_rate(0.5), rounds=1, iterations=1)
    high = failure_rate(1.0)
    record_figure(
        "ablation_mu_bias",
        format_table(
            [
                {"mu": 0.5, "P[dhat<delta]": low[0], "median inflation": low[1]},
                {"mu": 1.0, "P[dhat<delta]": high[0], "median inflation": high[1]},
            ],
            ["mu", "P[dhat<delta]", "median inflation"],
            title="Ablation — mu bias: failure probability vs noise inflation",
        ),
    )
    assert high[0] <= low[0] + 0.02
    assert high[1] >= low[1]


def test_ablation_bounding_mode(benchmark, scale, record_figure):
    """Eq. 19 ("paper") vs the sound Ĝ = 2·S̄·H ("uniform") — the cost of
    repairing the Eq. 19 erratum on disjunctive K-relations (README
    "Deviations from the paper"), and the
    absence of any cost question on conjunctive ones (where "paper" is
    sound and much tighter)."""
    from repro.krand import random_dnf_krelation

    params = RecursiveMechanismParams.paper(0.5)

    def run(relation, bounding, node_privacy=False):
        mech = EfficientRecursiveMechanism(relation, bounding=bounding, s_bar=1.0)
        p = RecursiveMechanismParams.paper(0.5, node_privacy=node_privacy)
        delta, _ = mech.compute_delta(p)
        rng = np.random.default_rng(0)
        errors = [mech.run(p, rng).relative_error for _ in range(scale.trials)]
        return delta, statistics.median(errors)

    def compute():
        rows = []
        dnf = random_dnf_krelation(80, 3, rng=9)
        for bounding in ("paper", "uniform"):
            delta, error = run(dnf, bounding)
            rows.append(
                {
                    "relation": "3-DNF (disjunctive)",
                    "bounding": bounding,
                    "delta": delta,
                    "median_rel_error": error,
                    "sound": bounding == "uniform",
                }
            )
        g = random_graph_with_avg_degree(30, 8, rng=9)
        tri = subgraph_krelation(g, triangle(), privacy="node")
        for bounding in ("paper", "uniform"):
            delta, error = run(tri, bounding, node_privacy=True)
            rows.append(
                {
                    "relation": "triangles (conjunctive)",
                    "bounding": bounding,
                    "delta": delta,
                    "median_rel_error": error,
                    "sound": True,
                }
            )
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    record_figure(
        "ablation_bounding_mode",
        format_table(
            rows,
            ["relation", "bounding", "delta", "median_rel_error", "sound"],
            title="Ablation — Eq. 19 vs sound uniform bounding (erratum repair)",
        ),
    )
    by_key = {(r["relation"], r["bounding"]): r for r in rows}
    # on conjunctive relations the paper bounding is at least as tight
    assert (
        by_key[("triangles (conjunctive)", "paper")]["delta"]
        <= by_key[("triangles (conjunctive)", "uniform")]["delta"] + 1e-9
    )


def test_ablation_bounding_slack(benchmark, scale, record_figure):
    """Efficient 2-bounding G vs the general mechanism's exact G."""
    g = Graph(edges=[(0, 1), (1, 2), (0, 2), (2, 3), (1, 3), (3, 4), (2, 4)])
    relation = subgraph_krelation(g, triangle(), privacy="node")

    def compute():
        eff = EfficientRecursiveMechanism(relation)
        gen = GeneralRecursiveMechanism(
            relation.as_sensitive_database(), lambda world: float(len(world))
        )
        n = eff.num_participants
        return [
            {"i": i, "G_efficient": eff.g_entry(i), "G_exact": gen.g_entry(i)}
            for i in range(n + 1)
        ]

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    record_figure(
        "ablation_bounding_slack",
        format_table(
            rows,
            ["i", "G_efficient", "G_exact"],
            title="Ablation — 2-bounding G (LP) vs exact bounding G",
        ),
    )
    # the efficient G is within factor 2 of something >= the exact G at the top
    top = rows[-1]
    assert top["G_efficient"] <= 2 * top["G_exact"] + 1e-9
