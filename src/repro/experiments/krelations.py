"""Fig. 8 / Fig. 9: the mechanism on random 3-DNF / 3-CNF K-relations.

Fig. 8 sweeps the number of clauses per annotation (1..10) at fixed
``|supp(R)| = 1000``; Fig. 9 sweeps ``|supp(R)|`` (up to 1000) at fixed
3 clauses.  Each point reports the mechanism's median relative error, the
reference quantity ``~US_q / (ε · q(P,R))`` (the paper's dotted curve —
the relative error an absolute error of exactly ``~US/ε`` would give) and
the running time.  ``q(t) = 1`` and ``|P| = |supp(R)|`` as in Sec. 6.2.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from ..core.efficient import EfficientRecursiveMechanism
from ..core.params import RecursiveMechanismParams
from ..core.queries import CountQuery
from ..core.sensitivity import universal_empirical_sensitivity
from ..krand.generators import random_cnf_krelation, random_dnf_krelation
from ..rng import RngLike, ensure_rng
from .harness import Scale, resolve_scale, run_mechanism_trials

__all__ = ["krelation_point", "fig8_clause_sweep", "fig9_size_sweep"]

PAPER_CLAUSE_SWEEP = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
PAPER_SIZE_SWEEP = (100, 200, 400, 600, 800, 1000)
PAPER_RELATION_SIZE = 1000
PAPER_CLAUSES = 3


def krelation_point(
    kind: str,
    size: int,
    clauses: int,
    epsilon: float,
    trials: int,
    rng: RngLike = 0,
) -> Dict[str, float]:
    """Run the mechanism on one random K-relation; return all Fig. 8/9 stats."""
    generator = ensure_rng(rng)
    if kind == "dnf":
        relation = random_dnf_krelation(size, clauses, rng=generator)
    elif kind == "cnf":
        relation = random_cnf_krelation(size, clauses, rng=generator)
    else:
        raise ValueError(f"kind must be 'dnf' or 'cnf', got {kind!r}")

    params = RecursiveMechanismParams.paper(epsilon)
    start = time.perf_counter()
    # bounding="paper" reproduces the paper's Eq. 19 exactly (Fig. 8/9 used
    # it); see README "Deviations from the paper" for the privacy erratum
    # on disjunctive annotations and the sound "uniform" alternative.
    mechanism = EfficientRecursiveMechanism(relation, bounding="paper")
    truth = mechanism.true_answer()
    error = run_mechanism_trials(
        lambda trial_rng: mechanism.run(params, trial_rng).answer,
        truth,
        trials,
        generator,
    )
    seconds = time.perf_counter() - start

    us = universal_empirical_sensitivity(CountQuery(), relation)
    reference = us / (epsilon * truth) if truth else float("inf")
    return {
        "size": float(size),
        "clauses": float(clauses),
        "true_answer": truth,
        "median_relative_error": error,
        "us_reference": reference,
        "universal_sensitivity": us,
        "seconds": seconds,
    }


def fig8_clause_sweep(
    kinds: Sequence[str] = ("dnf", "cnf"),
    clause_counts: Sequence[int] = PAPER_CLAUSE_SWEEP,
    epsilon: float = 0.5,
    scale: Optional[Scale] = None,
    rng: RngLike = 0,
) -> Dict[str, List[Dict[str, float]]]:
    """Fig. 8: error/time vs clauses per expression at fixed |supp(R)|."""
    scale = scale or resolve_scale()
    size = max(20, int(round(PAPER_RELATION_SIZE * scale.krelation_factor)))
    generator = ensure_rng(rng)
    return {
        kind: [
            krelation_point(kind, size, c, epsilon, scale.trials, generator)
            for c in scale.subset(clause_counts)
        ]
        for kind in kinds
    }


def fig9_size_sweep(
    kinds: Sequence[str] = ("dnf", "cnf"),
    sizes: Sequence[int] = PAPER_SIZE_SWEEP,
    epsilon: float = 0.5,
    scale: Optional[Scale] = None,
    rng: RngLike = 0,
) -> Dict[str, List[Dict[str, float]]]:
    """Fig. 9: error/time vs |supp(R)| at 3 clauses per expression."""
    scale = scale or resolve_scale()
    generator = ensure_rng(rng)
    scaled_sizes = [max(20, int(round(s * scale.krelation_factor))) for s in sizes]
    return {
        kind: [
            krelation_point(kind, s, PAPER_CLAUSES, epsilon, scale.trials, generator)
            for s in scale.subset(scaled_sizes)
        ]
        for kind in kinds
    }
