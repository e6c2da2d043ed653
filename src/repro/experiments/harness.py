"""Trial running, accuracy aggregation and scale presets.

Every experiment entry point seeds its noisy work one way: each task (a
trial repetition or a sweep grid point) gets its own
:class:`numpy.random.SeedSequence`, spawned up front in task order
(:func:`repro.rng.spawn_seed_sequences`), and the tasks run through
:func:`repro.parallel.map_tasks`.  So a result depends on the base seed
and task order only: ``workers=1`` (the default, in-process) and
``workers=k`` (a pool forked after the payload is built) release
byte-identical answers.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ..parallel.pool import map_tasks
from ..rng import RngLike, spawn_seed_sequences

__all__ = [
    "median_relative_error",
    "aggregate_median",
    "run_mechanism_trials",
    "Scale",
    "resolve_scale",
]


def median_relative_error(answers: Sequence[float], true_answer: float) -> float:
    """The paper's accuracy metric (Sec. 6).

    Median over trials of ``|answer - truth| / truth``.  A zero truth with
    any nonzero answer yields ``inf`` (and 0 if all answers are 0) —
    configurations with zero true count are reported as such rather than
    silently skipped.
    """
    if not answers:
        raise ValueError("no answers to aggregate")
    if true_answer == 0:
        errors = [0.0 if a == 0 else float("inf") for a in answers]
    else:
        errors = [abs(a - true_answer) / abs(true_answer) for a in answers]
    return float(statistics.median(errors))


def aggregate_median(values: Sequence[float]) -> float:
    """Median across per-graph results (used when several graphs per point)."""
    if not values:
        raise ValueError("no values to aggregate")
    return float(statistics.median(values))


def run_mechanism_trials(
    run_once: Callable[[object], float],
    true_answer: float,
    trials: int,
    rng: RngLike = None,
    workers: Optional[int] = 1,
) -> float:
    """Run ``run_once(generator) -> answer`` ``trials`` times; median rel. error.

    Each repetition draws from its own spawned seed sequence, so the
    result is the same for every ``workers``; ``None`` resolves
    ``$REPRO_WORKERS``, else the CPU count.  Pass the *prebuilt*
    ``run_once`` closure (mechanism already compiled): a pool forks after
    it exists, so workers inherit the compiled LP structure copy-on-write.
    """
    seeds = spawn_seed_sequences(rng, trials)
    answers = map_tasks(_trial_task, seeds, payload=run_once, workers=workers)
    return median_relative_error(answers, true_answer)


def _trial_task(run_once: Callable[[object], float], seed_sequence) -> float:
    """One repetition of :func:`run_mechanism_trials`."""
    return float(run_once(np.random.default_rng(seed_sequence)))


@dataclass(frozen=True)
class Scale:
    """A benchmark scale preset.

    ``graph_nodes_factor`` multiplies the paper's |V| sweeps; ``trials`` is
    the number of noise draws per configuration; ``graphs_per_point`` the
    number of random graphs aggregated per sweep point;
    ``krelation_factor`` scales |supp(R)| for Fig. 8/9;
    ``dataset_scale`` shrinks the Fig. 6/7 dataset stand-ins;
    ``sweep_points`` caps how many x-axis points of each paper sweep are
    evaluated (evenly spaced, endpoints always included).
    """

    name: str
    graph_nodes_factor: float
    trials: int
    graphs_per_point: int
    krelation_factor: float
    dataset_scale: float
    sweep_points: int

    def subset(self, values: Sequence) -> list:
        """Evenly spaced subset of a paper sweep, endpoints included.

        An empty sweep is always a caller bug (typically an unknown sweep
        or scale name produced no values upstream); silently returning
        ``[]`` used to make whole figure sections vanish mid-sweep, so it
        raises instead.
        """
        values = list(values)
        if not values:
            raise ValueError(
                f"scale {self.name!r}: cannot subset an empty sweep — "
                "check the sweep/scale name upstream; known scale presets "
                f"are {sorted(_SCALES)}"
            )
        if self.sweep_points >= len(values) or len(values) <= 2:
            return values
        k = max(2, self.sweep_points)
        indices = sorted({round(i * (len(values) - 1) / (k - 1)) for i in range(k)})
        return [values[i] for i in indices]


_SCALES = {
    "smoke": Scale("smoke", 0.15, 5, 1, 0.05, 0.02, sweep_points=3),
    "default": Scale("default", 0.2, 7, 1, 0.1, 0.03, sweep_points=4),
    "full": Scale("full", 1.0, 25, 3, 1.0, 1.0, sweep_points=99),
}


def resolve_scale(name: Optional[str] = None) -> Scale:
    """Pick a scale preset: argument > ``$REPRO_BENCH_SCALE`` > default."""
    if name is None:
        name = os.environ.get("REPRO_BENCH_SCALE", "default")
    if name not in _SCALES:
        raise ValueError(f"unknown scale {name!r}; choose from {sorted(_SCALES)}")
    return _SCALES[name]
