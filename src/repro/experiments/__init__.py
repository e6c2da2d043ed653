"""Experiment harness reproducing the paper's evaluation (Sec. 6).

Every figure/table of the paper maps to one module here and one benchmark
in ``benchmarks/``:

* Fig. 4(a)/(b)/(c) — :mod:`~repro.experiments.synthetic` (accuracy of four
  mechanisms on random graphs, sweeping |V|, average degree, and ε);
* Fig. 5 — :mod:`~repro.experiments.runtime` (running time of the recursive
  mechanism);
* Fig. 6 / Fig. 7 — :mod:`~repro.experiments.real_graphs` (dataset table and
  triangle-counting accuracy on the dataset stand-ins);
* Fig. 8 / Fig. 9 — :mod:`~repro.experiments.krelations` (random 3-DNF /
  3-CNF K-relations, sweeping expression length and relation size);
* Fig. 1 — :mod:`~repro.experiments.comparison` (the guarantee/measured
  comparison table).

The accuracy metric is the paper's: **median relative error** over repeated
runs.  All experiments take a scale preset (``smoke``/``default``/``full``)
so the benchmark suite stays laptop-fast while ``full`` reproduces the
paper's exact sizes.
"""

from .harness import (
    Scale,
    aggregate_median,
    median_relative_error,
    resolve_scale,
    run_mechanism_trials,
)
from .mechanisms import MECHANISM_NAMES, make_runner
from .reporting import format_series, format_table

__all__ = [
    "median_relative_error",
    "aggregate_median",
    "run_mechanism_trials",
    "Scale",
    "resolve_scale",
    "MECHANISM_NAMES",
    "make_runner",
    "format_table",
    "format_series",
]
