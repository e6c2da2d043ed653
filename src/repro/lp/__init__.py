"""Linear programming layer.

The efficient recursive mechanism (Sec. 5.3 of the paper) reduces each
``H_i`` / ``G_i`` / ``X`` evaluation to a linear program with ``O(L)``
variables.  Every one of those programs is solved through a single path:

* :class:`~repro.lp.compiled.CompiledProgram` — the base epigraph program
  assembled **once** into CSR/NumPy arrays, with cheap per-call overlays
  for the ``H_i`` / ``G_i`` / ``X`` solves and the Δ-search predicate
  ``G_i ≤ τ``.  :class:`~repro.relax.encode.EncodedRelation` compiles one
  per relation.
* :class:`~repro.lp.highs_engine.HighsBackend` — the solver: one
  persistent HiGHS model per overlay through SciPy's bindings
  (:class:`~repro.lp.highs_engine.PersistentLP`).
  :data:`~repro.lp.highs_engine.HIGHS` is the instance every relation
  uses unless a test hands in another backend.
* :mod:`repro.lp.backends` — the contract that backend implements
  (``build_persistent`` → a :class:`~repro.lp.backends.PersistentModel`),
  kept as a seam for the test-side oracles.
* :class:`~repro.lp.model.LPSolution` — the result every solve returns,
  with statuses from :mod:`repro.lp.status`.
"""

from . import backends, status
from .backends import SolverBackend
from .compiled import CompiledProgram
from .highs_engine import HIGHS, HighsBackend
from .model import LPSolution

__all__ = [
    "LPSolution",
    "SolverBackend",
    "HighsBackend",
    "HIGHS",
    "CompiledProgram",
    "backends",
    "status",
]
