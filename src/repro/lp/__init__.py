"""Linear programming layer.

The efficient recursive mechanism (Sec. 5.3 of the paper) reduces each
``H_i`` / ``G_i`` / ``X`` evaluation to a linear program with ``O(L)``
variables.  Every one of those programs is solved through a single path:

* :class:`~repro.lp.compiled.CompiledProgram` — the base epigraph program
  assembled **once** into CSR/NumPy arrays, with cheap per-call overlays
  for the ``H_i`` / ``G_i`` / ``X`` solves and the Δ-search predicate
  ``G_i ≤ τ``.  :class:`~repro.relax.encode.EncodedRelation` compiles one
  per relation.
* :mod:`repro.lp.backends` — the solver-backend contract and registry.
  ``CompiledProgram`` solves every overlay on a model the backend builds
  (``build_persistent``); a backend implements ``solve_arrays`` (one-shot
  array solves, wrapped in the default ``ArrayModel``) or overrides
  ``build_persistent``.  ``backends.get(name)`` looks up a backend class,
  ``backends.resolve(None | name | instance)`` normalises any backend
  argument, ``backends.default_backend()`` picks the best available
  solver (``REPRO_LP_BACKEND`` overrides the measured-preference order),
  and ``backends.register`` adds an out-of-tree backend.
* :class:`~repro.lp.scipy_backend.ScipyBackend` — the ``"scipy"``
  backend: portable :func:`scipy.optimize.linprog` (HiGHS) on sparse
  matrices; always available, no solver state kept between solves.
* :class:`~repro.lp.highs_engine.HighsBackend` — the ``"highs"``
  backend: persistent HiGHS models through SciPy's private bindings;
  the measured winner here and the auto-detect default when available.
* :class:`~repro.lp.model.LPSolution` — the solver-neutral result every
  solve returns, with statuses from :mod:`repro.lp.status`.
"""

from . import backends, status
from .backends import SolverBackend
from .compiled import CompiledProgram
from .highs_engine import HighsBackend
from .model import LPSolution
from .scipy_backend import ScipyBackend

__all__ = [
    "LPSolution",
    "SolverBackend",
    "ScipyBackend",
    "HighsBackend",
    "CompiledProgram",
    "backends",
    "status",
]
