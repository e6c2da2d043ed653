"""The ``"scipy"`` backend: HiGHS via :func:`scipy.optimize.linprog`.

:meth:`ScipyBackend.solve_arrays` hands the prebuilt CSR/NumPy arrays of a
:class:`~repro.lp.compiled.CompiledProgram` overlay straight to
:func:`~scipy.optimize.linprog`, so per-solve work is the solver call alone.

This is the portable baseline of the backend registry: always available
wherever SciPy is, every solve a self-contained ``linprog`` call with no
persistent solver state (all capability flags false).  The ``"highs"``
backend (:class:`~repro.lp.highs_engine.HighsBackend`) layers persistent
models on top of the same knobs and is preferred automatically when
SciPy's private HiGHS bindings are importable.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np
from scipy.optimize import linprog

from . import status
from .backends import SolverBackend, register
from .model import LPSolution

__all__ = ["ScipyBackend"]


@register
class ScipyBackend(SolverBackend):
    """Solve array-assembled programs with HiGHS via linprog.

    Parameters
    ----------
    method:
        The :func:`scipy.optimize.linprog` method.  The default
        ``"adaptive"`` uses the dual simplex (``"highs"``) for small
        programs and the interior-point code (``"highs-ipm"``) for large
        ones: the φ-epigraph LPs of big K-relations are heavily degenerate,
        where simplex stalls (observed >10× slowdowns) while IPM stays
        stable.
    ipm_threshold:
        Variable count above which ``"adaptive"`` switches to IPM.
    max_iterations:
        Optional HiGHS iteration limit (``maxiter``).  When the solver
        stops on it, the returned status is ``"iteration_limit"`` (not a
        bare ``"error"``) and the HiGHS message is carried through, so
        callers can distinguish a truncated solve from solver failure.
    options:
        Extra :func:`scipy.optimize.linprog` options merged into every
        call (e.g. ``{"presolve": False}``); ``max_iterations`` wins over
        an explicit ``maxiter`` key here.
    """

    name = "scipy"
    aliases = ("linprog",)
    supports_persistent = False
    supports_multi_rhs = False
    #: portable baseline — always available, never the measured winner
    preference = 10

    def __init__(
        self,
        method: str = "adaptive",
        ipm_threshold: int = 3000,
        max_iterations: Optional[int] = None,
        options: Optional[Dict] = None,
    ):
        self.method = method
        self.ipm_threshold = int(ipm_threshold)
        self.max_iterations = None if max_iterations is None else int(max_iterations)
        self.options = dict(options) if options else {}

    @property
    def cache_token(self):
        return (
            "lp-backend",
            self.name,
            self.method,
            self.ipm_threshold,
            self.max_iterations,
            tuple(sorted((key, repr(value)) for key, value in self.options.items())),
        )

    def fork_reset(self) -> None:
        """Fork-reset protocol hook (see :mod:`repro.parallel.pool`).

        Every solve here is a self-contained :func:`linprog` call with no
        per-process solver state, so a forked worker can keep using the
        inherited backend as-is — unlike persistent models, which must be
        re-instantiated per process.
        """

    def _resolve_method(self, num_variables: int) -> str:
        """Pick the HiGHS code for a program with ``num_variables`` columns."""
        if self.method != "adaptive":
            return self.method
        if num_variables > self.ipm_threshold:
            return "highs-ipm"
        return "highs"

    def _solver_options(self) -> Optional[Dict]:
        options = dict(self.options)
        if self.max_iterations is not None:
            options["maxiter"] = self.max_iterations
        return options or None

    def solve_arrays(
        self,
        c: np.ndarray,
        a_ub,
        b_ub: Optional[np.ndarray],
        a_eq,
        b_eq: Optional[np.ndarray],
        bounds,
        objective_constant: float = 0.0,
    ) -> LPSolution:
        """Solve a program already assembled as arrays/CSR matrices.

        This is the entry point :class:`~repro.lp.compiled.CompiledProgram`
        calls for every overlay solve; per-call overhead is just the
        :func:`scipy.optimize.linprog` invocation itself.
        """
        n = len(c)
        if n == 0:
            return LPSolution("optimal", float(objective_constant), np.zeros(0))
        result = linprog(
            c=c,
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=bounds,
            method=self._resolve_method(n),
            options=self._solver_options(),
        )
        name = status.canonical(status.LINPROG_STATUS.get(result.status, status.ERROR))
        if name != status.OPTIMAL:
            return LPSolution(name, float("nan"), np.zeros(0), message=result.message)
        return LPSolution(
            "optimal",
            float(result.fun) + float(objective_constant),
            np.asarray(result.x, dtype=float),
            message=result.message,
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(method={self.method!r})"
