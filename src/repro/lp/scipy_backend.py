"""The ``"scipy"`` backend: HiGHS via :func:`scipy.optimize.linprog`.

:meth:`ScipyBackend.solve_arrays` hands the CSR/NumPy arrays of one
overlay solve straight to :func:`~scipy.optimize.linprog`; the
:class:`~repro.lp.backends.ArrayModel` it inherits splits a compiled
program's rows back into those arrays on every solve.

This is the portable baseline of the backend registry: always available
wherever SciPy is, every solve a self-contained ``linprog`` call with no
persistent solver state.  The ``"highs"`` backend
(:class:`~repro.lp.highs_engine.HighsBackend`) keeps live HiGHS models
instead and is preferred automatically when SciPy's private HiGHS
bindings are importable.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.optimize import linprog

from . import status
from .backends import SolverBackend, register
from .model import LPSolution

__all__ = ["ScipyBackend", "IPM_THRESHOLD", "resolve_method"]

#: Column count above which a program is solved with the interior-point
#: code (``"highs-ipm"``) instead of dual simplex (``"highs"``): the
#: φ-epigraph LPs of big K-relations are heavily degenerate, where simplex
#: stalls (observed >10× slowdowns) while IPM stays stable.
IPM_THRESHOLD = 3000


def resolve_method(num_variables: int) -> str:
    """The :func:`~scipy.optimize.linprog` method for ``num_variables`` columns."""
    return "highs-ipm" if num_variables > IPM_THRESHOLD else "highs"


@register
class ScipyBackend(SolverBackend):
    """Solve array-assembled programs with HiGHS via linprog."""

    name = "scipy"
    aliases = ("linprog",)
    #: portable baseline — always available, never the measured winner
    preference = 10

    def fork_reset(self) -> None:
        """Fork-reset protocol hook (see :mod:`repro.parallel.pool`).

        Every solve here is a self-contained :func:`linprog` call with no
        per-process solver state, so a forked worker can keep using the
        inherited backend as-is — unlike persistent models, which must be
        re-instantiated per process.
        """

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

        A solver that stops early (e.g. on HiGHS's iteration limit) comes
        back with its canonical status (``"iteration_limit"``, not a bare
        ``"error"``) and the HiGHS message attached.  An optimal solution
        carries linprog's ``ineqlin`` then ``eqlin`` marginals as its
        ``row_dual``.
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
            method=resolve_method(n),
        )
        name = status.canonical(status.LINPROG_STATUS.get(result.status, status.ERROR))
        if name != status.OPTIMAL:
            return LPSolution(name, float("nan"), np.zeros(0), message=result.message)
        return LPSolution(
            "optimal",
            float(result.fun) + float(objective_constant),
            np.asarray(result.x, dtype=float),
            message=result.message,
            row_dual=np.concatenate(
                [result.ineqlin.marginals, result.eqlin.marginals]
            ).astype(float),
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
