"""The solver-neutral result of one linear-program solve.

Every backend (:mod:`repro.lp.backends`) and every
:class:`~repro.lp.compiled.CompiledProgram` overlay solve returns an
:class:`LPSolution`, so callers read one status vocabulary
(:mod:`repro.lp.status`) whatever solver ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["LPSolution"]


@dataclass
class LPSolution:
    """Result of solving a linear program.

    Attributes
    ----------
    status:
        ``"optimal"``, ``"infeasible"``, ``"unbounded"``,
        ``"iteration_limit"`` (solver stopped on its iteration budget),
        or ``"error"``.
    objective:
        Optimal objective value (including the objective constant), or
        ``nan`` when not optimal.
    x:
        Optimal variable values (empty array when not optimal).
    message:
        Backend-specific diagnostic text.
    row_dual:
        One dual value per constraint row, in the model's row order, when
        the backend reports them (None otherwise).  Each is the
        sensitivity ``∂ objective / ∂ rhs`` of its row, so an optimal
        row dual is a subgradient of the optimal value in that row's
        right-hand side.
    """

    status: str
    objective: float
    x: np.ndarray
    message: str = ""
    row_dual: Optional[np.ndarray] = None

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"
