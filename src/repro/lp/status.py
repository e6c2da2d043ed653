"""Canonical solve-status names shared by every LP backend.

Each backend translates its solver's native termination codes into this
one set of spellings, so ``"iteration_limit"`` / ``"infeasible"`` /
``"optimal"`` cannot drift between backends — callers branch on these
strings (the mechanism's ``_check`` guards, the tests)
and a misspelled status would silently take the error path.
"""

from __future__ import annotations

__all__ = [
    "OPTIMAL",
    "INFEASIBLE",
    "UNBOUNDED",
    "ITERATION_LIMIT",
    "ERROR",
    "CANONICAL_STATUSES",
    "LINPROG_STATUS",
    "canonical",
]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"
ERROR = "error"

#: Every status an :class:`~repro.lp.model.LPSolution` may carry.
CANONICAL_STATUSES = (OPTIMAL, INFEASIBLE, UNBOUNDED, ITERATION_LIMIT, ERROR)

#: :func:`scipy.optimize.linprog` ``result.status`` codes → canonical names.
LINPROG_STATUS = {
    0: OPTIMAL,
    1: ITERATION_LIMIT,
    2: INFEASIBLE,
    3: UNBOUNDED,
    4: ERROR,
}


def canonical(name: str) -> str:
    """Validate a status spelling, returning it unchanged.

    Backends route their translations through this so a typo'd mapping
    fails loudly at translation time instead of surfacing as a mystery
    status deep inside a mechanism run.
    """
    if name not in CANONICAL_STATUSES:
        raise ValueError(
            f"{name!r} is not a canonical LP status; expected one of "
            f"{CANONICAL_STATUSES}"
        )
    return name
