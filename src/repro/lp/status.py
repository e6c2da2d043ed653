"""Canonical solve-status names of every LP solution.

The HiGHS model (and every test double) translates its solver's native
termination codes into this one set of spellings, so callers can branch
on these strings (the mechanism's ``_check`` guards, the tests) without
knowing the solver's own codes.
"""

from __future__ import annotations

__all__ = [
    "OPTIMAL",
    "INFEASIBLE",
    "UNBOUNDED",
    "ITERATION_LIMIT",
    "ERROR",
    "CANONICAL_STATUSES",
]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"
ERROR = "error"

#: Every status an :class:`~repro.lp.model.LPSolution` may carry.
CANONICAL_STATUSES = (OPTIMAL, INFEASIBLE, UNBOUNDED, ITERATION_LIMIT, ERROR)
