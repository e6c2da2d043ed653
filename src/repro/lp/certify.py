"""Certified intervals for ``H`` values, and ``H`` snapped to a rational.

An H-shaped program is the φ-epigraph LP of a
:class:`~repro.lp.compiled.CompiledProgram` with the mass row fixed:
``min c·x + constant`` s.t. ``A x ≤ b``, ``0 ≤ x ≤ 1`` and
``Σ_{p<|P|} x_p = k``, where ``|P|`` counts the program's (active)
participant columns and ``k`` is an index of the active program.  From
one optimal solution of such a program (or of
the X relaxation, whose optimum has mass ``i'``), :class:`Certificate`
bounds the exact ``H_k`` on both sides, whatever the solver's
tolerances:

* ``L`` is a safe Lagrangian bound (Neumaier & Shcherbina, "Safe bounds
  in linear and mixed-integer linear programming", Math. Prog. 99, 2004).
  Any ``y ≤ 0`` on the ``≤`` rows (the solver's row duals, wrong-signed
  ones clipped to 0) and any mass multiplier ``μ`` give
  ``H_k ≥ y·b + μ·k + Σ_j min(0, r_j) + constant`` with reduced costs
  ``r = c − Aᵀy − μ·1_P``: each column's term is priced at the cheaper
  end of its unit box.  A float64 rounding term covers every operation.
* ``U`` is the objective at the solver's participant values, raised
  until ``Σf ≥ k``, with every node value recomputed bottom-up from them
  (the relation supplies that evaluation).  ``H`` is nondecreasing, so
  ``H_k ≤ H_{Σf} ≤`` that objective.

:func:`snap` turns an interval narrower than ``1/(2·D²)`` into the unique
``p/q`` with ``q ≤ D`` inside it, if there is one: H values of subgraph
relations are rationals with small denominators, so every route to an
``H_k`` — a cold solve on either backend, the X relaxation's own optimum,
a resumed solve — stores the same float.  An interval that isolates no
rational snaps to None and the caller takes the cold route.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Optional, Tuple

import numpy as np

__all__ = ["Certificate", "MAX_DENOMINATOR", "UNIT_ROUNDOFF", "gamma", "snap"]

#: Largest denominator a snapped ``H`` may have.
MAX_DENOMINATOR = 1000

#: ``u``: the relative error of one correctly rounded float64 operation.
UNIT_ROUNDOFF = np.finfo(float).eps / 2


def gamma(n):
    """Higham's ``γ_n = n·u/(1 − n·u)``: the relative error bound of a
    float64 sum or dot product of ``n`` terms (elementwise on arrays)."""
    nu = np.asarray(n, dtype=float) * UNIT_ROUNDOFF
    return nu / (1.0 - nu)


def snap(lower: float, upper: float) -> Optional[float]:
    """The float of the unique ``p/q`` with ``q ≤`` :data:`MAX_DENOMINATOR`
    in ``[lower, upper]``, or None.

    Two such rationals lie at least ``1/MAX_DENOMINATOR²`` apart, so an
    interval narrower than half that holds at most one, and it is the
    closest one to the midpoint.
    """
    if not lower <= upper < lower + 0.5 / MAX_DENOMINATOR**2:
        return None
    candidate = Fraction((lower + upper) / 2).limit_denominator(MAX_DENOMINATOR)
    if Fraction(lower) <= candidate <= Fraction(upper):
        return float(candidate)
    return None


class Certificate:
    """Bounds on ``H_k`` from one optimal solution of an H-shaped program.

    Parameters
    ----------
    program:
        The :class:`~repro.lp.compiled.CompiledProgram` the solution is of.
    x:
        The solution's structural column values (participants first).
    row_dual:
        Its duals of the program's ``≤`` rows, in row order (the sign
        convention of HiGHS: ``≤ 0`` at a minimum).
    multiplier:
        The mass row's multiplier ``μ``: the mass row's dual of an H solve,
        ``Δ̂`` for the X relaxation (whose objective is ``c − Δ̂`` on the
        participants), ``Δ̂`` plus the mass row's dual for an H solve
        resumed on the X model.
    evaluate:
        ``f ↦`` an upper bound on ``Σ_t q(t)·φ_t(f) + constant`` at
        participant values ``f ∈ [0, 1]^P``.
    """

    def __init__(
        self,
        program,
        x: np.ndarray,
        row_dual: np.ndarray,
        multiplier: float,
        evaluate: Callable[[np.ndarray], float],
    ):
        p = program.num_participants
        self._mu = float(multiplier)
        self._f = np.clip(np.asarray(x[:p], dtype=float), 0.0, 1.0)
        self._mass = math.fsum(self._f)
        self._evaluate = evaluate
        self._base = -math.inf  # no duals: no lower bound
        self._base_error = 0.0
        if row_dual is not None:
            self._price(program, np.asarray(row_dual, dtype=float))

    def _price(self, program, row_dual: np.ndarray) -> None:
        """The ``k``-independent part of ``L`` and its rounding bound."""
        p = program.num_participants
        a_ub = program._a_ub
        y = np.minimum(row_dual[: a_ub.shape[0]], 0.0)
        reduced = program._c - program._a_ub_t @ y
        reduced[:p] -= self._mu
        # each reduced cost is a dot product of its column's nonzeros,
        # the cost and μ: it is off by at most γ_{nnz+2} of their sizes
        magnitude = np.abs(program._c) + program._abs_a_ub_t @ -y
        magnitude[:p] += abs(self._mu)
        nnz = np.diff(a_ub.indptr)
        yb = y * program._b_ub
        priced = math.fsum(np.minimum(reduced, 0.0))
        dual_value = math.fsum(yb)
        self._base = math.fsum([dual_value, priced, program._constant])
        self._base_error = float(np.sum(gamma(nnz + 2) * magnitude)) + (
            UNIT_ROUNDOFF * (float(np.sum(np.abs(yb))) + abs(dual_value) + abs(priced))
        )

    @property
    def mass(self) -> float:
        """``Σ f`` at the solution (correctly rounded)."""
        return self._mass

    def lower(self, k: float) -> float:
        """The certified lower bound ``L`` on ``H_k`` (``-inf`` without
        duals)."""
        if self._base == -math.inf:
            return -math.inf
        shift = self._mu * k
        value = self._base + shift
        error = self._base_error + UNIT_ROUNDOFF * (abs(shift) + abs(value))
        return value - 2.0 * error

    def upper(self, k: float) -> float:
        """The certified upper bound ``U`` on ``H_k``."""
        f = self._f
        if not self._mass >= k * (1.0 + 4.0 * UNIT_ROUNDOFF):
            f = _raised(f, k)
        return self._evaluate(f)

    def interval(self, k: float) -> Tuple[float, float]:
        """``(L, U)`` for ``H_k``."""
        return self.lower(k), self.upper(k)

    def snapped(self, k: float) -> Optional[float]:
        """``H_k`` snapped (:func:`snap`), or None."""
        return snap(*self.interval(k))

    def relaxation_interval(self) -> Tuple[float, float]:
        """``[L, U]`` on the X relaxation's value (Eq. 20) when this is the
        certificate of its optimum (``μ = Δ̂``).

        The relaxation is ``min_f H_{Σf} + (|P| − Σf)·Δ̂``, so ``L`` is the
        Lagrangian bound at ``k = |P|`` and ``U`` the relaxation's
        objective at the solution's own point.
        """
        n = len(self._f)
        shift = self._mu * (n - self._mass)
        value = self._evaluate(self._f) + shift
        # Σf is off by u·n at most, n − Σf and the two products by u each
        error = UNIT_ROUNDOFF * (self._mu * n + 2.0 * abs(shift) + abs(value))
        return self.lower(n), value + 2.0 * error


def _raised(f: np.ndarray, k: float) -> np.ndarray:
    """``f`` with entries raised toward 1, in index order, until
    ``Σf ≥ k`` holds exactly (the correctly rounded sum clears ``k`` by
    more than its own rounding)."""
    f = f.copy()
    target = k * (1.0 + 4.0 * UNIT_ROUNDOFF) + 4.0 * UNIT_ROUNDOFF * len(f)
    for _ in range(3):
        deficit = target - math.fsum(f)
        if deficit <= 0.0:
            return f
        room = 1.0 - f
        before = np.concatenate(([0.0], np.cumsum(room)[:-1]))
        f += np.clip(deficit - before, 0.0, room)
    return f
