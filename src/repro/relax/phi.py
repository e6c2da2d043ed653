"""Numeric evaluation of the relaxation φ and φ-equivalence (Def. 19).

The n-ary forms used here follow from associativity of the binary
definitions: an ``And`` with children values ``v_1..v_m`` relaxes to
``max(0, v_1 + ... + v_m - (m-1))`` and an ``Or`` to ``max(v_1..v_m)``.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..boolexpr.expr import And, Expr, Or, Var, _Const
from ..errors import ExpressionError
from ..rng import RngLike, ensure_rng

__all__ = ["phi", "phi_on_vector", "phi_star", "phi_equivalent"]


def phi(expr: Expr, f: Mapping[str, float]) -> float:
    """Evaluate ``φ_expr(f)`` for a fractional assignment ``f``.

    Missing variables default to ``0.0`` (an absent participant), matching
    :meth:`Expr.evaluate`.  Values are clamped to ``[0, 1]``; supplying a
    value outside that range is an error because φ is only defined on the
    unit cube.
    """
    if isinstance(expr, _Const):
        return 1.0 if expr.value else 0.0
    if isinstance(expr, Var):
        value = float(f.get(expr.name, 0.0))
        if not 0.0 <= value <= 1.0:
            raise ExpressionError(
                f"assignment value for {expr.name!r} outside [0,1]: {value}"
            )
        return value
    if isinstance(expr, And):
        total = 0.0
        for child in expr.children:
            total += phi(child, f)
        return max(0.0, total - (len(expr.children) - 1))
    if isinstance(expr, Or):
        return max(phi(child, f) for child in expr.children)
    raise ExpressionError(f"unknown expression node {expr!r}")


def phi_on_vector(expr: Expr, names, values) -> float:
    """Evaluate φ with the assignment given as parallel sequences."""
    return phi(expr, dict(zip(names, values)))


def phi_star(expr: Expr, f: Mapping[str, float]) -> float:
    """The dual quantity ``φ*_k(f) = 1 - φ_k(1 - ψ∘f)`` from Sec. 5.1.

    ``ψ(x) = min(1, x)``; truncated linearity states
    ``φ*_k(c·f) = min(1, c·φ*_k(f))`` for ``c ≥ 1``.
    """
    flipped = {
        name: 1.0 - min(1.0, float(f.get(name, 0.0))) for name in expr.variables()
    }
    return 1.0 - phi(expr, flipped)


def _phi_columns(
    expr: Expr, columns: Mapping[str, np.ndarray], rows: int
) -> np.ndarray:
    """:func:`phi` at many points at once: ``columns`` maps each variable to
    its values at every point, so each node is evaluated once per call."""
    if isinstance(expr, _Const):
        return np.full(rows, 1.0 if expr.value else 0.0)
    if isinstance(expr, Var):
        return columns[expr.name]
    if isinstance(expr, And):
        total = np.zeros(rows)
        for child in expr.children:
            total = total + _phi_columns(child, columns, rows)
        return np.maximum(0.0, total - (len(expr.children) - 1))
    if isinstance(expr, Or):
        return np.maximum.reduce(
            [_phi_columns(child, columns, rows) for child in expr.children]
        )
    raise ExpressionError(f"unknown expression node {expr!r}")


def phi_equivalent(
    k1: Expr,
    k2: Expr,
    n_samples: int = 256,
    rng: RngLike = 0,
) -> bool:
    """Test φ-equivalence (Def. 19): ``φ_{k1} == φ_{k2}`` as functions.

    Both φ functions are piecewise-linear on the unit cube, so agreement on
    all Boolean vertices plus a dense sample of random fractional points is
    a strong (probabilistic) certificate.  Vertex agreement alone would only
    establish truth-table equality, which Def. 19 deliberately refines — the
    paper's example ``(b1∨b2)∧(b1∨b3)`` vs ``b1∨(b2∧b3)`` agrees on all
    vertices but differs at ``f = 1/2``.

    The default seeded ``rng`` makes the check deterministic.
    """
    names = sorted(k1.variables() | k2.variables())
    if not names:
        return phi(k1, {}) == phi(k2, {})
    # Boolean vertices first (exact, cheap for small expressions): cap at 2^16.
    # Vertex ``bits`` sets variable ``pos`` to bit ``pos`` of ``bits``.
    if len(names) <= 16:
        rows = 1 << len(names)
        bits = np.arange(rows)
        vertices = {
            name: ((bits >> pos) & 1).astype(float) for pos, name in enumerate(names)
        }
        gap = _phi_columns(k1, vertices, rows) - _phi_columns(k2, vertices, rows)
        if np.any(np.abs(gap) > 1e-12):
            return False
    generator = ensure_rng(rng)
    for _ in range(n_samples):
        values = generator.random(len(names))
        f = dict(zip(names, values))
        if abs(phi(k1, f) - phi(k2, f)) > 1e-9:
            return False
        # also probe the midpoint-heavy region where ∧/∨ kinks live
        half = {name: (v + 0.5) / 2.0 for name, v in f.items()}
        if abs(phi(k1, half) - phi(k2, half)) > 1e-9:
            return False
    return True
