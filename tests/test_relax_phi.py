"""Tests for numeric φ evaluation and φ-equivalence (Def. 19)."""

import math

import numpy as np
import pytest

from repro.boolexpr import FALSE, TRUE, And, Or, Var, expand_dnf, parse
from repro.errors import ExpressionError
from repro.relax import phi, phi_equivalent, phi_on_vector, phi_star
from repro.relax.phi import _phi_columns


class TestPhiEvaluation:
    def test_constants(self):
        assert phi(TRUE, {}) == 1.0
        assert phi(FALSE, {}) == 0.0

    def test_variable(self):
        assert phi(Var("a"), {"a": 0.3}) == 0.3

    def test_missing_variable_is_zero(self):
        assert phi(Var("a"), {}) == 0.0

    def test_and_is_lukasiewicz(self):
        expr = parse("a & b")
        assert phi(expr, {"a": 0.7, "b": 0.6}) == pytest.approx(0.3)
        assert phi(expr, {"a": 0.4, "b": 0.5}) == 0.0

    def test_or_is_max(self):
        expr = parse("a | b")
        assert phi(expr, {"a": 0.7, "b": 0.6}) == pytest.approx(0.7)

    def test_nary_and_matches_binary_nesting(self):
        """Associativity: max(0, Σ - (m-1)) equals nested binary form."""
        flat = And((Var("a"), Var("b"), Var("c")))
        def nested_value(f):
            return max(0.0, max(0.0, f["a"] + f["b"] - 1) + f["c"] - 1)
        for f in ({"a": 0.9, "b": 0.8, "c": 0.7}, {"a": 0.5, "b": 0.5, "c": 0.5}):
            assert phi(flat, f) == pytest.approx(nested_value(f))

    def test_out_of_range_rejected(self):
        with pytest.raises(ExpressionError):
            phi(Var("a"), {"a": 1.5})
        with pytest.raises(ExpressionError):
            phi(Var("a"), {"a": -0.1})

    def test_phi_on_vector(self):
        expr = parse("a & b")
        assert phi_on_vector(expr, ["a", "b"], [0.9, 0.9]) == pytest.approx(0.8)

    def test_sec24_rewriting_counterexample(self):
        """(b1∨b2)∧(b1∨b3) cannot be rewritten to b1∨(b2∧b3): φ differs."""
        left = parse("(b1 | b2) & (b1 | b3)")
        right = parse("b1 | (b2 & b3)")
        f = {"b1": 0.5, "b2": 0.5, "b3": 0.5}
        assert phi(left, f) == 0.0
        assert phi(right, f) == 0.5


class TestPhiStar:
    def test_at_zero(self):
        expr = parse("a & b")
        assert phi_star(expr, {"a": 0.0, "b": 0.0}) == pytest.approx(0.0)

    def test_at_one(self):
        expr = parse("a & b")
        assert phi_star(expr, {"a": 1.0, "b": 1.0}) == pytest.approx(1.0)

    def test_values_above_one_truncated_by_psi(self):
        """ψ clips inputs at 1, and φ* respects truncated linearity."""
        expr = parse("a & b")
        base = {"a": 0.25, "b": 0.0}
        assert phi_star(expr, base) == pytest.approx(0.25)
        scaled = {"a": 2.5, "b": 0.0}  # 10 × base
        assert phi_star(expr, scaled) == pytest.approx(
            min(1.0, 10 * phi_star(expr, base))
        )


class TestPhiEquivalence:
    def test_identical(self):
        expr = parse("(a & b) | c")
        assert phi_equivalent(expr, expr)

    def test_invariant_transformations_hold(self):
        """The four Sec. 5.2 invariants produce φ-equivalent expressions."""
        a, b, c = Var("a"), Var("b"), Var("c")
        pairs = [
            (And((a, TRUE)), a),  # identity
            (Or((a, FALSE)), a),
            (And((a, FALSE)), FALSE),  # annihilator
            (Or((a, TRUE)), TRUE),
            (And((And((a, b)), c)), And((a, And((b, c))))),  # associativity
            (Or((Or((a, b)), c)), Or((a, Or((b, c))))),
            # distributivity of ∧ over ∨
            (parse("a & (b | c)"), parse("(a & b) | (a & c)")),
        ]
        for left, right in pairs:
            assert phi_equivalent(left, right)

    def test_truth_equal_but_phi_different(self):
        assert not phi_equivalent(
            parse("(b1 | b2) & (b1 | b3)"), parse("b1 | (b2 & b3)")
        )

    def test_idempotence_not_phi_equivalent(self):
        assert not phi_equivalent(parse("a & a"), Var("a"))

    def test_or_idempotence_is_phi_equivalent(self):
        """max(x, x) = x, so a∨a ~ a (unlike ∧)."""
        assert phi_equivalent(parse("a | a"), Var("a"))

    def test_constants(self):
        assert phi_equivalent(TRUE, TRUE)
        assert not phi_equivalent(TRUE, FALSE)

    def test_commutativity_is_phi_equivalent(self):
        assert phi_equivalent(parse("a & b"), parse("b & a"))
        assert phi_equivalent(parse("a | b"), parse("b | a"))


def _pointwise_phi_equivalent(k1, k2, n_samples=256, rng=0):
    """Reference: Def. 19's check with one ``phi`` walk per Boolean vertex."""
    names = sorted(k1.variables() | k2.variables())
    if not names:
        return phi(k1, {}) == phi(k2, {})
    if len(names) <= 16:
        for bits in range(1 << len(names)):
            f = {name: float((bits >> pos) & 1) for pos, name in enumerate(names)}
            if abs(phi(k1, f) - phi(k2, f)) > 1e-12:
                return False
    generator = np.random.default_rng(rng) if isinstance(rng, int) else rng
    for _ in range(n_samples):
        values = generator.random(len(names))
        f = dict(zip(names, values))
        if abs(phi(k1, f) - phi(k2, f)) > 1e-9:
            return False
        half = {name: (v + 0.5) / 2.0 for name, v in f.items()}
        if abs(phi(k1, half) - phi(k2, half)) > 1e-9:
            return False
    return True


def _random_positive(rng, names, depth):
    """A random positive expression over ``names``."""
    if depth == 0 or rng.random() < 0.3:
        return Var(names[int(rng.integers(len(names)))])
    children = [
        _random_positive(rng, names, depth - 1)
        for _ in range(int(rng.integers(2, 4)))
    ]
    return And(children) if rng.random() < 0.5 else Or(children)


class TestVectorisedVertexCheck:
    """The vertex stage evaluates each expression once over all vertices;
    it must decide exactly like the per-vertex loop it replaced."""

    def test_vertex_values_match_pointwise_phi(self):
        rng = np.random.default_rng(3)
        names = [f"b{j}" for j in range(6)]
        rows = 1 << len(names)
        bits = np.arange(rows)
        vertices = {
            name: ((bits >> pos) & 1).astype(float) for pos, name in enumerate(names)
        }
        for _ in range(40):
            expr = _random_positive(rng, names, depth=4)
            values = _phi_columns(expr, vertices, rows)
            for row in range(rows):
                f = {name: vertices[name][row] for name in names}
                assert values[row] == phi(expr, f)

    def test_matches_pointwise_loop_on_random_expressions(self):
        rng = np.random.default_rng(7)
        pairs = [(parse("(b1 | b2) & (b1 | b3)"), parse("b1 | (b2 & b3)"))]
        for _ in range(30):
            names = [f"b{j}" for j in range(int(rng.integers(3, 10)))]
            left = _random_positive(rng, names, depth=3)
            pairs.append((left, _random_positive(rng, names, depth=3)))
            pairs.append((left, expand_dnf(left)))
        outcomes = set()
        for left, right in pairs:
            ours, theirs = np.random.default_rng(11), np.random.default_rng(11)
            expected = _pointwise_phi_equivalent(left, right, rng=theirs)
            assert phi_equivalent(left, right, rng=ours) == expected, (left, right)
            # the sample stage takes the same draws from the caller's generator
            assert ours.bit_generator.state == theirs.bit_generator.state
            outcomes.add(expected)
        assert outcomes == {True, False}
        assert not phi_equivalent(*pairs[0])
