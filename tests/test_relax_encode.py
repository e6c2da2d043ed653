"""Tests for the LP epigraph encoding of H_i, G_i and the X relaxation.

The key correctness property: the LP values must equal the true minima of
the φ objectives over the constrained cube.  For small relations we verify
against dense grid/scipy minimization and against hand-computed values.
"""

import itertools

import numpy as np
import pytest
from lp_oracle import LinprogBackend, SimplexBackend

from repro.boolexpr import And, Var, parse
from repro.errors import LPError
from repro.relax import encode_relation, phi
from repro.relax.encode import EncodedRelation


def brute_force_h(participants, annotated, i, grid=6):
    """Grid-search min of Σ q·φ(f) over |f| = i (coarse upper bound)."""
    best = float("inf")
    # project random dirichlet-ish points onto the simplex slice
    rng = np.random.default_rng(0)
    n = len(participants)
    for _ in range(4000):
        f = rng.random(n)
        total = f.sum()
        if total == 0:
            continue
        f = np.minimum(1.0, f * (i / total))
        # repair: redistribute clipped mass
        for _ in range(6):
            deficit = i - f.sum()
            if abs(deficit) < 1e-9:
                break
            room = (1.0 - f) if deficit > 0 else f
            total_room = room.sum()
            if total_room <= 0:
                break
            f = np.clip(f + deficit * room / total_room, 0.0, 1.0)
        if abs(f.sum() - i) > 1e-6:
            continue
        assignment = dict(zip(participants, f))
        value = sum(q * phi(expr, assignment) for expr, q in annotated)
        best = min(best, value)
    return best


class TestSolveH:
    def test_triangle_relation_fig2a(self):
        """Fig. 2(a): tuples abc, bcd, cde under node privacy."""
        participants = list("abcdef")
        annotated = [(And([Var(p) for p in t]), 1.0) for t in ("abc", "bcd", "cde")]
        enc = encode_relation(participants, annotated)
        assert enc.solve_h(0) == pytest.approx(0.0)
        assert enc.solve_h(6) == pytest.approx(3.0)
        # removing node c kills all triangles: H_5 = 0
        assert enc.solve_h(5) == pytest.approx(0.0)

    def test_h_monotone_in_i(self):
        participants = [f"p{i}" for i in range(5)]
        annotated = [
            (parse("p0 & p1"), 1.0),
            (parse("(p1 & p2) | (p3 & p4)"), 2.0),
            (parse("p0 & p2 & p4"), 1.5),
        ]
        enc = encode_relation(participants, annotated)
        values = [enc.solve_h(i) for i in range(6)]
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))

    def test_h_full_equals_total_weight(self):
        participants = ["a", "b", "c"]
        annotated = [(parse("a & b"), 2.0), (parse("b | c"), 3.0)]
        enc = encode_relation(participants, annotated)
        assert enc.solve_h(3) == pytest.approx(5.0)
        assert enc.true_answer() == pytest.approx(5.0)

    def test_h_at_fractional_index(self):
        participants = ["a", "b"]
        annotated = [(parse("a & b"), 1.0)]
        enc = encode_relation(participants, annotated)
        # min over |f|=1.5 of max(0, f_a+f_b-1) = 0.5
        assert enc.solve_h(1.5) == pytest.approx(0.5)

    def test_h_convexity_lemma10(self):
        participants = [f"p{i}" for i in range(4)]
        annotated = [
            (parse("p0 & p1 & p2"), 1.0),
            (parse("p1 & p3"), 1.0),
            (parse("(p0 & p3) | (p1 & p2)"), 2.0),
        ]
        enc = encode_relation(participants, annotated)
        h = [enc.solve_h(i) for i in range(5)]
        increments = [b - a for a, b in zip(h, h[1:])]
        assert all(
            first <= second + 1e-7 for first, second in zip(increments, increments[1:])
        )

    def test_against_grid_search(self):
        participants = ["a", "b", "c", "d"]
        annotated = [
            (parse("a & b"), 1.0),
            (parse("(b & c) | d"), 2.0),
            (parse("a & c & d"), 1.0),
        ]
        enc = encode_relation(participants, annotated)
        for i in (1, 2, 3):
            lp_value = enc.solve_h(i)
            grid_value = brute_force_h(participants, annotated, i)
            assert lp_value <= grid_value + 1e-6  # LP is the exact min

    def test_index_out_of_range(self):
        enc = encode_relation(["a"], [(Var("a"), 1.0)])
        with pytest.raises(LPError):
            enc.solve_h(2)
        with pytest.raises(LPError):
            enc.solve_h(-0.5)

    def test_unused_participants_absorb_mass(self):
        """Participants outside all annotations keep H at 0 longer."""
        annotated = [(parse("a & b"), 1.0)]
        enc_small = encode_relation(["a", "b"], annotated)
        enc_big = encode_relation(["a", "b", "x", "y"], annotated)
        assert enc_small.solve_h(2) == pytest.approx(1.0)
        assert enc_big.solve_h(2) == pytest.approx(0.0)
        assert enc_big.solve_h(4) == pytest.approx(1.0)

    def test_false_constant_weight_excluded(self):
        """FALSE-annotated tuples contribute nothing — not to the H
        endpoint closed form, not to q(supp(R))."""
        from repro.boolexpr import FALSE, TRUE

        enc = encode_relation(["a", "b"], [(Var("a"), 1.0), (FALSE, 5.0), (TRUE, 2.0)])
        assert enc.true_answer() == pytest.approx(3.0)
        assert enc.solve_h(2) == pytest.approx(3.0)
        # the endpoint closed form must agree with the LP limit
        assert enc.solve_h(2 - 1e-7) == pytest.approx(3.0, abs=1e-5)

    def test_zero_weight_tuples_skipped(self):
        enc = encode_relation(["a", "b"], [(parse("a & b"), 0.0), (Var("a"), 1.0)])
        assert enc.num_encoded_tuples == 1
        assert enc.true_answer() == pytest.approx(1.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(LPError):
            encode_relation(["a"], [(Var("a"), -1.0)])

    def test_unknown_participant_rejected(self):
        with pytest.raises(LPError):
            encode_relation(["a"], [(parse("a & b"), 1.0)])

    def test_duplicate_participants_rejected(self):
        with pytest.raises(LPError):
            encode_relation(["a", "a"], [(Var("a"), 1.0)])


class TestSolveG:
    def test_triangle_relation(self):
        participants = list("abcdef")
        annotated = [(And([Var(p) for p in t]), 1.0) for t in ("abc", "bcd", "cde")]
        enc = encode_relation(participants, annotated)
        # G_n = 2 * max_p (#tuples containing p) = 2*3 (node c)
        assert enc.solve_g(6) == pytest.approx(6.0)
        assert enc.solve_g(0) == pytest.approx(0.0)

    def test_g_monotone_in_i(self):
        participants = [f"p{i}" for i in range(4)]
        annotated = [
            (parse("p0 & p1"), 1.0),
            (parse("(p1 | p2) & p3"), 2.0),
        ]
        enc = encode_relation(participants, annotated)
        values = [enc.solve_g(i) for i in range(5)]
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))

    def test_g_uses_phi_sensitivities(self):
        """CNF annotations weight tuples by S_{k,p} > 1."""
        participants = ["a", "b", "c"]
        cnf = parse("(a | b) & (a | c)")  # S_a = 2
        enc = encode_relation(participants, [(cnf, 1.0)])
        # at full participation φ = 1, so G_3 = 2 * max_p (q * S) = 2*2
        assert enc.solve_g(3) == pytest.approx(4.0)

    def test_empty_relation(self):
        enc = encode_relation(["a", "b"], [])
        assert enc.solve_g(2) == 0.0
        assert enc.solve_h(2) == 0.0
        assert enc.true_answer() == 0.0

    def test_endpoint_closed_forms_match_lp_limit(self):
        """G is continuous on [0, |P|], so the i=0 / i=|P| closed forms
        must agree with near-endpoint LP solves (solve_h / solve_g
        shortcut the endpoints; this pins the closed forms against the
        compiled LP itself)."""
        participants = ["a", "b", "c", "d"]
        annotated = [
            (parse("a & b"), 1.0),
            (parse("(a | c) & d"), 2.0),
            (parse("b & c & d"), 0.5),
        ]
        enc = encode_relation(participants, annotated)
        n = len(participants)
        assert enc.solve_g(n) == pytest.approx(enc.solve_g(n - 1e-7), abs=1e-4)
        assert enc.solve_g(0) == pytest.approx(enc.solve_g(1e-7), abs=1e-4)
        assert enc.solve_h(n) == pytest.approx(enc.solve_h(n - 1e-7), abs=1e-4)
        assert enc.solve_h(0) == pytest.approx(enc.solve_h(1e-7), abs=1e-4)


class TestSolveXRelaxation:
    def test_large_delta_prefers_full_index(self):
        participants = list("abcdef")
        annotated = [(And([Var(p) for p in t]), 1.0) for t in ("abc", "bcd", "cde")]
        enc = encode_relation(participants, annotated)
        value, i_prime = enc.solve_x_relaxation(100.0)
        assert i_prime == pytest.approx(6.0, abs=1e-6)
        assert value == pytest.approx(3.0, abs=1e-4)

    def test_small_delta_prefers_low_index(self):
        participants = list("abcdef")
        annotated = [(And([Var(p) for p in t]), 1.0) for t in ("abc", "bcd", "cde")]
        enc = encode_relation(participants, annotated)
        value, i_prime = enc.solve_x_relaxation(0.1)
        # X = min_i H_i + (6-i)*0.1; H_5=0 so X <= 0.1
        assert value <= 0.1 + 1e-6

    def test_matches_index_scan(self):
        participants = ["a", "b", "c", "d"]
        annotated = [
            (parse("a & b"), 1.0),
            (parse("(b & c) | d"), 2.0),
        ]
        enc = encode_relation(participants, annotated)
        for delta in (0.05, 0.3, 1.0, 5.0):
            relaxed, _ = enc.solve_x_relaxation(delta)
            scan = min(enc.solve_h(i) + (4 - i) * delta for i in range(5))
            assert relaxed <= scan + 1e-7

    def test_negative_delta_rejected(self):
        enc = encode_relation(["a"], [(Var("a"), 1.0)])
        with pytest.raises(LPError):
            enc.solve_x_relaxation(-1.0)


class TestBackendAgreement:
    def test_scipy_and_simplex_agree(self):
        participants = ["a", "b", "c"]
        annotated = [
            (parse("a & b"), 1.0),
            (parse("(a | c) & b"), 2.0),
        ]
        enc_scipy = EncodedRelation(participants, annotated, LinprogBackend())
        enc_simplex = EncodedRelation(participants, annotated, SimplexBackend())
        for i in range(4):
            assert enc_scipy.solve_h(i) == pytest.approx(
                enc_simplex.solve_h(i), abs=1e-6
            )
            assert enc_scipy.solve_g(i) == pytest.approx(
                enc_simplex.solve_g(i), abs=1e-6
            )
