"""The efficient recursive mechanism for sensitive K-relations (Sec. 5).

``H_i`` (Eq. 16) and the 2-bounding ``G_i`` (Eq. 19) are evaluated as linear
programs over the φ-epigraph encoding (:mod:`repro.relax.encode`).  The
Δ search touches ``O(log(ln G/β))`` G-entries (Sec. 5.3).  The X step is
usually decided with no LP
(:meth:`~repro.core.framework.RecursiveMechanismBase.x_step`).  On a
conjunctive counting relation ``H_{|P|} − H_{|P|−1}`` is exactly the
largest participant load ``d`` (one unit of mass taken from ``f ≡ 1``
lowers the rows it touches by at most ``d`` in all), and ``H`` is convex
(Lemma 10), so every ``Δ̂ > d`` has argmin ``|P|`` and ``X = q(supp R)``.
Below that, the argmin of Eq. 12 is monotone in ``Δ̂``, so earlier
releases of the same mechanism bracket it.  Only when they do not does it
solve the continuous relaxation Eq. 20 as a single LP
and use convexity of ``H`` (Lemma 10) to restrict the integer argmin to
``{⌊i'⌋, ⌈i'⌉}``.  That LP is solved cold only the first time: later
X steps of the same mechanism resume from the last X optimum's basis,
since only the participant costs ``c − Δ̂`` differ.  Those H-entries come
off that LP too: an integral ``i'`` is read off its optimum, a
fractional one's neighbours are each resumed from its basis, each value
certified and snapped to a small rational (:mod:`repro.lp.certify`), and
only one that does not snap takes a cold H solve.

Overall cost is a polynomial of the total annotation length ``L`` — this is
the mechanism that makes node-differentially-private subgraph counting
practical (Theorem 6).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from ..errors import MechanismError
from ..lp.certify import UNIT_ROUNDOFF
from ..lp.highs_engine import HIGHS
from ..obs import metrics as obs_metrics
from ..relax.encode import EncodedRelation
from ..rng import RngLike
from .framework import MechanismResult, RecursiveMechanismBase, _index_key
from .params import RecursiveMechanismParams
from .queries import CountQuery, LinearQuery
from .sensitive import SensitiveKRelation

__all__ = ["EfficientRecursiveMechanism", "private_linear_query"]


def _convex_upper(known, i):
    """Chord upper bound on a convex sequence at ``i`` from exact points.

    ``known`` is a sorted list of ``(index, value)`` pairs.  Returns None
    when ``i`` is not bracketed (cannot happen once 0 and |P| are seeded).
    """
    left = right = None
    for index, value in known:
        if index <= i:
            left = (index, value)
        if index >= i and right is None:
            right = (index, value)
    if left is None or right is None:
        return None
    (il, gl), (ir, gr) = left, right
    if il == ir:
        return gl
    return gl + (i - il) * (gr - gl) / (ir - il)


def _convex_lower(known, i):
    """Secant lower bound on a convex nondecreasing sequence at ``i``.

    Combines monotonicity (the largest exact value left of ``i``) with
    outward secant extrapolation: slopes of a convex function increase,
    so the slope of the segment right of ``i`` is at least the chord
    slope of any segment further right, and symmetrically on the left.
    """
    best = 0.0
    below = [(index, value) for index, value in known if index <= i]
    above = [(index, value) for index, value in known if index >= i]
    if below:
        best = max(best, below[-1][1])  # monotone in i
        if len(below) >= 2:
            (i0, g0), (i1, g1) = below[-2], below[-1]
            if i1 > i0:
                best = max(best, g1 + (i - i1) * (g1 - g0) / (i1 - i0))
    if len(above) >= 2:
        (i1, g1), (i2, g2) = above[0], above[1]
        if i2 > i1:
            best = max(best, g1 - (i1 - i) * (g2 - g1) / (i2 - i1))
    return best


#: HiGHS's dual feasibility tolerance: how far a reported mass-row dual
#: may sit from a true subgradient of ``G``, per unit of ``|i − k|``.
_DUAL_TOLERANCE = 1e-7


def _tangent_exceeds(tangents, i, threshold) -> bool:
    """Whether a tangent of the convex ``G`` proves ``G_i > threshold``.

    ``tangents`` maps each LP-probed index ``k`` to ``(G_k, slope_k)``,
    where ``slope_k`` is a subgradient of ``G`` at ``k`` (the probe's
    mass-row dual), so ``G_i ≥ G_k + slope_k·(i − k)`` on both sides of
    ``k``.  A tangent decides only when it clears the threshold by
    ``1e-9·max(1, τ)`` plus the dual tolerance per unit of ``|i − k|``.
    """
    floor = threshold + 1e-9 * max(1.0, threshold)
    return any(
        value + slope * (i - k) > floor + _DUAL_TOLERANCE * abs(i - k)
        for k, (value, slope) in tangents.items()
    )


def _count_probe(how: str) -> None:
    """Count one Δ-search probe by how it was decided."""
    obs_metrics().counter("repro_delta_probes_total", how=how).inc()


class EfficientRecursiveMechanism(RecursiveMechanismBase):
    """LP-based recursive mechanism for a nonnegative linear query.

    Parameters
    ----------
    relation:
        The sensitive K-relation ``(P, R)``.
    query:
        The nonnegative per-tuple weight ``q+`` (default: counting).
    backend:
        LP backend; defaults to the persistent HiGHS solver
        (:data:`~repro.lp.highs_engine.HIGHS`).  A test seam: the
        simplex oracle and the failure-injection doubles go in here.
    normalize:
        If True, rewrite all annotations to canonical minimal DNF before
        encoding (guarantees ``S ≤ 1`` and safe annotations for hand-built
        relations; algebra-produced annotations are already safe, and for
        subgraph-counting relations they are already DNF).
    bounding:
        Which bounding sequence to use for the Δ computation:

        * ``"paper"`` — Eq. 19 exactly.  **Erratum** (README "Deviations
          from the paper"): for annotations containing disjunctions this
          sequence can violate Def. 17, inflating the effective ε1 by a
          data-dependent factor; for conjunctive annotations (all
          subgraph counting) it is sound and much tighter.
        * ``"uniform"`` — the sound ``Ĝ_i = 2·S̄·H_i`` sequence: valid for
          arbitrary annotations, looser on conjunctive ones.
        * ``"auto"`` (default) — ``"paper"`` when every annotation is a
          conjunction of variables, ``"uniform"`` otherwise.
    """

    def __init__(
        self,
        relation: SensitiveKRelation,
        query: Optional[LinearQuery] = None,
        backend=HIGHS,
        normalize: bool = False,
        bounding: str = "auto",
        s_bar=None,
    ):
        super().__init__()
        if bounding not in ("paper", "uniform", "auto"):
            raise MechanismError(
                f"bounding must be 'paper', 'uniform' or 'auto', got {bounding!r}"
            )
        if normalize:
            relation = relation.normalized()
        self.relation = relation
        self.query = query or CountQuery()
        from ..store.relation import ConjunctiveKRelation

        if (isinstance(relation, ConjunctiveKRelation)
                and type(self.query) is CountQuery):
            # Subgraph relations (plain graphs and the columnar store)
            # arrive as a participant-index matrix; encode it without ever
            # materializing per-occurrence annotation objects (or the
            # names of participants in no row).  Every annotation is by
            # construction a conjunction of distinct variables, so "auto"
            # bounding is "paper" with no inspection pass.
            self._encoded = EncodedRelation.from_conjunctions(
                relation.sorted_participants,
                relation.matrix,
                backend,
                idle=relation.num_idle,
            )
            if bounding == "auto":
                bounding = "paper"
        else:
            annotated = [
                (annotation, self.query(tup)) for tup, annotation in relation.items()
            ]
            self._encoded = EncodedRelation(
                sorted(relation.participants),
                annotated,
                backend,
            )
            if bounding == "auto":
                from ..boolexpr.transform import is_conjunction_of_vars

                bounding = (
                    "paper"
                    if all(
                        is_conjunction_of_vars(annotation)
                        for _, annotation in relation.items()
                    )
                    else "uniform"
                )
        self.bounding = bounding
        #: ``k → G_core(k)``: the core's exact G entries by core index,
        #: closed forms and LP probes (see _g_predicate)
        self._g_core: Dict[float, float] = {}
        #: ``k → (G_core(k), slope_k)`` for every LP-probed core entry that
        #: came with a subgradient
        self._g_tangents: Dict[float, Tuple[float, float]] = {}
        #: query-level φ-sensitivity cap for the "uniform" bounding mode;
        #: falls back to the max over the current annotations (see
        #: EncodedRelation.solve_g_uniform for the neighbor-consistency
        #: caveat — pass the query-derived constant for strict ε-DP).
        self.s_bar = s_bar

    # -- framework plumbing -------------------------------------------------------
    @property
    def num_participants(self) -> int:
        return self._encoded.num_participants

    def _h_entry(self, i: int) -> float:
        return self._encoded.solve_h(i)

    def _h_entries(self, indices) -> list:
        # route the framework's batched cache misses through the encoded
        # relation's entry point, which picks each entry's cheapest route
        return self._encoded.solve_h_many(indices)

    def _g_entry(self, i: int) -> float:
        if self.bounding == "uniform":
            return self._encoded.solve_g_uniform(i, s_bar=self.s_bar)
        return self._encoded.solve_g(i)

    def _g_zero_index(self) -> int:
        # Ĝ = 2·S̄·H under the uniform bounding has its own closed forms
        if self.bounding == "uniform":
            return self._encoded.num_idle
        return self._encoded.g_zero_index

    def _g_predicate(self, i: int, threshold: float) -> bool:
        """``G_i ≤ threshold`` by the cheapest exact route.

        Isolated rows and idle participants are an index shift: ``G_i ≤
        τ`` holds exactly when ``G_core(k) ≤ τ`` at the core index
        ``k = i − m − N·(w−1) − N·min(1, τ/2)``, for ``m`` idle
        participants and ``N`` isolated rows of width ``w``
        (:meth:`EncodedRelation.core_index`).  With no isolated row the
        core is the whole active program and ``k = i − m``.  Past the
        shift the search works in core coordinates: exact entries
        (:attr:`_g_core`) and tangents (:attr:`_g_tangents`) are the
        core's ``G``, keyed by core index.

        Each probe counts once in ``repro_delta_probes_total{how}``:

        * ``closed_form`` — the entry needs no LP: ``|P|``, and every
          ``i ≤ i₀``, the end of the zero region
          (:meth:`EncodedRelation.g_closed_form`), then the core's own zero
          region and top (:meth:`EncodedRelation.g_core_closed_form`);
          under the uniform bounding, a closed-form ``H_i``;
        * ``core_shift`` — ``k ≤ 0`` ("yes": the idle participants and
          isolated rows take all the mass within ``τ``) or ``k`` past the
          core's participant count ("no");
        * ``chord`` / ``secant`` — ``G_core`` is convex and nondecreasing
          (the LP value as a function of the mass RHS), so chords between
          known exact entries bound it from above and outward secants
          from below, deciding with no LP at all.  ``0``, the core's zero
          region end ``k₀`` and its top are seeded as exact entries, so
          the chord from ``(k₀, 0)`` to the top is there from the first
          probe; with no isolated row it is the bound the uniform point
          ``f ≡ a/n_act`` gives, ``2·max_p d_p·(w·a/n_act − (w−1))`` at
          ``i = m + a``, up to the rounding of ``i₀`` down to an integer;
        * ``tangent`` — each LP probe's mass-row dual is a subgradient of
          the convex ``G_core``, so its tangent bounds ``G_core`` from
          below on both sides of the probe; one that clears the threshold
          decides "no" with no LP (:func:`_tangent_exceeds`);
        * ``lp`` — otherwise one step of the Δ-search walk on the core's
          exact G model (``CompiledProgram.solve_g_decide``); the exact
          value and slope it returns are kept and tighten the bounds for
          later probes.  A backend that reports no duals yields no
          tangents: its decisions are the same, only more of them take an
          LP.
        """
        encoded = self._encoded
        if self.bounding == "uniform":
            # Ĝ = 2·S̄·H — one (cheap) H solve; keep the exact entry cached
            lp = encoded.h_closed_form(i) is None
            _count_probe("lp" if lp else "closed_form")
            return self.g_entry(i) <= threshold
        if encoded.g_closed_form(i) is not None:
            _count_probe("closed_form")
            return self.g_entry(i) <= threshold
        decided, k = encoded.core_index(i, threshold)
        if decided is not None:
            _count_probe("core_shift")
            return decided
        closed = encoded.g_core_closed_form(k)
        if closed is not None:
            _count_probe("closed_form")
            return closed <= threshold
        known = self._g_core
        if not known:
            # the ends of the core's zero region and its top are closed
            # forms — seed the bound cache for free
            for end in (0, encoded.core_zero_index, encoded.num_core_participants):
                known[end] = encoded.g_core_closed_form(end)
        exact = sorted(known.items())
        upper = _convex_upper(exact, k)
        if upper is not None and upper <= threshold:
            _count_probe("chord")
            return True
        if _convex_lower(exact, k) > threshold:
            _count_probe("secant")
            return False
        if _tangent_exceeds(self._g_tangents, k, threshold):
            _count_probe("tangent")
            return False
        _count_probe("lp")
        decided, value, slope = encoded.g_core_decide(k, threshold)
        key = _index_key(k)
        known[key] = value
        if slope is not None:
            self._g_tangents[key] = (value, slope)
        return decided

    def compute_delta(self, params: RecursiveMechanismParams) -> Tuple[float, int]:
        """Eq. 11 (see the base class), as one walk on the exact G model.

        The walk's model is freed when the search returns: a pool forked
        later does not inherit it, and the next search seeds a fresh one
        instead of starting from this one's basis.  The exact entries and
        tangents stay: they describe the same ``G``.
        """
        try:
            return super().compute_delta(params)
        finally:
            self._encoded.end_g_walk()

    def true_answer(self) -> float:
        """``q(supp(R)) = H_{|P|}`` (Theorem 3) without solving an LP."""
        return self._encoded.true_answer()

    def _h_top_chord(self) -> Optional[float]:
        # H is convex (Lemma 10); the chord is exact on a conjunctive
        # counting relation only (EncodedRelation.h_top_chord)
        return self._encoded.h_top_chord

    def _compute_x(self, delta_hat: float) -> Tuple[float, float]:
        """Eq. 12 via Eq. 20: one LP, and the H-entries it brackets.

        The fallback route of :meth:`x_step`, taken only when ``delta_hat``
        is at most the top chord (or there is none) and earlier decisions
        do not already bracket the argmin there.  The
        relaxation's optimum ``i'`` restricts the integer argmin to
        ``{⌊i'⌋, ⌈i'⌉}`` (Lemma 10).  Their H-entries come off the X LP
        while its step is open (:meth:`EncodedRelation.solve_h_many`): an
        integral ``i'`` is read off the optimum itself, a fractional one's
        neighbours are resumed from its basis, and only an entry whose
        certificate does not snap is solved cold.
        """
        n = self.num_participants
        relaxed_value, i_prime = self._encoded.solve_x_relaxation(delta_hat)
        try:
            candidates = sorted(
                {
                    max(0, min(n, int(math.floor(i_prime)))),
                    max(0, min(n, int(math.ceil(i_prime)))),
                    max(0, min(n, int(round(i_prime)))),
                }
            )
            values = self.h_entries(candidates)
            lower, upper = self._encoded.x_interval()
        finally:
            self._encoded.end_x_step()
        best_value = math.inf
        best_index = float(candidates[0])
        for i, h_value in zip(candidates, values):
            value = h_value + (n - i) * delta_hat
            if value < best_value:
                best_value, best_index, best_h = value, float(i), h_value
        # The integer optimum can never beat the continuous relaxation's
        # certified lower bound, up to the float rounding of
        # H_k + (n − k)·Δ̂; and the solver's relaxed value must not exceed
        # what its own point is worth.
        shift = (n - best_index) * delta_hat
        rounding = 4.0 * UNIT_ROUNDOFF * (abs(best_h) + shift + abs(best_value))
        if best_value + rounding < lower or relaxed_value > upper:
            raise MechanismError(
                "convexity violation in X computation: integer value "
                f"{best_value} and relaxed value {relaxed_value} against "
                f"the relaxation's certified interval [{lower}, {upper}]"
            )
        return best_value, best_index

    # -- diagnostics ---------------------------------------------------------------
    @property
    def lp_size(self) -> int:
        """Number of LP variables in the encoding (``O(L)``, Sec. 5.3)."""
        return self._encoded.num_lp_variables


def private_linear_query(
    relation: SensitiveKRelation,
    epsilon: float,
    query: Optional[LinearQuery] = None,
    node_privacy: bool = False,
    rng: RngLike = None,
    params: Optional[RecursiveMechanismParams] = None,
) -> MechanismResult:
    """One-call convenience wrapper: build the mechanism and run it once.

    Uses the paper's experimental parameter settings
    (:meth:`RecursiveMechanismParams.paper`) unless ``params`` is given.

    A thin wrapper over a one-query
    :class:`~repro.session.PrivateSession`; answers are byte-identical to
    the direct mechanism path at a fixed seed.  For several queries of one
    relation, hold a session yourself — repeats reuse the compiled LP.
    """
    from ..session import PrivateSession

    session = PrivateSession(relation)
    return session.query(
        query,
        epsilon=epsilon,
        privacy="node" if node_privacy else "edge",
        rng=rng,
        params=params,
    )
