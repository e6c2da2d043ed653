"""The recursive mechanism skeleton (Sec. 4.1).

Both implementations share the same three steps, differing only in how they
evaluate entries of the recursive sequence ``H`` and its g-bounding sequence
``G``:

1. ``Δ = min{ e^{iβ}θ : G_{|P|-i} ≤ e^{iβ}θ }``  (Eq. 11).  ``ln Δ`` has
   global sensitivity ≤ β (Lemma 1), so releasing
   ``Δ̂ = e^{μ+Y}·Δ`` with ``Y ~ Lap(β/ε1)`` is ε1-differentially private
   (Lemma 4).
2. ``X = min_i { H_i + (|P|-i)·Δ̂ }``  (Eq. 12); for any fixed ``Δ̂ ≥ 0``,
   ``X`` has global sensitivity ≤ Δ̂ (Lemma 7).  When ``H`` is convex
   and its top chord ``H_{|P|} − H_{|P|-1}`` is known exactly, every
   ``Δ̂`` above that chord has argmin ``|P|``.  The argmin is
   nondecreasing in ``Δ̂`` for any sequence ``H``, so once two earlier
   releases at ``Δ̂_a ≤ Δ̂ ≤ Δ̂_b`` returned the same index ``k``, ``k`` is
   the argmin at ``Δ̂`` and ``X`` needs only the cached ``H_k``
   (:meth:`RecursiveMechanismBase.x_step`).
3. Release ``X̂ = X + Lap(Δ̂/ε2)`` — ε2-differentially private, giving
   ``(ε1+ε2)``-differential privacy overall (Theorem 1).

Because ``G_i`` is nondecreasing in ``i``, ``G_{|P|-j} - e^{jβ}θ`` is
nonincreasing in ``j`` and the minimal feasible ``j`` is found by binary
search over ``O(log)`` G-entries (Sec. 5.3).
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import MechanismError
from ..obs import metrics as obs_metrics
from ..results import ResultBase
from ..rng import RngLike, ensure_rng, laplace
from .params import RecursiveMechanismParams

__all__ = ["MechanismResult", "RecursiveMechanismBase"]


def _index_key(i):
    """Cache key for a sequence index: int when integral, else float.

    Integral floats must share the slot with int callers, and genuine
    fractional indices (``solve_h``/``solve_g`` support them) must not be
    truncated onto their floor's entry.
    """
    return int(i) if float(i) == int(i) else float(i)


@dataclass
class MechanismResult(ResultBase):
    """Everything the mechanism run produced.

    Only :attr:`answer` is differentially private output; the remaining
    fields are diagnostics for experiments (they must not be released to an
    untrusted party — in particular :attr:`delta` and :attr:`x_value` are
    the *pre-noise* intermediates).  Error accounting
    (``absolute_error`` / ``relative_error``) comes from
    :class:`~repro.results.ResultBase`.
    """

    answer: float
    delta: float
    delta_hat: float
    x_value: float
    x_index: float
    j_star: int
    params: RecursiveMechanismParams
    true_answer: Optional[float] = None
    seconds: float = 0.0
    diagnostics: Dict[str, float] = field(default_factory=dict)


class RecursiveMechanismBase:
    """Shared Δ/X machinery; subclasses provide the sequence entries.

    Subclasses implement :meth:`_h_entry` and :meth:`_g_entry` (both are
    cached here) and may override :meth:`_compute_x` when they can do better
    than scanning every index (the efficient mechanism solves one LP and
    reads the at most two H-entries it needs off that LP instead).
    """

    def __init__(self):
        self._h_cache: Dict[int, float] = {}
        self._g_cache: Dict[int, float] = {}
        # (i, threshold) -> bool, for Δ searches that probe the predicate
        # G_i <= threshold without materializing the exact entry
        self._g_pred_cache: Dict[Tuple[int, float], bool] = {}
        # sorted (Δ̂, argmin) decisions of earlier X steps; per argmin only
        # the smallest and largest Δ̂ are kept (see x_step)
        self._x_brackets: List[Tuple[float, int]] = []

    # -- to be provided by implementations --------------------------------------
    @property
    def num_participants(self) -> int:
        raise NotImplementedError

    def _h_entry(self, i: int) -> float:
        raise NotImplementedError

    def _h_entries(self, indices) -> list:
        """Batch hook for ``H``; the default evaluates pointwise.

        An implementation that can pick a cheaper route per entry
        overrides this (the efficient mechanism reads entries off an open
        X step); every entry is solved in-process either way."""
        return [self._h_entry(i) for i in indices]

    def _g_entry(self, i: int) -> float:
        raise NotImplementedError

    def true_answer(self) -> Optional[float]:
        """``H_{|P|}`` when known exactly (for diagnostics), else None."""
        return None

    def _h_top_chord(self) -> Optional[float]:
        """``H_{|P|} − H_{|P|-1}`` when it is known exactly *and* ``H`` is
        convex, else None (the default): :meth:`x_step` then decides every
        ``Δ̂`` above it in closed form.  An implementation that knows only
        a bound on the chord, or whose ``H`` need not be convex, keeps
        None."""
        return None

    # -- cached access ------------------------------------------------------------
    def h_entry(self, i: int) -> float:
        """Cached ``H_i``."""
        if i not in self._h_cache:
            self._h_cache[i] = float(self._h_entry(i))
        return self._h_cache[i]

    def h_entries(self, indices) -> list:
        """Cached batched ``H`` — the misses go through :meth:`_h_entries`
        in one round trip (the batched entry point used by the X step and
        the runtime harness)."""
        wanted = [_index_key(i) for i in indices]
        missing: list = []
        for i in wanted:
            if i not in self._h_cache and i not in missing:
                missing.append(i)
        if missing:
            values = self._h_entries(missing)
            if len(values) != len(missing):
                raise MechanismError(
                    f"batched H solve returned {len(values)} values "
                    f"for {len(missing)} indices"
                )
            for i, value in zip(missing, values):
                self._h_cache[i] = float(value)
        return [self._h_cache[i] for i in wanted]

    def g_entry(self, i: int) -> float:
        """Cached ``G_i``."""
        if i not in self._g_cache:
            self._g_cache[i] = float(self._g_entry(i))
        return self._g_cache[i]

    def g_entry_leq(self, i: int, threshold: float) -> bool:
        """The monotone predicate ``G_i ≤ threshold`` — all the Δ search
        consumes.  The default compares the (cached) exact entry;
        implementations with a cheaper exact threshold test override
        :meth:`_g_predicate`."""
        index = _index_key(i)
        if index in self._g_cache:
            return self._g_cache[index] <= threshold
        key = (index, float(threshold))
        if key not in self._g_pred_cache:
            self._g_pred_cache[key] = bool(self._g_predicate(i, threshold))
        return self._g_pred_cache[key]

    def _g_predicate(self, i: int, threshold: float) -> bool:
        """Predicate hook; the default evaluates the exact entry."""
        return self.g_entry(i) <= threshold

    def _g_zero_index(self) -> int:
        """An integer ``i₀`` with ``G_i = 0`` for every ``i ≤ i₀``.

        The default knows only ``G_0 = 0``; an implementation with a
        closed-form zero region overrides this so :meth:`compute_delta`
        skips it."""
        return 0

    # -- step 1: Δ -----------------------------------------------------------------
    def compute_delta(self, params: RecursiveMechanismParams) -> Tuple[float, int]:
        """Eq. 11 via binary search; returns ``(Δ, j*)``.

        ``j*`` is the minimal ``j`` with ``G_{|P|-j} ≤ e^{jβ}θ``; Lemma 3
        guarantees ``j* = ln(Δ/θ)/β`` and Sec. 5.3 bounds it by
        ``1 + ln(G_{|P|}/θ)/β``, which we use to clip the search range so
        only ``O(log(ln(G)/β))`` G-entries are evaluated.  ``G`` is 0 on
        its zero region ``i ≤ i₀`` (:meth:`_g_zero_index`), and ``θ > 0``,
        so ``j = |P| − i₀`` is always feasible and clips the range too:
        ``hi = min(|P|, j_max, |P| − i₀)``.  The predicate is monotone in
        ``j``, so the clip changes which entries are probed, never
        ``(Δ, j*)``.
        """
        n = self.num_participants
        if n == 0:
            return params.theta, 0

        def feasible(j: int) -> bool:
            return self.g_entry_leq(n - j, math.exp(j * params.beta) * params.theta)

        g_full = self.g_entry(n)
        if g_full <= params.theta:
            return params.theta, 0
        j_max = 1 + int(math.ceil(math.log(g_full / params.theta) / params.beta))
        hi = min(n, j_max, n - self._g_zero_index())
        # Defensive: the analytic bound always satisfies the predicate when
        # hi == j_max; otherwise G = 0 at i₀ makes it feasible.
        if not feasible(hi):
            raise MechanismError(
                "internal error: upper end of Δ search is infeasible "
                f"(j={hi}, G={self.g_entry(n - hi)})"
            )
        lo = 0
        while lo < hi:
            mid = (lo + hi) // 2
            if feasible(mid):
                hi = mid
            else:
                lo = mid + 1
        return math.exp(lo * params.beta) * params.theta, lo

    # -- step 2: Δ̂ ------------------------------------------------------------------
    @staticmethod
    def noisy_delta(
        delta: float, params: RecursiveMechanismParams, rng: RngLike = None
    ) -> float:
        """``Δ̂ = e^{μ+Y} Δ`` with ``Y ~ Lap(β/ε1)`` (ε1-DP, Lemma 4)."""
        y = laplace(params.beta / params.epsilon1, rng)
        return math.exp(params.mu + y) * delta

    # -- step 3: X and the release -----------------------------------------------------
    def _compute_x(self, delta_hat: float) -> Tuple[float, float]:
        """Eq. 12 by full scan; returns ``(X, argmin index)``.

        Subclasses with cheap fractional minimization override this.
        """
        n = self.num_participants
        best = (math.inf, 0.0)
        values = self.h_entries(range(n + 1))
        for i, h_value in enumerate(values):
            value = h_value + (n - i) * delta_hat
            if value < best[0]:
                best = (value, float(i))
        return best

    def x_step(self, delta_hat: float) -> Tuple[float, float]:
        """Eq. 12 as :meth:`_compute_x` returns it, solved only when needed.

        First the top: when ``H`` is convex, so is
        ``F(i) = H_i + (|P|−i)·Δ̂`` on the integers, and
        ``F(|P|−1) − F(|P|) = Δ̂ − (H_{|P|} − H_{|P|−1})``.  A ``Δ̂``
        strictly above the exact top chord (:meth:`_h_top_chord`) makes
        that difference positive, so ``F`` decreases all the way to
        ``|P|``: the argmin is ``|P|`` and ``X = H_{|P|}``.  The
        comparison is exact, with no tolerance, and records no bracket:
        a bracket with none above it already ends at ``|P|``.

        Otherwise, for ``i < j`` the difference ``F(j) − F(i)`` strictly
        decreases in ``Δ̂``, so every argmin at a larger ``Δ̂`` is ≥
        every argmin at a smaller one (Topkis).  The nearest earlier
        decisions below and above ``Δ̂`` (or ``0`` / ``|P|`` when there is
        none) therefore bracket the argmin; when they agree it is fixed,
        and ``X`` is evaluated from the cached ``H_k`` by the same
        expression :meth:`_compute_x` uses.  The efficient mechanism's
        ``H_k`` has the same bits however it was reached (a snapped
        rational, :mod:`repro.lp.certify`), so the released bytes do not
        depend on the route.  Each decision counts once in
        ``repro_x_step_total{how}``: ``top``, ``bracket`` or ``solve``.
        """
        n = self.num_participants
        top = self._h_top_chord()
        if top is not None and delta_hat > top:
            _count_x_step("top")
            return self.h_entry(n) + (n - n) * delta_hat, float(n)
        brackets = self._x_brackets
        pos = bisect.bisect_left(brackets, (delta_hat,))
        if pos < len(brackets) and brackets[pos][0] == delta_hat:
            k_lo = k_hi = brackets[pos][1]
        else:
            k_lo = brackets[pos - 1][1] if pos else 0
            k_hi = brackets[pos][1] if pos < len(brackets) else n
        if k_lo == k_hi:
            _count_x_step("bracket")
            return self.h_entry(k_lo) + (n - k_lo) * delta_hat, float(k_lo)
        _count_x_step("solve")
        x_value, x_index = self._compute_x(delta_hat)
        k = int(x_index)
        if k_lo <= k <= k_hi:
            # an index outside the bracket can only be solver noise;
            # recording it would break the list's monotonicity
            brackets.insert(pos, (delta_hat, k))
            # a neighbour flanked by its own index on both sides is no
            # longer an end of its run
            for j in (pos + 1, pos - 1):
                if (0 < j < len(brackets) - 1
                        and brackets[j - 1][1] == brackets[j][1]
                        == brackets[j + 1][1]):
                    del brackets[j]
        return x_value, x_index

    def run(
        self, params: RecursiveMechanismParams, rng: RngLike = None
    ) -> MechanismResult:
        """Execute the full ``(ε1+ε2)``-differentially private release."""
        generator = ensure_rng(rng)
        start = time.perf_counter()
        delta, j_star = self.compute_delta(params)
        delta_hat = self.noisy_delta(delta, params, generator)
        x_value, x_index = self.x_step(delta_hat)
        answer = x_value + laplace(delta_hat / params.epsilon2, generator)
        seconds = time.perf_counter() - start
        return MechanismResult(
            answer=answer,
            delta=delta,
            delta_hat=delta_hat,
            x_value=x_value,
            x_index=x_index,
            j_star=j_star,
            params=params,
            true_answer=self.true_answer(),
            seconds=seconds,
            diagnostics={
                "num_participants": float(self.num_participants),
                "h_entries_evaluated": float(len(self._h_cache)),
                "g_entries_evaluated": float(len(self._g_cache)),
                "g_predicates_evaluated": float(len(self._g_pred_cache)),
            },
        )


def _count_x_step(how: str) -> None:
    """Count one X-step decision by how it was made."""
    obs_metrics().counter("repro_x_step_total", how=how).inc()
