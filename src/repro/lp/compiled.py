"""The φ-epigraph LP compiled once into reusable solver structures.

The efficient recursive mechanism solves the *same* base program —
the epigraph rows of every annotation node, box bounds, and the
``Σ_t q(t)·v_root(t)`` objective — dozens of times per release, varying
only a tiny per-call overlay:

* ``H_i``: one equality row ``Σ_p f_p = i`` whose RHS is the only thing
  that changes between calls;
* ``G_i``: one extra column ``z`` and one ``z ≥ Σ_t q·S_{t,p}·v_root(t)``
  row per participant (identical across calls) plus the same mass row;
  the Δ search seeds this model at ``i = |P|`` or ``i = 0`` and walks
  it from probe to probe, re-solving each one from the previous
  probe's basis;
* the ``X`` step (Eq. 20): a rank-one perturbation of the objective by
  ``-Δ̂`` on the participant columns, re-solved from the X model's last
  optimal basis (:meth:`CompiledProgram.solve_x`); the H entries next to
  its optimum are resumed from that basis with the mass row appended
  (:meth:`CompiledProgram.solve_h_on_x`).

The program has a participant column for each *active* participant
only, one that some annotation names: an idle participant would enter
every overlay through the mass row alone, so
:class:`~repro.relax.encode.EncodedRelation` counts the idle ones and
shifts the mass index by their number instead (``|P|`` and ``i`` here
are the active program's).

A conjunctive relation may also compile a second program over its core,
the rows that share a participant with another row: an isolated row
adds a closed form to ``G``, so the Δ search walks the core's G model
at a τ-dependent shifted index
(:meth:`~repro.relax.encode.EncodedRelation.core_index`).  That program
only ever builds its G overlay; with no isolated row the core is the
active program itself.

This is the only way the φ-epigraph LP is solved.  A
:class:`CompiledProgram` performs the assembly exactly once and loads
each overlay, converted once from COO triplets to the CSC matrix the
solver takes, into a model the backend builds
(:meth:`~repro.lp.backends.SolverBackend.build_persistent`; in
production a persistent HiGHS model,
:class:`~repro.lp.highs_engine.PersistentLP`), so every solve is
``set_row_bounds`` / ``set_col_costs`` on that model and ``solve``.

``tests/test_compiled_equivalence.py`` holds the HiGHS models and a
test-side one-shot SciPy backend to a from-scratch reference that
rebuilds each program from the encoded relation's triplets and solves it
with a dense simplex.
"""

from __future__ import annotations

import time
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from ..errors import LPError
from ..obs import metrics as obs_metrics
from ..obs import SIZE_BUCKETS
from ..parallel.pool import register_fork_reset
from .backends import PersistentModel
from .model import LPSolution

__all__ = ["CompiledProgram"]

_INF = float("inf")

#: How far below ``|P|``, as a share of ``|P|``, a walk's first probe may
#: lie for the walk to open at ``G_{|P|}`` rather than at ``G_0``.  From
#: ``f ≡ 1`` the resumed dual simplex pays about one pivot per variable
#: that must leave its upper bound, so that seed pays off only near
#: ``|P|``; from ``f ≡ 0`` a walk costs about what a cold solve does.
#: Since the Δ search skips G's zero region, every walk's first LP probe
#: on perfbench's ``cold-release`` corpus and on the paper-scale 100- to
#: 200-node graphs lies within 0.18 of ``|P|``, so any reach from 0.18 up
#: gives the same walks (identical ``cold-release`` LP iterations for 0.2
#: to 0.5); an earlier probe order put the crossover between 0.25 and
#: 0.34.  ``|P|`` is the active participant count: the active columns are
#: the ones the dual simplex pays for.
_TOP_SEED_REACH = 0.3


def _observe_solve(overlay: str, backend, elapsed: float, model) -> None:
    """Record one overlay solve: latency always, solver iterations when
    the model reports them."""
    registry = obs_metrics()
    registry.histogram(
        "repro_lp_solve_seconds", overlay=overlay, backend=backend.name
    ).observe(elapsed)
    iterations = model.last_iteration_count
    if iterations:
        registry.histogram(
            "repro_lp_iterations",
            buckets=SIZE_BUCKETS,
            overlay=overlay,
            backend=backend.name,
        ).observe(float(iterations))


class CompiledProgram:
    """One-time assembly of the epigraph LP plus cheap overlay solves.

    Parameters
    ----------
    num_variables:
        Structural variable count (participants first, then node variables).
    num_participants:
        Number of (active) participant columns; these occupy indices
        ``0..num_participants-1`` and carry the mass row.
    ub_rows / ub_cols / ub_vals / ub_rhs:
        COO triplets of the base epigraph constraints, already normalized
        to ``A_ub x <= b_ub`` form.
    objective:
        Dense ``Σ_t q(t)·v_root(t)`` coefficient vector (length
        ``num_variables``).
    objective_constant:
        Weight of constant-``True`` annotations, added to every H/X value.
    g_rows:
        The Eq. 19 min-max rows as one CSR triple ``(indptr, cols, vals)``:
        row ``r`` holds ``q·S`` at each root column of a participant with
        positive sensitivity, entries ``indptr[r]:indptr[r + 1]``.
    backend:
        The :class:`~repro.lp.backends.SolverBackend` (in production
        :data:`~repro.lp.highs_engine.HIGHS`): one model per overlay is
        built from the compiled blocks through its ``build_persistent``
        and mutated in place per call.
    g_only:
        True for a program that only ever solves ``G`` (a conjunctive
        relation's core): it skips the epigraph CSC and the certificate
        transposes, which are then built on first use.  Any other
        program builds them here.  Only a release that solves the X LP
        prices an X certificate (on a conjunctive relation, one whose
        ``Δ̂`` is at most the largest load), yet building them lazily
        measured live-updates p50 4–8% lower and cold-release p50 6–8%
        higher on 2 vCPUs, so the build stays eager.
    """

    def __init__(
        self,
        num_variables: int,
        num_participants: int,
        ub_rows: np.ndarray,
        ub_cols: np.ndarray,
        ub_vals: np.ndarray,
        ub_rhs: np.ndarray,
        objective: np.ndarray,
        objective_constant: float,
        g_rows: Tuple[np.ndarray, np.ndarray, np.ndarray],
        backend,
        g_only: bool = False,
    ):
        if not hasattr(backend, "build_persistent"):
            raise LPError(
                f"backend {backend!r} has no build_persistent entry point; "
                "every LP backend must implement build_persistent"
            )
        self.backend = backend
        self.num_variables = int(num_variables)
        self.num_participants = int(num_participants)
        if len(objective) != self.num_variables:
            raise LPError(
                f"{self._err_prefix()} objective length does not match "
                "variable count"
            )

        # the epigraph rows as triplets, which the H and G overlays stack
        # their rows onto
        self._b_ub = np.asarray(ub_rhs, dtype=float)
        self._ub_coo = (ub_rows, ub_cols, ub_vals)
        if not g_only:
            # their CSC matrix and its transposes (_a_ub, _a_ub_t,
            # _abs_a_ub_t): built here, next to the triplets, they cost
            # less than on first use after the Δ search's solves
            self._abs_a_ub_t

        self._c = np.asarray(objective, dtype=float)
        self._constant = float(objective_constant)
        self._g_indptr, self._g_cols, self._g_vals = g_rows
        self.num_g_rows = len(self._g_indptr) - 1
        # lazily assembled: the G overlay's build_persistent arguments,
        # and one model per overlay
        self._g_overlay: Optional[Dict] = None
        self._h_model: Optional[PersistentModel] = None
        self._g_model: Optional[PersistentModel] = None
        self._x_model: Optional[PersistentModel] = None
        #: the X model's last optimal basis, where the next X solve resumes
        self._x_basis = None
        # Forked workers inherit the compiled arrays copy-on-write but must
        # re-instantiate the per-process persistent models lazily.
        register_fork_reset(self)

    def _err_prefix(self) -> str:
        """The ``[lp-solver <name>]`` prefix of every LPError raised here."""
        name = getattr(self.backend, "name", None) or type(self.backend).__name__
        return f"[lp-solver {name}]"

    def fork_reset(self) -> None:
        """Drop per-process solver state (called in each forked worker).

        The compiled arrays (CSC blocks, objective, the lazily
        assembled G overlay) are process-agnostic and stay shared through
        copy-on-write; only the persistent models — live solver state
        owned by the parent — are dropped, to be rebuilt lazily from the
        shared arrays on first use in the worker.
        """
        self._h_model = None
        self._g_model = None
        self._x_model = None
        self._x_basis = None

    # -- shared helpers ------------------------------------------------------
    @property
    def num_ub_rows(self) -> int:
        """Rows of the base ``A_ub x <= b_ub`` block (the H and X models'
        mass row, when present, comes right after them)."""
        return len(self._b_ub)

    @cached_property
    def _a_ub(self) -> sparse.csc_matrix:
        """The epigraph rows in the solver's CSC format: the X model's
        matrix, and what every certificate prices."""
        ub_rows, ub_cols, ub_vals = self._ub_coo
        return sparse.csc_matrix(
            (ub_vals, (ub_rows, ub_cols)), shape=(self.num_ub_rows, self.num_variables)
        )

    @cached_property
    def _a_ub_t(self):
        """``A_ubᵀ``, built with the first certificate (certify.py)."""
        return self._a_ub.T

    @cached_property
    def _abs_a_ub_t(self):
        """``|A_ub|ᵀ``, built with the first certificate (certify.py)."""
        return abs(self._a_ub_t)

    def _ub_row_lower(self) -> np.ndarray:
        return np.full(self.num_ub_rows, -_INF)

    def _stacked(self, rows, cols, vals, shape) -> sparse.csc_matrix:
        """The epigraph rows plus the COO entries ``(rows, cols, vals)``,
        converted once to CSC (duplicate entries summed)."""
        parts = zip(self._ub_coo, (rows, cols, vals))
        ub_rows, ub_cols, ub_vals = (np.concatenate(pair) for pair in parts)
        return sparse.csc_matrix((ub_vals, (ub_rows, ub_cols)), shape=shape)

    def _with_constant(self, solution: LPSolution, constant: float) -> LPSolution:
        if solution.is_optimal and constant:
            solution.objective += constant
        return solution

    # -- H -------------------------------------------------------------------
    def _ensure_h_model(self) -> PersistentModel:
        if self._h_model is None:
            p, mass_row = self.num_participants, self.num_ub_rows
            self._h_model = self.backend.build_persistent(
                self._stacked(
                    np.full(p, mass_row),
                    np.arange(p),
                    np.ones(p),
                    (mass_row + 1, self.num_variables),
                ),
                col_costs=self._c,
                col_lower=np.zeros(self.num_variables),
                col_upper=np.ones(self.num_variables),
                row_lower=np.append(self._ub_row_lower(), 0.0),
                row_upper=np.append(self._b_ub, 0.0),
            )
        return self._h_model

    def solve_h(self, i: float) -> LPSolution:
        """``H_i`` with only the mass-row RHS rebound per call."""
        tick = time.perf_counter()
        model = self._ensure_h_model()
        model.set_row_bounds(self.num_ub_rows, float(i), float(i))
        solution = self._with_constant(model.solve(), self._constant)
        _observe_solve("h", self.backend, time.perf_counter() - tick, model)
        return solution

    # -- G -------------------------------------------------------------------
    def _build_g_overlay(self) -> Dict:
        """Append the ``z`` column and per-participant min-max rows once.

        The CSC matrix is converted once from one set of COO triplets:
        the epigraph rows, the min-max rows (the CSR triple's entries),
        their ``-z`` entries, and the mass row over the participants.
        """
        n, p = self.num_variables, self.num_participants
        num_g, num_ub = self.num_g_rows, self.num_ub_rows
        # rows: the epigraph rows, the min-max rows, the mass row;
        # columns: the structural variables, z
        g_rows = np.arange(num_ub, num_ub + num_g, dtype=np.int64)
        mass_row = num_ub + num_g
        entry_rows = np.repeat(g_rows, np.diff(self._g_indptr))
        matrix = self._stacked(
            np.concatenate([entry_rows, g_rows, np.full(p, mass_row)]),
            np.concatenate([self._g_cols, np.full(num_g, n), np.arange(p)]),
            np.concatenate([self._g_vals, np.full(num_g, -1.0), np.ones(p)]),
            (mass_row + 1, n + 1),
        )
        costs = np.zeros(n + 1)
        costs[n] = 1.0  # minimise z
        return {
            "matrix": matrix,
            "col_costs": costs,
            "col_lower": np.zeros(n + 1),
            "col_upper": np.append(np.ones(n), _INF),
            "row_lower": np.concatenate(
                [self._ub_row_lower(), np.full(num_g, -_INF), [0.0]]
            ),
            "row_upper": np.concatenate([self._b_ub, np.zeros(num_g), [0.0]]),
        }

    def _g_mass_row(self) -> int:
        """The G model's mass row: after the epigraph and min-max rows."""
        return self.num_ub_rows + self.num_g_rows

    def _ensure_g_model(self) -> PersistentModel:
        if self._g_model is None:
            if self._g_overlay is None:
                self._g_overlay = self._build_g_overlay()
            self._g_model = self.backend.build_persistent(**self._g_overlay)
        return self._g_model

    def solve_g(self, i: float, resume: bool = False) -> LPSolution:
        """The Eq. 19 min-max LP; the z overlay is assembled on first use.

        ``resume`` re-solves the G model from its previous basis.
        """
        if not self.num_g_rows:
            raise LPError(
                f"{self._err_prefix()} relation has no G rows — " "G_i is identically 0"
            )
        tick = time.perf_counter()
        model = self._ensure_g_model()
        model.set_row_bounds(self._g_mass_row(), float(i), float(i))
        solution = model.solve(resume=resume)
        _observe_solve("g", self.backend, time.perf_counter() - tick, model)
        return solution

    # -- batched cold H solves ----------------------------------------------
    def solve_many(self, indices: Sequence[float]) -> List[LPSolution]:
        """Cold ``H_i`` solves for several indices, in order, in-process.

        The same :meth:`solve_h` calls a caller would make one by one;
        kept as one entry point so a batch of cold misses shows as one
        call in profiles.
        """
        return [self.solve_h(float(i)) for i in indices]

    # -- the Δ-search walk --------------------------------------------------
    def solve_g_decide(self, i: float, threshold: float):
        """Decide ``G_i ≤ threshold``; returns ``(bool, exact G_i, slope)``.

        One Δ search is a walk on the exact Eq. 19 model that never solves
        cold at an interior index.  A walk with no G model builds one and
        seeds it at a closed-form vertex: mass RHS ``|P|`` when its first
        probe lies within :data:`_TOP_SEED_REACH` of it, else mass RHS 0.
        The mass row forces ``f ≡ 1`` or ``f ≡ 0`` there, so presolve
        fixes every column and the cold solve takes no iterations.  The
        seed's value is discarded (``G_0`` and ``G_{|P|}`` have closed
        forms); it only supplies a basis.  Every probe then moves the mass
        row and resumes from the previous optimal basis.  The row move
        leaves that basis dual feasible, so the HiGHS engine re-solves with
        dual simplex.  Each probe yields the exact value, which the caller
        keeps to tighten its convexity bounds, and ``slope``, twice the
        mass row's dual: a subgradient of the convex ``G`` at ``i`` (None
        when the model reports no duals, as the test-side simplex oracle
        does not).
        :meth:`end_g_walk` drops the model when the search ends, so no
        search starts from another's basis.  A solve that is not optimal,
        the seed's included, raises :class:`~repro.errors.LPError` naming
        its status — it is never read as ``G_i > threshold``.
        """
        if not self.num_g_rows:
            return 0.0 <= threshold, 0.0, None

        def checked(solution: LPSolution) -> LPSolution:
            if not solution.is_optimal:
                raise LPError(
                    f"{self._err_prefix()} G_{i} <= {threshold} probe failed: "
                    f"{solution.status} {solution.message}"
                )
            return solution

        if self._g_model is None:
            top = self.num_participants
            seed = top if top - i <= _TOP_SEED_REACH * top else 0.0
            checked(self.solve_g(seed))
        solution = checked(self.solve_g(i, resume=True))
        value = max(0.0, 2.0 * float(solution.objective))
        slope = None
        if solution.row_dual is not None:
            slope = 2.0 * float(solution.row_dual[self._g_mass_row()])
        return value <= threshold, value, slope

    def end_g_walk(self) -> None:
        """Free the Δ-search walk's G model (the next walk seeds a new one)."""
        self._g_model = None

    # -- X -------------------------------------------------------------------
    def solve_x(self, delta_hat: float) -> LPSolution:
        """Eq. 20: the base program with a ``-Δ̂`` objective perturbation.

        The first solve on a model is cold.  Every later one resumes from
        the model's last optimal X basis (:attr:`_x_basis`): only the
        participant costs ``c − Δ̂`` change between X solves, which leaves
        that basis primal feasible, so a few simplex pivots restore
        optimality where a cold solve of an IPM-size program would run
        IPM and crossover again.  A solve that is not optimal drops the
        basis, and the next one is cold.
        """
        constant = self._constant + self.num_participants * float(delta_hat)
        tick = time.perf_counter()
        if self._x_model is None:
            self._x_model = self.backend.build_persistent(
                self._a_ub,
                col_costs=self._c,
                col_lower=np.zeros(self.num_variables),
                col_upper=np.ones(self.num_variables),
                row_lower=self._ub_row_lower(),
                row_upper=self._b_ub,
            )
        model = self._x_model
        model.set_col_costs(
            np.arange(self.num_participants),
            self._c[: self.num_participants] - float(delta_hat),
        )
        solution = model.solve(resume=self._x_basis is not None)
        self._x_basis = model.get_basis() if solution.is_optimal else None
        solution = self._with_constant(solution, constant)
        _observe_solve("x", self.backend, time.perf_counter() - tick, model)
        return solution

    def solve_h_on_x(self, indices: Sequence[float]) -> Optional[List[LPSolution]]:
        """``H`` at each index, resumed from the X model's optimal basis.

        Appends the mass row ``Σ_p f_p = i`` to the X model, which leaves
        the last X solve's optimal basis dual feasible (the row's slack
        enters it), re-solves each index by dual simplex from that basis,
        and deletes the row again.  The X basis is then loaded back, so
        the X model is the same program at the same basis afterwards and
        the next X solve resumes from the X optimum, not from the last
        index's.  The X objective differs from the H objective by
        ``-Δ̂·Σf``, a constant on the slice, so each solution is optimal
        for ``H_i``; its objective is not ``H_i`` and is not read.
        Returns None when there is no optimal X basis or the model cannot
        add a row (the test-side array models, whose solves are cold
        anyway).
        """
        model = self._x_model
        if model is None or self._x_basis is None:
            return None
        p = self.num_participants
        row = model.add_row(np.arange(p), np.ones(p), 0.0, 0.0)
        if row is None:
            return None
        start = model.get_basis()
        solutions = []
        try:
            for i in indices:
                tick = time.perf_counter()
                if solutions:
                    model.set_basis(start)
                model.set_row_bounds(row, float(i), float(i))
                solutions.append(model.solve(resume=True))
                _observe_solve("h", self.backend, time.perf_counter() - tick, model)
        finally:
            model.delete_row(row)
            model.set_basis(self._x_basis)
        return solutions

    def __repr__(self) -> str:
        return (
            f"CompiledProgram(num_variables={self.num_variables}, "
            f"num_ub_rows={self.num_ub_rows}, "
            f"num_g_rows={self.num_g_rows}, "
            f"backend={self.backend.name!r})"
        )
