"""Epigraph LP encoding of the relaxed sequences ``H_i`` and ``G_i``.

Every node of every annotation gets (at most) one LP variable, lower-bounded
by the epigraph of its relaxation:

* ``And`` node with children values ``v_1..v_m``:
  ``v >= v_1 + ... + v_m - (m-1)`` and ``v >= 0`` (Łukasiewicz t-norm);
* ``Or`` node: ``v >= v_j`` for each child (max);
* a ``Var`` leaf reuses the participant's assignment variable ``f_p`` —
  no extra column.

Both relaxations are *convex and monotone nondecreasing* in the children.
With a nonnegative objective weight on each root, any minimizing solution
drives every node variable down to its exact φ value (simple induction), so

* ``H_i = min Σ_t q(t)·v_root(t)  s.t.  Σ_p f_p = i``           (Eq. 16)
* ``G_i = 2·min z  s.t.  z ≥ Σ_t q(t)·S_{R(t),p}·v_root(t) ∀p,
  Σ_p f_p = i``                                                  (Eq. 19)
* ``X`` step (Eq. 20): ``min Σ_t q(t)·v_root(t) + (|P| - Σ_p f_p)·Δ̂``
  over the whole cube — one LP whose optimal ``Σ f_p`` is the real ``i'``.

are each a single linear program with ``O(L)`` variables, where ``L`` is the
total annotation length (Sec. 5.3).

A participant in no annotation (an *idle* one) enters these programs only
through the mass row ``Σ_p f_p = i``, where it can hold any mass in
``[0, 1]`` at no cost.  ``H`` and ``G`` are nondecreasing, so with ``m``
idle participants ``H_i = H^act_{max(0, i−m)}`` and
``G_i = G^act_{max(0, i−m)}``, and Eq. 20's optimum over the whole cube
is the active program's with ``i' = i'_act + m``.  The LPs therefore have
a column for each *active* participant only, and :class:`EncodedRelation`
carries ``m`` as an integer: it answers every index ``i ≤ m`` in closed
form and every other one at ``i − m`` on the active program.  Callers see
full indices ``0..|P|`` throughout.

``G`` goes one step further on a conjunctive relation of width ``w ≥ 2``
(:meth:`EncodedRelation.from_conjunctions`).  A row whose participants
occur in no other row is *isolated*; the other rows are the *core*.
``G_i ≤ τ`` is a statement about the largest mass that keeps every
load within ``τ/2``, and that mass adds up over independent parts: each
isolated row holds ``(w − 1) + min(1, τ/2)`` of it.  So with ``N``
isolated rows, ``G_i ≤ τ`` is ``G_core(k) ≤ τ`` at
``k = i − m − N·(w−1) − N·min(1, τ/2)``
(:meth:`EncodedRelation.core_index`), and the Δ search walks only the
core's G model (:meth:`EncodedRelation.g_core_decide`).

Every ``H`` value is certified and snapped to a small rational
(:mod:`repro.lp.certify`) before it is returned, whichever solve produced
it, so the route does not show in its bits.  While an X step is open
(:meth:`EncodedRelation.solve_x_relaxation` until
:meth:`EncodedRelation.end_x_step`), ``H`` entries are read off the X
relaxation's own optimum or resumed from its basis before any cold solve.

Encoding emits COO triplets straight into growable arrays, freezes them
into NumPy buffers, and compiles them once into a
:class:`~repro.lp.compiled.CompiledProgram`; every ``H``/``G``/``X`` solve
below is an overlay solve on that program, through a model the backend
builds once per overlay.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..boolexpr.expr import And, Expr, Or, Var, _Const
from ..boolexpr.sensitivity import phi_sensitivities
from ..errors import ExpressionError, LPError
from ..lp.certify import MAX_DENOMINATOR, UNIT_ROUNDOFF, Certificate, gamma
from ..lp.compiled import CompiledProgram
from ..lp.highs_engine import HIGHS
from ..lp.model import LPSolution
from ..obs import metrics as obs_metrics
from .phi import _phi_columns

__all__ = ["EncodedRelation", "encode_relation"]


def _count_h(how: str, entries: int = 1) -> None:
    """Count ``H`` entries by the route that produced them."""
    obs_metrics().counter("repro_h_entries_total", how=how).inc(entries)


def _count_unsnapped() -> None:
    """Count one ``H`` whose certified interval isolated no rational."""
    obs_metrics().counter("repro_h_unsnapped_total").inc()


class _ConjunctionBlocks(NamedTuple):
    """The LP blocks of a conjunction matrix (:func:`_conjunction_blocks`)."""

    ub: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    root_vars: np.ndarray
    num_structural: int
    g_rows: Tuple[np.ndarray, np.ndarray, np.ndarray]
    owners: np.ndarray
    counts: np.ndarray


def _conjunction_blocks(
    matrix: np.ndarray, num_participants: int
) -> _ConjunctionBlocks:
    """The epigraph triplets ``(rows, cols, vals, rhs)``, root variables
    and G-row CSR of the conjunctions in ``matrix`` (see
    :meth:`EncodedRelation.from_conjunctions`), with each G row's
    participant (``owners``) and each participant's row count."""
    n, width = matrix.shape
    if n == 0 or width == 1:
        ub = (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=float),
            np.empty(0, dtype=float),
        )
        root_vars = matrix[:, 0].copy() if n else np.empty(0, dtype=np.int64)
        num_structural = num_participants
    else:
        # one And node per row: v = P + r, row [-v, +children] <= m-1
        cols = np.empty((n, width + 1), dtype=np.int64)
        cols[:, 0] = num_participants + np.arange(n)
        cols[:, 1:] = matrix
        ub = (
            np.repeat(np.arange(n, dtype=np.int64), width + 1),
            cols.ravel(),
            np.tile(np.concatenate(([-1.0], np.ones(width))), n),
            np.full(n, float(width - 1)),
        )
        root_vars = num_participants + np.arange(n, dtype=np.int64)
        num_structural = num_participants + n

    # G rows: one CSR row per participant, rows in the tree walk's
    # first-encounter order (row-major over the matrix), entries in
    # ascending tuple order (a stable argsort by row rank)
    flat = matrix.ravel()
    counts = np.bincount(flat, minlength=num_participants)
    if np.count_nonzero(counts) != num_participants:
        raise LPError(
            "every participant of a conjunction matrix must occur in "
            "some row — count the others as idle"
        )
    owners = np.argsort(np.unique(flat, return_index=True)[1])
    lengths = counts[owners]
    if width == 1:
        # repeated rows share the bare participant as root
        indptr = np.arange(num_participants + 1)
        g_cols, g_vals = owners, lengths.astype(float)
    else:
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        row_rank = np.argsort(owners)[flat]
        g_cols = num_participants + np.argsort(row_rank, kind="stable") // width
        g_vals = np.ones(flat.size)
    return _ConjunctionBlocks(
        ub, root_vars, num_structural, (indptr, g_cols, g_vals), owners, counts
    )


class EncodedRelation:
    """A sensitive K-relation compiled to reusable LP structure.

    Parameters
    ----------
    participants:
        Ordered participant names — **all** participants of the sensitive
        relation.  Those that appear in no encoded annotation are idle:
        they are counted in :attr:`num_idle` and get no LP column (see
        the module docstring); the others keep their order as the LP's
        participant columns (:attr:`participants`).
    annotated:
        Pairs ``(expression, weight)`` with nonnegative weights ``q(t)``;
        zero-weight tuples may be passed and are skipped.
    backend:
        The LP backend (see :mod:`repro.lp.backends`); the default is the
        persistent HiGHS solver.  Tests hand in their oracles here.

    Attributes
    ----------
    participants:
        The active participants' names, in LP column order.
    num_idle:
        How many participants appear in no encoded annotation.
    g_zero_index:
        The largest integer ``i₀`` known to have ``G_i = 0`` for every
        ``i ≤ i₀`` (:meth:`g_closed_form`): ``m`` in general, more on a
        conjunctive relation of width ≥ 2 (:meth:`from_conjunctions`).
    num_isolated:
        ``N``, the rows whose participants occur in no other row; found
        only by :meth:`from_conjunctions`, so 0 from this constructor.
    num_core_participants:
        The participants of the core, the other rows: the active ones
        less ``N·w``.  The Δ search decides ``G`` on the core
        (:meth:`core_index`, :meth:`g_core_decide`); with ``N = 0`` the
        core is the whole active program.
    h_top_chord:
        ``H_{|P|} − H_{|P|−1}`` when it is known exactly, else None.
        :meth:`from_conjunctions` sets it to the largest participant load
        ``d = max_p count_p``, an integer: with ``Σ(1 − f_p) = 1`` every
        row keeps at least ``1 − Σ_{p∈t}(1 − f_p)``, so the rows lose at
        most ``Σ_p count_p·(1 − f_p) ≤ d`` in all, and emptying one most
        loaded participant loses exactly ``d``.  This constructor keeps
        None: its loads are float sums of ``q·S`` and only bound the chord.
        The X step decides every ``Δ̂ > d`` with no LP
        (:meth:`~repro.core.framework.RecursiveMechanismBase.x_step`).
    """

    def __init__(
        self,
        participants: Sequence[str],
        annotated: Sequence[Tuple[Expr, float]],
        backend=HIGHS,
    ):
        names = list(participants)
        self.backend = backend
        known = set(names)
        if len(known) != len(names):
            raise LPError("duplicate participant names")
        self._constant_weight = 0.0  # weight of TRUE-annotated tuples
        self.total_weight = 0.0
        # first pass: validate every annotation and collect the
        # participants some encoded annotation names
        encoded: List[Tuple[Expr, float]] = []
        used = set()
        for expr, weight in annotated:
            weight = float(weight)
            if weight < 0:
                raise LPError(
                    f"negative query weight {weight} — decompose the query first"
                )
            if weight == 0:
                continue
            variables = expr.variables()
            unknown = [name for name in variables if name not in known]
            if unknown:
                raise LPError(
                    f"annotation references unknown participants {sorted(unknown)}"
                )
            if isinstance(expr, _Const):
                # FALSE-annotated tuples contribute nothing at any
                # assignment — they must not count toward q(supp(R))
                if expr.value:
                    self._constant_weight += weight
                    self.total_weight += weight
                continue
            self.total_weight += weight
            used.update(variables)
            encoded.append((expr, weight))
        self.participants: List[str] = [name for name in names if name in used]
        self.num_idle = len(names) - len(self.participants)
        self.g_zero_index = self.num_idle
        self._pindex: Dict[str, int] = {
            name: index for index, name in enumerate(self.participants)
        }
        self._next_var = len(self.participants)

        # Growable COO triplets of the base constraints, already normalized
        # to "A_ub x <= b_ub" form; frozen into compact NumPy arrays (and
        # the lists dropped) once encoding finishes.
        self._ub_rows: List[int] = []
        self._ub_cols: List[int] = []
        self._ub_vals: List[float] = []
        self._ub_rhs: List[float] = []

        # per-tuple root variables and weights; frozen to arrays so a
        # million-row relation costs two int64/float buffers, not a list
        # of Python tuples
        root_vars: List[int] = []
        root_weights: List[float] = []
        # per-participant accumulated (root var, q*S) coefficients for G rows
        g_rows: Dict[str, Dict[int, float]] = {}
        #: S̄ = max_{t,p} S_{R(t),p} over all (weight > 0) annotations
        self.max_phi_sensitivity = 0
        # the encoded annotations, re-evaluated by H certificates, and a
        # bound on the float error of evaluating them (see _objective_upper)
        self._annotations: Optional[List[Tuple[Expr, float]]] = []
        self._phi_error = 0.0

        for expr, weight in encoded:
            root = self._encode_node(expr)
            root_vars.append(root)
            root_weights.append(weight)
            self._annotations.append((expr, weight))
            # φ of an expression of s nodes sums at most s values in
            # [0, 1] per node, each sum off by γ_s ≈ s·u of its terms, and
            # the errors of s nodes add up: at most 2·s³·u
            size = expr.node_count()
            self._phi_error += weight * 2.0 * size * size * size * UNIT_ROUNDOFF
            for pname, s_value in phi_sensitivities(expr).items():
                if s_value <= 0:
                    continue
                if s_value > self.max_phi_sensitivity:
                    self.max_phi_sensitivity = s_value
                row = g_rows.setdefault(pname, {})
                row[root] = row.get(root, 0.0) + weight * s_value

        self._num_structural = self._next_var
        # freeze the triplets: one compact array each instead of
        # per-element Python objects
        self._ub_rows = np.asarray(self._ub_rows, dtype=np.int64)
        self._ub_cols = np.asarray(self._ub_cols, dtype=np.int64)
        self._ub_vals = np.asarray(self._ub_vals, dtype=float)
        self._ub_rhs = np.asarray(self._ub_rhs, dtype=float)
        self._root_vars = np.asarray(root_vars, dtype=np.int64)
        self._root_weights = np.asarray(root_weights, dtype=float)
        # the G rows as one CSR triple: rows in first-encounter order,
        # entries in key order, each row's sum taken in that order
        maps = list(g_rows.values())
        self._g_owners = np.fromiter(map(self._pindex.get, g_rows), np.int64)
        self._g_max_load = max((sum(row.values()) for row in maps), default=0.0)
        self._finalize(
            (
                np.cumsum([0] + [len(row) for row in maps]),
                np.array([var for row in maps for var in row], dtype=np.int64),
                np.array([value for row in maps for value in row.values()]),
            )
        )

    def _finalize(self, g_rows) -> None:
        """Compile the frozen arrays into the program every solve uses.

        ``g_rows`` is the G rows' CSR triple ``(indptr, cols, vals)``;
        ``_g_owners`` (each row's participant index) and ``_g_max_load``
        (the largest row sum) are set with it.
        """
        self._g_rows = g_rows
        # the open X step's (Δ̂, solution, certificate), while one is open
        self._x_step: Optional[Tuple[float, LPSolution, Certificate]] = None
        # the top chord is exact on a conjunctive relation only
        self.h_top_chord: Optional[float] = None
        # no isolated rows until from_conjunctions finds some: the core is
        # the active program, at the index i − m
        self.num_isolated = 0
        self._core_offset = self.num_idle
        self.num_core_participants = len(self.participants)
        self._compiled = CompiledProgram(
            num_variables=self._num_structural,
            num_participants=len(self.participants),
            ub_rows=self._ub_rows,
            ub_cols=self._ub_cols,
            ub_vals=self._ub_vals,
            ub_rhs=self._ub_rhs,
            objective=self._objective_vector(),
            objective_constant=self._constant_weight,
            g_rows=g_rows,
            backend=self.backend,
        )
        self._core: Optional[CompiledProgram] = self._compiled

    @classmethod
    def from_conjunctions(
        cls,
        participants: Sequence[str],
        matrix: np.ndarray,
        backend=HIGHS,
        idle: int = 0,
    ) -> "EncodedRelation":
        """Vectorized construction for conjunctions of distinct variables.

        ``matrix`` is the ``(N, width)`` participant-index matrix of a
        :class:`~repro.store.relation.ConjunctiveKRelation`: row ``r``
        holds the (distinct) indices into ``participants`` that tuple
        ``r`` conjoins, columns in annotation children order.
        ``participants`` are the active participants, each in some row;
        ``idle`` counts the relation's participants in no row.  Every
        tuple has query weight 1.0 (counting).  Every row has the same
        width ``w``, which sets :attr:`g_zero_index` to
        ``m + ⌊n_act·(w−1)/w⌋`` when ``w ≥ 2`` (see :meth:`g_closed_form`).
        The largest row count is the exact :attr:`h_top_chord`.

        The emitted structure is **identical, element for element**, to
        ``cls(all participants, annotated, ...)`` over the equivalent
        ``And``-of-``Var`` trees — same COO triplets in the same order,
        same root terms, same G-row CSR (rows in first-encounter order,
        entries in ascending tuple order) — so every downstream solve
        sees bit-equal inputs.
        The tree walk per conjunction of width ``m ≥ 2`` appends one
        epigraph row ``[-v, 1·child…] ≤ m-1``; width 1 collapses to the
        bare participant variable (``And`` of one child is the child).

        When ``w ≥ 2``, a row whose participants all occur in no other
        row is *isolated* (:attr:`num_isolated`); the other rows are the
        core, whose G program is compiled apart on first use
        (:meth:`core_index`).
        """
        self = cls.__new__(cls)
        self.participants = list(participants)
        self.backend = backend
        if len(set(self.participants)) != len(self.participants):
            raise LPError("duplicate participant names")
        self.num_idle = int(idle)
        num_participants = len(self.participants)
        matrix = np.ascontiguousarray(matrix, dtype=np.int64)
        if matrix.ndim != 2:
            raise LPError(f"conjunction matrix must be 2-D, got {matrix.ndim}-D")
        n, width = matrix.shape
        # the uniform point f ≡ a/n_act puts every row at
        # max(0, w·a/n_act − (w−1)), which is 0 up to a = n_act·(w−1)/w
        self.g_zero_index = self.num_idle
        if n and width >= 2:
            self.g_zero_index += num_participants * (width - 1) // width
        if n and (matrix.min() < 0 or matrix.max() >= num_participants):
            raise LPError("conjunction matrix references unknown participants")
        self._constant_weight = 0.0
        self.total_weight = float(n)
        self.max_phi_sensitivity = 1 if n else 0
        # node values are re-evaluated from the epigraph rows themselves
        self._annotations = None
        self._phi_error = 0.0

        blocks = _conjunction_blocks(matrix, num_participants)
        self._ub_rows, self._ub_cols, self._ub_vals, self._ub_rhs = blocks.ub
        self._root_vars = blocks.root_vars
        self._num_structural = self._next_var = blocks.num_structural
        self._root_weights = np.ones(n, dtype=float)
        self._g_owners = blocks.owners
        self._g_max_load = float(blocks.counts.max(initial=0))
        self._finalize(blocks.g_rows)
        self.h_top_chord = self._g_max_load

        if n and width >= 2:
            # one pass over the counts: a row is isolated when each of its
            # participants occurs in it alone
            isolated = (blocks.counts[matrix] == 1).all(axis=1)
            self.num_isolated = int(np.count_nonzero(isolated))
            if self.num_isolated:
                self._core_offset += self.num_isolated * (width - 1)
                self.num_core_participants -= self.num_isolated * width
                self._core = None
                # the core rows over the core participants, renumbered in
                # their order
                kept = np.ones(num_participants, dtype=bool)
                kept[matrix[isolated]] = False
                self._core_matrix = (np.cumsum(kept) - 1)[matrix[~isolated]]
        return self

    # -- construction helpers -------------------------------------------------
    def _encode_node(self, expr: Expr) -> int:
        """Return the LP variable index holding ``φ_expr`` (epigraph).

        Constraints are appended as COO triplets in batch per node — one
        ``extend`` per coefficient block, no per-row dict or dataclass.
        """
        if isinstance(expr, Var):
            return self._pindex[expr.name]
        if isinstance(expr, _Const):
            raise ExpressionError(
                "constants inside connectives should have been folded away"
            )
        child_vars = [self._encode_node(child) for child in expr.children]
        v = self._next_var
        self._next_var += 1
        m = len(child_vars)
        if isinstance(expr, And):
            # v >= sum(children) - (m-1)  ⇒  -v + Σ children <= m-1
            # (repeated children sum up via duplicate COO entries)
            row = len(self._ub_rhs)
            self._ub_rows.extend([row] * (m + 1))
            self._ub_cols.append(v)
            self._ub_cols.extend(child_vars)
            self._ub_vals.append(-1.0)
            self._ub_vals.extend([1.0] * m)
            self._ub_rhs.append(float(m - 1))
        elif isinstance(expr, Or):
            # v >= child  ⇒  -v + child <= 0, one row per child
            base = len(self._ub_rhs)
            rows = range(base, base + m)
            self._ub_rows.extend(rows)
            self._ub_cols.extend([v] * m)
            self._ub_vals.extend([-1.0] * m)
            self._ub_rows.extend(rows)
            self._ub_cols.extend(child_vars)
            self._ub_vals.extend([1.0] * m)
            self._ub_rhs.extend([0.0] * m)
        else:
            raise ExpressionError(f"unknown expression node {expr!r}")
        return v

    # -- basic facts ------------------------------------------------------------
    @property
    def num_participants(self) -> int:
        """``|P|``: the active participants plus the idle ones."""
        return len(self.participants) + self.num_idle

    @property
    def num_encoded_tuples(self) -> int:
        return int(self._root_vars.size)

    @property
    def num_lp_variables(self) -> int:
        return self._num_structural

    def true_answer(self) -> float:
        """``q(supp(R)) = H_{|P|}`` — the exact (non-private) query answer."""
        return self.total_weight

    # -- LP assembly ------------------------------------------------------------
    def _objective_vector(self) -> np.ndarray:
        c = np.zeros(self._num_structural)
        # np.add.at accumulates the weights of duplicate root vars
        np.add.at(c, self._root_vars, self._root_weights)
        return c

    def _check(self, solution: LPSolution, what: str) -> LPSolution:
        if not solution.is_optimal:
            raise LPError(
                f"{what} LP not optimal: {solution.status} {solution.message}"
            )
        return solution

    def _check_values(self, solution: LPSolution, what: str) -> LPSolution:
        """Guard positional reads: an "optimal" solution must carry ``x``."""
        if len(solution.x) < self._num_structural:
            raise LPError(
                f"{what} solver returned {len(solution.x)} variable values "
                f"for a {self._num_structural}-variable program"
            )
        return solution

    # -- the three solves ---------------------------------------------------------
    def _active_index(self, i: float) -> float:
        """The active program's mass ``i − m`` behind the full index ``i``."""
        return float(i) - self.num_idle

    def h_closed_form(self, i: float) -> Optional[float]:
        """The exact no-LP values of ``H_i``, or None when an LP is needed.

        Up to ``i = m`` the idle participants hold all the mass, every
        active ``f_p = 0``, so only constant-``True`` tuples contribute;
        at ``i = |P|`` every ``f_p = 1`` forces ``φ = 1`` on every root
        (Theorem 3), giving the total weight.
        """
        if not 0.0 <= i <= self.num_participants + 1e-9:
            raise LPError(f"H index {i} outside [0, {self.num_participants}]")
        if self._root_vars.size == 0:
            return self._constant_weight
        if self._active_index(i) <= 1e-12:
            return self._constant_weight
        if i >= self.num_participants - 1e-12:
            return self.total_weight
        return None

    def solve_h(self, i: float) -> float:
        """``H_i`` (Eq. 16) for integer or fractional ``i ∈ [0, |P|]``.

        The closed forms need no LP (:meth:`h_closed_form`); otherwise one
        cold solve at ``i − m``, snapped (:meth:`_cold_h`).
        """
        closed = self.h_closed_form(i)
        if closed is not None:
            _count_h("closed_form")
            return closed
        active = self._active_index(i)
        return self._cold_h(active, self._compiled.solve_h(active))

    def solve_h_many(self, indices: Sequence[float]) -> List[float]:
        """``H_i`` for several indices, each by the cheapest route.

        Each entry counts once in ``repro_h_entries_total{how}``:
        ``closed_form`` for the endpoints; ``x_lp`` or ``resumed`` while
        an X step is open (:meth:`_h_from_x`); ``cold`` for the rest,
        which :meth:`CompiledProgram.solve_many` solves in-process and
        which are snapped here (:meth:`_cold_h`).  Every route stores the
        same bits.  The LP routes work at the active indices ``i − m``.
        """
        indices = list(indices)
        values: List[Optional[float]] = [self.h_closed_form(i) for i in indices]
        active = [self._active_index(i) for i in indices]
        pending = [pos for pos, value in enumerate(values) if value is None]
        if len(pending) < len(values):
            _count_h("closed_form", len(values) - len(pending))
        if pending and self._x_step is not None:
            pending = self._h_from_x(active, values, pending)
        if pending:
            solutions = self._compiled.solve_many([active[pos] for pos in pending])
            for pos, solution in zip(pending, solutions):
                values[pos] = self._cold_h(active[pos], solution)
        return values

    def _certificate(self, solution: LPSolution, multiplier: float):
        """The :class:`~repro.lp.certify.Certificate` of an optimal
        H-shaped solution, or None when it carries no values."""
        if len(solution.x) < self._num_structural:
            return None
        return Certificate(
            self._compiled,
            solution.x,
            solution.row_dual,
            multiplier,
            self._objective_upper,
        )

    def _cold_h(self, a: float, solution: LPSolution) -> float:
        """A cold solve's value of the active ``H^act_a``: snapped when its
        certificate isolates a rational, else as the solver reports it
        (counted unsnapped)."""
        self._check(solution, f"H_{a + self.num_idle}")
        _count_h("cold")
        value = None
        if solution.row_dual is not None:
            mass_row = self._compiled.num_ub_rows
            certificate = self._certificate(solution, solution.row_dual[mass_row])
            if certificate is not None:
                value = certificate.snapped(a)
        if value is None:
            _count_unsnapped()
            value = float(solution.objective)
        return max(0.0, value)

    def _h_from_x(self, indices, values, pending) -> List[int]:
        """Fill ``values[pos]`` from the open X step; return the positions
        left for the cold route.  ``indices`` are active indices.

        The X relaxation's optimum has mass ``i'``, so where ``i'`` lies
        within the snapping width of an index ``k`` (the interior
        integral case), that optimum is also optimal on the slice
        ``Σf = k``: its duals with mass multiplier ``Δ̂`` certify ``H_k``
        from below, its own point from above (``x_lp``).  Every other
        index is solved by moving only a mass row off the X model's
        optimal basis and resuming dual simplex
        (:meth:`CompiledProgram.solve_h_on_x`), certified by that solve's
        duals (``resumed``).  A model that cannot add a row sends those
        indices to the cold route; so does a resumed certificate that does
        not snap, counted in ``repro_h_unsnapped_total``.
        """
        delta_hat, _, certificate = self._x_step
        rest = []
        for pos in pending:
            k = indices[pos]
            value = None
            if abs(certificate.mass - k) < 0.5 / MAX_DENOMINATOR**2:
                value = certificate.snapped(k)
            if value is None:
                rest.append(pos)
            else:
                values[pos] = max(0.0, value)
                _count_h("x_lp")
        solutions = None
        if rest:
            solutions = self._compiled.solve_h_on_x(
                [float(indices[pos]) for pos in rest]
            )
        if solutions is None:
            return rest
        left = []
        mass_row = self._compiled.num_ub_rows
        for pos, solution in zip(rest, solutions):
            value = None
            if solution.is_optimal and solution.row_dual is not None:
                resumed = self._certificate(
                    solution, delta_hat + solution.row_dual[mass_row]
                )
                if resumed is not None:
                    value = resumed.snapped(indices[pos])
            if value is None:
                _count_unsnapped()
                left.append(pos)
            else:
                values[pos] = max(0.0, value)
                _count_h("resumed")
        return left

    def _objective_upper(self, f: np.ndarray) -> float:
        """An upper bound on ``Σ_t q(t)·φ_t(f) + constant`` at participant
        values ``f ∈ [0, 1]^P``, every node value recomputed bottom-up.

        Conjunctions are evaluated as one vectorized pass over the
        participant-index matrix the epigraph rows were built from (a view
        of their column triplets); other annotations through
        :func:`~repro.relax.phi._phi_columns`.  The float error of the
        evaluation is added on top.
        """
        if self._annotations is None:
            n = self._root_vars.size
            if self._ub_rhs.size == 0:  # width 1: the roots are participants
                total, error = math.fsum(f[self._root_vars]), 0.0
            else:
                width = self._ub_cols.size // n - 1
                children = self._ub_cols.reshape(n, width + 1)[:, 1:]
                roots = np.maximum(0.0, f[children].sum(axis=1) - (width - 1))
                total = math.fsum(roots)
                # a row sums `width` values ≤ 1, then subtracts width − 1
                error = n * 2.0 * width * width * UNIT_ROUNDOFF
        else:
            columns = {
                name: f[index : index + 1]
                for index, name in enumerate(self.participants)
            }
            total = math.fsum(
                weight * float(_phi_columns(expr, columns, 1)[0])
                for expr, weight in self._annotations
            )
            error = self._phi_error
        total = math.fsum([total, self._constant_weight])
        return total + 2.0 * (error + UNIT_ROUNDOFF * abs(total))

    def g_closed_form(self, i: float) -> Optional[float]:
        """The exact no-LP values of ``G_i``, or None when an LP is needed.

        ``G_i = 0`` up to ``i = m`` (the idle participants hold the mass,
        so every active ``f_p = 0`` and every node variable sits at 0).
        On a conjunctive relation of width ``w ≥ 2`` the zero region
        reaches further, to ``i₀ = m + ⌊n_act·(w−1)/w⌋``
        (:attr:`g_zero_index`): at ``i = m + a`` the uniform point
        ``f ≡ a/n_act`` on the ``n_act`` active participants is feasible
        and puts every row at ``max(0, w·a/n_act − (w−1))``, which is 0
        for ``a ≤ n_act·(w−1)/w``.  ``i₀`` is an integer and ``i ≤ i₀``
        is compared exactly, with no tolerance.  At ``i = |P|`` the mass
        row forces ``f ≡ 1``, which forces every node variable to 1
        (epigraph lower bounds meet the unit upper bounds), so the
        min-max collapses to ``2·max_p Σ_t q·S_{t,p}``.  The same two
        closed forms hold for the core's ``G`` in core coordinates
        (:meth:`g_core_closed_form`).
        """
        if not 0.0 <= i <= self.num_participants + 1e-9:
            raise LPError(f"G index {i} outside [0, {self.num_participants}]")
        if (
            not self._g_owners.size
            or i <= self.g_zero_index
            or self._active_index(i) <= 1e-12
        ):
            return 0.0
        if i >= self.num_participants - 1e-12:
            return 2.0 * self._g_max_load
        return None

    def solve_g(self, i: float) -> float:
        """``G_i`` (Eq. 19) — twice the min-max LP value.

        The closed forms need no LP (:meth:`g_closed_form`); otherwise one
        cold solve at ``i − m`` on the whole active program.
        """
        closed = self.g_closed_form(i)
        if closed is not None:
            return closed
        solution = self._compiled.solve_g(self._active_index(i))
        self._check(solution, f"G_{i}")
        return max(0.0, 2.0 * float(solution.objective))

    def g_decide(
        self, i: float, threshold: float
    ) -> Tuple[bool, float, Optional[float]]:
        """The exact predicate ``G_i ≤ threshold`` as ``(bool, G_i, slope)``
        on the whole active program.

        A closed form needs no LP and has no slope (None); otherwise this
        is one step of a walk on the active program's G model at ``i − m``
        (``CompiledProgram.solve_g_decide``), ended by :meth:`end_g_walk`,
        and ``slope`` is a subgradient of ``G`` at ``i`` from the mass
        row's dual (None when the backend reports no duals).  The Δ search
        walks the core instead (:meth:`g_core_decide`); with no isolated
        row the two are the same walk.
        """
        closed = self.g_closed_form(i)
        if closed is not None:
            return closed <= threshold, closed, None
        return self._compiled.solve_g_decide(self._active_index(i), float(threshold))

    # -- G on the core ----------------------------------------------------------
    @property
    def core_zero_index(self) -> int:
        """The core's zero region ``k ≤ i₀ − m − N·(w−1)``, in core
        coordinates (:meth:`g_core_closed_form`)."""
        return self.g_zero_index - self._core_offset

    def core_index(self, i: float, threshold: float) -> Tuple[Optional[bool], float]:
        """``G_i ≤ threshold`` moved onto the core: ``(decided, k)``.

        Let ``cap(τ)`` be the largest mass ``Σf`` with every
        participant's load at most ``τ/2``.  Loads are nondecreasing in
        ``f``, so ``G_i ≤ τ`` exactly when ``i ≤ cap(τ)`` (for ``τ ≥ 0``),
        and ``cap`` is a sum over the independent parts of the relation:
        each idle participant adds 1, each isolated row of width ``w``
        adds ``(w − 1) + min(1, τ/2)``, and the core adds
        ``cap_core(τ)``.  With ``m`` idle participants and ``N`` isolated
        rows, ``G_i ≤ τ`` therefore holds exactly when ``k ≤ cap_core(τ)``
        at ``k = i − m − N·(w−1) − N·min(1, τ/2)``: yes when ``k ≤ 0``,
        no when ``k`` exceeds the core's participant count, and
        ``G_core(k) ≤ τ`` otherwise.  The first two are decided by
        comparing ``i − m − N·(w−1)`` (an integer at an integer ``i``)
        with ``N·min(1, τ/2)``; they return ``decided`` as a bool.  The
        third returns ``decided = None`` and the core index ``k``.  With
        no isolated row, ``k = i − m``: the core is the active program.
        """
        base = i - self._core_offset
        slack = self.num_isolated * min(1.0, threshold / 2.0)
        if base <= slack:
            # i ≤ cap(τ); under a negative τ no mass fits, as G ≥ 0
            return threshold >= 0, 0.0
        if base - self.num_core_participants > slack:
            return False, 0.0
        return None, base - slack

    def g_core_closed_form(self, k: float) -> Optional[float]:
        """The exact no-LP values of ``G_core(k)``, or None when an LP is
        needed: 0 on the core's zero region ``k ≤``
        :attr:`core_zero_index`, and ``2·max_p Σ_t q·S_{t,p}`` at ``k`` =
        the core's participant count (a core row shares a participant with
        another row, so the core holds the relation's largest load)."""
        if k <= self.core_zero_index:
            return 0.0
        if k >= self.num_core_participants:
            return 2.0 * self._g_max_load
        return None

    def g_core_decide(
        self, k: float, threshold: float
    ) -> Tuple[bool, float, Optional[float]]:
        """``G_core(k) ≤ threshold`` as ``(bool, G_core(k), slope)``: one
        step of the Δ-search walk on the core's G model
        (``CompiledProgram.solve_g_decide``), ended by :meth:`end_g_walk`.
        The core's program is compiled on the first call; only its G
        overlay is ever built."""
        if self._core is None:
            blocks = _conjunction_blocks(
                self._core_matrix, self.num_core_participants
            )
            objective = np.zeros(blocks.num_structural)
            objective[blocks.root_vars] = 1.0
            self._core = CompiledProgram(
                blocks.num_structural,
                self.num_core_participants,
                *blocks.ub,
                objective=objective,
                objective_constant=0.0,
                g_rows=blocks.g_rows,
                backend=self.backend,
                g_only=True,
            )
        return self._core.solve_g_decide(float(k), float(threshold))

    def end_g_walk(self) -> None:
        """Free the G walks' models (``CompiledProgram.end_g_walk``): the
        core's, and the active program's when they differ."""
        self._compiled.end_g_walk()
        if self._core is not None:
            self._core.end_g_walk()

    def solve_g_uniform(self, i: float, s_bar: Optional[float] = None) -> float:
        """The sound alternative bounding sequence ``Ĝ_i = 2·S̄·H_i``.

        ``s_bar`` should be a *query-level* constant upper bound on the
        φ-sensitivities (e.g. 1 for DNF output, or 1 + the number of
        operations in the positive RA query — Sec. 5.2 property 4), so that
        it is identical on neighboring databases; when omitted, the maximum
        over the current annotations is used, which is an upper bound for
        every ancestor but may differ from a *larger* neighbor's value.

        Eq. 19's ``G`` is *not* a recursive sequence (Def. 17) for general
        annotations — a counterexample with disjunctive annotations makes
        ``ln Δ`` move by ``2β`` between neighbors, breaking Lemma 1 (see
        the README section "Deviations from the paper").  Scaling the (provably recursive) ``H`` by
        the withdrawal-monotone constant ``2·S̄`` yields a sequence that is
        both recursive and a valid 2-bounding sequence of ``H``: Theorem
        4's truncation argument bounds the coordinate-Lipschitz constant of
        ``H`` by ``max_p Σ_{t: φ(f)>0} q·S_{t,p} ≤ S̄·Σ_t q·2·φ(g) =
        2·S̄·H_k`` at the level-``k`` minimizer ``g``.

        ``Ĝ`` never beats Eq. 19's G on conjunctive (subgraph counting)
        relations — there ``G ≈ 2·~US ≪ 2·H`` — but it restores the full
        ε-DP guarantee for arbitrary positive annotations.
        """
        if s_bar is None:
            s_bar = float(self.max_phi_sensitivity)
        return 2.0 * float(s_bar) * self.solve_h(i)

    def solve_x_relaxation(self, delta_hat: float) -> Tuple[float, float]:
        """Solve Eq. 20: ``min_{i'∈[0,|P|]} H_{i'} + (|P| - i')·Δ̂``.

        Returns ``(value, i')`` where ``i' = |f*|`` at the optimum.  By
        Lemma 10 (convexity of ``H``) the integer minimizer of Eq. 12 lies
        in ``{⌊i'⌋, ⌈i'⌉}``.  The LP is the active program's, whose value
        is the same (every idle ``f_p`` sits at 1 at the full optimum), and
        ``i'`` is its optimal mass plus ``m``.  The solve opens an X step:
        until :meth:`end_x_step`, :meth:`solve_h_many` reads ``H`` entries
        off this optimum first, and :meth:`x_interval` certifies its value.
        """
        if delta_hat < 0:
            raise LPError(f"delta_hat must be nonnegative, got {delta_hat}")
        self._x_step = None
        if self._root_vars.size == 0:
            # H is constant; X = H + (n - n)·Δ̂ at i' = n.
            return self._constant_weight, float(self.num_participants)
        n = len(self.participants)
        solution = self._compiled.solve_x(float(delta_hat))
        self._check(solution, "X relaxation")
        self._check_values(solution, "X relaxation")
        certificate = self._certificate(solution, delta_hat)
        self._x_step = (float(delta_hat), solution, certificate)
        mass = float(np.sum(solution.x[:n]))
        mass = min(max(mass, 0.0), float(n)) + self.num_idle
        return float(solution.objective), mass

    def x_interval(self) -> Tuple[float, float]:
        """``[L, U]`` for the value the open X step's solver reported.

        ``L`` is the Lagrangian bound of the relaxation's duals (``-inf``
        without duals), a certified lower bound on its exact value.  ``U``
        is its objective at the solver's own point with every node value
        recomputed, plus the float error of the solver's own sum of
        ``num_lp_variables`` objective terms: a reported value above ``U``
        is not the value of the point reported with it.
        """
        if self._x_step is None:
            return self._constant_weight, self._constant_weight
        delta_hat, solution, certificate = self._x_step
        lower, upper = certificate.relaxation_interval()
        n = len(self.participants)
        terms = (
            float(self._root_weights @ np.abs(solution.x[self._root_vars]))
            + delta_hat * (float(np.sum(np.abs(solution.x[:n]))) + n)
            + abs(self._constant_weight)
        )
        return lower, upper + 2.0 * gamma(self._num_structural + 2) * terms

    def end_x_step(self) -> None:
        """Close the X step: drop its solution, so no retained relation
        keeps one and no later ``H`` entry is read off it."""
        self._x_step = None


def encode_relation(
    participants: Sequence[str],
    annotated: Sequence[Tuple[Expr, float]],
) -> EncodedRelation:
    """Build an :class:`EncodedRelation` solved by the persistent HiGHS models."""
    return EncodedRelation(participants, annotated)
