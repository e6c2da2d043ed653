"""The solver-backend contract and registry.

Every released answer bottoms out in the φ-epigraph LP solves, and every
one of them runs through a :class:`PersistentModel` that a backend builds
from the compiled CSR blocks of a :class:`~repro.lp.compiled.
CompiledProgram`.  This module holds that contract and a registry
mirroring :mod:`repro.mechanisms`:

* :class:`SolverBackend` — the contract: ``solve_arrays`` for one-shot
  array solves, :meth:`~SolverBackend.build_persistent` for a model built
  once and mutated in place between solves, and a
  :meth:`~SolverBackend.fork_reset` hook for the :mod:`repro.parallel`
  fork-after-compile scheme.  A one-shot backend implements only
  ``solve_arrays`` and inherits :class:`ArrayModel`; a backend with live
  solver state overrides ``build_persistent``.
* :class:`PersistentModel` — the base of every model, carrying the
  owner-pid guard (a live solver must never be used across ``fork()``)
  and the cold-or-resumed :meth:`~PersistentModel.solve` the Δ-search
  walk is written against.
* :func:`register` / :func:`get` / :func:`create` / :func:`resolve` /
  :func:`available` / :func:`describe` — the registry.  Backends are
  addressed by name (the built-ins are ``"scipy"`` and ``"highs"``;
  other solvers plug in out of tree through :func:`register`); an
  unavailable backend (missing bindings, missing license) stays
  *registered* and reports why it cannot run instead of disappearing.
* :func:`default_backend` — the ``REPRO_LP_BACKEND`` environment
  variable if set, else the available backend with the highest static
  ``preference``.  Static preferences encode measured performance on the
  epigraph workload (the persistent-HiGHS models beat per-call
  ``linprog`` ~2.6× here), not alphabetical accident.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple, Type

import numpy as np
from scipy import sparse

from ..errors import LPError
from .model import LPSolution

__all__ = [
    "BACKEND_ENV",
    "SolverBackend",
    "PersistentModel",
    "ArrayModel",
    "register",
    "get",
    "create",
    "resolve",
    "registered",
    "available",
    "describe",
    "default_backend",
]

#: Environment variable naming the backend every entry point defaults to.
BACKEND_ENV = "REPRO_LP_BACKEND"


class PersistentModel:
    """Base of every backend's model of one compiled program.

    A model is built **once** from the compiled CSR blocks and then only
    mutated between solves (a row's bounds, a few objective entries); it
    may hold live solver state.  Two invariants are enforced here rather
    than per backend:

    * **fork safety** — live solver state must never be driven from a
      process other than the one that built it (copy-on-write pages
      would be mutated in several processes at once).  Every mutating
      entry point calls :meth:`_assert_owner`, turning silent cross-fork
      misuse into a loud :class:`~repro.errors.LPError`; forked workers
      drop inherited models via ``CompiledProgram.fork_reset`` and
      rebuild their own lazily.
    * **cold or resumed solves** — :meth:`solve` either starts afresh
      or, for the Δ-search walk, continues from the previous basis,
      without the caller knowing the backend's native option names.

    Subclasses implement :meth:`set_row_bounds`, :meth:`set_col_costs`
    and :meth:`solve`; a model that can grow a row in place and resume
    from its basis also implements :meth:`add_row`, :meth:`delete_row`,
    :meth:`get_basis` and :meth:`set_basis`.
    """

    #: backend name carried into error messages (set by the builder)
    backend_name = "persistent"

    def __init__(self):
        self._owner_pid = os.getpid()
        #: iterations of the most recent :meth:`solve`
        self.last_iteration_count = 0

    def _assert_owner(self) -> None:
        if os.getpid() != self._owner_pid:
            raise LPError(
                f"[lp-backend {self.backend_name}] persistent model was "
                "built in another process and cannot be used across "
                "fork(); drop it and re-instantiate in this worker "
                "(see CompiledProgram.fork_reset)"
            )

    # -- per-solve mutations (implemented by each backend) -------------------
    def set_row_bounds(self, row: int, lower: float, upper: float) -> None:
        """Rebind one row's ``lower <= a·x <= upper`` in place."""
        raise NotImplementedError

    def set_col_costs(self, indices, values) -> None:
        """Overwrite the objective coefficients of the given columns."""
        raise NotImplementedError

    def add_row(self, indices, values, lower: float, upper: float):
        """Append the row ``lower <= Σ values·x[indices] <= upper`` in place,
        keeping the last solve's basis; returns the row's index, or None
        when the model cannot grow a row without a rebuild (the default)."""
        return None

    def delete_row(self, row: int) -> None:
        """Delete a row :meth:`add_row` appended."""
        raise NotImplementedError

    def get_basis(self):
        """The model's current basis as an opaque handle for
        :meth:`set_basis`, or None when it keeps none (the default)."""
        return None

    def set_basis(self, basis) -> None:
        """Make ``basis`` (from :meth:`get_basis` on a model of the same
        shape) the start of the next resumed solve."""
        raise NotImplementedError

    def solve(self, resume: bool = False) -> LPSolution:
        """Solve the current model state.

        ``resume=True`` continues from the previous solve's basis (every
        Δ-search probe after the walk's seed, which only moves the mass
        row).  A backend without warm starts may ignore it and solve
        cold — the optimum must not depend on it, only wall-clock.
        """
        raise NotImplementedError


class ArrayModel(PersistentModel):
    """The model every one-shot backend inherits: the program kept as arrays.

    It holds the row bounds and column costs, and each :meth:`solve`
    splits the rows back into ``A_ub`` rows (lower bound ``-inf``) and
    ``A_eq`` rows (lower equals upper) for ``backend.solve_arrays``, and
    puts the row duals it reports back in the model's row order.  A
    one-shot solve has no basis to continue from, so ``resume`` is
    ignored.
    """

    def __init__(
        self,
        backend: "SolverBackend",
        matrix,
        col_costs: np.ndarray,
        col_lower: np.ndarray,
        col_upper: np.ndarray,
        row_lower: np.ndarray,
        row_upper: np.ndarray,
    ):
        super().__init__()
        self.backend_name = backend.name
        self._backend = backend
        self._matrix = sparse.csr_matrix(matrix)
        self._costs = np.array(col_costs, dtype=float)
        self._bounds = np.column_stack([col_lower, col_upper]).astype(float)
        self._row_lower = np.array(row_lower, dtype=float)
        self._row_upper = np.array(row_upper, dtype=float)

    def set_row_bounds(self, row: int, lower: float, upper: float) -> None:
        self._assert_owner()
        self._row_lower[row] = lower
        self._row_upper[row] = upper

    def set_col_costs(self, indices, values) -> None:
        self._assert_owner()
        self._costs[np.asarray(indices)] = values

    def _rows(self, mask: np.ndarray):
        """``(A, b)`` of the masked rows, or ``(None, None)`` for none."""
        if not mask.any():
            return None, None
        return self._matrix[np.flatnonzero(mask)], self._row_upper[mask]

    def solve(self, resume: bool = False) -> LPSolution:
        self._assert_owner()
        ub = self._row_lower == -np.inf
        eq = self._row_lower == self._row_upper
        if not np.all(ub | eq):
            raise LPError(
                f"[lp-backend {self.backend_name}] a row bounded on both "
                "sides is neither A_ub nor A_eq"
            )
        a_ub, b_ub = self._rows(ub)
        a_eq, b_eq = self._rows(eq)
        solution = self._backend.solve_arrays(
            c=self._costs,
            a_ub=a_ub,
            b_ub=b_ub,
            a_eq=a_eq,
            b_eq=b_eq,
            bounds=self._bounds,
        )
        if solution.row_dual is not None:
            # solve_arrays reports the A_ub rows' duals, then the A_eq rows'
            order = np.concatenate([np.flatnonzero(ub), np.flatnonzero(eq)])
            row_dual = np.empty(len(order))
            row_dual[order] = solution.row_dual
            solution.row_dual = row_dual
        return solution


class SolverBackend:
    """Contract every LP backend implements.

    Class attributes (the registry reads them without instantiating):

    ``name`` / ``aliases``
        Registry spellings.  ``name`` is the canonical identity carried
        into cache keys, ledger entries, and the service hello frame.
    ``preference``
        Auto-detect rank (higher wins among available backends); encodes
        measured performance on the epigraph workload.

    A backend implements :meth:`solve_arrays`, or overrides
    :meth:`build_persistent` with a model of its own.
    """

    name = "abstract"
    aliases: Tuple[str, ...] = ()
    preference = 0

    # -- availability --------------------------------------------------------
    @classmethod
    def availability(cls) -> Tuple[bool, str]:
        """``(available, reason)`` — ``reason`` explains unavailability."""
        return True, ""

    @classmethod
    def available(cls) -> bool:
        return cls.availability()[0]

    # -- identity ------------------------------------------------------------
    @property
    def cache_token(self):
        """Hashable identity for session cache keys and replay.

        Two instances configured identically must produce equal tokens
        (so compiled relations are shared), and any knob that could
        change a solve must be in the token (so they are not shared
        across genuinely different solvers).
        """
        return ("lp-backend", self.name)

    # -- solving -------------------------------------------------------------
    def solve_arrays(
        self,
        c: np.ndarray,
        a_ub,
        b_ub: Optional[np.ndarray],
        a_eq,
        b_eq: Optional[np.ndarray],
        bounds,
        objective_constant: float = 0.0,
    ) -> LPSolution:
        """One-shot solve of a program already assembled as arrays."""
        raise LPError(
            f"[lp-backend {self.name}] backend implements neither "
            "solve_arrays nor build_persistent"
        )

    def build_persistent(
        self,
        matrix,
        col_costs: np.ndarray,
        col_lower: np.ndarray,
        col_upper: np.ndarray,
        row_lower: np.ndarray,
        row_upper: np.ndarray,
    ) -> PersistentModel:
        """A model over ``row_lower <= A x <= row_upper``, built once.

        The default is an :class:`ArrayModel` that solves through
        :meth:`solve_arrays`.
        """
        return ArrayModel(
            self, matrix, col_costs, col_lower, col_upper, row_lower, row_upper
        )

    # -- parallel plumbing ---------------------------------------------------
    def fork_reset(self) -> None:
        """Drop per-process solver state after ``fork()`` (default: none).

        Called in every forked worker through the weak-ref reset registry
        (:func:`repro.parallel.pool.register_fork_reset`).  Backends whose
        ``solve_arrays`` is self-contained need nothing here; backends
        holding process-wide native state (environments, license tokens)
        must drop it so workers re-initialise their own.
        """


# -- registry ----------------------------------------------------------------

_REGISTRY: Dict[str, Type[SolverBackend]] = {}
_INSTANCES: Dict[str, SolverBackend] = {}
_BUILTIN_LOADED = False


def register(cls: Type[SolverBackend]) -> Type[SolverBackend]:
    """Register a backend class under its ``name`` and ``aliases``.

    Usable as a decorator.  This is how an out-of-tree solver joins the
    registry: subclass :class:`SolverBackend`, implement ``solve_arrays``
    (or override ``build_persistent``), and register the class.
    Re-registering a name overwrites it (latest wins), so a deployment can
    shadow a builtin with a tuned subclass.
    """
    for spelling in (cls.name, *cls.aliases):
        _REGISTRY[str(spelling).lower()] = cls
    return cls


def _ensure_builtin() -> None:
    """Import the builtin backend modules so they self-register."""
    global _BUILTIN_LOADED
    if _BUILTIN_LOADED:
        return
    _BUILTIN_LOADED = True
    from . import highs_engine, scipy_backend  # noqa: F401


def registered() -> List[str]:
    """Canonical names of every registered backend (aliases folded)."""
    _ensure_builtin()
    names = []
    for cls in _REGISTRY.values():
        if cls.name not in names:
            names.append(cls.name)
    return sorted(names)


def available() -> List[str]:
    """Names of the registered backends that can actually run here."""
    _ensure_builtin()
    return [name for name in registered() if _REGISTRY[name].available()]


def get(name: str) -> Type[SolverBackend]:
    """The backend class registered under ``name`` (or an alias).

    Lookup succeeds for unavailable backends too — callers inspect
    ``cls.availability()`` — but an unknown name raises an
    :class:`~repro.errors.LPError` listing the registry.
    """
    _ensure_builtin()
    cls = _REGISTRY.get(str(name).lower())
    if cls is None:
        raise LPError(
            f"unknown LP backend {name!r}; registered backends: "
            f"{', '.join(registered())}"
        )
    return cls


def create(name: str, **kwargs) -> SolverBackend:
    """Instantiate the named backend, or raise one actionable error.

    The error names the backend, the missing module or license, and the
    fallback to take — instead of silently degrading to another solver.
    """
    cls = get(name)
    ok, reason = cls.availability()
    if not ok:
        fallbacks = [other for other in available() if other != cls.name]
        hint = (
            f"; available backends: {', '.join(fallbacks)} "
            f"(select one with {BACKEND_ENV} or --lp-backend)"
            if fallbacks
            else ""
        )
        raise LPError(f"[lp-backend {cls.name}] backend unavailable: {reason}{hint}")
    return cls(**kwargs)


def default_backend() -> SolverBackend:
    """The backend every entry point uses when none is named.

    ``REPRO_LP_BACKEND`` wins when set (raising the actionable
    unavailability error rather than silently substituting); otherwise
    the available backend with the highest static ``preference``.
    Instances are cached per name, so repeated resolution shares one
    backend object (and its compiled-relation cache entries).
    """
    _ensure_builtin()
    requested = os.environ.get(BACKEND_ENV)
    if requested:
        name = get(requested).name
    else:
        candidates = available()
        if not candidates:
            raise LPError(
                "no LP backend is available in this environment "
                f"(registered: {', '.join(registered())})"
            )
        name = max(candidates, key=lambda n: _REGISTRY[n].preference)
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = create(name)
        _INSTANCES[name] = instance
    return instance


def resolve(backend=None) -> SolverBackend:
    """Normalise a backend argument to an instance.

    ``None`` → :func:`default_backend`; a string → :func:`create` by
    name; anything exposing ``build_persistent`` passes through unchanged
    (custom and instrumented backends keep working untouched).  Every
    solve runs through a model the backend builds, so an object without
    ``build_persistent`` is refused here, before any relation is encoded
    against it.
    """
    if backend is None:
        return default_backend()
    if isinstance(backend, str):
        name = get(backend).name
        instance = _INSTANCES.get(name)
        if instance is None:
            instance = create(name)
            _INSTANCES[name] = instance
        return instance
    if not hasattr(backend, "build_persistent"):
        raise LPError(
            f"{backend!r} is not an LP backend: expected a name, None, or "
            "an object with build_persistent"
        )
    return backend


def describe() -> List[Dict]:
    """One row per registered backend — the registry table.

    Each row carries the canonical name, aliases, availability (with
    reason when unavailable), and auto-detect preference; the CLI and
    README render this directly.
    """
    _ensure_builtin()
    rows = []
    for name in registered():
        cls = _REGISTRY[name]
        ok, reason = cls.availability()
        rows.append(
            {
                "name": name,
                "aliases": sorted(
                    spelling
                    for spelling, registered_cls in _REGISTRY.items()
                    if registered_cls is cls and spelling != name
                ),
                "available": ok,
                "reason": reason,
                "preference": cls.preference,
            }
        )
    rows.sort(key=lambda row: -row["preference"])
    return rows
