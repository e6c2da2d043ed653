"""The solver contract every φ-epigraph LP solve goes through.

Every released answer bottoms out in the φ-epigraph LP solves, and every
one of them runs through a :class:`PersistentModel` that a backend builds
from the CSC matrix of one overlay of a :class:`~repro.lp.compiled.
CompiledProgram`:

* :class:`SolverBackend` — builds one model per overlay with
  :meth:`~SolverBackend.build_persistent`.  The production solver is
  :class:`~repro.lp.highs_engine.HighsBackend`; the contract stays a seam
  for the test-side simplex oracle and the failure-injection doubles.
* :class:`PersistentModel` — the base of every model, carrying the
  owner-pid guard (a live solver must never be used across ``fork()``)
  and the cold-or-resumed :meth:`~PersistentModel.solve` the Δ-search
  walk is written against.
"""

from __future__ import annotations

import os

import numpy as np

from ..errors import LPError
from .model import LPSolution

__all__ = ["SolverBackend", "PersistentModel"]


class PersistentModel:
    """Base of every backend's model of one compiled program.

    A model is built **once** from an overlay's CSC matrix and then only
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
                f"[lp-solver {self.backend_name}] persistent model was "
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


class SolverBackend:
    """Contract of an LP backend: one model per compiled overlay.

    ``name`` is carried into error messages and the ``backend`` label of
    the LP metrics.
    """

    name = "abstract"

    def build_persistent(
        self,
        matrix,
        col_costs: np.ndarray,
        col_lower: np.ndarray,
        col_upper: np.ndarray,
        row_lower: np.ndarray,
        row_upper: np.ndarray,
    ) -> PersistentModel:
        """A model over ``row_lower <= A x <= row_upper``, built once."""
        raise LPError(f"[lp-solver {self.name}] backend implements no build_persistent")
