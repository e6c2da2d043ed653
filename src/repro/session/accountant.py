"""Session budget accounting: hard-capped sequential composition + ledger.

Differential privacy composes additively over sequential releases on the
same database, so a serving session's global guarantee is the sum of the
per-query budgets.  :class:`BudgetAccountant` enforces that sum against a
hard cap (``None`` = unlimited but still fully ledgered) and keeps one
:class:`LedgerEntry` per release — enough to *replay* the whole session:
each entry records the mechanism, the query, the exact ε charged, and the
seed material the noise was drawn from, so
:meth:`repro.session.PrivateSession.replay` can re-execute the audit log
and verify it reproduces the released answers bit-for-bit.

Concurrent serving (many requests in flight before any completes) uses
the two-phase :meth:`BudgetAccountant.reserve` →
:meth:`Reservation.commit` / :meth:`Reservation.rollback` protocol: a
reservation holds its ε against the cap immediately (so racing admissions
can never oversubscribe the budget), a commit converts the hold into a
ledger charge without re-checking, and a rollback releases it (for
requests that never touched the data).

Multi-tenant serving partitions one global cap into per-user sub-budgets
with :class:`HierarchicalAccountant`: every reserve/charge names a user,
each user's releases compose sequentially against that user's own cap
*and* the shared global cap, and a refusal says which of the two was hit
(:attr:`BudgetExhausted.user` carries the tenant).

The spent totals are running exact sums (:class:`fractions.Fraction`)
kept as entries are appended, globally and per user, so reading them is
O(1) and sequential composition sums exactly: ``float()`` of the exact
sum is correctly rounded, bit-identical to :func:`math.fsum` over the
ledger (no drift from incremental float ``+=``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Optional, Tuple

from ..errors import PrivacyParameterError
from ..validation import validate_epsilon

__all__ = [
    "BudgetExhausted",
    "LedgerEntry",
    "Reservation",
    "BudgetAccountant",
    "HierarchicalAccountant",
]

#: Absolute slack when comparing the spent sum against the cap — charges
#: that exactly exhaust the budget must not be rejected for float dust.
_CAP_TOLERANCE = 1e-12


class BudgetExhausted(PrivacyParameterError):
    """The session's hard privacy-budget cap would be exceeded.

    A :class:`~repro.errors.PrivacyParameterError` (and so a
    :class:`ValueError`), raised before any work is done.  ``user`` names
    the tenant whose sub-budget refused the release (``None`` when the
    shared global cap was the binding constraint).
    """

    def __init__(self, message: str, *, user: Optional[str] = None):
        super().__init__(message)
        self.user = user


@dataclass
class LedgerEntry:
    """One charged release in a session's audit log.

    ``seed`` is the replayable noise source (an ``int`` or a
    ``numpy.random.SeedSequence``) when the session controlled the
    randomness, or ``None`` when the caller passed an in-flight generator
    (such an entry is audited for budget but cannot be replayed).
    ``answer`` is filled when the release completes (asynchronous
    submissions start as ``"pending"``).  ``user`` is the tenant the
    release was charged to (``None`` for single-tenant sessions).
    """

    index: int
    label: str
    mechanism: str
    query: str
    epsilon: float
    seed: Any = None
    answer: Optional[float] = None
    status: str = "released"
    cache_hit: bool = False
    seconds: float = 0.0
    user: Optional[str] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def replayable(self) -> bool:
        """Whether this release can be re-executed from recorded state."""
        return self.seed is not None and self.status == "released"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly form for exported audit logs."""
        return {
            "index": self.index,
            "label": self.label,
            "mechanism": self.mechanism,
            "query": self.query,
            "epsilon": self.epsilon,
            "seed": repr(self.seed) if self.seed is not None else None,
            "answer": self.answer,
            "status": self.status,
            "cache_hit": self.cache_hit,
            "seconds": self.seconds,
            "user": self.user,
            # Dynamic sessions: which graph version the entry saw
            # (queries) or produced (updates); None over static data.
            "version": self.extra.get("version"),
            # Update entries: the effective deltas, in action form.
            "update": self.extra.get("update"),
            # LP-backed releases: the solver that produced the answer
            # (always "highs"; kept so saved audit logs still parse).
            "lp_backend": self.extra.get("lp_backend"),
        }


class Reservation:
    """An ε hold against the budget, pending :meth:`commit` or :meth:`rollback`.

    Created by :meth:`BudgetAccountant.reserve`.  While held, the ε counts
    against the cap (and the user's sub-budget) exactly as if it were
    spent, so concurrent admissions cannot collectively oversubscribe.
    """

    def __init__(
        self,
        accountant: "BudgetAccountant",
        epsilon: float,
        label: str,
        user: Optional[str],
    ):
        self.epsilon = epsilon
        self.label = label
        self.user = user
        self._accountant: Optional[BudgetAccountant] = accountant

    @property
    def active(self) -> bool:
        """Whether the hold is still outstanding."""
        return self._accountant is not None

    def _release_hold(self) -> "BudgetAccountant":
        accountant = self._accountant
        if accountant is None:
            raise ValueError(
                f"reservation {self.label!r} was already committed or " "rolled back"
            )
        self._accountant = None
        accountant._reservations.remove(self)
        return accountant

    def commit(self, entry: LedgerEntry) -> LedgerEntry:
        """Convert the hold into a ledger charge (no re-check needed).

        ``entry.epsilon`` must equal the reserved ε; ``entry.user`` is
        filled from the reservation when unset.
        """
        if entry.epsilon != self.epsilon:
            raise ValueError(
                f"reservation {self.label!r} holds eps={self.epsilon:g} but "
                f"the entry charges eps={entry.epsilon:g}"
            )
        if entry.user is None:
            entry.user = self.user
        accountant = self._release_hold()
        return accountant._append(entry)

    def rollback(self) -> None:
        """Release the hold without charging anything."""
        self._release_hold()


class BudgetAccountant:
    """Hard-capped sequential-composition (pure ε) accountant with a ledger.

    Parameters
    ----------
    budget:
        The total ε cap.  ``None`` disables the cap (every release is
        still ledgered) — the mode the one-shot API wrappers use.

    >>> accountant = BudgetAccountant(1.0)
    >>> _ = accountant.charge(LedgerEntry(0, "triangles", "recursive",
    ...                                   "triangle/node", 0.75))
    >>> accountant.spent, accountant.remaining
    (0.75, 0.25)
    """

    def __init__(self, budget: Optional[float] = None):
        self.budget = None if budget is None else validate_epsilon(budget, "budget")
        self._ledger: List[LedgerEntry] = []
        self._reservations: List[Reservation] = []
        #: Exact running ε totals over the ledger, globally and per user.
        self._spent = Fraction(0)
        self._user_spent: Dict[Optional[str], Fraction] = {}

    # -- bookkeeping -----------------------------------------------------------
    @property
    def spent(self) -> float:
        """Exact total ε charged so far (the ``math.fsum`` of the ledger)."""
        return float(self._spent)

    @property
    def reserved(self) -> float:
        """Total ε held by outstanding (uncommitted) reservations."""
        return math.fsum(r.epsilon for r in self._reservations)

    @property
    def remaining(self) -> Optional[float]:
        """Budget left under the cap (net of outstanding reservations),
        or ``None`` for unlimited sessions."""
        if self.budget is None:
            return None
        return self.budget - math.fsum([self.spent, self.reserved])

    @property
    def ledger(self) -> Tuple[LedgerEntry, ...]:
        """The audit log, in release order (a defensive copy)."""
        return tuple(self._ledger)

    def __len__(self) -> int:
        return len(self._ledger)

    def can_afford(self, epsilon: float, user: Optional[str] = None) -> bool:
        """Whether one more ε-release fits under the cap(s)."""
        return self._refusal(epsilon, user) is None

    def _refusal(
        self, epsilon: float, user: Optional[str]
    ) -> Optional[Tuple[str, Optional[str]]]:
        """``None`` if the charge fits, else ``(reason, binding user)``."""
        if self.budget is None:
            return None
        total = math.fsum([self.spent, self.reserved, epsilon])
        if total > self.budget + _CAP_TOLERANCE:
            return ("global", None)
        return None

    def check(
        self, epsilon: float, label: str = "release", user: Optional[str] = None
    ) -> float:
        """Validate ε and raise :class:`BudgetExhausted` if it won't fit."""
        epsilon = validate_epsilon(epsilon)
        refusal = self._refusal(epsilon, user)
        if refusal is not None:
            raise self._exhausted(epsilon, label, refusal)
        return epsilon

    def _exhausted(
        self, epsilon: float, label: str, refusal: Tuple[str, Optional[str]]
    ) -> BudgetExhausted:
        reason, binding_user = refusal
        if reason == "user":
            remaining = self.user_remaining(binding_user)
            cap = self.user_budget(binding_user)
            return BudgetExhausted(
                f"release {label!r} needs eps={epsilon:g} but only "
                f"{remaining:.6g} of user {binding_user!r}'s sub-budget "
                f"(eps={cap:g}) remains",
                user=binding_user,
            )
        return BudgetExhausted(
            f"release {label!r} needs eps={epsilon:g} but only "
            f"{self.remaining:.6g} of the session budget "
            f"(eps={self.budget:g}) remains"
        )

    def reserve(
        self, epsilon: float, label: str = "release", user: Optional[str] = None
    ) -> Reservation:
        """Hold ε against the cap until committed or rolled back.

        Raises :class:`BudgetExhausted` immediately when the hold cannot
        fit (counting every outstanding reservation), so admission order
        alone decides which requests are refused.
        """
        epsilon = self.check(epsilon, label=label, user=user)
        reservation = Reservation(self, epsilon, label, user)
        self._reservations.append(reservation)
        return reservation

    def charge(self, entry: LedgerEntry) -> LedgerEntry:
        """Append a checked release to the ledger (spends its ε).

        One-phase convenience over :meth:`reserve` + :meth:`commit` for
        callers that check and charge at the same point.
        """
        entry.epsilon = self.check(entry.epsilon, label=entry.label, user=entry.user)
        return self._append(entry)

    def record(self, entry: LedgerEntry) -> LedgerEntry:
        """Append a zero-cost administrative entry without a budget check.

        Graph updates (``status="update"``, ``epsilon=0.0``) are audited
        in the same ledger as releases — they change what later answers
        mean — but spend no privacy budget, so they bypass the ε
        validation of :meth:`charge`.
        """
        if entry.epsilon != 0.0:
            raise ValueError(
                f"record() is for zero-epsilon entries; {entry.label!r} "
                f"charges eps={entry.epsilon:g} — use charge()/reserve()"
            )
        return self._append(entry)

    def _append(self, entry: LedgerEntry) -> LedgerEntry:
        entry.index = len(self._ledger)
        self._ledger.append(entry)
        charge = Fraction(float(entry.epsilon))
        self._spent += charge
        self._user_spent[entry.user] = self._user_spent.get(entry.user, 0) + charge
        return entry

    # -- per-user introspection (trivial in the single-tenant base) ------------
    def user_budget(self, user: Optional[str]) -> Optional[float]:
        """The sub-budget cap for ``user`` (``None`` = uncapped)."""
        return None

    def user_spent(self, user: Optional[str]) -> float:
        """Exact total ε charged to ``user`` so far."""
        return float(self._user_spent.get(user, 0))

    def user_remaining(self, user: Optional[str]) -> Optional[float]:
        """ε left in ``user``'s sub-budget (``None`` = uncapped)."""
        return None

    def users(self) -> Tuple[str, ...]:
        """Every tenant that appears in the ledger or holds a reservation."""
        seen = set(self._user_spent) | {r.user for r in self._reservations}
        return tuple(sorted(user for user in seen if user is not None))

    def audit_log(self) -> List[Dict[str, Any]]:
        """The ledger as JSON-friendly dicts (for export / inspection)."""
        return [entry.to_dict() for entry in self._ledger]


class HierarchicalAccountant(BudgetAccountant):
    """A global ε cap partitioned into per-user sub-budgets.

    The multi-tenant serving accountant: every release names a tenant, and
    it must fit under **both** the shared global cap (sequential
    composition over *all* releases — the privacy guarantee towards the
    sensitive dataset) and that tenant's own sub-budget (the service's
    fairness/quota guarantee).  Releases with ``user=None`` are only
    checked against the global cap.

    Parameters
    ----------
    budget:
        The shared global ε cap (``None`` = unlimited).
    default_user_budget:
        Sub-budget granted to any tenant not explicitly configured;
        ``None`` leaves unknown tenants uncapped (global cap only).
    user_budgets:
        Explicit ``{user: cap}`` overrides.

    >>> accountant = HierarchicalAccountant(1.0, default_user_budget=0.6)
    >>> r = accountant.reserve(0.5, label="q0", user="alice")
    >>> _ = r.commit(LedgerEntry(0, "q0", "recursive", "triangle/node",
    ...                          0.5, user="alice"))
    >>> round(accountant.user_remaining("alice"), 6)
    0.1
    >>> accountant.can_afford(0.2, user="alice")  # alice's sub-budget binds
    False
    >>> accountant.can_afford(0.2, user="bob")    # global cap still has room
    True
    """

    def __init__(
        self,
        budget: Optional[float] = None,
        *,
        default_user_budget: Optional[float] = None,
        user_budgets: Optional[Dict[str, float]] = None,
    ):
        super().__init__(budget)
        self.default_user_budget = (
            None if default_user_budget is None else validate_epsilon(
                default_user_budget, "default_user_budget"
            )
        )
        self._user_budgets: Dict[str, float] = {}
        for user, cap in (user_budgets or {}).items():
            self.set_user_budget(user, cap)

    def set_user_budget(self, user: str, budget: float) -> None:
        """Set (or tighten/loosen) one tenant's sub-budget cap."""
        self._user_budgets[user] = validate_epsilon(budget, f"user budget for {user!r}")

    def user_budget(self, user: Optional[str]) -> Optional[float]:
        if user is None:
            return None
        cap = self._user_budgets.get(user)
        return self.default_user_budget if cap is None else cap

    def user_reserved(self, user: Optional[str]) -> float:
        """Total ε held for ``user`` by outstanding reservations."""
        return math.fsum(r.epsilon for r in self._reservations if r.user == user)

    def user_remaining(self, user: Optional[str]) -> Optional[float]:
        cap = self.user_budget(user)
        if cap is None:
            return None
        return cap - math.fsum([self.user_spent(user), self.user_reserved(user)])

    def users(self) -> Tuple[str, ...]:
        seen = set(self._user_budgets) | set(self._user_spent) | {
            r.user for r in self._reservations
        }
        return tuple(sorted(user for user in seen if user is not None))

    def _refusal(self, epsilon, user):
        refusal = super()._refusal(epsilon, user)
        if refusal is not None:
            return refusal
        cap = self.user_budget(user)
        if cap is not None:
            total = math.fsum(
                [self.user_spent(user), self.user_reserved(user), epsilon]
            )
            if total > cap + _CAP_TOLERANCE:
                return ("user", user)
        return None
