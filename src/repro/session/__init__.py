"""Session-oriented serving layer: budget-accounted private query sessions.

The north-star serving shape: wrap the sensitive data once in a
:class:`PrivateSession`, then answer many private queries from it —
synchronously (:meth:`~PrivateSession.query`) or as futures fanned over a
shared fork-after-compile worker pool (:meth:`~PrivateSession.submit`) —
with every release charged to a hard privacy-budget cap, logged in a
replayable ledger, and served from a compiled-relation cache so repeated
queries skip the re-encode/re-compile entirely.  The cache is one store,
:class:`SharedCompiledCache`: a private unbounded instance per session by
default, or the process-wide :func:`shared_cache` (one
:class:`DatasetCacheView` namespace per served dataset).

>>> from repro import PrivateSession, random_graph_with_avg_degree
>>> g = random_graph_with_avg_degree(40, 6, rng=7)
>>> session = PrivateSession(g, budget=1.0, rng=7)
>>> r1 = session.query("triangle", privacy="edge", epsilon=0.5)
>>> r2 = session.query("triangle", privacy="edge", epsilon=0.5)  # warm
>>> session.cache_info().hits, session.remaining
(1, 0.0)
"""

from .accountant import (
    BudgetAccountant,
    BudgetExhausted,
    HierarchicalAccountant,
    LedgerEntry,
    Reservation,
)
from .cache import (
    CacheInfo,
    DatasetCacheView,
    SharedCompiledCache,
    shared_cache,
)
from .session import PrivateSession, QueryFuture, ReplayRecord, UpdateResult

__all__ = [
    "PrivateSession",
    "QueryFuture",
    "ReplayRecord",
    "UpdateResult",
    "BudgetAccountant",
    "HierarchicalAccountant",
    "Reservation",
    "BudgetExhausted",
    "LedgerEntry",
    "CacheInfo",
    "DatasetCacheView",
    "SharedCompiledCache",
    "shared_cache",
]
