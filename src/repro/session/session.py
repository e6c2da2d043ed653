"""The session-oriented query API: ``PrivateSession``.

A :class:`PrivateSession` wraps one sensitive dataset (a
:class:`~repro.graphs.Graph` or a prebuilt
:class:`~repro.core.sensitive.SensitiveKRelation`) and serves many private
queries from it:

* a **budget accountant** (:mod:`repro.session.accountant`) enforces a
  hard ε cap by sequential composition and keeps a replayable audit log;
* a **compiled-relation cache** (a
  :class:`~repro.session.cache.SharedCompiledCache`, private and
  unbounded unless one is passed in) reuses the expensive prepared state
  (K-relation encoding, compiled φ-epigraph LP, warm H/G entry caches)
  across repeated or concurrent queries — a warm query pays one overlay
  solve plus noise instead of a re-encode and re-compile;
* a **mechanism registry** dispatch (:mod:`repro.mechanisms`): every
  query names its mechanism (``"recursive"`` by default) and all results
  share :class:`~repro.results.ResultBase`;
* :meth:`PrivateSession.submit` fans queries out over one shared
  fork-after-compile :class:`~repro.parallel.pool.WorkerPool` and returns
  :class:`QueryFuture`\\ s — many concurrent private queries over shared
  compiled relations.

Determinism: with a seeded session (``rng=...``), every release the
session itself seeds draws from a pre-spawned ``SeedSequence`` child
assigned in submission order, so answers depend only on the session seed
and call order — never on worker count or scheduling.

One release path: :meth:`~PrivateSession.query` and
:meth:`~PrivateSession.submit` share their admission checks and build
the release's :class:`~repro.session.accountant.LedgerEntry` in one
place, and the worker pool runs the entry's recorded task — the same
task :meth:`~PrivateSession.replay` re-runs.  They differ only in their
failure policy: ``query`` rolls the reservation back and spends nothing,
``submit`` charges at admission and marks the entry ``"failed"``.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..core.sensitive import SensitiveKRelation
from ..dynamic import GraphDelta, VersionedGraph, version_token
from ..errors import GraphError, SessionError
from ..graphs.graph import Graph
from ..lp.highs_engine import HIGHS
from ..mechanisms import QuerySpec
from ..mechanisms import get as get_mechanism
from ..obs import metrics as obs_metrics
from ..obs import seed_trace_id
from ..obs import tracer as obs_tracer
from ..parallel.pool import WorkerPool, fork_available, resolve_workers
from ..results import ResultBase
from ..validation import validate_epsilon, validate_workers
from .accountant import BudgetAccountant, LedgerEntry
from .cache import (
    CacheInfo,
    DatasetCacheView,
    SharedCompiledCache,
    data_token,
    options_token,
)

__all__ = ["PrivateSession", "QueryFuture", "ReplayRecord", "UpdateResult"]


def _run_session_task(session: "PrivateSession", task) -> ResultBase:
    """Worker-side execution of one submitted query.

    ``task`` is ``(ledger task, seed, graph version)``: the pool runs
    exactly what :meth:`PrivateSession.replay` re-runs.  The session
    object is inherited through the fork (copy-on-write), so any query
    prepared before the pool was created is answered from the shared
    compiled state; new specs compile lazily in the worker.
    """
    release = session._recorded_release(*task)
    tick = time.perf_counter()
    with obs_tracer().span("session.release", pooled=True):
        result = release()
    obs_metrics().histogram("repro_release_seconds").observe(time.perf_counter() - tick)
    return result


@dataclass
class UpdateResult:
    """Outcome of one :meth:`PrivateSession.apply_update` call.

    ``deltas`` are the *effective* mutations (no-op actions excluded);
    ``version`` is the graph version after the update.
    """

    version: int
    deltas: Tuple[GraphDelta, ...]

    @property
    def applied(self) -> int:
        return len(self.deltas)


@dataclass
class ReplayRecord:
    """Outcome of re-executing one ledger entry during an audit replay.

    ``matches`` is ``None`` for entries that cannot be replayed (caller
    supplied an in-flight generator, or the release never completed).
    """

    entry: LedgerEntry
    replayed_answer: Optional[float]
    matches: Optional[bool]


class QueryFuture:
    """Handle to one submitted query's eventual result.

    Created by :meth:`PrivateSession.submit`.  The privacy budget is
    charged at submission time (the noisy answer *will* exist; refusing
    to pay on a crash would itself be a side channel); the ledger entry
    flips from ``"pending"`` to ``"released"`` (or ``"failed"``) when the
    worker finishes.
    """

    def __init__(
        self,
        entry: LedgerEntry,
        value: Optional[ResultBase] = None,
        async_result=None,
        error: Optional[BaseException] = None,
    ):
        self.entry = entry
        self._value = value
        self._async = async_result
        self._error = error

    def done(self) -> bool:
        """Whether the result (or failure) is already available."""
        if self._async is not None:
            return self._async.ready()
        return True

    def result(self, timeout: Optional[float] = None) -> ResultBase:
        """Block for and return the release (re-raising worker errors)."""
        if self._error is not None:
            raise self._error
        if self._value is None and self._async is not None:
            self._value = self._async.get(timeout)
        if self._value is None:
            raise SessionError("query produced no result")
        return self._value


class PrivateSession:
    """A budget-accounted serving session over one sensitive dataset.

    Parameters
    ----------
    data:
        The sensitive data: a :class:`~repro.graphs.Graph` (subgraph
        queries) or a :class:`~repro.core.sensitive.SensitiveKRelation`
        (linear queries).  A :class:`~repro.dynamic.VersionedGraph`
        makes the session *dynamic*: :meth:`apply_update` mutates the
        graph, cache keys carry the graph version, and the ledger
        replays every answer against the version it was released at.
    budget:
        Total ε cap across all releases (sequential composition);
        ``None`` = unlimited (still fully ledgered).
    workers:
        Worker processes for :meth:`submit` fan-out; ``1`` (default)
        stays in-process, ``None`` resolves ``$REPRO_WORKERS`` / CPU
        count.  Each release solves its LPs in one process whatever the
        count, so the count is not part of any cache key.
    rng:
        Session seed: releases whose ``rng`` the caller leaves ``None``
        draw from ``SeedSequence`` children spawned in call order, so a
        seeded session is reproducible end-to-end (and replayable).
    name:
        Label used in error messages and the audit log.
    accountant:
        A prebuilt :class:`~repro.session.accountant.BudgetAccountant` to
        charge releases to — e.g. a
        :class:`~repro.session.accountant.HierarchicalAccountant`
        partitioning the cap into per-user sub-budgets (the network
        service's mode).  Mutually exclusive with ``budget``.
    cache:
        A prebuilt :class:`~repro.session.cache.SharedCompiledCache` (or
        one dataset's :class:`~repro.session.cache.DatasetCacheView` of
        one) to serve prepared queries from — e.g. the process-wide
        :func:`~repro.session.cache.shared_cache`, so several sessions
        reuse one compiled program per distinct query.  Default: a
        private unbounded per-session store.

    >>> from repro import PrivateSession, random_graph_with_avg_degree
    >>> g = random_graph_with_avg_degree(40, 6, rng=7)
    >>> with PrivateSession(g, budget=2.0, rng=7) as session:
    ...     result = session.query("triangle", privacy="edge", epsilon=0.5)
    ...     spent = session.spent
    >>> spent
    0.5
    """

    def __init__(
        self,
        data,
        budget: Optional[float] = None,
        *,
        workers: Optional[int] = 1,
        rng=None,
        name: str = "session",
        accountant: Optional[BudgetAccountant] = None,
        cache: Optional[Union[SharedCompiledCache, DatasetCacheView]] = None,
    ):
        if not isinstance(data, (Graph, SensitiveKRelation)):
            raise SessionError(
                "PrivateSession wraps a Graph or a SensitiveKRelation, "
                f"got {type(data).__name__}"
            )
        if accountant is not None:
            if budget is not None:
                raise SessionError(
                    "pass either budget= or a prebuilt accountant=, not both"
                )
            if not isinstance(accountant, BudgetAccountant):
                raise SessionError(
                    "accountant must be a BudgetAccountant, got "
                    f"{type(accountant).__name__}"
                )
        if cache is not None and not isinstance(
            cache, (SharedCompiledCache, DatasetCacheView)
        ):
            raise SessionError(
                "cache must be a SharedCompiledCache or a DatasetCacheView, "
                f"got {type(cache).__name__}"
            )
        self._data = data
        self._dynamic = isinstance(data, VersionedGraph)
        self._workers = validate_workers(workers)
        self.name = name
        self.accountant = (
            accountant if accountant is not None else BudgetAccountant(budget)
        )
        self._cache = cache if cache is not None else SharedCompiledCache()
        self._seed_root = self._seed_sequence_from(rng)
        self._pool: Optional[WorkerPool] = None
        self._pool_version: Optional[int] = None
        self._closed = False

    # -- construction helpers ---------------------------------------------------
    @staticmethod
    def _seed_sequence_from(rng) -> np.random.SeedSequence:
        """Build the session's root seed sequence from an ``rng``-like."""
        if rng is None:
            # repro: allow(rng-determinism) — rng=None is the documented
            # OS-entropy session; seeded sessions replay byte-identically,
            # pinned by
            # tests/test_session.py::test_ledger_replay_matches_released_answers
            return np.random.SeedSequence()
        if isinstance(rng, np.random.SeedSequence):
            return rng
        if isinstance(rng, (int, np.integer)):
            return np.random.SeedSequence(int(rng))
        if isinstance(rng, np.random.Generator):
            return np.random.SeedSequence(int(rng.integers(0, 2**63 - 1)))
        raise SessionError(f"cannot derive a session seed from {rng!r}")

    # -- introspection ----------------------------------------------------------
    @property
    def data(self):
        """The wrapped sensitive dataset."""
        return self._data

    @property
    def dynamic(self) -> bool:
        """Whether the session's data accepts live updates
        (a :class:`~repro.dynamic.VersionedGraph`)."""
        return self._dynamic

    @property
    def graph_version(self) -> Optional[int]:
        """The current graph version (``None`` over static data)."""
        return self._data.version if self._dynamic else None

    @property
    def lp_backend(self) -> str:
        """Name of the LP solver behind every release (``"highs"``), the
        identity the ledger and the service ``hello`` frame carry."""
        return HIGHS.name

    @property
    def budget(self) -> Optional[float]:
        """The session's total ε cap (``None`` = unlimited)."""
        return self.accountant.budget

    @property
    def spent(self) -> float:
        """Total ε charged so far (exact sum over the ledger)."""
        return self.accountant.spent

    @property
    def remaining(self) -> Optional[float]:
        """ε left under the cap (``None`` for unlimited sessions)."""
        return self.accountant.remaining

    @property
    def ledger(self) -> Tuple[LedgerEntry, ...]:
        """The audit log (release order)."""
        return self.accountant.ledger

    def audit_log(self) -> List[Dict]:
        """JSON-friendly audit log export."""
        return self.accountant.audit_log()

    def cache_info(self) -> CacheInfo:
        """Compiled-relation cache counters (hits / misses / size)."""
        return self._cache.info()

    def maintenance_info(self) -> Optional[List[Dict[str, object]]]:
        """Occurrence-maintenance counters, one row per registered pattern.

        Dynamic sessions report their
        :meth:`~repro.dynamic.IncrementalOccurrences.info` rows —
        occurrence counts, rebuilds, deltas applied, delta-join ball
        sizes, and the occurrence-store counters.
        ``None`` over static data (nothing is being maintained).
        """
        if not self._dynamic:
            return None
        return self._data.maintainer.info()

    # -- internals --------------------------------------------------------------
    def _ensure_open(self) -> None:
        if self._closed:
            raise SessionError(f"session {self.name!r} is closed")

    def _default_privacy(self) -> str:
        return "node" if isinstance(self._data, Graph) else "edge"

    def _resolve_spec(
        self, query, privacy, mechanism, weight, options, version: Optional[int] = None
    ):
        """Resolve a query to ``(cls, spec, opts, cache key)`` — no compile."""
        cls = get_mechanism(mechanism)
        if privacy is None:
            privacy = self._default_privacy()
        spec = QuerySpec.of(query, privacy=privacy, weight=weight)
        opts = dict(options)
        # The data token keeps sessions over *different* datasets apart
        # on a shared (process-wide) cache.  The version token (None over
        # static data) keeps different states of *one* dynamic dataset
        # apart: a compiled LP of a superseded version is never served to
        # a new query, while still-warm entries stay reusable for replay
        # until invalidated or evicted.
        if self._dynamic:
            token = version_token(self._data.version if version is None else version)
        else:
            token = None
        key = (
            data_token(self._data), token, cls.name, options_token(opts)
        ) + spec.cache_key()
        return cls, spec, opts, key

    def _prepare_query(self, resolved, version: Optional[int] = None):
        """(Re)use the prepared query state of a :meth:`_resolve_spec` result.

        ``version`` (dynamic sessions only) prepares against a historical
        graph version — the replay path; ``resolved`` must have been
        resolved at the same version.  The checkout is lazy: a warm cache
        hit never materializes the old graph.
        """
        cls, spec, opts, key = resolved

        def build():
            data = self._data
            if (version is not None and self._dynamic
                    and version != self._data.version):
                # Rebuild through the same occurrence-provider path the
                # live store uses, so tuple order — and the compiled LP —
                # is bit-identical to the original preparation.
                data = self._data.checkout(version)
            return cls(data, **opts).prepare(spec)

        tick = time.perf_counter()
        with obs_tracer().span("session.prepare", mechanism=cls.name):
            prepared, hit = self._cache.get_or_build(key, build)
        outcome = "hit" if hit else "miss"
        registry = obs_metrics()
        registry.counter("repro_cache_requests_total", result=outcome).inc()
        registry.histogram("repro_compile_seconds", cache=outcome).observe(
            time.perf_counter() - tick
        )
        return prepared, hit, cls.name, spec

    def _admission(self, epsilon, params, at_version, label):
        """``(charged ε, at_version, label)`` of one release, validated
        before any budget is held.  The params override wins, as in the
        one-shot wrappers; ``at_version`` (historical queries) needs a
        dynamic session and a version the live graph has reached."""
        self._ensure_open()
        if params is not None:
            charged = float(params.epsilon)
        elif epsilon is None:
            raise SessionError("pass epsilon= (or params=) to every query")
        else:
            charged = validate_epsilon(epsilon)
        if at_version is not None:
            if not self._dynamic:
                raise SessionError(
                    "at_version= needs a dynamic session (wrap the graph in "
                    "repro.dynamic.VersionedGraph)"
                )
            if (not isinstance(at_version, (int, np.integer))
                    or isinstance(at_version, bool) or at_version < 0):
                raise SessionError(
                    f"at_version must be a non-negative integer, got {at_version!r}"
                )
            at_version = int(at_version)
            if at_version > self._data.version:
                raise SessionError(
                    f"at_version={at_version} is ahead of the live graph "
                    f"(version {self._data.version})"
                )
        label = label if label is not None else f"q{len(self.accountant)}"
        return charged, at_version, label

    def _release_entry(
        self, label, user, charged, seed, hit, spec, mechanism, at_version,
        query, weight, options, epsilon, params,
    ) -> LedgerEntry:
        """The ledger entry of one release, ``"pending"`` until it completes.

        Its ``task`` extra — ``(query, weight, privacy, mechanism, options,
        epsilon, params)`` — is what :meth:`_recorded_release` re-runs: the
        worker pool for a pooled submission, and :meth:`replay` for every
        entry.
        """
        entry = LedgerEntry(
            index=0,
            label=label,
            mechanism=mechanism,
            query=spec.describe(),
            epsilon=charged,
            seed=seed,
            status="pending",
            cache_hit=hit,
            user=user,
        )
        entry.extra["task"] = (
            query, weight, spec.privacy, mechanism, dict(options), epsilon, params
        )
        if mechanism == "recursive":
            entry.extra["lp_backend"] = self.lp_backend
        if self._dynamic:
            entry.extra["version"] = (
                self._data.version if at_version is None else at_version
            )
        return entry

    @staticmethod
    def _settle(entry: LedgerEntry, start: float, result=None) -> None:
        """Complete an entry: ``"released"`` with ``result``'s answer, or
        ``"failed"`` without one."""
        entry.seconds = time.perf_counter() - start
        if result is None:
            entry.status = "failed"
        else:
            entry.answer = float(result.answer)
            entry.status = "released"

    def _recorded_release(self, task, seed, version):
        """Prepare a ledger task at its graph version; returns the
        zero-argument release that draws its noise from ``seed``."""
        query, weight, privacy, mechanism, options, epsilon, params = task
        prepared, _, _, _ = self._prepare_query(
            self._resolve_spec(
                query, privacy, mechanism, weight, options, version=version
            ),
            version=version,
        )
        return functools.partial(
            prepared.release, epsilon, np.random.default_rng(seed), params=params
        )

    def _generator_for(self, rng):
        """``(generator, replayable seed token)`` for one release."""
        if isinstance(rng, np.random.Generator):
            return rng, None  # in-flight stream: budgeted but not replayable
        seed = self._seed_for(rng)
        return np.random.default_rng(seed), seed

    def _seed_for(self, rng):
        """The replayable seed token of one release: the next session seed
        for ``None``, else the int seed or ``SeedSequence`` itself."""
        if rng is None:
            return self._seed_root.spawn(1)[0]
        if isinstance(rng, (int, np.integer)):
            return int(rng)
        if isinstance(rng, np.random.SeedSequence):
            return rng
        raise SessionError(f"cannot build a generator from {rng!r}")

    # -- the serving API --------------------------------------------------------
    def prepared(
        self,
        query=None,
        *,
        privacy: Optional[str] = None,
        mechanism: str = "recursive",
        weight=None,
        **options,
    ):
        """The cached :class:`~repro.mechanisms.PreparedQuery` for a spec.

        Spends **no** privacy budget — preparation touches only the
        sensitive data's structure, never releases anything.  Compiles
        (and caches) on first use; the network service uses this to warm
        the shared cache before accepting traffic.
        """
        self._ensure_open()
        prepared, _, _, _ = self._prepare_query(
            self._resolve_spec(query, privacy, mechanism, weight, options)
        )
        return prepared

    def query(
        self,
        query=None,
        *,
        epsilon=None,
        privacy: Optional[str] = None,
        mechanism: str = "recursive",
        rng=None,
        params=None,
        label: Optional[str] = None,
        weight=None,
        user: Optional[str] = None,
        at_version: Optional[int] = None,
        **options,
    ) -> ResultBase:
        """Answer one private query synchronously.

        ``query`` is a subgraph :class:`~repro.subgraphs.Pattern` or query
        name for graph sessions, or a
        :class:`~repro.core.queries.LinearQuery`/``None`` (counting) for
        relation sessions.  ``privacy`` defaults to ``"node"`` over graphs
        and ``"edge"`` over relations.  ``mechanism`` is a registry name
        (:func:`repro.mechanisms.available`); extra keyword ``options`` go
        to the mechanism constructor (e.g. ``bounding=``, ``delta=``).
        ``user`` names the tenant the release is charged to — enforced
        against that tenant's sub-budget when the session's accountant is
        a :class:`~repro.session.accountant.HierarchicalAccountant`.
        ``at_version`` (dynamic sessions only) answers against a
        historical graph version instead of the live one — the budget is
        charged as usual and the ledger entry records that version.

        The budget is *reserved* before any work
        (:class:`~repro.session.accountant.BudgetExhausted` if it cannot
        fit) and committed to the replayable ledger only when the release
        succeeds — a failed release rolls the reservation back and spends
        nothing.
        """
        charged, at_version, label = self._admission(
            epsilon, params, at_version, label
        )
        reservation = self.accountant.reserve(charged, label=label, user=user)
        obs_metrics().counter("repro_budget_reserved_total").inc()
        try:
            prepared, hit, mech_name, spec = self._prepare_query(
                self._resolve_spec(
                    query, privacy, mechanism, weight, options, version=at_version
                ),
                version=at_version,
            )
            generator, seed_token = self._generator_for(rng)
            start = time.perf_counter()
            with obs_tracer().span(
                "session.query",
                trace_id=seed_trace_id(seed_token, user),
                label=label,
                mechanism=mech_name,
            ):
                result = prepared.release(epsilon, generator, params=params)
        except BaseException:
            reservation.rollback()
            obs_metrics().counter("repro_budget_rolled_back_total").inc()
            raise
        entry = self._release_entry(
            label, user, charged, seed_token, hit, spec, mech_name, at_version,
            query, weight, options, epsilon, params,
        )
        self._settle(entry, start, result)
        obs_metrics().histogram("repro_release_seconds").observe(entry.seconds)
        reservation.commit(entry)
        obs_metrics().counter("repro_budget_committed_total").inc()
        return result

    def submit(
        self,
        query=None,
        *,
        epsilon=None,
        privacy: Optional[str] = None,
        mechanism: str = "recursive",
        rng=None,
        params=None,
        label: Optional[str] = None,
        user: Optional[str] = None,
        at_version: Optional[int] = None,
        **options,
    ) -> QueryFuture:
        """Submit one private query for asynchronous execution.

        Fans out over the session's shared fork-after-compile
        :class:`~repro.parallel.pool.WorkerPool` (created lazily on first
        use, *after* this query is prepared, so workers inherit the
        compiled state copy-on-write).  With ``workers=1`` — or on
        platforms without ``fork`` — the query runs eagerly in-process
        with identical results: every submission draws its seed from the
        session stream in call order, so released answers are
        byte-identical for any worker count at a fixed session seed.

        The budget is charged *at submission* (hard cap enforced before
        dispatch), to ``user``'s sub-budget when the accountant is
        hierarchical; ``rng`` must be ``None`` (session stream), an
        ``int`` seed, or a ``SeedSequence`` — in-flight generators cannot
        cross the process boundary deterministically.  Tasks must pickle:
        constrained patterns and lambda weights need :meth:`query`
        instead — a pooled task that does not pickle fails its future
        (``PicklingError``).  A worker that dies mid-release fails its
        future with :class:`~repro.errors.WorkerPoolError` and is
        replaced.  Either way the ledger entry turns ``"failed"`` and the
        ε stays charged.  ``at_version`` answers against a historical
        graph version (dynamic sessions), exactly as in :meth:`query`.
        """
        charged, at_version, label = self._admission(
            epsilon, params, at_version, label
        )
        if rng is not None and not isinstance(
            rng, (int, np.integer, np.random.SeedSequence)
        ):
            raise SessionError(
                "submit() needs a replayable rng (None, int seed, or "
                f"SeedSequence), got {type(rng).__name__}; use query() for "
                "in-flight generators"
            )
        reservation = self.accountant.reserve(charged, label=label, user=user)
        obs_metrics().counter("repro_budget_reserved_total").inc()
        try:
            workers = resolve_workers(self._workers)
            pooled = workers > 1 and fork_available()
            if pooled and self._pool_version != self.graph_version:
                # A pool forked before a graph mutation must never serve
                # a newer version: apply_update() retires it, but direct
                # VersionedGraph mutation bypasses that — retire (or
                # refuse, if futures are still in flight) here instead
                # of silently answering from the stale forked state.
                self._retire_pool(
                    "the graph was mutated while submitted queries were in "
                    "flight on the worker pool; collect their futures before "
                    "submitting more (or mutate via apply_update(), which "
                    "enforces this)"
                )
            resolved = self._resolve_spec(
                query, privacy, mechanism, None, options, version=at_version
            )
            cls, spec, opts, key = resolved
            # Prepare parent-side only where the compiled state will
            # actually be shared: eagerly for in-process execution, and
            # before the first fork so workers inherit it copy-on-write.
            # Once the pool exists, only the worker prepares (compiling a
            # new spec lazily instead of blocking the submitter on a
            # compile the pool would repeat); the parent's cache just
            # records whether it holds the spec, for the ledger.
            if not pooled or self._pool is None:
                prepared, hit, _, _ = self._prepare_query(
                    resolved, version=at_version
                )
            else:
                prepared, hit = None, self._cache.touch(key)
                if not hit:
                    # the worker builds the mechanism; an unknown option
                    # must fail here, before the ε is committed
                    cls(self._data, **opts)
            seed = self._seed_for(rng)
        except BaseException:
            reservation.rollback()
            obs_metrics().counter("repro_budget_rolled_back_total").inc()
            raise
        entry = self._release_entry(
            label, user, charged, seed, hit, spec, cls.name, at_version,
            query, None, options, epsilon, params,
        )
        # Charged at submission: the noisy answer *will* exist (refusing
        # to pay on a crash would itself be a side channel).
        reservation.commit(entry)
        obs_metrics().counter("repro_budget_committed_total").inc()
        start = time.perf_counter()

        if not pooled:
            try:
                with obs_tracer().span(
                    "session.submit",
                    trace_id=seed_trace_id(seed, user),
                    label=label,
                    mechanism=cls.name,
                    pooled=False,
                ):
                    result = prepared.release(
                        epsilon, np.random.default_rng(seed), params=params
                    )
            except Exception as error:
                self._settle(entry, start)
                return QueryFuture(entry, error=error)
            self._settle(entry, start, result)
            obs_metrics().histogram("repro_release_seconds").observe(entry.seconds)
            return QueryFuture(entry, value=result)

        def _on_error(_error: BaseException) -> None:
            self._settle(entry, start)

        task = (entry.extra["task"], seed, entry.extra.get("version"))
        # The span brackets dispatch only (the release itself is timed
        # worker-side); entering it installs the request's deterministic
        # trace context so pool.submit() ships it across the fork.
        with obs_tracer().span(
            "session.submit",
            trace_id=seed_trace_id(seed, user),
            label=label,
            mechanism=cls.name,
            pooled=True,
        ):
            async_result = self._ensure_pool(workers).submit(
                task,
                callback=functools.partial(self._settle, entry, start),
                error_callback=_on_error,
            )
        return QueryFuture(entry, async_result=async_result)

    def _ensure_pool(self, workers: int) -> WorkerPool:
        """The shared worker pool, forked on first use."""
        if self._pool is None:
            self._pool = WorkerPool(workers, _run_session_task, payload=self)
            self._pool_version = self.graph_version
        return self._pool

    def _retire_pool(self, busy: str) -> None:
        """Close the worker pool, refusing with ``busy`` while submitted
        queries are still in flight on it."""
        if self._pool is None:
            return
        if self._pool.inflight():
            raise SessionError(busy)
        self._pool.close()
        self._pool = None

    # -- live updates -----------------------------------------------------------
    def apply_update(
        self,
        updates,
        *,
        label: Optional[str] = None,
        user: Optional[str] = None,
    ) -> UpdateResult:
        """Mutate the session's graph and bump its version.

        ``updates`` is a sequence of update actions (``{"action":
        "add_edge", "u": ..., "v": ...}`` / ``{"action": "remove_node",
        "node": ...}`` objects, or prebuilt
        :class:`~repro.dynamic.GraphDelta`\\ s) applied in order.  The
        update is recorded in the audit ledger (``status="update"``,
        ``epsilon=0.0`` — updates touch the data, not the privacy
        budget), so :meth:`replay` can reproduce every answer against
        the exact version it was released at.

        Queries admitted after the update recompile against the new
        version, reusing the incrementally maintained occurrence relation
        instead of re-enumerating.  Compiled relations of every version
        older than the one this update supersedes are evicted from the
        cache (version-tagged cache keys), so at most the live version and
        the one just before it stay compiled: no new query can use older
        ones, and a replay of an older entry rebuilds its relation from a
        snapshot, bit for bit.

        The shared worker pool (if any) is retired so later submissions
        fork workers that see the new state — collect every pending
        :class:`QueryFuture` first; updating with submissions in flight
        raises :class:`~repro.errors.SessionError`.

        Application is sequential, not transactional: an invalid action
        raises after earlier actions took effect — the ledger entry then
        records the applied prefix.
        """
        self._ensure_open()
        if not self._dynamic:
            raise SessionError(
                "apply_update() needs a session over a dynamic graph; "
                "wrap it in repro.dynamic.VersionedGraph first"
            )
        self._retire_pool(
            "apply_update() with submitted queries still in flight; collect "
            "their futures first"
        )
        label = label if label is not None else f"u{len(self.accountant)}"
        old_version = self._data.version
        start = time.perf_counter()
        applied = []
        failure = None
        try:
            for action in updates:
                delta = self._data.apply(action)
                if delta is not None:
                    applied.append(delta)
        except (GraphError, TypeError, ValueError) as error:
            failure = error
        new_version = self._data.version
        entry = LedgerEntry(
            index=0,
            label=label,
            mechanism="-",
            query=f"update v{old_version}->v{new_version}",
            epsilon=0.0,
            status="update" if failure is None else "update-failed",
            seconds=time.perf_counter() - start,
            user=user,
        )
        entry.extra["update"] = [delta.to_dict() for delta in applied]
        entry.extra["version"] = new_version
        self.accountant.record(entry)
        token = data_token(self._data)
        kept = {version_token(old_version), version_token(new_version)}
        self._cache.invalidate(
            lambda key: (
                len(key) >= 2
                and key[0] == token
                and key[1] is not None
                and key[1] not in kept
            )
        )
        if failure is not None:
            raise failure
        return UpdateResult(version=new_version, deltas=tuple(applied))

    # -- audit ------------------------------------------------------------------
    def replay(self) -> List[ReplayRecord]:
        """Re-execute the audit log and compare against released answers.

        Every replayable ledger entry (session-seeded or int-seeded, and
        completed) is re-run through the compiled-relation cache with its
        recorded seed; determinism of the mechanism stack makes the
        replayed answer bit-for-bit equal to the released one.  Replay
        spends **no** budget — it re-derives already-released values.

        Dynamic sessions replay each entry against the graph **version
        it was released at**: the ledger records the version alongside
        the seed, so answers straddling :meth:`apply_update` calls still
        verify bit-for-bit (warm from the version-tagged cache when the
        compiled state survived, rebuilt from a log snapshot otherwise).
        """
        records = []
        for entry in self.accountant.ledger:
            if not entry.replayable or entry.answer is None:
                records.append(ReplayRecord(entry, None, None))
                continue
            result = self._recorded_release(
                entry.extra["task"], entry.seed, entry.extra.get("version")
            )()
            records.append(
                ReplayRecord(
                    entry, float(result.answer), float(result.answer) == entry.answer
                )
            )
        return records

    def verify_ledger(self) -> bool:
        """Whether every replayable ledger entry reproduces its answer."""
        return all(record.matches is not False for record in self.replay())

    # -- lifecycle --------------------------------------------------------------
    def close(self) -> None:
        """Shut the shared worker pool down and refuse further queries.

        Collect pending futures (``future.result()``) *before* closing —
        close terminates the pool.  The ledger and cache stay readable.
        """
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        self._closed = True

    def __enter__(self) -> "PrivateSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        cap = "unlimited" if self.budget is None else f"{self.budget:g}"
        return (
            f"PrivateSession({self.name!r}, budget={cap}, "
            f"spent={self.spent:g}, queries={len(self.accountant)})"
        )
