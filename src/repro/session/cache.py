"""Compiled-relation cache: pay encode/compile once per distinct query.

Preparing a query is the expensive part of every release — enumerating
pattern occurrences, building the sensitive K-relation, and compiling the
φ-epigraph LP into CSR blocks.  A release from an already-prepared query
is just an overlay solve plus noise.  :class:`SharedCompiledCache` maps
:meth:`repro.mechanisms.QuerySpec.cache_key`-style keys to the prepared
objects so repeated (or concurrent) queries reuse them, and counts
hits/misses so callers can *assert* the reuse (the instrumentation the
acceptance tests and ``benchmarks/bench_session.py`` read).

It is the one store: every session owns a private unbounded instance
by default, while a long-lived serving process (many sessions, many
tenants) mounts one thread-safe, LRU-bounded instance across sessions,
so every tenant querying the same pattern reuses one compiled
``CompiledProgram`` — with its warm H/G entry caches — while old entries
age out instead of growing without bound.  :func:`shared_cache` hands
out the process-wide instance, and :class:`DatasetCacheView` is one
dataset's namespace on it (the view ``repro serve`` mounts per dataset).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

__all__ = [
    "CacheInfo",
    "DatasetCacheView",
    "SharedCompiledCache",
    "shared_cache",
    "options_token",
    "data_token",
]


def _value_token(value):
    """Hashable token for one option value (identity for rich objects)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    token = getattr(value, "cache_token", None)
    if token is not None:
        return token
    return (type(value).__name__, id(value))


def options_token(options: Dict) -> Tuple:
    """Canonical hashable token for a mechanism-options dict."""
    return tuple(sorted((key, _value_token(value)) for key, value in options.items()))


#: Attribute carrying a dataset's identity token (set lazily, once).
_DATA_TOKEN_ATTR = "_repro_data_token"
_DATA_TOKEN_COUNTER = iter(range(1, 2**63))


def data_token(data) -> object:
    """A process-unique identity token for one sensitive dataset.

    Cache keys must distinguish *which* data a query was compiled over —
    two sessions over different graphs mounted on one shared cache must
    never exchange compiled programs.  The token is stamped onto the
    object on first use (so it is never reused after garbage collection,
    unlike a raw ``id()``); objects refusing attributes fall back to
    identity, which is safe for anything the caller keeps alive.
    """
    token = getattr(data, _DATA_TOKEN_ATTR, None)
    if token is None:
        token = next(_DATA_TOKEN_COUNTER)
        try:
            setattr(data, _DATA_TOKEN_ATTR, token)
        except AttributeError:  # __slots__/frozen objects
            return (type(data).__name__, id(data))
    return token


@dataclass(frozen=True)
class CacheInfo:
    """A snapshot of cache instrumentation counters."""

    hits: int
    misses: int
    size: int
    evictions: int = 0
    maxsize: Optional[int] = None
    invalidations: int = 0


class SharedCompiledCache:
    """Keyed store of prepared (compiled) queries: thread-safe, LRU, bounded.

    A session owns a private unbounded instance unless it is handed one;
    many sessions (one per tenant, or one per connection) can mount the
    same instance, so the expensive enumerate/encode/compile work for a
    given ``(mechanism, options, pattern, privacy, weight)`` key is paid
    once per *process* instead of once per session — and the cached
    :class:`~repro.lp.compiled.CompiledProgram` keeps its warm H/G entry
    caches across tenants.

    ``maxsize`` bounds the entry count; the least-recently-*used* entry is
    evicted when a build pushes the store over the bound (``None`` =
    unbounded).  Builds run under the lock: two tenants racing on the same
    cold key compile once, with the loser blocking until the winner's
    entry is ready.
    """

    def __init__(self, maxsize: Optional[int] = None):
        self._entries: "OrderedDict[tuple, object]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0
        self._maxsize: Optional[int] = None
        self._lock = threading.RLock()
        self._views: Dict[str, "DatasetCacheView"] = {}
        self.resize(maxsize)

    @property
    def maxsize(self) -> Optional[int]:
        """The entry-count bound (``None`` = unbounded)."""
        return self._maxsize

    def get_or_build(self, key: tuple, build: Callable[[], object]):
        """Return ``(value, hit)`` — building and storing on first use."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._hits += 1
                self._entries.move_to_end(key)
                return entry, True
            self._misses += 1
            value = build()
            self._entries[key] = value
            self._trim()
            return value, False

    def touch(self, key: tuple) -> bool:
        """Whether ``key`` is stored, without building it: a stored key
        counts as a hit and becomes the most recently used, as in
        :meth:`get_or_build`; an absent one counts nothing."""
        with self._lock:
            if key not in self._entries:
                return False
            self._hits += 1
            self._entries.move_to_end(key)
            return True

    def invalidate(self, predicate: Callable[[tuple], bool]) -> int:
        """Drop every entry whose key satisfies ``predicate``.

        The dynamic-graph hook: after every update the session
        invalidates the compiled relations of the versions before the one
        the update superseded (they are
        never *served* to new queries either way — the version lives in
        the key — but invalidation frees the memory; replay rebuilds
        them).  Returns the number of entries removed.
        """
        with self._lock:
            removed = [key for key in self._entries if predicate(key)]
            for key in removed:
                del self._entries[key]
            self._invalidations += len(removed)
            return len(removed)

    def resize(self, maxsize: Optional[int]) -> None:
        """Change the bound, evicting LRU entries if now over it."""
        with self._lock:
            if maxsize is not None and (
                not isinstance(maxsize, int) or isinstance(maxsize, bool) or maxsize < 1
            ):
                raise ValueError(
                    f"maxsize must be a positive integer or None, got {maxsize!r}"
                )
            self._maxsize = maxsize
            self._trim()

    def _trim(self) -> None:
        """Evict least-recently-used entries down to the bound."""
        while self._maxsize is not None and len(self._entries) > self._maxsize:
            self._entries.popitem(last=False)
            self._evictions += 1

    def info(self) -> CacheInfo:
        """Current hit/miss/size/eviction counters."""
        with self._lock:
            return CacheInfo(
                hits=self._hits,
                misses=self._misses,
                size=len(self._entries),
                evictions=self._evictions,
                maxsize=self._maxsize,
                invalidations=self._invalidations,
            )

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    def namespaced(self, dataset: str) -> "DatasetCacheView":
        """A per-dataset view of this cache (storage shared, counters not).

        The router mounts one view per served dataset: entries still live
        in — and are LRU-bounded by — this one process-wide store, but
        each view counts its own hits/misses/invalidations, so per-dataset
        serving stats never conflate tenants' datasets.  Repeated calls
        with one name return the same view (counters accumulate across a
        dataset's sessions).
        """
        if not isinstance(dataset, str) or not dataset:
            raise ValueError(f"dataset must be a non-empty string, got {dataset!r}")
        with self._lock:
            view = self._views.get(dataset)
            if view is None:
                view = DatasetCacheView(self, dataset)
                self._views[dataset] = view
            return view


class DatasetCacheView:
    """One dataset's window onto a :class:`SharedCompiledCache`.

    Keys are prefixed with ``("dataset", name)`` before touching the
    parent store — so the parent's LRU bound, locking, and eviction apply
    globally — while the hit/miss/invalidation counters here are this
    dataset's alone.  (The parent's own counters keep counting every
    access, preserving the process-global totals.)
    """

    def __init__(self, parent: SharedCompiledCache, dataset: str):
        self._parent = parent
        self._dataset = dataset
        self._prefix = ("dataset", dataset)
        self._hits = 0
        self._misses = 0
        self._invalidations = 0

    @property
    def dataset(self) -> str:
        """The namespace (dataset name) this view serves."""
        return self._dataset

    def get_or_build(self, key: tuple, build: Callable[[], object]):
        """Return ``(value, hit)`` from the parent store, counted here."""
        value, hit = self._parent.get_or_build((self._prefix,) + key, build)
        if hit:
            self._hits += 1
        else:
            self._misses += 1
        return value, hit

    def touch(self, key: tuple) -> bool:
        """:meth:`SharedCompiledCache.touch` on the parent store, counted
        here."""
        hit = self._parent.touch((self._prefix,) + key)
        if hit:
            self._hits += 1
        return hit

    def invalidate(self, predicate: Callable[[tuple], bool]) -> int:
        """Drop this dataset's entries whose (unprefixed) key satisfies
        ``predicate``; returns the number removed."""

        def namespaced_predicate(key: tuple) -> bool:
            return (len(key) > 0 and key[0] == self._prefix and predicate(key[1:]))

        removed = self._parent.invalidate(namespaced_predicate)
        self._invalidations += removed
        return removed

    def info(self) -> CacheInfo:
        """This dataset's hit/miss/invalidation counters and entry count."""
        return CacheInfo(
            hits=self._hits,
            misses=self._misses,
            size=len(self),
            maxsize=self._parent.maxsize,
            invalidations=self._invalidations,
        )

    def __len__(self) -> int:
        with self._parent._lock:
            return sum(1 for key in self._parent._entries if key[:1] == (self._prefix,))

    def __contains__(self, key) -> bool:
        with self._parent._lock:
            return ((self._prefix,) + key) in self._parent._entries


#: Default bound of the process-wide shared cache (compiled programs can
#: be large; a serving process wants reuse, not unbounded growth).
DEFAULT_SHARED_MAXSIZE = 128

_SHARED: Optional[SharedCompiledCache] = None
_SHARED_LOCK = threading.Lock()


def shared_cache() -> SharedCompiledCache:
    """The process-wide :class:`SharedCompiledCache` (created on first use).

    Every caller in the process gets the same instance, so sessions
    created with ``cache=shared_cache()`` — and the network service, which
    does this by default — share compiled relations.  Use
    :meth:`SharedCompiledCache.resize` to change its bound.
    """
    global _SHARED
    with _SHARED_LOCK:
        if _SHARED is None:
            _SHARED = SharedCompiledCache(maxsize=DEFAULT_SHARED_MAXSIZE)
        return _SHARED
