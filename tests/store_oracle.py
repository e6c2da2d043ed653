"""Test-side occurrence-store oracle: the dict-of-frozensets representation.

The production maintainer (:class:`~repro.dynamic.IncrementalOccurrences`)
stores occurrences in the columnar store only.  This module keeps the
original dicts-of-frozensets representation as an independent reference:

* :class:`DictOccurrenceBackend` — one ``occurrence key → Occurrence``
  dict plus an inverted ``edge → keys`` index, ordered by a Python sort
  on the edge reprs (ties keep dict insertion order);
* :func:`use_dict_store` — swap it into one graph's maintainer, so the
  graph is a whole dict lane (legacy relation path included);
* :class:`TeeBackend` / :func:`tee_dict_oracle` — mirror every write of
  a columnar maintainer into a dict oracle, so one maintainer drives
  both stores with the identical insert/drop call sequence and a parity
  check costs no second delta-join enumeration;
* :func:`global_repr_ranks` / :func:`oracle_canonical_rows` /
  :func:`oracle_relation` — the columnar orders recomputed from ranks of
  *every* interned repr, against which the store's ranking of only the
  ids its rows use is pinned.

Canonical order breaks ties by insertion order in both stores, so equal
call sequences give elementwise equal ``sorted_occurrences()``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.subgraphs.matching import Occurrence

_EdgeKey = FrozenSet[object]
_OccKey = FrozenSet[_EdgeKey]


def _occ_key(occurrence: Occurrence) -> _OccKey:
    return frozenset(frozenset(edge) for edge in occurrence.edges)


def _occurrence_sort_key(occurrence: Occurrence) -> Tuple[str, ...]:
    return tuple(sorted(map(repr, occurrence.edges)))


class DictOccurrenceBackend:
    """The dict-of-objects occurrence store (the oracle)."""

    name = "dict"
    __slots__ = ("occurrences", "by_edge", "_sorted")

    def __init__(self):
        self.occurrences: Dict[_OccKey, Occurrence] = {}
        self.by_edge: Dict[_EdgeKey, Set[_OccKey]] = {}
        self._sorted: Optional[Tuple[Occurrence, ...]] = None

    def insert(self, occurrence: Occurrence) -> bool:
        key = _occ_key(occurrence)
        if key in self.occurrences:
            return False
        self.occurrences[key] = occurrence
        for edge in key:
            self.by_edge.setdefault(edge, set()).add(key)
        self._sorted = None
        return True

    def bulk_load(self, occurrences: Iterable[Occurrence]) -> None:
        self.clear()
        for occurrence in occurrences:
            self.insert(occurrence)

    def drop_edge(self, u, v) -> int:
        edge = frozenset((u, v))
        keys = self.by_edge.pop(edge, None)
        if not keys:
            return 0
        for key in keys:
            del self.occurrences[key]
            for other in key:
                if other == edge:
                    continue
                bucket = self.by_edge.get(other)
                if bucket is not None:
                    bucket.discard(key)
                    if not bucket:
                        del self.by_edge[other]
        self._sorted = None
        return len(keys)

    def clear(self) -> None:
        self.occurrences.clear()
        self.by_edge.clear()
        self._sorted = None

    def __len__(self) -> int:
        return len(self.occurrences)

    def sorted_occurrences(self) -> Tuple[Occurrence, ...]:
        if self._sorted is None:
            self._sorted = tuple(
                sorted(self.occurrences.values(), key=_occurrence_sort_key)
            )
        return self._sorted

    def occ_keys(self) -> Set[_OccKey]:
        return set(self.occurrences)

    def info(self) -> Dict[str, object]:
        return {"store": self.name}


def use_dict_store(graph):
    """Make ``graph``'s maintainer store occurrences in dicts; returns it.

    Call before any pattern is registered.  The dict store has no
    participant-index form, so ``relation_for`` answers ``None`` and
    queries take the legacy annotation path.
    """
    maintainer = graph.maintainer
    maintainer._make_backend = lambda pattern: DictOccurrenceBackend()
    maintainer.relation_for = lambda pattern, privacy: None
    return graph


class TeeBackend:
    """Forward every write to a primary store and an oracle; read the primary."""

    def __init__(self, primary, oracle: DictOccurrenceBackend):
        self.primary = primary
        self.oracle = oracle

    def insert(self, occurrence: Occurrence) -> bool:
        self.oracle.insert(occurrence)
        return self.primary.insert(occurrence)

    def bulk_load(self, occurrences: Iterable[Occurrence]) -> None:
        occurrences = list(occurrences)
        self.oracle.bulk_load(occurrences)
        self.primary.bulk_load(occurrences)

    def drop_edge(self, u, v) -> int:
        self.oracle.drop_edge(u, v)
        return self.primary.drop_edge(u, v)

    def __len__(self) -> int:
        return len(self.primary)

    def __getattr__(self, name):
        return getattr(self.primary, name)


def tee_dict_oracle(graph) -> Dict[tuple, DictOccurrenceBackend]:
    """Mirror ``graph``'s store writes into dict oracles, one per pattern.

    Call before any pattern is registered.  Returns a map from pattern
    ``cache_token`` to that pattern's oracle, filled as patterns register.
    """
    maintainer = graph.maintainer
    make_primary = maintainer._make_backend
    oracles: Dict[tuple, DictOccurrenceBackend] = {}

    def make_backend(pattern):
        oracle = oracles[pattern.cache_token] = DictOccurrenceBackend()
        return TeeBackend(make_primary(pattern), oracle)

    maintainer._make_backend = make_backend
    return oracles


def global_repr_ranks(interner, kind: str) -> np.ndarray:
    """Rank of every interned node or edge id by repr (ties share a rank)."""
    reprs = interner._edge_reprs if kind == "edge" else interner._node_reprs
    _, ranks = np.unique(np.asarray(reprs, dtype=object), return_inverse=True)
    return ranks.astype(np.int64)


def oracle_canonical_rows(backend) -> np.ndarray:
    """A columnar backend's alive rows, canonically ordered by global ranks."""
    table = backend.table
    rows = table.alive_rows()
    ranks = global_repr_ranks(backend.interner, "edge")[table.edge_columns(rows)]
    ranks.sort(axis=1)
    # lexsort's last key is the primary one: the smallest repr first
    return rows[np.lexsort(ranks.T[::-1])]


def oracle_relation(backend, privacy: str) -> Tuple[List[str], np.ndarray]:
    """``(sorted_participants, matrix)`` of the backend's relation.

    Rows in :func:`oracle_canonical_rows` order, each row's columns in
    repr order by global ranks, participants named and sorted in Python.
    """
    interner, table = backend.interner, backend.table
    rows = oracle_canonical_rows(backend)
    if privacy == "edge":
        columns, name = table.edge_columns(rows), interner.edge_name
    else:
        columns, name = table.node_columns(rows), interner.node_name
    ranks = global_repr_ranks(interner, privacy)[columns]
    children = np.take_along_axis(
        columns, np.argsort(ranks, axis=1, kind="stable"), axis=1
    )
    names = sorted({name(i) for i in children.ravel().tolist()})
    index = {participant: i for i, participant in enumerate(names)}
    matrix = np.array(
        [[index[name(i)] for i in row] for row in children.tolist()],
        dtype=np.int64,
    ).reshape(children.shape)
    return names, matrix
