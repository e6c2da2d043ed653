"""One columnar occurrence table per registered pattern.

Rows are occurrences of a single pattern (``k`` nodes, ``m`` edges);
the backing store is one NumPy structured array with a ``nodes`` field
(``k`` interned node ids, ascending) and an ``edges`` field (``m``
interned edge ids, ascending — the row's orientation-free identity,
the frozenset of the occurrence's edges as ids).  Deletes are
tombstones in a parallel ``alive`` mask; the table is append-only, so a
row index doubles as insertion order (which the canonical ordering's
tie-breaking relies on).

The inverted edge index (edge id → rows) is kept LSM-style: a *frozen*
run — postings sorted by key, answered with two ``searchsorted`` probes —
plus an unindexed append tail that is scanned vectorized; the frozen run
is rebuilt when the tail outgrows :data:`_TAIL_FRACTION` of the table.
Dead rows are filtered from posting hits by the ``alive`` mask at read
time.

:meth:`ColumnarOccurrenceTable.canonical_order` reproduces the canonical
occurrence sort (a stable sort on ``tuple(sorted(map(repr, edges)))``) as
a pure integer computation: rank the alive rows' edge ids by repr (equal
reprs share a rank), sort within the row, then a stable ``np.lexsort``
across columns — ties fall back to row order, which is insertion order,
exactly like a stable Python sort over the rows in insertion order.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["ColumnarOccurrenceTable"]

#: Rebuild the frozen inverted index once the tail exceeds
#: ``max(_TAIL_MIN, size // _TAIL_FRACTION)`` rows.
_TAIL_MIN = 256
_TAIL_FRACTION = 4

_EMPTY_ROWS = np.empty(0, dtype=np.int64)


class _InvertedIndex:
    """Frozen sorted postings (key → row ids) over one id column block."""

    __slots__ = ("keys", "rows")

    def __init__(self):
        self.keys = _EMPTY_ROWS
        self.rows = _EMPTY_ROWS

    def build(self, columns: np.ndarray, row_ids: np.ndarray) -> None:
        width = columns.shape[1] if columns.ndim == 2 else 1
        flat = columns.ravel()
        rows = np.repeat(row_ids, width)
        order = np.argsort(flat, kind="stable")  # stable: ascending rows per key
        self.keys = flat[order]
        self.rows = rows[order]

    def lookup(self, key: int) -> np.ndarray:
        lo = np.searchsorted(self.keys, key, side="left")
        hi = np.searchsorted(self.keys, key, side="right")
        return self.rows[lo:hi]


class ColumnarOccurrenceTable:
    """Append-only occurrence rows with a searchsorted inverted edge index."""

    __slots__ = (
        "_rows",
        "_alive",
        "_size",
        "_indexed",
        "_edge_index",
        "_dead",
        "index_rebuilds",
        "_canonical",
        "mutations",
    )

    def __init__(self, num_nodes: int, num_edges: int):
        dtype = np.dtype(
            [
                ("nodes", np.int64, (int(num_nodes),)),
                ("edges", np.int64, (int(num_edges),)),
            ]
        )
        self._rows = np.empty(0, dtype=dtype)
        self._alive = np.empty(0, dtype=bool)
        self._size = 0           # rows appended (alive + tombstoned)
        self._indexed = 0        # rows covered by the frozen index
        self._edge_index = _InvertedIndex()
        self._dead = 0
        self.index_rebuilds = 0
        self._canonical: Optional[np.ndarray] = None
        #: Monotone write counter — cache-invalidation token for readers.
        self.mutations = 0

    # -- shape ---------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size - self._dead

    @property
    def num_rows(self) -> int:
        """Appended rows including tombstones."""
        return self._size

    @property
    def tail_rows(self) -> int:
        """Rows not yet covered by the frozen inverted index."""
        return self._size - self._indexed

    # -- internal helpers ------------------------------------------------------------
    def _reserve(self, extra: int) -> None:
        needed = self._size + extra
        if needed <= self._rows.shape[0]:
            return
        capacity = max(needed, 2 * self._rows.shape[0], 1024)
        rows = np.empty(capacity, dtype=self._rows.dtype)
        rows[: self._size] = self._rows[: self._size]
        alive = np.zeros(capacity, dtype=bool)
        alive[: self._size] = self._alive[: self._size]
        self._rows = rows
        self._alive = alive

    def _rebuild_index(self) -> None:
        row_ids = np.flatnonzero(self._alive[: self._size])
        self._edge_index.build(self._rows["edges"][row_ids], row_ids)
        self._indexed = self._size
        self.index_rebuilds += 1

    def _maybe_rebuild(self) -> None:
        tail = self._size - self._indexed
        if tail > max(_TAIL_MIN, self._size // _TAIL_FRACTION):
            self._rebuild_index()

    def _tail_rows_with(self, edge_id: int) -> np.ndarray:
        lo, hi = self._indexed, self._size
        if lo == hi:
            return _EMPTY_ROWS
        block = self._rows["edges"][lo:hi]
        return np.flatnonzero((block == edge_id).any(axis=1)) + lo

    def _alive_only(self, rows: np.ndarray) -> np.ndarray:
        if rows.size == 0:
            return rows
        return rows[self._alive[rows]]

    # -- reads ---------------------------------------------------------------------
    def rows_for_edge(self, edge_id: int) -> np.ndarray:
        """Alive row ids using ``edge_id``, ascending (insertion order)."""
        frozen = self._edge_index.lookup(edge_id)
        tail = self._tail_rows_with(edge_id)
        rows = np.concatenate((frozen, tail)) if tail.size else frozen
        return self._alive_only(rows)

    def alive_rows(self) -> np.ndarray:
        """All alive row ids in insertion order."""
        return np.flatnonzero(self._alive[: self._size])

    def node_columns(self, rows: np.ndarray) -> np.ndarray:
        """``(len(rows), k)`` interned node ids (ascending per row)."""
        return self._rows["nodes"][rows]

    def edge_columns(self, rows: np.ndarray) -> np.ndarray:
        """``(len(rows), m)`` interned edge ids (ascending per row)."""
        return self._rows["edges"][rows]

    def _find(self, edge_ids: np.ndarray) -> Optional[int]:
        candidates = self.rows_for_edge(int(edge_ids[0]))
        if candidates.size == 0:
            return None
        hits = np.flatnonzero((self._rows["edges"][candidates] == edge_ids).all(axis=1))
        if hits.size == 0:
            return None
        return int(candidates[hits[0]])

    # -- writes --------------------------------------------------------------------
    def insert(self, node_ids: np.ndarray, edge_ids: np.ndarray) -> bool:
        """Append one occurrence row; returns False if already alive.

        ``node_ids``/``edge_ids`` must be ascending (the row identity).
        """
        if self._find(edge_ids) is not None:
            return False
        self._reserve(1)
        row = self._size
        self._rows["nodes"][row] = node_ids
        self._rows["edges"][row] = edge_ids
        self._alive[row] = True
        self._size += 1
        self._canonical = None
        self.mutations += 1
        self._maybe_rebuild()
        return True

    def extend(self, node_matrix: np.ndarray, edge_matrix: np.ndarray) -> int:
        """Bulk-append occurrence rows, deduplicating against the table.

        Row identities are the (ascending) edge-id tuples; duplicates
        within the batch keep the first copy (insertion order), and rows
        already alive in the table are skipped — the same semantics as a
        loop of :meth:`insert`, without the per-row index probe.  The
        frozen index is rebuilt once at the end.  Returns the number
        of rows actually appended.
        """
        edge_matrix = np.ascontiguousarray(edge_matrix, dtype=np.int64)
        node_matrix = np.ascontiguousarray(node_matrix, dtype=np.int64)
        if edge_matrix.shape[0] == 0:
            return 0
        _, first = np.unique(edge_matrix, axis=0, return_index=True)
        keep = np.sort(first)  # first copy of each identity, input order
        if self._size - self._dead > 0:
            fresh = [
                row for row in keep.tolist() if self._find(edge_matrix[row]) is None
            ]
            keep = np.asarray(fresh, dtype=np.int64)
        count = int(keep.size)
        if count == 0:
            return 0
        self._reserve(count)
        start, end = self._size, self._size + count
        self._rows["nodes"][start:end] = node_matrix[keep]
        self._rows["edges"][start:end] = edge_matrix[keep]
        self._alive[start:end] = True
        self._size = end
        self._canonical = None
        self.mutations += 1
        self._rebuild_index()
        return count

    def delete_rows(self, rows: np.ndarray) -> int:
        """Tombstone the given (alive) rows; returns how many died."""
        if rows.size == 0:
            return 0
        self._alive[rows] = False
        self._dead += int(rows.size)
        self._canonical = None
        self.mutations += 1
        return int(rows.size)

    def drop_edge(self, edge_id: int) -> int:
        """Tombstone every alive row using ``edge_id``."""
        return self.delete_rows(self.rows_for_edge(edge_id))

    def clear(self) -> None:
        """Drop every row (capacity is kept for the next bulk load)."""
        self._size = 0
        self._indexed = 0
        self._dead = 0
        self._edge_index = _InvertedIndex()
        self._canonical = None
        self.mutations += 1

    # -- canonical ordering -----------------------------------------------------------
    def canonical_order(self, rank_edges) -> np.ndarray:
        """Alive rows in the maintainer's canonical occurrence order.

        ``rank_edges`` ranks edge ids by repr string (equal reprs share a
        rank): either an array indexed by edge id, or a callable mapping
        an edge-id matrix to its rank matrix
        (:meth:`~repro.store.interning.InternTable.repr_ranks`), which
        is only called when the cached order is stale — so only the
        alive rows' edges are ranked, once per mutation.  Ranks are
        order-isomorphic to the repr strings, so which other ids exist
        never reorders the rows, and the cache only needs to track
        table mutations.
        """
        if self._canonical is not None:
            return self._canonical
        rows = self.alive_rows()
        if rows.size == 0:
            self._canonical = rows
            return rows
        ids = self._rows["edges"][rows]
        ranks = rank_edges(ids) if callable(rank_edges) else rank_edges[ids]
        ranks.sort(axis=1)  # per-occurrence sorted repr tuple, as ranks
        keys = tuple(ranks[:, column] for column in range(ranks.shape[1] - 1, -1, -1))
        order = np.lexsort(keys)  # stable: ties keep insertion order
        self._canonical = rows[order]
        return self._canonical

    def info(self) -> dict:
        """Size and index-maintenance counters (for ``info()`` rows)."""
        return {
            "rows": int(self._size),
            "alive": int(self._size - self._dead),
            "tail_rows": int(self.tail_rows),
            "index_rebuilds": int(self.index_rebuilds),
        }
