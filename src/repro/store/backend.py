"""The occurrence store behind ``_PatternState``.

:class:`ColumnarOccurrenceBackend` implements the small contract the
incremental maintainer drives — insert one occurrence, drop every
occurrence using an edge, clear/bulk-load on rebuild, and read the
canonically ordered occurrence tuple back — over interned ids in a
:class:`~repro.store.columnar.ColumnarOccurrenceTable`, scaling to
million-edge graphs.  The maintenance *logic* (delta-joins,
neighborhood balls, rebuild fallbacks) lives in
:mod:`repro.dynamic.incremental`; only the representation lives here.

Canonical order breaks ties by insertion order, so a store fed the same
insert/drop call sequence as the dict-of-frozensets oracle in
``tests/store_oracle.py`` returns an elementwise equal
:meth:`~ColumnarOccurrenceBackend.sorted_occurrences` (pinned by
``tests/test_store.py``).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..subgraphs.matching import Occurrence
from .columnar import ColumnarOccurrenceTable
from .interning import InternTable

__all__ = ["ColumnarOccurrenceBackend"]

#: An occurrence's identity: its used-edge set with every edge reduced
#: to an orientation-free endpoint pair (see ``dynamic.incremental``).
_OccKey = FrozenSet[FrozenSet[object]]


class ColumnarOccurrenceBackend:
    """Interned ids in a columnar table (shared maintainer interner)."""

    name = "columnar"
    __slots__ = ("interner", "table", "_sorted", "_sorted_token")

    def __init__(self, interner: InternTable, num_nodes: int, num_edges: int):
        self.interner = interner
        self.table = ColumnarOccurrenceTable(num_nodes, num_edges)
        self._sorted: Optional[Tuple[Occurrence, ...]] = None
        self._sorted_token = -1

    # -- id translation -----------------------------------------------------------
    def _row_ids(self, occurrence: Occurrence):
        interner = self.interner
        nodes = sorted(interner.intern_node(node) for node in occurrence.nodes)
        edges = sorted(interner.intern_edge(u, v) for u, v in occurrence.edges)
        return nodes, edges

    # -- writes -------------------------------------------------------------------
    def insert(self, occurrence: Occurrence) -> bool:
        """Add one occurrence; False if already present."""
        nodes, edges = self._row_ids(occurrence)
        return self.table.insert(
            np.asarray(nodes, dtype=np.int64), np.asarray(edges, dtype=np.int64)
        )

    def bulk_load(self, occurrences: Iterable[Occurrence]) -> None:
        """Replace the content with the given occurrences (a rebuild)."""
        self.table.clear()
        node_rows: List[List[int]] = []
        edge_rows: List[List[int]] = []
        for occurrence in occurrences:
            nodes, edges = self._row_ids(occurrence)
            node_rows.append(nodes)
            edge_rows.append(edges)
        if not node_rows:
            return
        self.table.extend(
            np.asarray(node_rows, dtype=np.int64),
            np.asarray(edge_rows, dtype=np.int64),
        )

    def drop_edge(self, u, v) -> int:
        """Remove every occurrence using edge ``{u, v}``; returns count."""
        edge_id = self.interner.edge_id(u, v)
        if edge_id is None:
            return 0
        return self.table.drop_edge(edge_id)

    # -- reads --------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.table)

    def canonical_rows(self) -> np.ndarray:
        """Alive rows in canonical order (the fast relation path's view)."""
        return self.table.canonical_order(
            partial(self.interner.repr_ranks, kind="edge")
        )

    def sorted_occurrences(self) -> Tuple[Occurrence, ...]:
        """The canonically ordered occurrences, as a cached tuple."""
        if self._sorted is not None and self._sorted_token == self.table.mutations:
            return self._sorted
        rows = self.canonical_rows()
        interner = self.interner
        pair = interner.edge_label_pair
        label = interner.node_label
        occurrences = tuple(
            Occurrence(
                nodes=frozenset(label(n) for n in node_row),
                edges=frozenset(pair(e) for e in edge_row),
            )
            for node_row, edge_row in zip(
                self.table.node_columns(rows).tolist(),
                self.table.edge_columns(rows).tolist(),
            )
        )
        self._sorted = occurrences
        self._sorted_token = self.table.mutations
        return occurrences

    def occ_keys(self) -> Set[_OccKey]:
        """Orientation-free identities (the verify/diff oracle view)."""
        rows = self.table.alive_rows()
        pair = self.interner.edge_label_pair
        return {
            frozenset(frozenset(pair(e)) for e in edge_row)
            for edge_row in self.table.edge_columns(rows).tolist()
        }

    def info(self) -> Dict[str, object]:
        """Store counters merged into the maintainer's info rows.

        Table counters are ``store_``-prefixed to keep the rows clear.
        """
        return {
            "store": self.name,
            **{f"store_{key}": value for key, value in self.table.info().items()},
        }
