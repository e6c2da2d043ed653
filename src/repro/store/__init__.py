"""Columnar occurrence store (ROADMAP item 5: real-graph scale).

The store backs :class:`~repro.dynamic.incremental.IncrementalOccurrences`
with NumPy structured arrays instead of Python dicts-of-objects:

* :class:`~repro.store.interning.InternTable` — node labels interned to
  dense int ids (with graph-presence flags), undirected edges packed to
  one ``int64`` code each, and the repr/participant-name strings the
  canonical orders are defined over cached at intern time;
* :class:`~repro.store.columnar.ColumnarOccurrenceTable` — one table per
  registered pattern: rows are occurrences, columns the interned node
  ids and edge codes, with inverted indexes (edge → rows, node → rows)
  kept as sorted int arrays answered by ``searchsorted`` — delta-joins,
  deletes, and canonical ordering become vectorized index scans;
* :class:`~repro.store.backend.ColumnarOccurrenceBackend` — the store
  behind ``_PatternState`` (a dict-of-frozensets oracle lives in
  ``tests/store_oracle.py``);
* :class:`~repro.store.relation.ConjunctiveKRelation` — a sensitive
  K-relation carried as a participant-index matrix, feeding
  :meth:`repro.relax.encode.EncodedRelation.from_conjunctions`
  near-zero-copy instead of materializing per-occurrence ``And`` trees;
* :func:`~repro.store.ingest.ingest_edge_list` — streaming million-edge
  ingestion into a :class:`~repro.dynamic.VersionedGraph` (the
  ``repro ingest`` CLI).

Released answers are byte-identical to the dict oracle's at fixed
seeds — pinned by ``tests/test_store.py`` and the CI ``scale-smoke`` job.
"""

from .backend import ColumnarOccurrenceBackend
from .columnar import ColumnarOccurrenceTable
from .ingest import IngestReport, ingest_edge_list
from .interning import InternTable
from .relation import ConjunctiveKRelation

__all__ = [
    "ColumnarOccurrenceBackend",
    "ColumnarOccurrenceTable",
    "ConjunctiveKRelation",
    "IngestReport",
    "InternTable",
    "ingest_edge_list",
]
