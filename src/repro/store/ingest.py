"""Streaming edge-list ingestion into a versioned graph store.

:func:`ingest_edge_list` is the million-edge loading path behind
``repro ingest``: the edge list is read in chunks
(:func:`repro.graphs.io.read_edge_list` with a ``chunk_size``, strict
validation preserved across chunk boundaries), bulk-loaded into a plain
:class:`~repro.graphs.Graph` via ``add_edges_from``, and only then
wrapped as a :class:`~repro.dynamic.VersionedGraph` — so the whole load
is version 0 with an empty update log, and no per-edge delta recording
or occurrence maintenance runs during the load.  Patterns passed via
``register`` are registered afterwards (one bulk enumeration each into
the occurrence store).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Union

from ..graphs.io import DEFAULT_CHUNK_SIZE, read_edge_list

__all__ = ["IngestReport", "ingest_edge_list"]


@dataclass
class IngestReport:
    """What one :func:`ingest_edge_list` run produced."""

    graph: object  # the VersionedGraph
    path: str
    num_nodes: int
    num_edges: int
    read_seconds: float
    wrap_seconds: float
    register_seconds: float
    registered: List[Dict[str, object]] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return self.read_seconds + self.wrap_seconds + self.register_seconds

    @property
    def edges_per_second(self) -> float:
        if self.read_seconds <= 0:
            return float("inf")
        return self.num_edges / self.read_seconds

    def summary(self) -> Dict[str, object]:
        """JSON-ready counters (no graph object)."""
        return {
            "path": self.path,
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "read_seconds": self.read_seconds,
            "wrap_seconds": self.wrap_seconds,
            "register_seconds": self.register_seconds,
            "total_seconds": self.total_seconds,
            "edges_per_second": self.edges_per_second,
            "registered": self.registered,
        }


def ingest_edge_list(
    path: Union[str, Path],
    strict: bool = True,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    register: Sequence = (),
) -> IngestReport:
    """Load an edge-list file into a fresh ``VersionedGraph``.

    Parameters
    ----------
    path:
        The SNAP-style edge list (``u v`` per line, ``#``/``%`` comments).
    strict:
        Refuse malformed lines / self-loops / duplicates with line
        numbers (the default); ``False`` skips them silently.
    chunk_size:
        Parsed edges per bulk ``add_edges_from`` flush.
    register:
        Patterns (or query names) to register on the maintainer after
        the load, e.g. ``["triangle"]``.
    """
    from ..dynamic.versioned import VersionedGraph
    from ..mechanisms.base import resolve_pattern

    start = time.perf_counter()
    graph = read_edge_list(path, strict=strict, chunk_size=chunk_size)
    read_done = time.perf_counter()
    versioned = VersionedGraph(graph)
    wrap_done = time.perf_counter()
    registered: List[Dict[str, object]] = []
    for query in register:
        pattern = resolve_pattern(query)
        pattern_start = time.perf_counter()
        versioned.maintainer.register(pattern)
        registered.append(
            {
                "pattern": pattern.name,
                "occurrences": versioned.maintainer.count(pattern),
                "seconds": time.perf_counter() - pattern_start,
            }
        )
    end = time.perf_counter()
    return IngestReport(
        graph=versioned,
        path=str(path),
        num_nodes=versioned.num_nodes,
        num_edges=versioned.num_edges,
        read_seconds=read_done - start,
        wrap_seconds=wrap_done - read_done,
        register_seconds=end - wrap_done,
        registered=registered,
    )
