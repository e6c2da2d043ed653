"""Sensitive K-relations carried as participant-index matrices.

For a pure conjunctive relation (all subgraph counting) the
per-occurrence ``And``-of-``Var`` annotation trees carry no information
beyond *which participants each occurrence conjoins, in which order* —
exactly one ``(N, width)`` integer matrix.

:class:`ConjunctiveKRelation` stores that matrix (plus the name-sorted
participant list the LP encoding is defined over) and hands it to
:meth:`repro.relax.encode.EncodedRelation.from_conjunctions`, which
emits the COO triplets of the compiled program with array ops — no
per-occurrence Python objects on the hot path.  It subclasses
:class:`~repro.core.sensitive.SensitiveKRelation` with *lazy* pair
materialization, so every pairs consumer (baselines, ``world``,
``withdraw``, custom query weights) still works.

Two functions build one:
:func:`~repro.subgraphs.annotate.subgraph_krelation` (rows in
enumeration order) and :func:`conjunctive_relation` over a columnar
occurrence backend (rows in the store's canonical occurrence order).
Both put participants in name order and each row's columns in
annotation children order (repr order of the node/edge objects), so the
two relations of one graph hold the same participants and the same
multiset of rows — one is a row permutation of the other (pinned by
``tests/test_store.py``).  Encoding is float-identical only for the
same row order: a permutation reorders the LP's rows and columns, which
can move the last bits of a solver's answer.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..boolexpr.expr import And, Var
from ..core.sensitive import SensitiveKRelation
from ..subgraphs.matching import Occurrence
from .backend import ColumnarOccurrenceBackend
from .interning import InternTable

__all__ = ["ConjunctiveKRelation", "conjunctive_relation"]


class ConjunctiveKRelation(SensitiveKRelation):
    """A conjunctions-of-distinct-variables K-relation, in index form.

    Parameters
    ----------
    sorted_participants:
        All participant names, **already in sorted (name) order** — the
        order the LP encoding assigns participant variables in.
    matrix:
        ``(N, width)`` int array; row ``r`` lists the participant
        indices occurrence ``r`` conjoins, columns in annotation
        children order (repr order of the conjoined nodes/edges).
    privacy:
        ``"node"`` or ``"edge"``.
    occurrences:
        The occurrences behind the matrix rows, in row order — a
        sequence, or a zero-argument callable returning one (called at
        most once).  Used only to materialize the ``(tuple, annotation)``
        pairs on demand.
    """

    def __init__(
        self,
        sorted_participants: List[str],
        matrix: np.ndarray,
        privacy: str,
        occurrences: Union[Sequence[Occurrence], Callable[[], Sequence[Occurrence]]],
    ):
        # deliberately no super().__init__() — pairs materialize lazily
        self.participants = frozenset(sorted_participants)
        self.sorted_participants = list(sorted_participants)
        self.matrix = np.ascontiguousarray(matrix, dtype=np.int64)
        self.privacy = privacy
        self._occurrences = occurrences
        self._pairs_cache: Optional[Tuple] = None

    # -- lazy pairs view ------------------------------------------------------------
    @property
    def _pairs(self):
        if self._pairs_cache is None:
            occurrences = self._occurrences
            if callable(occurrences):
                occurrences = occurrences()
            names = self.sorted_participants
            self._pairs_cache = tuple(
                (occurrence, And(Var(names[i]) for i in row))
                for occurrence, row in zip(occurrences, self.matrix.tolist())
            )
            self._occurrences = None  # the pairs hold them from here on
        return self._pairs_cache

    # -- cheap overrides (no materialization) ---------------------------------------
    def __len__(self) -> int:
        return int(self.matrix.shape[0])

    def total_annotation_length(self) -> int:
        return int(self.matrix.size)

    def __repr__(self) -> str:
        return (
            f"ConjunctiveKRelation(|P|={len(self.participants)}, "
            f"|supp(R)|={len(self)}, width={self.matrix.shape[1]}, "
            f"privacy={self.privacy!r})"
        )


def _sorted_unique_names(names: List[str]):
    """``(order, ok)`` — argsort of the names, refusing duplicates."""
    arr = np.asarray(names, dtype=object)
    order = np.argsort(arr, kind="stable")
    taken = arr[order]
    for prev, cur in zip(taken, taken[1:]):
        if prev == cur:
            return order, False
    return order, True


def conjunctive_relation(
    backend: ColumnarOccurrenceBackend, privacy: str
) -> Optional[ConjunctiveKRelation]:
    """Build the index-form relation for one maintained pattern state.

    Returns ``None`` when participant names collide (two labels
    stringify to the same variable name — e.g. ``1`` vs ``"1"``); the
    caller then builds the relation from the occurrences with
    :func:`~repro.subgraphs.annotate.subgraph_krelation`, whose eager
    pairs handle the collision exactly as before.
    """
    interner = backend.interner
    table = backend.table
    rows = backend.canonical_rows()
    node_ids = table.node_columns(rows)
    edge_ids = table.edge_columns(rows)
    if privacy == "edge":
        ids = interner.present_edge_ids()
        names = interner.edge_names(ids)
        ranks = interner.edge_ranks()
        id_count = interner.num_interned_edges
        columns = edge_ids
    else:
        ids = interner.present_node_ids()
        names = interner.node_names(ids)
        ranks = interner.node_ranks()
        id_count = interner.num_interned_nodes
        columns = node_ids
    order, unique = _sorted_unique_names(names)
    if not unique:
        return None
    sorted_names = [names[i] for i in order.tolist()]
    pindex = np.full(id_count, -1, dtype=np.int64)
    pindex[ids[order]] = np.arange(ids.size, dtype=np.int64)
    # annotation children order = repr order of the conjoined objects
    # (NOT name order): stable argsort over repr ranks per row
    within = np.argsort(ranks[columns], axis=1, kind="stable")
    children = np.take_along_axis(columns, within, axis=1)
    matrix = pindex[children]
    if matrix.size and matrix.min() < 0:
        # an occurrence references a node/edge the presence flags say is
        # absent — maintained state and graph disagree; fall back
        return None
    return ConjunctiveKRelation(
        sorted_names,
        matrix,
        privacy,
        partial(_resolved_occurrences, interner, node_ids, edge_ids),
    )


def _resolved_occurrences(
    interner: InternTable, node_ids: np.ndarray, edge_ids: np.ndarray
) -> List[Occurrence]:
    """The occurrences behind interned-id rows (the intern table is
    append-only, so resolving ids late stays safe after further graph
    updates)."""
    node_label, edge_pair = interner.node_label, interner.edge_label_pair
    return [
        Occurrence(
            nodes=frozenset(map(node_label, node_row)),
            edges=frozenset(map(edge_pair, edge_row)),
        )
        for node_row, edge_row in zip(node_ids.tolist(), edge_ids.tolist())
    ]
