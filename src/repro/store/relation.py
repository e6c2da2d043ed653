"""Sensitive K-relations carried as participant-index matrices.

For a pure conjunctive relation (all subgraph counting) the
per-occurrence ``And``-of-``Var`` annotation trees carry no information
beyond *which participants each occurrence conjoins, in which order* —
exactly one ``(N, width)`` integer matrix.

:class:`ConjunctiveKRelation` stores that matrix, the name-sorted list
of the participants that occur in some row (the LP encoding's
participant columns) and the count of all participants, and hands them
to :meth:`repro.relax.encode.EncodedRelation.from_conjunctions`, which
emits the COO triplets of the compiled program with array ops — no
per-occurrence Python objects on the hot path.  A participant in no row
(an isolated node, an edge in no occurrence) is *idle*: the encoding
counts it and gives it no column, so neither builder names or sorts
those participants.  The relation subclasses
:class:`~repro.core.sensitive.SensitiveKRelation` with *lazy* pair and
participant-set materialization, so every consumer of those (baselines,
``world``, ``withdraw``, custom query weights) still works.

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
from typing import (
    Callable,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

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
        The participants that occur in some row, **already in sorted
        (name) order** — the order the LP encoding assigns participant
        variables in.
    matrix:
        ``(N, width)`` int array; row ``r`` lists the indices into
        ``sorted_participants`` occurrence ``r`` conjoins, columns in
        annotation children order (repr order of the conjoined
        nodes/edges).
    privacy:
        ``"node"`` or ``"edge"``.
    occurrences:
        The occurrences behind the matrix rows, in row order — a
        sequence, or a zero-argument callable returning one (called at
        most once).  Used only to materialize the ``(tuple, annotation)``
        pairs on demand.
    participants:
        All participant names, those in no row included — a collection,
        or a zero-argument callable returning one (called at most once,
        when :attr:`participants` is first read).
    num_participants:
        ``|P|``, the size of ``participants``.
    """

    def __init__(
        self,
        sorted_participants: List[str],
        matrix: np.ndarray,
        privacy: str,
        occurrences: Union[Sequence[Occurrence], Callable[[], Sequence[Occurrence]]],
        participants: Union[Iterable[str], Callable[[], Iterable[str]]],
        num_participants: int,
    ):
        # deliberately no super().__init__() — pairs materialize lazily
        self.sorted_participants = list(sorted_participants)
        self.matrix = np.ascontiguousarray(matrix, dtype=np.int64)
        self.privacy = privacy
        self._occurrences = occurrences
        self._pairs_cache: Optional[Tuple] = None
        self._participants = participants
        self._num_participants = int(num_participants)

    # -- lazy views ---------------------------------------------------------------
    @property
    def participants(self) -> FrozenSet[str]:
        """All participants ``P``, materialized on first read."""
        everyone = self._participants
        if not isinstance(everyone, frozenset):
            if callable(everyone):
                everyone = everyone()
            everyone = self._participants = frozenset(everyone)
        return everyone

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
    @property
    def num_participants(self) -> int:
        return self._num_participants

    @property
    def num_idle(self) -> int:
        """How many participants occur in no row."""
        return self._num_participants - len(self.sorted_participants)

    def __len__(self) -> int:
        return int(self.matrix.shape[0])

    def total_annotation_length(self) -> int:
        return int(self.matrix.size)

    def __repr__(self) -> str:
        return (
            f"ConjunctiveKRelation(|P|={self.num_participants}, "
            f"|supp(R)|={len(self)}, width={self.matrix.shape[1]}, "
            f"privacy={self.privacy!r})"
        )


def conjunctive_relation(
    backend: ColumnarOccurrenceBackend, privacy: str
) -> Optional[ConjunctiveKRelation]:
    """Build the index-form relation for one maintained pattern state.

    Only the ids that occur in some row are ranked, named and sorted
    (:meth:`~repro.store.interning.InternTable.repr_ranks` orders each
    row's columns), so ranking and naming cost O(rows log rows), not a
    pass over every interned repr.  The other present nodes or edges
    are counted, and named only if something reads
    :attr:`ConjunctiveKRelation.participants`.

    Returns ``None`` when participant names collide (two labels
    stringify to the same variable name — e.g. ``1`` vs ``"1"``) or an
    occurrence names a node/edge the presence flags say is absent; the
    caller then builds the relation from the occurrences with
    :func:`~repro.subgraphs.annotate.subgraph_krelation`, whose eager
    pairs handle the collision exactly as before.
    """
    interner = backend.interner
    if interner.has_name_collision:
        return None
    table = backend.table
    rows = backend.canonical_rows()
    node_ids = table.node_columns(rows)
    edge_ids = table.edge_columns(rows)
    if privacy == "edge":
        num_present = interner.num_edges_present
        names_of = interner.edge_names
        columns = edge_ids
    else:
        num_present = interner.num_nodes_present
        names_of = interner.node_names
        columns = node_ids
    # a copy: later updates move the presence flags, not the
    # participants of this version
    present = interner.presence_snapshot(privacy)
    # annotation children order = repr order of the conjoined objects
    # (NOT name order): stable argsort over repr ranks per row
    ranks = interner.repr_ranks(columns, privacy)
    within = np.argsort(ranks, axis=1, kind="stable")
    children = np.take_along_axis(columns, within, axis=1)
    used, inverse = np.unique(children.ravel(), return_inverse=True)
    if used.size and (used[-1] >= present.size or not present[used].all()):
        # an occurrence references a node/edge the presence flags say is
        # absent — maintained state and graph disagree; fall back
        return None
    names = names_of(used)
    order = np.argsort(np.asarray(names, dtype=object), kind="stable")
    position = np.empty(used.size, dtype=np.int64)
    position[order] = np.arange(used.size, dtype=np.int64)
    return ConjunctiveKRelation(
        [names[i] for i in order.tolist()],
        position[inverse].reshape(children.shape),
        privacy,
        partial(_resolved_occurrences, interner, node_ids, edge_ids),
        participants=partial(_present_names, names_of, present),
        num_participants=num_present,
    )


def _present_names(
    names_of: Callable[[np.ndarray], List[str]], present: np.ndarray
) -> List[str]:
    """Participant names of every id whose presence flag is set."""
    return names_of(np.flatnonzero(present))


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
