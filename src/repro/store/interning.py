"""Node/edge interning: arbitrary hashable labels → dense int ids.

The columnar tables never store Python label objects — every node label
is interned once to a dense ``int`` id, and every undirected edge to a
dense edge id keyed by the orientation-free packed code
``min(id) << 32 | max(id)``.  Alongside the ids the table caches, at
intern time, the strings every canonical order in the pipeline is
defined over:

* the node's ``repr`` (tie-breaks of the generic matcher, annotation
  children order under node privacy);
* the normalized edge tuple's ``repr`` (the maintainer's canonical
  occurrence sort key and annotation children order under edge privacy);
* the participant variable names (``v:<node>`` / ``e:<a>-<b>``) that the
  LP encoding sorts participants by.  Two labels whose names coincide
  (nodes ``1`` and ``"1"``) set :attr:`InternTable.has_name_collision`,
  and the fast relation path falls back then too: it names only the
  participants that occur in some occurrence, so it cannot see a clash
  with one that does not.

:meth:`InternTable.repr_ranks` ranks a given array of node or edge ids
by their reprs, assigning **equal ranks to equal repr strings**, so a
stable integer lexsort over ranks reproduces the occurrence path's sorts
over repr strings exactly, ties included.  Only the ids passed in are
ranked — a relation build ranks the ids its rows use, never every
interned repr — and since a subset keeps its members' relative order and
ties, the resulting sorts are the same whatever else has been interned.
Distinct labels sharing a ``repr`` make several string-keyed orders
ambiguous, so the table tracks :attr:`InternTable.has_repr_collision`
and the fast relation path falls back to the occurrence path (eager
pairs) whenever it is set.

Graph membership is tracked with boolean *presence* flags (interning is
append-only; deletes only clear flags), letting the relation builder
recover the exact participant set — including isolated nodes and edges
in no occurrence — without touching the graph's Python dicts.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..graphs.graph import Graph

__all__ = ["InternTable", "pack_edge"]

#: Node ids are packed two-per-int64, so each must fit in 32 bits.
_MAX_NODE_ID = (1 << 32) - 1


def pack_edge(a: int, b: int) -> int:
    """Orientation-free ``int64`` code of the edge ``{a, b}`` (node ids)."""
    if a > b:
        a, b = b, a
    return (a << 32) | b


def _grow_flags(flags: np.ndarray, needed: int) -> np.ndarray:
    if needed <= flags.shape[0]:
        return flags
    grown = np.zeros(max(needed, 2 * flags.shape[0], 64), dtype=bool)
    grown[: flags.shape[0]] = flags
    return grown


class InternTable:
    """Dense-id dictionary for node labels and undirected edges."""

    __slots__ = (
        "_node_ids",
        "_node_labels",
        "_node_reprs",
        "_node_names",
        "_node_present",
        "_num_nodes_present",
        "_repr_counts",
        "has_repr_collision",
        "_names",
        "has_name_collision",
        "_edge_ids",
        "_edge_codes",
        "_edge_endpoints",
        "_edge_reprs",
        "_edge_names",
        "_edge_present",
        "_num_edges_present",
    )

    def __init__(self):
        self._node_ids: Dict[object, int] = {}
        self._node_labels: List[object] = []
        self._node_reprs: List[str] = []
        self._node_names: List[str] = []
        self._node_present = np.zeros(0, dtype=bool)
        self._num_nodes_present = 0
        self._repr_counts: Dict[str, int] = {}
        #: Two distinct interned labels share a ``repr`` — string-keyed
        #: canonical orders are ambiguous, fast paths must fall back.
        self.has_repr_collision = False
        # every participant name interned so far, nodes' and edges'
        self._names: set = set()
        #: Two distinct interned labels or edges share a participant name.
        self.has_name_collision = False

        self._edge_ids: Dict[int, int] = {}  # packed code -> dense edge id
        self._edge_codes: List[int] = []
        self._edge_endpoints: List[Tuple[int, int]] = []  # (lo id, hi id)
        self._edge_reprs: List[str] = []
        self._edge_names: List[str] = []
        self._edge_present = np.zeros(0, dtype=bool)
        self._num_edges_present = 0

    # -- nodes --------------------------------------------------------------------
    def intern_node(self, label) -> int:
        """The dense id of ``label``, interning it on first sight."""
        node_id = self._node_ids.get(label)
        if node_id is not None:
            return node_id
        node_id = len(self._node_labels)
        if node_id > _MAX_NODE_ID:
            raise OverflowError("more than 2**32 interned nodes")
        self._node_ids[label] = node_id
        self._node_labels.append(label)
        text = repr(label)
        self._node_reprs.append(text)
        self._node_names.append(self._name(f"v:{label}"))
        count = self._repr_counts.get(text, 0) + 1
        self._repr_counts[text] = count
        if count == 2:
            self.has_repr_collision = True
        return node_id

    def node_id(self, label) -> Optional[int]:
        """The dense id of ``label``, or ``None`` if never interned."""
        return self._node_ids.get(label)

    def node_label(self, node_id: int):
        """The original label object behind one dense node id."""
        return self._node_labels[node_id]

    @property
    def num_interned_nodes(self) -> int:
        return len(self._node_labels)

    # -- edges --------------------------------------------------------------------
    def intern_edge(self, u, v) -> int:
        """The dense edge id of ``{u, v}`` (labels), interning as needed."""
        a = self.intern_node(u)
        b = self.intern_node(v)
        code = pack_edge(a, b)
        edge_id = self._edge_ids.get(code)
        if edge_id is not None:
            return edge_id
        edge_id = len(self._edge_codes)
        self._edge_ids[code] = edge_id
        self._edge_codes.append(code)
        self._edge_endpoints.append((min(a, b), max(a, b)))
        # the normalized (repr-sorted) tuple the matcher would build;
        # f-string over the cached reprs == repr((x, y)) for a 2-tuple
        ru, rv = self._node_reprs[a], self._node_reprs[b]
        if ru <= rv:
            x, y, rx, ry = u, v, ru, rv
        else:
            x, y, rx, ry = v, u, rv, ru
        self._edge_reprs.append(f"({rx}, {ry})")
        self._edge_names.append(self._name(f"e:{x}-{y}"))
        return edge_id

    def _name(self, name: str) -> str:
        """Record one new participant name, flagging a repeat."""
        if name in self._names:
            self.has_name_collision = True
        self._names.add(name)
        return name

    def edge_id(self, u, v) -> Optional[int]:
        """The dense edge id of ``{u, v}``, or ``None`` if unknown."""
        a = self._node_ids.get(u)
        b = self._node_ids.get(v)
        if a is None or b is None:
            return None
        return self._edge_ids.get(pack_edge(a, b))

    def edge_endpoints(self, edge_id: int) -> Tuple[int, int]:
        """``(lo node id, hi node id)`` of one interned edge."""
        return self._edge_endpoints[edge_id]

    def edge_label_pair(self, edge_id: int) -> Tuple[object, object]:
        """The edge as a normalized (repr-sorted) label tuple."""
        a, b = self._edge_endpoints[edge_id]
        u, v = self._node_labels[a], self._node_labels[b]
        if self._node_reprs[a] <= self._node_reprs[b]:
            return (u, v)
        return (v, u)

    @property
    def num_interned_edges(self) -> int:
        return len(self._edge_codes)

    # -- presence (graph membership) ----------------------------------------------
    def add_node(self, label) -> int:
        """Mark ``label`` present in the graph (interning it); its id."""
        node_id = self.intern_node(label)
        self._node_present = _grow_flags(self._node_present, node_id + 1)
        if not self._node_present[node_id]:
            self._node_present[node_id] = True
            self._num_nodes_present += 1
        return node_id

    def drop_node(self, label) -> None:
        """Clear the presence flag of ``label`` (id stays interned)."""
        node_id = self._node_ids.get(label)
        if node_id is None or node_id >= self._node_present.shape[0]:
            return
        if self._node_present[node_id]:
            self._node_present[node_id] = False
            self._num_nodes_present -= 1

    def add_edge(self, u, v) -> int:
        """Mark edge ``{u, v}`` (and endpoints) present; its edge id."""
        self.add_node(u)
        self.add_node(v)
        edge_id = self.intern_edge(u, v)
        self._edge_present = _grow_flags(self._edge_present, edge_id + 1)
        if not self._edge_present[edge_id]:
            self._edge_present[edge_id] = True
            self._num_edges_present += 1
        return edge_id

    def drop_edge(self, u, v) -> None:
        """Clear the presence flag of ``{u, v}`` (id stays interned)."""
        edge_id = self.edge_id(u, v)
        if edge_id is None or edge_id >= self._edge_present.shape[0]:
            return
        if self._edge_present[edge_id]:
            self._edge_present[edge_id] = False
            self._num_edges_present -= 1

    @property
    def num_nodes_present(self) -> int:
        return self._num_nodes_present

    @property
    def num_edges_present(self) -> int:
        return self._num_edges_present

    def presence_snapshot(self, kind: str) -> np.ndarray:
        """A copy of the node (``kind="node"``) or edge presence flags.

        Indexed by id; an id past its end is absent.
        """
        flags = self._edge_present if kind == "edge" else self._node_present
        return flags.copy()

    def counts_match(self, graph: Graph) -> bool:
        """Cheap guard that presence flags still mirror the graph."""
        return (self._num_nodes_present == graph.num_nodes
                and self._num_edges_present == graph.num_edges)

    def sync(self, graph: Graph) -> None:
        """Re-anchor presence flags on the graph's actual state."""
        self._node_present[:] = False
        self._num_nodes_present = 0
        self._edge_present[:] = False
        self._num_edges_present = 0
        for node in graph.nodes():
            self.add_node(node)
        for u, v in graph.edges():
            self.add_edge(u, v)

    # -- names and canonical ranks --------------------------------------------------
    def node_name(self, node_id: int) -> str:
        """The participant variable name ``v:<label>`` of one node."""
        return self._node_names[node_id]

    def edge_name(self, edge_id: int) -> str:
        """The participant variable name ``e:<a>-<b>`` of one edge."""
        return self._edge_names[edge_id]

    def node_names(self, node_ids: np.ndarray) -> List[str]:
        """Participant names for an array of node ids (one pass)."""
        names = self._node_names
        return [names[i] for i in node_ids.tolist()]

    def edge_names(self, edge_ids: np.ndarray) -> List[str]:
        """Participant names for an array of edge ids (one pass)."""
        names = self._edge_names
        return [names[i] for i in edge_ids.tolist()]

    def repr_ranks(self, ids: np.ndarray, kind: str) -> np.ndarray:
        """Repr-string ranks of node (``kind="node"``) or edge ids.

        Same shape as ``ids``; edges rank by their normalized tuple's
        repr.  Ranks are dense over the distinct ids given, and equal
        reprs share a rank.
        """
        reprs = self._edge_reprs if kind == "edge" else self._node_reprs
        distinct, back = np.unique(ids.ravel(), return_inverse=True)
        text = np.asarray([reprs[i] for i in distinct.tolist()], dtype=object)
        # np.unique sorts with the labels' own str comparison and hands
        # equal strings the same inverse index — equal reprs, equal ranks
        _, ranks = np.unique(text, return_inverse=True)
        return ranks.astype(np.int64, copy=False)[back].reshape(ids.shape)
