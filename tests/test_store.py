"""Tests for the columnar occurrence store (repro/store/).

The store lives or dies by one pin: **columnar == dict == from-scratch**.
For randomized insert/delete streams the columnar backend must hold
exactly the occurrences a full re-enumeration produces, in exactly the
canonical order of the dict oracle (``tests/store_oracle.py``), and a
session over it must release answers byte-identical to a dict lane on
the legacy relation path at the same seeds.  On top of
that pin: the array fast path into the φ-epigraph encoder must produce
the very same LP as the legacy annotation tree-walk, and the table /
interner primitives must honor their insertion-order and tombstone
contracts.
"""

import random

import numpy as np
import pytest
from lp_oracle import g_rows_by_name
from store_oracle import (
    oracle_canonical_rows,
    oracle_relation,
    tee_dict_oracle,
    use_dict_store,
)

from repro import PrivateSession, VersionedGraph, random_graph_with_avg_degree
from repro.errors import LPError
from repro.graphs import Graph
from repro.relax.encode import EncodedRelation
from repro.store import ConjunctiveKRelation
from repro.store.columnar import ColumnarOccurrenceTable
from repro.store.interning import InternTable
from repro.subgraphs import (
    k_star,
    k_triangle,
    path_pattern,
    subgraph_krelation,
    triangle,
)
from repro.subgraphs.patterns import cycle_pattern

#: The four seed patterns of the parity pin, plus a 5-node pattern that
#: exercises the generic matcher and a wider occurrence row.
SEED_PATTERNS = [triangle(), k_star(2), path_pattern(3), cycle_pattern(4)]
FIVE_NODE_PATTERN = cycle_pattern(5)


def _occ_signature(occurrences):
    """Order-sensitive signature of an occurrence sequence."""
    return [
        (tuple(sorted(map(repr, occ.nodes))), tuple(sorted(map(repr, occ.edges))),)
        for occ in occurrences
    ]


def _paired_graphs(n, rng_seed):
    """A columnar lane and a dict lane (legacy relation path) on one graph."""
    base = random_graph_with_avg_degree(n, 5, rng=rng_seed)
    return VersionedGraph(base.copy()), use_dict_store(VersionedGraph(base.copy()))


def _toggle_stream(graphs, steps, rng_seed=13, universe=40):
    """Yield after each identical toggle applied to every graph."""
    rng = random.Random(rng_seed)
    reference = graphs[0]
    done = 0
    while done < steps:
        u, v = rng.randrange(universe), rng.randrange(universe)
        if u == v:
            continue
        action = "remove_edge" if reference.has_edge(u, v) else "add_edge"
        for graph in graphs:
            getattr(graph, action)(u, v)
        done += 1
        yield done


class TestStoreOracleParity:
    """Randomized insert/delete property pin: store == dict == scratch."""

    @pytest.mark.parametrize(
        "pattern", SEED_PATTERNS + [FIVE_NODE_PATTERN],
        ids=lambda p: p.name,
    )
    def test_randomized_stream_matches_oracle(self, pattern):
        # one maintainer drives both stores: every columnar insert/drop is
        # teed into the dict oracle, so the delta-joins run once
        graph = VersionedGraph(random_graph_with_avg_degree(36, 5, rng=7))
        oracles = tee_dict_oracle(graph)
        graph.maintainer.register(pattern)
        oracle = oracles[pattern.cache_token]
        assert _occ_signature(graph.maintainer.occurrences(pattern)) == \
            _occ_signature(oracle.sorted_occurrences())
        for step in _toggle_stream((graph,), steps=90):
            if step % 15 == 0 or step == 90:
                # canonical order parity against the dict oracle ...
                assert _occ_signature(
                    graph.maintainer.occurrences(pattern)
                ) == _occ_signature(oracle.sorted_occurrences())
                # ... and the columnar store (so, by the order parity,
                # the oracle too) matches a from-scratch re-enumeration
                assert graph.maintainer.verify(pattern)

    def test_released_answers_byte_identical(self):
        for privacy in ("edge", "node"):
            columnar, oracle = _paired_graphs(n=30, rng_seed=11)
            sessions = [PrivateSession(graph, rng=5) for graph in (columnar, oracle)]

            def released(pattern, seed):
                return [
                    session.query(
                        pattern, privacy=privacy, epsilon=0.8,
                        rng=np.random.default_rng(seed),
                    ).answer
                    for session in sessions
                ]

            fresh = released(triangle(), 101)
            assert fresh[0] == fresh[1]
            for _ in _toggle_stream(
                (columnar, oracle), steps=40, rng_seed=29, universe=30
            ):
                pass
            for pattern, seed in ((triangle(), 202), (cycle_pattern(4), 303)):
                updated = released(pattern, seed)
                assert updated[0] == updated[1], (
                    f"{pattern.name}/{privacy} diverged after updates"
                )
            # the columnar lane must match a cold session on the final
            # graph, not merely the dict lane (both could drift together)
            scratch = PrivateSession(
                use_dict_store(columnar.checkout(columnar.version)), rng=5
            )
            assert scratch.query(
                triangle(), privacy=privacy, epsilon=0.8,
                rng=np.random.default_rng(202),
            ).answer == released(triangle(), 202)[0]
            for session in sessions + [scratch]:
                session.close()

    def test_fast_path_gating(self):
        columnar = VersionedGraph(random_graph_with_avg_degree(36, 5, rng=7))
        pattern = triangle()
        columnar.maintainer.register(pattern)
        relation = columnar.relation_for(pattern, "edge")
        assert isinstance(relation, ConjunctiveKRelation)
        assert relation.matrix.shape[1] == 3  # triangle → 3 edge vars
        # unknown privacy notions fall back to the legacy path
        assert columnar.maintainer.relation_for(pattern, "weighted") is None


class TestEncoderIdentity:
    """from_conjunctions must build the same LP as the legacy tree walk."""

    @pytest.mark.parametrize(
        "pattern,privacy",
        [(triangle(), "edge"), (triangle(), "node"),
         (k_star(2), "edge"), (cycle_pattern(4), "node")],
        ids=lambda value: getattr(value, "name", value),
    )
    def test_arrays_match_legacy_tree_walk(self, pattern, privacy):
        graph = VersionedGraph(random_graph_with_avg_degree(28, 5, rng=3))
        graph.maintainer.register(pattern)
        relation = graph.relation_for(pattern, privacy)
        assert isinstance(relation, ConjunctiveKRelation)
        fast = EncodedRelation.from_conjunctions(
            relation.sorted_participants, relation.matrix
        )
        annotated = [(annotation, 1.0) for _, annotation in relation.items()]
        legacy = EncodedRelation(sorted(relation.participants), annotated)

        assert fast.participants == legacy.participants
        for name in (
            "_ub_rows", "_ub_cols", "_ub_vals", "_ub_rhs", "_root_vars", "_root_weights"
        ):
            np.testing.assert_array_equal(
                getattr(fast, name), getattr(legacy, name), err_msg=name
            )
        for part, ours, theirs in zip(
            ("indptr", "cols", "vals"), fast._g_rows, legacy._g_rows
        ):
            np.testing.assert_array_equal(ours, theirs, err_msg=part)
        assert g_rows_by_name(fast) == g_rows_by_name(legacy)
        assert fast.total_weight == legacy.total_weight
        assert fast.max_phi_sensitivity == legacy.max_phi_sensitivity

    @pytest.mark.parametrize("privacy", ["node", "edge"])
    @pytest.mark.parametrize(
        "pattern", SEED_PATTERNS + [k_triangle(2)], ids=lambda p: p.name
    )
    def test_store_relation_is_a_row_permutation_of_the_plain_one(
        self, pattern, privacy
    ):
        """The store's relation (canonical row order) and the plain
        graph's (enumeration order) hold the same participants and the
        same rows — and so the same pairs — possibly in another order."""
        for seed in range(3):
            base = random_graph_with_avg_degree(30, 5, rng=seed)
            plain = subgraph_krelation(base, pattern, privacy)
            graph = VersionedGraph(base.copy())
            graph.maintainer.register(pattern)
            stored = graph.relation_for(pattern, privacy)
            assert isinstance(plain, ConjunctiveKRelation)
            assert isinstance(stored, ConjunctiveKRelation)
            assert stored.sorted_participants == plain.sorted_participants
            assert stored.matrix.shape == plain.matrix.shape
            assert sorted(map(tuple, stored.matrix.tolist())) == sorted(
                map(tuple, plain.matrix.tolist())
            )
            assert set(stored.items()) == set(plain.items())

    def test_duplicate_participants_rejected(self):
        with pytest.raises(LPError, match="duplicate participant names"):
            EncodedRelation.from_conjunctions(
                ["a", "b", "a"], np.zeros((0, 2), dtype=np.int64)
            )

    def test_matrix_bounds_checked(self):
        with pytest.raises(LPError):
            EncodedRelation.from_conjunctions(
                ["a", "b"], np.array([[0, 5]], dtype=np.int64)
            )


class TestSortedOccurrencesCache:
    """Satellite: sorted_occurrences() is one cached immutable tuple."""

    @pytest.mark.parametrize("store", ["columnar", "dict"])
    def test_cached_until_mutation(self, store):
        graph = VersionedGraph(random_graph_with_avg_degree(24, 5, rng=9))
        if store == "dict":
            use_dict_store(graph)
        pattern = triangle()
        graph.maintainer.register(pattern)
        first = graph.maintainer.occurrences(pattern)
        assert isinstance(first, tuple)
        assert graph.maintainer.occurrences(pattern) is first  # cache hit
        graph.add_edge("x", "y")  # no triangle touched, but a mutation
        again = graph.maintainer.occurrences(pattern)
        assert _occ_signature(again) == _occ_signature(first)
        assert graph.maintainer.occurrences(pattern) is again


class TestColumnarTable:
    """Unit contracts of the structured-array table itself."""

    def _table(self):
        return ColumnarOccurrenceTable(num_nodes=3, num_edges=3)

    def test_insert_dedup_and_tombstones(self):
        table = self._table()
        row_a = (np.array([1, 2, 3]), np.array([10, 11, 12]))
        row_b = (np.array([1, 2, 4]), np.array([10, 11, 13]))
        assert table.insert(*row_a) and table.insert(*row_b)
        assert not table.insert(*row_a)  # identity = edge-id tuple
        assert len(table) == 2
        assert table.drop_edge(13) == 1
        assert len(table) == 1 and table.num_rows == 2
        assert table.insert(*row_b)  # tombstoned rows may be re-added
        assert table.rows_for_edge(10).tolist() == [0, 2]

    def test_extend_keeps_first_copy_in_input_order(self):
        table = self._table()
        nodes = np.array([[1, 2, 3], [4, 5, 6], [1, 2, 3]])
        edges = np.array([[10, 11, 12], [20, 21, 22], [10, 11, 12]])
        assert table.extend(nodes, edges) == 2
        assert table.edge_columns(table.alive_rows()).tolist() == [
            [10, 11, 12], [20, 21, 22]
        ]
        # a second extend deduplicates against rows already alive
        assert table.extend(nodes[:1], edges[:1]) == 0

    def test_canonical_order_breaks_ties_by_insertion(self):
        table = self._table()
        table.insert(np.array([1, 2, 3]), np.array([5, 7, 9]))
        table.insert(np.array([1, 2, 4]), np.array([0, 2, 4]))
        table.insert(np.array([2, 3, 4]), np.array([1, 3, 6]))
        # edge ids 0/1, 2/3 and 4/6 collide to the same repr rank, so
        # rows 1 and 2 tie on the canonical key and keep insertion order
        ranks = np.array([0, 0, 1, 1, 2, 9, 2, 10, 0, 11], dtype=np.int64)
        assert table.canonical_order(ranks).tolist() == [1, 2, 0]
        assert table.canonical_order(ranks) is table.canonical_order(ranks)
        table.drop_edge(9)
        assert table.canonical_order(ranks).tolist() == [1, 2]

    def test_clear_and_info_counters(self):
        table = self._table()
        table.insert(np.array([1, 2, 3]), np.array([10, 11, 12]))
        info = table.info()
        assert info["rows"] == info["alive"] == 1
        table.clear()
        assert len(table) == 0 and table.info()["alive"] == 0


class TestRankParity:
    """Ranking only the ids in rows gives the orders of a global re-rank.

    Int labels 0-120 sort differently as reprs than as numbers
    (``'100' < '11' < '9'``), so a rank that leaked numeric order, or
    depended on which other ids were interned, would reorder rows or
    columns here.
    """

    @pytest.mark.parametrize("privacy", ["node", "edge"])
    @pytest.mark.parametrize("seed", [3, 8])
    def test_stream_matches_global_rank_oracle(self, privacy, seed):
        graph = VersionedGraph(random_graph_with_avg_degree(121, 8, rng=seed))
        patterns = [triangle(), k_star(2)]
        rng = random.Random(seed)
        for step in range(40):
            u, v = rng.randrange(121), rng.randrange(121)
            if step % 10 == 9 and graph.has_node(u):
                graph.remove_node(u)
            elif u != v:
                action = "remove_edge" if graph.has_edge(u, v) else "add_edge"
                getattr(graph, action)(u, v)
            for pattern in patterns:
                relation = graph.relation_for(pattern, privacy)
                assert isinstance(relation, ConjunctiveKRelation)
                backend = graph.maintainer._state(pattern).backend
                assert backend.canonical_rows().tolist() == \
                    oracle_canonical_rows(backend).tolist()
                participants, matrix = oracle_relation(backend, privacy)
                assert relation.sorted_participants == participants
                assert relation.matrix.tolist() == matrix.tolist()


class TestInternTable:
    def test_round_trip_and_presence(self):
        interner = InternTable()
        node = interner.add_node("a")
        assert interner.node_label(node) == "a"
        assert interner.node_id("a") == node
        edge = interner.add_edge("a", "b")
        assert edge == interner.add_edge("b", "a")  # orientation-free
        assert np.flatnonzero(interner.presence_snapshot("edge")).tolist() == [edge]
        interner.drop_edge("a", "b")
        assert not interner.presence_snapshot("edge").any()
        # ids are stable across presence flips (append-only interning)
        assert interner.add_edge("a", "b") == edge

    def test_repr_ranks_share_ties_and_keep_shape(self):
        class Twin:
            def __repr__(self):
                return "twin"

        interner = InternTable()
        ids = [interner.intern_node(label) for label in (Twin(), 9, Twin(), 100)]
        # reprs "twin", "9", "twin", "100" sort as "100" < "9" < "twin"
        grid = np.array([[ids[0], ids[1]], [ids[2], ids[3]]])
        assert interner.repr_ranks(grid, "node").tolist() == [[2, 1], [2, 0]]
        edge = interner.intern_edge(9, 100)
        assert interner.repr_ranks(np.array([edge]), "edge").tolist() == [0]

    def test_counts_match_and_sync(self):
        interner = InternTable()
        graph = Graph(edges=[(1, 2), (2, 3)])
        assert not interner.counts_match(graph)
        interner.sync(graph)
        assert interner.counts_match(graph)


class TestResolveStore:
    def test_backend_info_names_store(self):
        graph = VersionedGraph(Graph(edges=[(1, 2), (2, 3), (1, 3)]))
        graph.maintainer.register(triangle())
        (row,) = graph.maintainer.info()
        assert row["store"] == "columnar"
        assert row["store_alive"] == 1
        assert {"store_rows", "store_tail_rows", "store_index_rebuilds"} <= set(row)


class TestMaintenanceInfoSurface:
    """Satellite: maintenance counters ride the session/service stats."""

    def test_session_maintenance_info(self):
        graph = VersionedGraph(Graph(edges=[(1, 2), (2, 3), (1, 3)]))
        session = PrivateSession(graph, rng=1)
        session.query(
            triangle(), privacy="edge", epsilon=1.0, rng=np.random.default_rng(4)
        )
        graph.add_edge(3, 4)
        rows = session.maintenance_info()
        assert rows and rows[0]["pattern"] == "triangle"
        assert rows[0]["deltas_applied"] == 1
        assert rows[0]["store"] == "columnar"
        session.close()

    def test_static_session_has_no_maintenance(self):
        session = PrivateSession(Graph(edges=[(1, 2)]), rng=1)
        assert session.maintenance_info() is None
        session.close()
