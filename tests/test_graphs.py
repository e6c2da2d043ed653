"""Tests for the graph substrate: Graph, generators, IO, datasets."""

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamic import VersionedGraph
from repro.errors import DatasetError, GraphError
from repro.graphs import (
    DATASETS,
    Graph,
    erdos_renyi,
    gnm_random_graph,
    load_dataset,
    preferential_attachment,
    random_graph_with_avg_degree,
    read_edge_list,
    watts_strogatz,
    write_edge_list,
)


class TestGraph:
    def test_add_edge_creates_nodes(self):
        g = Graph()
        g.add_edge(1, 2)
        assert g.num_nodes == 2
        assert g.num_edges == 1
        assert g.has_edge(2, 1)  # undirected

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            Graph().add_edge(1, 1)

    def test_parallel_edges_collapse(self):
        g = Graph(edges=[(1, 2), (2, 1), (1, 2)])
        assert g.num_edges == 1

    def test_degrees(self):
        g = Graph(edges=[(1, 2), (1, 3), (1, 4)])
        assert g.degree(1) == 3
        assert g.max_degree() == 3
        assert g.average_degree() == pytest.approx(6 / 4)

    def test_remove_node_removes_incident_edges(self):
        g = Graph(edges=[(1, 2), (2, 3), (1, 3)])
        g.remove_node(2)
        assert g.num_nodes == 2
        assert g.num_edges == 1
        assert g.has_edge(1, 3)

    def test_remove_edge(self):
        g = Graph(edges=[(1, 2), (2, 3)])
        g.remove_edge(1, 2)
        assert g.num_edges == 1
        with pytest.raises(GraphError):
            g.remove_edge(1, 2)

    def test_unknown_node_errors(self):
        g = Graph()
        with pytest.raises(GraphError):
            g.degree(9)
        with pytest.raises(GraphError):
            g.neighbors(9)
        with pytest.raises(GraphError):
            g.remove_node(9)

    def test_common_neighbors(self):
        g = Graph(edges=[(1, 3), (2, 3), (1, 4), (2, 4), (1, 2)])
        assert g.common_neighbors(1, 2) == {3, 4}
        assert g.max_common_neighbors() == 2

    def test_subgraph(self):
        g = Graph(edges=[(1, 2), (2, 3), (3, 4)])
        sub = g.subgraph({1, 2, 3})
        assert sub.num_nodes == 3
        assert sub.num_edges == 2
        with pytest.raises(GraphError):
            g.subgraph({99})

    def test_copy_independent(self):
        g = Graph(edges=[(1, 2)])
        clone = g.copy()
        clone.add_edge(2, 3)
        assert g.num_edges == 1

    def test_deterministic_ordering(self):
        g = Graph(edges=[(3, 1), (2, 1)])
        assert g.nodes() == [1, 2, 3]
        assert g.edges() == [(1, 2), (1, 3)]

    def test_equality(self):
        assert Graph(edges=[(1, 2)]) == Graph(edges=[(2, 1)])
        assert Graph(edges=[(1, 2)]) != Graph(edges=[(1, 3)])

    def test_edges_dedup_survives_equal_reprs(self):
        """Distinct nodes sharing a repr must not double-emit their edge.

        Regression: the old repr-tie branch emitted both orientations,
        double-counting edges in every edges()-dependent statistic."""

        class Twin:
            def __repr__(self):
                return "twin"

        u, v = Twin(), Twin()
        g = Graph(edges=[(u, v), (u, "x"), (v, "x")])
        edges = g.edges()
        assert len(edges) == g.num_edges == 3
        assert len({frozenset({a, b}) for a, b in edges}) == 3
        # each statistic derived from edges() sees every edge once
        assert g.max_common_neighbors() == 1


_NODE = st.integers(0, 7)
#: One graph operation: a name and its arguments.  Nodes come from a
#: small universe so inserts repeat, removals hit and self-loops occur.
_GRAPH_OPS = st.one_of(
    st.tuples(st.just("add_edge"), _NODE, _NODE, st.integers(1, 3)),
    st.tuples(
        st.just("add_edges_from"), st.lists(st.tuples(_NODE, _NODE), max_size=8)
    ),
    st.tuples(st.just("remove_edge"), _NODE, _NODE),
    st.tuples(st.just("remove_node"), _NODE),
    st.tuples(st.just("copy")),
    st.tuples(st.just("subgraph"), st.sets(_NODE)),
    st.tuples(st.just("version")),
    st.tuples(st.just("history"), st.integers(0, 60)),
    st.tuples(st.just("pickle")),
)


class TestMutationConsistency:
    """Property tests: mutate, then re-query every derived structure.

    The mutation paths (``remove_node``/``remove_edge``) feed the
    dynamic-graph subsystem, so adjacency, the rank-based edge dedup in
    ``edges()``, and every statistic derived from them must stay mutually
    consistent through arbitrary insert/delete interleavings.
    """

    @staticmethod
    def _assert_consistent(g, ref_nodes, ref_edges):
        assert set(g.nodes()) == ref_nodes
        edges = g.edges()
        assert len(edges) == len(ref_edges) == g.num_edges
        assert {frozenset(e) for e in edges} == {frozenset(e) for e in ref_edges}
        degrees = g.degrees()
        assert set(degrees) == ref_nodes
        for node in ref_nodes:
            expected = sum(1 for e in ref_edges if node in e)
            assert degrees[node] == g.degree(node) == expected
            assert g.neighbors(node) == {
                (b if a == node else a) for a, b in ref_edges if node in (a, b)
            }
        for u, v in ref_edges:
            assert g.has_edge(u, v) and g.has_edge(v, u)

    def test_randomized_mutation_streams(self):
        import random

        rng = random.Random(2024)
        for _trial in range(25):
            g = Graph()
            ref_nodes, ref_edges = set(), set()
            for _step in range(80):
                op = rng.random()
                if op < 0.45:
                    u, v = rng.sample(range(14), 2)
                    g.add_edge(u, v)
                    ref_nodes |= {u, v}
                    ref_edges.add((min(u, v), max(u, v)))
                elif op < 0.6:
                    n = rng.randrange(14)
                    g.add_node(n)
                    ref_nodes.add(n)
                elif op < 0.8 and ref_edges:
                    e = rng.choice(sorted(ref_edges))
                    g.remove_edge(*e)
                    ref_edges.discard(e)
                elif op >= 0.8 and ref_nodes:
                    n = rng.choice(sorted(ref_nodes))
                    removed = g.remove_node(n)
                    assert {frozenset(e) for e in removed} == {
                        frozenset(e) for e in ref_edges if n in e
                    }
                    ref_nodes.discard(n)
                    ref_edges = {e for e in ref_edges if n not in e}
                self._assert_consistent(g, ref_nodes, ref_edges)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_GRAPH_OPS, max_size=30))
    def test_edge_count_kept_by_every_op(self, ops):
        g = Graph()
        for op, *args in ops:
            before = g.num_edges
            if op == "add_edge":
                u, v, times = args
                for _ in range(times):
                    if u == v:
                        with pytest.raises(GraphError):
                            g.add_edge(u, v)
                    else:
                        g.add_edge(u, v)
            elif op == "add_edges_from":
                (pairs,) = args
                if any(u == v for u, v in pairs):
                    # a self-loop raises after the pairs before it landed
                    with pytest.raises(GraphError):
                        g.add_edges_from(pairs)
                else:
                    g.add_edges_from(pairs)
            elif op == "remove_edge":
                u, v = args
                if g.has_edge(u, v):
                    g.remove_edge(u, v)
                else:
                    with pytest.raises(GraphError):
                        g.remove_edge(u, v)
                    assert g.num_edges == before
            elif op == "remove_node":
                (node,) = args
                if g.has_node(node):
                    g.remove_node(node)
                else:
                    with pytest.raises(GraphError):
                        g.remove_node(node)
            elif op == "copy":
                g = g.copy()
            elif op == "subgraph":
                (keep,) = args
                g = g.subgraph(keep & set(g.nodes()))
            elif op == "version":
                g = VersionedGraph(g)
            elif op == "history" and isinstance(g, VersionedGraph):
                (pick,) = args
                version = pick % (g.version + 1)
                past = g.at_version(version)
                assert past.num_edges == len(past.edges())
                g = g.checkout(version) if pick % 2 else g.copy()
            elif op == "pickle":
                g = pickle.loads(pickle.dumps(g))
            assert g.num_edges == len(g.edges())
            if isinstance(g, VersionedGraph):
                assert g.as_graph().num_edges == g.num_edges

    def test_remove_node_returns_incident_edges_deterministically(self):
        g = Graph(edges=[(1, 5), (1, 3), (1, 9), (3, 5)])
        assert g.remove_node(1) == [(1, 3), (1, 5), (1, 9)]
        assert g.remove_node(9) == []

    def test_mutations_with_equal_repr_nodes_stay_deduped(self):
        class Twin:
            def __repr__(self):
                return "twin"

        u, v = Twin(), Twin()
        g = Graph(edges=[(u, v), (u, "x"), (v, "x"), ("x", "y")])
        g.remove_edge(u, v)
        assert g.num_edges == len(g.edges()) == 3
        removed = g.remove_node(u)
        assert removed == [(u, "x")]
        assert g.num_edges == len(g.edges()) == 2
        assert g.degrees()["x"] == 2

    def test_remove_then_requery_statistics(self):
        g = Graph(edges=[(0, 1), (1, 2), (0, 2), (2, 3)])
        assert g.max_common_neighbors() == 1
        g.remove_edge(0, 2)
        assert g.max_common_neighbors() == 0
        assert g.average_degree() == pytest.approx(2 * 3 / 4)
        g.remove_node(1)
        assert g.max_degree() == 1
        assert g.common_neighbors(2, 3) == set()


class TestGenerators:
    def test_erdos_renyi_determinism(self):
        g1 = erdos_renyi(30, 0.2, rng=5)
        g2 = erdos_renyi(30, 0.2, rng=5)
        assert g1 == g2

    def test_erdos_renyi_extremes(self):
        assert erdos_renyi(10, 0.0, rng=0).num_edges == 0
        assert erdos_renyi(10, 1.0, rng=0).num_edges == 45

    def test_erdos_renyi_invalid(self):
        with pytest.raises(GraphError):
            erdos_renyi(-1, 0.5)
        with pytest.raises(GraphError):
            erdos_renyi(5, 1.5)

    def test_avg_degree_parameterization(self):
        """The paper's model: p = avgdeg/(|V|-1)."""
        g = random_graph_with_avg_degree(300, 10, rng=1)
        assert g.average_degree() == pytest.approx(10, rel=0.25)

    def test_avg_degree_tiny_graphs(self):
        assert random_graph_with_avg_degree(1, 10).num_nodes == 1
        assert random_graph_with_avg_degree(0, 10).num_nodes == 0

    def test_gnm_exact_edge_count(self):
        g = gnm_random_graph(40, 100, rng=2)
        assert g.num_edges == 100
        assert g.num_nodes == 40

    def test_gnm_dense_regime(self):
        g = gnm_random_graph(10, 40, rng=2)  # > half of 45
        assert g.num_edges == 40

    def test_gnm_too_many_edges(self):
        with pytest.raises(GraphError):
            gnm_random_graph(5, 11)

    def test_preferential_attachment_shape(self):
        g = preferential_attachment(120, 3, rng=3)
        assert g.num_nodes == 120
        # heavy tail: max degree well above the median
        degrees = sorted(g.degrees().values())
        assert degrees[-1] > 3 * degrees[len(degrees) // 2]

    def test_preferential_attachment_closure_adds_triangles(self):
        from repro.subgraphs import count_triangles

        flat = preferential_attachment(150, 3, rng=4, closure_probability=0.0)
        closed = preferential_attachment(150, 3, rng=4, closure_probability=0.8)
        assert count_triangles(closed) > count_triangles(flat)

    def test_preferential_attachment_invalid(self):
        with pytest.raises(GraphError):
            preferential_attachment(0, 2)
        with pytest.raises(GraphError):
            preferential_attachment(10, 0)

    def test_watts_strogatz(self):
        g = watts_strogatz(50, 4, 0.1, rng=6)
        assert g.num_nodes == 50
        assert g.num_edges == 100  # rewiring preserves edge count

    def test_watts_strogatz_invalid(self):
        with pytest.raises(GraphError):
            watts_strogatz(2, 2, 0.1)
        with pytest.raises(GraphError):
            watts_strogatz(10, 3, 0.1)  # odd k
        with pytest.raises(GraphError):
            watts_strogatz(10, 4, 1.5)


class TestIO:
    def test_roundtrip(self, tmp_path):
        g = erdos_renyi(20, 0.3, rng=7)
        path = tmp_path / "graph.txt"
        write_edge_list(g, path)
        assert read_edge_list(path) == g

    def test_comments_skipped_lenient_mode_tolerates_junk(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("# comment\n% other\n1 2\n3 3\n2 4\n1 2\n")
        g = read_edge_list(path, strict=False)
        assert g.num_edges == 2

    def test_strict_rejects_self_loop_with_line_number(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("# comment\n1 2\n3 3\n")
        with pytest.raises(GraphError, match=r"graph\.txt:3: self-loop"):
            read_edge_list(path)

    def test_strict_rejects_duplicates_either_orientation(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("1 2\n2 4\n2 1\n")
        with pytest.raises(
            GraphError, match=r":3: duplicate edge.*first seen on line 1"
        ):
            read_edge_list(path)

    def test_strict_reports_every_problem_at_once(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("1 2\n5\n3 3\n1 2\n")
        with pytest.raises(GraphError) as excinfo:
            read_edge_list(path)
        message = str(excinfo.value)
        assert "3 problems" in message
        assert ":2: expected 'u v'" in message
        assert ":3: self-loop" in message
        assert ":4: duplicate edge" in message

    def test_missing_file(self, tmp_path):
        with pytest.raises(GraphError):
            read_edge_list(tmp_path / "absent.txt")

    def test_malformed_line_raises_even_lenient(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1\n")
        with pytest.raises(GraphError, match=r"bad\.txt:1"):
            read_edge_list(path, strict=False)

    def test_string_labels(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("alice bob\nbob carol\n")
        g = read_edge_list(path)
        assert g.has_edge("alice", "bob")


class TestDatasets:
    def test_registry_matches_paper_fig6(self):
        assert DATASETS["ca-GrQc"].num_nodes == 5242
        assert DATASETS["ca-GrQc"].num_edges == 14496
        assert DATASETS["ca-GrQc"].paper_triangles == 48260
        assert DATASETS["power"].num_nodes == 4941
        assert len(DATASETS) == 7

    def test_load_scaled(self):
        g = load_dataset("1138_bus", scale=0.1)
        assert abs(g.num_nodes - 114) <= 2

    def test_load_deterministic(self):
        assert load_dataset("power", scale=0.05) == load_dataset("power", scale=0.05)

    def test_unknown_dataset(self):
        with pytest.raises(DatasetError):
            load_dataset("facebook")

    def test_bad_scale(self):
        with pytest.raises(DatasetError):
            load_dataset("power", scale=0.0)

    def test_collaboration_standins_are_triangle_rich(self):
        from repro.subgraphs import count_triangles

        collab = load_dataset("ca-GrQc", scale=0.05)
        grid = load_dataset("power", scale=0.05)
        density_collab = count_triangles(collab) / max(collab.num_edges, 1)
        density_grid = count_triangles(grid) / max(grid.num_edges, 1)
        assert density_collab > density_grid
