"""Tests for graph statistics and stand-in validation."""

import math

import pytest

from repro.graphs import Graph, erdos_renyi, load_dataset, preferential_attachment
from repro.graphs.stats import (
    average_clustering_coefficient,
    connected_components,
    degree_assortativity_proxy,
    degree_histogram,
    global_clustering_coefficient,
    largest_component_size,
    summarize,
    triangle_density,
)


@pytest.fixture
def triangle_graph():
    return Graph(edges=[(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def two_components():
    return Graph(edges=[(0, 1), (1, 2), (10, 11)])


class TestBasicStats:
    def test_degree_histogram(self, triangle_graph):
        assert degree_histogram(triangle_graph) == {2: 3}

    def test_degree_histogram_star(self):
        g = Graph(edges=[(0, i) for i in range(1, 5)])
        assert degree_histogram(g) == {4: 1, 1: 4}

    def test_connected_components(self, two_components):
        components = connected_components(two_components)
        assert [len(c) for c in components] == [3, 2]
        assert largest_component_size(two_components) == 3

    def test_components_empty_graph(self):
        assert connected_components(Graph()) == []
        assert largest_component_size(Graph()) == 0

    def test_clustering_triangle_is_one(self, triangle_graph):
        assert global_clustering_coefficient(triangle_graph) == pytest.approx(1.0)
        assert average_clustering_coefficient(triangle_graph) == pytest.approx(1.0)

    def test_clustering_star_is_zero(self):
        g = Graph(edges=[(0, i) for i in range(1, 5)])
        assert global_clustering_coefficient(g) == 0.0
        assert average_clustering_coefficient(g) == 0.0

    def test_clustering_bounded(self):
        g = erdos_renyi(40, 0.2, rng=1)
        assert 0.0 <= global_clustering_coefficient(g) <= 1.0
        assert 0.0 <= average_clustering_coefficient(g) <= 1.0

    def test_gnp_clustering_near_p(self):
        """For G(n,p), transitivity concentrates near p."""
        g = erdos_renyi(150, 0.2, rng=2)
        assert global_clustering_coefficient(g) == pytest.approx(0.2, abs=0.05)

    def test_triangle_density(self, triangle_graph):
        assert triangle_density(triangle_graph) == pytest.approx(1.0 / 3.0)
        assert triangle_density(Graph()) == 0.0

    def test_degree_spread(self):
        hub = Graph(edges=[(0, i) for i in range(1, 10)])
        ring = Graph(edges=[(i, (i + 1) % 8) for i in range(8)])
        assert degree_assortativity_proxy(hub) > degree_assortativity_proxy(ring)
        assert degree_assortativity_proxy(Graph()) == 0.0

    def test_summarize_keys(self, triangle_graph):
        summary = summarize(triangle_graph)
        assert summary["nodes"] == 3.0
        assert summary["global_clustering"] == pytest.approx(1.0)
        assert set(summary) == {
            "nodes", "edges", "average_degree", "max_degree",
            "largest_component", "global_clustering", "triangle_density",
            "degree_spread",
        }


class TestStandInValidation:
    """The dataset stand-ins must reproduce the qualitative structure the
    experiments depend on (README "Deviations from the paper")."""

    def test_collaboration_clustering_exceeds_grid(self):
        collab = load_dataset("netscience", scale=0.05)
        grid = load_dataset("bcspwr10", scale=0.05)
        assert (
            global_clustering_coefficient(collab)
            > 3 * global_clustering_coefficient(grid)
        )

    def test_collaboration_heavy_tailed(self):
        collab = load_dataset("ca-GrQc", scale=0.05)
        grid = load_dataset("power", scale=0.05)
        assert degree_assortativity_proxy(collab) > degree_assortativity_proxy(grid)

    def test_preferential_attachment_clustering_from_closure(self):
        open_graph = preferential_attachment(200, 3, rng=1, closure_probability=0.0)
        closed_graph = preferential_attachment(200, 3, rng=1, closure_probability=0.8)
        assert (
            global_clustering_coefficient(closed_graph)
            > 2 * global_clustering_coefficient(open_graph)
        )
