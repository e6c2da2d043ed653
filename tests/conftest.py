"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from lp_oracle import LP_BACKENDS, SimplexBackend

from repro.boolexpr import Var
from repro.graphs import Graph


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(params=sorted(LP_BACKENDS))
def lp_backend(request):
    """The persistent HiGHS solver, then the one-shot linprog oracle."""
    return LP_BACKENDS[request.param]()


@pytest.fixture(params=["highs", "scipy", "simplex"])
def any_backend(request):
    """HiGHS, the linprog oracle and the simplex oracle (conformance tests)."""
    if request.param == "simplex":
        return SimplexBackend()
    return LP_BACKENDS[request.param]()


@pytest.fixture
def paper_graph():
    """The 6-node social network of Fig. 2 (a-b-c-d-e path of triangles)."""
    g = Graph()
    for u, v in [
        ("a", "b"),
        ("a", "c"),
        ("b", "c"),
        ("b", "d"),
        ("c", "d"),
        ("c", "e"),
        ("d", "e"),
        ("e", "f"),
    ]:
        g.add_edge(u, v)
    return g


@pytest.fixture
def small_random_graph():
    from repro.graphs import random_graph_with_avg_degree

    return random_graph_with_avg_degree(30, 6, rng=7)


@pytest.fixture
def abc_vars():
    return Var("a"), Var("b"), Var("c")
