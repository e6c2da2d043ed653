"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from lp_oracle import SimplexBackend

from repro.boolexpr import Var
from repro.graphs import Graph
from repro.lp import ScipyBackend
from repro.lp import backends as lp_backends

#: Every solver backend registered AND usable in this environment — scipy is
#: always present; "highs" joins when the scipy HiGHS bindings expose the
#: persistent engine.
AVAILABLE_LP_BACKENDS = tuple(lp_backends.available())


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(params=AVAILABLE_LP_BACKENDS)
def lp_backend(request):
    """Parametrized over every registered-and-available solver backend."""
    return lp_backends.create(request.param)


@pytest.fixture(params=["scipy", "simplex"])
def any_backend(request):
    """The portable backend and the simplex oracle (conformance tests)."""
    if request.param == "scipy":
        return ScipyBackend()
    return SimplexBackend()


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
