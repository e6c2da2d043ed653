"""Fig. 5: running time of the recursive mechanism vs graph size.

The paper times the mechanism for triangle / 2-star / 2-triangle counting
under node and edge privacy on random graphs with avgdeg = 10, |V| up to
200.  We separate the three cost components the paper discusses:

* match enumeration + K-relation construction (the paper excludes this
  from its reported cost, "we do not take account of the time needed for
  generating ... the list of matched subgraphs" — reported separately);
* the Δ computation (binary search over G-entries — per database);
* one mechanism release (the X LP plus noise — per query answer).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.efficient import EfficientRecursiveMechanism
from ..core.params import RecursiveMechanismParams
from ..graphs.generators import random_graph_with_avg_degree
from ..parallel.pool import map_tasks
from ..rng import RngLike, ensure_rng, spawn_seed_sequences
from ..subgraphs.annotate import subgraph_krelation
from .harness import Scale, resolve_scale
from .mechanisms import parse_query
from .synthetic import PAPER_NODE_SWEEP

__all__ = ["runtime_point", "fig5_runtime_sweep"]


def runtime_point(
    num_nodes: int,
    avgdeg: float,
    query: str,
    privacy: str,
    epsilon: float = 0.5,
    rng: RngLike = 0,
) -> Dict[str, float]:
    """Timing breakdown for one configuration (seconds)."""
    generator = ensure_rng(rng)
    graph = random_graph_with_avg_degree(num_nodes, avgdeg, generator)

    start = time.perf_counter()
    relation = subgraph_krelation(graph, parse_query(query), privacy=privacy)
    build_seconds = time.perf_counter() - start

    params = RecursiveMechanismParams.paper(epsilon, node_privacy=(privacy == "node"))
    start = time.perf_counter()
    mechanism = EfficientRecursiveMechanism(relation)
    encode_seconds = time.perf_counter() - start

    start = time.perf_counter()
    mechanism.compute_delta(params)
    delta_seconds = time.perf_counter() - start

    start = time.perf_counter()
    result = mechanism.run(params, generator)
    release_seconds = time.perf_counter() - start

    # A small H-profile sweep through the batched entry point — the same
    # compiled structure answers every index, so this prices "several H
    # entries over one encoding" separately from a single release.
    # Interior indices only: the endpoints are closed forms that never
    # touch a solver (some quartiles may still be warm from the X step).
    n = mechanism.num_participants
    profile_indices = sorted(
        {min(max(1, k * n // 4), n) for k in (1, 2, 3)} if n > 0 else set()
    )
    start = time.perf_counter()
    mechanism.h_entries(profile_indices)
    h_profile_seconds = time.perf_counter() - start

    return {
        "nodes": float(num_nodes),
        "tuples": float(len(relation)),
        "lp_size": float(mechanism.lp_size),
        "build_seconds": build_seconds,
        "encode_seconds": encode_seconds,
        "delta_seconds": delta_seconds,
        "release_seconds": release_seconds,
        "h_profile_seconds": h_profile_seconds,
        "mechanism_seconds": delta_seconds + release_seconds,
        "true_answer": float(result.true_answer),
        # the released (noisy) answer — deterministic at a fixed seed, so
        # serial-vs-parallel sweeps can be compared byte-for-byte
        "answer": float(result.answer),
    }


def _runtime_task(_payload, task) -> Dict[str, float]:
    """One Fig. 5 grid point, seeded by its own spawned sequence."""
    num_nodes, avgdeg, query, privacy, epsilon, seed_sequence = task
    return runtime_point(
        num_nodes,
        avgdeg,
        query,
        privacy,
        epsilon,
        rng=np.random.default_rng(seed_sequence),
    )


def fig5_runtime_sweep(
    queries: Sequence[str] = ("triangle", "2-star", "2-triangle"),
    privacies: Sequence[str] = ("node", "edge"),
    avgdeg: float = 10.0,
    epsilon: float = 0.5,
    scale: Optional[Scale] = None,
    rng: RngLike = 0,
    workers: Optional[int] = 1,
) -> Dict[str, List[Dict[str, float]]]:
    """Fig. 5: mechanism running time for the six query/privacy combos.

    Returns ``{"<query>/<privacy>": [runtime_point dict per node count]}``.

    Each (query × privacy × size) grid point gets its own spawned seed
    sequence, assigned in grid order, and the grid runs through
    :func:`repro.parallel.map_tasks` — so the graphs built, the relations
    encoded and the released answers are byte-identical for every
    ``workers``, and per-point timings stay comparable (each point is one
    process's wall-clock work).
    """
    scale = scale or resolve_scale()
    nodes = sorted(
        {
            max(16, int(round(v * scale.graph_nodes_factor)))
            for v in scale.subset(PAPER_NODE_SWEEP)
        }
    )
    grid = [
        (query, privacy, n) for query in queries for privacy in privacies for n in nodes
    ]
    seeds = spawn_seed_sequences(rng, len(grid))
    tasks = [
        (n, avgdeg, query, privacy, epsilon, seed)
        for (query, privacy, n), seed in zip(grid, seeds)
    ]
    points = map_tasks(_runtime_task, tasks, workers=workers)
    out: Dict[str, List[Dict[str, float]]] = {}
    for (query, privacy, _n), point in zip(grid, points):
        out.setdefault(f"{query}/{privacy}", []).append(point)
    return out
