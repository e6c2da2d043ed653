"""Fig. 1: the mechanism-comparison table, measured empirically.

Fig. 1 of the paper is an analytic table of error/time guarantees.  This
module regenerates its *measurable* content: for each query class it runs
every applicable mechanism on a fixed reference graph and reports the
median relative error and time, plus the structural quantities the
guarantees are stated in (``~US``, ``~GS``-proxy, LS-based noise scales),
so the table's ordering ("our mechanism beats X on Y") can be checked
against measurements.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Dict, List, Optional, Sequence

from ..core.queries import CountQuery
from ..core.sensitivity import universal_empirical_sensitivity
from ..errors import MechanismError
from ..graphs.generators import random_graph_with_avg_degree
from ..mechanisms import QuerySpec
from ..mechanisms import get as get_mechanism
from ..rng import RngLike, ensure_rng
from ..subgraphs.annotate import subgraph_krelation
from .harness import Scale, resolve_scale, run_mechanism_trials
from .mechanisms import EXPERIMENT_MECHANISMS, make_runner, parse_query

__all__ = ["fig1_comparison_table"]

#: Fig. 1 rows in paper order; all dispatch through the registry.
FIG1_MECHANISMS = (
    "pinq-restricted",
    "recursive-node",
    "recursive-edge",
    "local-sensitivity",
    "rhms",
)


def _privacy_label(mechanism: str, query: str) -> str:
    """The guarantee column of Fig. 1 for one (mechanism, query) cell."""
    if mechanism == "pinq-restricted":
        return "edge-DP (clipped)"
    if mechanism == "recursive-node":
        return "node-DP"
    if mechanism == "rhms":
        return "adversarial"
    if (
        mechanism == "local-sensitivity"
        and query.endswith("-triangle")
        and query != "triangle"
    ):
        return "(eps,delta)-edge-DP"
    return "edge-DP"


def _release_answer(prepared, epsilon: float, trial_rng) -> float:
    """One noisy release of a prepared registry mechanism."""
    return prepared.release(epsilon, trial_rng).answer


def fig1_comparison_table(
    num_nodes: int = 200,
    avgdeg: float = 10.0,
    epsilon: float = 0.5,
    queries: Sequence[str] = ("triangle", "2-star", "2-triangle"),
    scale: Optional[Scale] = None,
    rng: RngLike = 0,
    workers: Optional[int] = 1,
    mechanisms: Sequence[str] = FIG1_MECHANISMS,
) -> List[Dict[str, object]]:
    """One row per (query, mechanism): measured error, time and structure.

    ``mechanisms`` selects the rows by experiment name (each resolving to
    a registry entry, see
    :data:`repro.experiments.mechanisms.EXPERIMENT_MECHANISMS`).

    Each mechanism's trials run through :func:`run_mechanism_trials`
    after its per-graph precomputation (the K-relation encoding,
    smooth-sensitivity statistics): ``workers=k`` forks a pool after it,
    and every worker count reports identical errors at a fixed seed.
    """
    unknown = [name for name in mechanisms if name not in EXPERIMENT_MECHANISMS]
    if unknown:
        raise MechanismError(
            f"unknown mechanisms {unknown}; choose from "
            f"{sorted(EXPERIMENT_MECHANISMS)}"
        )
    scale = scale or resolve_scale()
    n = max(16, int(round(num_nodes * scale.graph_nodes_factor)))
    generator = ensure_rng(rng)
    graph = random_graph_with_avg_degree(n, avgdeg, generator)
    rows: List[Dict[str, object]] = []
    for query in queries:
        # structural quantities for the guarantee columns
        relation_node = subgraph_krelation(graph, parse_query(query), privacy="node")
        relation_edge = subgraph_krelation(graph, parse_query(query), privacy="edge")
        us_node = universal_empirical_sensitivity(CountQuery(), relation_node)
        us_edge = universal_empirical_sensitivity(CountQuery(), relation_edge)

        for mechanism in mechanisms:
            start = time.perf_counter()
            if mechanism == "pinq-restricted":
                # the Fig. 1 "[9,11]" row: restricted joins clip heavily.
                # The edge K-relation is already built above — hand it to
                # the registry entry directly instead of re-enumerating.
                registry_name, privacy = EXPERIMENT_MECHANISMS[mechanism]
                prepared = get_mechanism(registry_name)(
                    relation_edge, bound=1
                ).prepare(QuerySpec.of(None, privacy=privacy))
                truth = prepared.true_answer
                run_once = partial(_release_answer, prepared, epsilon)
                start = time.perf_counter()  # time trials, not prepare
            else:
                run_once, truth = make_runner(mechanism, graph, query, epsilon)
            error = run_mechanism_trials(
                run_once, truth, scale.trials, generator, workers=workers
            )
            rows.append(
                {
                    "query": query,
                    "mechanism": mechanism,
                    "median_relative_error": error,
                    "seconds": time.perf_counter() - start,
                    "true_answer": truth,
                    "US_node": us_node,
                    "US_edge": us_edge,
                    "privacy": _privacy_label(mechanism, query),
                }
            )
    return rows
