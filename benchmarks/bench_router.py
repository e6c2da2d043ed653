"""Multi-dataset serving microbench: routed warm latency per dataset.

Runs one :class:`~repro.service.ServiceRouter` in-process with two
datasets (one dynamic, writer-token gated) and measures warm
per-request latency through the v2 router, per dataset — the
multi-dataset routing layer must not tax the v1 hot path.

Emits ``BENCH_router.json`` (path from ``$REPRO_BENCH_ROUTER_OUT``,
default ``benchmarks/results/``) so CI can archive the numbers next to
``BENCH_service.json``.
"""

import json
import os
import statistics
import time
from pathlib import Path

from bench_service import scraped_quantiles

from repro import PrivateSession, random_graph_with_avg_degree
from repro.dynamic import VersionedGraph
from repro.experiments import format_table
from repro.service import BackgroundService, ServiceClient, ServiceRouter
from repro.session import HierarchicalAccountant, SharedCompiledCache

WARM_QUERIES = 15


def _session(data, cache):
    return PrivateSession(
        data,
        workers=1,
        rng=7,
        accountant=HierarchicalAccountant(),
        cache=cache,
    )


def test_router_bench(scale, record_figure, results_dir):
    n = max(40, int(round(150 * scale.graph_nodes_factor)))
    alpha_graph = VersionedGraph(random_graph_with_avg_degree(n, 6, rng=11))
    beta_graph = random_graph_with_avg_degree(n, 6, rng=12)
    shared = SharedCompiledCache(maxsize=16)

    router = ServiceRouter(seed=7)
    alpha_session = _session(alpha_graph, shared.namespaced("alpha"))
    beta_session = _session(beta_graph, shared.namespaced("beta"))
    router.add_dataset(
        "alpha", alpha_session, updates=True, writer_token="bench-admin", default=True
    )
    router.add_dataset("beta", beta_session)

    warm = {"alpha": [], "beta": []}
    with BackgroundService(router) as bg:
        with ServiceClient(bg.address, user="bench") as client:
            for dataset in ("alpha", "beta"):
                client.query("triangle", epsilon=1.0, privacy="node",
                             dataset=dataset)  # cold: compile
                for _ in range(WARM_QUERIES):
                    start = time.perf_counter()
                    client.query(
                        "triangle", epsilon=1.0, privacy="node", dataset=dataset
                    )
                    warm[dataset].append(time.perf_counter() - start)
            scraped = client.metrics()
    alpha_session.close()
    beta_session.close()

    # Per-dataset server-side latency quantiles from the wire metrics op
    # (the lane label isolates this router's streams from other benches
    # sharing the process registry — filter on dataset name only).
    alpha_latency = scraped_quantiles(scraped, "repro_query_seconds", dataset="alpha")
    beta_latency = scraped_quantiles(scraped, "repro_query_seconds", dataset="beta")
    assert alpha_latency["count"] >= WARM_QUERIES + 1
    assert beta_latency["count"] >= WARM_QUERIES + 1
    row = {
        "nodes": n,
        "warm_median_alpha_seconds": statistics.median(warm["alpha"]),
        "warm_median_beta_seconds": statistics.median(warm["beta"]),
        "alpha_p50_seconds": alpha_latency["p50"],
        "alpha_p95_seconds": alpha_latency["p95"],
        "alpha_p99_seconds": alpha_latency["p99"],
        "beta_p50_seconds": beta_latency["p50"],
        "beta_p95_seconds": beta_latency["p95"],
        "beta_p99_seconds": beta_latency["p99"],
    }
    record_figure(
        "router_serving",
        format_table(
            [row],
            list(row),
            title=f"Router serving (scale={scale.name})",
        ),
    )
    out_path = Path(
        os.environ.get("REPRO_BENCH_ROUTER_OUT", results_dir / "BENCH_router.json")
    )
    payload = {
        "scale": scale.name,
        "warm_queries": WARM_QUERIES,
        **row,
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[router bench written to {out_path}]")

