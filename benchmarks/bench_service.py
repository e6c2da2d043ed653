"""Service latency/throughput microbench: the wire's overhead over warm
in-process serving.

Runs a one-dataset :class:`~repro.service.ServiceRouter` in a
:class:`~repro.service.BackgroundService` on an ephemeral port,
drives it with a blocking :class:`~repro.service.ServiceClient`, and
measures cold (compile) latency, warm per-request latency, sequential
throughput, and the audit-replay round trip.  Emits ``BENCH_service.json``
(path from ``$REPRO_BENCH_SERVICE_OUT``, default ``benchmarks/results/``)
so CI can archive the numbers next to ``BENCH_ci.json``.
"""

import json
import os
import statistics
import time
from pathlib import Path

from repro import PrivateSession, random_graph_with_avg_degree
from repro.experiments import format_table
from repro.obs import quantile_from_counts
from repro.service import BackgroundService, ServiceClient, ServiceRouter
from repro.session import HierarchicalAccountant, SharedCompiledCache

WARM_QUERIES = 25


def scraped_quantiles(payload, name, **labels):
    """p50/p95/p99 of one wire-scraped histogram (rows merged over the
    label subset — fixed bucket boundaries make the merge exact)."""
    counts, total_sum, bounds = None, 0.0, None
    for row in payload["metrics"]:
        if row["name"] != name or row["kind"] != "histogram":
            continue
        if any(row["labels"].get(key) != value for key, value in labels.items()):
            continue
        if counts is None:
            bounds = row["bounds"]
            counts = list(row["counts"])
        else:
            counts = [a + b for a, b in zip(counts, row["counts"])]
        total_sum += row["sum"]
    if counts is None:
        return {"p50": None, "p95": None, "p99": None, "count": 0}
    return {
        "p50": quantile_from_counts(bounds, counts, 0.50),
        "p95": quantile_from_counts(bounds, counts, 0.95),
        "p99": quantile_from_counts(bounds, counts, 0.99),
        "count": sum(counts),
    }


def test_service_latency_throughput(scale, record_figure, results_dir):
    n = max(60, int(round(300 * scale.graph_nodes_factor)))
    graph = random_graph_with_avg_degree(n, 8, rng=11)
    session = PrivateSession(
        graph,
        rng=7,
        accountant=HierarchicalAccountant(None, default_user_budget=None),
        cache=SharedCompiledCache(maxsize=16),
    )
    router = ServiceRouter(seed=7)
    router.add_dataset("default", session)
    with BackgroundService(router) as bg:
        with ServiceClient(bg.address, user="bench") as client:
            start = time.perf_counter()
            client.query("triangle", epsilon=1.0, privacy="node")
            cold_seconds = time.perf_counter() - start

            warm_times = []
            for _ in range(WARM_QUERIES):
                start = time.perf_counter()
                client.query("triangle", epsilon=1.0, privacy="node")
                warm_times.append(time.perf_counter() - start)

            start = time.perf_counter()
            audit = client.audit(replay=True)
            audit_seconds = time.perf_counter() - start
            scraped = client.metrics()
    session.close()

    assert audit["count"] == WARM_QUERIES + 1
    assert audit["matched"] == WARM_QUERIES + 1, "audit replay must verify"

    warm_median = statistics.median(warm_times)
    throughput = (1.0 / warm_median) if warm_median else float("inf")
    # Server-side latency distribution from the new wire `metrics` op:
    # the same histogram `repro obs` scrapes in production.
    server_latency = scraped_quantiles(scraped, "repro_query_seconds")
    assert server_latency["count"] >= WARM_QUERIES + 1
    row = {
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "cold_seconds": cold_seconds,
        "warm_median_seconds": warm_median,
        "warm_p90_seconds": sorted(warm_times)[int(0.9 * len(warm_times))],
        "server_p50_seconds": server_latency["p50"],
        "server_p95_seconds": server_latency["p95"],
        "server_p99_seconds": server_latency["p99"],
        "requests_per_second": throughput,
        "audit_replay_seconds": audit_seconds,
    }
    record_figure(
        "service_serving",
        format_table(
            [row],
            [
                "nodes",
                "edges",
                "cold_seconds",
                "warm_median_seconds",
                "warm_p90_seconds",
                "server_p50_seconds",
                "server_p95_seconds",
                "server_p99_seconds",
                "requests_per_second",
                "audit_replay_seconds",
            ],
            title=f"one-dataset ServiceRouter wire latency/throughput "
            f"(triangle/node, scale={scale.name})",
        ),
    )
    out_path = Path(
        os.environ.get("REPRO_BENCH_SERVICE_OUT", results_dir / "BENCH_service.json")
    )
    out_path.write_text(json.dumps(
        {"scale": scale.name, "warm_queries": WARM_QUERIES, **row}, indent=2
    ) + "\n")
    print(f"[service bench written to {out_path}]")

    # The wire must not lose the cache win: a warm remote release still
    # beats the cold compile-and-release by a wide margin.
    assert warm_median < cold_seconds, (
        f"warm remote median {warm_median:.4f}s not under cold " f"{cold_seconds:.4f}s"
    )
