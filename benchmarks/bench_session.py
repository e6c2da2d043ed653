"""Session serving benchmark: cold compile vs warm cache-hit latency.

The acceptance check for the compiled-relation cache: a second identical
``session.query`` must skip the re-encode/re-compile (asserted via the
cache counters) and its latency must be well under the cold query's —
a warm release pays one overlay LP solve plus a noise draw, while the
cold path enumerates occurrences, builds the K-relation, and compiles
the φ-epigraph LP.

It also reports pooled warm-release latency per class: the cheap specs
and the heavy 2-star/edge spec of a 200-node graph, each with one and
with two releases in flight on a two-worker pool; the mean shows the
few heavy releases that solve an X LP, and ``parent_cpu_ms`` the CPU the
submitting process (client threads and the pool's reader thread) spends
per pooled release.  A mix's median hides
how the classes move: while one client waits on a heavy release, the
other's cheap releases run with one in flight and finish sooner, so a
faster heavy class can raise the mix's median.
"""

import math
import statistics
import threading
import time

import numpy as np

from repro import PrivateSession, random_graph_with_avg_degree, triangle
from repro.experiments import format_table

WARM_QUERIES = 10

#: The pooled classes: (name, (query, privacy) specs cycled through).
POOLED_CLASSES = (
    (
        "cheap",
        (
            ("triangle", "node"),
            ("triangle", "edge"),
            ("2-triangle", "node"),
            ("2-triangle", "edge"),
        ),
    ),
    ("2-star/edge", (("2-star", "edge"),)),
)


def test_session_warm_vs_cold(scale, record_figure):
    n = max(60, int(round(300 * scale.graph_nodes_factor)))
    graph = random_graph_with_avg_degree(n, 8, rng=11)
    session = PrivateSession(graph, rng=7)

    start = time.perf_counter()
    session.query(triangle(), privacy="node", epsilon=1.0)
    cold_seconds = time.perf_counter() - start
    assert session.cache_info().misses == 1

    warm_times = []
    for _ in range(WARM_QUERIES):
        start = time.perf_counter()
        session.query(triangle(), privacy="node", epsilon=1.0)
        warm_times.append(time.perf_counter() - start)
    info = session.cache_info()
    assert info.hits == WARM_QUERIES and info.misses == 1

    warm_median = statistics.median(warm_times)
    rows = [
        {
            "nodes": graph.num_nodes,
            "edges": graph.num_edges,
            "cold_seconds": cold_seconds,
            "warm_median_seconds": warm_median,
            "speedup": cold_seconds / warm_median if warm_median else float("inf"),
            "cache_hits": info.hits,
            "cache_misses": info.misses,
        }
    ]
    record_figure(
        "session_serving",
        format_table(
            rows,
            [
                "nodes",
                "edges",
                "cold_seconds",
                "warm_median_seconds",
                "speedup",
                "cache_hits",
                "cache_misses",
            ],
            title=f"PrivateSession cold vs warm query latency "
            f"(triangle/node, scale={scale.name})",
        ),
    )
    # "well under": a warm (cache-hit) release must beat the cold
    # compile-and-release by a wide margin, not just edge it out.
    assert warm_median < cold_seconds / 3, (
        f"warm median {warm_median:.4f}s not well under cold " f"{cold_seconds:.4f}s"
    )


def _pooled_seconds(session, specs, in_flight, releases, first_seed):
    """Client-observed seconds of ``releases`` pooled releases cycling
    through ``specs``: ``in_flight`` client threads, each a closed loop
    of submit then wait, as ``perfbench``'s pool-fanout runs them."""
    seconds = [None] * releases
    lock = threading.Lock()
    cursor = iter(range(releases))

    def client():
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            query, privacy = specs[index % len(specs)]
            start = time.perf_counter()
            with lock:
                future = session.submit(
                    query, privacy=privacy, epsilon=1.0, rng=first_seed + index
                )
            assert math.isfinite(future.result(timeout=300).answer)
            seconds[index] = time.perf_counter() - start

    threads = [threading.Thread(target=client) for _ in range(in_flight)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert None not in seconds
    return seconds


def _warm_pooled_session(graph, specs):
    """A ``workers=2`` session whose specs are compiled before the pool
    forks and whose workers have each built their solver models."""
    session = PrivateSession(graph, workers=2, rng=7)
    for query, privacy in specs:
        session.query(query, privacy=privacy, epsilon=1.0, rng=0)
    for query, privacy in specs:
        futures = [
            session.submit(query, privacy=privacy, epsilon=1.0, rng=seed)
            for seed in (1, 2)
        ]
        for future in futures:
            future.result(timeout=300)
    return session


def test_pooled_latency_per_class(scale, record_figure):
    graph = random_graph_with_avg_degree(200, 6.0, rng=1)
    releases = 10 * scale.trials
    rows = []
    for name, specs in POOLED_CLASSES:
        for in_flight in (1, 2):
            # a fresh session per cell: every cell starts from the same
            # warm state, not from the H entries an earlier cell added
            session = _warm_pooled_session(graph, specs)
            cpu = time.process_time()
            seconds = _pooled_seconds(session, specs, in_flight, releases, 100)
            cpu = time.process_time() - cpu
            assert all(entry.status == "released" for entry in session.ledger)
            session.close()
            rows.append(
                {
                    "class": name,
                    "in_flight": in_flight,
                    "releases": releases,
                    "p50_ms": 1e3 * float(np.percentile(seconds, 50)),
                    "p90_ms": 1e3 * float(np.percentile(seconds, 90)),
                    "mean_ms": 1e3 * statistics.fmean(seconds),
                    "parent_cpu_ms": 1e3 * cpu / releases,
                }
            )
    record_figure(
        "session_pooled_classes",
        format_table(
            rows,
            [
                "class",
                "in_flight",
                "releases",
                "p50_ms",
                "p90_ms",
                "mean_ms",
                "parent_cpu_ms",
            ],
            title="PrivateSession.submit warm latency per class, workers=2 "
            f"(200 nodes, scale={scale.name})",
        ),
    )
