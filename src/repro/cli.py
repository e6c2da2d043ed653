"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``count``
    Differentially private subgraph count on a random graph, a dataset
    stand-in, or an edge-list file.
``ingest``
    Stream a (SNAP-style) edge-list file into a versioned dynamic graph
    through the columnar occurrence store — chunked reads, bulk adjacency
    loading, optional pattern registration — and report load timings
    (edges/second) as text or JSON.  The scaling smoke test for
    million-edge files.
``batch``
    Execute a JSON workload spec against one budget-accounted
    :class:`~repro.session.PrivateSession` (shared compiled-relation
    cache, mechanism registry dispatch, optional worker fan-out) — or,
    with ``--remote host:port``, round-trip the same workload through a
    running ``repro serve`` instance over the wire protocol.
``serve``
    Start the async multi-tenant network service
    (:mod:`repro.service`): per-user ε sub-budgets over a global cap,
    process-wide compiled-relation cache, newline-delimited JSON over
    TCP.  With ``--datasets config.json`` one listener routes to many
    per-dataset sessions (protocol v2), each with its own budgets,
    writer token, and cache namespace.
``replica``
    Start a read replica of one dataset on a running primary: bootstrap
    from its ``snapshot``, tail its delta ``log``, serve reads (updates
    are refused — writes go to the primary).  ``--epsilon`` is required:
    each replica spends its own slice of the dataset's cap.
``fig``
    Regenerate one of the paper's figures at a chosen scale preset and
    print the rendered table.
``audit``
    Empirical privacy audit of the mechanism on a small random graph.
``datasets``
    List the Fig. 6 dataset stand-ins and their paper statistics.

Batch spec format (JSON)::

    {
      "graph":   {"nodes": 120, "avgdeg": 8, "seed": 1},
                 // or {"edge_list": "path"} or {"dataset": "ca-GrQc",
                 //     "scale": 0.05}
      "budget":  2.0,          // optional hard eps cap
      "seed":    7,            // session seed (reproducible workload)
      "queries": [
        {"query": "triangle", "privacy": "node", "epsilon": 0.5},
        {"update": [{"action": "add_edge", "u": 0, "v": 1},
                    {"action": "remove_node", "node": 7}]},
        {"query": "2-star", "privacy": "edge", "epsilon": 0.5,
         "mechanism": "smooth", "label": "stars", "user": "alice"}
      ]
    }

    An ``update`` step is an interleaved live graph mutation: the batch
    runner wraps the graph in a :class:`~repro.dynamic.VersionedGraph`,
    drains the queries before it, applies the deltas, and every later
    query sees (exactly) the new version.  With ``--remote`` the step is
    sent as the wire op ``update`` (``--update-token`` for token-gated
    servers).

Specs are validated field by field before any work
(:func:`repro.validation.validate_batch_spec`): unknown keys and wrong
types are rejected with the offending field's path, never a traceback.
Queries that would exceed the budget are refused (reported in the output
table) without stopping the rest of the workload.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import __version__

__all__ = ["main", "build_parser"]


def _positive_float(text: str) -> float:
    """Argparse type for ε-like arguments (uniform validation message)."""
    from .validation import validate_epsilon

    try:
        return validate_epsilon(float(text))
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _workers_arg(text: str) -> int:
    """Argparse type for ``--workers`` (uniform validation message)."""
    from .validation import validate_workers

    try:
        return validate_workers(int(text))
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Recursive mechanism: node-DP statistics with unrestricted joins",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    workers_help = (
        "worker processes for the parallel execution layer "
        "(default: $REPRO_WORKERS, else all CPU cores; 1 = serial "
        "in-process — results are byte-identical either way at a fixed seed)"
    )
    def add_obs_flags(command) -> None:
        command.add_argument(
            "--trace-log",
            metavar="FILE",
            default=None,
            help="write one JSON span record per line to FILE "
            "(deterministic trace/span ids; tracing never changes "
            "released answers)",
        )
        command.add_argument(
            "--slow-query-ms",
            type=_positive_float,
            default=None,
            metavar="MS",
            help="log requests whose root span exceeds MS "
            "milliseconds to stderr",
        )

    count = sub.add_parser("count", help="private subgraph count")
    count.add_argument(
        "--query",
        default="triangle",
        help="triangle | K-star | K-triangle (e.g. 2-star)",
    )
    count.add_argument("--privacy", choices=["node", "edge"], default="node")
    count.add_argument("--epsilon", type=_positive_float, default=0.5)
    count.add_argument("--seed", type=int, default=0)
    source = count.add_mutually_exclusive_group()
    source.add_argument("--edge-list", help="read the graph from this file")
    source.add_argument("--dataset", help="use a Fig. 6 dataset stand-in")
    count.add_argument(
        "--lenient-edge-list",
        action="store_true",
        help="skip self-loop/duplicate edge lines instead of "
        "refusing (SNAP exports often list both "
        "orientations of every undirected edge)",
    )
    count.add_argument("--dataset-scale", type=float, default=0.05)
    count.add_argument(
        "--nodes",
        type=int,
        default=100,
        help="random graph size (when no source is given)",
    )
    count.add_argument("--avgdeg", type=float, default=8.0)
    count.add_argument(
        "--show-true",
        action="store_true",
        help="also print the exact count (diagnostic!)",
    )

    ingest = sub.add_parser(
        "ingest",
        help="stream an edge-list file into a versioned dynamic graph",
    )
    ingest.add_argument(
        "edge_list", help="SNAP-style edge-list file " "('u v' per line, #/%% comments)"
    )
    ingest.add_argument(
        "--register",
        action="append",
        default=[],
        metavar="QUERY",
        help="register this pattern on the maintainer after "
        "the load (triangle | K-star | K-triangle; "
        "repeatable)",
    )
    ingest.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="parsed edges buffered per bulk graph flush",
    )
    ingest.add_argument(
        "--lenient",
        action="store_true",
        help="skip self-loop/duplicate edge lines instead of "
        "refusing (SNAP exports often list both "
        "orientations of every undirected edge)",
    )
    ingest.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="also write the ingest report as JSON to FILE",
    )

    batch = sub.add_parser(
        "batch",
        help="run a JSON workload spec against one PrivateSession",
    )
    batch.add_argument("spec", help="path to the JSON spec ('-' for stdin)")
    batch.add_argument("--workers", type=_workers_arg, default=None, help=workers_help)
    add_obs_flags(batch)
    batch.add_argument(
        "--seed", type=int, default=None, help="override the spec's session seed"
    )
    batch.add_argument(
        "--budget",
        type=_positive_float,
        default=None,
        help="override the spec's total epsilon budget",
    )
    batch.add_argument(
        "--audit-log",
        action="store_true",
        help="also print the session's JSON audit log "
        "(remote mode: a server-side replay-verified log)",
    )
    batch.add_argument(
        "--remote",
        metavar="HOST:PORT",
        default=None,
        help="send the workload to a running `repro serve` "
        "instance over the wire protocol instead of "
        "executing in-process (the spec's graph/budget/"
        "workers are the server's business then)",
    )
    batch.add_argument(
        "--dataset",
        default=None,
        metavar="NAME",
        help="route the remote workload to this dataset on a "
        "multi-dataset router (default: the server's "
        "default dataset; requires --remote)",
    )
    batch.add_argument(
        "--update-token",
        default=None,
        help="writer token sent with interleaved update steps "
        "(remote mode, servers with token-gated "
        "updates)",
    )

    serve = sub.add_parser(
        "serve",
        help="serve private queries over TCP (async multi-tenant service)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0, help="TCP port (0 = pick an ephemeral port)"
    )
    source = serve.add_mutually_exclusive_group()
    source.add_argument("--graph", help="serve this edge-list file")
    source.add_argument("--dataset", help="serve a Fig. 6 dataset stand-in")
    source.add_argument(
        "--datasets",
        metavar="FILE",
        default=None,
        help="mount every dataset in this JSON config on one "
        "router (per-dataset graph, budgets, updates, "
        "writer_token, seed; see the README's "
        "'Scaling out' section)",
    )
    serve.add_argument(
        "--lenient-edge-list",
        action="store_true",
        help="skip self-loop/duplicate edge lines in --graph "
        "instead of refusing to start",
    )
    serve.add_argument("--dataset-scale", type=float, default=0.05)
    serve.add_argument(
        "--nodes",
        type=int,
        default=100,
        help="random graph size (when no source is given)",
    )
    serve.add_argument("--avgdeg", type=float, default=8.0)
    serve.add_argument(
        "--graph-seed", type=int, default=0, help="random-graph generator seed"
    )
    serve.add_argument(
        "--epsilon",
        type=_positive_float,
        default=None,
        help="global epsilon cap across all tenants "
        "(default: unlimited, fully ledgered)",
    )
    serve.add_argument(
        "--user-epsilon",
        type=_positive_float,
        default=None,
        help="default per-user epsilon sub-budget",
    )
    serve.add_argument(
        "--user-budget",
        action="append",
        default=[],
        metavar="USER=EPS",
        help="explicit sub-budget for one tenant (repeatable; under "
        "--datasets, the default of datasets without 'user_budgets')",
    )
    serve.add_argument(
        "--seed",
        type=int,
        default=None,
        help="session + request-seed entropy (a seeded "
        "server is end-to-end reproducible)",
    )
    serve.add_argument("--workers", type=_workers_arg, default=1, help=workers_help)
    serve.add_argument(
        "--max-pending",
        type=int,
        default=64,
        help="backpressure bound: in-flight queries beyond "
        "this are refused ('overloaded')",
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=None,
        help="bound of the process-wide compiled-relation " "cache (entries)",
    )
    serve.add_argument(
        "--updates",
        action="store_true",
        help="serve the graph as a dynamic VersionedGraph "
        "and enable the admin-gated 'update' wire op "
        "(live edge/node inserts and deletes)",
    )
    serve.add_argument(
        "--update-token",
        default=None,
        metavar="TOKEN",
        help="shared secret the 'update' op must present "
        "(with --updates; default: gated only by "
        "--updates)",
    )
    serve.add_argument(
        "--announce",
        metavar="FILE",
        default=None,
        help="write the bound host:port to FILE once "
        "listening (for scripts wanting the ephemeral "
        "port)",
    )
    add_obs_flags(serve)

    replica = sub.add_parser(
        "replica",
        help="serve a read replica of one dataset on a running primary",
    )
    replica.add_argument(
        "--primary",
        required=True,
        metavar="HOST:PORT",
        help="the primary router to bootstrap from and tail",
    )
    replica.add_argument(
        "--dataset",
        required=True,
        metavar="NAME",
        help="the (dynamic) dataset to replicate",
    )
    replica.add_argument("--host", default="127.0.0.1")
    replica.add_argument(
        "--port", type=int, default=0, help="TCP port (0 = pick an ephemeral port)"
    )
    replica.add_argument(
        "--poll",
        type=float,
        default=0.2,
        metavar="SECONDS",
        help="interval between log polls while tailing",
    )
    replica.add_argument(
        "--epsilon",
        type=_positive_float,
        required=True,
        help="this replica's global epsilon cap (required): each "
        "replica spends its own slice, so give every replica its "
        "share of the dataset's cap",
    )
    replica.add_argument(
        "--user-epsilon",
        type=_positive_float,
        default=None,
        help="default per-user epsilon sub-budget",
    )
    replica.add_argument(
        "--user-budget",
        action="append",
        default=[],
        metavar="USER=EPS",
        help="explicit sub-budget for one tenant " "(repeatable)",
    )
    replica.add_argument(
        "--seed",
        type=int,
        default=None,
        help="session + request-seed entropy (match the "
        "primary's to reproduce its answer stream)",
    )
    replica.add_argument("--workers", type=_workers_arg, default=1, help=workers_help)
    replica.add_argument(
        "--max-pending",
        type=int,
        default=64,
        help="backpressure bound: in-flight queries beyond "
        "this are refused ('overloaded')",
    )
    replica.add_argument(
        "--announce",
        metavar="FILE",
        default=None,
        help="write the bound host:port to FILE once " "listening",
    )
    add_obs_flags(replica)

    obs = sub.add_parser(
        "obs",
        help="scrape a running service's metrics (the wire 'metrics' op)",
    )
    obs.add_argument("address", metavar="HOST:PORT", help="a running repro service")
    obs.add_argument(
        "--json",
        action="store_true",
        help="print the JSON rows (with p50/p95/p99) instead of "
        "the Prometheus text exposition",
    )
    obs.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="also write the full JSON metrics payload to FILE "
        "(e.g. a CI metrics-snapshot.json artifact)",
    )

    fig = sub.add_parser("fig", help="regenerate a figure of the paper")
    fig.add_argument(
        "name",
        choices=[
            "fig1",
            "fig4a",
            "fig4b",
            "fig4c",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "all",
        ],
    )
    fig.add_argument("--scale", default=None, help="smoke | default | full")
    fig.add_argument("--seed", type=int, default=2024)
    fig.add_argument("--workers", type=_workers_arg, default=None, help=workers_help)

    audit = sub.add_parser("audit", help="empirical privacy audit")
    audit.add_argument("--epsilon", type=_positive_float, default=1.0)
    audit.add_argument("--nodes", type=int, default=24)
    audit.add_argument("--avgdeg", type=float, default=6.0)
    audit.add_argument("--trials", type=int, default=1500)
    audit.add_argument("--seed", type=int, default=0)

    sub.add_parser("datasets", help="list dataset stand-ins")

    from .analysis.cli import configure_parser as configure_lint

    configure_lint(sub)
    return parser


def _cmd_count(args) -> int:
    from .experiments.mechanisms import parse_query
    from . import private_subgraph_count

    graph = _graph_from_spec(_flag_graph_spec(args, args.edge_list, args.seed))
    print(f"graph: {graph.num_nodes} nodes, {graph.num_edges} edges")
    result = private_subgraph_count(
        graph,
        parse_query(args.query),
        privacy=args.privacy,
        epsilon=args.epsilon,
        rng=args.seed,
    )
    print(
        f"{args.privacy}-DP {args.query} count (eps={args.epsilon}): "
        f"{result.answer:.2f}"
    )
    if args.show_true:
        print(
            f"true count: {result.true_answer:.0f} "
            f"(relative error {result.relative_error:.2%})"
        )
    return 0


def _cmd_ingest(args) -> int:
    import json

    from .errors import GraphError, MechanismError
    from .graphs.io import DEFAULT_CHUNK_SIZE
    from .store import ingest_edge_list

    chunk_size = (DEFAULT_CHUNK_SIZE if args.chunk_size is None else args.chunk_size)
    try:
        report = ingest_edge_list(
            args.edge_list,
            strict=not args.lenient,
            chunk_size=chunk_size,
            register=args.register,
        )
    except (GraphError, MechanismError) as error:
        print(error, file=sys.stderr)
        return 2
    print(
        f"ingested {args.edge_list}: {report.num_nodes} nodes, "
        f"{report.num_edges} edges at version {report.graph.version}"
    )
    print(
        f"  read+load: {report.read_seconds:.2f}s "
        f"({report.edges_per_second:,.0f} edges/s), "
        f"wrap: {report.wrap_seconds:.2f}s"
    )
    for row in report.registered:
        print(
            f"  registered {row['pattern']}: {row['occurrences']} "
            f"occurrences in {row['seconds']:.2f}s"
        )
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report.summary(), handle, indent=2)
            handle.write("\n")
        print(f"  report written to {args.out}")
    return 0


def _flag_graph_spec(args, edge_list, seed) -> dict:
    """The ``graph`` spec object the single-graph flags describe: the
    edge-list file, else ``--dataset``, else a random graph from
    ``--nodes``/``--avgdeg`` and ``seed``."""
    if edge_list:
        return {"edge_list": edge_list, "lenient": args.lenient_edge_list}
    if args.dataset:
        return {"dataset": args.dataset, "scale": args.dataset_scale}
    return {"nodes": args.nodes, "avgdeg": args.avgdeg, "seed": seed}


def _graph_from_spec(graph_spec: Optional[dict]):
    """Build a graph from a ``graph`` spec object (batch spec, dataset
    config entry, or :func:`_flag_graph_spec`)."""
    from .graphs import load_dataset, random_graph_with_avg_degree, read_edge_list

    graph_spec = graph_spec or {}
    if "edge_list" in graph_spec:
        return read_edge_list(
            graph_spec["edge_list"], strict=not graph_spec.get("lenient", False)
        )
    if "dataset" in graph_spec:
        return load_dataset(graph_spec["dataset"], scale=graph_spec.get("scale", 0.05))
    return random_graph_with_avg_degree(
        int(graph_spec.get("nodes", 100)),
        float(graph_spec.get("avgdeg", 8.0)),
        rng=graph_spec.get("seed", 0),
    )


def _batch_row(label, item, status, answer=None, epsilon=None, entry=None):
    return {
        "label": label,
        "mechanism": entry.get("mechanism") if entry else item.get(
            "mechanism", "recursive"),
        "query": entry.get("query") if entry else str(item.get("query")),
        "status": status,
        "answer": answer,
        "epsilon": entry.get("epsilon") if entry else epsilon,
        "user": (entry.get("user") if entry else item.get("user")) or "-",
    }


def _update_row(label, status, version=None, applied=None):
    """A table row for one interleaved graph-update step."""
    query = "update"
    if version is not None:
        query = f"update->v{version} ({applied} delta"
        query += "s)" if applied != 1 else ")"
    return {
        "label": label,
        "mechanism": "-",
        "query": query,
        "status": status,
        "answer": None,
        "epsilon": None,
        "user": "-",
    }


_BATCH_COLUMNS = ["label", "user", "mechanism", "query", "epsilon", "status", "answer"]


def _cmd_batch_remote(args, spec) -> int:
    """Round-trip the workload through a running ``repro serve``."""
    import json

    from .errors import ServiceError, ServiceForbidden, ServiceOverloaded
    from .experiments import format_table
    from .service import ServiceClient
    from .session import BudgetExhausted

    seed = args.seed if args.seed is not None else spec.get("seed")
    for key in ("graph", "budget", "workers"):
        if key in spec:
            print(
                f"note: spec {key!r} is ignored with --remote " "(the server owns it)",
                file=sys.stderr,
            )
    rows = []
    failed = 0
    granted = 0
    with ServiceClient(args.remote, dataset=args.dataset) as client:
        hello = client.hello()
        dataset = args.dataset or hello.get("default_dataset")
        extra = f", dataset {dataset!r}" if dataset else ""
        print(
            f"remote: {args.remote} ({hello['name']}, protocol "
            f"v{hello['protocol']}, multi_tenant={hello['multi_tenant']}{extra})"
        )
        for index, item in enumerate(spec["queries"]):
            label = item.get("label", f"q{index}")
            if "update" in item:
                # An interleaved live update: the server serializes it
                # with admissions, so earlier remote queries completed
                # against the old version and later ones see the new.
                try:
                    outcome = client.update(
                        item["update"],
                        token=args.update_token,
                        label=label,
                    )
                except ServiceForbidden as error:
                    failed += 1
                    rows.append(_update_row(label, "forbidden"))
                    print(f"update forbidden {label!r}: {error}", file=sys.stderr)
                    continue
                except (ValueError, ServiceError) as error:
                    failed += 1
                    rows.append(_update_row(label, "update-failed"))
                    print(f"update failed {label!r}: {error}", file=sys.stderr)
                    continue
                rows.append(
                    _update_row(
                        label,
                        "applied",
                        version=outcome["version"],
                        applied=outcome["applied"],
                    )
                )
                continue
            if "seed" in item:
                wire_seed = item["seed"]
            elif seed is not None:
                # The i-th granted query draws the same SeedSequence child
                # the in-process session stream would spawn for it, so a
                # remote run is byte-identical to `repro batch` locally at
                # the same seed (given the same server-side budget).
                wire_seed = {"entropy": seed, "spawn_key": [granted]}
            else:
                wire_seed = None
            try:
                result = client.query(
                    item.get("query"),
                    epsilon=item.get("epsilon"),
                    privacy=item.get("privacy"),
                    mechanism=item.get("mechanism"),
                    user=item.get("user"),
                    label=label,
                    seed=wire_seed,
                    options=item.get("options"),
                )
            except BudgetExhausted as error:
                rows.append(_batch_row(label, item, "refused"))
                print(f"refused {label!r}: {error}", file=sys.stderr)
                continue
            except ServiceOverloaded as error:
                failed += 1
                rows.append(_batch_row(label, item, "overloaded"))
                print(f"overloaded {label!r}: {error}", file=sys.stderr)
                continue
            except ValueError as error:
                failed += 1
                rows.append(_batch_row(label, item, "invalid"))
                print(f"invalid {label!r}: {error}", file=sys.stderr)
                continue
            except ServiceError as error:
                failed += 1
                if "seed" not in item:  # admitted: a stream seed was used
                    granted += 1
                rows.append(_batch_row(label, item, "failed"))
                print(f"failed {label!r}: {error}", file=sys.stderr)
                continue
            if "seed" not in item:
                # Explicit-seed items never consume the derived stream —
                # mirroring the local session, which only spawns a child
                # for submissions whose rng it assigns itself.
                granted += 1
            rows.append(
                _batch_row(
                    label, item, result["status"], answer=result["answer"], entry=result
                )
            )
        print(format_table(rows, _BATCH_COLUMNS, title="batch workload (remote)"))
        budget = client.budget()
        cap = budget.get("budget")
        remaining = budget.get("remaining")
        print(
            f"server budget spent: eps={budget['spent']:g}" + (
                "" if remaining is None else f" (remaining {remaining:g})"
            )
        )
        if cap is not None and budget.get("users"):
            for user, row in sorted(budget["users"].items()):
                remaining = row["remaining"]
                tail = "" if remaining is None else f" remaining={remaining:g}"
                print(f"  user {user}: spent={row['spent']:g}{tail}")
        if args.audit_log:
            audit = client.audit(replay=True)
            print(json.dumps(audit, indent=2))
            if audit["matched"] != sum(
                1 for e in audit["entries"]
                if e["entry"]["status"] == "released"
                and e["entry"]["seed"] is not None
            ):
                print("audit replay mismatch!", file=sys.stderr)
                return 1
    return 1 if failed else 0


def _apply_obs(args) -> None:
    """Arm tracing/slow-query logging from the shared CLI flags.

    Opens the trace-log file synchronously, before any event loop or
    worker pool exists — the ``async-blocking`` contract for sinks.
    """
    if getattr(args, "trace_log", None) is None and (
        getattr(args, "slow_query_ms", None) is None
    ):
        return
    from .obs import configure as configure_obs

    configure_obs(trace_log=args.trace_log, slow_query_ms=args.slow_query_ms)


def _cmd_batch(args) -> int:
    import json

    from .experiments import format_table
    from .session import BudgetExhausted, PrivateSession
    from .validation import validate_batch_spec

    _apply_obs(args)
    if args.spec == "-":
        spec = json.load(sys.stdin)
    else:
        with open(args.spec) as handle:
            spec = json.load(handle)
    try:
        validate_batch_spec(spec)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    queries = spec["queries"]

    if args.remote is not None:
        return _cmd_batch_remote(args, spec)
    if args.dataset is not None:
        print(
            "--dataset routes a --remote workload; local batch runs "
            "build their graph from the spec",
            file=sys.stderr,
        )
        return 2

    graph = _graph_from_spec(spec.get("graph"))
    has_updates = any(isinstance(item, dict) and "update" in item for item in queries)
    if has_updates:
        from .dynamic import VersionedGraph

        graph = VersionedGraph(graph)
    budget = args.budget if args.budget is not None else spec.get("budget")
    seed = args.seed if args.seed is not None else spec.get("seed")
    workers = args.workers if args.workers is not None else spec.get("workers", 1)
    dynamic_note = "; dynamic (interleaved updates)" if has_updates else ""
    print(
        f"graph: {graph.num_nodes} nodes, {graph.num_edges} edges; "
        f"budget: {'unlimited' if budget is None else budget}; "
        f"workers: {workers}{dynamic_note}"
    )

    rows = []
    failed = 0
    with PrivateSession(
        graph, budget=budget, workers=workers, rng=seed, name="batch"
    ) as session:
        pending = []

        def drain() -> int:
            """Collect every pending future into rows; count failures."""
            drained_failures = 0
            for label, item, future in pending:
                try:
                    result = future.result()
                except Exception as error:  # surface per-query failures
                    drained_failures += 1
                    rows.append(
                        _batch_row(label, item, "failed", entry=future.entry.to_dict())
                    )
                    print(f"failed {label!r}: {error}", file=sys.stderr)
                    continue
                rows.append(
                    _batch_row(
                        label,
                        item,
                        future.entry.status,
                        answer=result.answer,
                        entry=future.entry.to_dict(),
                    )
                )
            pending.clear()
            return drained_failures

        for index, item in enumerate(queries):
            label = item.get("label", f"q{index}")
            if "update" in item:
                # Updates are barriers: earlier queries complete against
                # the old version, later ones see the new one.
                failed += drain()
                try:
                    outcome = session.apply_update(item["update"], label=label)
                except Exception as error:
                    failed += 1
                    rows.append(_update_row(label, "update-failed"))
                    print(f"update failed {label!r}: {error}", file=sys.stderr)
                    continue
                rows.append(
                    _update_row(
                        label,
                        "applied",
                        version=outcome.version,
                        applied=outcome.applied,
                    )
                )
                continue
            try:
                future = session.submit(
                    item["query"],
                    epsilon=item.get("epsilon"),
                    privacy=item.get("privacy"),
                    mechanism=item.get("mechanism", "recursive"),
                    label=label,
                    user=item.get("user"),
                    rng=item.get("seed"),
                    **item.get("options", {}),
                )
            except BudgetExhausted as error:
                rows.append(_batch_row(label, item, "refused"))
                print(f"refused {label!r}: {error}", file=sys.stderr)
                continue
            except Exception as error:  # malformed item: report, keep going
                failed += 1
                rows.append(_batch_row(label, item, "invalid"))
                print(f"invalid {label!r}: {error}", file=sys.stderr)
                continue
            pending.append((label, item, future))
        failed += drain()
        print(format_table(rows, _BATCH_COLUMNS, title="batch workload"))
        info = session.cache_info()
        remaining = session.remaining
        print(
            f"budget spent: eps={session.spent:g}" + (
                "" if remaining is None else f" (remaining {remaining:g})"
            )
        )
        print(
            f"compiled-relation cache: {info.hits} hits, "
            f"{info.misses} misses, {info.size} entries"
        )
        if args.audit_log:
            print(json.dumps(session.audit_log(), indent=2))
    return 1 if failed else 0


def _parse_user_budgets(pairs):
    """``--user-budget USER=EPS`` pairs → dict; ``ValueError`` names a bad pair."""
    from .validation import validate_epsilon

    user_budgets = {}
    for pair in pairs:
        user, sep, eps = pair.partition("=")
        if not sep or not user:
            raise ValueError(f"--user-budget wants USER=EPS, got {pair!r}")
        try:
            user_budgets[user] = validate_epsilon(float(eps), f"--user-budget {user}")
        except ValueError:
            raise ValueError(
                f"--user-budget {pair!r}: {eps!r} is not a positive finite number"
            ) from None
    return user_budgets


def _announce(path, host, port) -> None:
    """Write the bound address for scripts waiting on an ephemeral port."""
    if path:
        with open(path, "w") as handle:
            handle.write(f"{host}:{port}\n")


def _served_session(args, name, graph, user_budgets, config=None):
    """The session behind one served dataset ``name``.

    Every session ``repro serve`` mounts and ``repro replica`` bootstraps
    is built here: a :class:`~repro.session.HierarchicalAccountant`, the
    dataset's namespace of the process-wide compiled cache, the seed,
    the LP backend and the worker count.  The ``budget``,
    ``user_epsilon``, ``user_budgets`` and ``seed`` keys of a
    ``--datasets`` entry (``config``) win over ``--epsilon``,
    ``--user-epsilon``, ``--user-budget`` (parsed into ``user_budgets``)
    and ``--seed``.
    """
    from .session import HierarchicalAccountant, PrivateSession, shared_cache

    config = config or {}
    accountant = HierarchicalAccountant(
        config.get("budget", args.epsilon),
        default_user_budget=config.get("user_epsilon", args.user_epsilon),
        user_budgets=config.get("user_budgets") or user_budgets,
    )
    return PrivateSession(
        graph,
        workers=args.workers,
        rng=config.get("seed", args.seed),
        accountant=accountant,
        cache=shared_cache().namespaced(name),
        name=f"{args.command}[{name}]",
    )


def _serve_config(args) -> dict:
    """The datasets config ``repro serve`` mounts: the ``--datasets``
    file, or the single-graph flags as one dataset named ``default``."""
    import json

    from .validation import validate_serve_config

    if args.datasets:
        if args.updates or args.update_token is not None:
            raise ValueError(
                "--updates/--update-token are per-dataset keys of the "
                "--datasets config ('updates', 'writer_token')"
            )
        with open(args.datasets) as handle:
            config = json.load(handle)
        try:
            return validate_serve_config(config)
        except ValueError as error:
            raise ValueError(f"{args.datasets}: {error}") from None
    if args.update_token is not None and not args.updates:
        raise ValueError(
            "--update-token only makes sense with --updates (as given, "
            "updates would stay disabled and the token ignored)"
        )
    from .service import DEFAULT_DATASET

    return {
        "datasets": {
            DEFAULT_DATASET: {
                "graph": _flag_graph_spec(args, args.graph, args.graph_seed),
                "updates": args.updates,
                "writer_token": args.update_token,
            }
        }
    }


def _build_router(args):
    """The router ``repro serve`` runs (and its sessions).

    ``ValueError`` (or ``OSError`` reading ``--datasets``) reports a bad
    invocation before anything is served.
    """
    from .service import ServiceRouter
    from .session import shared_cache

    config = _serve_config(args)
    user_budgets = _parse_user_budgets(args.user_budget)
    if args.cache_size is not None:
        shared_cache().resize(args.cache_size)
    router = ServiceRouter(
        host=args.host,
        port=args.port,
        max_pending=args.max_pending,
        seed=args.seed,
    )
    sessions = []
    for name, entry in config["datasets"].items():
        graph = _graph_from_spec(entry.get("graph"))
        updates = bool(entry.get("updates", False))
        if updates:
            from .dynamic import VersionedGraph

            graph = VersionedGraph(graph)
        session = _served_session(args, name, graph, user_budgets, entry)
        sessions.append(session)
        router.add_dataset(
            name,
            session,
            updates=updates,
            writer_token=entry.get("writer_token"),
            seed=entry.get("seed", args.seed),
            default=(name == config.get("default")),
        )
    return router, sessions


def _run_service(service, sessions, args, banner) -> int:
    """Start ``service``, print ``banner(host, port)``, serve forever."""
    import asyncio

    async def run() -> None:
        host, port = await service.start()
        print(banner(host, port), flush=True)
        _announce(args.announce, host, port)
        await service.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        for session in sessions:
            session.close()
    return 0


def _cmd_serve(args) -> int:
    from .service import PROTOCOL_VERSION

    _apply_obs(args)
    try:
        router, sessions = _build_router(args)
    except (OSError, ValueError) as error:
        print(error, file=sys.stderr)
        return 2

    def banner(host, port):
        rows = []
        for name in router.datasets:
            lane = router.lane(name)
            data, cap = lane.session.data, lane.session.accountant.budget
            rows.append(
                f"{name}({data.num_nodes}n/{data.num_edges}e,budget "
                f"{'unlimited' if cap is None else f'{cap:g}'}"
                + (",dynamic" if lane.updates_enabled else "") + ")"
            )
        return (
            f"serving {len(rows)} dataset(s) on {host}:{port} (protocol "
            f"v{PROTOCOL_VERSION}, default {router.default_dataset!r}): "
            + ", ".join(rows)
        )

    return _run_service(router, sessions, args, banner)


def _cmd_replica(args) -> int:
    from .service import PROTOCOL_VERSION, ReplicaService, parse_address

    try:
        parse_address(args.primary)
        user_budgets = _parse_user_budgets(args.user_budget)
    except Exception as error:
        print(error, file=sys.stderr)
        return 2
    _apply_obs(args)
    sessions = []

    def session_factory(graph):
        session = _served_session(args, args.dataset, graph, user_budgets)
        sessions.append(session)
        return session

    service = ReplicaService(
        args.primary,
        args.dataset,
        session_factory,
        poll_interval=args.poll,
        host=args.host,
        port=args.port,
        max_pending=args.max_pending,
        seed=args.seed,
    )

    def banner(host, port):
        lane = service.lane()
        return (
            f"replica of {args.dataset!r} on {args.primary} "
            f"(bootstrapped at graph version {lane.current_version()}) "
            f"serving on {host}:{port} (protocol v{PROTOCOL_VERSION}, "
            f"poll {args.poll:g}s, updates refused)"
        )

    return _run_service(service, sessions, args, banner)


def _cmd_fig(args) -> int:
    from .experiments import format_series, format_table, resolve_scale
    from .parallel import resolve_workers

    scale = resolve_scale(args.scale)
    name, seed = args.name, args.seed
    workers = resolve_workers(args.workers)
    if name == "all":
        from .experiments.full_report import generate_report

        print(generate_report(scale=scale, rng=seed))
        return 0
    if name in ("fig4a", "fig4b", "fig4c"):
        from .experiments import synthetic

        fn = {
            "fig4a": synthetic.fig4a_nodes_sweep,
            "fig4b": synthetic.fig4b_avgdeg_sweep,
            "fig4c": synthetic.fig4c_epsilon_sweep,
        }[name]
        result = fn(scale=scale, rng=seed)
        (x_name, x_values), = result.pop("_x").items()
        for query, series in result.items():
            print(format_series(x_name, x_values, series, title=f"{name} — {query}"))
            print()
    elif name == "fig5":
        from .experiments.runtime import fig5_runtime_sweep

        sweep_rows = fig5_runtime_sweep(scale=scale, rng=seed, workers=workers)
        for combo, rows in sweep_rows.items():
            print(
                format_table(
                    rows,
                    ["nodes", "tuples", "mechanism_seconds"],
                    title=f"fig5 — {combo}",
                )
            )
            print()
    elif name == "fig6":
        from .experiments.real_graphs import fig6_dataset_table

        print(
            format_table(
                fig6_dataset_table(scale=scale, rng=seed),
                ["dataset", "V", "E", "triangles", "node_seconds", "edge_seconds"],
                title="fig6",
            )
        )
    elif name == "fig7":
        from .experiments.real_graphs import fig7_accuracy_table

        print(
            format_table(
                fig7_accuracy_table(scale=scale, rng=seed),
                [
                    "dataset",
                    "recursive-node",
                    "recursive-edge",
                    "local-sensitivity",
                    "rhms",
                ],
                title="fig7",
            )
        )
    elif name in ("fig8", "fig9"):
        from .experiments.krelations import fig8_clause_sweep, fig9_size_sweep

        sweep = fig8_clause_sweep if name == "fig8" else fig9_size_sweep
        for kind, rows in sweep(scale=scale, rng=seed).items():
            print(
                format_table(
                    rows,
                    [
                        "clauses" if name == "fig8" else "size",
                        "median_relative_error",
                        "us_reference",
                        "seconds",
                    ],
                    title=f"{name} — 3-{kind.upper()}",
                )
            )
            print()
    elif name == "fig1":
        from .experiments.comparison import fig1_comparison_table

        print(
            format_table(
                fig1_comparison_table(scale=scale, rng=seed, workers=workers),
                ["query", "mechanism", "privacy", "median_relative_error", "seconds"],
                title="fig1",
            )
        )
    return 0


def _cmd_audit(args) -> int:
    from .core.params import RecursiveMechanismParams
    from .experiments.privacy_audit import audit_krelation_withdrawal
    from .graphs import random_graph_with_avg_degree
    from .subgraphs import subgraph_krelation, triangle

    graph = random_graph_with_avg_degree(args.nodes, args.avgdeg, rng=args.seed)
    relation = subgraph_krelation(graph, triangle(), privacy="node")
    params = RecursiveMechanismParams.paper(args.epsilon, node_privacy=True)
    report = audit_krelation_withdrawal(
        relation, params, trials=args.trials, rng=args.seed
    )
    print(f"claimed epsilon:   {report.claimed_epsilon:.3f}")
    print(
        f"empirical epsilon: {report.empirical_epsilon:.3f} "
        f"({report.trials} trials, {report.bins} bins)"
    )
    print(f"verdict:           {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def _cmd_obs(args) -> int:
    import json

    from .service import ServiceClient

    try:
        with ServiceClient(args.address) as client:
            payload = client.metrics()
    except (OSError, ValueError) as error:
        print(error, file=sys.stderr)
        return 2
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.json:
        print(json.dumps(
            {key: payload[key] for key in payload if key != "text"},
            indent=2,
            sort_keys=True,
        ))
    else:
        sys.stdout.write(payload.get("text", ""))
    return 0


def _cmd_lint(args) -> int:
    from .analysis.cli import run

    return run(args)


def _cmd_datasets(_args) -> int:
    from .experiments import format_table
    from .graphs import DATASETS

    rows = [
        {
            "dataset": spec.name,
            "paper_V": spec.num_nodes,
            "paper_E": spec.num_edges,
            "paper_triangles": spec.paper_triangles,
            "family": spec.family,
        }
        for spec in DATASETS.values()
    ]
    print(
        format_table(
            rows,
            ["dataset", "paper_V", "paper_E", "paper_triangles", "family"],
            title="Fig. 6 dataset stand-ins (synthetic; see the README "
            "section 'Deviations from the paper')",
        )
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "count": _cmd_count,
        "ingest": _cmd_ingest,
        "batch": _cmd_batch,
        "serve": _cmd_serve,
        "replica": _cmd_replica,
        "fig": _cmd_fig,
        "audit": _cmd_audit,
        "datasets": _cmd_datasets,
        "obs": _cmd_obs,
        "lint": _cmd_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
