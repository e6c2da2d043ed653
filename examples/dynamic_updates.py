"""Serving private queries over a graph that changes underneath you.

The dynamic-graph subsystem (:mod:`repro.dynamic`) end to end:

1. wrap the data in a :class:`repro.VersionedGraph` — an append-only
   update log, a monotone version counter, and incrementally maintained
   occurrence relations (delta-joins instead of re-enumeration);
2. query through a :class:`repro.PrivateSession` as usual — cache keys
   carry the graph version, so a compiled LP from a superseded version
   is never served to a new query, while same-version repeats stay warm;
3. mutate with :meth:`PrivateSession.apply_update` — the deltas land in
   the audit ledger, and ``session.replay()`` re-verifies every released
   answer against the exact version it saw;
4. over the wire, the same thing is the admin-gated v1 op ``update``
   (``repro serve --updates``), serialized with admissions so each
   remote query deterministically sees exactly one version.

Run:  python examples/dynamic_updates.py
"""

from repro import PrivateSession, VersionedGraph, random_graph_with_avg_degree
from repro.service import BackgroundService, ServiceClient, ServiceRouter
from repro.session import HierarchicalAccountant, SharedCompiledCache


def main():
    graph = VersionedGraph(random_graph_with_avg_degree(50, 6, rng=13))

    # 1-3: in-process — query, mutate, query again, then audit the lot.
    with PrivateSession(graph, budget=3.0, rng=7, name="dynamic-demo") as s:
        before = s.query("triangle", privacy="node", epsilon=0.5)
        print(f"v{s.graph_version}: triangle/node answer {before.answer:.2f}")

        outcome = s.apply_update(
            [
                {"action": "add_edge", "u": 0, "v": 1},
                {"action": "add_edge", "u": 1, "v": 2},
                {"action": "remove_node", "node": 9},
            ]
        )
        print(f"applied {outcome.applied} deltas -> version {outcome.version}")

        after = s.query("triangle", privacy="node", epsilon=0.5)
        print(f"v{s.graph_version}: triangle/node answer {after.answer:.2f}")
        warm = s.query("triangle", privacy="node", epsilon=0.5)
        info = s.cache_info()
        print(
            f"cache: {info.hits} hits / {info.misses} misses "
            f"(same-version repeat stayed warm: {warm.answer:.2f})"
        )

        assert s.verify_ledger(), "replay must verify across mutations"
        print("audit replay verified every answer at its own version")
        maintenance = graph.maintainer.info()
        for row in maintenance:
            print(
                f"  maintained {row['pattern']}: {row['occurrences']} "
                f"occurrences, {row['deltas_applied']} deltas, "
                f"{row['rebuilds']} rebuilds"
            )

    # 4: the same updates over the wire, admin-gated by a token.
    graph2 = VersionedGraph(random_graph_with_avg_degree(50, 6, rng=13))
    session = PrivateSession(
        graph2,
        rng=7,
        accountant=HierarchicalAccountant(3.0),
        cache=SharedCompiledCache(maxsize=16),
        name="dynamic-wire",
    )
    router = ServiceRouter(seed=2026)
    router.add_dataset("default", session, updates=True, writer_token="demo-token")
    with BackgroundService(router) as bg:
        with ServiceClient(bg.address, user="alice") as client:
            first = client.query("triangle", epsilon=0.5, privacy="node")
            print(f"wire v{first['version']}: answer {first['answer']:.2f}")
            outcome = client.update(
                [{"action": "add_edge", "u": 0, "v": 1}], token="demo-token"
            )
            second = client.query("triangle", epsilon=0.5, privacy="node")
            print(
                f"wire v{second['version']}: answer {second['answer']:.2f} "
                f"(update took the graph to version {outcome['version']})"
            )
            audit = client.audit(replay=True)
            released = [
                e for e in audit["entries"] if e["entry"]["status"] == "released"
            ]
            assert all(e["matches"] for e in released)
            print(
                f"wire audit: {audit['count']} entries, "
                f"{audit['matched']} replay-verified"
            )
    session.close()


if __name__ == "__main__":
    main()
