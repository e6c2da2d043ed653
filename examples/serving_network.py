"""Serving private queries to many tenants over the network.

The deployable shape of the serving stack (:mod:`repro.service`):

1. a :class:`repro.service.ServiceRouter` mounts a
   :class:`repro.PrivateSession` as its one dataset and serves it behind
   a newline-delimited JSON wire protocol (stdlib asyncio TCP — here on
   an ephemeral localhost port, run in-process by
   :class:`repro.service.BackgroundService`);
2. a :class:`repro.session.HierarchicalAccountant` partitions the global
   ε cap into per-user sub-budgets — a tenant that exhausts their quota
   is refused *by name* while others keep querying;
3. the process-wide shared compiled-relation cache means every tenant
   asking the same pattern reuses one compiled LP (watch the hit
   counters climb across *different* users);
4. answers are deterministic: the service derives each tenant's request
   seeds from its own seed root, so a seeded server is end-to-end
   reproducible — and the streamed audit log replays every release
   bit-for-bit.

Run:  python examples/serving_network.py
"""

from repro import PrivateSession, random_graph_with_avg_degree
from repro.service import BackgroundService, ServiceClient, ServiceRouter
from repro.session import (
    BudgetExhausted,
    HierarchicalAccountant,
    SharedCompiledCache,
)


def main():
    graph = random_graph_with_avg_degree(60, 7, rng=31)

    # 1-2: a multi-tenant session: global cap 3.0, each tenant gets 1.0
    accountant = HierarchicalAccountant(3.0, default_user_budget=1.0)
    cache = SharedCompiledCache(maxsize=32)
    session = PrivateSession(
        graph, rng=7, accountant=accountant, cache=cache, name="network-demo"
    )

    router = ServiceRouter(seed=2026)
    router.add_dataset("default", session)
    with BackgroundService(router) as bg:
        host, port = bg.address
        print(
            f"serving {graph.num_nodes}-node graph on {host}:{port} "
            f"(global eps=3.0, per-user eps=1.0)\n"
        )

        # two tenants, two independent connections
        alice = ServiceClient(bg.address, user="alice")
        bob = ServiceClient(bg.address, user="bob")

        workload = [
            (alice, "triangle", "node", 0.5),
            (bob, "triangle", "node", 0.5),   # same pattern: cache hit
            (alice, "2-star", "edge", 0.5),
            (bob, "triangle", "edge", 0.5),
            (alice, "triangle", "edge", 0.25),  # alice is over quota now
        ]
        for client, query, privacy, epsilon in workload:
            user = "alice" if client is alice else "bob"
            try:
                result = client.query(query, epsilon=epsilon, privacy=privacy)
            except BudgetExhausted as error:
                print(
                    f"{user:6s} {query:9s} REFUSED "
                    f"(tenant={error.user}): budget exhausted"
                )
                continue
            print(
                f"{user:6s} {query:9s} released {result['answer']:10.1f} "
                f"(eps={epsilon}, cache_hit={result['cache_hit']})"
            )

        # 3: cross-tenant compiled-relation reuse
        info = cache.info()
        print(
            f"\nshared compiled-relation cache: {info.hits} hits, "
            f"{info.misses} misses, {info.size} entries"
        )

        # per-tenant accounting over the wire
        budget = alice.budget()
        print(f"global: spent eps={budget['spent']:g} of {budget['budget']:g}")
        for user, row in sorted(budget.get("users", {}).items()):
            print(
                f"  {user}: spent={row['spent']:g}, " f"remaining={row['remaining']:g}"
            )

        # 4: the streamed audit log replays every release bit-for-bit
        audit = alice.audit(replay=True)
        print(
            f"\naudit replay over the wire: {audit['matched']}/"
            f"{audit['count']} entries reproduced bit-for-bit -> "
            f"{'PASS' if audit['matched'] == audit['count'] else 'FAIL'}"
        )

        alice.close()
        bob.close()
    session.close()


if __name__ == "__main__":
    main()
