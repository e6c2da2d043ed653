"""A budgeted analytics workload with auditing.

A realistic deployment releases several statistics of the same sensitive
graph under one global privacy budget, and wants an empirical check that
the implementation honors its guarantee.  This example:

1. runs three subgraph statistics through a budget-capped
   :class:`PrivateSession` (sequential composition) until the ε budget
   is exhausted;
2. shows the budget gate rejecting an over-budget query;
3. audits the mechanism empirically across a worst-case single-node
   withdrawal.

Run:  python examples/budgeted_workload.py
"""

from repro import (
    BudgetExhausted,
    PrivateSession,
    k_star,
    random_graph_with_avg_degree,
    triangle,
)
from repro.core import RecursiveMechanismParams
from repro.core.params import group_privacy_epsilon
from repro.experiments.privacy_audit import audit_krelation_withdrawal
from repro.subgraphs import k_triangle, subgraph_krelation


def main():
    graph = random_graph_with_avg_degree(50, 7, rng=31)
    session = PrivateSession(graph, budget=1.5)
    print(f"graph: {graph.num_nodes} nodes; total budget eps = {session.budget}\n")

    workload = [
        ("triangles", triangle(), 0.6),
        ("2-stars", k_star(2), 0.6),
        ("2-triangles", k_triangle(2), 0.6),  # this one exceeds the budget
    ]
    for label, pattern, epsilon in workload:
        try:
            result = session.query(
                pattern, privacy="node", epsilon=epsilon, rng=7, label=label
            )
        except BudgetExhausted as error:
            print(f"{label:12s} REFUSED: {error}")
            continue
        print(
            f"{label:12s} released {result.answer:9.1f}  "
            f"(true {result.true_answer:6.0f}, spent eps={epsilon})"
        )

    print(f"\nledger: {[(e.label, e.epsilon) for e in session.ledger]}")
    print(f"remaining budget: eps = {session.remaining:.2f}")
    session.close()

    # group privacy: a user controlling 3 sockpuppet accounts
    params = RecursiveMechanismParams.paper(0.6, node_privacy=True)
    print(
        f"\nguarantee for 3-node colluding groups: "
        f"eps = {group_privacy_epsilon(params, 3):.2f}"
    )

    # empirical audit of the released guarantee
    small = random_graph_with_avg_degree(18, 5, rng=2)
    relation = subgraph_krelation(small, triangle(), privacy="node")
    report = audit_krelation_withdrawal(
        relation,
        RecursiveMechanismParams.paper(1.0, node_privacy=True),
        trials=800,
        rng=0,
    )
    print(
        f"\nempirical audit: claimed eps={report.claimed_epsilon:.2f}, "
        f"measured {report.empirical_epsilon:.2f} -> "
        f"{'PASS' if report.passed else 'FAIL'}"
    )


if __name__ == "__main__":
    main()
