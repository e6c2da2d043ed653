"""General K-relation workloads (Sec. 6.2): beyond graphs.

The mechanism answers *any* nonnegative linear query on a sensitive
K-relation.  This example mirrors the paper's Fig. 8/9 workloads — random
3-DNF K-relations ("a union of many join results") and 3-CNF K-relations
("a join of many unions") — and shows two things the paper highlights:

* the error tracks the universal empirical sensitivity ~US/ε, and
* weighted linear queries (q(t) != 1) work identically.

Run:  python examples/krelation_workloads.py
"""

import numpy as np

from repro.core import (
    EfficientRecursiveMechanism,
    RecursiveMechanismParams,
    WeightedQuery,
    universal_empirical_sensitivity,
)
from repro.core.queries import CountQuery
from repro.experiments import format_table, median_relative_error
from repro.krand import random_cnf_krelation, random_dnf_krelation


def main():
    epsilon, trials = 0.5, 15
    params = RecursiveMechanismParams.paper(epsilon)
    rows = []
    for kind, generate in (
        ("3-DNF", random_dnf_krelation),
        ("3-CNF", random_cnf_krelation),
    ):
        for clauses in (1, 3, 6):
            relation = generate(150, clauses, rng=17)
            # bounding="paper" matches the paper's Fig. 8 mechanism; the
            # default "auto" would pick the sound-but-looser alternative for
            # these disjunctive annotations (see README "Deviations from the
            # paper").
            mechanism = EfficientRecursiveMechanism(relation, bounding="paper")
            rng = np.random.default_rng(0)
            answers = [mechanism.run(params, rng).answer for _ in range(trials)]
            us = universal_empirical_sensitivity(CountQuery(), relation)
            rows.append(
                {
                    "kind": kind,
                    "clauses": clauses,
                    "true": mechanism.true_answer(),
                    "median_rel_error": median_relative_error(
                        answers, mechanism.true_answer()
                    ),
                    "US/(eps*q)": us / (epsilon * mechanism.true_answer()),
                }
            )
    print(
        format_table(
            rows,
            ["kind", "clauses", "true", "median_rel_error", "US/(eps*q)"],
            title="counting query on random K-relations (error tracks ~US/eps)",
        )
    )

    # A weighted query: each tuple carries a monetary value to aggregate.
    relation = random_dnf_krelation(120, 3, rng=23)
    values = {tup: float(i % 7 + 1) for i, (tup, _) in enumerate(relation.items())}
    query = WeightedQuery(lambda t: values[t], name="revenue")
    mechanism = EfficientRecursiveMechanism(relation, query=query, bounding="paper")
    result = mechanism.run(params, rng=4)
    print(f"\nweighted sum (true):    {result.true_answer:.1f}")
    print(
        f"weighted sum (eps-DP):  {result.answer:.1f} "
        f"(error {result.relative_error:.2%})"
    )


if __name__ == "__main__":
    main()
