"""repro — the recursive mechanism for node differential privacy.

A from-scratch reproduction of *Recursive Mechanism: Towards Node
Differential Privacy and Unrestricted Joins* (Chen & Zhou, SIGMOD 2013):
differentially private linear statistics of positive relational algebra
query results, supporting unrestricted joins — with subgraph counting under
node (or edge) differential privacy as the flagship application.

Quickstart
----------
One-shot (exactly the paper's mechanism, paper parameter settings):

>>> from repro import (
...     random_graph_with_avg_degree, triangle, private_subgraph_count,
... )
>>> g = random_graph_with_avg_degree(60, 6, rng=7)
>>> result = private_subgraph_count(g, triangle(), privacy="edge",
...                                 epsilon=1.0, rng=7)
>>> result.answer  # doctest: +SKIP
41.3

Serving many queries: a :class:`PrivateSession` owns a hard privacy-budget
cap (sequential composition, replayable audit ledger) and a
compiled-relation cache, so repeated queries skip the re-encode/re-compile
and mechanisms are picked by registry name (``repro.mechanisms.get``):

>>> from repro import PrivateSession
>>> session = PrivateSession(g, budget=2.0, rng=7)
>>> r1 = session.query(triangle(), privacy="edge", epsilon=1.0)
>>> r2 = session.query("2-star", privacy="edge", epsilon=0.5,
...                    mechanism="smooth")
>>> session.cache_info().misses, round(session.spent, 3)
(2, 1.5)
>>> session.verify_ledger()
True

See the README for the system inventory and its section "Deviations from
the paper" for where this reproduction departs from the paper.
"""

from .algebra import (
    BOOLEAN,
    COUNTING,
    PROVENANCE,
    Join,
    KRelation,
    Project,
    Rename,
    Select,
    Table,
    Tup,
    Union,
    evaluate_query,
)
from .boolexpr import FALSE, TRUE, And, Expr, Or, Var, minimal_dnf, parse
from .core import (
    CountQuery,
    EfficientRecursiveMechanism,
    GeneralRecursiveMechanism,
    LinearQuery,
    MechanismResult,
    RecursiveMechanismParams,
    SensitiveDatabase,
    SensitiveKRelation,
    SumQuery,
    WeightedQuery,
    private_linear_query,
    theorem1_error_bound,
    universal_empirical_sensitivity,
)
from .dynamic import GraphDelta, IncrementalOccurrences, VersionedGraph
from .graphs import (
    Graph,
    erdos_renyi,
    load_dataset,
    preferential_attachment,
    random_graph_with_avg_degree,
    watts_strogatz,
)
from .results import ResultBase
from .rng import ensure_rng
from .session import (
    BudgetAccountant,
    BudgetExhausted,
    HierarchicalAccountant,
    PrivateSession,
    QueryFuture,
)
from .subgraphs import (
    Pattern,
    k_clique,
    k_star,
    k_triangle,
    path_pattern,
    subgraph_krelation,
    triangle,
)

__version__ = "1.0.0"


def private_subgraph_count(
    graph,
    pattern,
    privacy: str = "node",
    epsilon: float = 0.5,
    rng=None,
    params=None,
) -> MechanismResult:
    """Differentially private subgraph count — the headline application.

    Builds the Fig. 2(a) sensitive K-relation for ``pattern`` in ``graph``
    under node or edge privacy and runs the efficient recursive mechanism
    with the paper's parameter settings.  A thin wrapper over a one-query
    :class:`PrivateSession` — answers are byte-identical to the direct
    mechanism path at a fixed seed; for repeated queries over the same
    graph, hold a session yourself and reuse its compiled-relation cache.

    Parameters
    ----------
    graph:
        A :class:`~repro.graphs.Graph`.
    pattern:
        A :class:`~repro.subgraphs.Pattern` (e.g. :func:`~repro.subgraphs.triangle`).
    privacy:
        ``"node"`` for node differential privacy, ``"edge"`` for edge.
    epsilon:
        Total privacy budget ``ε = ε1 + ε2``.
    rng:
        Seed or :class:`numpy.random.Generator` for reproducibility.
    params:
        Override the mechanism parameters.

    Returns
    -------
    MechanismResult
        ``result.answer`` is the ε-differentially private count;
        ``result.true_answer`` the exact count (diagnostic only).
    """
    session = PrivateSession(graph)
    return session.query(
        pattern, epsilon=epsilon, privacy=privacy, rng=rng, params=params
    )


__all__ = [
    "__version__",
    # expressions
    "Expr", "Var", "And", "Or", "TRUE", "FALSE", "parse", "minimal_dnf",
    # algebra
    "Tup", "KRelation", "BOOLEAN", "COUNTING", "PROVENANCE",
    "Table", "Select", "Project", "Join", "Union", "Rename", "evaluate_query",
    # core
    "SensitiveDatabase", "SensitiveKRelation",
    "LinearQuery", "CountQuery", "SumQuery", "WeightedQuery",
    "RecursiveMechanismParams", "theorem1_error_bound",
    "MechanismResult", "GeneralRecursiveMechanism", "EfficientRecursiveMechanism",
    "private_linear_query", "universal_empirical_sensitivity",
    # graphs
    "Graph", "erdos_renyi", "random_graph_with_avg_degree",
    "preferential_attachment", "watts_strogatz", "load_dataset",
    # subgraphs
    "Pattern", "triangle", "k_star", "k_triangle", "k_clique", "path_pattern",
    "subgraph_krelation", "private_subgraph_count",
    # serving sessions + registry
    "PrivateSession", "QueryFuture", "BudgetAccountant",
    "HierarchicalAccountant", "BudgetExhausted",
    "ResultBase",
    # misc
    "ensure_rng",
]
