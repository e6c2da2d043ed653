"""Fig. 6 / Fig. 7: triangle counting on the real-dataset stand-ins.

Fig. 6 tabulates ``|V|``, ``|E|``, the triangle count and the recursive
mechanism's running time (node and edge privacy) per dataset; Fig. 7
compares the median relative error of the four mechanisms for triangle
counting on the same graphs.  The graphs are synthetic stand-ins with the
paper's |V|/|E| (see :mod:`repro.graphs.datasets` and the README section
"Deviations from the paper");
``scale.dataset_scale`` shrinks them for laptop-fast benchmark runs.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from ..core.efficient import EfficientRecursiveMechanism
from ..core.params import RecursiveMechanismParams
from ..graphs.datasets import DATASETS, load_dataset
from ..rng import RngLike, ensure_rng
from ..subgraphs.annotate import subgraph_krelation
from ..subgraphs.counting import count_triangles
from ..subgraphs.patterns import triangle
from .harness import Scale, resolve_scale, run_mechanism_trials
from .mechanisms import MECHANISM_NAMES, make_runner

__all__ = ["fig6_dataset_table", "fig7_accuracy_table", "DEFAULT_DATASETS"]

DEFAULT_DATASETS = tuple(DATASETS)


def fig6_dataset_table(
    datasets: Sequence[str] = DEFAULT_DATASETS,
    epsilon: float = 0.5,
    scale: Optional[Scale] = None,
    rng: RngLike = 0,
) -> List[Dict[str, object]]:
    """Fig. 6: per-dataset sizes, triangle counts and mechanism runtimes."""
    scale = scale or resolve_scale()
    generator = ensure_rng(rng)
    rows: List[Dict[str, object]] = []
    for name in datasets:
        spec = DATASETS[name]
        graph = load_dataset(name, scale=scale.dataset_scale)
        triangles = count_triangles(graph)
        row: Dict[str, object] = {
            "dataset": name,
            "V": graph.num_nodes,
            "E": graph.num_edges,
            "triangles": triangles,
            "paper_V": spec.num_nodes,
            "paper_E": spec.num_edges,
            "paper_triangles": spec.paper_triangles,
        }
        for privacy in ("node", "edge"):
            relation = subgraph_krelation(graph, triangle(), privacy=privacy)
            params = RecursiveMechanismParams.paper(
                epsilon, node_privacy=(privacy == "node")
            )
            start = time.perf_counter()
            mechanism = EfficientRecursiveMechanism(relation)
            mechanism.run(params, generator)
            row[f"{privacy}_seconds"] = time.perf_counter() - start
        rows.append(row)
    return rows


def fig7_accuracy_table(
    datasets: Sequence[str] = DEFAULT_DATASETS,
    mechanisms: Sequence[str] = MECHANISM_NAMES,
    epsilon: float = 0.5,
    scale: Optional[Scale] = None,
    rng: RngLike = 0,
) -> List[Dict[str, object]]:
    """Fig. 7: median relative error of each mechanism per dataset."""
    scale = scale or resolve_scale()
    generator = ensure_rng(rng)
    rows: List[Dict[str, object]] = []
    for name in datasets:
        graph = load_dataset(name, scale=scale.dataset_scale)
        row: Dict[str, object] = {"dataset": name}
        for mechanism in mechanisms:
            run_once, truth = make_runner(mechanism, graph, "triangle", epsilon)
            row[mechanism] = run_mechanism_trials(
                run_once, truth, scale.trials, generator
            )
        rows.append(row)
    return rows
