"""Synthetic stand-ins for the paper's real datasets (Fig. 6).

The paper evaluates triangle counting on seven graphs from the UF sparse
matrix collection.  Those files cannot be downloaded in this offline
environment, so each dataset name maps to a deterministic synthetic graph
with the **same |V| and |E|** as Fig. 6 and a generator chosen to roughly
match the original's triangle density:

* collaboration networks (``netscience``, ``ca-GrQc``, ``ca-HepTh``) —
  preferential attachment with strong triadic closure (heavy-tailed,
  triangle-rich);
* power grids / circuits (``power``, ``1138_bus``, ``bcspwr10``,
  ``gemat12``) — G(n, m) uniform wiring (sparse, few triangles).

The substitution is documented in the README section "Deviations from the
paper"; ``repro datasets`` and the Fig. 6 bench print the paper's triangle
counts next to the stand-ins' so the scale difference is explicit.  The mechanisms only consume the graph structure, so the code
path exercised is identical to the original experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import DatasetError
from .generators import gnm_random_graph, preferential_attachment
from .graph import Graph

__all__ = ["DatasetSpec", "DATASETS", "load_dataset"]


@dataclass(frozen=True)
class DatasetSpec:
    """One Fig. 6 dataset: paper statistics plus the stand-in recipe."""

    name: str
    num_nodes: int
    num_edges: int
    paper_triangles: int
    family: str  # "collaboration" | "grid"
    seed: int

    def generate(self, scale: float = 1.0) -> Graph:
        """Build the stand-in graph, optionally scaled down.

        ``scale < 1`` shrinks |V| and |E| proportionally — used by the
        reduced-scale benchmark presets; ``scale = 1`` reproduces the
        paper's sizes.
        """
        if not 0 < scale <= 1:
            raise DatasetError(f"scale must be in (0, 1], got {scale}")
        n = max(10, int(round(self.num_nodes * scale)))
        m = max(9, int(round(self.num_edges * scale)))
        if self.family == "collaboration":
            per_node = max(1, round(m / n))
            graph = preferential_attachment(
                n, per_node, rng=self.seed, closure_probability=0.7
            )
        elif self.family == "grid":
            graph = gnm_random_graph(n, min(m, n * (n - 1) // 2), rng=self.seed)
        else:
            raise DatasetError(f"unknown dataset family {self.family!r}")
        return graph


#: Fig. 6 of the paper: |V|, |E| and the true triangle count per dataset.
DATASETS: Dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in (
        DatasetSpec("netscience", 1589, 2742, 3764, "collaboration", seed=101),
        DatasetSpec("power", 4941, 6594, 651, "grid", seed=102),
        DatasetSpec("1138_bus", 1138, 2596, 128, "grid", seed=103),
        DatasetSpec("bcspwr10", 5300, 13571, 721, "grid", seed=104),
        DatasetSpec("gemat12", 4929, 33111, 592, "grid", seed=105),
        DatasetSpec("ca-GrQc", 5242, 14496, 48260, "collaboration", seed=106),
        DatasetSpec("ca-HepTh", 9877, 25998, 28339, "collaboration", seed=107),
    )
}


def load_dataset(name: str, scale: float = 1.0) -> Graph:
    """Generate the synthetic stand-in for dataset ``name``.

    Deterministic per (name, scale): the spec carries a fixed seed.
    """
    if name not in DATASETS:
        raise DatasetError(f"unknown dataset {name!r}; available: {sorted(DATASETS)}")
    return DATASETS[name].generate(scale)
