"""Fig. 5: running time of the recursive mechanism vs graph size.

Paper shape: 2-star counting grows with |V| (the number of 2-stars is
~|V|·C(avgdeg,2)); triangle/2-triangle runtimes track the (roughly
constant-in-|V|) match counts for fixed average degree.

Set ``$REPRO_WORKERS`` to shard the sweep grid across a process pool;
unset (or ``REPRO_WORKERS=1``) runs the same seeded grid in-process, with
the same answers.
"""

import os

from repro.experiments import format_table
from repro.experiments.runtime import fig5_runtime_sweep


def _workers_from_env():
    env = os.environ.get("REPRO_WORKERS")
    return int(env) if env else 1


def test_fig5(benchmark, scale, record_figure):
    workers = _workers_from_env()
    result = benchmark.pedantic(
        lambda: fig5_runtime_sweep(scale=scale, rng=2024, workers=workers),
        rounds=1,
        iterations=1,
    )
    sections = []
    for combo, rows in result.items():
        sections.append(
            format_table(
                rows,
                [
                    "nodes",
                    "tuples",
                    "lp_size",
                    "build_seconds",
                    "encode_seconds",
                    "delta_seconds",
                    "release_seconds",
                    "h_profile_seconds",
                    "mechanism_seconds",
                ],
                title=f"Fig 5 — {combo}: recursive mechanism timing "
                f"(avgdeg=10, scale={scale.name})",
            )
        )
    record_figure("fig5_runtime", "\n\n".join(sections))

    for combo, rows in result.items():
        assert all(row["mechanism_seconds"] > 0 for row in rows), combo
