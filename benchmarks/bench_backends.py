"""Cross-backend solver benchmark: the fig5 sweep per backend.

Once per registered-and-available solver backend
(:mod:`repro.lp.backends`), the Fig. 5 runtime sweep runs under
``REPRO_LP_BACKEND=<name>``, so the numbers reflect exactly what a user
selecting that backend gets, including the released answers (recorded to
pin cross-backend determinism in the artifact).

Emits ``BENCH_backends.json`` (path from ``$REPRO_BENCH_BACKENDS_OUT``,
default ``benchmarks/results/``) for CI to archive next to
``BENCH_ci.json``.
"""

import json
import os
import time
from pathlib import Path

from repro.experiments import format_table
from repro.experiments.runtime import fig5_runtime_sweep
from repro.lp import backends as lp_backends


def _fig5_under_backend(name, scale):
    """Run the fig5 sweep with ``name`` as the process-default backend."""
    previous = os.environ.get(lp_backends.BACKEND_ENV)
    os.environ[lp_backends.BACKEND_ENV] = name
    try:
        start = time.perf_counter()
        result = fig5_runtime_sweep(scale=scale, rng=2024, workers=1)
        wall = time.perf_counter() - start
    finally:
        if previous is None:
            os.environ.pop(lp_backends.BACKEND_ENV, None)
        else:
            os.environ[lp_backends.BACKEND_ENV] = previous
    return {
        "wall_seconds": wall,
        "combo_seconds": {
            combo: sum(row["mechanism_seconds"] for row in rows)
            for combo, rows in result.items()
        },
        "answers": {
            combo: [row["answer"] for row in rows] for combo, rows in result.items()
        },
    }


def test_backend_matrix(scale, record_figure, results_dir):
    names = lp_backends.available()
    assert names, "at least the scipy backend must be available"

    sweeps = {name: _fig5_under_backend(name, scale) for name in names}

    # cross-backend determinism: every backend released the same answers
    reference = sweeps[names[0]]["answers"]
    for name in names[1:]:
        assert sweeps[name]["answers"] == reference, (
            f"released answers under {name} diverge from {names[0]}"
        )

    rows = [
        {"backend": name, "fig5_wall_seconds": sweeps[name]["wall_seconds"]}
        for name in names
    ]
    record_figure(
        "backend_matrix",
        format_table(
            rows,
            ["backend", "fig5_wall_seconds"],
            title=f"Solver backends: fig5 sweep (scale={scale.name})",
        ),
    )

    out_path = Path(
        os.environ.get("REPRO_BENCH_BACKENDS_OUT", results_dir / "BENCH_backends.json")
    )
    out_path.write_text(json.dumps({
        "scale": scale.name,
        "backends": names,
        "default_backend": lp_backends.default_backend().name,
        "fig5": {
            name: {k: v for k, v in sweeps[name].items() if k != "answers"}
            for name in names
        },
        "answers_identical_across_backends": True,
    }, indent=2, sort_keys=True) + "\n")
    print(f"[backend bench written to {out_path}]")
