"""Fig. 6: dataset statistics and recursive-mechanism runtimes.

The stand-in graphs shrink with the scale preset; the paper columns
(paper_V / paper_E / paper_triangles) are printed alongside, as the README
section "Deviations from the paper" describes.
"""

from repro.experiments import format_table
from repro.experiments.real_graphs import fig6_dataset_table


def test_fig6(benchmark, scale, record_figure):
    rows = benchmark.pedantic(
        lambda: fig6_dataset_table(scale=scale, rng=2024), rounds=1, iterations=1
    )
    text = format_table(
        rows,
        [
            "dataset",
            "V",
            "E",
            "triangles",
            "node_seconds",
            "edge_seconds",
            "paper_V",
            "paper_E",
            "paper_triangles",
        ],
        title=f"Fig 6 — dataset stand-ins and mechanism runtimes (scale={scale.name})",
    )
    record_figure("fig6_real_graphs", text)

    by_name = {row["dataset"]: row for row in rows}
    # collaboration networks must be far more triangle-rich than power grids
    assert by_name["ca-GrQc"]["triangles"] > 5 * by_name["power"]["triangles"]
