#!/usr/bin/env python3
"""One-command reproduction of the paper's evaluation section.

Regenerates every figure (1, 5-11) and table (IV-VII) of the paper,
prints the series with ASCII plots, and writes text reports to
``reproduction_output/``.  The same experiments run under
pytest-benchmark in ``benchmarks/`` (with directional assertions);
this script is the interactive front-end.

Run:
    python examples/paper_reproduction.py            # paper scale (500 jobs/point)
    python examples/paper_reproduction.py --jobs 100  # quick pass
"""

import argparse
import time
from pathlib import Path

from repro.experiments import figures
from repro.experiments.ascii_plot import ascii_plot
from repro.experiments.tables import (
    PAPER_TABLE_IV,
    PAPER_TABLE_V,
    PAPER_TABLE_VI,
    PAPER_TABLE_VII,
    improvement_table,
)
from repro.metrics.report import format_comparison_table, format_metrics_table


def render_sweep(sweep, title):
    parts = [f"== {title} =="]
    parts.append(
        format_metrics_table(
            sweep.sweep_label, sweep.sweep_values, sweep.rows(),
            metrics=("utilization", "mean_wait"),
        )
    )
    for metric in ("utilization", "mean_wait"):
        series = {name: sweep.metric_series(name, metric) for name in sweep.series}
        parts.append(
            ascii_plot(sweep.sweep_values, series, title=f"{metric} vs {sweep.sweep_label}", height=10)
        )
    return "\n\n".join(parts)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=500, help="jobs per plotted point")
    parser.add_argument(
        "--output", type=str, default="reproduction_output", help="report directory"
    )
    args = parser.parse_args()
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    n = args.jobs
    started = time.perf_counter()

    reports: dict[str, str] = {}

    print("Figure 1 (SDSC validation) ...")
    reports["fig1"] = render_sweep(figures.figure1(n_jobs=n), "Figure 1: EASY vs LOS (SDSC-like)")

    print("Figures 5-6 (C_s sweeps) ...")
    reports["fig5"] = render_sweep(figures.figure5(n_jobs=n), "Figure 5: C_s sweep, P_S=0.5")
    reports["fig6"] = render_sweep(figures.figure6(n_jobs=n), "Figure 6: C_s sweep, P_S=0.8")

    print("Figures 7-8 (batch load sweeps) ...")
    fig7 = figures.figure7(n_jobs=n)
    reports["fig7"] = render_sweep(fig7, "Figure 7: Load sweep, P_S=0.2")
    for label, sweep in figures.figure8(n_jobs=n).items():
        reports[f"fig8_{label}"] = render_sweep(sweep, f"Figure 8: Load sweep, {label}")

    print("Figures 9-10 (heterogeneous) ...")
    fig9 = figures.figure9(n_jobs=n)
    reports["fig9"] = render_sweep(fig9, "Figure 9: heterogeneous, P_D=0.5, P_S=0.2")
    reports["fig10"] = render_sweep(
        figures.figure10(n_jobs=n), "Figure 10: heterogeneous, P_D=0.9, P_S=0.5"
    )

    print("Figure 11 (elastic) ...")
    fig11 = figures.figure11(n_jobs=n)
    reports["fig11_batch"] = render_sweep(fig11["batch"], "Figure 11 (batch, elastic)")
    reports["fig11_hetero"] = render_sweep(
        fig11["heterogeneous"], "Figure 11 (heterogeneous, elastic)"
    )

    print("Tables IV-VII ...")
    tables = [
        ("table4", improvement_table(fig7, "Delayed-LOS", ["LOS", "EASY"]), PAPER_TABLE_IV,
         "Table IV: Delayed-LOS over LOS/EASY"),
        ("table5", improvement_table(fig9, "Hybrid-LOS", ["LOS-D", "EASY-D"]), PAPER_TABLE_V,
         "Table V: Hybrid-LOS over LOS-D/EASY-D"),
        ("table6", improvement_table(fig11["batch"], "Delayed-LOS-E", ["LOS-E", "EASY-E"]),
         PAPER_TABLE_VI, "Table VI: Delayed-LOS-E over LOS-E/EASY-E"),
        ("table7", improvement_table(fig11["heterogeneous"], "Hybrid-LOS-E", ["LOS-DE", "EASY-DE"]),
         PAPER_TABLE_VII, "Table VII: Hybrid-LOS-E over LOS-DE/EASY-DE"),
    ]
    for key, measured, paper, title in tables:
        reports[key] = (
            format_comparison_table(f"{title} — measured", measured)
            + "\n\n"
            + format_comparison_table(f"{title} — paper", dict(paper))
        )

    for key, text in reports.items():
        (out / f"{key}.txt").write_text(text + "\n", encoding="utf-8")
        print(f"\n{text}")

    elapsed = time.perf_counter() - started
    print(
        f"\nReproduced 9 figures + 4 tables at {n} jobs/point in {elapsed:.1f}s; "
        f"reports in {out}/"
    )


if __name__ == "__main__":
    main()
