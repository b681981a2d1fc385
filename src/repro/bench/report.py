"""One-shot Markdown report of the full evaluation.

``python -m repro report --scale 0.01 --out report.md`` regenerates every
table and figure of the paper at the chosen scale and writes a
self-contained Markdown document: Table 1, one section per figure with the
measured sweep table and the qualitative claim checklist, the section 6
parallel sweep, and the CSE ablation. EXPERIMENTS.md in this repository
was assembled from exactly these runs.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence

from ..api import Database, Strategy
from ..tpcd import QUERY_1, load_empdept, load_tpcd
from .figures import ALL_FIGURES, FigureReport, table1
from .harness import BenchResult


def _markdown_table(results: Sequence[BenchResult]) -> list[str]:
    lines = [
        "| strategy | time [s] | invocations | work | materialized | rows |",
        "|---|---:|---:|---:|---:|---:|",
    ]
    for result in results:
        if not result.applicable:
            lines.append(
                f"| {result.label} | n/a — {result.reason} | | | | |"
            )
            continue
        lines.append(
            f"| {result.label} | {result.seconds:.4f} "
            f"| {result.metrics.subquery_invocations} "
            f"| {result.work()} | {result.metrics.rows_materialized} "
            f"| {result.n_rows} |"
        )
    return lines


def _figure_section(report: FigureReport) -> list[str]:
    lines = [f"## {report.name} — {report.description}", ""]
    lines.extend(_markdown_table(report.results))
    lines.append("")
    for claim, ok in report.shape:
        lines.append(f"- {'✅' if ok else '❌'} {claim}")
    lines.append("")
    return lines


@functools.cache  # constants in, ~10 s of engine runs: once per process
def _parallel_section() -> tuple[str, ...]:
    from ..parallel import sweep_nodes

    catalog = load_empdept(n_depts=400, n_emps=8000, n_buildings=40)
    dept = list(catalog.table("dept").rows)
    emp = list(catalog.table("emp").rows)
    lines = [
        "## Section 6 — shared-nothing parallel simulation",
        "",
        "| nodes | NI fragments | NI messages | NI rows "
        "| Mag fragments | Mag messages | Mag rows |",
        "|---:|---:|---:|---:|---:|---:|---:|",
    ]
    for ni, mag in sweep_nodes(dept, emp):
        lines.append(
            f"| {ni.n_nodes} | {ni.fragments} | {ni.messages} "
            f"| {ni.rows_processed} | {mag.fragments} | {mag.messages} "
            f"| {mag.rows_processed} |"
        )
    lines.append("")
    return tuple(lines)


def _ablation_section(scale_factor: float) -> list[str]:
    db = Database(load_tpcd(scale_factor=scale_factor))
    recompute = db.execute(QUERY_1, strategy=Strategy.MAGIC,
                           cse_mode="recompute")
    materialize = db.execute(QUERY_1, strategy=Strategy.MAGIC,
                             cse_mode="materialize")
    return [
        "## Ablation — supplementary CSE: recompute vs materialise",
        "",
        "| cse_mode | work | boxes recomputed |",
        "|---|---:|---:|",
        f"| recompute (paper's Starburst) | {recompute.metrics.total_work()} "
        f"| {recompute.metrics.boxes_recomputed} |",
        f"| materialize | {materialize.metrics.total_work()} "
        f"| {materialize.metrics.boxes_recomputed} |",
        "",
    ]


def generate_report(
    scale_factor: float = 0.01,
    repeat: int = 1,
    figures: Optional[list[str]] = None,
    include_parallel: bool = True,
    include_ablation: bool = True,
) -> str:
    """The full evaluation as a Markdown document (returned as a string)."""
    lines = [
        "# Complex Query Decorrelation — regenerated evaluation",
        "",
        f"Scale factor {scale_factor} (the paper's database is 0.1).",
        "",
        "## Table 1 — TPC-D database",
        "",
        "| table | expected | generated |",
        "|---|---:|---:|",
    ]
    for name, (expected, actual) in table1(scale_factor).items():
        lines.append(f"| {name} | {expected} | {actual} |")
    lines.append("")
    for name, fn in ALL_FIGURES.items():
        if figures and name not in figures:
            continue
        report = fn(scale_factor=scale_factor, repeat=repeat)
        lines.extend(_figure_section(report))
    if include_parallel:
        lines.extend(_parallel_section())
    if include_ablation:
        lines.extend(_ablation_section(scale_factor))
    return "\n".join(lines)
