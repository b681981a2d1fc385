"""Benchmark harness: strategy sweeps and figure regeneration."""

from .harness import (
    BenchResult,
    print_results,
    render_bars,
    run_strategies,
    warm,
)
from .figures import (
    FigureReport,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    table1,
)
from .calibration import render_calibration, run_calibration

__all__ = [
    "BenchResult",
    "render_bars",
    "run_strategies",
    "print_results",
    "warm",
    "FigureReport",
    "table1",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "render_calibration",
    "run_calibration",
]
