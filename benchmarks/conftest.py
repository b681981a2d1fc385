"""Shared benchmark configuration.

Scale factor comes from ``REPRO_BENCH_SF`` (default 0.01, i.e. one tenth of
the paper's database -- the paper's Table 1 corresponds to 0.1). Raising it
towards 0.1 reproduces the paper-scale database at the cost of much longer
nested-iteration runs.
"""

import os

import pytest

from repro import Database
from repro.tpcd import load_tpcd

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SF", "0.01"))


@pytest.fixture(scope="module")
def tpcd_db() -> Database:
    """A fresh TPC-D database per benchmark module."""
    return Database(load_tpcd(scale_factor=BENCH_SCALE))


def run_once(benchmark, fn):
    """Benchmark ``fn`` with a single measured round (strategies like NI on
    Figures 6/7 are deliberately slow; repeated rounds add no information
    for a deterministic in-memory engine)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)

