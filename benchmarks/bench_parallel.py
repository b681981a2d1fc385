"""Section 6: decorrelation in shared-nothing parallel databases.

The paper presents an execution-strategy analysis rather than measurements:
nested iteration broadcasts each correlation binding to every node (O(n^2)
computation fragments, per-tuple messages), while the magic-decorrelated
plan runs as n independent partition-parallel pipelines with batched
repartitioning. This benchmark counts those claims on the simulator.
"""

import pytest

from repro.parallel import (
    simulate_decorrelated,
    simulate_nested_iteration,
    sweep_nodes,
)
from repro.tpcd import load_empdept

from conftest import run_once

N_DEPTS = 400
N_EMPS = 8000


@pytest.fixture(scope="module")
def empdept_rows():
    catalog = load_empdept(n_depts=N_DEPTS, n_emps=N_EMPS, n_buildings=40)
    return list(catalog.table("dept").rows), list(catalog.table("emp").rows)


@pytest.mark.benchmark(group="parallel")
@pytest.mark.parametrize("n_nodes", [2, 4, 8, 16])
def test_bench_ni_parallel(benchmark, empdept_rows, n_nodes):
    dept, emp = empdept_rows
    metrics = run_once(
        benchmark, lambda: simulate_nested_iteration(dept, emp, n_nodes)
    )
    assert metrics.fragments == n_nodes * n_nodes


@pytest.mark.benchmark(group="parallel")
@pytest.mark.parametrize("n_nodes", [2, 4, 8, 16])
def test_bench_magic_parallel(benchmark, empdept_rows, n_nodes):
    dept, emp = empdept_rows
    metrics = run_once(
        benchmark, lambda: simulate_decorrelated(dept, emp, n_nodes)
    )
    assert metrics.fragments == n_nodes


def test_parallel_report(empdept_rows):
    dept, emp = empdept_rows
    print("\nSection 6: NI vs magic-decorrelated, shared-nothing simulator")
    print(
        f"{'nodes':>5} | {'NI frags':>9} {'NI msgs':>9} {'NI rows':>9} | "
        f"{'Mag frags':>9} {'Mag msgs':>9} {'Mag rows':>9}"
    )
    for ni, mag in sweep_nodes(dept, emp):
        n = ni.n_nodes
        assert ni.answer == mag.answer
        print(
            f"{n:>5} | {ni.fragments:>9} {ni.messages:>9} "
            f"{ni.rows_processed:>9} | {mag.fragments:>9} {mag.messages:>9} "
            f"{mag.rows_processed:>9}"
        )
        if n > 1:
            assert mag.messages < ni.messages
            assert mag.rows_processed < ni.rows_processed
