"""Measured-vs-simulated check of the section-6 parallel claim."""

import pytest

from repro.bench.calibration import (
    COUNTS,
    MEASURED_RUNS,
    calibration_ok,
    render_calibration,
    run_calibration,
    simulated_report,
)
from repro.tpcd import load_empdept


@pytest.fixture(scope="module")
def data():
    catalog = load_empdept(n_depts=12, n_emps=60, n_buildings=5, seed=7)
    return list(catalog.table("dept").rows), list(catalog.table("emp").rows)


@pytest.fixture(scope="module")
def report(data):
    dept_rows, emp_rows = data
    return run_calibration(
        dept_rows, emp_rows, n_workers=2,
        heartbeat_interval=0.02, heartbeat_timeout=0.5,
    )


class TestRunCalibration:
    def test_fault_free_run_is_exact_and_recorded(self, report):
        assert report["answers_agree"]
        # Every count is exact in every run: one plan, one fragment
        # interpreter, whichever back-end runs them.
        assert report["exact"] == {
            "messages": True, "fragments": True,
            "rows_processed": True, "tasks": True,
        }
        assert calibration_ok(report)
        for strategy in ("ni", "decorrelated"):
            sim, real = report["simulated"][strategy], report["measured"][strategy]
            for count in COUNTS:
                assert real[count] == sim[count] > 0
            # Wall-clock is measured, never simulated: a median of the runs.
            assert real["makespan"] > 0
            assert "makespan" not in sim
            assert (real["retries"], real["workers_lost"]) == (0, 0)
            assert not real["degraded"]
        assert report["measured"]["runs"] == MEASURED_RUNS == 5
        # NI must pay more traffic than the decorrelated plan on both
        # sides -- the paper's section-6 claim, simulated and measured.
        assert (report["measured"]["ni"]["messages"]
                > report["measured"]["decorrelated"]["messages"])
        assert (report["simulated"]["ni"]["messages"]
                > report["simulated"]["decorrelated"]["messages"])

    def test_render_is_human_readable(self, report):
        text = render_calibration(report)
        for count in COUNTS:
            assert f"{count} exact: True" in text
        assert "answers agree: True" in text
        assert "ni makespan [s]" in text

    def test_gate_reads_every_count(self, report):
        for count in COUNTS:
            broken = {**report, "exact": {**report["exact"], count: False}}
            assert not calibration_ok(broken)
            # With faults injected the counts are reported, not gated.
            assert calibration_ok({**broken, "faulty": True})
        assert not calibration_ok({**report, "answers_agree": False})

    def test_simulated_report_is_the_simulated_half(self, data, report):
        sim = simulated_report(*data, n_workers=2)
        assert sim["simulated"] == report["simulated"]
        assert sim["answers_agree"]
        assert "measured" not in sim and "exact" not in sim
