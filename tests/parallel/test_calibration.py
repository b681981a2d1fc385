"""Measured-vs-simulated calibration of the section-6 parallel claim."""

import math

import pytest

from repro.bench.calibration import (
    MEASURED_RUNS,
    qerror,
    render_calibration,
    run_calibration,
)
from repro.tpcd import load_empdept


@pytest.fixture(scope="module")
def data():
    catalog = load_empdept(n_depts=12, n_emps=60, n_buildings=5, seed=7)
    return list(catalog.table("dept").rows), list(catalog.table("emp").rows)


class TestQError:
    def test_perfect_prediction_is_one(self):
        assert qerror(3.0, 3.0) == 1.0
        assert qerror(0.0, 0.0) == 1.0

    def test_symmetric(self):
        assert qerror(2.0, 8.0) == qerror(8.0, 2.0) == 4.0

    def test_zero_against_nonzero_is_infinite(self):
        assert math.isinf(qerror(0.0, 5.0))
        assert math.isinf(qerror(5.0, 0.0))


class TestRunCalibration:
    def test_fault_free_run_is_exact_and_recorded(self, data):
        dept_rows, emp_rows = data
        report = run_calibration(
            dept_rows, emp_rows, n_workers=2,
            heartbeat_interval=0.02, heartbeat_timeout=0.5,
        )
        assert report["answers_agree"]
        assert report["calibration"]["messages_exact"]
        assert report["calibration"]["ni_message_qerror"] == 1.0
        assert report["calibration"]["decorrelated_message_qerror"] == 1.0
        # Row work and task counts are exact too: one plan, one fragment
        # interpreter, whichever back-end runs them.
        assert report["calibration"]["rows_exact"]
        for strategy in ("ni", "decorrelated"):
            sim, real = report["simulated"][strategy], report["measured"][strategy]
            assert real["rows_processed"] == sim["rows_processed"] > 0
            assert real["tasks"] == sim["tasks"] > 0
            # Wall-clock is a median with quartiles, never one draw.
            q1, q3 = real["makespan_quartiles"]
            assert 0 < q1 <= real["makespan"] <= q3
        assert report["measured"]["runs"] == MEASURED_RUNS == 5
        q1, q3 = report["measured"]["advantage_quartiles"]
        assert q1 <= report["measured"]["advantage"] <= q3
        q1, q3 = report["calibration"]["advantage_qerror_quartiles"]
        assert 1.0 <= q1 <= report["calibration"]["advantage_qerror"] <= q3
        # NI must pay more traffic than the decorrelated plan on both
        # sides -- the paper's section-6 claim, simulated and measured.
        assert (report["measured"]["ni"]["messages"]
                > report["measured"]["decorrelated"]["messages"])
        assert (report["simulated"]["ni"]["messages"]
                > report["simulated"]["decorrelated"]["messages"])

    def test_render_is_human_readable(self, data):
        dept_rows, emp_rows = data
        report = run_calibration(
            dept_rows, emp_rows, n_workers=2,
            heartbeat_interval=0.02, heartbeat_timeout=0.5,
        )
        text = render_calibration(report)
        assert "messages exact: True" in text
        assert "rows exact: True" in text
        assert "answers agree: True" in text
        assert "NI/decorr ratio" in text
