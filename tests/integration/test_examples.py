"""Smoke tests: every example script runs to completion."""

import pathlib
import subprocess
import sys


EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "subquery invocations: 0" in out
    assert "Magic decorrelation" in out


def test_count_bug():
    out = run_example("count_bug.py")
    assert "WRONG (COUNT bug!)" in out
    assert out.count("CORRECT") >= 2


def test_parallel_cluster():
    # The example asserts the section-6 fragment counts itself.
    out = run_example("parallel_cluster.py")
    assert "row work" in out
    assert "   16 | nested_iteration         256" in out
    assert "makespan" not in out


def test_tpcd_decorrelation_small_scale():
    out = run_example("tpcd_decorrelation.py", "0.003")
    assert "Table 1" in out
    assert "Figure 9" in out
    assert "not applicable" in out


def test_rewrite_walkthrough():
    out = run_example("rewrite_walkthrough.py")
    assert "INITIAL QGM" in out
    assert "graph validated" in out
    assert "CREATE VIEW" in out
