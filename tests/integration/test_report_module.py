"""Direct tests for the Markdown report generator."""

import pytest

from repro.bench.report import generate_report


@pytest.fixture(scope="module")
def report_text() -> str:
    return generate_report(
        scale_factor=0.003, figures=["figure9"],
        include_parallel=True, include_ablation=True,
    )


def test_structure(report_text):
    for heading in (
        "# Complex Query Decorrelation",
        "## Table 1",
        "## Figure 9",
        "## Section 6",
        "## Ablation",
    ):
        assert heading in report_text


def test_inapplicable_rows_preserved(report_text):
    assert "n/a — query is not linear" in report_text


def test_claims_rendered_with_verdicts(report_text):
    assert "✅" in report_text


def test_parallel_speedup_column(report_text):
    # Section 6 is argued in counts: row work, never an estimated time.
    section = report_text.split("## Section 6")[1].split("## Ablation")[0]
    assert "| NI rows |" in section and "| Mag rows |" in section
    assert "makespan" not in section and "speedup" not in section
    # 400 x 8 000: NI scans every EMP row once per qualifying department.
    first_row = section.split("\n|---")[1].split("\n")[1]
    assert first_row.startswith("| 1 | 1 | 0 | 1544400 |")


def test_ablation_shows_both_modes(report_text):
    section = report_text.split("## Ablation")[1]
    assert "recompute (paper's Starburst)" in section
    assert "materialize" in section


def test_figure_filter_respected(report_text):
    assert "## Figure 5" not in report_text
    assert "## Figure 6" not in report_text
