"""Semantic-analyzer diagnostics: every SEM/SYN code, positive and negative.

``POSITIVE`` maps each code to SQL that must trigger it; ``NEGATIVE`` maps
each code to a near-miss that must NOT trigger it. A registry-coverage test
enforces that every syntax/semantic code in ``CODES`` appears in both maps,
so adding a code without tests fails the suite.
"""

import pytest

from repro.analyze import CODES, Severity, analyze_sql

POSITIVE = {
    "SYN001": "SELECT @ FROM dept",
    "SYN002": "SELECT FROM WHERE",
    "SEM001": "SELECT x FROM nosuch",
    "SEM002": "SELECT d.nme FROM dept d",
    "SEM003": "SELECT name FROM dept d, emp e",
    "SEM004": "SELECT q.name FROM dept d",
    "SEM005": "SELECT 1 FROM dept d, emp d",
    "SEM006": "SELECT d.name FROM dept d WHERE count(*) > 2",
    "SEM007": "SELECT sum(count(*)) FROM emp e",
    "SEM008": "SELECT d.name FROM dept d HAVING d.budget > 1",
    "SEM009": ("SELECT d.name FROM dept d WHERE d.building IN "
               "(SELECT e.building, e.salary FROM emp e)"),
    "SEM010": "SELECT *",
    "SEM011": "SELECT d.name, count(*) FROM dept d",
    "SEM012": "SELECT d.name FROM dept d UNION SELECT e.name, e.salary FROM emp e",
    "SEM013": "SELECT d.name FROM dept d ORDER BY 3",
    # A binder rule the semantic pass does not model: expression ORDER BY
    # over an aggregated query.
    "SEM099": ("SELECT d.building, count(*) FROM dept d "
               "GROUP BY d.building ORDER BY d.budget"),
    "SEM101": ("SELECT d.name FROM dept d WHERE d.num_emps > "
               "(SELECT count(*) FROM emp e WHERE e.building = d.building)"),
}

NEGATIVE = {
    "SYN001": "SELECT 1",
    "SYN002": "SELECT 1",
    "SEM001": "SELECT d.name FROM dept d",
    "SEM002": "SELECT d.name FROM dept d",
    "SEM003": "SELECT d.name FROM dept d, emp e",
    "SEM004": "SELECT d.name FROM dept d",
    "SEM005": "SELECT 1 FROM dept d, emp e",
    "SEM006": ("SELECT d.building FROM dept d GROUP BY d.building "
               "HAVING count(*) > 1"),
    "SEM007": "SELECT sum(e.salary) FROM emp e",
    "SEM008": "SELECT d.name FROM dept d GROUP BY d.name HAVING count(*) > 0",
    "SEM009": ("SELECT d.name FROM dept d WHERE d.building IN "
               "(SELECT e.building FROM emp e)"),
    "SEM010": "SELECT * FROM dept",
    "SEM011": ("SELECT d.building, count(*) FROM dept d "
               "GROUP BY d.building"),
    "SEM012": "SELECT d.name FROM dept d UNION SELECT e.name FROM emp e",
    "SEM013": "SELECT d.name FROM dept d ORDER BY 1",
    "SEM099": ("SELECT d.building, count(*) FROM dept d "
               "GROUP BY d.building ORDER BY 2"),
    "SEM101": ("SELECT d.name FROM dept d WHERE d.num_emps > "
               "(SELECT count(*) FROM emp e)"),
}


def _codes(catalog, sql):
    return {d.code for d in analyze_sql(sql, catalog).diagnostics}


@pytest.mark.parametrize("code", sorted(POSITIVE))
def test_code_fires(empdept_catalog, code):
    assert code in _codes(empdept_catalog, POSITIVE[code])


@pytest.mark.parametrize("code", sorted(NEGATIVE))
def test_code_does_not_fire_on_near_miss(empdept_catalog, code):
    assert code not in _codes(empdept_catalog, NEGATIVE[code])


def test_every_sem_and_syn_code_is_covered():
    sem_syn = {c for c in CODES if c.startswith(("SEM", "SYN"))}
    assert sem_syn == set(POSITIVE) == set(NEGATIVE)


def test_multiple_diagnostics_per_query(empdept_catalog):
    """The analyzer reports every problem, not just the first BindError."""
    report = analyze_sql(
        "SELECT d.nme, q.x FROM dept d WHERE d.budgt > 1", empdept_catalog
    )
    codes = sorted(d.code for d in report.errors)
    assert codes == ["SEM002", "SEM002", "SEM004"]


def test_unknown_table_does_not_cascade(empdept_catalog):
    """An unknown FROM relation becomes a wildcard: its columns resolve."""
    report = analyze_sql(
        "SELECT n.anything FROM nosuch n WHERE n.other > 1", empdept_catalog
    )
    assert [d.code for d in report.errors] == ["SEM001"]


def test_spans_point_at_the_offending_token(empdept_catalog):
    report = analyze_sql("SELECT d.nme FROM dept d", empdept_catalog)
    (diag,) = report.errors
    assert diag.span is not None
    assert (diag.span.line, diag.span.column) == (1, 8)
    assert diag.span.start == 7 and diag.span.end == 12


def test_hints_suggest_close_names(empdept_catalog):
    report = analyze_sql("SELECT d.nme FROM dept d", empdept_catalog)
    assert report.errors[0].hint == "did you mean 'name'?"
    report = analyze_sql("SELECT 1 FROM dpet", empdept_catalog)
    assert report.errors[0].hint == "did you mean 'dept'?"


def test_correlation_depth_is_counted(empdept_catalog):
    """A reference crossing two block levels reports depth 2."""
    sql = (
        "SELECT d.name FROM dept d WHERE EXISTS "
        "(SELECT e.name FROM emp e WHERE e.salary > "
        "(SELECT avg(e2.salary) FROM emp e2 WHERE e2.building = d.building))"
    )
    report = analyze_sql(sql, empdept_catalog)
    depths = [d.message for d in report.diagnostics if d.code == "SEM101"]
    assert any("2 query block level" in m for m in depths)


def test_correlated_derived_table_counts_as_correlation(empdept_catalog):
    """The paper's Query 3 shape: a sibling-correlated table expression."""
    sql = (
        "SELECT d.name, t.avg_sal FROM dept d, T(avg_sal) AS "
        "(SELECT avg(e.salary) FROM emp e WHERE e.building = d.building)"
    )
    report = analyze_sql(sql, empdept_catalog)
    assert report.ok
    assert report.has("SEM101")


def test_views_resolve_without_repeating_their_diagnostics(empdept_catalog):
    empdept_catalog.create_view(
        "big_depts", "SELECT d.name, d.budget FROM dept d WHERE d.budget > 1000"
    )
    report = analyze_sql("SELECT b.name FROM big_depts b", empdept_catalog)
    assert report.ok and not report.has("SEM101")
    report = analyze_sql("SELECT b.nosuch FROM big_depts b", empdept_catalog)
    assert [d.code for d in report.errors] == ["SEM002"]


def test_insert_into_unknown_table(empdept_catalog):
    report = analyze_sql("INSERT INTO nosuch VALUES (1)", empdept_catalog)
    assert report.has("SEM001")


def test_severities(empdept_catalog):
    report = analyze_sql(POSITIVE["SEM101"], empdept_catalog)
    by_code = {d.code: d.severity for d in report.diagnostics}
    assert by_code["SEM101"] is Severity.INFO
    assert by_code["QGM002"] is Severity.WARNING
