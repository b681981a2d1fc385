"""One binder: the run path raises what the analyzer reports.

``repro.qgm.builder`` is the only code that binds SQL names. ``build_qgm``
raises the first rule a statement breaks; ``analyze_sql`` reports every
one, recorded through the same funnel, so a SEM code arrives with the same
message, span and hint on both paths.
"""

import ast as pyast
from pathlib import Path

import pytest

import repro.qgm
from repro import Database
from repro.analyze import analyze_sql
from repro.errors import BindError, CatalogError
from repro.qgm.builder import bind_collecting
from repro.sql import parse_statement

from .test_semantic import POSITIVE

SEM_ERRORS = sorted(c for c in POSITIVE if c.startswith("SEM") and c != "SEM101")


def _raised(catalog, sql, run=Database.execute):
    with pytest.raises((BindError, CatalogError)) as info:
        run(Database(catalog), sql)
    exc = info.value
    return exc.code or "SEM099", exc.message, exc.span, exc.hint


def _reported(catalog, sql):
    first = analyze_sql(sql, catalog).errors[0]
    return first.code, first.message, first.span, first.hint


@pytest.mark.parametrize("code", SEM_ERRORS)
def test_the_run_path_raises_what_the_report_says(empdept_catalog, code):
    reported = _reported(empdept_catalog, POSITIVE[code])
    assert reported[0] == code
    assert _raised(empdept_catalog, POSITIVE[code]) == reported


@pytest.mark.parametrize("sql, message, hint", [
    ("SELECT d.name FROM dept d ORDER BY d.nosuch",
     "column 'nosuch' not found in 'd'", None),
    ("SELECT d.name FROM dept d ORDER BY d.budgt",
     "column 'budgt' not found in 'd'", "did you mean 'budget'?"),
])
def test_an_unknown_order_by_column_is_sem002(empdept_catalog, sql, message, hint):
    code, got, span, got_hint = _reported(empdept_catalog, sql)
    assert (code, got, got_hint) == ("SEM002", message, hint)
    assert (span.line, span.column) == (1, 36)
    assert _raised(empdept_catalog, sql) == (code, got, span, got_hint)


@pytest.mark.parametrize("sql, codes", [
    ("INSERT INTO emp SELECT e.empno, e.nme, e.building, e.salary FROM emp e",
     ["SEM002"]),
    ("INSERT INTO nosuch SELECT e.name FROM emp e", ["SEM001"]),
    ("INSERT INTO nosuch VALUES (1)", ["SEM001"]),
    ("CREATE VIEW v AS SELECT d.name, count(*) FROM dept d", ["SEM011"]),
    ("CREATE VIEW v AS SELECT d.name FROM dept d WHERE d.building IN "
     "(SELECT e.building, e.name FROM emp e)", ["SEM009"]),
])
def test_statements_around_a_query_bind_it_the_same_way(empdept_catalog, sql, codes):
    assert [d.code for d in analyze_sql(sql, empdept_catalog).errors] == codes
    run = Database.execute_script
    assert _raised(empdept_catalog, sql, run) == _reported(empdept_catalog, sql)


@pytest.mark.parametrize("sql, codes", [
    # Wildcards: what reads an unknown table binds without further errors.
    ("SELECT t.x FROM (SELECT * FROM nosuch) t WHERE t.y > 1", ["SEM001"]),
    ("SELECT n.x, d.name FROM dept d LEFT OUTER JOIN nosuch n ON n.y = d.name",
     ["SEM001"]),
    ("SELECT * FROM nosuch UNION SELECT y, z FROM nosuch", ["SEM001", "SEM001"]),
    # A failed grouping expression does not make every column ungrouped.
    ("SELECT d.name FROM dept d GROUP BY count(*)", ["SEM006"]),
    # A derived table's alias list names its columns even when too long.
    ("SELECT t.a FROM (SELECT e.name FROM emp e) AS t(a, b)", ["SEM012"]),
    ("SELECT nosuch, d.x, sum(count(*)) FROM dept d, emp d WHERE count(*) > 1 "
     "GROUP BY max(d.budget) ORDER BY 9",
     ["SEM002", "SEM002", "SEM007", "SEM005", "SEM006", "SEM006", "SEM013"]),
])
def test_the_collecting_binder_reports_each_violation_once(empdept_catalog, sql, codes):
    assert [d.code for d in analyze_sql(sql, empdept_catalog).errors] == codes


@pytest.mark.parametrize("sql, name", [
    ('select "nosuch" from emp', '"nosuch"'),
    ('select e."nosuch" from emp e', 'e."nosuch"'),
    ('select e.name from emp e where "" > 1', '""'),
])
def test_a_quoted_name_is_spanned_to_its_closing_quote(empdept_catalog, sql, name):
    (collected,) = bind_collecting(parse_statement(sql), empdept_catalog).errors
    assert sql[collected.span.start:collected.span.end] == name
    code, message, span, hint = _reported(empdept_catalog, sql)
    assert (code, span) == ("SEM002", collected.span)
    assert _raised(empdept_catalog, sql) == (code, message, span, hint)


def test_a_view_that_no_longer_binds_is_reported_at_its_reference(empdept_catalog):
    empdept_catalog.create_view("v_self", "SELECT * FROM v_self")
    sql = "SELECT x.name FROM v_self x"
    (diagnostic,) = analyze_sql(sql, empdept_catalog).errors
    assert diagnostic.code == "SEM001"
    assert diagnostic.message == (
        "view 'v_self' does not bind: cyclic view definition: v_self -> v_self"
    )
    assert diagnostic.span.column == 20
    assert _raised(empdept_catalog, sql) == _reported(empdept_catalog, sql)


def test_the_binder_does_not_import_the_analyzer():
    for path in Path(repro.qgm.__file__).parent.glob("*.py"):
        for node in pyast.walk(pyast.parse(path.read_text())):
            if isinstance(node, pyast.ImportFrom):
                assert "analyze" not in (node.module or "").split("."), path
