"""QGM lint rules, correlation-pattern classification, strategy verdicts."""

import pytest

from repro import Database
from repro.analyze import (
    CODES,
    Severity,
    analyze_sql,
    classify_patterns,
    lint_graph,
    strategy_verdicts,
)
from repro.qgm import build_qgm
from repro.sql.parser import parse_statement
from repro.storage import Catalog, Column, Schema
from repro.tpcd.queries import (
    EMP_DEPT_QUERY,
    QUERY_1,
    QUERY_1_VARIANT,
    QUERY_2,
    QUERY_3,
)
from repro.tpcd.schema import create_tpcd_schema
from repro.types import SQLType

COUNT_SUBQUERY = (
    "SELECT d.name FROM dept d WHERE d.num_emps > "
    "(SELECT count(*) FROM emp e WHERE e.building = d.building)"
)
AVG_SUBQUERY = (
    "SELECT d.name FROM dept d WHERE d.budget > "
    "(SELECT avg(e.salary) FROM emp e WHERE e.building = d.building)"
)


def _graph(catalog, sql):
    return build_qgm(parse_statement(sql), catalog)


def _patterns(catalog, sql):
    return classify_patterns(_graph(catalog, sql))


def _verdict(catalog, sql, strategy):
    graph = _graph(catalog, sql)
    by_name = {v.strategy: v for v in strategy_verdicts(graph, catalog)}
    return by_name[strategy]


# -- pattern classification ----------------------------------------------------


@pytest.mark.parametrize(
    "sql, kind, correlated",
    [
        (COUNT_SUBQUERY, "scalar-agg", True),
        ("SELECT d.name FROM dept d WHERE d.budget > "
         "(SELECT avg(e.salary) FROM emp e)", "scalar-agg", False),
        ("SELECT d.name FROM dept d WHERE d.budget > "
         "(SELECT e.salary FROM emp e WHERE e.name = d.name)", "scalar", True),
        ("SELECT d.name FROM dept d WHERE EXISTS "
         "(SELECT 1 FROM emp e WHERE e.building = d.building)", "exists", True),
        ("SELECT d.name FROM dept d WHERE d.building IN "
         "(SELECT e.building FROM emp e)", "set-containment", False),
        ("SELECT d.name FROM dept d WHERE d.budget > ALL "
         "(SELECT e.salary FROM emp e WHERE e.building = d.building)",
         "quantified-comparison", True),
        ("SELECT d.name, t.avg_sal FROM dept d, T(avg_sal) AS "
         "(SELECT avg(e.salary) FROM emp e WHERE e.building = d.building)",
         "table-expression", True),
    ],
)
def test_pattern_classification(empdept_catalog, sql, kind, correlated):
    patterns = _patterns(empdept_catalog, sql)
    assert [(p.kind, p.correlated) for p in patterns] == [(kind, correlated)]


def test_count_bug_flag(empdept_catalog):
    (p,) = _patterns(empdept_catalog, COUNT_SUBQUERY)
    assert p.count_bug and "COUNT-bug exposed" in p.describe()
    (p,) = _patterns(empdept_catalog, AVG_SUBQUERY)
    assert not p.count_bug


def test_uncorrelated_query_has_no_patterns(empdept_catalog):
    assert _patterns(empdept_catalog, "SELECT d.name FROM dept d") == []


def test_nested_table_expressions_report_once(empdept_catalog):
    """Query 3's shape: the outermost correlated table expression claims its
    subtree, so the nested derived table is not double-reported."""
    sql = (
        "SELECT d.name, t.v FROM dept d, T(v) AS "
        "(SELECT u.v2 FROM U(v2) AS "
        "(SELECT avg(e.salary) FROM emp e WHERE e.building = d.building))"
    )
    patterns = _patterns(empdept_catalog, sql)
    assert [p.kind for p in patterns] == ["table-expression"]


# -- lint rules ----------------------------------------------------------------


def test_qgm001_fires_on_corrupted_graph(empdept_catalog):
    graph = _graph(empdept_catalog, "SELECT d.name, d.budget FROM dept d")
    graph.root.outputs.append(graph.root.outputs[0])  # duplicate output name
    diags = [d for d in lint_graph(graph, empdept_catalog) if d.code == "QGM001"]
    assert len(diags) == 1
    assert diags[0].severity is Severity.ERROR
    assert "duplicate output names" in diags[0].message


def test_qgm001_silent_on_consistent_graph(empdept_catalog):
    graph = _graph(empdept_catalog, COUNT_SUBQUERY)
    assert not [d for d in lint_graph(graph, empdept_catalog)
                if d.code == "QGM001"]


def test_qgm002_warns_on_correlated_count(empdept_catalog):
    report = analyze_sql(COUNT_SUBQUERY, empdept_catalog)
    (diag,) = [d for d in report.diagnostics if d.code == "QGM002"]
    assert diag.severity is Severity.WARNING
    # The comparison use is null-rejecting, so the hint applies.
    assert diag.hint is not None and "plain join" in diag.hint


def test_qgm002_negative_cases(empdept_catalog):
    # avg has no COUNT bug; uncorrelated COUNT has no bug either.
    assert not analyze_sql(AVG_SUBQUERY, empdept_catalog).has("QGM002")
    uncorrelated = ("SELECT d.name FROM dept d WHERE d.num_emps > "
                    "(SELECT count(*) FROM emp e)")
    assert not analyze_sql(uncorrelated, empdept_catalog).has("QGM002")


QGM003_SQL = (
    "SELECT d.name FROM dept d WHERE d.budget IN "
    "(SELECT e.salary FROM emp e WHERE e.building = d.building "
    "UNION SELECT e2.salary FROM emp e2 WHERE e2.name = d.name)"
)


def test_qgm003_fires_on_correlated_setop(empdept_catalog):
    report = analyze_sql(QGM003_SQL, empdept_catalog)
    assert report.has("QGM003")


def test_qgm003_negative_on_uncorrelated_setop(empdept_catalog):
    sql = ("SELECT d.name FROM dept d "
           "UNION SELECT e.name FROM emp e")
    assert not analyze_sql(sql, empdept_catalog).has("QGM003")


QGM004_SQL = (
    "SELECT d.name FROM dept d, emp e WHERE d.budget > "
    "(SELECT avg(e1.salary) FROM emp e1 "
    "WHERE e1.building = d.building AND e1.name = e.name)"
)


def test_qgm004_fires_on_multi_quantifier_correlation(empdept_catalog):
    report = analyze_sql(QGM004_SQL, empdept_catalog)
    (diag,) = [d for d in report.diagnostics if d.code == "QGM004"]
    assert "2 outer quantifiers" in diag.message


def test_qgm004_negative_on_single_quantifier(empdept_catalog):
    assert not analyze_sql(COUNT_SUBQUERY, empdept_catalog).has("QGM004")


def test_every_qgm_and_dec_code_is_exercised(empdept_catalog):
    """Registry coverage for the graph-level codes: each appears in some
    report produced by the suite's canonical queries."""
    seen = set()
    graph = _graph(empdept_catalog, "SELECT d.name, d.budget FROM dept d")
    graph.root.outputs.append(graph.root.outputs[0])
    seen.update(d.code for d in lint_graph(graph, empdept_catalog))
    for sql in (COUNT_SUBQUERY, QGM003_SQL, QGM004_SQL):
        seen.update(d.code for d in analyze_sql(sql, empdept_catalog).diagnostics)
    expected = {c for c in CODES if c.startswith(("QGM", "DEC"))}
    assert expected <= seen


# -- strategy verdicts ---------------------------------------------------------


def test_all_strategies_applicable_to_paper_shape(empdept_catalog):
    graph = _graph(empdept_catalog, AVG_SUBQUERY)
    verdicts = {v.strategy: v for v in strategy_verdicts(graph, empdept_catalog)}
    assert set(verdicts) == {"ni", "kim", "dayal", "ganski_wong",
                             "magic", "magic_opt"}
    assert all(v.applicable for v in verdicts.values())
    assert "fully decorrelated" in verdicts["magic"].reason
    assert "section 5.1" in verdicts["magic_opt"].reason


def test_kim_requires_equality_correlation(empdept_catalog):
    sql = ("SELECT d.name FROM dept d WHERE d.budget > "
           "(SELECT avg(e.salary) FROM emp e WHERE e.salary > d.budget)")
    verdict = _verdict(empdept_catalog, sql, "kim")
    assert not verdict.applicable
    assert verdict.reason == "correlation predicate is not a simple equality"


@pytest.mark.parametrize(
    "sql, reason_part",
    [
        ("SELECT d.name FROM dept d WHERE EXISTS "
         "(SELECT 1 FROM emp e WHERE e.building = d.building)",
         "non-scalar (existential/universal) subquery"),
        ("SELECT d.name FROM dept d WHERE d.budget > "
         "(SELECT e.salary FROM emp e WHERE e.name = d.name)",
         "not a scalar aggregate"),
        ("SELECT d.name, t.avg_sal FROM dept d, T(avg_sal) AS "
         "(SELECT avg(e.salary) FROM emp e WHERE e.building = d.building)",
         "no correlated subquery found"),
        (QGM003_SQL, "not linear"),
    ],
)
def test_kim_rejection_reasons(empdept_catalog, sql, reason_part):
    verdict = _verdict(empdept_catalog, sql, "kim")
    assert not verdict.applicable
    assert reason_part in verdict.reason


def test_ganski_wong_needs_single_outer_table(empdept_catalog):
    verdict = _verdict(empdept_catalog, QGM004_SQL, "ganski_wong")
    assert not verdict.applicable
    assert verdict.reason == "outer block references more than one table"


def test_dayal_needs_outer_keys():
    catalog = Catalog()
    catalog.create_table("t1", Schema([
        Column("a", SQLType.INT), Column("b", SQLType.INT),
    ]))
    catalog.create_table("t2", Schema([
        Column("x", SQLType.INT), Column("y", SQLType.INT),
    ]))
    sql = ("SELECT t1.a FROM t1 WHERE t1.b > "
           "(SELECT avg(t2.y) FROM t2 WHERE t2.x = t1.a)")
    graph = build_qgm(parse_statement(sql), catalog)
    verdicts = {v.strategy: v for v in strategy_verdicts(graph, catalog)}
    assert verdicts["kim"].applicable
    assert not verdicts["dayal"].applicable
    assert verdicts["dayal"].reason == "outer table 't1' has no key to group on"


def test_magic_partial_decorrelation_reason(empdept_catalog):
    verdict = _verdict(empdept_catalog, QGM003_SQL, "magic")
    assert verdict.applicable
    assert "partially decorrelated" in verdict.reason
    assert "section 4.4" in verdict.reason


def test_magic_noop_reason_on_uncorrelated_query(empdept_catalog):
    verdict = _verdict(empdept_catalog, "SELECT d.name FROM dept d", "magic")
    assert verdict.applicable and verdict.reason.endswith("no-op")


def test_verdicts_never_mutate_the_graph(empdept_catalog):
    from repro.qgm import graph_to_text

    graph = _graph(empdept_catalog, AVG_SUBQUERY)
    before = graph_to_text(graph)
    strategy_verdicts(graph, empdept_catalog)
    classify_patterns(graph)
    lint_graph(graph, empdept_catalog)
    assert graph_to_text(graph) == before


# -- a verdict is what the rewrite does ----------------------------------------

SELECT_LIST_SUBQUERY = (
    "SELECT d.name, (SELECT max(e.salary) FROM emp e "
    "WHERE e.building = d.building) FROM dept d"
)

VERDICT_CORPUS = {
    "q1": QUERY_1,
    "q1_variant": QUERY_1_VARIANT,
    "q2": QUERY_2,
    "q3": QUERY_3,
    "emp_dept": EMP_DEPT_QUERY,
    "select_list": SELECT_LIST_SUBQUERY,
    "exists": ("SELECT d.name FROM dept d WHERE EXISTS "
               "(SELECT 1 FROM emp e WHERE e.building = d.building)"),
    "table_expression": (
        "SELECT d.name, t.avg_sal FROM dept d, T(avg_sal) AS "
        "(SELECT avg(e.salary) FROM emp e WHERE e.building = d.building)"
    ),
    "two_outer_tables": QGM004_SQL,
    "uncorrelated": ("SELECT d.name FROM dept d WHERE d.budget > "
                     "(SELECT avg(e.salary) FROM emp e)"),
}


@pytest.mark.parametrize("name", sorted(VERDICT_CORPUS))
def test_verdict_is_what_execution_does(empdept_catalog, name):
    """For Kim, Dayal and Ganski/Wong the verdict is applicable exactly when
    executing under that strategy needs no fallback, and a refusal's
    reason is the one the rewrite gave execution."""
    sql = VERDICT_CORPUS[name]
    if name.startswith("q"):
        catalog = Catalog()
        create_tpcd_schema(catalog)  # schema only: the verdict needs no rows
    else:
        catalog = empdept_catalog
    verdicts = {v.strategy: v for v in strategy_verdicts(_graph(catalog, sql), catalog)}
    db = Database(catalog)
    for strategy in ("kim", "dayal", "ganski_wong"):
        verdict = verdicts[strategy]
        steps = db.execute(sql, strategy=strategy, fallback=True).degradations
        refused = [s for s in steps if s.attempted == strategy]
        assert verdict.applicable == (not refused), (strategy, verdict, steps)
        if refused:
            assert refused[0].error_type == "NotApplicableError"
            assert refused[0].message.endswith(f": {verdict.reason}")


def test_ganski_wong_decorrelates_a_select_list_subquery(empdept_catalog):
    """The section-2 special case covers a scalar aggregate in the select
    list: the verdict says so, and execution bears it out."""
    verdict = _verdict(empdept_catalog, SELECT_LIST_SUBQUERY, "ganski_wong")
    assert verdict.applicable
    db = Database(empdept_catalog)
    ni = db.execute(SELECT_LIST_SUBQUERY)
    gw = db.execute(SELECT_LIST_SUBQUERY, strategy="ganski_wong")
    assert gw.degradations == []
    assert sorted(gw.rows) == sorted(ni.rows)
    assert ni.metrics.subquery_invocations > 0
    assert gw.metrics.subquery_invocations == 0
