"""Plan contracts: typed box interfaces, nullability provenance, and the
statically detected COUNT bug (paper section 2.1)."""

import pytest

from repro.analyze.plans import (
    TAINT_AGG_EMPTY,
    TAINT_COUNT_REWRITE,
    TAINT_OUTER_JOIN,
    check_interfaces,
    interface_diagnostics,
    verify_pre_execution,
    verify_query_plan,
)
from repro.api.strategies import Strategy
from repro.errors import PlanError
from repro.qgm import build_qgm
from repro.rewrite import RewriteEngine
from repro.sql.parser import parse_statement
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


def _rewritten(catalog, sql, strategy):
    engine = RewriteEngine(catalog, validate=False)
    return engine.rewrite(_graph(catalog, sql), Strategy(strategy))


def _contract_of_root(catalog, sql):
    graph = _graph(catalog, sql)
    inferencer = check_interfaces(graph, catalog)
    return inferencer.memo[graph.root.id], inferencer


# -- contract inference --------------------------------------------------------


def test_base_table_contract_types_and_key(empdept_catalog):
    graph = _graph(empdept_catalog, "SELECT d.name FROM dept d")
    inferencer = check_interfaces(graph, empdept_catalog)
    base = next(
        c for c in inferencer.memo.values() if c.kind == "base_table"
    )
    by_name = {col.name: col for col in base.columns}
    assert by_name["name"].type is SQLType.STR
    assert not by_name["name"].nullable      # declared NOT NULL
    assert by_name["budget"].type is SQLType.FLOAT
    assert by_name["budget"].nullable
    assert ("name",) in base.unique          # primary key
    assert base.rows == 7                    # catalog cardinality bound


def test_select_passes_types_and_keys_through(empdept_catalog):
    contract, _ = _contract_of_root(
        empdept_catalog, "SELECT d.name, d.budget FROM dept d"
    )
    assert contract.names() == ["name", "budget"]
    assert contract.column("name").type is SQLType.STR
    assert ("name",) in contract.unique      # pk survives pure projection


def test_distinct_makes_output_unique(empdept_catalog):
    contract, _ = _contract_of_root(
        empdept_catalog, "SELECT DISTINCT d.building FROM dept d"
    )
    assert ("building",) in contract.unique


def test_scalar_count_is_total_and_untainted(empdept_catalog):
    contract, inferencer = _contract_of_root(
        empdept_catalog,
        "SELECT d.name FROM dept d WHERE d.num_emps > "
        "(SELECT count(*) FROM emp e)",
    )
    scalar = next(
        c for c in inferencer.memo.values()
        if c.kind == "groupby" and c.exactly_one
    )
    count_col = scalar.columns[0]
    assert count_col.type is SQLType.INT
    assert not count_col.nullable
    assert not count_col.taint               # scalar COUNT is total


def test_sum_carries_agg_empty_taint(empdept_catalog):
    _, inferencer = _contract_of_root(empdept_catalog, AVG_SUBQUERY)
    agg = next(c for c in inferencer.memo.values() if c.kind == "groupby")
    assert TAINT_AGG_EMPTY in agg.columns[0].taint
    assert agg.columns[0].nullable           # AVG of an empty input is NULL


def test_grouped_count_is_tainted_after_kim(empdept_catalog):
    graph = _rewritten(empdept_catalog, COUNT_SUBQUERY, "kim")
    inferencer = check_interfaces(graph, empdept_catalog)
    grouped = next(
        c for c in inferencer.memo.values()
        if c.kind == "groupby" and not c.exactly_one
    )
    tainted = [
        col for col in grouped.columns if TAINT_COUNT_REWRITE in col.taint
    ]
    assert tainted, "Kim's grouped COUNT output must carry count-rewrite"


def test_kim_count_bug_flagged_as_pln007(empdept_catalog):
    graph = _rewritten(empdept_catalog, COUNT_SUBQUERY, "kim")
    codes = {d.code for d in interface_diagnostics(graph, empdept_catalog)}
    assert "PLN007" in codes


def test_ganski_wong_outer_join_clears_count_hazard(empdept_catalog):
    graph = _rewritten(empdept_catalog, COUNT_SUBQUERY, "ganski_wong")
    diags = interface_diagnostics(graph, empdept_catalog)
    assert not [d for d in diags if d.code in ("PLN006", "PLN007")]


def test_outer_join_taints_null_producing_side(empdept_catalog):
    graph = _graph(
        empdept_catalog,
        "SELECT * FROM dept d LEFT OUTER JOIN emp e "
        "ON d.building = e.building",
    )
    inferencer = check_interfaces(graph, empdept_catalog)
    outer = next(
        c for c in inferencer.memo.values() if c.kind == "outerjoin"
    )
    # emp.empno is declared NOT NULL, but as the null-producing side of
    # the join it comes back nullable, with provenance.
    empno = next(c for c in outer.columns if "empno" in c.name)
    assert empno.nullable
    assert TAINT_OUTER_JOIN in empno.taint
    # The preserved side keeps its declared nullability.
    dept_name = next(c for c in outer.columns if "d_name" in c.name)
    assert not dept_name.nullable


def test_ganski_wong_outer_join_output_is_coalesce_fixed(empdept_catalog):
    # The rewrite wraps the grouped COUNT in COALESCE(.., 0) inside the
    # outer join's output list: the fix is applied at the source, so the
    # outer-join contract itself is already clean.
    graph = _rewritten(empdept_catalog, COUNT_SUBQUERY, "ganski_wong")
    inferencer = check_interfaces(graph, empdept_catalog)
    outer = next(
        c for c in inferencer.memo.values() if c.kind == "outerjoin"
    )
    count_col = next(c for c in outer.columns if "count" in c.name)
    assert not count_col.nullable
    assert not count_col.taint


def test_magic_strategy_verifies_clean(empdept_catalog):
    graph = _rewritten(empdept_catalog, COUNT_SUBQUERY, "magic")
    diags, summary = verify_query_plan(empdept_catalog, graph)
    assert summary["errors"] == 0
    assert not [d for d in diags if d.code in ("PLN006", "PLN007")]


def test_sum_over_string_is_pln005(empdept_catalog):
    graph = _graph(
        empdept_catalog,
        "SELECT d.name FROM dept d WHERE d.budget > "
        "(SELECT sum(e.name) FROM emp e WHERE e.building = d.building)",
    )
    codes = {d.code for d in interface_diagnostics(graph, empdept_catalog)}
    assert "PLN005" in codes


def test_min_over_string_is_legal(empdept_catalog):
    graph = _graph(
        empdept_catalog,
        "SELECT d.name FROM dept d WHERE d.name > "
        "(SELECT min(e.name) FROM emp e WHERE e.building = d.building)",
    )
    assert not interface_diagnostics(graph, empdept_catalog)


def test_coalesce_clears_count_taint(empdept_catalog):
    # The magic rewrite's own COUNT-bug fix: COALESCE(count_col, 0) is
    # NOT NULL again, and the count-rewrite taint is dropped with it.
    graph = _rewritten(empdept_catalog, COUNT_SUBQUERY, "magic")
    inferencer = check_interfaces(graph, empdept_catalog)
    roots = [inferencer.memo[graph.root.id]]
    assert all(
        TAINT_COUNT_REWRITE not in col.taint
        for contract in roots for col in contract.columns
    )


# -- plan verification over whole strategies -----------------------------------


@pytest.mark.parametrize(
    "strategy", ["ni", "kim", "dayal", "ganski_wong", "magic", "magic_opt"]
)
@pytest.mark.parametrize("sql", [COUNT_SUBQUERY, AVG_SUBQUERY])
def test_every_strategy_plans_without_errors(empdept_catalog, strategy, sql):
    graph = _rewritten(empdept_catalog, sql, strategy)
    diags, summary = verify_query_plan(empdept_catalog, graph)
    errors = [d for d in diags if d.severity.value == "error"]
    assert not errors, [str(d) for d in errors]
    assert summary["plans"] >= 1
    assert summary["steps"] >= summary["plans"]


def test_verify_pre_execution_returns_summary(empdept_catalog):
    graph = _rewritten(empdept_catalog, AVG_SUBQUERY, "magic")
    summary = verify_pre_execution(empdept_catalog, graph)
    assert summary["errors"] == 0
    assert summary["boxes"] == summary["plans"] + (
        summary["boxes"] - summary["plans"]
    )
    assert set(summary) == {
        "boxes", "plans", "steps", "columns", "nullable_columns",
        "tainted_columns", "errors", "warnings",
    }


def test_validated_execution_emits_plan_verified_event(empdept_catalog):
    from repro.api.database import Database
    from repro.obs import EventLog, RingSink
    from repro.serve import QueryService

    log = EventLog(RingSink())
    db = Database(catalog=empdept_catalog, validate=True)
    # The query's id is its ticket's: the service owns the lifecycle and
    # its worker facade emits the engine-level event inside that scope.
    with QueryService(db, workers=1, events=log) as service:
        ticket = service.submit(AVG_SUBQUERY, strategy="magic")
        assert ticket.result(timeout=30).rows is not None
    verified = [e for e in log.events() if e["kind"] == "plan.verified"]
    assert len(verified) == 1
    event = verified[0]
    assert event["errors"] == 0
    assert event["plans"] >= 1
    assert event["query_id"] == ticket.query_id
    assert {"boxes", "steps", "columns", "nullable_columns",
            "tainted_columns", "warnings"} <= set(event)


def test_unvalidated_execution_emits_no_plan_verified_event(empdept_catalog):
    from repro.api.database import Database
    from repro.obs import EventLog, RingSink

    db = Database(
        catalog=empdept_catalog, validate=False,
        events=EventLog(RingSink()),
    )
    db.execute(AVG_SUBQUERY, strategy=Strategy("magic"))
    assert not [
        e for e in db.events.events() if e["kind"] == "plan.verified"
    ]


def test_verify_pre_execution_raises_on_corrupt_graph(empdept_catalog):
    graph = _rewritten(empdept_catalog, AVG_SUBQUERY, "magic")
    # Rename an output column after the fact: consumers now reference a
    # column absent from the producer's contract.
    box = graph.root
    quantifier = box.quantifiers[0]
    victim = quantifier.box.outputs[0]
    victim.name = "vanished"
    with pytest.raises(PlanError, match="PLN001"):
        verify_pre_execution(empdept_catalog, graph)
