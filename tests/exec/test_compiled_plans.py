"""Compile-once box plans: the positional mode (expressions read the row
tuple, no ``Env`` per row) and the ``Env`` mode give the same rows and do
the same counted work, with and without a tracer or a guard."""

import pytest

from repro import Database
from repro.exec.evaluate import Env
from repro.exec.executor import ExecutionContext
from repro.guard import Limits, guard_for
from repro.qgm.model import (
    BaseTableBox,
    GroupByBox,
    OuterJoinBox,
    OutputColumn,
    Quantifier,
    SelectBox,
)
from repro.sql import ast
from repro.trace import Tracer

#: How an execution is observed: bare, traced, guarded (budgets far away).
SETTINGS = {
    "bare": lambda: {},
    "tracer": lambda: {"tracer": Tracer()},
    "limits": lambda: {
        "guard": guard_for(Limits(timeout=60.0, max_rows_materialized=10**6))
    },
}

#: Whether a box's result is kept as a temp depends on its being
#: correlated, which is exactly what tells the Env variant from the others.
MATERIALISATION = ("rows_materialized", "rows_freed", "peak_rows_materialized")


def _table(catalog, name: str) -> BaseTableBox:
    return BaseTableBox(name, [c.name for c in catalog.table(name).schema])


def _emp(catalog) -> BaseTableBox:
    return _table(catalog, "emp")


def _group_by_building(catalog, key_of):
    """``select <key>, count(*), sum(salary), min(name) from emp group by
    <key>``; ``key_of(e)`` builds the key over the input quantifier."""
    e = Quantifier("e", _emp(catalog))
    key = key_of(e)
    return GroupByBox(
        e,
        group_by=[key],
        outputs=[
            OutputColumn("k", key),
            OutputColumn("n", ast.AggregateCall("count", None)),
            OutputColumn("total", ast.AggregateCall("sum", e.ref("salary"))),
            OutputColumn("first", ast.AggregateCall("min", e.ref("name"))),
        ],
    )


def _run(catalog, box, env, setting):
    ctx = ExecutionContext(catalog, box, **SETTINGS[setting]())
    rows = ctx.box_rows(box, env)
    return rows, ctx.metrics.as_dict(), ctx.plan(box)


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_group_by_paths_agree(empdept_catalog, setting):
    """A bare-column key (``itemgetter``), an expression key over the input
    row (positional closures) and a key that also reads an outer binding
    (one Env per row) partition and aggregate alike."""
    catalog = empdept_catalog
    outer = Quantifier("o", BaseTableBox("dept", ["name"]))
    bare = _group_by_building(catalog, lambda e: e.ref("building"))
    expression = _group_by_building(
        catalog, lambda e: ast.BinaryOp("||", e.ref("building"), ast.Literal(""))
    )
    correlated = _group_by_building(
        catalog, lambda e: ast.BinaryOp("||", e.ref("building"), outer.ref("name"))
    )

    bare_rows, bare_work, bare_plan = _run(catalog, bare, Env(), setting)
    expr_rows, expr_work, expr_plan = _run(catalog, expression, Env(), setting)
    env_rows, env_work, env_plan = _run(
        catalog, correlated, Env({outer: ("",)}), setting
    )

    assert bare_plan.positional and expr_plan.positional
    assert not env_plan.positional
    assert bare_rows == [
        ("B1", 3, 310.0, "alice"), ("B2", 2, 175.0, "dan"),
        ("B3", 1, 70.0, "frank"),
    ]
    assert expr_rows == bare_rows and env_rows == bare_rows
    assert expr_work == bare_work
    for name in MATERIALISATION:
        del env_work[name], bare_work[name]
    assert env_work == bare_work


def test_scalar_group_by_over_no_rows(empdept_catalog):
    """The aggregate-only scalar box is positional and still emits its one
    row over an empty input; with a plain output beside the aggregates it
    keeps the Env mode, whose empty group reads the outer Env."""
    catalog = empdept_catalog
    empty = SelectBox()
    e0 = empty.add_quantifier(_emp(catalog), "e")
    empty.predicates = [ast.Comparison("<", e0.ref("salary"), ast.Literal(0))]
    empty.outputs = [OutputColumn("salary", e0.ref("salary"))]

    def scalar(outputs_of):
        q = Quantifier("a", empty)
        return GroupByBox(q, outputs=outputs_of(q))

    aggregates = scalar(lambda q: [
        OutputColumn("n", ast.AggregateCall("count", None)),
        OutputColumn("total", ast.AggregateCall("sum", q.ref("salary"))),
    ])
    with_plain = scalar(lambda q: [
        OutputColumn("one", ast.Literal(1)),
        OutputColumn("n", ast.AggregateCall("count", q.ref("salary"))),
    ])
    rows, _, plan = _run(catalog, aggregates, Env(), "bare")
    assert plan.positional and rows == [(0, None)]
    rows, _, plan = _run(catalog, with_plain, Env(), "bare")
    assert not plan.positional and rows == [(1, 0)]


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_outer_join_paths_agree(empdept_catalog, setting):
    """``dept left join emp on building`` over flat ``left + right`` rows
    and, with an outer reference in the projection, over Envs."""
    catalog = empdept_catalog
    outer = Quantifier("o", BaseTableBox("dept", ["name"]))

    def join(label):
        d = Quantifier("d", _table(catalog, "dept"))
        e = Quantifier("e", _emp(catalog))
        return OuterJoinBox(
            d, e,
            ast.Comparison("=", d.ref("building"), e.ref("building")),
            [
                OutputColumn("dept", d.ref("name")),
                OutputColumn("emp", e.ref("name")),
                OutputColumn("label", label),
            ],
        )

    flat_rows, flat_work, flat_plan = _run(
        catalog, join(ast.Literal("x")), Env(), setting
    )
    env_rows, env_work, env_plan = _run(
        catalog, join(outer.ref("name")), Env({outer: ("x",)}), setting
    )
    assert flat_plan.positional and not env_plan.positional
    assert ("d_low", None, "x") in flat_rows  # preserved, no employee in B9
    assert ("sales", "alice", "x") in flat_rows
    assert env_rows == flat_rows
    for name in MATERIALISATION:
        del env_work[name], flat_work[name]
    assert env_work == flat_work


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_select_paths_agree(empdept_catalog, setting):
    """The same join through SQL: alone it runs on flat rows; beside an
    (always true) EXISTS it has a subquery to hand an Env to."""
    flat_sql = (
        "select d.name, e.name, e.salary * 2 from dept d, emp e "
        "where d.building = e.building and e.salary > 85 "
        "order by d.name, e.name"
    )
    env_sql = flat_sql.replace(
        " order by", " and exists (select 1 from dept x) order by"
    )
    db = Database(empdept_catalog)

    def observed():
        return {
            "bare": {}, "tracer": {"tracer": Tracer()},
            "limits": {"limits": Limits(timeout=60.0)},
        }[setting]

    flat = db.execute(flat_sql, strategy="ni", **observed())
    env = db.execute(env_sql, strategy="ni", **observed())
    assert len(flat.rows) == 12
    assert flat.rows[0] == ("d_null", "erin", 190.0)
    assert env.rows == flat.rows
