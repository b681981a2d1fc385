"""A corpus of correlation shapes: where an outer reference can sit and what
it can skip on its way to the quantifier it names.

The executor resolves every outer reference at compile time to a slot of
the row its box is handed, and every box that runs another one picks that
box's outer values out of its own row. Each shape below puts a different
demand on that hand-over; each is run under nested iteration -- whose answer
is pinned -- and under every strategy that applies, straight and through a
plan cache (fill, then a hit on the shared compiled entry).
"""

from collections import Counter

import pytest

from repro import Database, Strategy
from repro.errors import NotApplicableError
from repro.exec.executor import execute_graph
from repro.plan import PlanCache, plan_select_box
from repro.plan.planner import SubqueryEvalStep
from repro.qgm import build_qgm
from repro.qgm.analysis import shared_boxes
from repro.qgm.expr import BoxExists, BoxInSubquery
from repro.qgm.model import (
    BaseTableBox,
    OutputColumn,
    QueryGraph,
    SelectBox,
)
from repro.sql import ast
from repro.sql.parser import parse_statement

B1 = ["rich", "sales", "support"]
B2 = ["d_null", "ops", "research"]

#: name -> (sql, nested iteration's rows, subquery invocations under NI).
SHAPES = {
    # The paper's section 2 query: a reference to the parent box.
    "parent": (
        "select d.name from dept d where d.budget < 10000 and d.num_emps > "
        "(select count(*) from emp e where e.building = d.building)",
        [("d_low",), ("research",), ("sales",)], 6,
    ),
    # ``d`` is read two levels down; the EXISTS box between never reads it
    # itself and still has to hand it on.
    "grandparent": (
        "select d.name from dept d where exists (select 1 from emp e "
        "where e.building = d.building and e.salary > (select avg(e2.salary) "
        "from emp e2 where e2.building = d.building))",
        [(name,) for name in sorted(B1 + B2)], 14,
    ),
    # Both arms of a UNION read ``d``; the set operation evaluates no
    # expression of its own and hands each arm its values.
    "union_under_all": (
        "select d.name from dept d where d.budget > all ("
        "select e.salary * 50 from emp e where e.building = d.building "
        "union select e2.salary * 20 from emp e2 where e2.building = d.building)",
        [("d_low",), ("ops",), ("rich",), ("support",)], 7,
    ),
    # The outer reference sits in the ON condition of an outer join.
    "outer_join_on": (
        "select d.name, (select count(d2.name) from emp e left outer join "
        "dept d2 on d2.building = e.building and d2.budget > d.budget "
        "where e.building = d.building) from dept d",
        [("d_low", 0), ("d_null", 4), ("ops", 0), ("research", 2),
         ("rich", 0), ("sales", 6), ("support", 3)], 7,
    ),
    # A lateral derived table: a FROM-list child run once per member.
    "lateral": (
        "select d.name, x.n from dept d, x(n) as (select count(*) from emp e "
        "where e.building = d.building)",
        [("d_low", 0), ("d_null", 2), ("ops", 2), ("research", 2),
         ("rich", 3), ("sales", 3), ("support", 3)], 7,
    ),
    # One predicate, two subqueries, two different outer quantifiers: the
    # first is evaluated when only ``d`` is bound (a prefix of the row),
    # the second needs ``e``.
    "two_subqueries_prefix": (
        "select d.name, e.name from dept d, emp e where d.building = e.building "
        "and (2 < (select count(*) from emp e2 where e2.building = d.building) "
        "or 100 > (select max(e3.salary) from emp e3 "
        "where e3.empno <> e.empno and e3.building = e.building))",
        [(d, e) for d in B2 for e in ("dan", "erin")]
        + [(d, e) for d in B1 for e in ("alice", "bob", "carol")], 22,
    ),
    # Scalar subqueries on both sides of an OR.
    "scalars_under_or": (
        "select d.name from dept d where d.num_emps > (select count(*) from "
        "emp e where e.building = d.building) or d.budget < (select "
        "min(e2.salary) * 10 from emp e2 where e2.building = d.building)",
        [("d_low",), ("d_null",), ("research",), ("rich",), ("sales",)], 14,
    ),
    # A correlated subquery in the select list, sorted on and cut off.
    "select_list_order_limit": (
        "select d.name, (select count(*) from emp e where e.building = "
        "d.building) as n from dept d order by n desc, d.name limit 3",
        [("rich", 3), ("sales", 3), ("support", 3)], 7,
    ),
    "exists_having": (
        "select d.name from dept d where exists (select e.building from emp e "
        "where e.building = d.building group by e.building having count(*) > 2)",
        [(name,) for name in B1], 7,
    ),
    # A scalar aggregate over no rows, an outer value beside the aggregate.
    "scalar_groupby_empty": (
        "select d.name, (select d.budget + count(*) from emp e where "
        "e.building = d.building and e.salary < 0) from dept d",
        [("d_low", 500.0), ("d_null", 700.0), ("ops", 9000.0),
         ("research", 2000.0), ("rich", 50000.0), ("sales", 5000.0),
         ("support", 8000.0)], 7,
    ),
}

#: Kim's method loses the departments whose building has no employee (the
#: COUNT bug, paper section 2); this is what it returns instead.
KIM_COUNT_BUG = {"parent": [("research",), ("sales",)]}

DECORRELATING = (Strategy.KIM, Strategy.DAYAL, Strategy.MAGIC, Strategy.MAGIC_OPT)


def _same(rows, expected, sql):
    if "order by" in sql:
        return rows == expected
    return Counter(rows) == Counter(expected)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_nested_iteration_answer_is_pinned(empdept_catalog, shape):
    sql, expected, invocations = SHAPES[shape]
    result = Database(empdept_catalog).execute(sql, strategy=Strategy.NESTED_ITERATION)
    assert _same(result.rows, expected, sql)
    assert result.metrics.subquery_invocations == invocations


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_applicable_strategy_agrees(empdept_catalog, shape):
    sql, expected, _ = SHAPES[shape]
    db = Database(empdept_catalog)
    applied = []
    for strategy in DECORRELATING:
        try:
            rows = db.execute(sql, strategy=strategy).rows
        except NotApplicableError:
            continue
        applied.append(strategy)
        if strategy is Strategy.KIM and shape in KIM_COUNT_BUG:
            expected_here = KIM_COUNT_BUG[shape]
        else:
            expected_here = expected
        assert _same(rows, expected_here, sql), strategy
    # Magic decorrelation takes every shape here.
    assert Strategy.MAGIC in applied and Strategy.MAGIC_OPT in applied


@pytest.mark.parametrize("strategy", [Strategy.NESTED_ITERATION, Strategy.MAGIC])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_a_cached_compiled_entry_gives_the_same_answer(
    empdept_catalog, shape, strategy
):
    sql, expected, _ = SHAPES[shape]
    cache = PlanCache()
    db = Database(empdept_catalog, plan_cache=cache)
    db.execute(sql, strategy=strategy)  # miss, fill
    hit = db.execute(sql, strategy=strategy)
    snapshot = cache.snapshot()
    if "limit" in sql:
        # LIMIT is consumed at build time: the shape is not cacheable.
        assert snapshot["hits"] == 0
    else:
        assert snapshot["hits"] == 1
    assert _same(hit.rows, expected, sql)


def test_first_scalar_is_evaluated_on_a_prefix_of_the_row(empdept_catalog):
    """What makes ``two_subqueries_prefix`` the shape it claims to be."""
    sql = SHAPES["two_subqueries_prefix"][0]
    graph = build_qgm(parse_statement(sql), empdept_catalog)
    plan = plan_select_box(empdept_catalog, graph.root)
    kinds = [
        "scalar" if isinstance(step, SubqueryEvalStep)
        else getattr(getattr(step, "quantifier", None), "name", "filter")
        for step in plan.steps
    ]
    first_scalar = kinds.index("scalar")
    assert first_scalar < max(kinds.index("d"), kinds.index("e"))
    assert kinds.count("scalar") == 2


def test_one_box_under_two_parents_at_different_depths(empdept_catalog):
    """A hand-built DAG: the correlated box ``C`` (the employees of ``d``'s
    building) is an EXISTS of the root and, one level further down, the IN
    list of another subquery ``M`` of the root. The root picks ``C``'s
    value out of ``d``'s columns; ``M`` out of the value it was itself
    handed, which sits in a different slot of a differently laid out row.
    Both paths must read ``d.building``::

        select d.name from dept d
        where exists (C) and exists (
            select 1 from emp e2 where e2.salary > 90
            and e2.building = d.building and e2.name in (C))
    """
    catalog = empdept_catalog

    def table(name):
        return BaseTableBox(name, [c.name for c in catalog.table(name).schema])

    root = SelectBox()
    d = root.add_quantifier(table("dept"), "d")

    shared = SelectBox()
    e = shared.add_quantifier(table("emp"), "e")
    shared.predicates = [ast.Comparison("=", e.ref("building"), d.ref("building"))]
    shared.outputs = [OutputColumn("name", e.ref("name"))]

    middle = SelectBox()
    e2 = middle.add_quantifier(table("emp"), "e2")
    middle.predicates = [
        ast.Comparison(">", e2.ref("salary"), ast.Literal(90)),
        ast.Comparison("=", e2.ref("building"), d.ref("building")),
        BoxInSubquery(e2.ref("name"), shared),
    ]
    middle.outputs = [OutputColumn("one", ast.Literal(1))]

    root.predicates = [BoxExists(shared), BoxExists(middle)]
    root.outputs = [OutputColumn("name", d.ref("name"))]
    assert shared.id in shared_boxes(root)

    rows, metrics = execute_graph(QueryGraph(root), catalog)
    assert sorted(rows) == [(name,) for name in sorted(B1 + B2)]
    # d_low's building has no employee: the first EXISTS fails, M is not
    # run. Otherwise: C once from the root, M once, and under M, C once
    # per employee of the building that earns more than 90 (two in B1, one
    # in B2, three departments each).
    assert metrics.subquery_invocations == 7 + 6 + (2 * 3 + 1 * 3)
