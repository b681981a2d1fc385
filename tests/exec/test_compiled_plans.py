"""Compile-once box plans: a box that reads a value from an enclosing box
and the same box without the outer reference give the same rows and do the
same counted work, with and without a tracer or a guard. Both run on flat
tuples; the correlated one is handed its outer values as the first slots."""

import re

import pytest

from repro import Database
from repro.errors import BudgetExceeded, ExecutionError, FaultInjectedError
from repro.exec import evaluate, executor
from repro.exec.evaluate import compile_expr, compile_filter, outer_refs
from repro.exec.executor import ExecutionContext
from repro.guard import Limits, guard_for
from repro.plan.cache import PlanCache
from repro.qgm.expr import ColumnRef
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

#: The same three as keywords of ``Database.execute``.
OBSERVED = {
    "bare": lambda: {},
    "tracer": lambda: {"tracer": Tracer()},
    "limits": lambda: {"limits": Limits(timeout=60.0)},
}

#: The result of a box that was handed outer values belongs to that one
#: invocation and is by design not kept as a temp; the uncorrelated twin's
#: is, once per query. That -- not how rows are represented -- is the only
#: difference in counted work between the two.
MATERIALISATION = ("rows_materialized", "rows_freed", "peak_rows_materialized")


def _table(catalog, name: str) -> BaseTableBox:
    return BaseTableBox(name, [c.name for c in catalog.table(name).schema])


def _emp(catalog) -> BaseTableBox:
    return _table(catalog, "emp")


def _outer() -> Quantifier:
    """A quantifier of some enclosing box; the boxes below only read it."""
    return Quantifier("o", BaseTableBox("dept", ["name", "budget"]))


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


def _run(catalog, box, outer, setting):
    """``box`` run the way an enclosing box would run it: handed ``outer``,
    one value per outer reference of its subtree."""
    ctx = ExecutionContext(catalog, box, **SETTINGS[setting]())
    rows = ctx.box_rows(box, outer)
    return rows, ctx.metrics.as_dict()


def _without(work: dict, names) -> dict:
    return {name: value for name, value in work.items() if name not in names}


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_group_by_paths_agree(empdept_catalog, setting):
    """A bare-column key (``itemgetter``), an expression key over the input
    row and a key that also reads an outer value partition and aggregate
    alike."""
    catalog = empdept_catalog
    outer = _outer()
    bare = _group_by_building(catalog, lambda e: e.ref("building"))
    expression = _group_by_building(
        catalog, lambda e: ast.BinaryOp("||", e.ref("building"), ast.Literal(""))
    )
    correlated = _group_by_building(
        catalog, lambda e: ast.BinaryOp("||", e.ref("building"), outer.ref("name"))
    )
    assert outer_refs(bare) == () and outer_refs(expression) == ()
    assert [repr(ref) for ref in outer_refs(correlated)] == ["o.name"]

    bare_rows, bare_work = _run(catalog, bare, (), setting)
    expr_rows, expr_work = _run(catalog, expression, (), setting)
    outer_rows, outer_work = _run(catalog, correlated, ("",), setting)

    assert bare_rows == [
        ("B1", 3, 310.0, "alice"), ("B2", 2, 175.0, "dan"),
        ("B3", 1, 70.0, "frank"),
    ]
    assert expr_rows == bare_rows and outer_rows == bare_rows
    assert expr_work == bare_work
    assert _without(outer_work, MATERIALISATION) == _without(
        bare_work, MATERIALISATION
    )
    # The grouping work table is transient either way; only the kept
    # result differs.
    assert bare_work["rows_materialized"] == (
        outer_work["rows_materialized"] + len(bare_rows)
    )
    rows, _ = _run(catalog, correlated, ("!",), setting)
    assert [row[0] for row in rows] == ["B1!", "B2!", "B3!"]


def test_scalar_group_by_over_no_rows(empdept_catalog):
    """A scalar aggregate still emits its one row over an empty input. A
    plain output beside the aggregates is then evaluated on a row whose
    input columns are NULL -- and whose outer values are the ones handed."""
    catalog = empdept_catalog
    outer = _outer()
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
    with_outer = scalar(lambda q: [
        OutputColumn("who", outer.ref("name")),
        OutputColumn("n", ast.AggregateCall("count", None)),
        OutputColumn("input", q.ref("salary")),
    ])
    assert _run(catalog, aggregates, (), "bare")[0] == [(0, None)]
    assert _run(catalog, with_plain, (), "bare")[0] == [(1, 0)]
    assert _run(catalog, with_outer, ("sales",), "bare")[0] == [("sales", 0, None)]


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_outer_join_paths_agree(empdept_catalog, setting):
    """``dept left join emp on building`` with a literal in the projection
    and with an outer value there instead."""
    catalog = empdept_catalog
    outer = _outer()

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

    flat_rows, flat_work = _run(catalog, join(ast.Literal("x")), (), setting)
    outer_rows, outer_work = _run(
        catalog, join(outer.ref("name")), ("x",), setting
    )
    assert ("d_low", None, "x") in flat_rows  # preserved, no employee in B9
    assert ("sales", "alice", "x") in flat_rows
    assert outer_rows == flat_rows
    assert _without(outer_work, MATERIALISATION) == _without(
        flat_work, MATERIALISATION
    )


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_select_paths_agree(empdept_catalog, setting):
    """The same join with ``e.salary * 2`` and with ``e.salary * o.budget``,
    handed 2; then through SQL, alone and beside an (always true) EXISTS
    it has a subquery to run for."""
    catalog = empdept_catalog
    outer = _outer()

    def join(factor):
        box = SelectBox()
        d = box.add_quantifier(_table(catalog, "dept"), "d")
        e = box.add_quantifier(_emp(catalog), "e")
        box.predicates = [
            ast.Comparison("=", d.ref("building"), e.ref("building")),
            ast.Comparison(">", e.ref("salary"), ast.Literal(85)),
        ]
        box.outputs = [
            OutputColumn("dept", d.ref("name")),
            OutputColumn("emp", e.ref("name")),
            OutputColumn("pay", ast.BinaryOp("*", e.ref("salary"), factor)),
        ]
        return box

    flat_rows, flat_work = _run(catalog, join(ast.Literal(2)), (), setting)
    outer_rows, outer_work = _run(catalog, join(outer.ref("budget")), (2,), setting)
    assert len(flat_rows) == 12 and ("d_null", "erin", 190.0) in flat_rows
    assert outer_rows == flat_rows
    assert _without(outer_work, MATERIALISATION) == _without(
        flat_work, MATERIALISATION
    )

    flat_sql = (
        "select d.name, e.name, e.salary * 2 from dept d, emp e "
        "where d.building = e.building and e.salary > 85 "
        "order by d.name, e.name"
    )
    exists_sql = flat_sql.replace(
        " order by", " and exists (select 1 from dept x) order by"
    )
    db = Database(catalog)

    observed = OBSERVED[setting]
    flat = db.execute(flat_sql, strategy="ni", **observed())
    beside = db.execute(exists_sql, strategy="ni", **observed())
    assert sorted(flat.rows) == sorted(flat_rows)
    assert flat.rows[0] == ("d_null", "erin", 190.0)
    assert beside.rows == flat.rows


def test_a_box_must_be_handed_exactly_its_outer_values(empdept_catalog):
    """Too few or too many is a typed error before any row is read, never a
    read of some other slot."""
    outer = _outer()
    box = _group_by_building(
        empdept_catalog,
        lambda e: ast.BinaryOp("||", e.ref("building"), outer.ref("name")),
    )
    for handed in ((), ("a", "b")):
        ctx = ExecutionContext(empdept_catalog, box)
        with pytest.raises(ExecutionError, match=r"unbound quantifier.*o\.name"):
            ctx.box_rows(box, handed)
        assert ctx.metrics.rows_scanned == 0


def _member_by_member(expr, offsets):
    """``compile_filter`` with no kernel: the reference the kernels are
    held to."""
    predicate = compile_expr(expr, offsets)
    return lambda members, ctx: [
        m for m in members if predicate(m, ctx) is True
    ]


def _tree(span):
    """What a span says happened, without times or box ids."""
    return (
        re.sub(r"\d+([\])])", r"#\1", span.name), span.calls, span.rows_in,
        span.rows_out, span.metrics, [_tree(c) for c in span.children],
    )


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_filter_kernels_and_the_member_by_member_filter_agree(
    empdept_catalog, setting, monkeypatch
):
    """One correlated query whose WHERE steps are a column against an outer
    value, against a literal, and two predicates that get no kernel: the
    rows, the counted work and the trace are those of the same query with
    every step filtered member by member."""
    sql = (
        "select d.name from dept d where d.budget < 10000 "
        "and (d.name <> 'ops' or d.budget > 0) and d.num_emps > "
        "(select count(*) from emp e where e.salary < d.budget "
        "and e.salary > 90 and e.salary + 0 < 110) order by d.name"
    )
    observed = OBSERVED[setting]

    def run():
        result = Database(empdept_catalog).execute(sql, strategy="ni", **observed())
        roots = [] if result.tracer is None else result.tracer.roots
        return result.rows, result.metrics.as_dict(), [_tree(r) for r in roots]

    filtered = []
    monkeypatch.setattr(
        executor, "compile_filter",
        lambda expr, offsets: filtered.append(expr) or compile_filter(expr, offsets),
    )
    rows, work, trace = run()
    assert rows == [("research",), ("sales",)]
    operands = {(type(e.left), type(e.right)) for e in filtered
                if isinstance(e, ast.Comparison)}
    assert (ColumnRef, ColumnRef) in operands  # e.salary < d.budget
    assert (ColumnRef, ast.Literal) in operands
    assert (ast.BinaryOp, ast.Literal) in operands
    assert any(isinstance(e, ast.Or) for e in filtered)

    monkeypatch.setattr(executor, "compile_filter", _member_by_member)
    assert run() == (rows, work, trace)
    assert bool(trace) == (setting == "tracer")


#: Correlated on two predicates of the index-probed ``emp``: the filter right
#: after the lookup tests a fetched column against an outer value, drops
#: rows, meets a NULL (``d_null``) and twice keeps none of what was fetched;
#: one probe (``d_low``) fetches nothing.
LOOKUP_SQL = (
    "select d.name, (select count(*) from emp e where e.empno > d.num_emps "
    "and e.building = d.building) from dept d where d.budget < 10000 "
    "order by d.name"
)
LOOKUP_ROWS = [
    ("d_low", 0), ("d_null", 0), ("ops", 2), ("research", 2), ("sales", 0),
    ("support", 2),
]


def _step_by_step(monkeypatch):
    """Compile every plan from here on with no lookup applying a filter."""
    monkeypatch.setattr(
        executor, "compile_lookup_filter", lambda expr, offsets, quantifier: None
    )


def _observed_run(catalog, sql=LOOKUP_SQL, plan_cache=None, **observed):
    """(rows or the typed error, counted work, trace) of one execution;
    with a ``plan_cache``, of the hit after the execution that filled it."""
    db = Database(catalog, plan_cache=plan_cache)
    if plan_cache is not None:
        db.execute(sql, strategy="ni")
    tracer = observed.get("tracer")
    try:
        result = db.execute(sql, strategy="ni", **observed)
    except (BudgetExceeded, FaultInjectedError) as error:
        outcome = (type(error).__name__, str(error))
        metrics = getattr(error, "metrics", None)
        work = None if metrics is None else metrics.as_dict()
    else:
        outcome, work = result.rows, result.metrics.as_dict()
    roots = [] if tracer is None else tracer.roots
    return outcome, work, [_tree(r) for r in roots], db


@pytest.mark.parametrize("setting,cached", [
    # A traced execution does not go through the plan cache.
    ("bare", False), ("limits", False), ("tracer", False),
    ("bare", True), ("limits", True),
], ids=lambda value: {False: "cold", True: "cache-hit"}.get(value, value))
def test_a_lookup_that_filters_and_the_plan_step_by_step_agree(
    empdept_catalog, setting, cached, monkeypatch
):
    """Rows, every count and the trace tree -- the filter's span with its
    calls and rows in, although the lookup did its work -- are those of the
    same plan with the lookup and the filter as two passes."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    applied = []
    monkeypatch.setattr(
        executor, "compile_lookup_filter",
        lambda *args: applied.append(evaluate.compile_lookup_filter(*args))
        or applied[-1],
    )

    def run():
        cache = PlanCache() if cached else None
        rows, work, trace, _ = _observed_run(
            empdept_catalog, plan_cache=cache, **OBSERVED[setting]()
        )
        assert cache is None or (cache.hits, cache.misses) == (1, 1)
        return rows, work, trace

    fused = run()
    assert any(keep is not None for keep in applied)
    assert fused[0] == LOOKUP_ROWS
    assert fused[1]["index_lookups"] == 6 and fused[1]["index_rows"] == 12
    _step_by_step(monkeypatch)
    assert run() == fused
    if setting == "tracer":
        steps = [
            (name, calls, rows_in, rows_out)
            for name, calls, rows_in, rows_out, _, _ in _spans(fused[2])
            if name.startswith(("index lookup", "filter"))
        ]
        assert steps[1:] == [
            ("index lookup e via emp_building", 6, 6, 12),
            ("filter", 5, 12, 6),  # applied by the lookup; d_low fetched nothing
            ("filter", 3, 6, 6),  # twice nothing was kept
        ]


def _spans(trees):
    for tree in trees:
        yield tree
        yield from _spans(tree[5])


@pytest.mark.parametrize("budget", [
    {"max_subquery_invocations": 3}, {"max_rows_scanned": 6},
    {"max_rows_materialized": 1},
], ids=lambda budget: next(iter(budget)))
def test_a_budget_trips_on_the_same_checkpoint_either_way(
    empdept_catalog, budget, monkeypatch
):
    """The error, the ``Metrics`` snapshot it carries and the spans open and
    closed by then are the same: no checkpoint moved."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)

    def run():
        outcome, work, trace, _ = _observed_run(
            empdept_catalog, limits=Limits(**budget), tracer=Tracer()
        )
        return outcome, work, trace

    fused = run()
    assert fused[0][0] == "BudgetExceeded" and fused[1] is not None
    _step_by_step(monkeypatch)
    assert run() == fused


def test_an_injected_index_fault_fires_at_the_same_probe_either_way(
    empdept_catalog, monkeypatch
):
    """``storage.index_lookup`` is triggered once per lookup step, before
    the first probe, whether or not the step also filters."""
    # Seed 1 lets the first two lookup steps through and fails the third.
    monkeypatch.setenv("REPRO_FAULTS", "1:storage.index_lookup=0.5")

    def run():
        outcome, work, trace, db = _observed_run(empdept_catalog, tracer=Tracer())
        return outcome, trace, db.faults.log()

    fused = run()
    assert fused[0] == (
        "FaultInjectedError",
        "injected fault at 'storage.index_lookup' (trigger #2) (emp_building)",
    )
    _step_by_step(monkeypatch)
    assert run() == fused
