"""Key, projection and aggregation kernels: whatever the shape of a key --
the bare value of a one-column key or the tuple of a composite one -- a hash
join, an outer join, a GROUP BY and a DISTINCT give the rows ``COMPARISONS``
says they should, do the same counted work and raise the same typed error;
and whatever the columns of a projection are, it gives one tuple per member
with what ``compile_expr`` gives member by member."""

import pytest

from repro.errors import SchemaError
from repro.exec.evaluate import compile_expr
from repro.exec.executor import ExecutionContext, compile_select
from repro.plan.planner import HashJoinStep, PredicateStep, ScanStep, SelectPlan
from repro.qgm.model import (
    BaseTableBox,
    GroupByBox,
    OuterJoinBox,
    OutputColumn,
    Quantifier,
    SelectBox,
)
from repro.sql import ast
from repro.storage import Catalog, Column, Schema
from repro.types import COMPARISONS, SQLType

from .test_filter_kernels import PAIRS, VALUES

#: ``k``: the key under test; ``c``: the same constant in every row, the
#: second component of the composite key; ``n``: the row's number.
COLUMNS = ["k", "c", "n"]
CONSTANT = 7
OPS = ("=", "<=>")
WORK = ("rows_joined", "rows_grouped", "rows_materialized")
#: Every value but the two that hash like 0 and 1 without being comparable
#: with them: a batch of these goes through a hash probe without an error.
NO_BOOLS = [v for v in VALUES if not isinstance(v, bool)]
NUMBERS = [v for v in NO_BOOLS if not isinstance(v, str)]


def _catalog(**tables):
    """Tables of ``(k, CONSTANT, n)`` rows, one per value of ``k``: values of
    every class in one column, past the schema's check."""
    catalog = Catalog()
    for name, keys in tables.items():
        table = catalog.create_table(
            name, Schema([Column(c, SQLType.INT) for c in COLUMNS])
        )
        table.insert_many((None, CONSTANT, n) for n in range(len(keys)))
        table.rows[:] = [(k, CONSTANT, n) for n, k in enumerate(keys)]
    return catalog


def _table(name):
    return BaseTableBox(name, COLUMNS)


def _numbers(l, r):
    return [OutputColumn("l", l.ref("n")), OutputColumn("r", r.ref("n"))]


def _on(op, shape, l, r):
    """``l.k <op> r.k`` alone, with ``l.c = r.c`` (a composite equi-key), or
    with ``l.c <= r.c`` -- as true, but no equi-key at all."""
    conjuncts = [ast.Comparison(op, l.ref("k"), r.ref("k"))]
    if shape == "composite":
        conjuncts.append(ast.Comparison("=", l.ref("c"), r.ref("c")))
    elif shape == "fallback":
        conjuncts.append(ast.Comparison("<=", l.ref("c"), r.ref("c")))
    return conjuncts


def _hash_join(op, shape):
    """``select l.n, r.n from l, r where <on>`` as scan l / hash join r /
    the re-check filters."""
    box = SelectBox()
    l = box.add_quantifier(_table("l"), "l")
    r = box.add_quantifier(_table("r"), "r")
    box.predicates = _on(op, shape, l, r)
    box.outputs = _numbers(l, r)
    join = HashJoinStep(
        r,
        tuple(p.right for p in box.predicates),
        tuple(p.left for p in box.predicates),
        tuple(p.op == "<=>" for p in box.predicates),
    )
    plan = SelectPlan(
        box, [ScanStep(l), join, *map(PredicateStep, box.predicates)],
        estimated_rows=0.0,
    )
    plan.compiled = compile_select(plan)
    return box, {box.id: plan}


def _outer_join(op, shape):
    """``select l.n, r.n from l left join r on <on>``."""
    l, r = Quantifier("l", _table("l")), Quantifier("r", _table("r"))
    conjuncts = _on(op, shape, l, r)
    condition = conjuncts[0] if len(conjuncts) == 1 else ast.And(conjuncts)
    return OuterJoinBox(l, r, condition, _numbers(l, r)), {}


def _group_by(op, shape):
    """``select k, count(*), min(n), sum(n) from l group by <key>``."""
    l = Quantifier("l", _table("l"))
    key = [l.ref("k")] + ([l.ref("c")] if shape == "composite" else [])
    return GroupByBox(l, group_by=key, outputs=[
        OutputColumn("k", l.ref("k")),
        OutputColumn("size", ast.AggregateCall("count", None)),
        OutputColumn("first", ast.AggregateCall("min", l.ref("n"))),
        OutputColumn("total", ast.AggregateCall("sum", l.ref("n"))),
    ]), {}


def _distinct(op, shape):
    """``select distinct <key> from l``."""
    box = SelectBox(distinct=True)
    l = box.add_quantifier(_table("l"), "l")
    key = [l.ref("k")] + ([l.ref("c")] if shape == "composite" else [])
    box.outputs = [OutputColumn(ref.column, ref) for ref in key]
    plan = SelectPlan(box, [ScanStep(l)], estimated_rows=0.0)
    plan.compiled = compile_select(plan)
    return box, {box.id: plan}


def _run(operator, op, shape, left, right=()):
    """(rows, counted work) of ``operator`` over ``l`` = ``left`` and ``r`` =
    ``right``, or the ``SchemaError`` it raised."""
    box, plans = operator(op, shape)
    ctx = ExecutionContext(_catalog(l=left, r=right), box)
    ctx.seed_plans(plans)
    try:
        rows = ctx.box_rows(box)
    except SchemaError as error:
        return ("SchemaError", str(error))
    work = ctx.metrics.as_dict()
    return rows, {name: work[name] for name in WORK}


def _compared(op, a, b):
    """``a <op> b`` is TRUE -- or the ``SchemaError`` of comparing them."""
    try:
        return COMPARISONS[op](a, b) is True
    except SchemaError as error:
        return ("SchemaError", str(error))


def _probed(op, a, b):
    """The same for a pair that meets through a hash table: two values that
    do not hash alike are never compared, so they neither match nor fail."""
    if a is not None and b is not None and a != b:
        return False
    return _compared(op, a, b)


def _joined(matches, left, right, preserve):
    """The ``(l.n, r.n)`` rows of a join by ``matches(a, b)``; an outer join
    keeps (``preserve``) a left row nothing matched."""
    rows = []
    for i, a in enumerate(left):
        found = [(i, j) for j, b in enumerate(right) if matches(a, b) is True]
        rows.extend(found or ([(i, None)] if preserve else []))
    return rows


JOINS = {
    # operator, its key shapes, what decides a pair, outer?
    "hash-join": (_hash_join, ("one-column", "composite"), _probed, False),
    "outer-join": (_outer_join, ("one-column", "composite"), _probed, True),
    "outer-join-fallback": (_outer_join, ("fallback",), _compared, True),
}


@pytest.mark.parametrize("name", sorted(JOINS))
@pytest.mark.parametrize("op", OPS)
def test_a_pair_joins_when_the_comparison_is_true(op, name):
    """Each pair alone: matched, not matched, or the error of the first
    comparison -- operands left then right -- and the same through every
    way to write the key."""
    operator, shapes, decides, preserve = JOINS[name]
    for a, b in PAIRS:
        decided = decides(op, a, b)
        outcomes = [_run(operator, op, shape, [a], [b]) for shape in shapes]
        assert all(outcome == outcomes[0] for outcome in outcomes), (a, b)
        if isinstance(decided, tuple):
            assert outcomes[0] == decided, (a, b)
        else:
            rows, _ = outcomes[0]
            assert rows == _joined(
                lambda *_: decided, [a], [b], preserve
            ), (a, b)


@pytest.mark.parametrize("name", sorted(JOINS))
@pytest.mark.parametrize("op", OPS)
def test_a_batch_joins_in_order_and_counts_what_it_built(op, name):
    operator, shapes, decides, preserve = JOINS[name]
    # A hash probe never compares a number with a string; the fallback does.
    batches = [NUMBERS, ["a", "b", None, "a"]]
    if decides is _probed:
        batches.append(NO_BOOLS)
    for values in batches:
        left, right = values, values[::-1]
        outcomes = [_run(operator, op, shape, left, right) for shape in shapes]
        assert all(outcome == outcomes[0] for outcome in outcomes)
        rows, work = outcomes[0]
        assert rows == _joined(
            lambda a, b: decides(op, a, b), left, right, preserve
        )
        matched = sum(1 for row in rows if row[1] is not None)
        # The plan of the inner join also counts its scan of ``l``.
        scanned = len(left) if operator is _hash_join else 0
        assert work["rows_joined"] == scanned + matched
        if decides is _probed:
            # The build holds the right rows that can match at all: under
            # ``=`` not the NULL keys. The box's own result is kept too.
            built = [k for k in right if k is not None or op == "<=>"]
            assert work["rows_materialized"] == len(built) + len(rows)


@pytest.mark.parametrize("operator", [_hash_join, _outer_join])
@pytest.mark.parametrize("shape", ["one-column", "composite"])
def test_null_keys_match_only_each_other_and_only_when_null_safe(
    operator, shape
):
    keys = [None, 1, None]
    plain, _ = _run(operator, "=", shape, keys, keys)
    safe, _ = _run(operator, "<=>", shape, keys, keys)
    if operator is _outer_join:
        assert plain == [(0, None), (1, 1), (2, None)]
    else:
        assert plain == [(1, 1)]
    assert safe == [(0, 0), (0, 2), (1, 1), (2, 0), (2, 2)]


@pytest.mark.parametrize("operator", [_hash_join, _outer_join])
@pytest.mark.parametrize("shape", ["one-column", "composite"])
@pytest.mark.parametrize("op", OPS)
def test_int_and_float_are_one_key_and_int_and_bool_an_error(
    op, shape, operator
):
    rows, _ = _run(operator, op, shape, [2, 2.0], [2.0])
    assert rows == [(0, 0), (1, 0)]
    for a, b in ((1, True), (True, 1), (0, False)):
        assert _run(operator, op, shape, [a], [b]) == _compared("=", a, b)
        assert _compared("=", a, b) == (
            "SchemaError", f"cannot compare {a!r} with {b!r}"
        )


@pytest.mark.parametrize("operator", [_group_by, _distinct])
def test_grouping_keys(operator):
    """Groups come in first-appearance order, NULLs are one of them, 2 and
    2.0 are one key -- however the key is written."""
    keys = NO_BOOLS + NO_BOOLS[::-1] + [None, 2.0]
    one, one_work = _run(operator, None, "one-column", keys)
    two, two_work = _run(operator, None, "composite", keys)
    assert one_work == two_work
    # None, 1, 2 (= 2.0), 1.5, "a", "b"
    firsts = [v for v in NO_BOOLS if v != 2 or isinstance(v, int)]
    assert [row[0] for row in one] == firsts == [row[0] for row in two]
    if operator is _group_by:
        assert one == two
        members = {
            k: [n for n, other in enumerate(keys) if (
                other is None if k is None else other is not None and other == k
            )]
            for k in firsts
        }
        assert one == [
            (k, len(members[k]), min(members[k]), sum(members[k]))
            for k in firsts
        ]
        assert one_work["rows_grouped"] == len(keys)
        assert one_work["rows_materialized"] == len(keys) + len(firsts)
    else:
        assert [row[1:] for row in two] == [(CONSTANT,)] * len(firsts)


# -- projections ------------------------------------------------------------

PROJECTIONS = {
    "all-columns": lambda q: [q.ref("k"), q.ref("c"), q.ref("n")],
    "one-column": lambda q: [q.ref("n")],
    "columns-reordered": lambda q: [q.ref("n"), q.ref("k"), q.ref("n")],
    "literal-among-columns": lambda q: [
        q.ref("k"), ast.Literal(1), q.ref("n"),
    ],
    "all-literals": lambda q: [ast.Literal(1), ast.Literal("x")],
    "one-literal": lambda q: [ast.Literal(None)],
    "closure-among-columns": lambda q: [
        q.ref("n"),
        ast.BinaryOp("+", q.ref("n"), ast.Literal(1)),
        ast.Literal(0),
        q.ref("k"),
    ],
    "parameter-among-columns": lambda q: [q.ref("n"), ast.Parameter(0)],
    "one-closure": lambda q: [ast.FunctionCall("coalesce", [q.ref("k")])],
}


@pytest.mark.parametrize("name", sorted(PROJECTIONS))
@pytest.mark.parametrize("n_members", [0, 1, len(NUMBERS)])
def test_a_projection_is_one_tuple_per_member(name, n_members):
    """Columns, literals and closures in any mix: as many rows as members
    (a literal reads none, and still the projection ends), each what
    ``compile_expr`` gives member by member."""
    box = SelectBox()
    q = box.add_quantifier(_table("l"), "l")
    exprs = PROJECTIONS[name](q)
    box.outputs = [OutputColumn(f"c{i}", e) for i, e in enumerate(exprs)]
    plan = SelectPlan(box, [ScanStep(q)], estimated_rows=0.0)
    plan.compiled = compile_select(plan)
    catalog = _catalog(l=NUMBERS[:n_members])
    ctx = ExecutionContext(catalog, box, params=("p",))
    ctx.seed_plans({box.id: plan})
    rows = ctx.box_rows(box)
    assert len(rows) == n_members
    by_member = [compile_expr(e, {q: 0}) for e in exprs]
    assert rows == [
        tuple(fn(member, ctx) for fn in by_member)
        for member in catalog.table("l").rows
    ]


def test_a_scalar_aggregate_over_no_rows_is_one_all_null_row():
    """The empty group-by list: one group whether or not there is a row, its
    plain outputs read from an all-NULL input row."""
    l = Quantifier("l", _table("l"))
    box = GroupByBox(l, outputs=[
        OutputColumn("k", l.ref("k")),
        OutputColumn("first", ast.AggregateCall("min", l.ref("n"))),
        OutputColumn("total", ast.AggregateCall("sum", l.ref("n"))),
        OutputColumn("one", ast.Literal(1)),
    ])
    ctx = ExecutionContext(_catalog(l=[]), box)
    assert ctx.box_rows(box) == [(None, None, None, 1)]
    ctx = ExecutionContext(_catalog(l=[5, None, 6]), box)
    assert ctx.box_rows(box) == [(5, 0, 3, 1)]
