"""``compile_filter``: whatever the shape of the predicate -- a comparison
kernel or the member-by-member filter -- a WHERE step keeps exactly the
members ``COMPARISONS[op]`` is TRUE for and raises exactly when it does.
``compile_lookup_filter``: the same when the index lookup ahead of the step
applies it to the rows it fetches, and which steps it does that for."""

from typing import Callable, NamedTuple, Optional

import pytest

from repro.errors import ExecutionError, SchemaError
from repro.exec import evaluate, executor
from repro.exec.evaluate import compile_filter
from repro.exec.executor import ExecutionContext, compile_select
from repro.plan.planner import (
    IndexLookupStep,
    PredicateStep,
    ScanStep,
    SelectPlan,
    SubqueryEvalStep,
)
from repro.qgm.expr import BoxScalarSubquery
from repro.qgm.model import BaseTableBox, OutputColumn, Quantifier, SelectBox
from repro.sql import ast
from repro.storage import Catalog, Column, Schema
from repro.types import COMPARISONS, SQLType, tv_not

OPS = ("=", "<>", "!=", "<", "<=", ">", ">=")
#: NULL and two values of each class, 2 and 2.0 equal across classes.
VALUES = (None, False, True, 1, 2, 1.5, 2.0, "a", "b")
PAIRS = [(a, b) for a in VALUES for b in VALUES]

T = BaseTableBox("t", ["a", "b"])
Q = Quantifier("q", T)
#: A quantifier of an enclosing box: its column is the first slot of a row.
OUTER = Quantifier("o", BaseTableBox("u", ["x"]))
OWN = {Q: 0}
WITH_OUTER = {(OUTER, "x"): 0, Q: 1}


class Shape(NamedTuple):
    """One way to write ``a <op> b``. ``predicate(op, constant)`` is the
    expression, the layout of its row and the ``?`` values of the
    execution; ``member(a, b)`` the row that holds the pair; ``constant``
    says which operand, if any, is in the predicate instead of the row."""

    predicate: Callable
    member: Callable
    constant: Optional[str] = None
    kernel: bool = True


def _coalesce(expr):
    return ast.FunctionCall("coalesce", [expr])


SHAPES = {
    "column-column": Shape(
        lambda op, _: (ast.Comparison(op, Q.ref("a"), Q.ref("b")), OWN, ()),
        lambda a, b: (a, b),
    ),
    "column-outer": Shape(
        lambda op, _: (
            ast.Comparison(op, Q.ref("a"), OUTER.ref("x")), WITH_OUTER, ()
        ),
        lambda a, b: (b, a, None),
    ),
    "column-literal": Shape(
        lambda op, b: (ast.Comparison(op, Q.ref("a"), ast.Literal(b)), OWN, ()),
        lambda a, b: (a, None),
        constant="right",
    ),
    "column-parameter": Shape(
        lambda op, b: (
            ast.Comparison(op, Q.ref("a"), ast.Parameter(0)), OWN, (b,)
        ),
        lambda a, b: (a, None),
        constant="right",
    ),
    "literal-column": Shape(
        lambda op, a: (ast.Comparison(op, ast.Literal(a), Q.ref("b")), OWN, ()),
        lambda a, b: (None, b),
        constant="left", kernel=False,
    ),
    "expression-column": Shape(
        lambda op, _: (
            ast.Comparison(op, _coalesce(Q.ref("a")), Q.ref("b")), OWN, ()
        ),
        lambda a, b: (a, b),
        kernel=False,
    ),
}


def _ctx(params=()):
    return ExecutionContext(Catalog(), T, params=params)


def _outcome(run):
    try:
        return run()
    except SchemaError as error:
        return ("SchemaError", str(error))


def _kept(op, shape, pairs):
    """What ``COMPARISONS[op]`` says a filter over ``pairs`` gives."""
    return [
        shape.member(a, b) for a, b in pairs if COMPARISONS[op](a, b) is True
    ]


def _filtered(op, shape, pairs):
    """``pairs`` through one compiled filter, as one batch."""
    a, b = pairs[0]
    expr, offsets, params = shape.predicate(
        op, a if shape.constant == "left" else b
    )
    keep = compile_filter(expr, offsets)
    return keep([shape.member(a, b) for a, b in pairs], _ctx(params))


@pytest.mark.parametrize("name", sorted(SHAPES))
@pytest.mark.parametrize("op", OPS)
def test_keeps_what_the_comparison_is_true_for(op, name):
    shape = SHAPES[name]
    for pair in PAIRS:
        assert _outcome(lambda: _filtered(op, shape, [pair])) == _outcome(
            lambda: _kept(op, shape, [pair])
        ), pair


@pytest.mark.parametrize("name", sorted(SHAPES))
@pytest.mark.parametrize("op", OPS)
def test_a_batch_keeps_its_order_and_fails_at_its_first_bad_member(op, name):
    """One compiled filter over many members: what is kept comes out in
    the order it went in, and the first incomparable member raises its
    own error although the members before it were fine."""
    shape = SHAPES[name]
    if shape.constant is None:
        batches = [PAIRS]
    else:
        side = 0 if shape.constant == "left" else 1
        batches = [[p for p in PAIRS if p[side] is c] for c in VALUES]
    for pairs in batches:
        assert _outcome(lambda: _filtered(op, shape, pairs)) == _outcome(
            lambda: _kept(op, shape, pairs)
        )
        # Comparable members only, so that a batch is kept, not refused.
        fine = [
            pair for pair in pairs
            if not isinstance(_outcome(lambda: _kept(op, shape, [pair])), tuple)
        ]
        assert _filtered(op, shape, fine) == _kept(op, shape, fine)


# -- ``column IN (...)`` ----------------------------------------------------


class InList(NamedTuple):
    """``a IN (items)`` (or ``NOT IN``) over ``(a, None)`` members."""

    items: tuple
    negated: bool = False
    kernel: bool = False

    def expr(self):
        return ast.InList(
            Q.ref("a"), tuple(ast.Literal(v) for v in self.items), self.negated
        )


IN_LISTS = {
    "in-bool": InList((True,), kernel=True),
    "in-int": InList((2, 3), kernel=True),
    "in-float": InList((2.0, 2.5), kernel=True),
    "in-str": InList(("b", "c"), kernel=True),
    "in-with-null": InList((2, None)),
    "in-mixed-classes": InList((2, "b")),
    "not-in": InList((2, 3), negated=True),
}


def _in(value, shape):
    """``value IN (items)`` by ``COMPARISONS["="]``, item by item."""
    truth = False
    for item in shape.items:
        equal = COMPARISONS["="](value, item)
        if equal is True:
            truth = True
            break
        if equal is None:
            truth = None
    return tv_not(truth) if shape.negated else truth


@pytest.mark.parametrize("name", sorted(IN_LISTS))
def test_an_in_list_keeps_and_refuses_what_member_by_member_does(name):
    """Each value alone, every value as one batch, and the values that
    compare as one batch: what is kept, in order, and the ``SchemaError``
    of the first incomparable member."""
    shape = IN_LISTS[name]
    keep = compile_filter(shape.expr(), OWN)

    def kept(values):
        return [(a, None) for a in values if _in(a, shape) is True]

    def filtered(values):
        return keep([(a, None) for a in values], _ctx())

    for values in [[a] for a in VALUES] + [list(VALUES)]:
        assert _outcome(lambda: filtered(values)) == _outcome(
            lambda: kept(values)
        ), values
    fine = [a for a in VALUES if not isinstance(_outcome(lambda: kept([a])), tuple)]
    assert filtered(fine) == kept(fine)


@pytest.mark.parametrize("name", sorted(SHAPES) + sorted(IN_LISTS))
def test_which_shapes_get_a_kernel(name, monkeypatch):
    """A kernel never compiles the comparison into a per-member closure,
    and an ``IN`` kernel never calls one for a value of its items' class."""
    compiled, called = [], []
    compile_expr = evaluate.compile_expr

    def spy(expr, offsets):
        compiled.append(type(expr))
        closure = compile_expr(expr, offsets)

        def counted(row, ctx):
            called.append(type(expr))
            return closure(row, ctx)

        return counted

    monkeypatch.setattr(evaluate, "compile_expr", spy)
    if name in IN_LISTS:
        shape = IN_LISTS[name]
        keep = compile_filter(shape.expr(), OWN)
        cls = shape.items[0].__class__
        members = [(a, None) for a in VALUES if a.__class__ is cls]
        _outcome(lambda: keep(members, _ctx()))  # a mixed list may refuse one
        assert (ast.InList not in called) == shape.kernel
        return
    for op in OPS:
        expr, offsets, _ = SHAPES[name].predicate(op, 1)
        compile_filter(expr, offsets)
    assert (ast.Comparison not in compiled) == SHAPES[name].kernel


def test_null_safe_equality_has_no_kernel_and_keeps_null_pairs():
    expr, offsets, _ = SHAPES["column-column"].predicate("<=>", None)
    keep = compile_filter(expr, offsets)
    members = [(None, None), (1, None), (1, 1), (1, 2), (None, 2)]
    assert keep(members, _ctx()) == [(None, None), (1, 1)]


@pytest.mark.parametrize("left", [
    Q.ref("a"), _coalesce(Q.ref("a")),
], ids=["kernel", "member-by-member"])
def test_an_unbound_parameter_is_the_existing_error(left):
    keep = compile_filter(ast.Comparison("=", left, ast.Parameter(1)), OWN)
    with pytest.raises(
        ExecutionError, match=r"unbound parameter \?1 \(1 value\(s\) supplied\)"
    ):
        keep([(1, 2)], _ctx(params=(7,)))
    assert keep([(7, 2), (8, 2), (None, 2)], _ctx(params=(0, 7))) == [(7, 2)]
    assert keep([(7, 2)], _ctx(params=(0, None))) == []


# -- the same comparisons inside the index lookup ahead of them --------------
#
# ``select m.k, f.n from m, f where f.k = m.k and <predicate>`` as the plan
# scan m / index lookup f / filter: ``m(k, v)`` holds one row per member,
# ``f(k, a, n)`` the rows fetched for member ``k``, numbered by ``n``.


class Fused(NamedTuple):
    """One way to write ``a <op> b`` with one operand in the fetched row.
    ``predicate(op, m, f, value)`` is the expression over the quantifiers of
    the plan; ``fetched`` says which operand ``f.a`` is and ``other`` where
    the second one is: the ``member``'s ``m.v``, the one ``outer`` value
    of the box, or in the predicate (``literal``, ``parameter``)."""

    predicate: Callable
    fetched: str
    other: str


FUSED = {
    "fetched-member": Fused(
        lambda op, m, f, _: ast.Comparison(op, f.ref("a"), m.ref("v")),
        "left", "member",
    ),
    "member-fetched": Fused(
        lambda op, m, f, _: ast.Comparison(op, m.ref("v"), f.ref("a")),
        "right", "member",
    ),
    "fetched-outer": Fused(
        lambda op, m, f, _: ast.Comparison(op, f.ref("a"), OUTER.ref("x")),
        "left", "outer",
    ),
    "outer-fetched": Fused(
        lambda op, m, f, _: ast.Comparison(op, OUTER.ref("x"), f.ref("a")),
        "right", "outer",
    ),
    "fetched-literal": Fused(
        lambda op, m, f, b: ast.Comparison(op, f.ref("a"), ast.Literal(b)),
        "left", "literal",
    ),
    "fetched-parameter": Fused(
        lambda op, m, f, _: ast.Comparison(op, f.ref("a"), ast.Parameter(0)),
        "left", "parameter",
    ),
}


def _lookup_plan(predicate_of, then=()):
    """The plan above around ``predicate_of(m, f)``; ``then(box)`` is what
    follows the lookup instead of just the filter."""
    box = SelectBox()
    m = box.add_quantifier(BaseTableBox("m", ["k", "v"]), "m")
    f = box.add_quantifier(BaseTableBox("f", ["k", "a", "n"]), "f")
    predicate = predicate_of(m, f)
    box.predicates = [predicate]
    box.outputs = [
        OutputColumn("member", m.ref("k")), OutputColumn("row", f.ref("n")),
    ]
    lookup = IndexLookupStep(f, "f_k", ("k",), (m.ref("k"),))
    after = then(box) if then else [PredicateStep(predicate)]
    return SelectPlan(box, [ScanStep(m), lookup, *after], estimated_rows=0.0)


#: The type a column holding values of each class is declared as.
DECLARED = {
    bool: SQLType.BOOL, int: SQLType.INT, float: SQLType.FLOAT, str: SQLType.STR,
}


def _declared(name, values):
    """Column ``name`` declared with the type of the one class of
    ``values``, NULL aside (INT when they are all NULL)."""
    classes = {v.__class__ for v in values if v is not None}
    assert len(classes) <= 1, values
    return Column(name, DECLARED[classes.pop()] if classes else SQLType.INT)


def _lookup_catalog(members, fetched):
    """``members``: the ``v`` of each member; ``fetched``: per member the
    ``a`` of each row its probe finds. Each column is declared with the type
    of the class it holds and filled by ``insert_many``: the tables hold
    what a schema lets in, as every table does."""
    catalog = Catalog()
    values = [a for row in fetched for a in row]
    keys = [k for k, row in enumerate(fetched) for _ in row]
    m = catalog.create_table(
        "m", Schema([Column("k", SQLType.INT), _declared("v", members)])
    )
    f = catalog.create_table("f", Schema([
        Column("k", SQLType.INT), _declared("a", values), Column("n", SQLType.INT),
    ]))
    f.create_index("f_k", ["k"])
    m.insert_many(enumerate(members))
    f.insert_many((k, a, n) for n, (k, a) in enumerate(zip(keys, values)))
    return catalog


def _unfused(expr, offsets, quantifier):
    """``compile_lookup_filter`` for a plan compiled step by step."""
    return None


def _compiled_plan(op, shape, other, fuse, monkeypatch):
    """The plan around ``shape``'s predicate, its lookup applying the filter
    (``fuse``) or compiled step by step."""
    with monkeypatch.context() as patch:
        if not fuse:
            patch.setattr(executor, "compile_lookup_filter", _unfused)
        plan = _lookup_plan(lambda m, f: shape.predicate(op, m, f, other))
        plan.compiled = compile_select(plan)
    return plan


def _looked_up(op, shape, members, fetched, other=None, *, fuse, monkeypatch):
    """(kept ``(member, row)`` pairs, counted work) of the plan over the
    catalog of ``members`` and ``fetched``, or the error it raised."""
    plan = _compiled_plan(op, shape, other, fuse, monkeypatch)
    assert plan.compiled.fused == (frozenset({1}) if fuse else frozenset())
    ctx = ExecutionContext(
        _lookup_catalog(members, fetched), plan.box,
        params=(other,) if shape.other == "parameter" else (),
    )
    ctx.seed_plans({plan.box.id: plan})
    try:
        rows = ctx.box_rows(plan.box, (other,) if shape.other == "outer" else ())
    except SchemaError as error:
        return ("SchemaError", str(error))
    return rows, ctx.metrics.as_dict()


#: NULL and the values of one class: what one declared column may hold.
COLUMNS = [
    [v for v in VALUES if v is None or v.__class__ is cls]
    for cls in (bool, int, float, str)
]


def _batches(shape):
    """(members, fetched, other value, the (a, b) of every fetched row in
    order) -- each pair alone, then as many at once as the shape holds: a
    whole column of each class for one other value, and, when the other
    operand is the member's, every member of a column of one class against
    a column of another."""
    flip = (lambda a, b: (a, b)) if shape.fetched == "left" else (
        lambda a, b: (b, a)
    )
    for a, b in PAIRS:  # ``a``: the fetched value, ``b``: the other
        yield [b], [[a]], b, [flip(a, b)]
    for b in VALUES:
        for column in COLUMNS:
            yield [b], [column], b, [flip(a, b) for a in column]
    if shape.other == "member":
        for members in COLUMNS:
            for column in COLUMNS:
                yield (
                    members, [column] * len(members), None,
                    [flip(a, b) for b in members for a in column],
                )


@pytest.mark.parametrize("name", sorted(FUSED))
@pytest.mark.parametrize("op", OPS)
def test_a_lookup_that_filters_keeps_what_the_filter_after_it_would(
    op, name, monkeypatch
):
    """Rows, every count and the ``SchemaError`` of the first incomparable
    pair -- operands left then right -- are those of the plan compiled step
    by step, which in turn are what ``COMPARISONS[op]`` says."""
    shape = FUSED[name]
    for members, fetched, other, pairs in _batches(shape):
        step_by_step = _looked_up(
            op, shape, members, fetched, other, fuse=False, monkeypatch=monkeypatch
        )
        fused = _looked_up(
            op, shape, members, fetched, other, fuse=True, monkeypatch=monkeypatch
        )
        if step_by_step[0] == "SchemaError":
            # Both name the first incomparable pair, but only the plan
            # compiled step by step has probed every key by then.
            assert fused == step_by_step, (members, fetched)
            assert _outcome(lambda: [COMPARISONS[op](a, b) for a, b in pairs]) == (
                step_by_step
            )
            continue
        assert fused == step_by_step, (members, fetched)
        rows, work = fused
        keys = [k for k, row in enumerate(fetched) for _ in row]
        assert rows == [
            (keys[n], n) for n, (a, b) in enumerate(pairs)
            if COMPARISONS[op](a, b) is True
        ]
        assert work["index_lookups"] == len(members)
        assert work["index_rows"] == len(pairs)


@pytest.mark.parametrize("name", sorted(FUSED))
def test_null_keeps_nothing_and_the_probe_still_counts(name, monkeypatch):
    shape = FUSED[name]
    for members, fetched, other in (
        ([None], [[1, 2, None]], None),  # NULL in the other operand
        ([1], [[None, None]], 1),  # NULL in the fetched column
        ([1], [[]], 1),  # nothing fetched at all
    ):
        rows, work = _looked_up(
            "=", shape, members, fetched, other, fuse=True, monkeypatch=monkeypatch
        )
        assert rows == []
        assert work["index_lookups"] == 1
        assert work["index_rows"] == len(fetched[0])


@pytest.mark.parametrize(
    "name", sorted(n for n, shape in FUSED.items() if shape.other != "member")
)
def test_equality_to_an_operand_of_the_stored_class_tests_no_class(
    name, monkeypatch
):
    """``=`` against an operand the whole batch shares reads it once; when
    it is of the class the fetched column is stored as, the fetched values
    are compared with it as they are. An operand of another class -- an int
    against a FLOAT column, a bool against an INT one -- goes to the
    comprehension that tests each pair's classes, reading it per member."""
    reads, compared = [], []
    compile_expr, equal = evaluate.compile_expr, COMPARISONS["="]

    def spy(expr, offsets):
        closure = compile_expr(expr, offsets)

        def read(row, ctx):
            reads.append(expr)
            return closure(row, ctx)

        return read

    def counted(a, b):
        compared.append((a, b))
        return equal(a, b)

    monkeypatch.setattr(evaluate, "compile_expr", spy)
    monkeypatch.setitem(evaluate.COMPARISONS, "=", counted)
    shape = FUSED[name]
    for column, b, each in (
        ([None, 1, 2], 2, False),
        ([None, 1.5, 2.0], 2.0, False),
        ([None, "a", "b"], "b", False),
        ([None, False, True], True, False),
        ([None, 1.5, 2.0], 2, True),
        ([None, 1, 2], True, True),
    ):
        reads.clear()
        compared.clear()
        outcome = _looked_up(
            "=", shape, [None] * 3, [column] * 3, b,
            fuse=True, monkeypatch=monkeypatch,
        )
        pairs = [(a, b) for _ in range(3) for a in column]
        if shape.fetched == "right":
            pairs = [(b, a) for a, b in pairs]
        expected = _outcome(lambda: [
            (k // len(column), k) for k, (x, y) in enumerate(pairs)
            if equal(x, y) is True
        ])
        kept = outcome if outcome[0] == "SchemaError" else outcome[0]
        assert kept == expected, (column, b)
        assert (len(reads) > 1) == each == bool(compared), (column, b)


@pytest.mark.parametrize("fuse", [True, False], ids=["fused", "step-by-step"])
def test_an_unbound_parameter_inside_a_lookup_is_the_existing_error(
    fuse, monkeypatch
):
    plan = _compiled_plan("=", FUSED["fetched-parameter"], None, fuse, monkeypatch)

    def run(fetched):
        ctx = ExecutionContext(_lookup_catalog([1], fetched), plan.box)
        ctx.seed_plans({plan.box.id: plan})
        return ctx.box_rows(plan.box)

    with pytest.raises(
        ExecutionError, match=r"unbound parameter \?0 \(0 value\(s\) supplied\)"
    ):
        run([[7]])
    # No row fetched, no filter run: nothing reads the parameter.
    assert run([[]]) == []


def _scalar_step(box):
    """A ``SubqueryEvalStep`` (and the filter reading its value) for ``box``."""
    inner = SelectBox()
    u = inner.add_quantifier(BaseTableBox("m", ["k", "v"]), "u")
    inner.outputs = [OutputColumn("k", u.ref("k"))]
    node = BoxScalarSubquery(inner)
    f = box.quantifiers[1]
    predicate = ast.Comparison("=", f.ref("a"), node)
    box.predicates = [predicate]
    return [SubqueryEvalStep(node), PredicateStep(predicate)]


def _later_quantifier(box):
    """A filter reading a quantifier that a step after it binds."""
    g = box.add_quantifier(BaseTableBox("m", ["k", "v"]), "g")
    predicate = ast.Comparison("=", box.quantifiers[1].ref("a"), g.ref("v"))
    box.predicates = [predicate]
    return [PredicateStep(predicate), ScanStep(g)]


NOT_FUSED = {
    "null-safe": lambda m, f: ast.Comparison("<=>", f.ref("a"), m.ref("v")),
    "conjunction": lambda m, f: ast.And([
        ast.Comparison("=", f.ref("a"), m.ref("v")),
        ast.Comparison(">", f.ref("a"), ast.Literal(0)),
    ]),
    "constant-on-the-left": lambda m, f: ast.Comparison(
        "=", ast.Literal(1), f.ref("a")
    ),
    "arithmetic": lambda m, f: ast.Comparison(
        "=", f.ref("a"), ast.BinaryOp("+", m.ref("v"), ast.Literal(1))
    ),
    "both-fetched": lambda m, f: ast.Comparison("=", f.ref("a"), f.ref("k")),
    "neither-fetched": lambda m, f: ast.Comparison("=", m.ref("v"), ast.Literal(1)),
}


def test_which_steps_a_lookup_applies():
    """Only the filter right after the lookup, and only a kernel shape with
    the fetched column against something known before the probe."""
    for name, shape in FUSED.items():
        plan = _lookup_plan(lambda m, f: shape.predicate("<", m, f, 1))
        compiled = compile_select(plan)
        assert compiled.fused == {1}, name
        assert len(compiled.steps) == len(compiled.labels) == len(plan.steps) == 3
    for name, predicate_of in NOT_FUSED.items():
        assert compile_select(_lookup_plan(predicate_of)).fused == set(), name
    for then in (_scalar_step, _later_quantifier):
        plan = _lookup_plan(lambda m, f: ast.Literal(True), then)
        assert compile_select(plan).fused == set(), then.__name__

    def two_filters(box):
        first, second = (
            ast.Comparison(op, box.quantifiers[1].ref("a"), ast.Literal(1))
            for op in (">=", "<=")
        )
        box.predicates = [first, second]
        return [PredicateStep(first), PredicateStep(second)]

    compiled = compile_select(_lookup_plan(lambda m, f: ast.Literal(True), two_filters))
    assert compiled.fused == {1} and len(compiled.steps) == 4
