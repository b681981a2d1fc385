"""``compile_filter``: whatever the shape of the predicate -- a comparison
kernel or the member-by-member filter -- a WHERE step keeps exactly the
members ``COMPARISONS[op]`` is TRUE for and raises exactly when it does."""

from typing import Callable, NamedTuple, Optional

import pytest

from repro.errors import ExecutionError, SchemaError
from repro.exec import evaluate
from repro.exec.evaluate import compile_filter
from repro.exec.executor import ExecutionContext
from repro.qgm.model import BaseTableBox, Quantifier
from repro.sql import ast
from repro.storage import Catalog
from repro.types import COMPARISONS

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


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_which_shapes_get_a_kernel(name, monkeypatch):
    """A kernel never compiles the comparison into a per-member closure."""
    compiled = []
    compile_expr = evaluate.compile_expr

    def spy(expr, offsets):
        compiled.append(type(expr))
        return compile_expr(expr, offsets)

    monkeypatch.setattr(evaluate, "compile_expr", spy)
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
