"""Expression compilation with SQL three-valued logic.

:func:`compile_expr` turns an expression tree into a Python closure
``fn(env, ctx)``: node kind, operator function, column ordinal, ``negated``
flags and function name/arity are resolved once, so evaluating a row costs
one call per node and no dispatch. ``env`` is an :class:`Env` -- the
bindings of quantifiers to current rows -- and ``ctx`` the running
:class:`~repro.exec.executor.ExecutionContext`. Closures never capture a
context: ``?`` parameters and subquery invocation go through the ``ctx``
argument, which is what lets one compiled plan serve every execution of a
cached query graph, concurrently.

Subquery expression nodes run the nested box through the executor with the
current env as the outer environment; this *is* nested iteration, and every
such run is counted in ``metrics.subquery_invocations``. Scalar subqueries
whose values were pre-computed by a ``SubqueryEvalStep`` are read from the
env cache instead.

An operator that iterates the rows of known quantifiers and whose
expressions read nothing else (:func:`reads_only`) compiles them with
``offsets`` instead: the closure's first argument is then the row tuple
itself and no :class:`Env` is allocated.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Optional

from ..errors import ExecutionError
from ..qgm.expr import (
    BOX_SUBQUERY_TYPES,
    BoxExists,
    BoxInSubquery,
    BoxQuantifiedComparison,
    BoxScalarSubquery,
    ColumnRef,
    walk_expr,
)
from ..sql import ast
from ..types import (
    ARITHMETIC,
    COMPARISONS,
    Truth,
    sql_like,
    tv_and,
    tv_not,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..qgm.model import Box, Quantifier
    from .executor import ExecutionContext

#: A compiled expression: ``fn(env, ctx)``, or ``fn(row, ctx)`` when it was
#: compiled with ``offsets``.
Compiled = Callable[[Any, "ExecutionContext"], Any]


class Env:
    """Quantifier bindings plus cached scalar-subquery values."""

    __slots__ = ("bindings", "values")

    def __init__(self, bindings: Optional[dict] = None, values: Optional[dict] = None):
        self.bindings: dict = bindings if bindings is not None else {}
        self.values: dict = values if values is not None else {}

    def bind(self, quantifier, row: tuple) -> "Env":
        """A new Env extending this one with ``quantifier -> row``."""
        return Env({**self.bindings, quantifier: row}, self.values)

    def with_value(self, key: int, value: Any) -> "Env":
        """A new Env caching a pre-computed scalar subquery value."""
        return Env(self.bindings, {**self.values, key: value})


def column_position(box: "Box", column: str) -> int:
    """Ordinal of ``column`` in ``box``'s output row."""
    try:
        return box.output_names().index(column)
    except ValueError:
        raise ExecutionError(
            f"box {box.id} has no output column {column!r}"
        ) from None


def flat_position(ref: ColumnRef, offsets: Mapping["Quantifier", int]) -> int:
    """Where ``ref``'s column sits in a flat row laid out by ``offsets``
    (quantifier -> position of its first column)."""
    quantifier = ref.quantifier
    return offsets[quantifier] + column_position(quantifier.box, ref.column)


def reads_only(exprs: Iterable[ast.Expr], quantifiers) -> bool:
    """Can ``exprs`` be evaluated from the rows of ``quantifiers`` alone --
    no reference to any other quantifier, no subquery to invoke?"""
    for expr in exprs:
        for node in walk_expr(expr):
            if isinstance(node, ColumnRef):
                if node.quantifier not in quantifiers:
                    return False
            elif isinstance(node, BOX_SUBQUERY_TYPES):
                return False
    return True


def compile_expr(
    expr: ast.Expr, offsets: Optional[Mapping["Quantifier", int]] = None
) -> Compiled:
    """Compile ``expr`` to a closure yielding its SQL value (``None`` =
    NULL / UNKNOWN).

    With ``offsets`` (quantifier -> position of its first column in a flat
    row) the closure reads a row tuple instead of an :class:`Env`; the
    caller has checked :func:`reads_only` over exactly those quantifiers.

    Everything that does not depend on the data is checked here, so an
    unknown column, an unknown function or a wrong argument count raises
    :class:`ExecutionError` whether or not any row reaches the expression.
    """

    def compile_(node: ast.Expr) -> Compiled:
        return compile_expr(node, offsets)

    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda env, ctx: value
    if isinstance(expr, ColumnRef):
        if offsets is not None:
            flat = flat_position(expr, offsets)
            return lambda row, ctx: row[flat]
        quantifier = expr.quantifier
        position = column_position(quantifier.box, expr.column)

        def column(env, ctx):
            try:
                return env.bindings[quantifier][position]
            except KeyError:
                raise ExecutionError(
                    f"unbound quantifier {quantifier.name!r} while evaluating "
                    f"{expr!r}"
                ) from None

        return column
    if isinstance(expr, ast.Parameter):
        index = expr.index

        def parameter(env, ctx):
            try:
                return ctx.params[index]
            except IndexError:
                raise ExecutionError(
                    f"unbound parameter ?{index} "
                    f"({len(ctx.params)} value(s) supplied)"
                ) from None

        return parameter
    if isinstance(expr, ast.BinaryOp):
        left, right = compile_(expr.left), compile_(expr.right)
        if expr.op == "||":

            def concat(env, ctx):
                a, b = left(env, ctx), right(env, ctx)
                if a is None or b is None:
                    return None
                return str(a) + str(b)

            return concat
        arithmetic = ARITHMETIC[expr.op]
        return lambda env, ctx: arithmetic(left(env, ctx), right(env, ctx))
    if isinstance(expr, ast.UnaryMinus):
        operand = compile_(expr.operand)

        def minus(env, ctx):
            value = operand(env, ctx)
            return None if value is None else -value

        return minus
    if isinstance(expr, ast.Comparison):
        compare = COMPARISONS[expr.op]
        left, right = compile_(expr.left), compile_(expr.right)
        return lambda env, ctx: compare(left(env, ctx), right(env, ctx))
    if isinstance(expr, ast.And):
        items = tuple(compile_(item) for item in expr.items)

        def conjunction(env, ctx):
            result: Truth = True
            for item in items:
                truth = item(env, ctx)
                if truth is False:
                    return False
                if truth is None:
                    result = None
            return result

        return conjunction
    if isinstance(expr, ast.Or):
        items = tuple(compile_(item) for item in expr.items)

        def disjunction(env, ctx):
            result: Truth = False
            for item in items:
                truth = item(env, ctx)
                if truth is True:
                    return True
                if truth is None:
                    result = None
            return result

        return disjunction
    if isinstance(expr, ast.Not):
        operand = compile_(expr.operand)
        return lambda env, ctx: tv_not(operand(env, ctx))
    if isinstance(expr, ast.IsNull):
        operand = compile_(expr.operand)
        if expr.negated:
            return lambda env, ctx: operand(env, ctx) is not None
        return lambda env, ctx: operand(env, ctx) is None
    if isinstance(expr, ast.Like):
        operand, pattern = compile_(expr.operand), compile_(expr.pattern)
        return _negate_if(
            expr.negated,
            lambda env, ctx: sql_like(operand(env, ctx), pattern(env, ctx)),
        )
    if isinstance(expr, ast.Between):
        operand = compile_(expr.operand)
        low, high = compile_(expr.low), compile_(expr.high)
        at_least, at_most = COMPARISONS[">="], COMPARISONS["<="]

        def between(env, ctx):
            value = operand(env, ctx)
            lower, upper = low(env, ctx), high(env, ctx)
            return tv_and(at_least(value, lower), at_most(value, upper))

        return _negate_if(expr.negated, between)
    if isinstance(expr, ast.InList):
        operand = compile_(expr.operand)
        items = tuple(compile_(item) for item in expr.items)
        equal = COMPARISONS["="]

        def in_list(env, ctx):
            value = operand(env, ctx)
            result: Truth = False
            for item in items:
                truth = equal(value, item(env, ctx))
                if truth is True:
                    return True
                if truth is None:
                    result = None
            return result

        return _negate_if(expr.negated, in_list)
    if isinstance(expr, ast.Case):
        whens = tuple(
            (compile_(condition), compile_(value))
            for condition, value in expr.whens
        )
        otherwise = (
            None if expr.otherwise is None else compile_(expr.otherwise)
        )

        def case(env, ctx):
            for condition, value in whens:
                if condition(env, ctx) is True:
                    return value(env, ctx)
            return None if otherwise is None else otherwise(env, ctx)

        return case
    if isinstance(expr, ast.FunctionCall):
        return _compile_function(expr, tuple(compile_(a) for a in expr.args))
    if isinstance(expr, BoxScalarSubquery):
        key = id(expr)

        def scalar(env, ctx):
            values = env.values
            if key in values:
                return values[key]
            return scalar_subquery_value(expr, env, ctx)

        return scalar
    if isinstance(expr, BoxExists):
        box = expr.box
        if expr.negated:
            return lambda env, ctx: not ctx.subquery_rows(box, env, first_only=True)
        return lambda env, ctx: bool(ctx.subquery_rows(box, env, first_only=True))
    if isinstance(expr, BoxInSubquery):
        operand = compile_(expr.operand)
        box = expr.box
        equal = COMPARISONS["="]
        return _negate_if(
            expr.negated,
            lambda env, ctx: _any(
                equal, operand(env, ctx), ctx.subquery_rows(box, env)
            ),
        )
    if isinstance(expr, BoxQuantifiedComparison):
        operand = compile_(expr.operand)
        box = expr.box
        compare = COMPARISONS[expr.op]
        quantify = _any if expr.quantifier_kind == "any" else _all
        return lambda env, ctx: quantify(
            compare, operand(env, ctx), ctx.subquery_rows(box, env)
        )
    if isinstance(expr, ast.AggregateCall):
        raise ExecutionError("aggregate call evaluated outside a GROUP BY box")
    raise ExecutionError(f"cannot evaluate expression {expr!r}")


def evaluate(expr: ast.Expr, env: Env, ctx: "ExecutionContext") -> Any:
    """Compile and evaluate ``expr`` once -- for one-off callers; operators
    compile once per box and keep the closure."""
    return compile_expr(expr)(env, ctx)


def predicate_holds(expr: ast.Expr, env: Env, ctx: "ExecutionContext") -> bool:
    """WHERE semantics: UNKNOWN does not qualify."""
    return evaluate(expr, env, ctx) is True


def scalar_subquery_value(
    node: BoxScalarSubquery, env: Env, ctx: "ExecutionContext"
) -> Any:
    """Run a scalar subquery: 0 rows -> NULL, >1 row -> error."""
    rows = ctx.subquery_rows(node.box, env)
    if len(rows) > 1:
        raise ExecutionError("scalar subquery returned more than one row")
    if not rows:
        return None
    row = rows[0]
    if len(row) != 1:
        raise ExecutionError("scalar subquery must return exactly one column")
    return row[0]


def _negate_if(negated: bool, truth: Compiled) -> Compiled:
    if not negated:
        return truth
    return lambda env, ctx: tv_not(truth(env, ctx))


def _any(compare, value: Any, rows: list[tuple]) -> Truth:
    """``value <compare> ANY (rows)`` over a one-column subquery result."""
    result: Truth = False
    for row in rows:
        truth = compare(value, row[0])
        if truth is True:
            return True
        if truth is None:
            result = None
    return result


def _all(compare, value: Any, rows: list[tuple]) -> Truth:
    """``value <compare> ALL (rows)`` over a one-column subquery result."""
    result: Truth = True
    for row in rows:
        truth = compare(value, row[0])
        if truth is False:
            return False
        if truth is None:
            result = None
    return result


#: Scalar functions: name -> (fewest, most) arguments (``None`` = no limit).
_FUNCTION_ARITY = {
    "coalesce": (1, None),
    "abs": (1, 1),
    "nullif": (2, 2),
    "upper": (1, 1),
    "lower": (1, 1),
}


def _compile_function(expr: ast.FunctionCall, args: tuple[Compiled, ...]) -> Compiled:
    name = expr.name.lower()
    arity = _FUNCTION_ARITY.get(name)
    if arity is None:
        raise ExecutionError(f"unknown function {expr.name!r}")
    fewest, most = arity
    if len(args) < fewest or (most is not None and len(args) > most):
        wanted = f"at least {fewest}" if most is None else str(most)
        raise ExecutionError(
            f"{name} takes {wanted} argument(s), got {len(args)}"
        )
    if name == "coalesce":

        def coalesce(env, ctx):
            for arg in args:
                value = arg(env, ctx)
                if value is not None:
                    return value
            return None

        return coalesce
    first = args[0]
    if name == "nullif":
        second = args[1]

        def nullif(env, ctx):
            a, b = first(env, ctx), second(env, ctx)
            return None if a == b else a

        return nullif
    apply = {"abs": abs, "upper": _upper, "lower": _lower}[name]

    def function(env, ctx):
        value = first(env, ctx)
        return None if value is None else apply(value)

    return function


def _upper(value: Any) -> str:
    return str(value).upper()


def _lower(value: Any) -> str:
    return str(value).lower()
