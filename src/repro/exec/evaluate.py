"""Expression compilation with SQL three-valued logic.

:func:`compile_expr` turns an expression tree into a Python closure
``fn(row, ctx)``: node kind, operator function, column slot, ``negated``
flags and function name/arity are resolved once, so evaluating a row costs
one call per node and no dispatch. ``row`` is the flat tuple of the box the
expression belongs to and ``ctx`` the running
:class:`~repro.exec.executor.ExecutionContext`. Closures never capture a
context or a row: ``?`` parameters and subquery invocation go through the
``ctx`` argument, which is what lets one compiled plan serve every
execution of a cached query graph, concurrently. :func:`compile_filter`
compiles a WHERE predicate over a whole batch of rows, and
:func:`compile_lookup_filter` over the rows an index lookup fetches, before
they are joined to anything; the two are the one place that knows WHERE
keeps only TRUE.

Every column reference is resolved here, at compile time, to a slot of that
row through ``offsets`` (:data:`Offsets`). The row starts with the values
the box's subtree reads from enclosing boxes (:func:`outer_refs`, one slot
each) -- whoever runs the box hands them over, having picked them out of
its own row (:func:`outer_values`) -- and goes on with the box's own
members. A reference that is neither is an error before any row is read.

Subquery expression nodes run the nested box through the executor, handing
it its outer values out of the current row; this *is* nested iteration, and
every such run is counted in ``metrics.subquery_invocations``. A scalar
subquery whose value a ``SubqueryEvalStep`` already put into the row is
read from its slot instead.
"""

from __future__ import annotations

import operator
from itertools import compress
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Optional

from ..errors import ExecutionError
from ..qgm.analysis import GraphFacts
from ..qgm.model import Box, Quantifier
from ..qgm.expr import (
    BoxExists,
    BoxInSubquery,
    BoxQuantifiedComparison,
    BoxScalarSubquery,
    ColumnRef,
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
    from ..storage.schema import Schema
    from .executor import ExecutionContext

#: A compiled expression: ``fn(row, ctx)`` over the flat row of its box.
Compiled = Callable[[tuple, "ExecutionContext"], Any]
#: What sits where in a box's flat row (:func:`row_layout`). Four kinds of
#: key: a quantifier of the box -> where its columns start; ``(quantifier,
#: column)`` of an outer reference -> the slot of the value handed down; a
#: scalar subquery node a ``SubqueryEvalStep`` evaluates -> the slot of its
#: value; a box this one runs -> the slots of that box's outer values.
Offsets = Mapping[Any, Any]
#: The outer values of a box to run, out of a row of the box running it.
Pick = Callable[[tuple], tuple]
#: A compiled WHERE predicate (:func:`compile_filter`): the members of a
#: batch it is TRUE for.
Filter = Callable[[list, "ExecutionContext"], list]
#: A WHERE predicate applied by the index lookup ahead of it
#: (:func:`compile_lookup_filter`): given a batch of members, the rows the
#: probe of each fetched and the schema of their table, ``member + row``
#: for each pair it is TRUE for.
LookupFilter = Callable[[list, list, "Schema", "ExecutionContext"], list]


def column_position(box: Box, column: str) -> int:
    """Ordinal of ``column`` in ``box``'s output row."""
    try:
        return box.output_names().index(column)
    except ValueError:
        raise ExecutionError(
            f"box {box.id} has no output column {column!r}"
        ) from None


def flat_position(ref: ColumnRef, offsets: Offsets) -> int:
    """Where ``ref``'s value sits in a flat row laid out by ``offsets``."""
    quantifier = ref.quantifier
    start = offsets.get(quantifier)
    if start is not None:
        return start + column_position(quantifier.box, ref.column)
    slot = offsets.get((quantifier, ref.column))
    if slot is None:
        raise ExecutionError(
            f"unbound quantifier {quantifier.name!r} while evaluating {ref!r}"
        )
    return slot


def outer_refs(box: Box) -> tuple[ColumnRef, ...]:
    """:meth:`GraphFacts.outer_refs <repro.qgm.analysis.GraphFacts.outer_refs>`,
    from a table of ``box``'s own."""
    return GraphFacts(box).outer_refs(box)


def row_layout(
    box: Box, members: Iterable, graph_facts: Optional[GraphFacts] = None
) -> tuple[tuple[ColumnRef, ...], dict]:
    """The outer references of ``box`` and the layout of its flat row: their
    values first, one slot each, then ``members`` in order -- a quantifier
    takes one slot per column, a pre-evaluated scalar subquery node one --
    and, for every box this one runs, where that box's outer values sit.
    ``graph_facts`` as for :func:`~repro.plan.planner.plan_select_box`."""
    facts = graph_facts or GraphFacts(box)
    params = facts.outer_refs(box)
    offsets: dict = {
        (ref.quantifier, ref.column): slot for slot, ref in enumerate(params)
    }
    width = len(params)
    for member in members:
        offsets[member] = width
        width += slots_of(member)
    for child in facts.children(box):
        offsets[child] = tuple(flat_position(ref, offsets) for ref in facts.outer_refs(child))
    return params, offsets


def slots_of(member: Any) -> int:
    """How many slots of a flat row a member of :func:`row_layout` takes:
    one per column of a quantifier, one for a scalar subquery node."""
    if isinstance(member, Quantifier):
        return len(member.box.output_names())
    return 1


def outer_values(box: Box, offsets: Offsets) -> Pick:
    """``pick(row)``: the outer values of ``box`` out of a row laid out by
    ``offsets`` -- the row of the box that runs it."""
    slots = offsets[box]
    if not slots:
        return lambda row: ()
    if len(slots) == 1:
        (slot,) = slots
        return lambda row: (row[slot],)
    return itemgetter(*slots)


def compile_expr(expr: ast.Expr, offsets: Offsets) -> Compiled:
    """Compile ``expr`` to a closure over a flat row laid out by ``offsets``,
    yielding its SQL value (``None`` = NULL / UNKNOWN).

    Everything that does not depend on the data is checked here, so an
    unknown column, an unbound quantifier, an unknown function or a wrong
    argument count raises :class:`ExecutionError` whether or not any row
    reaches the expression.
    """

    def compile_(node: ast.Expr) -> Compiled:
        return compile_expr(node, offsets)

    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda row, ctx: value
    if isinstance(expr, ColumnRef):
        flat = flat_position(expr, offsets)
        return lambda row, ctx: row[flat]
    if isinstance(expr, ast.Parameter):
        index = expr.index

        def parameter(row, ctx):
            try:
                return ctx.params[index]
            except IndexError:
                raise _unbound_parameter(index, ctx) from None

        return parameter
    if isinstance(expr, ast.BinaryOp):
        left, right = compile_(expr.left), compile_(expr.right)
        if expr.op == "||":

            def concat(row, ctx):
                a, b = left(row, ctx), right(row, ctx)
                if a is None or b is None:
                    return None
                return str(a) + str(b)

            return concat
        arithmetic = ARITHMETIC[expr.op]
        return lambda row, ctx: arithmetic(left(row, ctx), right(row, ctx))
    if isinstance(expr, ast.UnaryMinus):
        operand = compile_(expr.operand)

        def minus(row, ctx):
            value = operand(row, ctx)
            return None if value is None else -value

        return minus
    if isinstance(expr, ast.Comparison):
        compare = COMPARISONS[expr.op]
        if isinstance(expr.left, ColumnRef):
            # A column against a plain operand: both are read where they
            # are, not through an operand closure each.
            i = flat_position(expr.left, offsets)
            operand = expr.right
            if isinstance(operand, ColumnRef):
                j = flat_position(operand, offsets)
                return lambda row, ctx: compare(row[i], row[j])
            if isinstance(operand, ast.Literal):
                value = operand.value
                return lambda row, ctx: compare(row[i], value)
            if isinstance(operand, ast.Parameter):
                index = operand.index

                def column_to_parameter(row, ctx):
                    try:
                        value = ctx.params[index]
                    except IndexError:
                        raise _unbound_parameter(index, ctx) from None
                    return compare(row[i], value)

                return column_to_parameter
        left, right = compile_(expr.left), compile_(expr.right)
        return lambda row, ctx: compare(left(row, ctx), right(row, ctx))
    if isinstance(expr, ast.And):
        items = tuple(compile_(item) for item in expr.items)

        def conjunction(row, ctx):
            result: Truth = True
            for item in items:
                truth = item(row, ctx)
                if truth is False:
                    return False
                if truth is None:
                    result = None
            return result

        return conjunction
    if isinstance(expr, ast.Or):
        items = tuple(compile_(item) for item in expr.items)

        def disjunction(row, ctx):
            result: Truth = False
            for item in items:
                truth = item(row, ctx)
                if truth is True:
                    return True
                if truth is None:
                    result = None
            return result

        return disjunction
    if isinstance(expr, ast.Not):
        operand = compile_(expr.operand)
        return lambda row, ctx: tv_not(operand(row, ctx))
    if isinstance(expr, ast.IsNull):
        operand = compile_(expr.operand)
        if expr.negated:
            return lambda row, ctx: operand(row, ctx) is not None
        return lambda row, ctx: operand(row, ctx) is None
    if isinstance(expr, ast.Like):
        operand, pattern = compile_(expr.operand), compile_(expr.pattern)
        return _negate_if(
            expr.negated,
            lambda row, ctx: sql_like(operand(row, ctx), pattern(row, ctx)),
        )
    if isinstance(expr, ast.Between):
        operand = compile_(expr.operand)
        low, high = compile_(expr.low), compile_(expr.high)
        at_least, at_most = COMPARISONS[">="], COMPARISONS["<="]

        def between(row, ctx):
            value = operand(row, ctx)
            lower, upper = low(row, ctx), high(row, ctx)
            return tv_and(at_least(value, lower), at_most(value, upper))

        return _negate_if(expr.negated, between)
    if isinstance(expr, ast.InList):
        operand = compile_(expr.operand)
        items = tuple(compile_(item) for item in expr.items)
        equal = COMPARISONS["="]

        def in_list(row, ctx):
            value = operand(row, ctx)
            result: Truth = False
            for item in items:
                truth = equal(value, item(row, ctx))
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

        def case(row, ctx):
            for condition, value in whens:
                if condition(row, ctx) is True:
                    return value(row, ctx)
            return None if otherwise is None else otherwise(row, ctx)

        return case
    if isinstance(expr, ast.FunctionCall):
        return _compile_function(expr, tuple(compile_(a) for a in expr.args))
    if isinstance(expr, BoxScalarSubquery):
        slot = offsets.get(expr)
        if slot is not None:
            return lambda row, ctx: row[slot]
        box, pick = expr.box, outer_values(expr.box, offsets)
        return lambda row, ctx: scalar_subquery_value(box, pick(row), ctx)
    if isinstance(expr, BoxExists):
        box, pick = expr.box, outer_values(expr.box, offsets)
        if expr.negated:
            return lambda row, ctx: not ctx.subquery_rows(box, pick(row))
        return lambda row, ctx: bool(ctx.subquery_rows(box, pick(row)))
    if isinstance(expr, BoxInSubquery):
        operand = compile_(expr.operand)
        box, pick = expr.box, outer_values(expr.box, offsets)
        equal = COMPARISONS["="]
        return _negate_if(
            expr.negated,
            lambda row, ctx: _any(
                equal, operand(row, ctx), ctx.subquery_rows(box, pick(row))
            ),
        )
    if isinstance(expr, BoxQuantifiedComparison):
        operand = compile_(expr.operand)
        box, pick = expr.box, outer_values(expr.box, offsets)
        compare = COMPARISONS[expr.op]
        quantify = _any if expr.quantifier_kind == "any" else _all
        return lambda row, ctx: quantify(
            compare, operand(row, ctx), ctx.subquery_rows(box, pick(row))
        )
    if isinstance(expr, ast.AggregateCall):
        raise ExecutionError("aggregate call evaluated outside a GROUP BY box")
    raise ExecutionError(f"cannot evaluate expression {expr!r}")


def _unbound_parameter(index: int, ctx: "ExecutionContext") -> ExecutionError:
    return ExecutionError(
        f"unbound parameter ?{index} ({len(ctx.params)} value(s) supplied)"
    )


#: What each comparison a filter kernel handles comes to over two non-NULL
#: values of one class, as a C-level call.
_SAME_CLASS = {
    "=": operator.eq,
    "<>": operator.ne,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def compile_filter(expr: ast.Expr, offsets: Offsets) -> Filter:
    """Compile a WHERE predicate over a batch: ``keep(members, ctx)`` is
    the members ``expr`` is TRUE for -- UNKNOWN does not qualify.

    Two shapes get a kernel: one list comprehension with no Python call per
    member.

    - A column compared with a column (an outer reference is a slot like
      any other) or with a constant of the batch (a literal, a ``?``).
      NULL is tested first; two values of one class are comparable (see
      :mod:`repro.types`) and go to the operator itself; any other pair
      goes to ``COMPARISONS[op]``, which accepts int against float and
      raises :class:`~repro.errors.SchemaError` for the rest.
    - ``column IN (...)`` whose items are non-NULL literals of one class.
      A value of that class is kept iff it is one of the items, NULL is
      dropped, and a value of any other class goes to the member-by-member
      predicate below, which matches int against float and raises the
      same ``SchemaError``.

    Every other expression -- ``NOT IN``, a list holding NULL, a ``?`` or
    values of several classes among them -- is evaluated member by member.
    """
    if (
        isinstance(expr, ast.Comparison)
        and expr.op in _SAME_CLASS
        and isinstance(expr.left, ColumnRef)
    ):
        same_class, compare = _SAME_CLASS[expr.op], COMPARISONS[expr.op]
        i = flat_position(expr.left, offsets)
        operand = expr.right
        if isinstance(operand, ColumnRef):
            j = flat_position(operand, offsets)
            return lambda members, ctx: [
                m for m in members
                if (a := m[i]) is not None and (b := m[j]) is not None
                and (
                    same_class(a, b) if a.__class__ is b.__class__
                    else compare(a, b)
                )
            ]
        if isinstance(operand, (ast.Literal, ast.Parameter)):
            # Neither reads the row: evaluated once per batch, so an
            # unbound ``?`` is the same error as member by member.
            constant = compile_expr(operand, offsets)

            def column_to_constant(members, ctx):
                b = constant((), ctx)
                if b is None:
                    return []
                cls = b.__class__
                return [
                    m for m in members
                    if (a := m[i]) is not None
                    and (same_class(a, b) if a.__class__ is cls else compare(a, b))
                ]

            return column_to_constant
    predicate = compile_expr(expr, offsets)
    if isinstance(expr, ast.InList) and _one_class_literals(expr):
        i = flat_position(expr.operand, offsets)
        cls = expr.items[0].value.__class__
        values = frozenset(item.value for item in expr.items)
        return lambda members, ctx: [
            m for m in members
            if (
                a in values if (a := m[i]).__class__ is cls
                else a is not None and predicate(m, ctx) is True
            )
        ]
    return lambda members, ctx: [
        m for m in members if predicate(m, ctx) is True
    ]


def _one_class_literals(expr: ast.InList) -> bool:
    """``column IN (...)`` over non-NULL literals of one class."""
    if expr.negated or not isinstance(expr.operand, ColumnRef):
        return False
    if not all(
        isinstance(item, ast.Literal) and item.value is not None
        for item in expr.items
    ):
        return False
    return len({item.value.__class__ for item in expr.items}) == 1


def compile_lookup_filter(
    expr: ast.Expr, offsets: Offsets, quantifier: Quantifier
) -> Optional[LookupFilter]:
    """``expr`` as a filter of the rows an index lookup fetches for
    ``quantifier``, when it is one of :func:`compile_filter`'s comparison
    kernels with a column of ``quantifier`` on one side and, on the other,
    a value the member had before the lookup (a slot ahead of the
    quantifier's) or a constant of the batch; ``None`` for every other
    expression.

    ``keep(members, found, schema, ctx)`` is called once per batch of
    probes, with the rows each member's probe fetched (``found``) and
    their table's schema, and tests each fetched row's own column by the
    rules of the kernels -- one class to the operator, any other pair to
    ``COMPARISONS[op]`` with the operands left then right -- so that
    ``member + row`` is built only for the rows that stay. The other
    operand is read once per member that fetched a row, and a member whose
    operand is NULL keeps nothing; the fetched value's class is therefore
    tested before NULL, since a NULL can never be of the other operand's
    class. The other operators call their ``operator`` function.

    ``=``, the correlation of every paper query, is written out as
    ``a == b``, in one comprehension for both orientations since it is
    symmetric. When its other operand is the same for the whole batch -- a
    literal, a ``?``, an outer reference: every member starts with the
    box's outer values -- it is read once, at the first probe that fetched
    a row. If it is of the class the schema stores the fetched column as
    (:meth:`~repro.storage.schema.Schema.stored_class`), every fetched
    value is of that class or NULL, and ``None == b`` is False: the
    comprehension tests neither class nor NULL.
    """
    if not (
        isinstance(expr, ast.Comparison)
        and expr.op in _SAME_CLASS
        and isinstance(expr.left, ColumnRef)
    ):
        return None
    fetched_left = expr.left.quantifier is quantifier
    fetched, other = (
        (expr.left, expr.right) if fetched_left else (expr.right, expr.left)
    )
    if not (isinstance(fetched, ColumnRef) and fetched.quantifier is quantifier):
        return None
    if isinstance(other, ColumnRef):
        if flat_position(other, offsets) >= offsets[quantifier]:
            return None  # of the fetched row itself, or bound after it
    elif not isinstance(other, (ast.Literal, ast.Parameter)):
        return None
    same_class, compare = _SAME_CLASS[expr.op], COMPARISONS[expr.op]
    j = column_position(quantifier.box, fetched.column)
    value = compile_expr(other, offsets)
    # ``a`` is the fetched value, ``b`` the other operand.
    if expr.op == "=":
        equal = compare if fetched_left else lambda a, b: compare(b, a)

        def each(members, found, schema, ctx):
            return [
                m + row for m, matched in zip(members, found)
                if matched and (b := value(m, ctx)) is not None and (cls := b.__class__)
                for row in matched
                if (
                    a == b if (a := row[j]).__class__ is cls
                    else a is not None and equal(a, b)
                )
            ]

        if isinstance(other, ColumnRef) and offsets.get(other.quantifier) is not None:
            return each  # a column of the member's own rows

        def equal_to_constant(members, found, schema, ctx):
            first = next(compress(members, found), None)
            if first is None:
                return []
            b = value(first, ctx)
            if b is None:
                return []
            if b.__class__ is not schema.stored_class(j):
                return each(members, found, schema, ctx)
            return [
                m + row for m, matched in zip(members, found)
                for row in matched if row[j] == b
            ]

        return equal_to_constant
    if fetched_left:
        return lambda members, found, schema, ctx: [
            m + row for m, matched in zip(members, found)
            if matched and (b := value(m, ctx)) is not None and (cls := b.__class__)
            for row in matched
            if (
                same_class(a, b) if (a := row[j]).__class__ is cls
                else a is not None and compare(a, b)
            )
        ]
    return lambda members, found, schema, ctx: [
        m + row for m, matched in zip(members, found)
        if matched and (b := value(m, ctx)) is not None and (cls := b.__class__)
        for row in matched
        if (
            same_class(b, a) if (a := row[j]).__class__ is cls
            else a is not None and compare(b, a)
        )
    ]


def scalar_subquery_value(
    box: Box, outer: tuple, ctx: "ExecutionContext"
) -> Any:
    """Run a scalar subquery box: 0 rows -> NULL, >1 row -> error."""
    rows = ctx.subquery_rows(box, outer)
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
    return lambda row, ctx: tv_not(truth(row, ctx))


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

        def coalesce(row, ctx):
            for arg in args:
                value = arg(row, ctx)
                if value is not None:
                    return value
            return None

        return coalesce
    first = args[0]
    if name == "nullif":
        second, equal = args[1], COMPARISONS["="]

        def nullif(row, ctx):
            a = first(row, ctx)
            return None if equal(a, second(row, ctx)) is True else a

        return nullif
    apply = {"abs": abs, "upper": _upper, "lower": _lower}[name]

    def function(row, ctx):
        value = first(row, ctx)
        return None if value is None else apply(value)

    return function


def _upper(value: Any) -> str:
    return str(value).upper()


def _lower(value: Any) -> str:
    return str(value).lower()
