"""Render AST nodes back to SQL text.

The printer is exact enough to round-trip through the parser (used as a
property test) and is also used to display rewritten queries in examples.
"""

from __future__ import annotations

import re
from typing import Any

from . import ast
from .parser import KEYWORD_NAMES

_BARE_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_#$]*")


def _name(part: str) -> str:
    """A name as it reads back: double-quoted when it spells a keyword or
    is not a bare identifier."""
    if part.upper() in KEYWORD_NAMES or not _BARE_NAME.fullmatch(part):
        return f'"{part}"'
    return part


def _names(parts) -> str:
    return ", ".join(_name(p) for p in parts)


def _literal(value: Any) -> str:
    if value is None:
        return "NULL"
    if value is True:
        return "TRUE"
    if value is False:
        return "FALSE"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    return repr(value)


def expr_to_sql(expr: ast.Expr) -> str:
    """Render an expression; parenthesises conservatively."""
    if isinstance(expr, ast.Literal):
        return _literal(expr.value)
    if isinstance(expr, ast.Name):
        return ".".join(_name(p) for p in expr.parts)
    if isinstance(expr, ast.Star):
        if not expr.qualifier:
            return "*"
        return ".".join(_name(p) for p in expr.qualifier.split(".")) + ".*"
    if isinstance(expr, ast.BinaryOp):
        return f"({expr_to_sql(expr.left)} {expr.op} {expr_to_sql(expr.right)})"
    if isinstance(expr, ast.UnaryMinus):
        return f"(- {expr_to_sql(expr.operand)})"
    if isinstance(expr, ast.Comparison):
        return f"({expr_to_sql(expr.left)} {expr.op} {expr_to_sql(expr.right)})"
    if isinstance(expr, ast.And):
        return "(" + " AND ".join(expr_to_sql(e) for e in expr.items) + ")"
    if isinstance(expr, ast.Or):
        return "(" + " OR ".join(expr_to_sql(e) for e in expr.items) + ")"
    if isinstance(expr, ast.Not):
        return f"(NOT {expr_to_sql(expr.operand)})"
    if isinstance(expr, ast.IsNull):
        keyword = "IS NOT NULL" if expr.negated else "IS NULL"
        return f"({expr_to_sql(expr.operand)} {keyword})"
    if isinstance(expr, ast.Like):
        keyword = "NOT LIKE" if expr.negated else "LIKE"
        return f"({expr_to_sql(expr.operand)} {keyword} {expr_to_sql(expr.pattern)})"
    if isinstance(expr, ast.Between):
        keyword = "NOT BETWEEN" if expr.negated else "BETWEEN"
        return (
            f"({expr_to_sql(expr.operand)} {keyword} "
            f"{expr_to_sql(expr.low)} AND {expr_to_sql(expr.high)})"
        )
    if isinstance(expr, ast.InList):
        keyword = "NOT IN" if expr.negated else "IN"
        inner = ", ".join(expr_to_sql(e) for e in expr.items)
        return f"({expr_to_sql(expr.operand)} {keyword} ({inner}))"
    if isinstance(expr, ast.Case):
        parts = ["CASE"]
        for condition, value in expr.whens:
            parts.append(f"WHEN {expr_to_sql(condition)} THEN {expr_to_sql(value)}")
        if expr.otherwise is not None:
            parts.append(f"ELSE {expr_to_sql(expr.otherwise)}")
        parts.append("END")
        return "(" + " ".join(parts) + ")"
    if isinstance(expr, ast.FunctionCall):
        args = ", ".join(expr_to_sql(a) for a in expr.args)
        return f"{expr.name}({args})"
    if isinstance(expr, ast.AggregateCall):
        if expr.argument is None:
            return "count(*)"
        prefix = "DISTINCT " if expr.distinct else ""
        return f"{expr.func}({prefix}{expr_to_sql(expr.argument)})"
    if isinstance(expr, ast.ScalarSubquery):
        return f"({to_sql(expr.query)})"
    if isinstance(expr, ast.Exists):
        keyword = "NOT EXISTS" if expr.negated else "EXISTS"
        return f"{keyword} ({to_sql(expr.query)})"
    if isinstance(expr, ast.InSubquery):
        keyword = "NOT IN" if expr.negated else "IN"
        return f"({expr_to_sql(expr.operand)} {keyword} ({to_sql(expr.query)}))"
    if isinstance(expr, ast.QuantifiedComparison):
        return (
            f"({expr_to_sql(expr.operand)} {expr.op} {expr.quantifier.upper()} "
            f"({to_sql(expr.query)}))"
        )
    raise TypeError(f"cannot print expression {expr!r}")


def _from_item(item: ast.FromItem) -> str:
    if isinstance(item, ast.TableRef):
        if item.alias:
            return f"{_name(item.name)} AS {_name(item.alias)}"
        return _name(item.name)
    if isinstance(item, ast.DerivedTable):
        cols = f"({_names(item.column_aliases)})" if item.column_aliases else ""
        return f"({to_sql(item.query)}) AS {_name(item.alias)}{cols}"
    if isinstance(item, ast.Join):
        keyword = "LEFT OUTER JOIN" if item.kind == "left" else "JOIN"
        on = f" ON {expr_to_sql(item.condition)}" if item.condition is not None else ""
        if item.condition is None:
            keyword = "CROSS JOIN"
        return f"({_from_item(item.left)} {keyword} {_from_item(item.right)}{on})"
    raise TypeError(f"cannot print FROM item {item!r}")


def to_sql(body: ast.Statement) -> str:
    """Render a statement back to SQL."""
    if isinstance(body, ast.Select):
        return _select_to_sql(body)
    if isinstance(body, ast.SetOp):
        op = body.op.upper() + (" ALL" if body.all else "")
        text = f"({to_sql(body.left)}) {op} ({to_sql(body.right)})"
        text += _order_limit(body.order_by, body.limit)
        return text
    if isinstance(body, ast.CreateTable):
        defs = []
        for col in body.columns:
            suffix = " NOT NULL" if col.not_null else ""
            defs.append(f"{_name(col.name)} {col.type_name}{suffix}")
        if body.primary_key:
            defs.append(f"PRIMARY KEY ({_names(body.primary_key)})")
        return f"CREATE TABLE {_name(body.name)} ({', '.join(defs)})"
    if isinstance(body, ast.CreateIndex):
        unique = "UNIQUE " if body.unique else ""
        return (
            f"CREATE {unique}INDEX {_name(body.name)} ON {_name(body.table)} "
            f"({_names(body.columns)})"
        )
    if isinstance(body, ast.DropIndex):
        return f"DROP INDEX {_name(body.name)} ON {_name(body.table)}"
    if isinstance(body, ast.CreateView):
        return f"CREATE VIEW {_name(body.name)} AS {to_sql(body.query)}"
    if isinstance(body, ast.Insert):
        cols = f" ({_names(body.columns)})" if body.columns else ""
        table = _name(body.table)
        if body.query is not None:
            return f"INSERT INTO {table}{cols} {to_sql(body.query)}"
        rows = ", ".join(
            "(" + ", ".join(expr_to_sql(v) for v in row) + ")" for row in body.rows
        )
        return f"INSERT INTO {table}{cols} VALUES {rows}"
    raise TypeError(f"cannot print statement {body!r}")


def _order_limit(order_by, limit) -> str:
    text = ""
    if order_by:
        parts = [
            expr_to_sql(o.expr) + (" DESC" if o.descending else "")
            for o in order_by
        ]
        text += " ORDER BY " + ", ".join(parts)
    if limit is not None:
        text += f" LIMIT {limit}"
    return text


def _select_to_sql(select: ast.Select) -> str:
    items = []
    for item in select.items:
        text = expr_to_sql(item.expr)
        if item.alias:
            text += f" AS {_name(item.alias)}"
        items.append(text)
    parts = ["SELECT "]
    if select.distinct:
        parts.append("DISTINCT ")
    parts.append(", ".join(items))
    if select.from_items:
        parts.append(" FROM " + ", ".join(_from_item(f) for f in select.from_items))
    if select.where is not None:
        parts.append(" WHERE " + expr_to_sql(select.where))
    if select.group_by:
        parts.append(" GROUP BY " + ", ".join(expr_to_sql(e) for e in select.group_by))
    if select.having is not None:
        parts.append(" HAVING " + expr_to_sql(select.having))
    parts.append(_order_limit(select.order_by, select.limit))
    return "".join(parts)
