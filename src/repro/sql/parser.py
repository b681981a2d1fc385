"""Recursive-descent parser for the supported SQL subset.

The subset covers everything the paper's queries and examples need:
SELECT blocks with correlated scalar/EXISTS/IN/ANY/ALL subqueries at any
nesting depth, derived tables (including the Starburst ``DT(cols) AS (...)``
form used in the paper's Query 3), UNION [ALL] / INTERSECT / EXCEPT,
GROUP BY / HAVING / ORDER BY / LIMIT, explicit [LEFT OUTER] JOIN ... ON,
and the DDL/DML needed to drive experiments (CREATE TABLE / INDEX / VIEW,
DROP INDEX, INSERT ... VALUES).
"""

from __future__ import annotations

from typing import Optional

from ..errors import ParseError
from . import ast
from .lexer import Token, TokenKind, tokenize

#: Words that terminate clause parsing and therefore cannot be bare aliases.
RESERVED = frozenset({
    "SELECT", "FROM", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "ON",
    "UNION", "INTERSECT", "EXCEPT", "JOIN", "LEFT", "RIGHT", "INNER", "OUTER",
    "CROSS", "AS", "AND", "OR", "NOT", "IN", "IS", "LIKE", "BETWEEN",
    "EXISTS", "ANY", "SOME", "ALL", "DISTINCT", "NULL", "VALUES", "SET",
    "BY", "ASC", "DESC", "CASE", "WHEN", "THEN", "ELSE", "END",
})

#: Bare words that read as something other than a name where the printer
#: puts one: the reserved words, the literals TRUE and FALSE, and PRIMARY
#: at the head of a column definition. The printer quotes such a name.
KEYWORD_NAMES = RESERVED | {"TRUE", "FALSE", "PRIMARY"}

_LITERAL_KEYWORDS = {"NULL": None, "TRUE": True, "FALSE": False}

_TYPE_NAMES = {
    "INT": "INT", "INTEGER": "INT", "SMALLINT": "INT", "BIGINT": "INT",
    "FLOAT": "FLOAT", "DOUBLE": "FLOAT", "REAL": "FLOAT", "DECIMAL": "FLOAT",
    "NUMERIC": "FLOAT",
    "VARCHAR": "STR", "CHAR": "STR", "TEXT": "STR", "STRING": "STR",
    "BOOL": "BOOL", "BOOLEAN": "BOOL",
    "DATE": "DATE",
}

_COMPARISON_OPS = {"=", "<>", "!=", "<", "<=", ">", ">="}

_SYMBOL = TokenKind.SYMBOL
_IDENT = TokenKind.IDENT
_EOF = TokenKind.EOF


class _Parser:
    """Token-stream cursor with the grammar productions as methods.

    ``pos`` never passes the EOF token, so the current token is always
    ``tokens[pos]``. Keywords are tested against ``Token.keyword``, the
    upper-case form the lexer gives bare identifiers only, and every
    keyword argument below is written in upper case.
    """

    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        #: ``?`` placeholders seen so far; markers are numbered in source
        #: order, matching the plan cache's literal-extraction order.
        self._param_count = 0

    # -- cursor helpers ----------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        if offset:
            return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind is not _EOF:
            self.pos += 1
        return token

    def error(self, message: str) -> ParseError:
        token = self.peek()
        where = f"line {token.line}, column {token.column}"
        got = token.text or "<end of input>"
        span = ast.Span(token.position, token.end, token.line, token.column)
        return ParseError(f"{message} at {where} (got {got!r})", span=span)

    def _spanned(self, node, start_token: Token):
        """Stamp ``node`` with the source range from ``start_token`` to the
        most recently consumed token (see :func:`repro.sql.ast.set_span`)."""
        start = start_token.position
        last = self.tokens[self.pos - 1] if self.pos else start_token
        end = max(last.end, start + 1)
        return ast.set_span(
            node, ast.Span(start, end, start_token.line, start_token.column)
        )

    def at_keyword(self, *words: str) -> bool:
        return self.tokens[self.pos].keyword in words

    def accept_keyword(self, word: str) -> bool:
        # A token with a keyword is an identifier, never EOF: step over it.
        if self.tokens[self.pos].keyword == word:
            self.pos += 1
            return True
        return False

    def expect_keyword(self, word: str) -> Token:
        token = self.tokens[self.pos]
        if token.keyword != word:
            raise self.error(f"expected {word}")
        self.pos += 1
        return token

    def at_symbol(self, symbol: str) -> bool:
        token = self.tokens[self.pos]
        return token.text == symbol and token.kind is _SYMBOL

    def symbol_ahead(self, offset: int, symbol: str) -> bool:
        token = self.peek(offset)
        return token.text == symbol and token.kind is _SYMBOL

    def accept_symbol(self, symbol: str) -> bool:
        if self.at_symbol(symbol):
            self.advance()
            return True
        return False

    def expect_symbol(self, symbol: str) -> Token:
        if not self.at_symbol(symbol):
            raise self.error(f"expected {symbol!r}")
        return self.advance()

    def expect_ident(self, what: str = "identifier") -> str:
        token = self.tokens[self.pos]
        if token.kind is not _IDENT:
            raise self.error(f"expected {what}")
        self.pos += 1
        return token.text.lower()

    def expect_alias(self) -> str:
        """An alias: an identifier that is not a reserved word (so that
        ``SELECT a AS FROM t`` fails at the AS, not three tokens later).
        A quoted identifier is never a reserved word."""
        if not self._at_bare_alias():
            raise self.error("expected alias")
        token = self.tokens[self.pos]
        self.pos += 1
        return token.text.lower()

    # -- statements ----------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        if self.at_keyword("CREATE"):
            return self._create()
        if self.at_keyword("DROP"):
            return self._drop()
        if self.at_keyword("INSERT"):
            return self._insert()
        return self.parse_query()

    def _create(self) -> ast.Statement:
        self.expect_keyword("CREATE")
        if self.accept_keyword("TABLE"):
            return self._create_table()
        if self.at_keyword("UNIQUE", "INDEX"):
            return self._create_index()
        if self.accept_keyword("VIEW"):
            return self._create_view()
        raise self.error("expected TABLE, INDEX or VIEW after CREATE")

    def _create_table(self) -> ast.CreateTable:
        name = self.expect_ident("table name")
        self.expect_symbol("(")
        columns: list[ast.ColumnDef] = []
        primary_key: tuple[str, ...] = ()
        while True:
            if self.at_keyword("PRIMARY"):
                self.advance()
                self.expect_keyword("KEY")
                self.expect_symbol("(")
                primary_key = tuple(self._ident_list())
                self.expect_symbol(")")
            else:
                col_name = self.expect_ident("column name")
                type_token = self.expect_ident("type name").upper()
                if type_token not in _TYPE_NAMES:
                    raise self.error(f"unknown type {type_token}")
                if self.accept_symbol("("):  # VARCHAR(n) - length is ignored
                    self.advance()
                    self.expect_symbol(")")
                not_null = False
                if self.accept_keyword("NOT"):
                    self.expect_keyword("NULL")
                    not_null = True
                if self.accept_keyword("PRIMARY"):
                    self.expect_keyword("KEY")
                    primary_key = (col_name,)
                    not_null = True
                columns.append(ast.ColumnDef(col_name, _TYPE_NAMES[type_token], not_null))
            if not self.accept_symbol(","):
                break
        self.expect_symbol(")")
        return ast.CreateTable(name, tuple(columns), primary_key)

    def _create_index(self) -> ast.CreateIndex:
        unique = self.accept_keyword("UNIQUE")
        self.expect_keyword("INDEX")
        name = self.expect_ident("index name")
        self.expect_keyword("ON")
        table = self.expect_ident("table name")
        self.expect_symbol("(")
        columns = tuple(self._ident_list())
        self.expect_symbol(")")
        return ast.CreateIndex(name, table, columns, unique=unique)

    def _drop(self) -> ast.DropIndex:
        self.expect_keyword("DROP")
        self.expect_keyword("INDEX")
        name = self.expect_ident("index name")
        self.expect_keyword("ON")
        table = self.expect_ident("table name")
        return ast.DropIndex(name, table)

    def _create_view(self) -> ast.CreateView:
        name = self.expect_ident("view name")
        self.expect_keyword("AS")
        query = self.parse_query()
        return ast.CreateView(name, query)

    def _insert(self) -> ast.Insert:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_ident("table name")
        columns: tuple[str, ...] = ()
        if self.accept_symbol("("):
            columns = tuple(self._ident_list())
            self.expect_symbol(")")
        if self._starts_query():
            return ast.Insert(table, columns, (), self.parse_query())
        self.expect_keyword("VALUES")
        rows: list[tuple[ast.Expr, ...]] = []
        while True:
            self.expect_symbol("(")
            row = [self.parse_expr()]
            while self.accept_symbol(","):
                row.append(self.parse_expr())
            self.expect_symbol(")")
            rows.append(tuple(row))
            if not self.accept_symbol(","):
                break
        return ast.Insert(table, columns, tuple(rows))

    def _ident_list(self) -> list[str]:
        names = [self.expect_ident()]
        while self.accept_symbol(","):
            names.append(self.expect_ident())
        return names

    # -- queries ---------------------------------------------------------------

    def parse_query(self) -> ast.QueryBody:
        body = self._query_term()
        while self.at_keyword("UNION", "INTERSECT", "EXCEPT"):
            operator = self.advance()
            all_flag = self.accept_keyword("ALL")
            right = self._query_term()
            body = self._spanned(
                ast.SetOp(operator.text.lower(), all_flag, body, right), operator
            )
        order_by, limit = self._order_limit()
        if order_by or limit is not None:
            if isinstance(body, ast.Select):
                body = ast.Select(
                    items=body.items, from_items=body.from_items,
                    where=body.where, group_by=body.group_by,
                    having=body.having, distinct=body.distinct,
                    order_by=order_by, limit=limit,
                )
            else:
                body = ast.set_span(
                    ast.SetOp(body.op, body.all, body.left, body.right,
                              order_by=order_by, limit=limit),
                    ast.span_of(body),
                )
        return body

    def _query_term(self) -> ast.QueryBody:
        if self.accept_symbol("("):
            body = self.parse_query()
            self.expect_symbol(")")
            return body
        return self._select_core()

    def _order_limit(self) -> tuple[tuple[ast.OrderItem, ...], Optional[int]]:
        order_by: list[ast.OrderItem] = []
        limit: Optional[int] = None
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            while True:
                expr = self.parse_expr()
                descending = False
                if self.accept_keyword("DESC"):
                    descending = True
                else:
                    self.accept_keyword("ASC")
                order_by.append(ast.OrderItem(expr, descending))
                if not self.accept_symbol(","):
                    break
        if self.accept_keyword("LIMIT"):
            token = self.peek()
            if token.kind is not TokenKind.NUMBER or not isinstance(token.value, int):
                raise self.error("LIMIT expects an integer")
            self.advance()
            limit = token.value
        return tuple(order_by), limit

    def _select_core(self) -> ast.Select:
        self.expect_keyword("SELECT")
        distinct = self.accept_keyword("DISTINCT")
        self.accept_keyword("ALL")
        items = [self._select_item()]
        while self.accept_symbol(","):
            items.append(self._select_item())
        from_items: tuple[ast.FromItem, ...] = ()
        where = None
        group_by: tuple[ast.Expr, ...] = ()
        having = None
        if self.accept_keyword("FROM"):
            from_list = [self._from_item()]
            while self.accept_symbol(","):
                from_list.append(self._from_item())
            from_items = tuple(from_list)
        if self.accept_keyword("WHERE"):
            where = self.parse_expr()
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            exprs = [self.parse_expr()]
            while self.accept_symbol(","):
                exprs.append(self.parse_expr())
            group_by = tuple(exprs)
        if self.accept_keyword("HAVING"):
            having = self.parse_expr()
        return ast.Select(
            items=tuple(items), from_items=from_items, where=where,
            group_by=group_by, having=having, distinct=distinct,
        )

    def _select_item(self) -> ast.SelectItem:
        if self.at_symbol("*"):
            star_token = self.advance()
            return ast.SelectItem(self._spanned(ast.Star(), star_token))
        expr = self.parse_expr()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_alias()
        elif self._at_bare_alias():
            alias = self.expect_alias()
        return ast.SelectItem(expr, alias)

    def _at_bare_alias(self) -> bool:
        token = self.tokens[self.pos]
        return token.kind is _IDENT and token.keyword not in RESERVED

    # -- FROM items --------------------------------------------------------------

    def _from_item(self) -> ast.FromItem:
        item = self._from_primary()
        while True:
            if self.at_keyword("JOIN") or self.at_keyword("INNER"):
                self.accept_keyword("INNER")
                self.expect_keyword("JOIN")
                right = self._from_primary()
                self.expect_keyword("ON")
                condition = self.parse_expr()
                item = ast.Join("inner", item, right, condition)
            elif self.at_keyword("LEFT") or self.at_keyword("LOJ"):
                if not self.accept_keyword("LOJ"):
                    self.expect_keyword("LEFT")
                    self.accept_keyword("OUTER")
                    self.expect_keyword("JOIN")
                right = self._from_primary()
                self.expect_keyword("ON")
                condition = self.parse_expr()
                item = ast.Join("left", item, right, condition)
            elif self.accept_keyword("CROSS"):
                self.expect_keyword("JOIN")
                right = self._from_primary()
                item = ast.Join("inner", item, right, None)
            else:
                return item

    def _from_primary(self) -> ast.FromItem:
        start = self.peek()
        return self._spanned(self._from_primary_inner(), start)

    def _from_primary_inner(self) -> ast.FromItem:
        if self.at_symbol("("):
            # Either a parenthesised join/table or a derived table body.
            if self._starts_query():
                self.expect_symbol("(")
                query = self.parse_query()
                self.expect_symbol(")")
                alias, column_aliases = self._derived_alias(required=True)
                return ast.DerivedTable(query, alias, column_aliases)
            self.expect_symbol("(")
            item = self._from_item()
            self.expect_symbol(")")
            return item
        name = self.expect_ident("table name")
        # Starburst derived-table syntax: name(cols) AS (query)
        if self.at_symbol("(") and self._starburst_derived_follows():
            self.expect_symbol("(")
            column_aliases = tuple(self._ident_list())
            self.expect_symbol(")")
            self.expect_keyword("AS")
            self.expect_symbol("(")
            query = self.parse_query()
            self.expect_symbol(")")
            return ast.DerivedTable(query, name, column_aliases)
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_alias()
        elif self._at_bare_alias():
            alias = self.expect_alias()
        return ast.TableRef(name, alias)

    def _starts_query(self) -> bool:
        """Is the next thing a query body, behind any number of ``(``?"""
        offset = 0
        while self.symbol_ahead(offset, "("):
            offset += 1
        return self.peek(offset).keyword == "SELECT"

    def _starburst_derived_follows(self) -> bool:
        """After ``name`` and at ``(``: is this ``name(cols) AS (query)``?

        Scans forward past a balanced identifier list to look for ``AS (``.
        """
        offset = 1  # past '('
        # Identifier list: IDENT (, IDENT)*
        while True:
            if self.peek(offset).kind is not _IDENT:
                return False
            offset += 1
            if self.symbol_ahead(offset, ","):
                offset += 1
                continue
            break
        if not self.symbol_ahead(offset, ")"):
            return False
        offset += 1
        if self.peek(offset).keyword != "AS":
            return False
        return self.symbol_ahead(offset + 1, "(")

    def _derived_alias(self, required: bool) -> tuple[str, tuple[str, ...]]:
        self.accept_keyword("AS")
        if not self._at_bare_alias():
            if required:
                raise self.error("derived table requires an alias")
            return "", ()
        alias = self.expect_alias()
        column_aliases: tuple[str, ...] = ()
        if self.accept_symbol("("):
            column_aliases = tuple(self._ident_list())
            self.expect_symbol(")")
        return alias, column_aliases

    # -- expressions ---------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        return self._or_expr()

    def _or_expr(self) -> ast.Expr:
        items = [self._and_expr()]
        while self.accept_keyword("OR"):
            items.append(self._and_expr())
        if len(items) == 1:
            return items[0]
        return ast.Or(tuple(items))

    def _and_expr(self) -> ast.Expr:
        items = [self._not_expr()]
        while self.accept_keyword("AND"):
            items.append(self._not_expr())
        if len(items) == 1:
            return items[0]
        return ast.And(tuple(items))

    def _not_expr(self) -> ast.Expr:
        if self.accept_keyword("NOT"):
            return ast.Not(self._not_expr())
        return self._predicate()

    def _predicate(self) -> ast.Expr:
        start = self.peek()
        return self._spanned(self._predicate_inner(), start)

    def _predicate_inner(self) -> ast.Expr:
        left = self._additive()
        token = self.tokens[self.pos]
        if token.kind is _SYMBOL and token.text in _COMPARISON_OPS:
            op = self.advance().text
            if op == "!=":
                op = "<>"
            if self.at_keyword("ANY", "SOME", "ALL"):
                quantifier = "all" if self.advance().keyword == "ALL" else "any"
                self.expect_symbol("(")
                query = self.parse_query()
                self.expect_symbol(")")
                return ast.QuantifiedComparison(op, left, quantifier, query)
            right = self._additive()
            return ast.Comparison(op, left, right)
        negated = False
        if self.at_keyword("NOT") and self.peek(1).keyword in ("IN", "LIKE", "BETWEEN"):
            self.advance()
            negated = True
        if self.accept_keyword("IS"):
            is_negated = self.accept_keyword("NOT")
            self.expect_keyword("NULL")
            return ast.IsNull(left, negated=is_negated)
        if self.accept_keyword("BETWEEN"):
            low = self._additive()
            self.expect_keyword("AND")
            high = self._additive()
            return ast.Between(left, low, high, negated=negated)
        if self.accept_keyword("LIKE"):
            pattern = self._additive()
            return ast.Like(left, pattern, negated=negated)
        if self.accept_keyword("IN"):
            self.expect_symbol("(")
            if self._starts_query():
                query = self.parse_query()
                self.expect_symbol(")")
                return ast.InSubquery(left, query, negated=negated)
            items = [self.parse_expr()]
            while self.accept_symbol(","):
                items.append(self.parse_expr())
            self.expect_symbol(")")
            return ast.InList(left, tuple(items), negated=negated)
        if negated:
            raise self.error("expected IN, LIKE or BETWEEN after NOT")
        return left

    def _additive(self) -> ast.Expr:
        left = self._multiplicative()
        while True:
            token = self.tokens[self.pos]
            if token.kind is _SYMBOL and token.text in ("+", "-", "||"):
                op = self.advance().text
                right = self._multiplicative()
                left = ast.BinaryOp(op, left, right)
            else:
                return left

    def _multiplicative(self) -> ast.Expr:
        left = self._unary()
        while True:
            token = self.tokens[self.pos]
            if token.kind is _SYMBOL and token.text in ("*", "/"):
                op = self.advance().text
                right = self._unary()
                left = ast.BinaryOp(op, left, right)
            else:
                return left

    def _unary(self) -> ast.Expr:
        if self.accept_symbol("-"):
            operand = self._unary()
            if isinstance(operand, ast.Literal) and isinstance(operand.value, (int, float)):
                return ast.Literal(-operand.value)
            return ast.UnaryMinus(operand)
        self.accept_symbol("+")
        return self._primary()

    def _primary(self) -> ast.Expr:
        start = self.peek()
        return self._spanned(self._primary_inner(), start)

    def _primary_inner(self) -> ast.Expr:
        token = self.tokens[self.pos]
        kind = token.kind
        if kind is _IDENT:
            keyword = token.keyword
            if keyword in _LITERAL_KEYWORDS:
                self.pos += 1
                return ast.Literal(_LITERAL_KEYWORDS[keyword])
            if keyword == "EXISTS":
                self.pos += 1
                self.expect_symbol("(")
                query = self.parse_query()
                self.expect_symbol(")")
                return ast.Exists(query)
            if keyword == "CASE":
                return self._case()
            if keyword in RESERVED:
                raise self.error("expected an expression")
            return self._name_or_call()
        if kind is TokenKind.NUMBER or kind is TokenKind.STRING:
            self.pos += 1
            return ast.Literal(token.value)
        if kind is _SYMBOL:
            if token.text == "?":
                self.pos += 1
                index = self._param_count
                self._param_count += 1
                return ast.Parameter(index)
            if token.text == "(":
                self.pos += 1
                if self._starts_query():
                    query = self.parse_query()
                    self.expect_symbol(")")
                    return ast.ScalarSubquery(query)
                expr = self.parse_expr()
                self.expect_symbol(")")
                return expr
        raise self.error("expected an expression")

    def _case(self) -> ast.Expr:
        """Searched CASE: ``CASE WHEN cond THEN value [...] [ELSE value] END``."""
        self.expect_keyword("CASE")
        if not self.at_keyword("WHEN"):
            raise self.error(
                "only searched CASE (CASE WHEN ...) is supported"
            )
        whens: list[tuple[ast.Expr, ast.Expr]] = []
        while self.accept_keyword("WHEN"):
            condition = self.parse_expr()
            self.expect_keyword("THEN")
            whens.append((condition, self.parse_expr()))
        otherwise = None
        if self.accept_keyword("ELSE"):
            otherwise = self.parse_expr()
        self.expect_keyword("END")
        return ast.Case(tuple(whens), otherwise)

    def _name_or_call(self) -> ast.Expr:
        first = self.expect_ident()
        if self.at_symbol("("):
            return self._call(first)
        parts = [first]
        while self.at_symbol("."):
            if self.symbol_ahead(1, "*"):
                self.advance()  # '.'
                self.advance()  # '*'
                return ast.Star(qualifier=parts[0] if len(parts) == 1 else ".".join(parts))
            self.advance()
            parts.append(self.expect_ident("column name"))
        return ast.Name(tuple(parts))

    def _call(self, name: str) -> ast.Expr:
        self.expect_symbol("(")
        if name in ast.AGGREGATE_FUNCTIONS:
            if name == "count" and self.at_symbol("*"):
                self.advance()
                self.expect_symbol(")")
                return ast.AggregateCall("count", None)
            distinct = self.accept_keyword("DISTINCT")
            argument = self.parse_expr()
            self.expect_symbol(")")
            return ast.AggregateCall(name, argument, distinct=distinct)
        args: list[ast.Expr] = []
        if not self.at_symbol(")"):
            args.append(self.parse_expr())
            while self.accept_symbol(","):
                args.append(self.parse_expr())
        self.expect_symbol(")")
        return ast.FunctionCall(name, tuple(args))


def parse_statement(text: str) -> ast.Statement:
    """Parse a single SQL statement; trailing ``;`` is allowed."""
    parser = _Parser(text)
    statement = parser.parse_statement()
    parser.accept_symbol(";")
    if parser.peek().kind is not _EOF:
        raise parser.error("unexpected trailing input")
    return statement


def parse_statements(text: str) -> list[ast.Statement]:
    """Parse a ``;``-separated script."""
    parser = _Parser(text)
    statements: list[ast.Statement] = []
    while parser.peek().kind is not _EOF:
        statements.append(parser.parse_statement())
        while parser.accept_symbol(";"):
            pass
    return statements


def parse_expression(text: str) -> ast.Expr:
    """Parse a standalone expression (used by tests and the REPL example)."""
    parser = _Parser(text)
    expr = parser.parse_expr()
    if parser.peek().kind is not _EOF:
        raise parser.error("unexpected trailing input")
    return expr
