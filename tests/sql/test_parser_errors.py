"""Parser error-path coverage: every message carries a location."""

import pytest

from repro.errors import ParseError
from repro.sql import ast
from repro.sql.parser import parse_expression, parse_statement

BAD_STATEMENTS = [
    ("SELECT", "expected an expression"),
    ("SELECT a FROM", "table name"),
    ("SELECT a FROM t WHERE", "expression"),
    ("SELECT a FROM t GROUP", "BY"),
    ("SELECT a FROM t ORDER a", "BY"),
    ("SELECT a FROM t LIMIT x", "integer"),
    ("SELECT a FROM t LIMIT 1.5", "integer"),
    ("SELECT a AS FROM t", "alias"),
    ("SELECT * FROM (SELECT 1)", "alias"),
    ("SELECT a FROM t JOIN u", "ON"),
    ("SELECT count(* FROM t", ")"),
    ("SELECT a FROM t WHERE a NOT 5", "trailing"),
    ("SELECT a FROM t WHERE a BETWEEN 1", "AND"),
    ("CREATE", "TABLE, INDEX or VIEW"),
    ("CREATE TABLE t", "("),
    ("CREATE TABLE t (a)", "type name"),
    ("CREATE INDEX i ON t", "("),
    ("CREATE INDEX i ON t (a) USING btree", "trailing"),
    ("DROP INDEX i", "ON"),
    ("INSERT INTO t", "VALUES"),
    ("SELECT a FROM t;;; SELECT", "trailing"),
    ("SELECT a = ANY SELECT 1", "("),
]


@pytest.mark.parametrize("sql,fragment", BAD_STATEMENTS)
def test_error_message_mentions_cause(sql, fragment):
    with pytest.raises(ParseError) as exc:
        parse_statement(sql)
    message = str(exc.value)
    assert fragment.lower() in message.lower(), message
    assert "line" in message  # location always reported


def test_multiline_error_location():
    from repro.errors import LexError

    with pytest.raises(LexError) as exc:
        parse_statement("SELECT a\nFROM t\nWHERE @@")
    assert "line 3" in str(exc.value)


def test_expression_trailing_garbage():
    with pytest.raises(ParseError):
        parse_expression("1 + 2 3")


def test_reserved_word_as_column_rejected():
    with pytest.raises(ParseError):
        parse_statement("SELECT select FROM t")


def test_quoted_reserved_word_allowed_as_table():
    # Double quotes turn reserved words into ordinary identifiers.
    statement = parse_statement('SELECT a FROM "select"')
    ref = statement.from_items[0]
    assert isinstance(ref, ast.TableRef) and ref.name == "select"


@pytest.mark.parametrize("sql, expr, alias", [
    ('select "order" from t', ast.Name(("order",)), None),
    ('select x as "from" from t', ast.Name(("x",)), "from"),
    ('SELECT e."order" FROM emp e WHERE "order" > 1', ast.Name(("e", "order")), None),
])
def test_quoted_reserved_word_is_a_name(sql, expr, alias):
    (item,) = parse_statement(sql).items
    assert (item.expr, item.alias) == (expr, alias)


def test_quoted_keyword_is_never_the_keyword():
    statement = parse_statement('SELECT "true" FROM t WHERE "null" IS NULL')
    assert statement.items[0].expr == ast.Name(("true",))
    assert statement.where.operand == ast.Name(("null",))
