"""Unit tests for the SQL printer (statement-level round trips)."""

import pytest

from repro.sql.parser import parse_statement
from repro.sql.printer import to_sql

ROUND_TRIP_STATEMENTS = [
    "SELECT 1",
    "SELECT DISTINCT a, b AS bee FROM t",
    "SELECT a FROM t WHERE a > 1 AND b IN ('x', 'y') ORDER BY a DESC LIMIT 5",
    "SELECT count(*) FROM t GROUP BY a HAVING count(*) > 2",
    "SELECT t.a FROM t AS t JOIN u AS u ON t.a = u.a",
    "SELECT t.a FROM t AS t LEFT OUTER JOIN u AS u ON t.a = u.a",
    "SELECT a FROM (SELECT b AS a FROM u) AS sub",
    "(SELECT a FROM t) UNION ALL (SELECT b FROM u)",
    "(SELECT a FROM t) INTERSECT (SELECT b FROM u)",
    "(SELECT a FROM t) INTERSECT ALL (SELECT b FROM u)",
    "(SELECT a FROM t) EXCEPT ALL (SELECT b FROM u)",
    "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.x = t.a)",
    "SELECT a FROM t WHERE a NOT IN (SELECT b FROM u)",
    "SELECT a FROM t WHERE a > ALL (SELECT b FROM u)",
    "SELECT a FROM t WHERE a BETWEEN 1 AND 2 OR a IS NOT NULL",
    "SELECT coalesce(a, 0), count(DISTINCT b) FROM t",
    "SELECT a FROM t WHERE s LIKE '%x%' AND NOT (a = 1)",
    "CREATE TABLE t (a INT NOT NULL, b FLOAT, PRIMARY KEY (a))",
    "CREATE INDEX i ON t (a)",
    "DROP INDEX i ON t",
    "CREATE VIEW v AS SELECT a FROM t",
    "INSERT INTO t (a, b) VALUES (1, 'x''y'), (2, NULL)",
    # Quoted identifiers that spell a keyword are names, and print quoted.
    'create table t ("order" int, "from" int, x int)',
    'select "order" from t',
    'select x as "from" from t',
    'SELECT e."order" FROM emp e WHERE "order" > 1',
    'SELECT "true", "null", "primary" FROM "select" AS "where"',
    'CREATE TABLE "primary" ("primary" INT, "a b" INT, PRIMARY KEY ("primary"))',
]


@pytest.mark.parametrize("sql", ROUND_TRIP_STATEMENTS)
def test_round_trip(sql):
    first = parse_statement(sql)
    printed = to_sql(first)
    second = parse_statement(printed)
    assert second == first, printed


def test_string_escaping():
    statement = parse_statement("SELECT 'it''s'")
    assert "''" in to_sql(statement)


def test_negative_literal():
    statement = parse_statement("SELECT -5")
    assert to_sql(statement) == "SELECT -5"


def test_starburst_derived_table_printed_as_standard_form():
    statement = parse_statement("SELECT s FROM DT(s) AS (SELECT sum(a) FROM t)")
    printed = to_sql(statement)
    reparsed = parse_statement(printed)
    assert reparsed == statement
