"""Tests for QGM -> SQL view generation (the paper's section 2.1 form).

The strongest check is the round trip: the generated CREATE VIEW script is
fed back through the engine's own parser/executor and must produce exactly
the original query's answer.
"""

from collections import Counter

import pytest

from repro import Database, Strategy
from repro.qgm.sqlgen import graph_to_sql
from repro.sql.parser import parse_statement

PAPER_QUERY = """
    SELECT d.name FROM dept d
    WHERE d.budget < 10000 AND d.num_emps >
      (SELECT count(*) FROM emp e WHERE e.building = d.building)
"""


@pytest.fixture
def db(empdept_catalog) -> Database:
    return Database(empdept_catalog)


def roundtrip(db: Database, sql: str, strategy: Strategy) -> None:
    """Execute the generated view script on a fresh Database sharing the
    same base tables and compare answers."""
    script = db.rewritten_sql(sql, strategy)
    expected = Counter(db.execute(sql).rows)
    replay = Database(db.catalog)
    results = replay.execute_script(script)
    final = results[-1]
    assert Counter(final.rows) == expected
    # Clean up the created views so other round trips can reuse the catalog.
    for statement in script.split(";"):
        statement = statement.strip()
        if statement.upper().startswith("CREATE VIEW"):
            view_name = statement.split()[2]
            db.catalog.drop_view(view_name)


class TestSectionTwoPresentation:
    def test_contains_papers_view_roles(self, db):
        script = db.rewritten_sql(PAPER_QUERY, Strategy.MAGIC)
        assert "CREATE VIEW magic_" in script       # the Magic table
        assert "CREATE VIEW bug_removal_" in script  # the BugRemoval box
        assert "SELECT DISTINCT" in script
        assert "coalesce(" in script
        assert "LEFT OUTER JOIN" in script
        assert script.rstrip().endswith(";")

    def test_supplementary_view_referenced_twice(self, db):
        script = db.rewritten_sql(PAPER_QUERY, Strategy.MAGIC)
        # The supplementary view name appears in the magic view and in the
        # final SELECT: the common subexpression of section 5.1.
        supp_name = next(
            line.split()[2]
            for line in script.splitlines()
            if line.startswith("CREATE VIEW v_")
        )
        uses = script.count(f"{supp_name} AS")
        assert uses >= 3  # definition + two references


class TestRoundTrips:
    def test_magic_script_reproduces_answer(self, db):
        roundtrip(db, PAPER_QUERY, Strategy.MAGIC)

    def test_kim_script_reproduces_kim_answer(self, db):
        script = db.rewritten_sql(PAPER_QUERY, Strategy.KIM)
        kim_rows = Counter(db.execute(PAPER_QUERY, strategy=Strategy.KIM).rows)
        results = Database(db.catalog).execute_script(script)
        assert Counter(results[-1].rows) == kim_rows

    def test_dayal_script_reproduces_answer(self, db):
        roundtrip(db, PAPER_QUERY, Strategy.DAYAL)

    def test_min_query_plain_join_script(self, db):
        sql = """
            SELECT d.name FROM dept d
            WHERE d.budget > (SELECT min(e.salary) * 10 FROM emp e
                              WHERE e.building = d.building)
        """
        script = db.rewritten_sql(sql, Strategy.MAGIC)
        assert "LEFT OUTER JOIN" not in script  # plain-join optimisation
        roundtrip(db, sql, Strategy.MAGIC)

    def test_ni_graph_renders_correlated_marker(self, db):
        # Rendering an un-rewritten correlated query still works; the
        # correlation shows as a reference to the outer view's alias.
        from repro.qgm import build_qgm

        graph = build_qgm(parse_statement(PAPER_QUERY), db.catalog)
        script = graph_to_sql(graph)
        assert "d.building" in script


class TestNamesThatNeedQuotes:
    """A name that spells a keyword reads back only double-quoted: the
    script must quote it wherever it appears, as :mod:`repro.sql.printer`
    does."""

    @pytest.fixture
    def db(self) -> Database:
        db = Database()
        db.execute_script(
            'CREATE TABLE t ("order" INT PRIMARY KEY, v INT);'
            "INSERT INTO t VALUES (1, 10), (2, 20), (3, 20);"
        )
        return db

    def test_bound_graph_round_trips(self, db):
        sql = 'select t."order" from t where t."order" > 1'
        script = db.rewritten_sql(sql, Strategy.NESTED_ITERATION)
        assert 't."order" AS "order"' in script
        parse_statement(script.rstrip().rstrip(";"))
        roundtrip(db, sql, Strategy.NESTED_ITERATION)

    def test_decorrelated_graph_round_trips(self, db):
        sql = (
            'select t."order" from t where t.v > '
            '(select count(*) from t u where u."order" = t."order")'
        )
        roundtrip(db, sql, Strategy.MAGIC)
