"""Tests for the QGM pretty-printer."""

import pytest

from repro.qgm import build_qgm, graph_to_text
from repro.qgm.pretty import box_to_text, expr_to_text
from repro.sql.parser import parse_statement


def build(sql, catalog):
    return build_qgm(parse_statement(sql), catalog)


class TestExprRendering:
    def test_correlation_marker(self, empdept_catalog):
        g = build(
            "SELECT d.name FROM dept d WHERE EXISTS "
            "(SELECT 1 FROM emp e WHERE e.building = d.building)",
            empdept_catalog,
        )
        from repro.qgm.analysis import box_children

        exists_box = box_children(g.root)[1]
        predicate = exists_box.predicates[0]
        own = {id(q) for q in exists_box.quantifiers}
        text = expr_to_text(predicate, own)
        assert "^d.building" in text
        assert "e.building" in text and "^e.building" not in text

    def test_operators_rendered(self, empdept_catalog):
        g = build(
            "SELECT name FROM dept WHERE budget BETWEEN 1 AND 2 "
            "OR name LIKE 'd%' OR budget IN (5, 6) OR budget IS NULL "
            "OR NOT (budget = 3)",
            empdept_catalog,
        )
        rendered = expr_to_text(
            g.root.predicates[0], {id(q) for q in g.root.quantifiers}
        )
        for fragment in ("BETWEEN", "LIKE", "IN", "IS NULL", "NOT"):
            assert fragment in rendered

    def test_aggregate_rendering(self, empdept_catalog):
        g = build(
            "SELECT count(DISTINCT building), count(*) FROM dept",
            empdept_catalog,
        )
        text = graph_to_text(g)
        assert "count(distinct" in text
        assert "count(*)" in text


class TestBoxRendering:
    def test_base_table_shows_columns(self, empdept_catalog):
        g = build("SELECT name FROM dept", empdept_catalog)
        text = graph_to_text(g)
        assert "BASE_TABLE dept(name, budget, num_emps, building)" in text

    def test_distinct_flag_shown(self, empdept_catalog):
        g = build("SELECT DISTINCT name FROM dept", empdept_catalog)
        assert "SELECT DISTINCT" in box_to_text(g.root)[0] + " DISTINCT" or \
            "DISTINCT" in graph_to_text(g)

    def test_outer_join_shows_preserved_side(self, empdept_catalog):
        g = build(
            "SELECT d.name FROM dept d LEFT OUTER JOIN emp e "
            "ON d.building = e.building",
            empdept_catalog,
        )
        text = graph_to_text(g)
        assert "preserved:" in text
        assert "OUTERJOIN" in text

    def test_setop_kind_shown(self, empdept_catalog):
        g = build(
            "SELECT building FROM dept UNION ALL SELECT building FROM emp",
            empdept_catalog,
        )
        assert "UNION ALL" in graph_to_text(g)

    def test_order_and_limit_footer(self, empdept_catalog):
        g = build(
            "SELECT name FROM dept ORDER BY name DESC LIMIT 3",
            empdept_catalog,
        )
        text = graph_to_text(g)
        assert "order by" in text and "limit 3" in text

    def test_groupby_clause_shown(self, empdept_catalog):
        g = build(
            "SELECT building, count(*) FROM emp GROUP BY building",
            empdept_catalog,
        )
        assert "group by" in graph_to_text(g)


class TestNegatedAndParameterForms:
    """EXPLAIN shows the predicate the query has, negation included, and a
    ``?`` marker as ``?``."""

    @staticmethod
    def _rendered(catalog, where):
        g = build(f"SELECT name FROM dept WHERE {where}", catalog)
        return expr_to_text(
            g.root.predicates[0], {id(q) for q in g.root.quantifiers}
        )

    @pytest.mark.parametrize(
        "where, expected",
        [
            ("budget NOT IN (5, 6)", "dept.budget NOT IN (5, 6)"),
            ("name NOT LIKE 'd%'", "dept.name NOT LIKE 'd%'"),
            ("budget NOT BETWEEN 1 AND 2", "dept.budget NOT BETWEEN 1 AND 2"),
            ("budget IN (5, 6)", "dept.budget IN (5, 6)"),
            ("name LIKE 'd%'", "dept.name LIKE 'd%'"),
            ("budget BETWEEN 1 AND 2", "dept.budget BETWEEN 1 AND 2"),
            ("budget > ?", "dept.budget > ?"),
        ],
    )
    def test_rendered_as_written(self, empdept_catalog, where, expected):
        assert self._rendered(empdept_catalog, where) == expected
