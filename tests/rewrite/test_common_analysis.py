"""Unit tests for the decorrelation pattern matchers and analyses."""

import pytest

from repro.errors import NotApplicableError
from repro.qgm import build_qgm
from repro.qgm.expr import BoxScalarSubquery, walk_expr
from repro.qgm.analysis import GraphFacts
from repro.rewrite.decorrelate.common import (
    extract_equality_correlations,
    match_outer_agg_subquery,
    match_scalar_agg,
    node_use_is_null_rejecting,
    require_linear,
)
from repro.sql.parser import parse_statement


def build(sql, catalog):
    return build_qgm(parse_statement(sql), catalog)


def scalar_node(graph):
    for box in [graph.root]:
        for expr in box.own_exprs():
            for n in walk_expr(expr):
                if isinstance(n, BoxScalarSubquery):
                    return box, n
    raise AssertionError("no scalar subquery found")


class TestMatchScalarAgg:
    def test_plain_aggregate(self, empdept_catalog):
        g = build(
            "SELECT name FROM dept d WHERE num_emps > "
            "(SELECT count(*) FROM emp e WHERE e.building = d.building)",
            empdept_catalog,
        )
        _, node = scalar_node(g)
        pattern = match_scalar_agg(node)
        assert pattern is not None
        assert pattern.wrapper is None
        assert pattern.count_outputs == ["count"]

    def test_wrapped_aggregate(self, empdept_catalog):
        g = build(
            "SELECT name FROM dept d WHERE budget > "
            "(SELECT 0.2 * avg(e.salary) FROM emp e "
            " WHERE e.building = d.building)",
            empdept_catalog,
        )
        _, node = scalar_node(g)
        pattern = match_scalar_agg(node)
        assert pattern is not None
        assert pattern.wrapper is not None
        assert pattern.count_outputs == []

    def test_non_aggregate_subquery_rejected(self, empdept_catalog):
        g = build(
            "SELECT name FROM dept d WHERE budget > "
            "(SELECT e.salary FROM emp e WHERE e.building = d.building "
            " AND e.salary > 119)",
            empdept_catalog,
        )
        _, node = scalar_node(g)
        assert match_scalar_agg(node) is None

    def test_grouped_aggregate_rejected(self, empdept_catalog):
        g = build(
            "SELECT name FROM dept WHERE budget > "
            "(SELECT max(c) FROM (SELECT count(*) AS c FROM emp "
            " GROUP BY building) AS t)",
            empdept_catalog,
        )
        _, node = scalar_node(g)
        pattern = match_scalar_agg(node)
        # max(c) over a derived table is a scalar agg over an SPJ: fine.
        assert pattern is not None


class TestNullRejection:
    def get(self, sql, catalog):
        g = build(sql, catalog)
        return scalar_node(g)

    def test_comparison_in_where_is_null_rejecting(self, empdept_catalog):
        box, node = self.get(
            "SELECT name FROM dept d WHERE budget > "
            "(SELECT min(salary) FROM emp e WHERE e.building = d.building)",
            empdept_catalog,
        )
        assert node_use_is_null_rejecting(box, node)

    def test_arithmetic_inside_comparison_still_rejecting(self, empdept_catalog):
        box, node = self.get(
            "SELECT name FROM dept d WHERE budget > 2 * "
            "(SELECT min(salary) FROM emp e WHERE e.building = d.building) + 1",
            empdept_catalog,
        )
        assert node_use_is_null_rejecting(box, node)

    def test_select_list_use_is_not(self, empdept_catalog):
        box, node = self.get(
            "SELECT name, (SELECT min(salary) FROM emp e "
            "WHERE e.building = d.building) FROM dept d",
            empdept_catalog,
        )
        assert not node_use_is_null_rejecting(box, node)

    def test_or_context_is_not(self, empdept_catalog):
        box, node = self.get(
            "SELECT name FROM dept d WHERE budget < 100 OR budget > "
            "(SELECT min(salary) FROM emp e WHERE e.building = d.building)",
            empdept_catalog,
        )
        assert not node_use_is_null_rejecting(box, node)

    def test_coalesce_context_is_not(self, empdept_catalog):
        box, node = self.get(
            "SELECT name FROM dept d WHERE budget > coalesce("
            "(SELECT min(salary) FROM emp e WHERE e.building = d.building), 0)",
            empdept_catalog,
        )
        assert not node_use_is_null_rejecting(box, node)

    def test_is_null_context_is_not(self, empdept_catalog):
        box, node = self.get(
            "SELECT name FROM dept d WHERE "
            "(SELECT min(salary) FROM emp e WHERE e.building = d.building) "
            "IS NULL",
            empdept_catalog,
        )
        assert not node_use_is_null_rejecting(box, node)

    def test_not_context_still_rejecting(self, empdept_catalog):
        box, node = self.get(
            "SELECT name FROM dept d WHERE NOT (budget > "
            "(SELECT min(salary) FROM emp e WHERE e.building = d.building))",
            empdept_catalog,
        )
        assert node_use_is_null_rejecting(box, node)


class TestEqualityCorrelations:
    def test_simple_equality_extracted(self, empdept_catalog):
        g = build(
            "SELECT name FROM dept d WHERE num_emps > "
            "(SELECT count(*) FROM emp e WHERE e.building = d.building "
            " AND e.salary > 50)",
            empdept_catalog,
        )
        _, node = scalar_node(g)
        pattern = match_scalar_agg(node)
        correlations = extract_equality_correlations(pattern.spj, g.root)
        assert correlations is not None and len(correlations) == 1
        assert correlations[0].inner.column == "building"
        assert correlations[0].outer.column == "building"

    def test_non_equality_returns_none(self, empdept_catalog):
        g = build(
            "SELECT name FROM dept d WHERE num_emps > "
            "(SELECT count(*) FROM emp e WHERE e.salary < d.budget)",
            empdept_catalog,
        )
        _, node = scalar_node(g)
        pattern = match_scalar_agg(node)
        assert extract_equality_correlations(pattern.spj, g.root) is None

    def test_correlation_in_output_returns_none(self, empdept_catalog):
        g = build(
            "SELECT name FROM dept d WHERE budget > "
            "(SELECT sum(e.salary + d.num_emps) FROM emp e "
            " WHERE e.building = d.building)",
            empdept_catalog,
        )
        _, node = scalar_node(g)
        pattern = match_scalar_agg(node)
        assert extract_equality_correlations(pattern.spj, g.root) is None


class TestOuterMatch:
    def test_linear_check(self, empdept_catalog):
        g = build(
            "SELECT building FROM dept UNION SELECT building FROM emp",
            empdept_catalog,
        )
        with pytest.raises(NotApplicableError):
            require_linear(g.root, "Kim")

    def test_multiple_subqueries_rejected(self, empdept_catalog):
        g = build(
            """
            SELECT name FROM dept d
            WHERE num_emps > (SELECT count(*) FROM emp e
                              WHERE e.building = d.building)
              AND budget > (SELECT sum(e2.salary) FROM emp e2
                            WHERE e2.building = d.building)
            """,
            empdept_catalog,
        )
        with pytest.raises(NotApplicableError, match="more than one"):
            match_outer_agg_subquery(g.root, "Kim")

    def test_select_list_subquery_rejected(self, empdept_catalog):
        g = build(
            "SELECT name, (SELECT count(*) FROM emp e "
            "WHERE e.building = d.building) FROM dept d",
            empdept_catalog,
        )
        with pytest.raises(NotApplicableError, match="select list"):
            match_outer_agg_subquery(g.root, "Kim")

    def test_exists_rejected(self, empdept_catalog):
        g = build(
            "SELECT name FROM dept d WHERE EXISTS "
            "(SELECT 1 FROM emp e WHERE e.building = d.building)",
            empdept_catalog,
        )
        with pytest.raises(NotApplicableError, match="existential"):
            match_outer_agg_subquery(g.root, "Kim")

    def test_uncorrelated_rejected_for_kim(self, empdept_catalog):
        g = build(
            "SELECT name FROM dept WHERE num_emps > "
            "(SELECT count(*) FROM emp)",
            empdept_catalog,
        )
        with pytest.raises(NotApplicableError):
            match_outer_agg_subquery(g.root, "Kim", require_equality=True)

    def test_correlation_refs_deduplicated(self, empdept_catalog):
        g = build(
            """
            SELECT name FROM dept d
            WHERE num_emps > (SELECT count(*) FROM emp e
                              WHERE e.building = d.building
                                AND e.name <> d.building)
            """,
            empdept_catalog,
        )
        _, node = scalar_node(g)
        # The bindings magic decorrelation feeds the subquery with.
        refs = GraphFacts(g.root).outer_refs(node.box)
        assert len(refs) == 1  # (d, building) referenced twice, counted once
