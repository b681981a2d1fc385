"""Unit tests for AST -> QGM building: shapes, scoping, correlations."""

import pytest

from repro.errors import BindError
from repro.qgm import (
    BaseTableBox,
    BoxScalarSubquery,
    GroupByBox,
    OuterJoinBox,
    SelectBox,
    SetOpBox,
    build_qgm,
    graph_to_text,
    iter_boxes,
    validate_graph,
)
from repro.qgm.analysis import external_column_refs, is_correlated
from repro.qgm.expr import walk_expr
from repro.sql.parser import parse_statement


def build(sql: str, catalog):
    graph = build_qgm(parse_statement(sql), catalog)
    validate_graph(graph, catalog)
    return graph


class TestBasicShapes:
    def test_simple_select(self, empdept_catalog):
        g = build("SELECT name, budget FROM dept", empdept_catalog)
        root = g.root
        assert isinstance(root, SelectBox)
        assert root.output_names() == ["name", "budget"]
        assert isinstance(root.quantifiers[0].box, BaseTableBox)

    def test_select_star(self, empdept_catalog):
        g = build("SELECT * FROM dept", empdept_catalog)
        assert g.root.output_names() == ["name", "budget", "num_emps", "building"]

    def test_qualified_star(self, empdept_catalog):
        g = build("SELECT d.* FROM dept d, emp e", empdept_catalog)
        assert g.root.output_names() == ["name", "budget", "num_emps", "building"]

    def test_where_predicates_flattened(self, empdept_catalog):
        g = build(
            "SELECT name FROM dept WHERE budget < 10000 AND building = 'B1'",
            empdept_catalog,
        )
        assert len(g.root.predicates) == 2

    def test_implicit_join(self, empdept_catalog):
        g = build(
            "SELECT d.name, e.name FROM dept d, emp e "
            "WHERE d.building = e.building",
            empdept_catalog,
        )
        assert len(g.root.quantifiers) == 2
        # duplicate output names are uniquified
        assert g.root.output_names() == ["name", "name_1"]

    def test_inner_join_flattened_into_spj(self, empdept_catalog):
        g = build(
            "SELECT d.name FROM dept d JOIN emp e ON d.building = e.building",
            empdept_catalog,
        )
        assert isinstance(g.root, SelectBox)
        assert len(g.root.quantifiers) == 2
        assert len(g.root.predicates) == 1

    def test_aggregation_pipeline(self, empdept_catalog):
        g = build(
            "SELECT building, count(*) AS cnt FROM emp "
            "GROUP BY building HAVING count(*) > 1",
            empdept_catalog,
        )
        top = g.root
        assert isinstance(top, SelectBox)
        assert len(top.predicates) == 1  # HAVING
        group_box = top.quantifiers[0].box
        assert isinstance(group_box, GroupByBox)
        assert len(group_box.group_by) == 1
        spj = group_box.quantifier.box
        assert isinstance(spj, SelectBox)

    def test_scalar_aggregate_no_groupby(self, empdept_catalog):
        g = build("SELECT count(*) FROM emp", empdept_catalog)
        # Figure-1 shape: the block IS the aggregate box (no wrapper SPJ).
        group_box = g.root
        assert isinstance(group_box, GroupByBox)
        assert group_box.is_scalar

    def test_distinct_flag(self, empdept_catalog):
        g = build("SELECT DISTINCT building FROM dept", empdept_catalog)
        assert g.root.distinct

    def test_union(self, empdept_catalog):
        g = build(
            "SELECT building FROM dept UNION ALL SELECT building FROM emp",
            empdept_catalog,
        )
        assert isinstance(g.root, SetOpBox)
        assert g.root.all and g.root.op == "union"
        assert g.root.output_names() == ["building"]

    def test_union_arity_mismatch(self, empdept_catalog):
        with pytest.raises(BindError):
            build(
                "SELECT building FROM dept UNION SELECT building, name FROM emp",
                empdept_catalog,
            )

    def test_outer_join_box(self, empdept_catalog):
        g = build(
            "SELECT d.name, e.name FROM dept d LEFT OUTER JOIN emp e "
            "ON d.building = e.building",
            empdept_catalog,
        )
        oj = g.root.quantifiers[0].box
        assert isinstance(oj, OuterJoinBox)
        assert oj.condition is not None

    def test_derived_table(self, empdept_catalog):
        g = build(
            "SELECT bldg FROM (SELECT building FROM dept) AS t(bldg)",
            empdept_catalog,
        )
        inner = g.root.quantifiers[0].box
        assert isinstance(inner, SelectBox)
        assert inner.output_names() == ["bldg"]

    def test_order_by_and_limit(self, empdept_catalog):
        g = build(
            "SELECT name, budget FROM dept ORDER BY budget DESC, name LIMIT 3",
            empdept_catalog,
        )
        assert g.order_by == [(1, True), (0, False)]
        assert g.limit == 3

    def test_order_by_position(self, empdept_catalog):
        g = build("SELECT name, budget FROM dept ORDER BY 2", empdept_catalog)
        assert g.order_by == [(1, False)]

    def test_no_from(self, empdept_catalog):
        g = build("SELECT 1 AS x, 'a' AS y", empdept_catalog)
        assert g.root.output_names() == ["x", "y"]
        assert g.root.quantifiers == []

    def test_view_expansion(self, empdept_catalog):
        empdept_catalog.create_view(
            "lowdept", "SELECT name, building FROM dept WHERE budget < 10000"
        )
        g = build("SELECT name FROM lowdept", empdept_catalog)
        inner = g.root.quantifiers[0].box
        assert isinstance(inner, SelectBox)
        assert inner.output_names() == ["name", "building"]


class TestScoping:
    def test_unknown_column(self, empdept_catalog):
        with pytest.raises(BindError):
            build("SELECT nosuch FROM dept", empdept_catalog)

    def test_unknown_alias(self, empdept_catalog):
        with pytest.raises(BindError):
            build("SELECT x.name FROM dept d", empdept_catalog)

    def test_ambiguous_column(self, empdept_catalog):
        with pytest.raises(BindError):
            build("SELECT building FROM dept, emp", empdept_catalog)

    def test_duplicate_alias(self, empdept_catalog):
        with pytest.raises(BindError):
            build("SELECT 1 FROM dept d, emp d", empdept_catalog)

    def test_non_grouped_column_rejected(self, empdept_catalog):
        with pytest.raises(BindError):
            build(
                "SELECT name, count(*) FROM emp GROUP BY building",
                empdept_catalog,
            )

    def test_having_without_groupby_rejected(self, empdept_catalog):
        with pytest.raises(BindError):
            build("SELECT name FROM dept HAVING budget > 1", empdept_catalog)


class TestCorrelations:
    PAPER_QUERY = """
        Select D.name From Dept D
        Where D.budget < 10000 and D.num_emps >
          (Select Count(*) From Emp E Where D.building = E.building)
    """

    def test_correlation_detected(self, empdept_catalog):
        g = build(self.PAPER_QUERY, empdept_catalog)
        # The subquery box is inside the comparison predicate.
        subqueries = [
            node
            for predicate in g.root.predicates
            for node in walk_expr(predicate)
            if isinstance(node, BoxScalarSubquery)
        ]
        assert len(subqueries) == 1
        agg_box = subqueries[0].box
        assert isinstance(agg_box, GroupByBox)
        assert is_correlated(agg_box)
        refs = external_column_refs(agg_box)
        assert len(refs) == 1
        dest_box, ref = refs[0]
        assert ref.column == "building"
        assert isinstance(dest_box, SelectBox)

    def test_uncorrelated_subquery(self, empdept_catalog):
        g = build(
            "SELECT name FROM dept WHERE num_emps > "
            "(SELECT count(*) FROM emp WHERE building = 'B1')",
            empdept_catalog,
        )
        subquery = next(
            node
            for predicate in g.root.predicates
            for node in walk_expr(predicate)
            if isinstance(node, BoxScalarSubquery)
        )
        assert not is_correlated(subquery.box)

    def test_correlated_derived_table_q3_style(self, empdept_catalog):
        g = build(
            """
            SELECT d.name, dt.cnt FROM dept d, DT(cnt) AS
              (SELECT count(*) FROM emp e WHERE e.building = d.building)
            """,
            empdept_catalog,
        )
        derived = g.root.quantifiers[1].box
        assert is_correlated(derived)


class TestPretty:
    def test_renders_correlation_marker(self, empdept_catalog):
        g = build(TestCorrelations.PAPER_QUERY, empdept_catalog)
        text = graph_to_text(g)
        assert "^" in text  # correlated ref marked
        assert "GROUPBY" in text
        assert "base_table".upper() in text

    def test_every_box_rendered(self, empdept_catalog):
        g = build(TestCorrelations.PAPER_QUERY, empdept_catalog)
        text = graph_to_text(g)
        for box in iter_boxes(g.root):
            assert f"[{box.id}]" in text
