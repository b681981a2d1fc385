"""Unit tests for cardinality and selectivity estimation."""

import pytest

from repro.plan.compile import compile_query
from repro.plan.cost import (
    DEFAULT_EQ_SELECTIVITY,
    column_ndv,
    estimate_box_rows,
    predicate_selectivity,
)
from repro.plan.planner import plan_select_box
from repro.qgm import build_qgm, iter_boxes
from repro.qgm.model import GroupByBox, SelectBox
from repro.rewrite import RewriteEngine
from repro.sql.parser import parse_statement
from repro.storage import Catalog, Column, Schema
from repro.types import SQLType


@pytest.fixture
def catalog() -> Catalog:
    cat = Catalog()
    cat.create_table(
        "t",
        Schema(
            [Column("id", SQLType.INT, nullable=False),
             Column("k", SQLType.INT), Column("s", SQLType.STR)],
            primary_key=["id"],
        ),
    )
    t = cat.table("t")
    for i in range(200):
        t.insert((i, i % 10, f"v{i % 4}"))
    return cat


def root_of(catalog, sql):
    return build_qgm(parse_statement(sql), catalog).root


class TestColumnNdv:
    def test_base_table_column(self, catalog):
        box = root_of(catalog, "SELECT k FROM t")
        ref = box.outputs[0].expr
        assert column_ndv(catalog, ref) == 10

    def test_chases_through_projections(self, catalog):
        box = root_of(
            catalog, "SELECT kk FROM (SELECT k AS kk FROM t) AS sub"
        )
        ref = box.outputs[0].expr
        assert column_ndv(catalog, ref) == 10

    def test_computed_column_unknown(self, catalog):
        box = root_of(
            catalog, "SELECT kk FROM (SELECT k + 1 AS kk FROM t) AS sub"
        )
        ref = box.outputs[0].expr
        assert column_ndv(catalog, ref) is None


class TestSelectivity:
    def pred_of(self, catalog, sql):
        return root_of(catalog, sql).predicates[0]

    def test_equality_uses_ndv(self, catalog):
        pred = self.pred_of(catalog, "SELECT 1 FROM t WHERE k = 3")
        assert predicate_selectivity(catalog, pred) == pytest.approx(0.1)

    def test_equality_without_stats_uses_default(self, catalog):
        pred = self.pred_of(catalog, "SELECT 1 FROM t WHERE 1 = 2")
        assert predicate_selectivity(catalog, pred) == DEFAULT_EQ_SELECTIVITY

    def test_range_predicate(self, catalog):
        pred = self.pred_of(catalog, "SELECT 1 FROM t WHERE k < 3")
        assert 0 < predicate_selectivity(catalog, pred) < 1

    def test_in_list_scales_with_alternatives(self, catalog):
        one = self.pred_of(catalog, "SELECT 1 FROM t WHERE k IN (1)")
        three = self.pred_of(catalog, "SELECT 1 FROM t WHERE k IN (1, 2, 3)")
        assert predicate_selectivity(catalog, three) == pytest.approx(
            3 * predicate_selectivity(catalog, one)
        )

    def test_or_adds_and_caps(self, catalog):
        pred = self.pred_of(
            catalog,
            "SELECT 1 FROM t WHERE k = 1 OR k = 2 OR s = 'v0' OR s < 'z' "
            "OR s > 'a' OR id > 0",
        )
        assert predicate_selectivity(catalog, pred) <= 1.0

    def test_and_multiplies(self, catalog):
        single = self.pred_of(catalog, "SELECT 1 FROM t WHERE k = 1")
        # one conjunct at a time -> builder flattens AND into two predicates,
        # so use a nested OR to keep a single expression
        both = root_of(catalog, "SELECT 1 FROM t WHERE k = 1 AND s = 'v0'")
        total = 1.0
        for p in both.predicates:
            total *= predicate_selectivity(catalog, p)
        assert total == pytest.approx(0.1 * 0.25)
        assert predicate_selectivity(catalog, single) == pytest.approx(0.1)


class TestBoxEstimates:
    def test_base_table(self, catalog):
        box = root_of(catalog, "SELECT id FROM t").quantifiers[0].box
        assert estimate_box_rows(catalog, box) == 200.0

    def test_filtered_select(self, catalog):
        box = root_of(catalog, "SELECT id FROM t WHERE k = 1")
        assert estimate_box_rows(catalog, box) == pytest.approx(20.0)

    def test_join_estimate(self, catalog):
        box = root_of(
            catalog, "SELECT 1 FROM t a, t b WHERE a.k = b.k"
        )
        estimate = estimate_box_rows(catalog, box)
        assert estimate == pytest.approx(200 * 200 / 10)

    def test_scalar_groupby_is_one(self, catalog):
        box = root_of(catalog, "SELECT count(*) FROM t")
        assert isinstance(box, GroupByBox)
        assert estimate_box_rows(catalog, box) == 1.0

    def test_grouped_estimate_uses_ndv(self, catalog):
        box = root_of(catalog, "SELECT k, count(*) FROM t GROUP BY k")
        assert estimate_box_rows(catalog, box) == pytest.approx(10.0)

    def test_union_sums(self, catalog):
        box = root_of(
            catalog, "SELECT id FROM t UNION ALL SELECT id FROM t"
        )
        assert estimate_box_rows(catalog, box) == pytest.approx(400.0)

    def test_estimates_never_below_one(self, catalog):
        box = root_of(
            catalog,
            "SELECT 1 FROM t WHERE k = 1 AND s = 'v0' AND id = 5 AND k = 2",
        )
        assert estimate_box_rows(catalog, box) >= 1.0

    def test_outer_join_at_least_preserved_side(self, catalog):
        box = root_of(
            catalog,
            "SELECT a.id FROM t a LEFT OUTER JOIN t b ON a.id = b.k",
        )
        oj = box.quantifiers[0].box
        assert estimate_box_rows(catalog, oj) >= 200.0


class TestDeepGraphs:
    """An estimate is a function of the box alone, whoever asks: a memo
    shared by the boxes of one graph must not make plans depend on the
    order they are planned in."""

    #: Derived tables wrapped around the filtered scan.
    DEPTH = 40

    @pytest.fixture
    def deep(self):
        catalog = Catalog()
        catalog.create_table(
            "t",
            Schema(
                [Column("a", SQLType.INT, nullable=False), Column("b", SQLType.INT)],
                primary_key=["a"],
            ),
        )
        for i in range(50):
            catalog.table("t").insert((i, i % 7))
        sql = "SELECT a, b FROM t WHERE b = 3"
        for level in range(self.DEPTH):
            sql = f"SELECT a, b FROM ({sql}) AS d{level}"
        return catalog, sql

    def test_the_root_estimate_is_the_innermost_boxs(self, deep):
        catalog, sql = deep
        root = root_of(catalog, sql)
        (innermost,) = [
            box for box in iter_boxes(root)
            if isinstance(box, SelectBox) and box.predicates
        ]
        assert estimate_box_rows(catalog, innermost) == pytest.approx(50 / 7)
        # Every level above it passes its rows through.
        assert estimate_box_rows(catalog, root) == estimate_box_rows(catalog, innermost)

    def test_a_shared_table_plans_like_one_table_per_box(self, deep):
        catalog, sql = deep
        compiled = compile_query(
            sql, catalog, RewriteEngine(catalog, validate=False), "ni"
        )
        selects = [b for b in iter_boxes(compiled.graph.root) if isinstance(b, SelectBox)]
        assert len(selects) == self.DEPTH + 1
        for box in selects:
            assert compiled.plans[box.id] == plan_select_box(catalog, box)
            assert compiled.plans[box.id].estimated_rows == pytest.approx(50 / 7)
