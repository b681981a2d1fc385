"""Unit tests for the cost-based planner: access paths, join order,
correlated-subquery placement (paper section 7)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api.strategies import Strategy
from repro.errors import PlanError
from repro.plan import planner
from repro.plan.cost import column_ndv, predicate_selectivity
from repro.plan.planner import (
    HashJoinStep,
    IndexLookupStep,
    PredicateStep,
    ScanStep,
    SubqueryEvalStep,
    plan_select_box,
)
from repro.qgm import build_qgm
from repro.qgm.analysis import GraphFacts, iter_boxes
from repro.qgm.expr import BoxScalarSubquery, walk_expr
from repro.qgm.model import SelectBox
from repro.rewrite import RewriteEngine
from repro.sql.parser import parse_statement
from repro.storage import Catalog, Column, Schema
from repro.tpcd import QUERY_1, QUERY_2, load_tpcd
from repro.types import SQLType


@pytest.fixture
def catalog() -> Catalog:
    cat = Catalog()
    cat.create_table(
        "big",
        Schema(
            [Column("id", SQLType.INT, nullable=False),
             Column("k", SQLType.INT), Column("v", SQLType.INT)],
            primary_key=["id"],
        ),
    )
    cat.create_table(
        "small",
        Schema(
            [Column("id", SQLType.INT, nullable=False),
             Column("k", SQLType.INT)],
            primary_key=["id"],
        ),
    )
    big = cat.table("big")
    for i in range(500):
        big.insert((i, i % 50, i % 7))
    big.create_index("big_k", ["k"])
    small = cat.table("small")
    for i in range(10):
        small.insert((i, i))
    return cat


def plan_for(catalog, sql):
    graph = build_qgm(parse_statement(sql), catalog)
    box = graph.root
    assert isinstance(box, SelectBox)
    return plan_select_box(catalog, box)


def access_steps(plan):
    return [
        s for s in plan.steps
        if isinstance(s, (ScanStep, IndexLookupStep, HashJoinStep))
    ]


class TestAccessSelection:
    def test_literal_equality_uses_index(self, catalog):
        plan = plan_for(catalog, "SELECT v FROM big WHERE k = 3")
        steps = access_steps(plan)
        assert isinstance(steps[0], IndexLookupStep)
        assert steps[0].key_columns == ("k",)

    def test_no_index_never_uses_index_lookup(self, catalog):
        plan = plan_for(catalog, "SELECT k FROM big WHERE v = 3")
        steps = access_steps(plan)
        # Without an index the access is a scan or a hash filter against the
        # literal -- never an IndexLookupStep.
        assert not isinstance(steps[0], IndexLookupStep)

    def test_small_table_drives_join_into_index(self, catalog):
        plan = plan_for(
            catalog,
            "SELECT b.v FROM small s, big b WHERE s.k = b.k",
        )
        steps = access_steps(plan)
        # small scanned first, then an index lookup into big per small row.
        assert isinstance(steps[0], ScanStep)
        assert steps[0].quantifier.name == "s"
        assert isinstance(steps[1], IndexLookupStep)
        assert steps[1].quantifier.name == "b"

    def test_hash_join_without_index(self, catalog):
        plan = plan_for(
            catalog,
            "SELECT b.k FROM small s, big b WHERE s.id = b.v",
        )
        steps = access_steps(plan)
        kinds = [type(s) for s in steps]
        assert HashJoinStep in kinds

    def test_predicates_placed_at_earliest_barrier(self, catalog):
        plan = plan_for(
            catalog,
            "SELECT b.v FROM small s, big b WHERE s.k = b.k AND s.id > 2",
        )
        first_access = plan.steps.index(access_steps(plan)[0])
        filter_steps = [
            i for i, s in enumerate(plan.steps)
            if isinstance(s, PredicateStep)
            and "id" in repr(s.predicate)
        ]
        second_access = plan.steps.index(access_steps(plan)[1])
        assert filter_steps and filter_steps[0] < second_access

    def test_cross_join_plans(self, catalog):
        plan = plan_for(catalog, "SELECT 1 FROM small a, small b")
        assert len(access_steps(plan)) == 2

    def test_join_order_recorded(self, catalog):
        plan = plan_for(
            catalog, "SELECT b.v FROM small s, big b WHERE s.k = b.k"
        )
        assert [q.name for q in plan.join_order] == ["s", "b"]


class TestSubqueryPlacement:
    def test_scalar_placed_before_expensive_join(self, catalog):
        # The Query-2 situation: the subquery's bindings come from `small`,
        # the comparison also needs `big`; the value is computed per small
        # row *before* the join fans out.
        sql = """
            SELECT 1 FROM small s, big b
            WHERE s.k = b.k AND b.v <
              (SELECT count(*) FROM big i WHERE i.k = s.k)
        """
        plan = plan_for(catalog, sql)
        eval_positions = [
            i for i, s in enumerate(plan.steps)
            if isinstance(s, SubqueryEvalStep)
        ]
        assert len(eval_positions) == 1
        big_access = next(
            i for i, s in enumerate(plan.steps)
            if isinstance(s, (ScanStep, IndexLookupStep, HashJoinStep))
            and s.quantifier.name == "b"
        )
        assert eval_positions[0] < big_access
        # The comparison itself waits for b.
        pred_position = max(
            i for i, s in enumerate(plan.steps) if isinstance(s, PredicateStep)
        )
        assert pred_position > big_access

    def test_scalar_placement_recorded_for_rewriter(self, catalog):
        sql = """
            SELECT 1 FROM small s
            WHERE s.id > (SELECT avg(i.v) FROM big i WHERE i.k = s.k)
        """
        graph = build_qgm(parse_statement(sql), catalog)
        plan = plan_select_box(catalog, graph.root)
        nodes = [
            n for p in graph.root.predicates for n in walk_expr(p)
            if isinstance(n, BoxScalarSubquery)
        ]
        assert len(nodes) == 1
        assert plan.scalar_placement[id(nodes[0])] == 1  # right after s

    def test_uncorrelated_scalar_placed_at_barrier_zero(self, catalog):
        sql = """
            SELECT 1 FROM big b
            WHERE b.v > (SELECT avg(s.id) FROM small s)
        """
        graph = build_qgm(parse_statement(sql), catalog)
        plan = plan_select_box(catalog, graph.root)
        # One env row exists before any quantifier: cheapest placement.
        assert list(plan.scalar_placement.values()) == [0]


class TestCorrelatedChildren:
    def test_correlated_derived_table_ordered_after_source(self, catalog):
        sql = """
            SELECT s.id, dt.c FROM small s, DT(c) AS
              (SELECT count(*) FROM big b WHERE b.k = s.k)
        """
        plan = plan_for(catalog, sql)
        order = [q.name for q in plan.join_order]
        assert order.index("s") < order.index("dt")
        dt_step = access_steps(plan)[order.index("dt")]
        assert isinstance(dt_step, ScanStep) and dt_step.correlated_to_self

    def test_mutually_referencing_children_rejected(self, catalog):
        # Two derived tables each correlated to the other cannot be ordered.
        from repro.qgm.model import OutputColumn, SelectBox
        from repro.sql import ast

        inner1 = SelectBox(outputs=[OutputColumn("a", ast.Literal(1))])
        inner2 = SelectBox(outputs=[OutputColumn("b", ast.Literal(2))])
        outer = SelectBox()
        q1 = outer.add_quantifier(inner1, "d1")
        q2 = outer.add_quantifier(inner2, "d2")
        inner1.predicates.append(
            ast.Comparison("=", ast.Literal(1), q2.ref("b"))
        )
        inner2.predicates.append(
            ast.Comparison("=", ast.Literal(2), q1.ref("a"))
        )
        outer.outputs = [OutputColumn("x", ast.Literal(0))]
        with pytest.raises(PlanError):
            plan_select_box(catalog, outer)


class TestDPvsGreedy:
    def test_dp_finds_selective_first_order(self, catalog):
        # Three-way join where the greedy trap is starting from the tiny
        # relation and losing the index path; DP must order small -> big.
        sql = """
            SELECT b.v FROM big b, small s, small t
            WHERE s.k = b.k AND t.id = s.id
        """
        plan = plan_for(catalog, sql)
        order = [q.name for q in plan.join_order]
        assert order.index("b") == 2  # big joined last, via its index

    def test_many_quantifiers_fall_back_to_greedy(self, catalog):
        froms = ", ".join(f"small s{i}" for i in range(10))
        sql = f"SELECT 1 FROM {froms}"
        plan = plan_for(catalog, sql)
        assert len(access_steps(plan)) == 10
        # Every step ties: the greedy search keeps FROM order.
        assert [q.name for q in plan.join_order] == [f"s{i}" for i in range(10)]


# -- greedy ties go to FROM order ----------------------------------------------

#: Beyond the exact search's limit; eight of the ten scans tie at every step.
TIED_SQL = (
    "SELECT 1 FROM " + ", ".join(f"small s{i}" for i in range(10))
    + " WHERE s0.v = s1.v"
)

#: Plans TIED_SQL after allocating ``argv[1]`` lists, which moves every
#: later object to another address; prints the join order.
TIED_SCRIPT = """
import sys
junk = [[0] * (i % 7) for i in range(int(sys.argv[1]))]
from repro.plan.planner import plan_select_box
from repro.qgm import build_qgm
from repro.sql.parser import parse_statement
from repro.storage import Catalog, Column, Schema
from repro.types import SQLType
catalog = Catalog()
small = catalog.create_table("small", Schema(
    [Column("id", SQLType.INT, nullable=False),
     Column("k", SQLType.INT), Column("v", SQLType.INT)],
    primary_key=["id"]))
small.insert_many([(i, i % 4, i % 5) for i in range(20)])
graph = build_qgm(parse_statement(sys.argv[2]), catalog)
print(" ".join(q.name for q in plan_select_box(catalog, graph.root).join_order))
"""


class TestGreedyTies:
    def test_order_does_not_depend_on_memory_addresses(self):
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        orders = {
            subprocess.run(
                [sys.executable, "-c", TIED_SCRIPT, str(garbage), TIED_SQL],
                env=env, check=True, capture_output=True, text=True,
            ).stdout.strip()
            for garbage in (0, 4099, 70001)
        }
        assert orders == {" ".join(f"s{i}" for i in range(10))}


# -- each fact is derived once per call -----------------------------------------


class FactSpy:
    """Counts the planner's calls into what its fact table derives: graph
    tables built, the outer references derived in them, predicate
    selectivities and column distinct-value counts."""

    def __init__(self, monkeypatch):
        self.tables = 0
        self.derived: list[int] = []
        self.selectivities: list[int] = []
        self.ndvs: list[tuple[int, str]] = []
        for name in ("GraphFacts", "predicate_selectivity", "column_ndv"):
            monkeypatch.setattr(planner, name, getattr(self, name))
        derive = GraphFacts._derive_outer_refs

        def derive_outer_refs(table, box):
            self.derived.append(box.id)
            return derive(table, box)

        monkeypatch.setattr(GraphFacts, "_derive_outer_refs", derive_outer_refs)

    def GraphFacts(self, root):
        self.tables += 1
        return GraphFacts(root)

    def predicate_selectivity(self, catalog, predicate):
        self.selectivities.append(id(predicate))
        return predicate_selectivity(catalog, predicate)

    def column_ndv(self, catalog, ref):
        self.ndvs.append((id(ref.quantifier), ref.column))
        return column_ndv(catalog, ref)


@pytest.fixture(scope="module")
def tpcd_catalog():
    return load_tpcd(scale_factor=0.001)


@pytest.mark.parametrize("sql", [QUERY_1, QUERY_2], ids=["q1", "q2"])
@pytest.mark.parametrize("strategy", ["magic", "dayal"])
def test_each_fact_is_derived_once_per_call(tpcd_catalog, monkeypatch, sql, strategy):
    graph = build_qgm(parse_statement(sql), tpcd_catalog)
    graph = RewriteEngine(tpcd_catalog, validate=False).rewrite(graph, Strategy(strategy))
    boxes = [b for b in iter_boxes(graph.root) if isinstance(b, SelectBox)]
    assert len(boxes) >= 2
    for box in boxes:
        spy = FactSpy(monkeypatch)
        plan_select_box(tpcd_catalog, box)
        monkeypatch.undo()
        # One table of the box's subtree, each box's correlations derived once.
        assert spy.tables == 1
        assert len(spy.derived) == len(set(spy.derived))
        assert len(spy.selectivities) == len(set(spy.selectivities))
        assert set(spy.selectivities) <= {id(p) for p in box.predicates}
        assert len(spy.ndvs) == len(set(spy.ndvs))
