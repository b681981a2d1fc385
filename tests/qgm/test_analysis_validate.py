"""Unit tests for QGM analysis utilities and the consistency validator."""

import pytest

from repro.errors import QGMConsistencyError
from repro.qgm import build_qgm, validate_graph
from repro.qgm.analysis import (
    box_children,
    external_column_refs,
    iter_boxes,
    parent_edges,
    quantifier_owner_map,
    rewrite_subtree_refs,
)
from repro.qgm.expr import ColumnRef
from repro.qgm.model import (
    BaseTableBox,
    GroupByBox,
    OutputColumn,
    QueryGraph,
    SelectBox,
)
from repro.sql import ast
from repro.sql.parser import parse_statement


def build(sql, catalog):
    return build_qgm(parse_statement(sql), catalog)


class TestTraversal:
    def test_iter_boxes_visits_subquery_bodies(self, empdept_catalog):
        g = build(
            "SELECT name FROM dept WHERE num_emps > "
            "(SELECT count(*) FROM emp)",
            empdept_catalog,
        )
        kinds = [b.kind for b in iter_boxes(g.root)]
        assert "groupby" in kinds
        assert kinds.count("base_table") == 2

    def test_iter_boxes_dag_safe(self, empdept_catalog):
        g = build("SELECT name FROM dept", empdept_catalog)
        shared = g.root.quantifiers[0].box
        # Create a second reference to the same base box (a CSE).
        g.root.add_quantifier(shared, "again")
        boxes = list(iter_boxes(g.root))
        assert len(boxes) == len({b.id for b in boxes})

    def test_parent_edges(self, empdept_catalog):
        g = build(
            "SELECT name FROM dept WHERE num_emps > "
            "(SELECT count(*) FROM emp WHERE building = 'B1')",
            empdept_catalog,
        )
        parents = parent_edges(g.root)
        assert parents[g.root.id] == []
        for box in iter_boxes(g.root):
            if box is not g.root:
                assert len(parents[box.id]) == 1  # fresh queries are trees

    def test_box_children_includes_expression_boxes(self, empdept_catalog):
        g = build(
            "SELECT name FROM dept WHERE EXISTS (SELECT 1 FROM emp)",
            empdept_catalog,
        )
        children = box_children(g.root)
        assert len(children) == 2  # dept base + exists body

    def test_quantifier_owner_map(self, empdept_catalog):
        g = build("SELECT d.name FROM dept d, emp e", empdept_catalog)
        owners = quantifier_owner_map(g.root)
        for q in g.root.quantifiers:
            assert owners[id(q)] is g.root


class TestExternalRefs:
    def test_uncorrelated_subtree_has_none(self, empdept_catalog):
        g = build("SELECT name FROM dept WHERE budget < 1", empdept_catalog)
        assert external_column_refs(g.root) == []

    def test_correlated_subtree_reports_destination(self, empdept_catalog):
        g = build(
            "SELECT d.name FROM dept d WHERE EXISTS "
            "(SELECT 1 FROM emp e WHERE e.building = d.building)",
            empdept_catalog,
        )
        exists_box = box_children(g.root)[1]
        refs = external_column_refs(exists_box)
        assert len(refs) == 1
        destination, ref = refs[0]
        assert destination is exists_box
        assert ref.column == "building"

    def test_rewrite_subtree_refs(self, empdept_catalog):
        g = build(
            "SELECT d.name FROM dept d WHERE EXISTS "
            "(SELECT 1 FROM emp e WHERE e.building = d.building)",
            empdept_catalog,
        )
        exists_box = box_children(g.root)[1]
        replacement = ast.Literal("B1")

        def substitute(ref: ColumnRef):
            if ref.quantifier is g.root.quantifiers[0]:
                return replacement
            return None

        rewrite_subtree_refs(exists_box, substitute)
        assert external_column_refs(exists_box) == []


class TestValidator:
    def test_valid_graph_passes(self, empdept_catalog):
        g = build(
            "SELECT building, count(*) FROM emp GROUP BY building "
            "HAVING count(*) > 1",
            empdept_catalog,
        )
        validate_graph(g, empdept_catalog)

    def test_detects_unknown_output_column(self, empdept_catalog):
        g = build("SELECT name FROM dept", empdept_catalog)
        q = g.root.quantifiers[0]
        g.root.outputs.append(OutputColumn("bad", q.ref("nope")))
        with pytest.raises(QGMConsistencyError):
            validate_graph(g, empdept_catalog)

    def test_detects_invisible_quantifier(self, empdept_catalog):
        g1 = build("SELECT name FROM dept", empdept_catalog)
        g2 = build("SELECT name FROM emp", empdept_catalog)
        foreign = g2.root.quantifiers[0]
        g1.root.outputs.append(OutputColumn("bad", foreign.ref("name")))
        with pytest.raises(QGMConsistencyError):
            validate_graph(g1, empdept_catalog)

    def test_detects_duplicate_output_names(self, empdept_catalog):
        g = build("SELECT name FROM dept", empdept_catalog)
        g.root.outputs.append(
            OutputColumn("name", g.root.quantifiers[0].ref("budget"))
        )
        with pytest.raises(QGMConsistencyError):
            validate_graph(g, empdept_catalog)

    def test_detects_aggregate_in_spj_predicate(self, empdept_catalog):
        g = build("SELECT name FROM dept", empdept_catalog)
        g.root.predicates.append(
            ast.Comparison(
                ">", ast.AggregateCall("count", None), ast.Literal(1)
            )
        )
        with pytest.raises(QGMConsistencyError):
            validate_graph(g, empdept_catalog)

    def test_detects_non_grouped_output(self, empdept_catalog):
        g = build("SELECT count(*) FROM emp", empdept_catalog)
        group_box = g.root
        assert isinstance(group_box, GroupByBox)
        gq = group_box.quantifier
        group_box.outputs.append(OutputColumn("leak", gq.ref("one_1")))
        with pytest.raises(QGMConsistencyError):
            validate_graph(g, empdept_catalog)

    def test_detects_unknown_base_table(self, empdept_catalog):
        box = BaseTableBox("ghost", ["a"])
        outer = SelectBox()
        q = outer.add_quantifier(box, "g")
        outer.outputs = [OutputColumn("a", q.ref("a"))]
        from repro.qgm.model import QueryGraph

        with pytest.raises(QGMConsistencyError):
            validate_graph(QueryGraph(root=outer), empdept_catalog)

    def test_detects_schema_drift(self, empdept_catalog):
        box = BaseTableBox("dept", ["wrong", "columns"])
        outer = SelectBox()
        q = outer.add_quantifier(box, "d")
        outer.outputs = [OutputColumn("wrong", q.ref("wrong"))]
        from repro.qgm.model import QueryGraph

        with pytest.raises(QGMConsistencyError):
            validate_graph(QueryGraph(root=outer), empdept_catalog)

    def test_detects_setop_arity_drift(self, empdept_catalog):
        g = build(
            "SELECT building FROM dept UNION ALL SELECT building FROM emp",
            empdept_catalog,
        )
        arm = g.root.quantifiers[0].box
        arm.outputs.append(
            OutputColumn("extra", ast.Literal(1))
        )
        with pytest.raises(QGMConsistencyError):
            validate_graph(g, empdept_catalog)

    def test_detects_quantifier_owned_twice(self, empdept_catalog):
        g = build("SELECT d.name FROM dept d", empdept_catalog)
        inner = SelectBox(outputs=[OutputColumn("x", ast.Literal(1))])
        stolen = g.root.quantifiers[0]
        inner.quantifiers.append(stolen)
        g.root.add_quantifier(inner, "i")
        with pytest.raises(QGMConsistencyError):
            validate_graph(g, empdept_catalog)


# -- every message, and visibility in a DAG ------------------------------------


def _foreign_ref(g, catalog):
    """A reference to a quantifier of another graph: reachable from nowhere."""
    other = build("SELECT name FROM emp", catalog)
    g.root.outputs.append(OutputColumn("bad", other.root.quantifiers[0].ref("name")))


def _sibling_ref(g, catalog):
    """A reference, from the root, to a quantifier a derived table owns."""
    derived = g.root.quantifiers[1].box
    g.root.outputs.append(OutputColumn("bad", derived.quantifiers[0].ref("name")))


def _nested_aggregate_output(g, catalog):
    group = g.root
    group.outputs.append(OutputColumn(
        "bad", ast.BinaryOp("+", ast.AggregateCall("count", None), ast.Literal(1))
    ))


def _aggregate_group_key(g, catalog):
    g.root.group_by.append(ast.AggregateCall("count", None))


def _aggregate_spj_output(g, catalog):
    g.root.outputs.append(OutputColumn("bad", ast.AggregateCall("count", None)))


def _one_armed_union(g, catalog):
    del g.root.quantifiers[1:]


def _order_by_past_the_outputs(g, catalog):
    g.order_by.append((len(g.root.outputs), False))


BROKEN = {
    "unreachable": (
        "SELECT name FROM dept", _foreign_ref, "to unreachable quantifier",
    ),
    "invisible": (
        "SELECT d.name FROM dept d, (SELECT e.name FROM emp e) AS x",
        _sibling_ref, "not visible here",
    ),
    "nested-aggregate": (
        "SELECT building, count(*) FROM emp GROUP BY building",
        _nested_aggregate_output, "aggregates must be top-level",
    ),
    "aggregate-group-key": (
        "SELECT building, count(*) FROM emp GROUP BY building",
        _aggregate_group_key, "aggregate call in GROUP BY expression",
    ),
    "aggregate-spj-output": (
        "SELECT name FROM dept", _aggregate_spj_output, "aggregate call in SPJ output",
    ),
    "one-armed-setop": (
        "SELECT building FROM dept UNION SELECT building FROM emp",
        _one_armed_union, "needs at least two inputs",
    ),
    "order-by-position": (
        "SELECT name FROM dept ORDER BY name", _order_by_past_the_outputs,
        r"ORDER BY position \d+ out of range",
    ),
}


@pytest.mark.parametrize("sql, damage, message", BROKEN.values(), ids=BROKEN)
def test_each_broken_invariant_is_named(empdept_catalog, sql, damage, message):
    g = build(sql, empdept_catalog)
    validate_graph(g, empdept_catalog)
    damage(g, empdept_catalog)
    with pytest.raises(QGMConsistencyError, match=message):
        validate_graph(g, empdept_catalog)


def _dag(catalog, via):
    """A root over two boxes A and B that share one box S (returned with the
    graph), S over a derived box T; ``via`` names the box whose quantifier
    T's output reads.

    A owns ``a`` (over dept) and B ``b``; C, a third child of the root, owns
    ``c``, and is no ancestor of T.
    """
    dept = build("SELECT name FROM dept", catalog).root.quantifiers[0].box
    t = SelectBox()
    t_dept = t.add_quantifier(dept, "t")
    t.outputs = [OutputColumn("name", t_dept.ref("name"))]
    s = SelectBox()
    s_t = s.add_quantifier(t, "s")
    s.outputs = [OutputColumn("name", s_t.ref("name"))]
    root = SelectBox()
    owners = {}
    for label in ("a", "b", "c"):
        box = SelectBox()
        owners[label] = box.add_quantifier(dept, label)
        if label != "c":
            box.add_quantifier(s, f"{label}s")
        box.outputs = [OutputColumn("name", owners[label].ref("name"))]
        root.add_quantifier(box, f"r{label}")
    root.outputs = [OutputColumn("name", root.quantifiers[0].ref("name"))]
    t.outputs.append(OutputColumn("outer", owners[via].ref("name")))
    return QueryGraph(root=root), s


@pytest.mark.parametrize("via", ["a", "b"])
def test_a_shared_box_sees_what_one_of_its_parents_provides(empdept_catalog, via):
    graph, shared = _dag(empdept_catalog, via)
    assert len(parent_edges(graph.root)[shared.id]) == 2
    validate_graph(graph, empdept_catalog)


def test_a_shared_box_does_not_see_what_neither_parent_provides(empdept_catalog):
    with pytest.raises(QGMConsistencyError, match="not visible here"):
        validate_graph(_dag(empdept_catalog, "c")[0], empdept_catalog)
