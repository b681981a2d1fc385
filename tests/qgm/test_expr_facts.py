"""Expressions carry their own facts (DESIGN section 19).

:func:`~repro.qgm.expr.expr_facts` keeps, on each frozen node, what one walk
of it finds: its column references, its subquery nodes and whether it
aggregates. The memo is only as good as the rule that keeps it valid -- a
node never changes, and :func:`~repro.qgm.expr.transform_expr` hands back
an unchanged subtree as the same object -- so every memo in every graph the
rewrites produce is checked against a fresh walk, after every step.
"""

import pytest

from repro.errors import NotApplicableError
from repro.plan.compile import compile_query
from repro.qgm import build_qgm
from repro.qgm.analysis import iter_boxes
from repro.qgm.expr import (
    BOX_SUBQUERY_TYPES,
    ColumnRef,
    ExprFacts,
    expr_facts,
    replace_column_refs,
    transform_expr,
    walk_expr,
)
from repro.qgm.model import BaseTableBox, Quantifier
from repro.rewrite.engine import RewriteEngine
from repro.sql import ast
from repro.sql.parser import parse_statement
from repro.tpcd import (
    EMP_DEPT_QUERY,
    QUERY_1,
    QUERY_1_VARIANT,
    QUERY_2,
    QUERY_3,
    load_empdept,
    load_tpcd,
)

QUERIES = {
    "q1": QUERY_1,
    "q1v": QUERY_1_VARIANT,
    "q2": QUERY_2,
    "q3": QUERY_3,
    "empdept": EMP_DEPT_QUERY,
}
STRATEGIES = ["ni", "kim", "dayal", "magic", "magic_opt"]


@pytest.fixture(scope="module")
def catalogs():
    return {"tpcd": load_tpcd(scale_factor=0.001), "empdept": load_empdept()}


def _catalog(catalogs, query):
    return catalogs["empdept" if query == "empdept" else "tpcd"]


def walked(expr: ast.Expr) -> ExprFacts:
    """The facts of ``expr`` by a fresh walk, no memo read."""
    nodes = list(walk_expr(expr))
    return ExprFacts(
        tuple(n for n in nodes if isinstance(n, ColumnRef)),
        tuple(n for n in nodes if isinstance(n, BOX_SUBQUERY_TYPES)),
        any(isinstance(n, ast.AggregateCall) for n in nodes),
    )


def _same(memo: ExprFacts, fresh: ExprFacts) -> bool:
    """Equal element by element, by identity: refs compare by identity."""
    return (
        len(memo.refs) == len(fresh.refs)
        and all(a is b for a, b in zip(memo.refs, fresh.refs))
        and len(memo.subqueries) == len(fresh.subqueries)
        and all(a is b for a, b in zip(memo.subqueries, fresh.subqueries))
        and memo.aggregate == fresh.aggregate
    )


def check_graph(graph, where: str) -> int:
    """Every expression of every box: its facts, and every memo any node
    inside it already carries, equal a fresh walk's. Returns how many
    expressions were checked."""
    checked = 0
    for box in iter_boxes(graph.root):
        for expr in box.own_exprs():
            for node in walk_expr(expr):
                if node._facts is not None:
                    assert _same(node._facts, walked(node)), (where, box.id, node)
            assert _same(expr_facts(expr), walked(expr)), (where, box.id, expr)
            checked += 1
    return checked


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("query", QUERIES)
def test_memos_match_a_fresh_walk_after_every_step(catalogs, query, strategy):
    catalog = _catalog(catalogs, query)
    steps: list[str] = []

    def after_step(description, graph):
        steps.append(description)
        check_graph(graph, description)

    engine = RewriteEngine(catalog, validate=False, on_step=after_step)
    bound = build_qgm(parse_statement(QUERIES[query]), catalog)
    check_graph(bound, "bind")
    try:
        rewritten = engine.rewrite(bound, strategy)
    except NotApplicableError:
        pytest.skip(f"{strategy} does not apply to {query}")
    assert check_graph(rewritten, "final")
    assert bool(steps) == (strategy != "ni")
    # And the graph the compile step plans, memos and all.
    compiled = compile_query(QUERIES[query], catalog, engine, strategy)
    assert check_graph(compiled.graph, "compiled")


@pytest.mark.parametrize("query", QUERIES)
def test_a_no_op_transform_returns_the_same_object(catalogs, query):
    catalog = _catalog(catalogs, query)
    graph = build_qgm(parse_statement(QUERIES[query]), catalog)
    for box in iter_boxes(graph.root):
        for expr in box.own_exprs():
            assert transform_expr(expr, lambda node: None) is expr
            assert replace_column_refs(expr, lambda ref: None) is expr


def _quantifier(name: str) -> Quantifier:
    return Quantifier.fresh(BaseTableBox("t", ["a", "b", "c"]), name)


def test_a_one_ref_substitution_rebuilds_only_the_path_to_it():
    q, r = _quantifier("q"), _quantifier("r")
    target = q.ref("a")
    untouched = [
        ast.Comparison(">", q.ref("b"), ast.Literal(1)),
        ast.Like(r.ref("c"), ast.Literal("x%")),
        ast.FunctionCall("coalesce", (q.ref("c"), ast.AggregateCall("sum", r.ref("a")))),
    ]
    path_leaf = ast.BinaryOp("+", target, ast.Literal(2))
    path = ast.Comparison("=", path_leaf, r.ref("b"))
    expr = ast.And((untouched[0], ast.Or((path, untouched[1])), untouched[2]))
    before = {id(node): node for node in walk_expr(expr)}
    expr_facts(expr)  # memoize every node of the original

    replacement = r.ref("a")
    result = replace_column_refs(
        expr, lambda ref: replacement if ref is target else None
    )

    rebuilt = [node for node in walk_expr(result) if id(node) not in before]
    # The root, the OR, the comparison and the sum on the path, and the
    # replacement itself: nothing else is new.
    assert [type(node).__name__ for node in rebuilt] == [
        "And", "Or", "Comparison", "BinaryOp", "ColumnRef",
    ]
    assert rebuilt[-1] is replacement
    assert result.items[0] is untouched[0] and result.items[2] is untouched[2]
    assert result.items[1].items[1] is untouched[1]
    assert result.items[1].items[0].right is path.right
    assert result.items[1].items[0].left.right is path_leaf.right
    # The untouched subtrees keep their memos; the new nodes derive theirs
    # from them, and all of them agree with a fresh walk.
    assert untouched[2]._facts is not None
    for node in walk_expr(result):
        assert _same(expr_facts(node), walked(node)), node
    assert expr_facts(result).refs[1] is replacement
    assert expr_facts(result).aggregate
