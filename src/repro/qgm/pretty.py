"""Textual rendering of a QGM, in the spirit of the paper's figures.

Each box is printed with its kind, quantifiers (with the boxes they range
over), predicates, outputs and -- crucially for this paper -- any correlated
references are annotated with ``^`` so decorrelation progress is visible in
examples and failing-test output.
"""

from __future__ import annotations

from ..sql import ast
from ..sql.printer import _literal
from .analysis import iter_boxes, owned_quantifier_ids
from .expr import (
    BoxExists,
    BoxInSubquery,
    BoxQuantifiedComparison,
    BoxScalarSubquery,
    ColumnRef,
)
from .model import (
    BaseTableBox,
    Box,
    GroupByBox,
    OuterJoinBox,
    QueryGraph,
    SelectBox,
    SetOpBox,
)


def expr_to_text(expr: ast.Expr, own_quantifiers: set[int]) -> str:
    """Render one expression, marking correlated refs with a ``^`` prefix."""

    def render(node: ast.Expr) -> str:
        if isinstance(node, ColumnRef):
            marker = "" if id(node.quantifier) in own_quantifiers else "^"
            return f"{marker}{node.quantifier.name}.{node.column}"
        if isinstance(node, ast.Literal):
            return _literal(node.value)
        if isinstance(node, ast.Parameter):
            return "?"
        if isinstance(node, ast.BinaryOp):
            return f"({render(node.left)} {node.op} {render(node.right)})"
        if isinstance(node, ast.UnaryMinus):
            return f"(-{render(node.operand)})"
        if isinstance(node, ast.Comparison):
            return f"{render(node.left)} {node.op} {render(node.right)}"
        if isinstance(node, ast.And):
            return "(" + " AND ".join(render(i) for i in node.items) + ")"
        if isinstance(node, ast.Or):
            return "(" + " OR ".join(render(i) for i in node.items) + ")"
        if isinstance(node, ast.Not):
            return f"NOT ({render(node.operand)})"
        if isinstance(node, ast.IsNull):
            return f"{render(node.operand)} IS {'NOT ' if node.negated else ''}NULL"
        if isinstance(node, ast.Like):
            keyword = "NOT LIKE" if node.negated else "LIKE"
            return f"{render(node.operand)} {keyword} {render(node.pattern)}"
        if isinstance(node, ast.Between):
            keyword = "NOT BETWEEN" if node.negated else "BETWEEN"
            return (
                f"{render(node.operand)} {keyword} {render(node.low)} "
                f"AND {render(node.high)}"
            )
        if isinstance(node, ast.InList):
            keyword = "NOT IN" if node.negated else "IN"
            return (
                f"{render(node.operand)} {keyword} "
                f"({', '.join(render(i) for i in node.items)})"
            )
        if isinstance(node, ast.Case):
            whens = " ".join(
                f"WHEN {render(c)} THEN {render(v)}" for c, v in node.whens
            )
            otherwise = (
                f" ELSE {render(node.otherwise)}" if node.otherwise else ""
            )
            return f"CASE {whens}{otherwise} END"
        if isinstance(node, ast.FunctionCall):
            return f"{node.name}({', '.join(render(a) for a in node.args)})"
        if isinstance(node, ast.AggregateCall):
            if node.argument is None:
                return "count(*)"
            prefix = "distinct " if node.distinct else ""
            return f"{node.func}({prefix}{render(node.argument)})"
        if isinstance(node, BoxScalarSubquery):
            return f"scalar(box {node.box.id})"
        if isinstance(node, BoxExists):
            return f"{'not ' if node.negated else ''}exists(box {node.box.id})"
        if isinstance(node, BoxInSubquery):
            keyword = "not in" if node.negated else "in"
            return f"{render(node.operand)} {keyword} (box {node.box.id})"
        if isinstance(node, BoxQuantifiedComparison):
            return (
                f"{render(node.operand)} {node.op} "
                f"{node.quantifier_kind}(box {node.box.id})"
            )
        return repr(node)

    return render(expr)


def box_to_text(box: Box) -> list[str]:
    own = owned_quantifier_ids(box)
    lines = [f"[{box.id}] {box.kind.upper()}"]
    if isinstance(box, BaseTableBox):
        lines[0] += f" {box.table_name}({', '.join(box.column_names)})"
        return lines
    for q in box.child_quantifiers():
        lines.append(f"    from {q.name} -> box {q.box.id}")
    if isinstance(box, SelectBox):
        if box.distinct:
            lines[0] += " DISTINCT"
        for predicate in box.predicates:
            lines.append(f"    where {expr_to_text(predicate, own)}")
    if isinstance(box, GroupByBox) and box.group_by:
        rendered = ", ".join(expr_to_text(g, own) for g in box.group_by)
        lines.append(f"    group by {rendered}")
    if isinstance(box, OuterJoinBox):
        condition = (
            expr_to_text(box.condition, own) if box.condition is not None else "TRUE"
        )
        lines.append(f"    on {condition}  (preserved: {box.preserved.name})")
    if isinstance(box, SetOpBox):
        lines[0] += f" {box.op.upper()}{' ALL' if box.all else ''}"
    outputs = getattr(box, "outputs", None)
    if outputs is not None:
        for output in outputs:
            lines.append(f"    out {output.name} = {expr_to_text(output.expr, own)}")
    return lines


def graph_to_text(graph: QueryGraph | Box) -> str:
    """Render every box of the graph, root first."""
    root = graph.root if isinstance(graph, QueryGraph) else graph
    sections: list[str] = []
    for box in iter_boxes(root):
        sections.append("\n".join(box_to_text(box)))
    text = "\n".join(sections)
    if isinstance(graph, QueryGraph) and (graph.order_by or graph.limit is not None):
        extras = []
        if graph.order_by:
            rendered = ", ".join(
                f"#{pos}{' DESC' if desc else ''}" for pos, desc in graph.order_by
            )
            extras.append(f"order by {rendered}")
        if graph.limit is not None:
            extras.append(f"limit {graph.limit}")
        text += "\n" + "; ".join(extras)
    return text
