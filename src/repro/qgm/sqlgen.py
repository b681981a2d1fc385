"""Render a QGM back to SQL, one CREATE VIEW per box.

Section 2.1 of the paper presents the magic-decorrelated example exactly
this way (Supp_Dept / Magic / Decorr_SubQuery / BugRemoval views plus a
final SELECT); this module produces the same presentation for any graph,
so `Database.rewritten_sql()` can show users what a strategy did to their
query in plain SQL.

Shared boxes (the supplementary common subexpression) naturally appear as
one view referenced twice. Remaining correlations render as references to
an enclosing view's alias -- syntactically meaningful to a reader even
though plain SQL engines would reject them; fully decorrelated graphs
produce standard SQL.
"""

from __future__ import annotations

from typing import Optional

from ..sql import ast
from ..sql.printer import _literal, _name
from .analysis import iter_boxes
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

#: View-name prefixes per box role, guessed from shape for readability.
_KIND_PREFIX = {
    "select": "v",
    "groupby": "agg",
    "setop": "setop",
    "outerjoin": "loj",
}


class _SqlGenerator:
    def __init__(self, graph: QueryGraph):
        self.graph = graph
        self.names: dict[int, str] = {}
        self.statements: list[str] = []
        self._assign_names()

    # -- naming -------------------------------------------------------------

    def _assign_names(self) -> None:
        for box in iter_boxes(self.graph.root):
            if isinstance(box, BaseTableBox):
                self.names[box.id] = _name(box.table_name)
            else:
                prefix = self._prefix_for(box)
                self.names[box.id] = f"{prefix}_{box.id}"

    def _prefix_for(self, box: Box) -> str:
        if isinstance(box, SelectBox) and box.distinct:
            return "magic"
        if isinstance(box, OuterJoinBox):
            return "bug_removal"
        return _KIND_PREFIX.get(box.kind, "v")

    # -- expressions ----------------------------------------------------------

    def expr(self, node: ast.Expr, local: dict[int, str]) -> str:
        """Render one expression; ``local`` maps quantifier ids to the
        aliases used in the current view's FROM clause."""

        def render(n: ast.Expr) -> str:
            if isinstance(n, ColumnRef):
                alias = local.get(id(n.quantifier), n.quantifier.name)
                return f"{_name(alias)}.{_name(n.column)}"
            if isinstance(n, ast.Literal):
                return _literal(n.value)
            if isinstance(n, ast.BinaryOp):
                return f"({render(n.left)} {n.op} {render(n.right)})"
            if isinstance(n, ast.UnaryMinus):
                return f"(- {render(n.operand)})"
            if isinstance(n, ast.Comparison):
                if n.op == "<=>":
                    left, right = render(n.left), render(n.right)
                    return (
                        f"({left} = {right} OR ({left} IS NULL "
                        f"AND {right} IS NULL))"
                    )
                return f"{render(n.left)} {n.op} {render(n.right)}"
            if isinstance(n, ast.And):
                return "(" + " AND ".join(render(i) for i in n.items) + ")"
            if isinstance(n, ast.Or):
                return "(" + " OR ".join(render(i) for i in n.items) + ")"
            if isinstance(n, ast.Not):
                return f"NOT ({render(n.operand)})"
            if isinstance(n, ast.IsNull):
                suffix = "IS NOT NULL" if n.negated else "IS NULL"
                return f"{render(n.operand)} {suffix}"
            if isinstance(n, ast.Like):
                keyword = "NOT LIKE" if n.negated else "LIKE"
                return f"{render(n.operand)} {keyword} {render(n.pattern)}"
            if isinstance(n, ast.Between):
                keyword = "NOT BETWEEN" if n.negated else "BETWEEN"
                return (
                    f"{render(n.operand)} {keyword} {render(n.low)} "
                    f"AND {render(n.high)}"
                )
            if isinstance(n, ast.InList):
                keyword = "NOT IN" if n.negated else "IN"
                inner = ", ".join(render(i) for i in n.items)
                return f"{render(n.operand)} {keyword} ({inner})"
            if isinstance(n, ast.FunctionCall):
                return f"{n.name}({', '.join(render(a) for a in n.args)})"
            if isinstance(n, ast.AggregateCall):
                if n.argument is None:
                    return "count(*)"
                prefix = "DISTINCT " if n.distinct else ""
                return f"{n.func}({prefix}{render(n.argument)})"
            if isinstance(n, ast.Case):
                whens = " ".join(
                    f"WHEN {render(c)} THEN {render(v)}" for c, v in n.whens
                )
                otherwise = f" ELSE {render(n.otherwise)}" if n.otherwise else ""
                return f"CASE {whens}{otherwise} END"
            if isinstance(n, BoxScalarSubquery):
                return f"(SELECT * FROM {self.names[n.box.id]})"
            if isinstance(n, BoxExists):
                keyword = "NOT EXISTS" if n.negated else "EXISTS"
                return f"{keyword} (SELECT 1 FROM {self.names[n.box.id]})"
            if isinstance(n, BoxInSubquery):
                keyword = "NOT IN" if n.negated else "IN"
                return (
                    f"{render(n.operand)} {keyword} "
                    f"(SELECT * FROM {self.names[n.box.id]})"
                )
            if isinstance(n, BoxQuantifiedComparison):
                return (
                    f"{render(n.operand)} {n.op} {n.quantifier_kind.upper()} "
                    f"(SELECT * FROM {self.names[n.box.id]})"
                )
            return repr(n)

        return render(node)

    # -- per-box view bodies ---------------------------------------------------

    def body(self, box: Box) -> Optional[str]:
        if isinstance(box, BaseTableBox):
            return None
        if isinstance(box, SelectBox):
            return self._select_body(box)
        if isinstance(box, GroupByBox):
            return self._groupby_body(box)
        if isinstance(box, SetOpBox):
            arms = " UNION ALL ".join(
                f"SELECT * FROM {self.names[q.box.id]}" for q in box.quantifiers
            )
            if box.op == "union" and not box.all:
                arms = " UNION ".join(
                    f"SELECT * FROM {self.names[q.box.id]}"
                    for q in box.quantifiers
                )
            elif box.op != "union":
                arms = f" {box.op.upper()} ".join(
                    f"SELECT * FROM {self.names[q.box.id]}"
                    for q in box.quantifiers
                )
            return arms
        if isinstance(box, OuterJoinBox):
            return self._outerjoin_body(box)
        return None

    def _items(self, box: Box, local: dict[int, str]) -> str:
        """The select list of ``box``'s view: each output under its name."""
        return ", ".join(
            f"{self.expr(o.expr, local)} AS {_name(o.name)}" for o in box.outputs
        )

    def _select_body(self, box: SelectBox) -> str:
        local = {id(q): q.name for q in box.quantifiers}
        froms = ", ".join(
            f"{self.names[q.box.id]} AS {_name(q.name)}" for q in box.quantifiers
        )
        items = self._items(box, local)
        text = "SELECT "
        if box.distinct:
            text += "DISTINCT "
        text += items
        if froms:
            text += f" FROM {froms}"
        if box.predicates:
            conjuncts = " AND ".join(self.expr(p, local) for p in box.predicates)
            text += f" WHERE {conjuncts}"
        return text

    def _groupby_body(self, box: GroupByBox) -> str:
        q = box.quantifier
        local = {id(q): q.name}
        items = self._items(box, local)
        text = f"SELECT {items} FROM {self.names[q.box.id]} AS {_name(q.name)}"
        if box.group_by:
            keys = ", ".join(self.expr(g, local) for g in box.group_by)
            text += f" GROUP BY {keys}"
        return text

    def _outerjoin_body(self, box: OuterJoinBox) -> str:
        left, right = box.preserved, box.null_producing
        local = {id(left): left.name, id(right): right.name}
        items = self._items(box, local)
        condition = (
            self.expr(box.condition, local) if box.condition is not None else "TRUE"
        )
        return (
            f"SELECT {items} FROM {self.names[left.box.id]} AS {_name(left.name)} "
            f"LEFT OUTER JOIN {self.names[right.box.id]} AS {_name(right.name)} "
            f"ON {condition}"
        )

    # -- whole graph -------------------------------------------------------------

    def generate(self) -> str:
        # Emit views bottom-up so each references only earlier ones.
        emitted: set[int] = set()
        statements: list[str] = []

        def emit(box: Box) -> None:
            if box.id in emitted:
                return
            emitted.add(box.id)
            from .analysis import box_children

            for child in box_children(box):
                emit(child)
            if box is self.graph.root:
                return
            body = self.body(box)
            if body is not None:
                statements.append(
                    f"CREATE VIEW {self.names[box.id]} AS\n  {body};"
                )

        emit(self.graph.root)
        final = self.body(self.graph.root) or (
            f"SELECT * FROM {self.names[self.graph.root.id]}"
        )
        if self.graph.order_by:
            keys = ", ".join(
                f"{pos + 1}{' DESC' if desc else ''}"
                for pos, desc in self.graph.order_by
            )
            final += f" ORDER BY {keys}"
        if self.graph.limit is not None:
            final += f" LIMIT {self.graph.limit}"
        statements.append(final + ";")
        return "\n\n".join(statements)


def graph_to_sql(graph: QueryGraph) -> str:
    """The whole graph as CREATE VIEW statements plus a final SELECT --
    the presentation the paper itself uses in section 2.1."""
    return _SqlGenerator(graph).generate()
