"""QGM boxes and quantifiers.

Box kinds:

* :class:`BaseTableBox` -- leaf over a catalog table.
* :class:`SelectBox` -- Select-Project-Join (the paper's "SPJ box"):
  a list of quantifiers (FROM), conjunctive predicates (WHERE, possibly
  containing subquery expressions), computed outputs, optional DISTINCT.
* :class:`GroupByBox` -- aggregation over one input quantifier (the paper's
  "Aggregate box", a non-SPJ box).
* :class:`SetOpBox` -- UNION [ALL] / INTERSECT / EXCEPT (non-SPJ).
* :class:`OuterJoinBox` -- left outer join of two quantifiers; introduced by
  explicit ``LEFT OUTER JOIN`` syntax and by decorrelation's COUNT-bug
  removal step.

Boxes form a tree for freshly-built queries; decorrelation deliberately
creates shared boxes (the supplementary common subexpression), after which
the graph is a DAG. Expressions inside a box may reference quantifiers of
ancestor boxes -- those are the *correlations* this whole project is about.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..sql import ast
from .expr import ColumnRef

_box_counter = itertools.count(1)
_quantifier_counter = itertools.count(1)


class Quantifier:
    """A handle on the rows of a box (the paper's *iterator*).

    ``name`` is the user-visible alias (``D``, ``E``, ``Q4``); uniqueness is
    guaranteed by appending a global counter for generated quantifiers.
    """

    def __init__(self, name: str, box: "Box"):
        self.name = name
        self.box = box

    @staticmethod
    def fresh(box: "Box", prefix: str = "q") -> "Quantifier":
        return Quantifier(f"{prefix}{next(_quantifier_counter)}", box)

    def ref(self, column: str) -> ColumnRef:
        """Convenience: a :class:`ColumnRef` to one of this quantifier's columns."""
        return ColumnRef(self, column)

    def refs(self, columns: Iterable[str]) -> list[ColumnRef]:
        return [ColumnRef(self, c) for c in columns]

    def __repr__(self) -> str:
        return f"Quantifier({self.name} over box {self.box.id})"


@dataclass
class OutputColumn:
    """A named output of a box, computed by ``expr`` over the box's inputs."""

    name: str
    expr: ast.Expr


class Box:
    """Base class for QGM boxes."""

    kind = "abstract"
    #: Can this box absorb a magic table directly (paper section 4.4's
    #: AM/NM classification)? SPJ boxes can; aggregates/set-ops feed their
    #: children first.
    accepts_magic = False

    def __init__(self) -> None:
        self.id = next(_box_counter)

    # -- uniform interface -------------------------------------------------

    def output_names(self) -> list[str]:
        raise NotImplementedError

    def child_quantifiers(self) -> list[Quantifier]:
        """Quantifiers this box ranges over (FROM-style children)."""
        raise NotImplementedError

    def own_exprs(self) -> list[ast.Expr]:
        """All expressions evaluated by this box (predicates + outputs)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(id={self.id})"


class BaseTableBox(Box):
    """Leaf box over a named base table."""

    kind = "base_table"

    def __init__(self, table_name: str, column_names: list[str]):
        super().__init__()
        self.table_name = table_name.lower()
        self.column_names = [c.lower() for c in column_names]

    def output_names(self) -> list[str]:
        return list(self.column_names)

    def child_quantifiers(self) -> list[Quantifier]:
        return []

    def own_exprs(self) -> list[ast.Expr]:
        return []


class SelectBox(Box):
    """Select-Project-Join box (the paper's SPJ box)."""

    kind = "select"
    accepts_magic = True

    def __init__(
        self,
        quantifiers: Optional[list[Quantifier]] = None,
        predicates: Optional[list[ast.Expr]] = None,
        outputs: Optional[list[OutputColumn]] = None,
        distinct: bool = False,
    ):
        super().__init__()
        self.quantifiers: list[Quantifier] = quantifiers or []
        self.predicates: list[ast.Expr] = predicates or []
        self.outputs: list[OutputColumn] = outputs or []
        self.distinct = distinct

    def output_names(self) -> list[str]:
        return [o.name for o in self.outputs]

    def child_quantifiers(self) -> list[Quantifier]:
        return list(self.quantifiers)

    def own_exprs(self) -> list[ast.Expr]:
        return [*self.predicates, *(o.expr for o in self.outputs)]

    def add_quantifier(self, box: Box, name_prefix: str = "q") -> Quantifier:
        q = Quantifier.fresh(box, name_prefix)
        self.quantifiers.append(q)
        return q


class GroupByBox(Box):
    """Aggregation box: groups its single input and computes aggregates.

    ``group_by`` are expressions over ``quantifier``; every output is either
    one of the group expressions or an aggregate over the input. A GROUP BY
    with no grouping columns is a *scalar* aggregate producing exactly one
    row (the shape of all the paper's correlated subqueries).
    """

    kind = "groupby"

    def __init__(
        self,
        quantifier: Quantifier,
        group_by: Optional[list[ast.Expr]] = None,
        outputs: Optional[list[OutputColumn]] = None,
    ):
        super().__init__()
        self.quantifier = quantifier
        self.group_by: list[ast.Expr] = group_by or []
        self.outputs: list[OutputColumn] = outputs or []

    def output_names(self) -> list[str]:
        return [o.name for o in self.outputs]

    def child_quantifiers(self) -> list[Quantifier]:
        return [self.quantifier]

    def own_exprs(self) -> list[ast.Expr]:
        return [*self.group_by, *(o.expr for o in self.outputs)]

    @property
    def is_scalar(self) -> bool:
        """True when there are no grouping columns (always exactly one row)."""
        return not self.group_by


class SetOpBox(Box):
    """UNION [ALL] / INTERSECT / EXCEPT. Children are matched by position."""

    kind = "setop"

    def __init__(self, op: str, all: bool, quantifiers: list[Quantifier],
                 output_names: list[str]):
        super().__init__()
        self.op = op  # "union" | "intersect" | "except"
        self.all = all
        self.quantifiers = quantifiers
        self._output_names = [n.lower() for n in output_names]

    def output_names(self) -> list[str]:
        return list(self._output_names)

    def child_quantifiers(self) -> list[Quantifier]:
        return list(self.quantifiers)

    def own_exprs(self) -> list[ast.Expr]:
        return []


class OuterJoinBox(Box):
    """Left outer join: ``preserved LOJ null_producing ON condition``."""

    kind = "outerjoin"

    def __init__(
        self,
        preserved: Quantifier,
        null_producing: Quantifier,
        condition: Optional[ast.Expr],
        outputs: list[OutputColumn],
    ):
        super().__init__()
        self.preserved = preserved
        self.null_producing = null_producing
        self.condition = condition
        self.outputs = outputs

    def output_names(self) -> list[str]:
        return [o.name for o in self.outputs]

    def child_quantifiers(self) -> list[Quantifier]:
        return [self.preserved, self.null_producing]

    def own_exprs(self) -> list[ast.Expr]:
        exprs = [o.expr for o in self.outputs]
        if self.condition is not None:
            exprs.append(self.condition)
        return exprs


@dataclass
class QueryGraph:
    """A complete query: root box plus top-level ORDER BY / LIMIT.

    ``order_by`` entries are ``(output_position, descending)`` pairs over the
    root box's outputs -- ordering is presentation-only in QGM and never
    participates in rewrites.
    """

    root: Box
    order_by: list[tuple[int, bool]] = field(default_factory=list)
    limit: Optional[int] = None
    #: When ORDER BY needs columns that are not in the select list, the
    #: builder appends hidden sort outputs; only the first
    #: ``visible_columns`` outputs are returned to the user.
    visible_columns: Optional[int] = None

    def output_names(self) -> list[str]:
        names = self.root.output_names()
        if self.visible_columns is not None:
            names = names[: self.visible_columns]
        return names
