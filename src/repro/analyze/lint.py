"""QGM lint rules: graph invariants, correlation patterns, applicability.

Three cooperating pieces, all operating on a *bound* query graph:

* a rule registry (:data:`LINT_RULES`) whose rules turn graph-level hazards
  into coded diagnostics -- consistency (``QGM001``, the paper's section-3
  invariant that every rewrite step leaves the QGM consistent), COUNT-bug
  exposure (``QGM002``, section 2.1), non-linearity (``QGM003``, the
  section-2 Query 3 shape) and multi-quantifier correlation (``QGM004``);
* a correlation-pattern classifier (:func:`classify_patterns`) naming each
  subquery per the paper's section-2 taxonomy: scalar aggregate, plain
  scalar, existential (EXISTS), set containment (IN), quantified comparison
  (ANY/ALL), and correlated table expressions;
* per-strategy verdicts (:func:`strategy_verdicts`) that run each
  historical method's rewrite (Kim, Dayal, Ganski/Wong) on a copy of the
  graph to report whether it applies and, if not, the rewrite's own reason,
  and describe what magic decorrelation will do (full, partial via
  correlated-input boxes, or nothing).

The heavy imports from ``repro.rewrite`` are deferred into the functions so
that ``repro.rewrite.engine`` can import this module without a cycle.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from ..errors import NotApplicableError, QGMConsistencyError
from ..qgm.analysis import external_column_refs, is_correlated, iter_boxes
from ..qgm.expr import (
    BOX_SUBQUERY_TYPES,
    BoxExists,
    BoxInSubquery,
    BoxQuantifiedComparison,
    BoxScalarSubquery,
    walk_expr,
)
from ..qgm.model import Box, QueryGraph, SelectBox, SetOpBox
from ..qgm.validate import validate_graph
from ..storage.catalog import Catalog
from .diagnostics import Diagnostic, Severity

#: The paper's section-2 correlation-pattern names.
PATTERN_KINDS = (
    "scalar-agg",
    "scalar",
    "exists",
    "set-containment",
    "quantified-comparison",
    "table-expression",
)


@dataclass(frozen=True)
class PatternMatch:
    """One classified subquery (or correlated table expression)."""

    kind: str  # one of PATTERN_KINDS
    box_id: int  # the subquery's QGM box
    owner_id: int  # the box whose expression/FROM holds it
    correlated: bool
    count_bug: bool = False  # scalar-agg with COUNT outputs and correlation

    def describe(self) -> str:
        text = {
            "scalar-agg": "scalar aggregate subquery",
            "scalar": "scalar subquery",
            "exists": "existential (EXISTS) subquery",
            "set-containment": "set-containment (IN) subquery",
            "quantified-comparison": "quantified comparison (ANY/ALL) subquery",
            "table-expression": "table expression in FROM",
        }[self.kind]
        text += f" (box {self.box_id})"
        text += ", correlated" if self.correlated else ", uncorrelated"
        if self.count_bug:
            text += ", COUNT-bug exposed"
        return text


@dataclass(frozen=True)
class StrategyVerdict:
    """Whether one decorrelation strategy applies to a query, and why."""

    strategy: str  # Strategy enum value: "ni", "kim", ...
    label: str  # human name: "Kim's method", ...
    applicable: bool
    reason: str

    def describe(self) -> str:
        verdict = "applicable" if self.applicable else "not applicable"
        return f"{self.label}: {verdict} -- {self.reason}"


# -- pattern classification ---------------------------------------------------


def classify_patterns(graph: QueryGraph | Box) -> list[PatternMatch]:
    """Classify every subquery in the graph per the paper's taxonomy."""
    from ..rewrite.decorrelate.common import match_scalar_agg

    root = graph.root if isinstance(graph, QueryGraph) else graph
    patterns: list[PatternMatch] = []
    subquery_subtree_ids: set[int] = set()

    for box in iter_boxes(root):
        for expr in box.own_exprs():
            for node in walk_expr(expr):
                if not isinstance(node, BOX_SUBQUERY_TYPES):
                    continue
                subquery_subtree_ids.update(b.id for b in iter_boxes(node.box))
                correlated = is_correlated(node.box)
                if isinstance(node, BoxScalarSubquery):
                    pattern = match_scalar_agg(node)
                    if pattern is not None:
                        patterns.append(PatternMatch(
                            "scalar-agg", node.box.id, box.id, correlated,
                            count_bug=bool(pattern.count_outputs) and correlated,
                        ))
                    else:
                        patterns.append(PatternMatch(
                            "scalar", node.box.id, box.id, correlated,
                        ))
                elif isinstance(node, BoxExists):
                    patterns.append(PatternMatch(
                        "exists", node.box.id, box.id, correlated,
                    ))
                elif isinstance(node, BoxInSubquery):
                    patterns.append(PatternMatch(
                        "set-containment", node.box.id, box.id, correlated,
                    ))
                elif isinstance(node, BoxQuantifiedComparison):
                    patterns.append(PatternMatch(
                        "quantified-comparison", node.box.id, box.id, correlated,
                    ))

    # Correlated table expressions: a FROM-clause quantifier whose subtree
    # references outer quantifiers (the paper's Query 3). Boxes *inside* an
    # already-classified subquery (e.g. the SPJ under a scalar aggregate)
    # are skipped -- their correlation belongs to the subquery pattern --
    # and so are table expressions nested inside an outer one: iter_boxes
    # is pre-order, so the outermost expression claims its whole subtree.
    claimed = set(subquery_subtree_ids)
    for box in iter_boxes(root):
        if not isinstance(box, SelectBox) or box.id in claimed:
            continue
        for q in box.child_quantifiers():
            if q.box.id in claimed:
                continue
            if is_correlated(q.box):
                patterns.append(PatternMatch(
                    "table-expression", q.box.id, box.id, correlated=True,
                ))
                claimed.update(b.id for b in iter_boxes(q.box))
    return patterns


# -- lint rules ----------------------------------------------------------------


@dataclass(frozen=True)
class LintRule:
    """One registered lint rule over a bound graph.

    ``paper`` names the invariant or observation in the source paper that
    motivates the rule (listed in DESIGN.md's error-code registry).
    """

    code: str
    title: str
    paper: str
    check: Callable[[QueryGraph | Box, Optional[Catalog]], Iterable[Diagnostic]]


LINT_RULES: list[LintRule] = []


def register_rule(code: str, title: str, paper: str):
    """Decorator registering a check function as a lint rule."""

    def wrap(fn: Callable) -> Callable:
        LINT_RULES.append(LintRule(code, title, paper, fn))
        return fn

    return wrap


def lint_graph(
    graph: QueryGraph | Box, catalog: Optional[Catalog] = None
) -> list[Diagnostic]:
    """Run every registered lint rule; never raises."""
    diagnostics: list[Diagnostic] = []
    for rule in LINT_RULES:
        diagnostics.extend(rule.check(graph, catalog))
    return diagnostics


@register_rule(
    "QGM001", "graph consistency",
    'section 3: "each rule application should leave the QGM in a '
    'consistent state"',
)
def _check_consistency(
    graph: QueryGraph | Box, catalog: Optional[Catalog]
) -> Iterable[Diagnostic]:
    try:
        validate_graph(graph, catalog)
    except QGMConsistencyError as exc:
        yield Diagnostic("QGM001", Severity.ERROR, str(exc))


@register_rule(
    "QGM002", "COUNT-bug exposure",
    "section 2.1: a correlated COUNT subquery must yield 0 (not no row) "
    "for empty groups; naive rewrites need a left outer join + COALESCE",
)
def _check_count_bug(
    graph: QueryGraph | Box, catalog: Optional[Catalog]
) -> Iterable[Diagnostic]:
    from ..rewrite.decorrelate.common import (
        match_scalar_agg,
        node_use_is_null_rejecting,
    )

    root = graph.root if isinstance(graph, QueryGraph) else graph
    for box in iter_boxes(root):
        if not isinstance(box, SelectBox):
            continue
        for expr in box.own_exprs():
            for node in walk_expr(expr):
                if not isinstance(node, BoxScalarSubquery):
                    continue
                pattern = match_scalar_agg(node)
                if pattern is None or not pattern.count_outputs:
                    continue
                if not is_correlated(node.box):
                    continue
                null_rejecting = node_use_is_null_rejecting(box, node)
                message = (
                    f"correlated COUNT subquery (box {node.box.id}): empty "
                    "groups must produce 0, so join-based rewrites need a "
                    "left outer join with COALESCE (the COUNT bug)"
                )
                hint = (
                    "every use of the subquery is null-rejecting, so the "
                    "engine may substitute a plain join (paper section 4.3)"
                    if null_rejecting else None
                )
                yield Diagnostic("QGM002", Severity.WARNING, message, hint=hint)


@register_rule(
    "QGM003", "non-linear correlated query",
    "section 2, Query 3: set operations make the query non-linear; Kim's "
    "and Dayal's methods are then not applicable",
)
def _check_non_linear(
    graph: QueryGraph | Box, catalog: Optional[Catalog]
) -> Iterable[Diagnostic]:
    root = graph.root if isinstance(graph, QueryGraph) else graph
    has_setop = any(isinstance(b, SetOpBox) for b in iter_boxes(root))
    if not has_setop:
        return
    if any(p.correlated for p in classify_patterns(root)):
        yield Diagnostic(
            "QGM003", Severity.INFO,
            "correlated query is non-linear (contains a set operation); "
            "only magic decorrelation applies",
        )


@register_rule(
    "QGM004", "multi-quantifier correlation",
    "section 2: Ganski/Wong project the magic table from a single outer "
    "table; correlation into several quantifiers disqualifies it",
)
def _check_multi_quantifier(
    graph: QueryGraph | Box, catalog: Optional[Catalog]
) -> Iterable[Diagnostic]:
    root = graph.root if isinstance(graph, QueryGraph) else graph
    for pattern in classify_patterns(root):
        if not pattern.correlated:
            continue
        subtree = _box_by_id(root, pattern.box_id)
        if subtree is None:
            continue
        targets = {id(ref.quantifier) for _, ref in external_column_refs(subtree)}
        if len(targets) > 1:
            yield Diagnostic(
                "QGM004", Severity.INFO,
                f"{pattern.describe()} draws bindings from {len(targets)} "
                "outer quantifiers; single-table rewrites (Ganski/Wong) "
                "cannot apply",
            )


def _box_by_id(root: Box, box_id: int) -> Optional[Box]:
    for box in iter_boxes(root):
        if box.id == box_id:
            return box
    return None


# -- strategy applicability ----------------------------------------------------

#: The historical methods of section 2: strategy, label, and what a query
#: they rewrite looks like.
_HISTORICAL_METHODS = (
    ("kim", "Kim's method",
     "single correlated scalar-aggregate subquery with pure equality "
     "correlation over base tables"),
    ("dayal", "Dayal's method",
     "scalar-aggregate subquery and every outer table has a declared key to "
     "group on"),
    ("ganski_wong", "Ganski/Wong",
     "scalar-aggregate subquery correlated to a single outer base table"),
)
_NO_OP = "no correlated subquery or table expression; no-op"


def strategy_verdicts(graph: QueryGraph, catalog: Catalog) -> list[StrategyVerdict]:
    """Report, for every decorrelation strategy, whether it applies to the
    *freshly bound* graph and why. Kim, Dayal and Ganski/Wong are judged by
    running their rewrite on a copy of the graph, exactly as execution
    would: a refusal reports the rewrite's own reason. The graph itself is
    never mutated."""
    from ..errors import RewriteError
    from ..rewrite.decorrelate.encapsulators import subtree_can_absorb
    from ..rewrite.engine import RewriteEngine

    root = graph.root
    patterns = classify_patterns(root)
    correlated = [p for p in patterns if p.correlated]
    verdicts: list[StrategyVerdict] = [
        StrategyVerdict(
            "ni", "nested iteration", True,
            "baseline execution; correlated subqueries are re-evaluated "
            "per outer binding",
        )
    ]
    engine = RewriteEngine(catalog, validate=False)
    for strategy, label, shape in _HISTORICAL_METHODS:
        try:
            engine.rewrite(copy.deepcopy(graph), strategy)
        except NotApplicableError as exc:
            verdicts.append(StrategyVerdict(strategy, label, False, exc.reason))
        except (RewriteError, QGMConsistencyError) as exc:
            verdicts.append(StrategyVerdict(strategy, label, False, str(exc)))
        else:
            reason = shape if correlated else _NO_OP
            verdicts.append(StrategyVerdict(strategy, label, True, reason))

    # Magic decorrelation is always applicable; describe what it will do.
    if not correlated:
        magic_reason = _NO_OP
    else:
        parts: list[str] = []
        full = partial = left = 0
        for pattern in correlated:
            subtree = _box_by_id(root, pattern.box_id)
            absorbable = subtree is not None and subtree_can_absorb(subtree)
            if pattern.kind == "scalar-agg" and absorbable:
                full += 1
            elif absorbable:
                partial += 1
            else:
                left += 1
        if full:
            parts.append(f"{full} scalar aggregate(s) fully decorrelated")
        if partial:
            parts.append(
                f"{partial} subquery(ies) partially decorrelated via "
                "correlated-input boxes (section 4.4)"
            )
        if left:
            parts.append(f"{left} subquery(ies) left correlated (NM subtree)")
        magic_reason = "; ".join(parts)
    verdicts.append(StrategyVerdict("magic", "magic decorrelation", True,
                                    magic_reason))
    verdicts.append(StrategyVerdict(
        "magic_opt", "magic decorrelation (OptMag)", True,
        magic_reason + "; keyed supplementary boxes are simplified when the "
        "correlation attributes form a key (section 5.1)",
    ))
    return verdicts


# -- diagnostics from analysis results ----------------------------------------


def pattern_diagnostics(patterns: list[PatternMatch]) -> list[Diagnostic]:
    return [
        Diagnostic("DEC001", Severity.INFO, p.describe()) for p in patterns
    ]


def verdict_diagnostics(verdicts: list[StrategyVerdict]) -> list[Diagnostic]:
    code_by_strategy = {
        "kim": "DEC002",
        "dayal": "DEC003",
        "ganski_wong": "DEC004",
        "magic": "DEC005",
    }
    result: list[Diagnostic] = []
    for verdict in verdicts:
        code = code_by_strategy.get(verdict.strategy)
        if code is not None:
            result.append(Diagnostic(code, Severity.INFO, verdict.describe()))
    return result


# The plan-contract rules (PLN001/PLN005/PLN006/PLN007) live in
# repro.analyze.plans and register themselves on import; importing the
# module here guarantees they are in LINT_RULES whenever lint_graph runs
# (in particular inside RewriteEngine.check, which re-verifies typed
# interfaces after every rewrite step). The import sits at the bottom so
# plans.py can import register_rule from this module without a cycle.
from . import plans  # noqa: E402,F401  (registration side effect)
