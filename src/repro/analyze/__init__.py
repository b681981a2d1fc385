"""Static analysis for SQL text and query graphs.

The pipeline run by :func:`analyze_sql`:

1. parse (lex/parse failures become ``SYN001``/``SYN002`` diagnostics);
2. bind with the one binder, collecting
   (:func:`repro.qgm.builder.bind_collecting`): every rule the statement
   breaks becomes the coded ``SEM`` diagnostic of the error
   :func:`~repro.qgm.build_qgm` would raise for it -- same code, message,
   span and hint -- and every correlated reference an informational
   ``SEM101`` with the number of query blocks it crosses;
3. when the query bound cleanly, run the lint rules
   (:mod:`repro.analyze.lint`), the correlation-pattern classifier and the
   per-strategy applicability checkers over its graph.

Exposed to users as ``Database.analyze()`` and ``python -m repro lint``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import LexError, ParseError
from ..qgm.builder import bind_collecting
from ..sql import ast
from ..sql.parser import parse_statement
from ..storage.catalog import Catalog
from .diagnostics import (
    CODES,
    Diagnostic,
    Severity,
    render_diagnostic,
    render_diagnostics,
    sort_key,
)
from .lint import (
    LINT_RULES,
    LintRule,
    PatternMatch,
    StrategyVerdict,
    classify_patterns,
    lint_graph,
    pattern_diagnostics,
    strategy_verdicts,
    verdict_diagnostics,
)

__all__ = [
    "CODES",
    "Diagnostic",
    "Severity",
    "render_diagnostic",
    "render_diagnostics",
    "LINT_RULES",
    "LintRule",
    "PatternMatch",
    "StrategyVerdict",
    "classify_patterns",
    "lint_graph",
    "strategy_verdicts",
    "AnalysisReport",
    "analyze_sql",
]


@dataclass
class AnalysisReport:
    """Everything the analyzer found out about one statement."""

    sql: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    patterns: list[PatternMatch] = field(default_factory=list)
    verdicts: list[StrategyVerdict] = field(default_factory=list)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """True when the statement has no error-level diagnostics."""
        return not self.errors

    def has(self, code: str) -> bool:
        return any(d.code == code for d in self.diagnostics)

    def verdict(self, strategy: str) -> Optional[StrategyVerdict]:
        for verdict in self.verdicts:
            if verdict.strategy == strategy:
                return verdict
        return None

    def render(self, show_analysis: bool = True) -> str:
        """Human-readable report: diagnostics with caret underlining, then
        (optionally) the correlation patterns and strategy verdicts."""
        sections: list[str] = []
        if self.diagnostics:
            sections.append(render_diagnostics(self.diagnostics, self.sql))
        n_err, n_warn = len(self.errors), len(self.warnings)
        n_info = len(self.diagnostics) - n_err - n_warn
        sections.append(
            f"{len(self.diagnostics)} diagnostic(s): "
            f"{n_err} error(s), {n_warn} warning(s), {n_info} info"
        )
        if show_analysis and self.patterns:
            sections.append(
                "correlation patterns:\n"
                + "\n".join(f"  - {p.describe()}" for p in self.patterns)
            )
        if show_analysis and self.verdicts:
            sections.append(
                "strategy applicability:\n"
                + "\n".join(f"  - {v.describe()}" for v in self.verdicts)
            )
        return "\n\n".join(sections)


#: Step-level verifier codes (the interface-level PLN codes already arrive
#: through the registered lint rules; reporting both would double up).
_PLAN_STEP_CODES = frozenset(
    {"PLN002", "PLN003", "PLN004", "PLN008", "PLN009", "PLN010"}
)


def _plan_step_diagnostics(graph, catalog: Catalog) -> list[Diagnostic]:
    """Physical-plan verification for the report: plan every SPJ box and
    keep the step-level findings. Planner refusals surface as ``PLN008``
    via :func:`~repro.analyze.plans.verify_query_plan`."""
    from .plans import verify_query_plan

    diagnostics, _ = verify_query_plan(catalog, graph)
    return [d for d in diagnostics if d.code in _PLAN_STEP_CODES]


def analyze_sql(sql: str, catalog: Catalog) -> AnalysisReport:
    """Run the full analysis pipeline over one SQL statement."""
    report = AnalysisReport(sql)
    try:
        statement = parse_statement(sql)
    except LexError as exc:
        span = ast.Span(exc.position, exc.position + 1, exc.line, exc.column)
        report.diagnostics.append(
            Diagnostic("SYN001", Severity.ERROR, exc.args[0], span)
        )
        return report
    except ParseError as exc:
        report.diagnostics.append(
            Diagnostic("SYN002", Severity.ERROR, exc.args[0], exc.span)
        )
        return report

    bound = bind_collecting(statement, catalog)
    report.diagnostics.extend(
        # A binder error without a code is a rule no SEM code names yet.
        Diagnostic(exc.code or "SEM099", Severity.ERROR, exc.message,
                   exc.span, exc.hint)
        for exc in bound.errors
    )
    report.diagnostics.extend(
        Diagnostic(
            "SEM101", Severity.INFO,
            f"{name!r} is a correlated reference crossing {depth} query "
            "block level(s)", span,
        )
        for name, depth, span in bound.correlations
    )
    graph = bound.graph
    if graph is None:
        report.diagnostics.sort(key=sort_key)
        return report

    report.diagnostics.extend(lint_graph(graph, catalog))
    report.diagnostics.extend(_plan_step_diagnostics(graph, catalog))
    report.patterns = classify_patterns(graph)
    report.verdicts = strategy_verdicts(graph, catalog)
    report.diagnostics.extend(pattern_diagnostics(report.patterns))
    report.diagnostics.extend(verdict_diagnostics(report.verdicts))
    report.diagnostics.sort(key=sort_key)
    return report
