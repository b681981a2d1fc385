"""Diagnostics framework: coded, span-carrying findings plus a renderer.

Every finding the static-analysis subsystem produces is a :class:`Diagnostic`
with a stable error code (``SEM002``, ``QGM001``, ``DEC004``, ...), a
severity, and -- when the offending construct came from source text -- the
:class:`~repro.sql.ast.Span` the parser stamped on the AST node. The codes
are registered centrally so documentation, tests and the CLI can enumerate
them; ``DESIGN.md`` lists the registry with the paper invariant behind each
QGM rule.

The renderer produces compiler-style output with caret underlining::

    error[SEM002]: unknown column 'nme' in 'd'
      --> line 1, column 8
       |
     1 | SELECT d.nme FROM dept d
       |        ^^^^^
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from ..sql.ast import Span


class Severity(enum.Enum):
    """How serious a diagnostic is.

    ``ERROR`` findings mean the query cannot run (or a rewrite invariant is
    broken); ``WARNING`` findings mean the query runs but a paper-documented
    hazard applies (e.g. COUNT-bug exposure); ``INFO`` findings explain the
    analysis (correlation patterns, strategy applicability).
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 0, "warning": 1, "info": 2}[self.value]


#: The error-code registry: code -> one-line title. Codes are append-only
#: and stable; tests enumerate this mapping to enforce coverage.
CODES: dict[str, str] = {}


def register_code(code: str, title: str) -> str:
    """Register ``code`` in the global registry (idempotent for same title)."""
    existing = CODES.get(code)
    if existing is not None and existing != title:
        raise ValueError(f"diagnostic code {code} registered twice: "
                         f"{existing!r} vs {title!r}")
    CODES[code] = title
    return code


# -- syntax (SYN): lexer/parser failures surfaced as diagnostics -------------
SYN001 = register_code("SYN001", "invalid character sequence (lexer)")
SYN002 = register_code("SYN002", "syntax error (parser)")

# -- binding (SEM): the rules repro.qgm.builder enforces, one code per rule --
SEM001 = register_code("SEM001", "unknown table or view")
SEM002 = register_code("SEM002", "unknown column")
SEM003 = register_code("SEM003", "ambiguous column reference")
SEM004 = register_code("SEM004", "unknown or over-qualified alias")
SEM005 = register_code("SEM005", "duplicate alias in FROM")
SEM006 = register_code("SEM006", "aggregate call in an illegal clause")
SEM007 = register_code("SEM007", "nested aggregate calls")
SEM008 = register_code("SEM008", "HAVING without GROUP BY or aggregates")
SEM009 = register_code("SEM009", "subquery produces the wrong number of columns")
SEM010 = register_code("SEM010", "illegal use of *")
SEM011 = register_code("SEM011", "column is neither grouped nor aggregated")
SEM012 = register_code("SEM012", "arity mismatch (set operation or alias list)")
SEM013 = register_code("SEM013", "ORDER BY position out of range")
SEM099 = register_code("SEM099", "binder rejected the query (uncoded)")
#: Correlation-depth analysis (informational).
SEM101 = register_code("SEM101", "correlated reference to an outer query block")

# -- QGM lint (QGM): graph-level invariants and hazards ----------------------
QGM001 = register_code("QGM001", "QGM consistency violation (paper section 3)")
QGM002 = register_code("QGM002", "COUNT-bug exposure (paper section 2.1)")
QGM003 = register_code("QGM003", "non-linear correlated query (paper section 2)")
QGM004 = register_code("QGM004", "correlation spans multiple outer quantifiers")

# -- decorrelation analysis (DEC): patterns and strategy applicability -------
DEC001 = register_code("DEC001", "correlation pattern classification (paper section 2)")
DEC002 = register_code("DEC002", "Kim's method applicability")
DEC003 = register_code("DEC003", "Dayal's method applicability")
DEC004 = register_code("DEC004", "Ganski/Wong applicability")
DEC005 = register_code("DEC005", "magic decorrelation applicability")

# -- plan contracts (PLN): typed physical-plan verification ------------------
# Emitted by repro.analyze.plans: the static verifier over box output
# contracts and the planner's step lists (see DESIGN section 12).
PLN001 = register_code("PLN001", "column reference does not resolve in the producing box's contract")
PLN002 = register_code("PLN002", "step reads a quantifier before its access step binds it")
PLN003 = register_code("PLN003", "index lookup does not match any index on the base table")
PLN004 = register_code("PLN004", "correlated_to_self marking disagrees with the subtree's references")
PLN005 = register_code("PLN005", "ill-typed aggregate input (SUM/AVG over a non-numeric column)")
PLN006 = register_code("PLN006", "COUNT-derived nullable column consumed null-rejectingly without COALESCE")
PLN007 = register_code("PLN007", "grouped COUNT consumed through an inner join (empty groups dropped)")
PLN008 = register_code("PLN008", "plan infeasible or cardinality bound violated")
PLN009 = register_code("PLN009", "step arity mismatch (join keys / null-safe flags)")
PLN010 = register_code("PLN010", "plan access steps do not cover the box's quantifiers exactly once")

# -- concurrency lint (CONC): the DESIGN section-9 contract, machine-checked -
CONC001 = register_code("CONC001", "lock acquisition violates the declared lock order")
CONC002 = register_code("CONC002", "shared attribute mutated outside its guarding lock")
CONC003 = register_code("CONC003", "acquisition of an undeclared lock attribute")


@dataclass(frozen=True)
class Diagnostic:
    """One coded finding, optionally anchored to a source span."""

    code: str
    severity: Severity
    message: str
    span: Optional[Span] = None
    hint: Optional[str] = None

    def location(self) -> str:
        return self.span.location() if self.span is not None else "<no location>"

    def __str__(self) -> str:
        head = f"{self.severity.value}[{self.code}]: {self.message}"
        if self.span is not None:
            head += f" ({self.span.location()})"
        return head


def sort_key(diagnostic: Diagnostic) -> tuple[int, int, str]:
    """Stable display order: errors first, then source position, then code."""
    start = diagnostic.span.start if diagnostic.span is not None else 1 << 30
    return (diagnostic.severity.rank, start, diagnostic.code)


def render_diagnostic(diagnostic: Diagnostic, source: Optional[str] = None) -> str:
    """Render one diagnostic; with ``source``, underline the offending span."""
    lines = [f"{diagnostic.severity.value}[{diagnostic.code}]: {diagnostic.message}"]
    span = diagnostic.span
    if span is not None:
        lines.append(f"  --> {span.location()}")
        if source is not None:
            source_lines = source.splitlines()
            if 0 < span.line <= len(source_lines):
                text = source_lines[span.line - 1]
                gutter = len(str(span.line))
                blank = " " * gutter
                lines.append(f" {blank} |")
                lines.append(f" {span.line} | {text}")
                # Clamp the underline to the first line of the span.
                width = max(1, min(span.end - span.start,
                                   len(text) - (span.column - 1)))
                caret_pad = " " * (span.column - 1)
                lines.append(f" {blank} | {caret_pad}{'^' * width}")
    if diagnostic.hint:
        lines.append(f"  = help: {diagnostic.hint}")
    return "\n".join(lines)


def render_diagnostics(
    diagnostics: list[Diagnostic], source: Optional[str] = None
) -> str:
    """Render a batch in display order, separated by blank lines."""
    ordered = sorted(diagnostics, key=sort_key)
    return "\n\n".join(render_diagnostic(d, source) for d in ordered)
