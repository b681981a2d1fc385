"""Structured observability: span trees for execution and rewrite.

The paper's whole evaluation argument is *work accounting* -- subquery
invocation counts, rows flowing through FEED/ABSORB boxes, Mag-vs-OptMag
recomputation -- and :mod:`repro.trace` makes that accounting visible
per operator and per rewrite step instead of only as whole-query totals:

* :class:`Tracer` collects a span tree during execution (one aggregated
  node per plan node: calls, rows in/out, elapsed, exclusive ``Metrics``
  deltas) and during rewrite (one span per FEED/ABSORB step with the box
  ids it created);
* ``tracer=None`` everywhere is the zero-overhead fast path, mirroring the
  ``limits=None`` pattern of :mod:`repro.guard`;
* traces export as versioned JSON (:meth:`Tracer.export`,
  :func:`validate_trace`, :func:`trace_round_trips`) and render as
  ``EXPLAIN ANALYZE``-style plan annotations (:mod:`repro.plan.pretty`)
  and per-operator tables (:func:`render_operator_table`).

The attribution invariant: summing the (exclusive) per-span metric deltas
over a complete trace reproduces the whole-query ``Metrics`` totals
exactly -- see :meth:`Tracer.metric_totals`.
"""

from .tracer import (
    SPAN_KINDS,
    TRACE_VERSION,
    OperatorStats,
    Span,
    Tracer,
    merge_operator_summaries,
    render_operator_table,
    render_rewrite_timeline,
    spans_from_dict,
    trace_round_trips,
    validate_trace,
)

__all__ = [
    "SPAN_KINDS",
    "TRACE_VERSION",
    "OperatorStats",
    "Span",
    "Tracer",
    "merge_operator_summaries",
    "render_operator_table",
    "render_rewrite_timeline",
    "spans_from_dict",
    "trace_round_trips",
    "validate_trace",
]
