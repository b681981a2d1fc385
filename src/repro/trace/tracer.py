"""The span collector (see the package docstring for the model).

Spans are *aggregated*, not appended: a correlated subquery box executed
3954 times contributes one node (``calls=3954``), not 3954 nodes, so a
trace is bounded by the plan's shape, never by the data size. Identity is
the pair (parent chain, ``key``): the same plan node reached through two
different parents gets two aggregate nodes, which is exactly the tree
``EXPLAIN ANALYZE`` renders.

Metric deltas are *exclusive* ("self" time in profiler terms): a parent's
delta excludes the work its children accounted, so the per-span deltas of
a complete trace sum exactly to the whole-query ``Metrics`` totals.
``elapsed`` stays *inclusive* (wall time between begin and end), the
convention of ``EXPLAIN ANALYZE`` actual-time output.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Optional

from ..errors import TraceError
from ..exec.metrics import SUM_FIELD_NAMES, Metrics

#: Trace JSON schema version (bump on incompatible layout changes);
#: the one version :func:`validate_trace` accepts.
TRACE_VERSION = 2

_N_COUNTERS = len(SUM_FIELD_NAMES)
_ZEROS = (0,) * _N_COUNTERS

#: Span kinds admitted by the schema. ``worker`` (one per worker process
#: that contributed results) and ``dispatch`` (one per (task, attempt)
#: shipped to a worker -- retries appear as sibling dispatches) are the
#: v2 cross-process kinds grafted by :class:`repro.parallel.workers.
#: WorkerPool`.
SPAN_KINDS = (
    "query", "operator", "step", "rewrite", "rewrite-step",
    "worker", "dispatch",
)


class Span:
    """One aggregate node of the span tree."""

    __slots__ = (
        "key", "name", "kind", "calls", "rows_in", "rows_out", "elapsed",
        "cache_hits", "counters", "attrs", "children", "_index",
    )

    def __init__(self, key: tuple, name: str, kind: str):
        self.key = key
        self.name = name
        self.kind = kind
        self.calls = 0
        self.rows_in = 0
        self.rows_out = 0
        self.elapsed = 0.0
        self.cache_hits = 0
        #: Exclusive deltas, aligned with ``SUM_FIELD_NAMES``.
        self.counters: tuple[int, ...] = _ZEROS
        self.attrs: dict[str, Any] = {}
        self.children: list[Span] = []
        self._index: dict[tuple, Span] = {}

    def child(self, key: tuple, name: str, kind: str) -> "Span":
        """The aggregate child span for ``key`` (created on first use)."""
        span = self._index.get(key)
        if span is None:
            span = Span(key, name, kind)
            self._index[key] = span
            self.children.append(span)
        return span

    @property
    def metrics(self) -> dict[str, int]:
        """The exclusive counter deltas as a name -> value dict."""
        return dict(zip(SUM_FIELD_NAMES, self.counters))

    def add_counters(self, delta: tuple[int, ...]) -> None:
        self.counters = tuple(a + b for a, b in zip(self.counters, delta))

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready representation (see ``validate_trace`` for schema)."""
        return {
            "key": list(self.key),
            "name": self.name,
            "kind": self.kind,
            "calls": self.calls,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "elapsed_s": self.elapsed,
            "cache_hits": self.cache_hits,
            "metrics": self.metrics,
            "attrs": self.attrs,
            "children": [c.as_dict() for c in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, calls={self.calls}, "
            f"rows_out={self.rows_out}, children={len(self.children)})"
        )


class _Frame:
    """One open span on the tracer stack."""

    __slots__ = ("span", "start", "snapshot", "rows_in", "child_counters")

    def __init__(self, span: Span, start: float, snapshot, rows_in: int):
        self.span = span
        self.start = start
        self.snapshot = snapshot  # sum_values() at begin, or None
        self.rows_in = rows_in
        self.child_counters = _ZEROS  # inclusive deltas claimed by children


class OperatorStats:
    """Flattened per-key aggregate over a whole trace (all tree positions
    of one plan node merged) -- what the plan annotations display."""

    __slots__ = ("key", "name", "kind", "calls", "rows_in", "rows_out",
                 "elapsed", "cache_hits", "counters")

    def __init__(self, key: tuple, name: str, kind: str):
        self.key = key
        self.name = name
        self.kind = kind
        self.calls = 0
        self.rows_in = 0
        self.rows_out = 0
        self.elapsed = 0.0
        self.cache_hits = 0
        self.counters: tuple[int, ...] = _ZEROS

    @property
    def metrics(self) -> dict[str, int]:
        return dict(zip(SUM_FIELD_NAMES, self.counters))

    def merge(self, span: Span) -> None:
        self.calls += span.calls
        self.rows_in += span.rows_in
        self.rows_out += span.rows_out
        self.elapsed += span.elapsed
        self.cache_hits += span.cache_hits
        self.counters = tuple(
            a + b for a, b in zip(self.counters, span.counters)
        )


class Tracer:
    """Collects the span tree for one traced query (or rewrite+execution).

    Not thread-safe: one tracer belongs to one executing query, exactly
    like the ``Metrics`` object it observes. ``clock`` is injectable for
    deterministic tests and defaults to the monotonic high-resolution
    counter.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._metrics: Optional[Metrics] = None
        self._stack: list[_Frame] = []
        self.roots: list[Span] = []
        self._root_index: dict[tuple, Span] = {}

    # -- wiring -------------------------------------------------------------

    def attach(self, metrics: Metrics) -> None:
        """Bind the live metrics object deltas are computed from."""
        self._metrics = metrics

    def now(self) -> float:
        """The tracer's clock -- for callers that pre-measure spans
        (:meth:`record`) and must stay on the injectable timebase."""
        return self._clock()

    def _snapshot(self):
        metrics = self._metrics
        return None if metrics is None else metrics.sum_values()

    def _node(self, key: tuple, name: str, kind: str) -> Span:
        if self._stack:
            return self._stack[-1].span.child(key, name, kind)
        span = self._root_index.get(key)
        if span is None:
            span = Span(key, name, kind)
            self._root_index[key] = span
            self.roots.append(span)
        return span

    # -- span collection ----------------------------------------------------

    def begin(
        self, key: tuple, name: str, kind: str, rows_in: int = 0
    ) -> _Frame:
        """Open a span under the current stack top; returns the frame to
        pass to :meth:`end` (always in a ``finally``)."""
        frame = _Frame(
            self._node(key, name, kind), self._clock(), self._snapshot(),
            rows_in,
        )
        self._stack.append(frame)
        return frame

    def end(self, frame: _Frame, rows_out: int = 0) -> None:
        """Close ``frame``, accumulating calls, rows, elapsed and the
        exclusive metric delta onto its aggregate span."""
        top = self._stack.pop()
        while top is not frame and self._stack:  # pragma: no cover
            # A child failed to close (exception between begin and the
            # finally); fold the orphan away rather than corrupt the tree.
            top = self._stack.pop()
        now = self._clock()
        span = frame.span
        span.calls += 1
        span.rows_in += frame.rows_in
        span.rows_out += rows_out
        span.elapsed += now - frame.start
        snapshot = self._snapshot()
        if frame.snapshot is not None and snapshot is not None:
            total = tuple(
                b - a for a, b in zip(frame.snapshot, snapshot)
            )
            span.add_counters(
                tuple(t - c for t, c in zip(total, frame.child_counters))
            )
            if self._stack:
                parent = self._stack[-1]
                parent.child_counters = tuple(
                    a + b for a, b in zip(parent.child_counters, total)
                )

    def cache_hit(self, key: tuple, name: str, kind: str) -> None:
        """Record a materialisation-cache hit on ``key`` (no timing: a
        cache read does no operator work)."""
        self._node(key, name, kind).cache_hits += 1

    def record(
        self,
        key: tuple,
        name: str,
        kind: str,
        elapsed: float = 0.0,
        attrs: Optional[dict] = None,
    ) -> Span:
        """Append a pre-measured span under the current stack top -- used
        by the rewrite engine, whose step hook fires *after* each step ran."""
        span = self._node(key, name, kind)
        span.calls += 1
        span.elapsed += elapsed
        if attrs:
            span.attrs.update(attrs)
        return span

    # -- aggregation ---------------------------------------------------------

    def metric_totals(self) -> dict[str, int]:
        """Sum of the exclusive per-span deltas over the whole trace.

        For a complete trace this reproduces the query's ``Metrics``
        sum-counters exactly (the attribution invariant)."""
        totals = _ZEROS
        stack = list(self.roots)
        while stack:
            span = stack.pop()
            totals = tuple(a + b for a, b in zip(totals, span.counters))
            stack.extend(span.children)
        return dict(zip(SUM_FIELD_NAMES, totals))

    def operator_stats(self) -> dict[tuple, OperatorStats]:
        """Per-key aggregates over every tree position (insertion order)."""
        stats: dict[tuple, OperatorStats] = {}
        def visit(span: Span) -> None:
            agg = stats.get(span.key)
            if agg is None:
                agg = OperatorStats(span.key, span.name, span.kind)
                stats[span.key] = agg
            agg.merge(span)
            for child in span.children:
                visit(child)
        for root in self.roots:
            visit(root)
        return stats

    def operator_summaries(self, top: Optional[int] = None) -> list[dict]:
        """Flat per-operator dicts (largest elapsed first) for service
        trace summaries and benchmark breakdowns."""
        stats = [
            s for s in self.operator_stats().values()
            if s.kind in ("operator", "step")
        ]
        stats.sort(key=lambda s: s.elapsed, reverse=True)
        if top is not None:
            stats = stats[:top]
        return [
            {
                "key": list(s.key),
                "name": s.name,
                "kind": s.kind,
                "calls": s.calls,
                "rows_in": s.rows_in,
                "rows_out": s.rows_out,
                "elapsed_ms": round(s.elapsed * 1000, 3),
                "cache_hits": s.cache_hits,
                "metrics": {k: v for k, v in s.metrics.items() if v},
            }
            for s in stats
        ]

    # -- export --------------------------------------------------------------

    def export(
        self, sql: str = "", strategy: str = "", **attrs: Any
    ) -> dict[str, Any]:
        """The whole trace as a versioned, JSON-ready dict."""
        payload: dict[str, Any] = {
            "version": TRACE_VERSION,
            "sql": sql,
            "strategy": strategy,
            "spans": [span.as_dict() for span in self.roots],
        }
        payload.update(attrs)
        return payload


def _generic_operator_name(name: str) -> str:
    """Strip per-query identifiers (box ids, generated-quantifier counters)
    so the same logical operator merges across queries: ``"groupby [719]"``
    -> ``"groupby"``, ``"scan h1168"`` -> ``"scan h"``."""
    import re

    name = re.sub(r"\s*\[\d+\]$", "", name)
    name = re.sub(r"\(box \d+\)", "(box)", name)
    return re.sub(r"(?<=\w)\d+(?=\s|$)", "", name)


def merge_operator_summaries(
    traces: list, top: Optional[int] = None
) -> list[dict]:
    """Merge the ``operators`` lists of many per-query trace summaries
    (the layout of :meth:`Tracer.operator_summaries`) into one breakdown,
    keyed by the id-stripped operator name, largest total elapsed first --
    the aggregate view the soak harness and benchmarks report."""
    merged: dict[str, dict] = {}
    for trace in traces:
        for op in trace.get("operators", []):
            name = _generic_operator_name(op["name"])
            entry = merged.get(name)
            if entry is None:
                entry = {
                    "name": name, "kind": op["kind"], "calls": 0,
                    "rows_in": 0, "rows_out": 0, "elapsed_ms": 0.0,
                    "cache_hits": 0, "metrics": {},
                }
                merged[name] = entry
            entry["calls"] += op["calls"]
            entry["rows_in"] += op["rows_in"]
            entry["rows_out"] += op["rows_out"]
            entry["elapsed_ms"] = round(
                entry["elapsed_ms"] + op["elapsed_ms"], 3
            )
            entry["cache_hits"] += op["cache_hits"]
            for counter, value in op["metrics"].items():
                entry["metrics"][counter] = (
                    entry["metrics"].get(counter, 0) + value
                )
    totals = sorted(
        merged.values(), key=lambda e: e["elapsed_ms"], reverse=True
    )
    return totals[:top] if top is not None else totals


# -- schema -------------------------------------------------------------------

_SPAN_INT_FIELDS = ("calls", "rows_in", "rows_out", "cache_hits")


def _validate_span(span: Any, path: str, problems: list[str]) -> None:
    if not isinstance(span, dict):
        problems.append(f"{path}: span must be an object")
        return
    for name in ("key", "name", "kind", "elapsed_s", "metrics", "attrs",
                 "children", *_SPAN_INT_FIELDS):
        if name not in span:
            problems.append(f"{path}: missing field {name!r}")
            return
    if not (isinstance(span["key"], list) and span["key"]):
        problems.append(f"{path}: key must be a non-empty array")
    if span["kind"] not in SPAN_KINDS:
        problems.append(f"{path}: unknown kind {span['kind']!r}")
    for name in _SPAN_INT_FIELDS:
        if not isinstance(span[name], int) or span[name] < 0:
            problems.append(f"{path}: {name} must be a non-negative int")
    if not isinstance(span["elapsed_s"], (int, float)) or span["elapsed_s"] < 0:
        problems.append(f"{path}: elapsed_s must be a non-negative number")
    metrics = span["metrics"]
    if not isinstance(metrics, dict):
        problems.append(f"{path}: metrics must be an object")
    else:
        unknown = set(metrics) - set(SUM_FIELD_NAMES)
        if unknown:
            problems.append(
                f"{path}: unknown metric counters {sorted(unknown)}"
            )
        for name, value in metrics.items():
            if not isinstance(value, int):
                problems.append(f"{path}: metric {name} must be an int")
    if not isinstance(span["attrs"], dict):
        problems.append(f"{path}: attrs must be an object")
    if not isinstance(span["children"], list):
        problems.append(f"{path}: children must be an array")
        return
    for i, child in enumerate(span["children"]):
        _validate_span(child, f"{path}.children[{i}]", problems)


def validate_trace(payload: Any) -> None:
    """Validate an exported trace against the schema; raises
    :class:`~repro.errors.TraceError` naming every problem found."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        raise TraceError("trace must be a JSON object")
    if payload.get("version") != TRACE_VERSION:
        problems.append(
            f"version must be {TRACE_VERSION}, "
            f"got {payload.get('version')!r}"
        )
    for name in ("sql", "strategy"):
        if not isinstance(payload.get(name), str):
            problems.append(f"{name} must be a string")
    spans = payload.get("spans")
    if not isinstance(spans, list):
        problems.append("spans must be an array")
    else:
        for i, span in enumerate(spans):
            _validate_span(span, f"spans[{i}]", problems)
    if problems:
        raise TraceError(
            "invalid trace: " + "; ".join(problems[:10])
            + (f" (+{len(problems) - 10} more)" if len(problems) > 10 else "")
        )


def _span_from_dict(data: dict) -> Span:
    span = Span(tuple(data["key"]), data["name"], data["kind"])
    span.calls = data["calls"]
    span.rows_in = data["rows_in"]
    span.rows_out = data["rows_out"]
    span.elapsed = data["elapsed_s"]
    span.cache_hits = data["cache_hits"]
    span.counters = tuple(
        data["metrics"].get(name, 0) for name in SUM_FIELD_NAMES
    )
    span.attrs = dict(data["attrs"])
    for child_data in data["children"]:
        child = _span_from_dict(child_data)
        span._index[child.key] = child
        span.children.append(child)
    return span


def spans_from_dict(payload: dict) -> list[Span]:
    """Rebuild :class:`Span` trees from a validated export payload."""
    validate_trace(payload)
    return [_span_from_dict(s) for s in payload["spans"]]


def trace_round_trips(payload: dict) -> bool:
    """Does ``payload`` survive parse -> re-export byte-identically?

    The CI schema check: any field the parser drops or mangles shows up
    as a mismatch here."""
    import json

    spans = spans_from_dict(payload)
    rebuilt = dict(payload)
    rebuilt["spans"] = [span.as_dict() for span in spans]
    canonical = json.dumps(payload, sort_keys=True)
    return canonical == json.dumps(rebuilt, sort_keys=True)


# -- rendering ----------------------------------------------------------------

def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1000:.3f}ms"


def render_operator_table(
    tracer: Tracer, top: Optional[int] = None, indent: str = ""
) -> str:
    """A per-operator breakdown table (largest elapsed first)."""
    rows = tracer.operator_summaries(top=top)
    if not rows:
        return f"{indent}(no operator spans recorded)"
    name_width = max(24, max(len(r["name"]) for r in rows) + 2)
    lines = [
        f"{indent}{'operator':<{name_width}} {'calls':>7} {'rows_in':>9} "
        f"{'rows_out':>9} {'hits':>5} {'elapsed':>12}  work"
    ]
    for r in rows:
        work = " ".join(f"{k}={v}" for k, v in r["metrics"].items())
        lines.append(
            f"{indent}{r['name']:<{name_width}} {r['calls']:>7} "
            f"{r['rows_in']:>9} {r['rows_out']:>9} {r['cache_hits']:>5} "
            f"{r['elapsed_ms']:>10.3f}ms  {work}"
        )
    return "\n".join(lines)


def render_rewrite_timeline(tracer: Tracer, indent: str = "") -> str:
    """The rewrite spans as an ordered timeline (one line per step)."""
    lines: list[str] = []
    for root in tracer.roots:
        if root.kind != "rewrite":
            continue
        lines.append(
            f"{indent}{root.name} ({len(root.children)} steps, "
            f"{_fmt_ms(root.elapsed)})"
        )
        for step in root.children:
            created = step.attrs.get("boxes_created", [])
            removed = step.attrs.get("boxes_removed", [])
            detail = []
            if created:
                detail.append(f"+boxes {created}")
            if removed:
                detail.append(f"-boxes {removed}")
            suffix = ("  " + ", ".join(detail)) if detail else ""
            lines.append(
                f"{indent}  {step.key[-1]:>3}. {step.name} "
                f"[{_fmt_ms(step.elapsed)}]{suffix}"
            )
    if not lines:
        return f"{indent}(no rewrite spans recorded)"
    return "\n".join(lines)
