"""The slow-query log: threshold-based capture into a bounded ring.

Any query whose latency crosses ``threshold_ms`` is captured with
everything needed to diagnose it after the fact: the SQL, the requested
strategy, the degradation chain actually taken, the top-N operator
summaries from its tracer (when it ran traced), and the ``Metrics``
snapshot. The ring is bounded (``capacity``), so a pathological workload
cannot grow the log without bound; ``total`` still counts every capture.

Wired into :class:`~repro.serve.service.QueryService`
(``slow_query_ms=...``: submission to completion, queue wait included,
surfaced on ``ServiceStats``), which hands it each finished ticket's
summary. Disabled (``slow_query_ms=None``) means no log object exists and
settling a ticket pays one ``is None`` test -- the usual zero-overhead
contract.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Optional

from ..errors import EventLogError


#: The keys of a per-query summary a slow-query record keeps as they are.
_SUMMARY_KEYS = (
    "query_id", "sql", "strategy", "outcome", "latency_ms", "degradations",
    "metrics", "phases", "brownout_level",
)


class SlowQueryLog:
    """Bounded, thread-safe capture of queries slower than a threshold.

    ``events`` (an :class:`~repro.obs.events.EventLog`) receives one
    ``query.slow`` event per capture when provided.
    """

    def __init__(
        self,
        threshold_ms: float,
        capacity: int = 128,
        top_operators: int = 5,
        events=None,
        clock=time.time,
    ):
        if threshold_ms < 0:
            raise EventLogError("slow-query threshold must be >= 0 ms")
        if capacity < 1:
            raise EventLogError("slow-query log capacity must be >= 1")
        self.threshold_ms = threshold_ms
        self.capacity = capacity
        self.top_operators = top_operators
        self.events = events
        self._clock = clock
        self._lock = threading.Lock()
        self._ring: deque[dict] = deque(maxlen=capacity)
        #: Every capture ever, including entries the ring has dropped.
        self.total = 0

    def capture(self, summary: dict) -> Optional[dict]:
        """Record the query if it was slow; returns the captured record
        (or ``None`` below the threshold).

        ``summary`` is a per-query summary (the query service's
        :meth:`~repro.serve.service.Ticket.summary`): the record is a
        key-subset of it -- ``phases`` and ``brownout_level`` let it
        answer "slow because queued or slow because executing" without a
        separate trace -- with its ``operators`` (absent for an untraced
        run) cut to ``top_operators``."""
        if summary["latency_ms"] < self.threshold_ms:
            return None
        record = {
            "ts": self._clock(), "threshold_ms": self.threshold_ms,
            **{key: summary[key] for key in _SUMMARY_KEYS},
            "operators": summary.get("operators", [])[:self.top_operators],
        }
        with self._lock:
            self._ring.append(record)
            self.total += 1
        if self.events is not None:
            self.events.emit(
                "query.slow",
                query_id=record["query_id"],
                latency_ms=record["latency_ms"],
                threshold_ms=self.threshold_ms,
                strategy=record["strategy"],
                outcome=record["outcome"],
            )
        return record

    def records(self) -> list[dict]:
        """The retained captures, oldest first."""
        with self._lock:
            return list(self._ring)

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)


def render_slow_log(records: list[dict], indent: str = "") -> str:
    """The slow-query log as text, slowest first (``repro slow``)."""
    if not records:
        return f"{indent}(no slow queries captured)"
    ordered = sorted(
        records, key=lambda r: r.get("latency_ms", 0.0), reverse=True
    )
    lines: list[str] = []
    for record in ordered:
        qid = record.get("query_id")
        scope = f"q{qid}" if qid is not None else "-"
        sql = " ".join(str(record.get("sql", "")).split())
        if len(sql) > 100:
            sql = sql[:97] + "..."
        lines.append(
            f"{indent}{record.get('latency_ms', 0.0):>10.3f}ms {scope:>7} "
            f"[{record.get('strategy', '?')}/{record.get('outcome', '?')}] "
            f"{sql}"
        )
        phases = record.get("phases")
        if phases:
            budget = " ".join(
                f"{name}={value:.3f}ms" for name, value in phases.items()
            )
            rung = record.get("brownout_level")
            suffix = f" (brownout rung {rung})" if rung else ""
            lines.append(f"{indent}    phases: {budget}{suffix}")
        for degradation in record.get("degradations", []):
            lines.append(f"{indent}    degraded: {degradation}")
        for op in record.get("operators", []):
            lines.append(
                f"{indent}    {op['name']:<32} calls={op['calls']:>6} "
                f"rows_out={op['rows_out']:>8} "
                f"elapsed={op['elapsed_ms']:>10.3f}ms"
            )
    return "\n".join(lines)
