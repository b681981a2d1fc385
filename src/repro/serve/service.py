"""The concurrent query service: admission control, deadlines, breakers.

:class:`QueryService` wraps a shared :class:`~repro.api.database.Database`
behind a fixed thread pool. Every submission gets a :class:`Ticket` (query
id, deadline, :class:`~repro.guard.Limits`, and a pre-built
:class:`~repro.guard.ExecutionGuard` so it can be cancelled from any
thread). Admission control bounds the system: at most ``workers`` queries
execute at once and at most ``max_queue`` wait; overflow raises a typed
:class:`~repro.errors.AdmissionRejected` carrying the queue depth instead
of piling up without bound.

Deadlines are measured from *submission* -- the guard's clock starts when
the ticket is issued, so queue wait counts against the deadline and a
ticket that expires while queued trips (typed ``BudgetExceeded``) the
moment a worker picks it up, without executing anything.

Per-strategy circuit breakers (:mod:`repro.serve.breaker`) quarantine a
strategy after N consecutive rewrite/execution failures; quarantined
strategies are skipped via the rewrite engine's ``disabled`` hook, so
degraded queries go straight down the PR-2 fallback chain without
re-paying the failing rewrite. Nested iteration is exempt -- the strategy
of last resort must always remain available.

Shared-state contract: the *catalog* (tables, views, stats) is shared by
all workers and is internally synchronized (see
:class:`~repro.storage.catalog.Catalog` and
:class:`~repro.storage.table.Table`). Each worker gets its **own**
``Database`` facade over that catalog, because the rewrite engine keeps
per-rewrite diagnostic state (``steps``, the active tracer) that must not
be shared across threads. Fault injection follows ``fault_scope``:

* ``"shared"`` (default): all workers share the base database's
  :class:`~repro.faults.FaultRegistry` -- the per-site ordinal schedule is
  global and locked, so the *set* of fired ordinals is deterministic but
  which query observes a given ordinal depends on thread interleaving;
* ``"worker"``: each worker thread gets ``registry.replica()`` -- a
  per-worker deterministic fault sequence.

Adaptive overload control (``overload=OverloadConfig(...)``, see
:mod:`repro.serve.overload` and DESIGN §14) layers four mechanisms on
top of plain admission: deadline-aware admission (reject-with-hint any
submission whose learned service time cannot fit inside its deadline
given the current backlog), priority classes with quotas and selective
shedding (``submit(priority=...)``; the newest lowest-priority queued
ticket is shed -- typed :class:`~repro.errors.QueryShed` -- to admit
strictly more important work), eager eviction of tickets that expire
while queued (a distinct ``expired_in_queue`` outcome that frees the
slot without a worker dequeue), and a brownout degradation ladder with
hysteresis (observability off -> budgets tightened -> cheapest strategy
forced through the rewrite veto hook). ``overload=None`` (default)
preserves plain FIFO behaviour exactly: either way the service holds one
admission policy (:func:`~repro.serve.overload.admission_policy`) and
calls it unconditionally. The §9 conservation law
extends to the new outcomes: ``admitted == completed + failed +
cancelled + shed + expired_in_queue + in_flight + queue_depth``.
"""

from __future__ import annotations

import itertools
import threading
import time
from array import array
from collections import deque
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Optional

from ..api.database import Database, Result
from ..errors import (
    AdmissionRejected,
    BudgetExceeded,
    QueryCancelled,
    QueryShed,
)
from ..exec.metrics import Metrics
from ..guard import ExecutionGuard, Limits
from ..obs.phases import PHASES, PhaseTimeline
from .breaker import BreakerBoard
from .overload import OverloadConfig, admission_policy, priority_rank

#: Ticket lifecycle states.
QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"
CANCELLED = "cancelled"
#: Overload-control outcomes: evicted from the queue without running.
SHED = "shed"
EXPIRED = "expired"


class Ticket:
    """One admitted query: identity, budgets, and the eventual outcome.

    ``result(timeout=None)`` blocks until the query finishes and returns
    the :class:`~repro.api.database.Result`, re-raising the query's typed
    error if it failed. ``done`` / ``state`` observe progress without
    blocking.
    """

    def __init__(
        self,
        query_id: int,
        sql: str,
        strategy: str,
        guard: ExecutionGuard,
        submitted_at: float,
        cse_mode: str = "recompute",
        priority: str = "normal",
        rank: int = 1,
        fingerprint: str = "",
        deadline_s: Optional[float] = None,
    ):
        self.query_id = query_id
        self.sql = sql
        self.strategy = strategy
        self.guard = guard
        self.submitted_at = submitted_at
        self.cse_mode = cse_mode
        self.priority = priority
        self.rank = rank
        self.fingerprint = fingerprint
        self.deadline_s = deadline_s
        self.state = QUEUED
        self.latency: Optional[float] = None  # seconds, set on completion
        #: Dequeue timestamp (service clock); None until a worker picks
        #: the ticket up. Execution time = finish - started_at.
        self.started_at: Optional[float] = None
        #: Brownout level snapshotted at dequeue (drives per-query
        #: observability shedding without re-reading shared state).
        self.brownout_level = 0
        #: Strategy the brownout ladder forces (level >= 3), else None.
        self.forced_strategy: Optional[str] = None
        #: The per-phase latency budget (:class:`repro.obs.phases.
        #: PhaseTimeline`); None unless the service runs with phase
        #: accounting on. Durations sum to :attr:`latency` exactly.
        self.phases: Optional[PhaseTimeline] = None
        #: Top operator summaries of a traced run (None when untraced).
        self.operators: Optional[list[dict]] = None
        self._event = threading.Event()
        self._result: Optional[Result] = None
        self._error: Optional[BaseException] = None

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the query finished; False on wait timeout."""
        return self._event.wait(timeout)

    def result(self, timeout: Optional[float] = None) -> Result:
        """The query's result (blocking); raises its typed error instead
        when the query failed or was cancelled."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"query {self.query_id} still {self.state} after {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def error(self) -> Optional[BaseException]:
        """The stored error (None while unfinished or on success)."""
        return self._error

    def summary(self) -> dict:
        """The one per-query summary of a finished ticket. The service's
        trace-ring entry, its ``query.finished`` payload and its
        slow-query record are key-subsets of this dict (DESIGN §16);
        ``operators`` is present only for a traced run."""
        result, error, phases = self._result, self._error, self.phases
        assert self.latency is not None
        summary = {
            "query_id": self.query_id,
            "sql": self.sql,
            "strategy": self.strategy,
            "outcome": self.state,
            "latency_ms": round(self.latency * 1000, 3),
            "error_type": type(error).__name__ if error is not None else None,
            "metrics": (
                result.metrics.as_dict() if result is not None else None
            ),
            "degradations": (
                [str(event) for event in result.degradations]
                if result is not None else []
            ),
            "phases": phases.as_ms_dict() if phases is not None else None,
            "brownout_level": self.brownout_level,
        }
        if self.operators is not None:
            summary["operators"] = self.operators
        return summary

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Ticket(#{self.query_id}, {self.state}, {self.strategy})"


#: The keys of :meth:`Ticket.summary` each consumer keeps.
_TRACE_VIEW = ("query_id", "sql", "strategy", "outcome", "latency_ms", "metrics")
_FINISHED_VIEW = (
    "query_id", "outcome", "strategy", "latency_ms", "error_type", "metrics"
)
_PHASES_VIEW = ("query_id", "outcome", "latency_ms", "brownout_level", "phases")
#: The terminal event of a ticket evicted from the queue, by outcome.
_EVICTED_KIND = {SHED: "overload.shed", EXPIRED: "overload.expired"}


#: Histogram bucket upper bounds (``le``), Prometheus-style cumulative.
LATENCY_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0
)
QUEUE_DEPTH_BUCKETS: tuple[float, ...] = (0, 1, 2, 4, 8, 16, 32, 64)


def _string_bounds(histogram: dict) -> dict:
    """A :func:`_histogram` with its bucket bounds as strings (JSON object
    keys)."""
    return {
        **histogram,
        "buckets": {
            str(bound): count
            for bound, count in histogram.get("buckets", {}).items()
        },
    }


def _histogram(values, buckets) -> dict:
    """Cumulative-bucket histogram (Prometheus layout): ``buckets`` maps
    each upper bound to the count of observations <= it; ``count``/``sum``
    cover every observation (including those above the last bound)."""
    values = sorted(values)
    cumulative = {}
    position = 0
    for bound in buckets:
        while position < len(values) and values[position] <= bound:
            position += 1
        cumulative[bound] = position
    return {
        "buckets": cumulative,
        "count": len(values),
        "sum": round(sum(values), 9),
    }


@dataclass
class ServiceStats:
    """A consistent snapshot of the service counters.

    Conservation: ``submitted == admitted + rejected`` always, and after a
    drain (``close()``) ``admitted == completed + failed + cancelled +
    shed + expired_in_queue``, so every submission has exactly one
    recorded outcome (``shed``/``expired_in_queue`` stay zero without
    overload control).
    """

    submitted: int = 0
    admitted: int = 0
    rejected: int = 0
    #: Rejections that carried a ``retry_after_hint`` (a backoff estimate
    #: the client can honour instead of hot-looping); always <= rejected.
    rejected_with_hint: int = 0
    #: Rejections by deadline-aware admission ("deadline unmeetable"):
    #: the learned service time could not fit inside the submission's
    #: deadline given the backlog at arrival. Subset of ``rejected``.
    rejected_futile: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    #: Admitted tickets evicted from the queue for higher-priority work.
    shed: int = 0
    #: Admitted tickets whose deadline expired while queued (evicted
    #: eagerly, without a worker dequeue).
    expired_in_queue: int = 0
    in_flight: int = 0
    queue_depth: int = 0
    max_queue: int = 0
    workers: int = 0
    latency_p50_ms: Optional[float] = None
    latency_p95_ms: Optional[float] = None
    breakers: dict = field(default_factory=dict)
    breaker_transitions: list = field(default_factory=list)
    #: Cumulative histograms (:func:`_histogram` layout): query latency in
    #: seconds, and queue depth sampled at each admission.
    latency_histogram: dict = field(default_factory=dict)
    queue_depth_histogram: dict = field(default_factory=dict)
    #: Bounded ring of per-query trace summaries (newest last); populated
    #: only when the service runs with ``trace=True``.
    recent_traces: list = field(default_factory=list)
    #: Bounded ring of slow-query records (insertion order); populated
    #: only when the service runs with ``slow_query_ms``.
    slow_queries: list = field(default_factory=list)
    #: Total queries over the slow threshold (may exceed the ring size).
    slow_total: int = 0
    #: Current brownout ladder level (0 = normal; see
    #: :data:`repro.serve.overload.BROWNOUT_RUNGS`).
    brownout_level: int = 0
    #: Brownout ladder transitions, oldest first: dicts with
    #: ``from``/``to`` levels, ``direction`` (``"down"`` = degrading),
    #: ``utilization`` and ``rung`` (the new level's rung name).
    brownout_transitions: list = field(default_factory=list)
    #: Cumulative histogram of queue wait (admission to dequeue for run
    #: tickets; admission to eviction for shed/expired ones, seconds).
    queue_wait_histogram: dict = field(default_factory=dict)
    #: Per-phase cumulative latency histograms (phase name ->
    #: :func:`_histogram` layout, canonical :data:`repro.obs.phases.PHASES`
    #: order); populated only with phase accounting on.
    phase_histograms: dict = field(default_factory=dict)
    #: Overload-control internals (the estimator summary);
    #: empty without ``overload=``.
    overload: dict = field(default_factory=dict)
    #: Plan-cache counters (all zero without ``plan_cache=``); the full
    #: :meth:`repro.plan.cache.PlanCache.snapshot` rides on ``plan_cache``.
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    plan_cache_invalidations: int = 0
    #: Plan-cache summary (:meth:`~repro.plan.cache.PlanCache.snapshot`);
    #: empty without ``plan_cache=``.
    plan_cache: dict = field(default_factory=dict)

    def reconciles(self) -> bool:
        """Does every submission have exactly one recorded outcome (only
        meaningful once the service is idle or closed)?

        The §9 conservation law, extended with the overload outcomes
        (both zero without overload control): shed and expired-in-queue
        tickets were *admitted* but never ran.
        """
        return (
            self.submitted == self.admitted + self.rejected
            and self.admitted
            == self.completed + self.failed + self.cancelled
            + self.shed + self.expired_in_queue
            + self.in_flight + self.queue_depth
        )

    def as_dict(self) -> dict:
        """Every field by name, JSON-ready: histogram bounds become
        strings and breaker transitions plain tuples."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["breaker_transitions"] = [
            (t.strategy, t.from_state, t.to_state, t.reason)
            for t in self.breaker_transitions
        ]
        for name in (
            "latency_histogram", "queue_depth_histogram",
            "queue_wait_histogram",
        ):
            data[name] = _string_bounds(data[name])
        data["phase_histograms"] = {
            phase: _string_bounds(histogram)
            for phase, histogram in self.phase_histograms.items()
        }
        return data

    # -- export -------------------------------------------------------------

    def export(self, fmt: str = "json") -> str:
        """The snapshot serialised for scraping: ``"json"`` (one object,
        sorted keys) or ``"prometheus"`` (text exposition format)."""
        if fmt == "json":
            import json

            return json.dumps(self.as_dict(), indent=2, sort_keys=True)
        if fmt == "prometheus":
            return self._prometheus()
        raise ValueError(f"unknown stats export format {fmt!r}")

    _COUNTER_HELP = {
        "submitted": "Queries submitted (admitted + rejected)",
        "admitted": "Queries admitted into the service",
        "rejected": "Submissions rejected by admission control",
        "rejected_with_hint": (
            "Rejections carrying a retry_after_hint backoff estimate"
        ),
        "rejected_futile": (
            "Rejections because the deadline was provably unmeetable"
        ),
        "completed": "Queries that produced a result",
        "failed": "Queries that raised a typed error",
        "cancelled": "Queries cancelled cooperatively",
        "shed": (
            "Queued tickets shed to make room for higher-priority work"
        ),
        "expired_in_queue": (
            "Queued tickets evicted because their deadline expired "
            "before a worker picked them up"
        ),
    }
    _PLAN_CACHE_HELP = {
        "plan_cache_hits": (
            "Plan-cache lookups served from a cached rewritten plan"
        ),
        "plan_cache_misses": (
            "Plan-cache lookups that paid the full rewrite pipeline"
        ),
        "plan_cache_invalidations": (
            "Plan-cache entries dropped for a stale catalog generation"
        ),
    }
    _GAUGE_HELP = {
        "in_flight": "Queries executing right now",
        "queue_depth": "Queries waiting right now",
        "workers": "Worker pool size",
        "max_queue": "Wait-queue capacity",
        "brownout_level": (
            "Current brownout ladder level (0 normal .. 3 cheapest "
            "strategy forced)"
        ),
    }

    def _prometheus(self) -> str:
        lines: list[str] = []
        for name, help_text in self._COUNTER_HELP.items():
            metric = f"repro_queries_{name}_total"
            lines.append(f"# HELP {metric} {help_text}")
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {getattr(self, name)}")
        metric = "repro_slow_queries_total"
        lines.append(
            f"# HELP {metric} Queries over the slow-query threshold"
        )
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {self.slow_total}")
        for name, help_text in self._PLAN_CACHE_HELP.items():
            metric = f"repro_{name}_total"
            lines.append(f"# HELP {metric} {help_text}")
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {getattr(self, name)}")
        for name, help_text in self._GAUGE_HELP.items():
            metric = f"repro_{name}"
            lines.append(f"# HELP {metric} {help_text}")
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {getattr(self, name)}")
        lines.extend(_prometheus_histogram(
            "repro_query_latency_seconds",
            "Query latency from submission to completion",
            self.latency_histogram,
        ))
        lines.extend(_prometheus_histogram(
            "repro_queue_depth_at_admission",
            "Wait-queue depth sampled at each admission",
            self.queue_depth_histogram,
        ))
        lines.extend(_prometheus_histogram(
            "repro_queue_wait_seconds",
            "Queue wait from admission to worker dequeue "
            "(or to shed/expiry for tickets that never ran)",
            self.queue_wait_histogram,
        ))
        lines.extend(_prometheus_labeled_histograms(
            "repro_phase_seconds",
            "Per-phase share of query latency "
            "(admit/queue/plan_cache/rewrite/optimize/execute/drain)",
            "phase",
            self.phase_histograms,
        ))
        if self.breakers:
            metric = "repro_breaker_open"
            lines.append(
                f"# HELP {metric} Circuit breaker state "
                "(1 open, 0 closed/half-open)"
            )
            lines.append(f"# TYPE {metric} gauge")
            for strategy in sorted(self.breakers):
                state = self.breakers[strategy].get("state", "closed")
                value = 1 if state == "open" else 0
                lines.append(f'{metric}{{strategy="{strategy}"}} {value}')
        return "\n".join(lines) + "\n"


def _prometheus_histogram(metric: str, help_text: str, data: dict) -> list:
    if not data:
        return []
    lines = [
        f"# HELP {metric} {help_text}",
        f"# TYPE {metric} histogram",
    ]
    for bound, count in data["buckets"].items():
        lines.append(f'{metric}_bucket{{le="{bound}"}} {count}')
    lines.append(f'{metric}_bucket{{le="+Inf"}} {data["count"]}')
    lines.append(f"{metric}_sum {data['sum']}")
    lines.append(f"{metric}_count {data['count']}")
    return lines


def _prometheus_labeled_histograms(
    metric: str, help_text: str, label: str, series: dict
) -> list:
    """One histogram *family*: a shared HELP/TYPE header, then one full
    bucket/sum/count series per label value (Prometheus requires all
    series of a family under a single TYPE declaration)."""
    if not series:
        return []
    lines = [
        f"# HELP {metric} {help_text}",
        f"# TYPE {metric} histogram",
    ]
    for value, data in series.items():
        pair = f'{label}="{value}"'
        for bound, count in data["buckets"].items():
            lines.append(
                f'{metric}_bucket{{{pair},le="{bound}"}} {count}'
            )
        lines.append(f'{metric}_bucket{{{pair},le="+Inf"}} {data["count"]}')
        lines.append(f'{metric}_sum{{{pair}}} {data["sum"]}')
        lines.append(f'{metric}_count{{{pair}}} {data["count"]}')
    return lines


def _percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an already-sorted non-empty list."""
    index = min(
        len(sorted_values) - 1, int(round(fraction * (len(sorted_values) - 1)))
    )
    return sorted_values[index]


class QueryService:
    """A thread-pool query service over one shared database.

    Parameters
    ----------
    db:
        The base database. Its *catalog* (and, under
        ``fault_scope="shared"``, its fault registry) is shared by all
        workers; each worker wraps it in its own facade.
    workers:
        Maximum queries executing simultaneously (pool size).
    max_queue:
        Maximum queries *waiting*; submissions beyond ``workers`` running
        plus ``max_queue`` queued raise :class:`AdmissionRejected`.
    default_limits / default_deadline:
        Budgets applied to submissions that don't bring their own
        (``deadline`` is wall-clock seconds measured from submission).
    breaker_threshold / breaker_cooldown:
        Consecutive failures that open a strategy's circuit breaker, and
        the seconds it stays open before admitting a half-open probe.
    fault_scope:
        ``"shared"`` (one global, locked fault-ordinal schedule) or
        ``"worker"`` (a deterministic per-worker replica). See module doc.
    clock:
        Injectable monotonic clock (drives deadlines, breakers and
        ``drain`` timeouts).
    trace / trace_history:
        ``trace=True`` runs every query under its own
        :class:`repro.trace.Tracer` and keeps the last ``trace_history``
        per-query trace summaries (operator breakdown, metrics, latency)
        in a bounded ring buffer, surfaced on
        :attr:`ServiceStats.recent_traces` and :meth:`recent_traces`.
    phases:
        Phase-budget accounting (:mod:`repro.obs.phases`): every ticket
        carries a :class:`~repro.obs.phases.PhaseTimeline` splitting its
        latency into admit/queue/plan_cache/rewrite/optimize/execute/
        drain on the service's injectable clock, with the invariant that
        the durations sum to ``ticket.latency`` exactly. Per-phase
        cumulative histograms surface on
        :attr:`ServiceStats.phase_histograms` (JSON and the
        ``repro_phase_seconds{phase=...}`` Prometheus family) and each
        terminal ticket emits a ``query.phases`` event. ``None``
        (default) follows ``trace``; an explicit bool overrides. Off
        means zero overhead -- no timeline is ever constructed.
    events:
        A :class:`repro.obs.events.EventLog`: the service emits one
        structured event per lifecycle edge (``query.submitted`` /
        ``query.admitted`` / ``query.rejected`` / ``query.started`` /
        ``query.cancelled`` / ``query.finished`` plus
        ``breaker.transition``), each attributed to its query id, and
        worker facades feed engine-level events (degradations, faults,
        budget trips) into the same log under the ticket's id. Per-kind
        event counts reconcile *exactly* with :class:`ServiceStats`
        counters (emissions share the counters' critical section).
        ``None`` (default) adds no overhead.
    slow_query_ms:
        Slow-query capture: any query whose submission-to-completion
        latency exceeds ``slow_query_ms`` is recorded (SQL, strategy,
        outcome, degradations, metrics, top operators when traced) in a
        bounded ring (:attr:`slow_log`) surfaced on
        :attr:`ServiceStats.slow_queries` and :meth:`slow_queries`.
        ``None`` (default) adds no overhead.
    overload:
        An :class:`~repro.serve.overload.OverloadConfig` switches on
        adaptive overload control: deadline-aware admission, priority
        shedding with class quotas, eager expiry of queued tickets and
        the brownout degradation ladder (see module docstring and
        DESIGN §14). ``None`` (default) is the FIFO policy: plain
        admission exactly.
    plan_cache:
        A :class:`~repro.plan.cache.PlanCache` shared by every worker
        facade: repeated query *templates* (same shape, different
        literals) skip the parse/rewrite/optimize pipeline and pay only
        executor time. The cache's ``plan.cache_*`` events flow into the
        service's event log, and its counters surface on
        :attr:`ServiceStats.plan_cache_hits` /
        ``plan_cache_misses`` / ``plan_cache_invalidations`` (plus the
        full summary under ``plan_cache``). ``None`` (default) leaves
        every execution path untouched.

    Use as a context manager; ``close()`` drains by default.
    """

    def __init__(
        self,
        db: Database,
        workers: int = 4,
        max_queue: int = 32,
        default_limits: Optional[Limits] = None,
        default_deadline: Optional[float] = None,
        breaker_threshold: int = 5,
        breaker_cooldown: float = 30.0,
        fault_scope: str = "shared",
        clock: Callable[[], float] = time.monotonic,
        trace: bool = False,
        trace_history: int = 64,
        events=None,
        slow_query_ms: Optional[float] = None,
        overload: Optional[OverloadConfig] = None,
        plan_cache=None,
        phases: Optional[bool] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        if fault_scope not in ("shared", "worker"):
            raise ValueError(
                f"fault_scope must be 'shared' or 'worker', got {fault_scope!r}"
            )
        self._db = db
        self.workers = workers
        self.max_queue = max_queue
        self.default_limits = default_limits
        self.default_deadline = default_deadline
        self.fault_scope = fault_scope
        self._clock = clock
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._queue: deque[Ticket] = deque()
        self._tickets: dict[int, Ticket] = {}  # queued or running
        self._ids = itertools.count(1)
        self._closed = False
        #: The admission policy (FIFO or adaptive; the service never asks
        #: which). All its state is guarded by self._lock.
        self._policy = admission_policy(overload, workers, max_queue)
        #: Counters, by :class:`ServiceStats` field (guarded by
        #: self._lock). A ticket that ran is counted under its terminal
        #: state; the policy counts the ones it evicted from the queue.
        self._counts = dict.fromkeys(
            ("submitted", "admitted", "rejected", "rejected_with_hint",
             COMPLETED, FAILED, CANCELLED), 0,
        )
        self._in_flight = 0
        #: One sample per finished ticket for the life of the service, so
        #: kept unboxed (8 bytes a sample, not a float object and a slot).
        self._latencies = array("d")
        self._queue_wait_samples = array("d")  # per ticket, as _latencies
        # tracing: bounded ring of per-query summaries + depth samples
        self.trace = trace
        if trace_history < 1:
            raise ValueError("trace_history must be >= 1")
        self._trace_history: deque[dict] = deque(maxlen=trace_history)
        #: Phase accounting defaults to following ``trace`` -- a traced
        #: service wants the budget breakdown; a bare one stays lean.
        self.phases = trace if phases is None else phases
        self._phase_samples: dict[str, list[float]] = {}
        self._queue_depth_samples: list[int] = []
        # observability: structured events + slow-query capture
        self.events = events
        self.slow_log = None
        if slow_query_ms is not None:
            from ..obs.slowlog import SlowQueryLog

            self.slow_log = SlowQueryLog(slow_query_ms, events=events)
        # shared plan cache (thread-safe; its own lock sits between the
        # service and catalog ranks in the section-9 order)
        self._plan_cache = plan_cache
        if (
            plan_cache is not None
            and events is not None
            and plan_cache.events is None
        ):
            plan_cache.events = events
        #: Strategy health: the breakers and who feeds them (it takes its
        #: own locks; the service lock is never needed to consult it).
        self._health = BreakerBoard(
            breaker_threshold, breaker_cooldown, clock, events
        )
        self._tls = threading.local()
        # workers
        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-serve-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    def _emit(self, kind: str, **payload: Any) -> None:
        """One service-level event, when there is a log to take it.
        Lifecycle emissions happen inside the counters' critical section
        (per-kind counts must reconcile with ServiceStats)."""
        if self.events is not None:
            self.events.emit(kind, **payload)

    # -- submission ---------------------------------------------------------

    def submit(
        self,
        sql: str,
        strategy: Any = "ni",
        limits: Optional[Limits] = None,
        deadline: Optional[float] = None,
        cse_mode: str = "recompute",
        priority: str = "normal",
    ) -> Ticket:
        """Admit one query (or raise :class:`AdmissionRejected`).

        ``deadline`` (seconds from *now*) is folded into the ticket's
        guard as a wall-clock timeout; queue wait counts against it.
        ``strategy`` may be a :class:`~repro.api.strategies.Strategy`
        member or its string value; the service executes with
        ``fallback=True``, so a failing strategy degrades rather than
        erroring (see the breaker discussion in the module docstring).

        ``priority`` (``"high"``/``"normal"``/``"low"``) matters only
        with overload control on: higher classes dequeue first, may shed
        the newest lowest-priority queued ticket when the queue is full,
        and lower classes are capped by their queue quota. Without
        ``overload=`` the class is recorded but scheduling stays FIFO.
        """
        key = getattr(strategy, "value", strategy)
        rank = priority_rank(priority)
        limits = limits if limits is not None else self.default_limits
        deadline = (
            deadline if deadline is not None else self.default_deadline
        )
        policy = self._policy
        fp = policy.fingerprint(sql)
        with self._lock:
            # Every submission gets an id -- rejected ones included, so
            # their events carry an identity.
            query_id = next(self._ids)
            self._counts["submitted"] += 1
            self._emit(
                "query.submitted", query_id=query_id, strategy=key,
                priority=priority,
            )
            if self._closed:
                self._reject_locked(query_id, "service closed")
            now = self._clock()
            # Evict already-dead tickets first (may free slots), then the
            # policy decides: admit, refuse, or shed a queued ticket to
            # make room.
            self._expire_queued_locked(now)
            verdict = policy.admit(
                self._queue, self._in_flight, fp, key, rank, deadline
            )
            if verdict.refuse is not None:
                self._reject_locked(
                    query_id, verdict.refuse, verdict.hint, verdict.marker
                )
            victim = verdict.shed
            if victim is not None:
                self._settle_locked(
                    victim, SHED, now,
                    error=QueryShed(
                        victim.priority, len(self._queue),
                        retry_after_hint=verdict.hint,
                    ),
                )
            guard = ExecutionGuard(
                policy.budget(self._merge_limits(limits, deadline)),
                clock=self._clock,
            )
            guard.events = self.events
            ticket = Ticket(
                query_id, sql, key, guard, now,
                cse_mode=cse_mode, priority=priority, rank=rank,
                fingerprint=fp, deadline_s=deadline,
            )
            self._counts["admitted"] += 1
            self._emit(
                "query.admitted", query_id=query_id,
                queue_depth=len(self._queue), priority=priority,
            )
            self._tickets[ticket.query_id] = ticket
            self._queue_depth_samples.append(len(self._queue))
            if self.phases:
                # The timeline starts at the ticket's birth; the second
                # clock read here closes the "admit" phase (everything
                # between submission and enqueue). Subsequent marks
                # attribute each later interval, so durations always sum
                # to ticket.latency exactly.
                ticket.phases = PhaseTimeline(start=now, clock=self._clock)
                ticket.phases.mark("admit")
            policy.enqueue(self._queue, ticket)
            self._not_empty.notify()
            self._observe_locked(now)
            return ticket

    def _reject_locked(
        self,
        query_id: int,
        reason: str,
        hint: Optional[float] = None,
        marker: Optional[tuple[str, dict]] = None,
    ) -> None:
        """Count, emit and raise one admission rejection (lock held).

        Every rejection -- a closed service's included -- emits
        ``query.rejected`` with the same payload keys (so per-kind event
        counts keep reconciling with ``rejected``); overload-specific
        reasons add their ``marker`` event. Rejections are
        also pressure observations for the brownout ladder -- under a
        storm they may be the *only* clock edges the service sees.
        """
        self._observe_locked(self._clock())
        self._counts["rejected"] += 1
        if hint is not None:
            self._counts["rejected_with_hint"] += 1
        depth = len(self._queue)
        if marker is not None:
            self._emit(marker[0], query_id=query_id, **marker[1])
        self._emit(
            "query.rejected", query_id=query_id, reason=reason,
            retry_after_hint=hint, queue_depth=depth,
        )
        raise AdmissionRejected(
            reason, depth, self.max_queue,
            in_flight=self._in_flight, retry_after_hint=hint,
        )

    # -- overload control (all helpers called with the lock held) -----------

    def _expire_queued_locked(self, now: Optional[float] = None) -> None:
        """Settle the queued tickets the policy evicts as expired. Reads
        the clock only when there is one (stepping fake clocks must not
        tick on the seed paths). Caller holds the lock."""
        expired = self._policy.expire(self._queue)
        if not expired:
            return
        if now is None:
            now = self._clock()
        for ticket in expired:
            self._settle_locked(
                ticket, EXPIRED, now,
                error=BudgetExceeded(
                    "timeout",
                    ticket.guard.limits.timeout,
                    round(now - ticket.submitted_at, 6),
                    metrics=Metrics(),
                ),
            )
        if not self._queue and not self._in_flight:
            self._idle.notify_all()

    def _observe_locked(self, now: float) -> None:
        """Hand the policy one pressure observation; emit the brownout
        transition when the ladder stepped. Caller holds the lock."""
        step = self._policy.observe(self._in_flight + len(self._queue), now)
        if step is not None:
            self._emit("overload.brownout", **step)

    def evaluate_overload(self) -> int:
        """Run one overload-control evaluation outside the submit/finish
        path: evict expired queued tickets and feed utilization to the
        brownout ladder. Returns the (possibly updated) brownout level.

        Submissions and completions already evaluate implicitly; call
        this periodically (the soak harness does, between phases) so the
        ladder can *recover* when traffic stops arriving entirely --
        with no submissions there is otherwise no clock edge to observe
        the now-idle service.
        """
        with self._lock:
            now = self._clock()
            self._expire_queued_locked(now)
            self._observe_locked(now)
            return self._policy.level

    @staticmethod
    def _merge_limits(
        limits: Optional[Limits], deadline: Optional[float]
    ) -> Limits:
        """Fold a submission deadline into its limits' timeout."""
        base = limits if limits is not None else Limits()
        if deadline is None:
            return base
        timeout = (
            deadline if base.timeout is None else min(base.timeout, deadline)
        )
        return Limits(
            timeout=timeout,
            max_rows_scanned=base.max_rows_scanned,
            max_rows_materialized=base.max_rows_materialized,
            max_subquery_invocations=base.max_subquery_invocations,
        )

    # -- cancellation -------------------------------------------------------

    def cancel(self, query_id: int) -> bool:
        """Request cooperative cancellation of a queued or running query.

        Returns True when the query was still in flight (it will trip with
        :class:`~repro.errors.QueryCancelled` within one executor step, or
        immediately on dequeue if it never started), False when it already
        finished or the id is unknown.
        """
        with self._lock:
            ticket = self._tickets.get(query_id)
        if ticket is None:
            return False
        ticket.guard.cancel()
        return True

    # -- execution ----------------------------------------------------------

    def _worker_db(self) -> Database:
        """This worker thread's database facade (built once per thread).

        Shares the base catalog; own rewrite engine (its per-rewrite
        diagnostic state is not thread-safe); fault registry per
        ``fault_scope``.
        """
        local = self._tls
        db = getattr(local, "db", None)
        if db is None:
            faults = self._db.faults
            if faults is not None and self.fault_scope == "worker":
                faults = faults.replica()
            db = Database(
                catalog=self._db.catalog,
                validate=self._db.engine.validate,
                faults=faults,
                # Engine-level events (degradations, faults, budget trips)
                # flow into the service's log under the ticket's scope;
                # the lifecycle is the service's alone.
                events=self.events,
                # One shared cache across facades: the whole point is
                # that worker B hits on the template worker A filled.
                plan_cache=self._plan_cache,
            )
            local.db = db
        return db

    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                while True:
                    # Sweep expired tickets before (and after) waiting:
                    # a worker must never spend itself dequeuing a
                    # ticket that eager expiry should have evicted.
                    self._expire_queued_locked()
                    if self._queue or self._closed:
                        break
                    self._not_empty.wait()
                if not self._queue:
                    return  # closed and drained
                ticket = self._queue.popleft()
                ticket.state = RUNNING
                now = self._clock()
                ticket.started_at = now
                self._queue_wait_samples.append(
                    max(0.0, now - ticket.submitted_at)
                )
                if ticket.phases is not None:
                    # Reuses the dequeue clock read: the "queue" phase
                    # ends exactly where started_at begins.
                    ticket.phases.mark("queue", now)
                self._policy.dequeued(ticket)
                self._in_flight += 1
            try:
                self._run_ticket(ticket)
            finally:
                with self._lock:
                    self._in_flight -= 1
                    self._idle.notify_all()

    def _run_ticket(self, ticket: Ticket) -> None:
        events = self.events
        if events is None:
            self._run_ticket_inner(ticket)
            return
        # Bind the ticket id to this thread for the whole execution, so
        # engine-level emissions (degradations, faults, budget trips) from
        # the worker facade are attributed to this query without plumbing.
        with events.scope(ticket.query_id):
            events.emit("query.started", strategy=ticket.strategy)
            self._run_ticket_inner(ticket)

    def _run_ticket_inner(self, ticket: Ticket) -> None:
        db = self._worker_db()
        # Brownout level 3 vetoes everything but the cheapest learned
        # strategy through the same hook the breakers use.
        attempt = self._health.attempt(ticket.strategy, ticket.forced_strategy)
        outcome = FAILED
        error: Optional[BaseException] = None
        result: Optional[Result] = None
        tracer = None
        if self.trace and ticket.brownout_level < 1:
            # The first brownout rung sheds per-query tracing: under
            # sustained overload the span tree is pure overhead.
            from ..trace import Tracer

            tracer = Tracer()
        try:
            # Deadline may have expired (or a cancel landed) while queued:
            # trip before doing any work.
            ticket.guard.check()
            result = db.execute(
                ticket.sql,
                strategy=ticket.strategy,
                cse_mode=ticket.cse_mode,
                guard=ticket.guard,
                fallback=True,
                disabled=attempt.disabled,
                tracer=tracer,
                phases=ticket.phases,
            )
            outcome = COMPLETED
        except QueryCancelled as exc:
            outcome, error = CANCELLED, exc
        except BaseException as exc:  # a typed failure, or an invariant breach
            outcome, error = FAILED, exc
        finally:
            # Strategy health is fed from the query's own chain: the
            # result's, or the one its error carried out.
            attempt.settle(
                result.degradations if result is not None
                else getattr(error, "degradations", ()),
                error,
            )
            self._finish(ticket, outcome, result, error, tracer=tracer)

    def _finish(
        self,
        ticket: Ticket,
        outcome: str,
        result: Optional[Result],
        error: Optional[BaseException],
        tracer=None,
    ) -> None:
        end = self._clock()
        traced = None
        if tracer is not None:
            # Summarise outside the lock (walks the span tree), append
            # inside it (the ring is shared).
            traced = {"operators": tracer.operator_summaries(top=8)}
            if result is None:
                # No Result to read the work from: the ring reports what
                # the spans recorded.
                traced["metrics"] = tracer.metric_totals()
        with self._lock:
            self._settle_locked(ticket, outcome, end, result, error, traced)

    def _settle_locked(
        self,
        ticket: Ticket,
        outcome: str,
        now: float,
        result: Optional[Result] = None,
        error: Optional[BaseException] = None,
        traced: Optional[dict] = None,
    ) -> None:
        """The one way out of the system. Every terminal outcome --
        completed, failed, cancelled after a run; shed or expired
        straight from the queue (eviction happens *inside* the admission
        critical section) -- is settled here, so each ticket gets one
        latency, one closing phase mark, one counted outcome and one
        terminal event, and only then its future: the §9 conservation
        law, events == counters and the phase-sum law hold because this
        is the only place any of them is written. Caller holds the lock.

        ``now`` is one clock read that settles both the measured latency
        and the final phase mark -- sharing the reading is what makes the
        phase durations sum to ticket.latency *exactly*. ``traced`` is
        the tracer's account of a traced run: its top ``operators``, and
        the ``metrics`` its spans recorded when there is no result."""
        ran = ticket.started_at is not None
        ticket.state = outcome
        ticket.latency = latency = now - ticket.submitted_at
        ticket._result = result
        ticket._error = error
        if ran:
            self._counts[outcome] += 1
            self._latencies.append(latency)
            self._policy.finished(ticket, outcome == COMPLETED)
            # Observed while this query still counts as in flight:
            # sustained saturation must not flicker at completion
            # edges. Recovery is driven by the lighter utilization
            # later submissions (or evaluate_overload) read.
            self._observe_locked(now)
        else:
            # Shed/expired tickets are the *longest* waiters; the
            # queue-wait histogram must see them too, not just the
            # dequeue-to-run path (sampling only at dequeue biases the
            # exported wait low). The policy counted them on eviction.
            self._queue_wait_samples.append(max(0.0, latency))
        phases = ticket.phases
        if phases is not None:
            phases.mark("drain" if ran else "queue", now)
            for name, seconds in phases.durations.items():
                self._phase_samples.setdefault(name, []).append(seconds)
        events = self.events
        # Slow-query capture is shed at the first brownout rung,
        # together with tracing (see BROWNOUT_RUNGS).
        slow_log = self.slow_log if ran and ticket.brownout_level < 1 else None
        if traced is not None or events is not None or slow_log is not None:
            if traced is not None:
                ticket.operators = traced["operators"]
            summary = ticket.summary()
            if traced is not None:
                self._trace_history.append(
                    {**{key: summary[key] for key in _TRACE_VIEW}, **traced}
                )
            if events is not None:
                # Emitted in the counters' critical section so per-kind
                # event counts reconcile exactly with ServiceStats.
                if not ran:
                    events.emit(
                        _EVICTED_KIND[outcome],
                        query_id=ticket.query_id,
                        priority=ticket.priority,
                        queued_ms=summary["latency_ms"],
                    )
                else:
                    if outcome == CANCELLED:
                        events.emit(
                            "query.cancelled", query_id=ticket.query_id
                        )
                    events.emit(
                        "query.finished",
                        **{key: summary[key] for key in _FINISHED_VIEW},
                    )
                if phases is not None:
                    events.emit(
                        "query.phases",
                        **{key: summary[key] for key in _PHASES_VIEW},
                    )
            if slow_log is not None:
                slow_log.capture(summary)
        self._tickets.pop(ticket.query_id, None)
        ticket._event.set()

    # -- lifecycle ----------------------------------------------------------

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop admitting queries and shut the pool down.

        ``drain=True`` (default) lets queued and running queries finish;
        ``drain=False`` cancels everything still queued (their tickets
        resolve with :class:`~repro.errors.QueryCancelled`) and interrupts
        running queries cooperatively. ``timeout`` bounds the whole wait
        for the pool, not each worker -- in real seconds, since
        ``Thread.join`` does not run on the injectable clock.
        """
        with self._lock:
            self._closed = True
            if not drain:
                for ticket in list(self._queue) + [
                    t for t in self._tickets.values() if t.state == RUNNING
                ]:
                    ticket.guard.cancel()
            self._not_empty.notify_all()
        deadline = None if timeout is None else time.monotonic() + timeout
        for thread in self._threads:
            thread.join(
                None if deadline is None
                else max(0.0, deadline - time.monotonic())
            )

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until no query is queued or running (service stays open);
        False if ``timeout`` elapsed first.

        The deadline runs on the service's injectable clock (like every
        other timeout here), not the process monotonic clock directly --
        fake-clock tests drive it deterministically."""
        deadline = None if timeout is None else self._clock() + timeout
        with self._lock:
            while self._queue or self._in_flight:
                remaining = (
                    None if deadline is None else deadline - self._clock()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(remaining)
        return True

    # -- observation --------------------------------------------------------

    def recent_traces(self) -> list[dict]:
        """The bounded ring of per-query trace summaries (newest last);
        empty unless the service runs with ``trace=True``."""
        with self._lock:
            return list(self._trace_history)

    def slow_queries(self) -> list[dict]:
        """The bounded ring of slow-query records (insertion order);
        empty unless the service runs with ``slow_query_ms``."""
        if self.slow_log is None:
            return []
        return self.slow_log.records()

    def stats(self) -> ServiceStats:
        """A consistent snapshot of all service counters (see
        :class:`ServiceStats` for the conservation law)."""
        with self._lock:
            latencies = sorted(self._latencies)
            # Service (rank 10) -> plan cache (rank 15): ascending, legal.
            cache_summary = (
                self._plan_cache.snapshot()
                if self._plan_cache is not None else {}
            )
            return ServiceStats(
                **self._counts,
                in_flight=self._in_flight,
                queue_depth=len(self._queue),
                max_queue=self.max_queue,
                workers=self.workers,
                latency_p50_ms=(
                    round(_percentile(latencies, 0.50) * 1000, 3)
                    if latencies else None
                ),
                latency_p95_ms=(
                    round(_percentile(latencies, 0.95) * 1000, 3)
                    if latencies else None
                ),
                breakers=self._health.snapshot(),
                breaker_transitions=list(self._health.transitions),
                latency_histogram=_histogram(latencies, LATENCY_BUCKETS),
                queue_depth_histogram=_histogram(
                    self._queue_depth_samples, QUEUE_DEPTH_BUCKETS
                ),
                recent_traces=list(self._trace_history),
                slow_queries=self.slow_queries(),
                slow_total=(
                    self.slow_log.total if self.slow_log is not None else 0
                ),
                queue_wait_histogram=_histogram(
                    self._queue_wait_samples, LATENCY_BUCKETS
                ),
                phase_histograms={
                    name: _histogram(
                        self._phase_samples[name], LATENCY_BUCKETS
                    )
                    for name in PHASES
                    if name in self._phase_samples
                },
                plan_cache_hits=cache_summary.get("hits", 0),
                plan_cache_misses=cache_summary.get("misses", 0),
                plan_cache_invalidations=cache_summary.get(
                    "invalidations", 0
                ),
                plan_cache=cache_summary,
                # The overload outcomes, brownout state and estimator
                # summary: zeros and empties under FIFO.
                **self._policy.stats(),
            )
