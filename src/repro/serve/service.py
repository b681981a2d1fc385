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
per-rewrite diagnostic state (``steps`` / ``degradations``) that must not
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
preserves plain FIFO behaviour exactly. The §9 conservation law
extends to the new outcomes: ``admitted == completed + failed +
cancelled + shed + expired_in_queue + in_flight + queue_depth``.
"""

from __future__ import annotations

import itertools
import threading
import time
from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..api.database import Database, Result
from ..errors import (
    AdmissionRejected,
    BudgetExceeded,
    QueryCancelled,
    QueryShed,
    ReproError,
)
from ..exec.metrics import Metrics
from ..guard import ExecutionGuard, Limits
from ..obs.phases import PHASES, PhaseTimeline
from .breaker import BreakerTransition, CircuitBreaker
from .overload import (
    BROWNOUT_RUNGS,
    PRIORITIES,
    OverloadConfig,
    fingerprint,
    priority_rank,
)

#: Ticket lifecycle states.
QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"
CANCELLED = "cancelled"
#: Overload-control outcomes: evicted from the queue without running.
SHED = "shed"
EXPIRED = "expired"

#: The strategy of last resort; its breaker never blocks (see module doc).
_LAST_RESORT = "ni"


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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Ticket(#{self.query_id}, {self.state}, {self.strategy})"


#: Histogram bucket upper bounds (``le``), Prometheus-style cumulative.
LATENCY_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0
)
QUEUE_DEPTH_BUCKETS: tuple[float, ...] = (0, 1, 2, 4, 8, 16, 32, 64)


def _check_buckets(name: str, buckets) -> tuple[float, ...]:
    """Validate user-supplied histogram bounds: non-empty, numeric,
    strictly increasing. Returns them as a tuple."""
    bounds = tuple(buckets)
    if not bounds:
        raise ValueError(f"{name} must be non-empty")
    for value in bounds:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(
                f"{name} entries must be numbers, got {value!r}"
            )
    if any(b <= a for a, b in zip(bounds, bounds[1:])):
        raise ValueError(
            f"{name} must be strictly increasing, got {list(bounds)}"
        )
    return bounds


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
    #: Non-compliant resubmissions rejected with the retry token bucket
    #: dry ("retry storm"). Subset of ``rejected``.
    retry_storm_rejected: int = 0
    #: Non-compliant resubmissions that were admitted but paid a token.
    retry_penalized: int = 0
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
    #: only when the service runs with ``slow_query_ms``/``slow_log``.
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
    #: Overload-control internals (estimator/retry-governor summaries);
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
        return {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "rejected_with_hint": self.rejected_with_hint,
            "rejected_futile": self.rejected_futile,
            "retry_storm_rejected": self.retry_storm_rejected,
            "retry_penalized": self.retry_penalized,
            "completed": self.completed,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "shed": self.shed,
            "expired_in_queue": self.expired_in_queue,
            "in_flight": self.in_flight,
            "queue_depth": self.queue_depth,
            "max_queue": self.max_queue,
            "workers": self.workers,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p95_ms": self.latency_p95_ms,
            "breakers": self.breakers,
            "breaker_transitions": [
                (t.strategy, t.from_state, t.to_state, t.reason)
                for t in self.breaker_transitions
            ],
            "latency_histogram": {
                **self.latency_histogram,
                "buckets": {
                    str(k): v
                    for k, v in self.latency_histogram.get(
                        "buckets", {}
                    ).items()
                },
            },
            "queue_depth_histogram": {
                **self.queue_depth_histogram,
                "buckets": {
                    str(k): v
                    for k, v in self.queue_depth_histogram.get(
                        "buckets", {}
                    ).items()
                },
            },
            "recent_traces": self.recent_traces,
            "slow_queries": self.slow_queries,
            "slow_total": self.slow_total,
            "brownout_level": self.brownout_level,
            "brownout_transitions": self.brownout_transitions,
            "queue_wait_histogram": {
                **self.queue_wait_histogram,
                "buckets": {
                    str(k): v
                    for k, v in self.queue_wait_histogram.get(
                        "buckets", {}
                    ).items()
                },
            },
            "phase_histograms": {
                phase: {
                    **hist,
                    "buckets": {
                        str(k): v
                        for k, v in hist.get("buckets", {}).items()
                    },
                }
                for phase, hist in self.phase_histograms.items()
            },
            "overload": self.overload,
            "plan_cache_hits": self.plan_cache_hits,
            "plan_cache_misses": self.plan_cache_misses,
            "plan_cache_invalidations": self.plan_cache_invalidations,
            "plan_cache": self.plan_cache,
        }

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
        "retry_storm_rejected": (
            "Non-compliant resubmissions rejected with the retry "
            "token bucket dry"
        ),
        "retry_penalized": (
            "Non-compliant resubmissions admitted at the cost of a "
            "retry token"
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
    slow_query_ms / slow_log:
        Slow-query capture: any query whose submission-to-completion
        latency exceeds ``slow_query_ms`` is recorded (SQL, strategy,
        outcome, degradations, metrics, top operators when traced) in a
        bounded ring surfaced on :attr:`ServiceStats.slow_queries` and
        :meth:`slow_queries`. ``slow_log`` passes a pre-built
        :class:`repro.obs.slowlog.SlowQueryLog` instead (e.g. shared
        with a facade). ``None`` (default) adds no overhead.
    latency_buckets / queue_depth_buckets:
        Histogram bucket upper bounds for the exported latency and
        queue-depth histograms; default to :data:`LATENCY_BUCKETS` /
        :data:`QUEUE_DEPTH_BUCKETS`. Must be non-empty and strictly
        increasing.
    overload:
        An :class:`~repro.serve.overload.OverloadConfig` switches on
        adaptive overload control: deadline-aware admission, priority
        shedding with class quotas, eager expiry of queued tickets, the
        retry-storm governor, and the brownout degradation ladder (see
        module docstring and DESIGN §14). ``None`` (default) preserves
        plain FIFO admission exactly.
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
        slow_log=None,
        latency_buckets=None,
        queue_depth_buckets=None,
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
        # counters (all guarded by self._lock)
        self._submitted = 0
        self._admitted = 0
        self._rejected = 0
        self._completed = 0
        self._failed = 0
        self._cancelled = 0
        self._in_flight = 0
        self._rejected_with_hint = 0
        #: One sample per finished ticket for the life of the service, so
        #: kept unboxed (8 bytes a sample, not a float object and a slot).
        self._latencies = array("d")
        #: Exponentially-weighted mean query latency (seconds); drives the
        #: ``retry_after_hint`` on queue-full rejections. None until the
        #: first completion -- with no data, rejections carry no hint.
        self._latency_ema: Optional[float] = None
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
        self._latency_buckets = (
            LATENCY_BUCKETS if latency_buckets is None
            else _check_buckets("latency_buckets", latency_buckets)
        )
        self._queue_depth_buckets = (
            QUEUE_DEPTH_BUCKETS if queue_depth_buckets is None
            else _check_buckets("queue_depth_buckets", queue_depth_buckets)
        )
        # observability: structured events + slow-query capture
        self.events = events
        if slow_log is not None:
            self.slow_log = slow_log
        elif slow_query_ms is not None:
            from ..obs.slowlog import SlowQueryLog

            self.slow_log = SlowQueryLog(slow_query_ms, events=events)
        else:
            self.slow_log = None
        # adaptive overload control (all state guarded by self._lock)
        self._overload = overload
        if overload is not None:
            self._estimator = overload.build_estimator()
            self._governor = overload.build_governor()
            self._brownout = overload.build_brownout()
            self._quotas = [
                overload.quota_for(priority, max_queue)
                for priority in PRIORITIES  # indexed by rank
            ]
        else:
            self._estimator = None
            self._governor = None
            self._brownout = None
            self._quotas = [None, None, None]
        self._queued_by_rank = [0, 0, 0]
        self._shed = 0
        self._expired_in_queue = 0
        self._rejected_futile = 0
        self._retry_storm_rejected = 0
        self._brownout_transitions: list[dict] = []
        self._queue_wait_samples = array("d")  # per ticket, as _latencies
        # shared plan cache (thread-safe; its own lock sits between the
        # service and catalog ranks in the section-9 order)
        self._plan_cache = plan_cache
        if (
            plan_cache is not None
            and events is not None
            and plan_cache.events is None
        ):
            plan_cache.events = events
        # breakers
        self._breaker_threshold = breaker_threshold
        self._breaker_cooldown = breaker_cooldown
        self._breakers: dict[str, CircuitBreaker] = {}
        self._transitions: list[BreakerTransition] = []
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
        overload = self._overload
        fp = fingerprint(sql) if overload is not None else ""
        events = self.events
        with self._lock:
            # Every submission gets an id -- rejected ones included, so
            # their events carry an identity.
            query_id = next(self._ids)
            self._submitted += 1
            if events is not None:
                events.emit(
                    "query.submitted", query_id=query_id, strategy=key,
                    priority=priority,
                )
            if self._closed:
                self._rejected += 1
                if events is not None:
                    events.emit(
                        "query.rejected", query_id=query_id,
                        reason="service closed",
                    )
                raise AdmissionRejected(
                    "service closed", len(self._queue), self.max_queue,
                    in_flight=self._in_flight,
                )
            now = self._clock()
            # Overload control, in order: evict already-dead tickets (may
            # free slots), gate retry storms, refuse provably-futile
            # work, enforce class quotas -- then the capacity rule, with
            # priority shedding as the last resort before rejection.
            self._expire_queued_locked(now)
            full = (
                self._in_flight + len(self._queue)
                >= self.workers + self.max_queue
            )
            if overload is not None and self._governor is not None:
                if full:
                    allowed, wait_remaining = self._governor.admit(fp, now)
                    if not allowed:
                        hint = (
                            round(wait_remaining, 6)
                            if wait_remaining is not None else None
                        )
                        self._reject_locked(
                            query_id, "retry storm", hint,
                            extra_kind="overload.retry_storm",
                        )
                else:
                    # Early resubmission to a service with capacity is
                    # not a storm -- the hint was only an estimate.
                    self._governor.forgive(fp)
            if (
                overload is not None
                and overload.deadline_admission
                and deadline is not None
                # Futility rejection only pays when the arrival would
                # contend for a worker: with idle capacity, executing a
                # doomed-looking query costs nothing (the estimate may
                # be wrong; an idle worker is wrong for sure).
                and self._in_flight + len(self._queue) >= self.workers
            ):
                wait, estimate = self._predicted_wait_locked(fp, key)
                if (
                    wait is not None
                    and estimate is not None
                    and wait + estimate > deadline * overload.admission_slack
                ):
                    hint = round(wait, 6) if wait > 0 else None
                    if self._governor is not None:
                        self._governor.record_rejection(fp, now, hint)
                    if events is not None:
                        events.emit(
                            "overload.futile", query_id=query_id,
                            predicted_ms=round((wait + estimate) * 1000, 3),
                            deadline_ms=round(deadline * 1000, 3),
                        )
                    self._reject_locked(
                        query_id, "deadline unmeetable", hint,
                    )
            if overload is not None:
                quota = self._quotas[rank]
                would_wait = (
                    self._in_flight + len(self._queue) >= self.workers
                )
                if (
                    quota is not None
                    and would_wait
                    and self._queued_by_rank[rank] >= quota
                ):
                    hint = self._retry_hint_locked()
                    if self._governor is not None:
                        self._governor.record_rejection(fp, now, hint)
                    self._reject_locked(query_id, "class quota", hint)
            # Total-capacity rule: admit while admitted-but-unfinished
            # work fits in ``workers + max_queue``.  (Queue depth alone
            # would make ``max_queue=0`` unusable even with idle workers.)
            if full:
                victim = None
                if (
                    overload is not None
                    and overload.shed_lower_priority
                    and self._queue
                    and self._queue[-1].rank > rank
                ):
                    # The queue is priority-ordered (FIFO within class),
                    # so its tail is the newest lowest-priority ticket.
                    victim = self._queue.pop()
                if victim is None:
                    hint = self._retry_hint_locked()
                    if self._governor is not None and overload is not None:
                        self._governor.record_rejection(fp, now, hint)
                    self._reject_locked(
                        query_id, "queue full", hint,
                        queue_depth=len(self._queue),
                    )
                else:
                    self._resolve_queued_locked(
                        victim, SHED,
                        QueryShed(
                            victim.priority, len(self._queue),
                            retry_after_hint=self._retry_hint_locked(),
                        ),
                        now,
                    )
            merged = self._merge_limits(limits, deadline)
            if (
                self._brownout is not None
                and self._brownout.tightening_budgets
            ):
                merged = self._tighten_limits(merged)
            guard = ExecutionGuard(merged, clock=self._clock)
            if events is not None:
                guard.events = events
            ticket = Ticket(
                query_id, sql, key, guard, now,
                cse_mode=cse_mode, priority=priority, rank=rank,
                fingerprint=fp, deadline_s=deadline,
            )
            self._admitted += 1
            if events is not None:
                events.emit(
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
            self._enqueue_locked(ticket)
            self._not_empty.notify()
            self._observe_overload_locked(now)
            return ticket

    def _reject_locked(
        self,
        query_id: int,
        reason: str,
        hint: Optional[float],
        extra_kind: Optional[str] = None,
        queue_depth: Optional[int] = None,
    ) -> None:
        """Count, emit and raise one admission rejection (lock held).

        Every rejection emits ``query.rejected`` (so per-kind event
        counts keep reconciling with ``rejected``); overload-specific
        reasons add a marker event via ``extra_kind``. Rejections are
        also pressure observations for the brownout ladder -- under a
        storm they may be the *only* clock edges the service sees.
        """
        self._observe_overload_locked(self._clock())
        self._rejected += 1
        if hint is not None:
            self._rejected_with_hint += 1
        if reason == "deadline unmeetable":
            self._rejected_futile += 1
        elif reason == "retry storm":
            self._retry_storm_rejected += 1
        if self.events is not None:
            if extra_kind is not None:
                self.events.emit(
                    extra_kind, query_id=query_id, retry_after_hint=hint,
                )
            payload = {"reason": reason, "retry_after_hint": hint}
            if queue_depth is not None:
                payload["queue_depth"] = queue_depth
            self.events.emit(
                "query.rejected", query_id=query_id, **payload
            )
        raise AdmissionRejected(
            reason, len(self._queue), self.max_queue,
            in_flight=self._in_flight, retry_after_hint=hint,
        )

    def _enqueue_locked(self, ticket: Ticket) -> None:
        """Insert a ticket into the wait queue.

        Plain FIFO without overload control; with it, priority order
        (rank ascending) with FIFO stability inside each class -- the
        insert walks from the tail, so same-rank traffic stays O(1).
        """
        queue = self._queue
        if (
            self._overload is None
            or not queue
            or queue[-1].rank <= ticket.rank
        ):
            queue.append(ticket)
        else:
            index = len(queue)
            while index > 0 and queue[index - 1].rank > ticket.rank:
                index -= 1
            queue.insert(index, ticket)
        self._queued_by_rank[ticket.rank] += 1

    def _retry_hint_locked(self) -> Optional[float]:
        """The backoff estimate attached to a queue-full rejection (called
        with the lock held).

        With overload control and a warm estimator, the hint is the
        predicted time for the current backlog to clear one slot
        (per-shape estimates for queued work, half a mean for each
        in-flight query). Otherwise: a full service clears roughly
        ``workers`` queries per mean latency, so one slot frees after
        about ``ema * (depth + 1) / workers`` seconds. Deliberately
        rough -- the point is to replace a client's blind hot-loop with
        a back-off on the right order of magnitude. ``None`` before the
        first completion (no data, no hint)."""
        if (
            self._estimator is not None
            and self._estimator.global_mean() is not None
        ):
            backlog = self._backlog_seconds_locked()
            mean = self._estimator.global_mean()
            return round((backlog + mean) / self.workers, 6)
        if self._latency_ema is None:
            return None
        return round(
            self._latency_ema * (len(self._queue) + 1) / self.workers, 6
        )

    # -- overload control (all helpers called with the lock held) -----------

    def _backlog_seconds_locked(self) -> float:
        """Estimated seconds of work already admitted: per-shape
        estimates for every queued ticket (global mean for cold shapes)
        plus half a mean per in-flight query (in expectation, running
        work is half done)."""
        mean = self._estimator.global_mean() or 0.0
        queued = 0.0
        for ticket in self._queue:
            estimate = self._estimator.estimate(
                ticket.fingerprint, ticket.strategy
            )
            queued += estimate if estimate is not None else mean
        return queued + 0.5 * mean * self._in_flight

    def _predicted_wait_locked(
        self, fp: str, strategy: str
    ) -> tuple[Optional[float], Optional[float]]:
        """``(predicted queue wait, own service-time estimate)`` for one
        arriving submission -- the futility test's inputs. Both ``None``
        while the estimator is cold (no evidence, no rejection)."""
        estimate = self._estimator.estimate(fp, strategy)
        if estimate is None:
            return None, None
        return self._backlog_seconds_locked() / self.workers, estimate

    def _expire_queued_locked(self, now: Optional[float] = None) -> None:
        """Eagerly evict queued tickets whose deadline already passed
        (``expired_in_queue`` outcome) -- the slot frees without a worker
        dequeue and without burning any execution on a dead query.

        Cancelled tickets are left for the workers: they must resolve as
        ``cancelled`` (the ``close(drain=False)`` contract), not as
        expired, even when their deadline also lapsed. Reads the clock
        only when overload control is on (stepping fake clocks must not
        tick on the seed paths). Caller holds the lock."""
        if (
            self._overload is None
            or not self._overload.eager_expiry
            or not self._queue
        ):
            return
        expired = [
            ticket for ticket in self._queue
            if not ticket.guard.cancelled and ticket.guard.expired()
        ]
        if not expired:
            return
        if now is None:
            now = self._clock()
        dead = set(id(ticket) for ticket in expired)
        self._queue = deque(
            ticket for ticket in self._queue if id(ticket) not in dead
        )
        for ticket in expired:
            self._resolve_queued_locked(
                ticket, EXPIRED,
                BudgetExceeded(
                    "timeout",
                    ticket.guard.limits.timeout,
                    round(now - ticket.submitted_at, 6),
                    metrics=Metrics(),
                ),
                now,
            )
        if not self._queue and not self._in_flight:
            self._idle.notify_all()

    def _resolve_queued_locked(
        self, ticket: Ticket, outcome: str, error: BaseException, now: float
    ) -> None:
        """Resolve a ticket evicted from the queue (shed or expired)
        without a worker ever touching it. Caller holds the lock and
        has already removed the ticket from ``self._queue``; this
        settles counters, events and the ticket's future.

        (Distinct from :meth:`_finish`, which takes the lock itself and
        records run outcomes -- eviction happens *inside* the admission
        critical section.)"""
        ticket.state = outcome
        ticket.latency = now - ticket.submitted_at
        # Shed/expired tickets are the *longest* waiters; the queue-wait
        # histogram must see them too, not just the dequeue-to-run path
        # (sampling only at dequeue biases the exported wait low).
        self._queue_wait_samples.append(max(0.0, ticket.latency))
        if ticket.phases is not None:
            ticket.phases.mark("queue", now)
            self._record_phases_locked(ticket, outcome)
        self._tickets.pop(ticket.query_id, None)
        self._queued_by_rank[ticket.rank] -= 1
        if outcome == SHED:
            self._shed += 1
            kind = "overload.shed"
        else:
            self._expired_in_queue += 1
            kind = "overload.expired"
        if self.events is not None:
            # Inside the counters' critical section, like every
            # lifecycle emission (per-kind counts must reconcile).
            self.events.emit(
                kind,
                query_id=ticket.query_id,
                priority=ticket.priority,
                queued_ms=round(ticket.latency * 1000, 3),
            )
        ticket._result = None
        ticket._error = error
        ticket._event.set()

    def _record_phases_locked(self, ticket: Ticket, outcome: str) -> None:
        """Fold one terminal ticket's phase budget into the per-phase
        histogram samples and emit its ``query.phases`` event (inside
        the counters' critical section, like every lifecycle emission,
        so the event count reconciles with terminal outcomes exactly).
        Caller holds the lock and has set ``ticket.latency``."""
        timeline = ticket.phases
        for name, seconds in timeline.durations.items():
            self._phase_samples.setdefault(name, []).append(seconds)
        if self.events is not None:
            self.events.emit(
                "query.phases",
                query_id=ticket.query_id,
                outcome=outcome,
                latency_ms=round(ticket.latency * 1000, 3),
                brownout_level=ticket.brownout_level,
                phases=timeline.as_ms_dict(),
            )

    def _tighten_limits(self, merged: Limits) -> Limits:
        """The tighten-budgets brownout rung: scale the row/invocation
        budgets by ``brownout_limit_scale``. The timeout is *not*
        scaled -- the deadline is the client's contract, and shrinking it
        here would corrupt the futility test's arithmetic."""
        scale = self._overload.brownout_limit_scale

        def scaled(value: Optional[int]) -> Optional[int]:
            return None if value is None else max(1, int(value * scale))

        return Limits(
            timeout=merged.timeout,
            max_rows_scanned=scaled(merged.max_rows_scanned),
            max_rows_materialized=scaled(merged.max_rows_materialized),
            max_subquery_invocations=scaled(
                merged.max_subquery_invocations
            ),
        )

    def _observe_overload_locked(self, now: float) -> None:
        """Feed current utilization to the brownout ladder; record and
        emit a transition when it steps."""
        if self._brownout is None:
            return
        # Pressure = admitted-but-unfinished work per worker: 1.0 means
        # every worker is spoken for, above 1.0 there is queue backlog
        # on top. Queue fill against max_queue would be blind here --
        # admission control deliberately keeps the queue short, so the
        # overload it is busy managing would never register.
        utilization = (self._in_flight + len(self._queue)) / self.workers
        step = self._brownout.observe(utilization, now)
        if step is None:
            return
        old, new = step
        record = {
            "from": old,
            "to": new,
            "direction": "down" if new > old else "up",
            "utilization": round(utilization, 4),
            "rung": BROWNOUT_RUNGS[new],
        }
        self._brownout_transitions.append(record)
        if self.events is not None:
            self.events.emit("overload.brownout", **record)

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
            self._observe_overload_locked(now)
            return self._brownout.level if self._brownout is not None else 0

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
            kwargs: dict[str, Any] = {}
            if self._db.faults is not None:
                kwargs["faults"] = (
                    self._db.faults.replica()
                    if self.fault_scope == "worker"
                    else self._db.faults
                )
            if self.events is not None:
                # Engine-level events (degradations, faults, budget trips)
                # flow into the service's log; lifecycle events stay with
                # the service (the worker runs inside the ticket's scope,
                # so the facade never claims the lifecycle itself).
                kwargs["events"] = self.events
            if self._plan_cache is not None:
                # One shared cache across facades: the whole point is
                # that worker B hits on the template worker A filled.
                kwargs["plan_cache"] = self._plan_cache
            db = Database(
                catalog=self._db.catalog,
                validate=self._db.engine.validate,
                **kwargs,
            )
            local.db = db
        return db

    def _breaker(self, strategy: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(strategy)
            if breaker is None:
                breaker = CircuitBreaker(
                    strategy,
                    threshold=self._breaker_threshold,
                    cooldown=self._breaker_cooldown,
                    clock=self._clock,
                    on_transition=self._record_transition,
                )
                self._breakers[strategy] = breaker
            return breaker

    def _record_transition(self, event: BreakerTransition) -> None:
        # Called with the breaker's lock held; appending to a list is
        # atomic, so no extra lock here (and taking self._lock could
        # deadlock against _breaker()). The event log's lock is a leaf
        # (it never takes another lock), so emitting under the breaker
        # lock is safe.
        self._transitions.append(event)
        if self.events is not None:
            self.events.emit(
                "breaker.transition",
                strategy=event.strategy,
                from_state=event.from_state,
                to_state=event.to_state,
                reason=event.reason,
            )

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
                self._queued_by_rank[ticket.rank] -= 1
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
                if self._brownout is not None:
                    # Snapshot the ladder at dequeue: the whole run uses
                    # one consistent level, however the ladder moves.
                    ticket.brownout_level = self._brownout.level
                    if self._brownout.forcing_cheapest:
                        ticket.forced_strategy = (
                            self._estimator.cheapest(
                                ticket.fingerprint,
                                ("magic", _LAST_RESORT, ticket.strategy),
                            )
                            or "magic"
                        )
                self._in_flight += 1
            try:
                self._run_ticket(ticket)
            finally:
                with self._lock:
                    self._in_flight -= 1
                    self._tickets.pop(ticket.query_id, None)
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
        claimed: dict[str, bool] = {}  # strategy -> probe claimed
        resolved: set[str] = set()
        forced = ticket.forced_strategy

        def disabled(key: str) -> Optional[str]:
            if key == _LAST_RESORT:
                return None
            if forced is not None and key != forced:
                # Brownout level 3: veto everything but the cheapest
                # learned strategy. The veto records a degradation with
                # error_type "CircuitBreakerOpen", which the breaker
                # bookkeeping below already exempts -- a brownout must
                # not poison strategy health.
                return f"brownout: forcing cheapest strategy {forced!r}"
            reason, probe = self._breaker(key).try_pass()
            if probe:
                claimed[key] = True
            return reason

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
                cse_mode=getattr(ticket, "cse_mode", "recompute"),
                guard=ticket.guard,
                fallback=True,
                disabled=disabled,
                tracer=tracer,
                phases=ticket.phases,
            )
            outcome = COMPLETED
            # Breaker bookkeeping: every strategy that *failed* on the way
            # down the chain takes a failure; the strategy that finally
            # produced the answer takes a success.
            effective = ticket.strategy
            for event in result.degradations:
                if event.error_type != "CircuitBreakerOpen":
                    self._breaker(event.attempted).record_failure(
                        f"{event.error_type}: {event.message}"
                    )
                    resolved.add(event.attempted)
                effective = event.fallback or effective
            self._breaker(effective).record_success()
            resolved.add(effective)
        except QueryCancelled as exc:
            outcome, error = CANCELLED, exc
        except BudgetExceeded as exc:
            # A budget/deadline trip says nothing about the strategy's
            # health; it does not feed the breaker.
            outcome, error = FAILED, exc
        except ReproError as exc:
            outcome, error = FAILED, exc
            # Execution-stage failure: attribute to the strategy whose
            # plan was executing (the last fallback taken, else requested).
            effective = ticket.strategy
            for event in getattr(db.engine, "degradations", []) or []:
                effective = event.fallback or effective
            self._breaker(effective).record_failure(
                f"{type(exc).__name__}: {exc}"
            )
            resolved.add(effective)
        except BaseException as exc:  # pragma: no cover - invariant breach
            outcome, error = FAILED, exc
        finally:
            for key, was_probe in claimed.items():
                if was_probe and key not in resolved:
                    self._breaker(key).release_probe()
            self._finish(ticket, outcome, result, error, tracer=tracer)

    def _finish(
        self,
        ticket: Ticket,
        outcome: str,
        result: Optional[Result],
        error: Optional[BaseException],
        tracer=None,
    ) -> None:
        # One clock read settles both the measured latency and the final
        # "drain" phase mark -- sharing the reading is what makes the
        # phase durations sum to ticket.latency *exactly*.
        end = self._clock()
        latency = end - ticket.submitted_at
        phases = ticket.phases
        if phases is not None:
            phases.mark("drain", end)
        summary = None
        if tracer is not None:
            # Summarise outside the lock (walks the span tree), append
            # inside it (the ring is shared).
            summary = {
                "query_id": ticket.query_id,
                "sql": ticket.sql,
                "strategy": ticket.strategy,
                "outcome": outcome,
                "latency_ms": round(latency * 1000, 3),
                "metrics": (
                    result.metrics.as_dict() if result is not None
                    else tracer.metric_totals()
                ),
                "operators": tracer.operator_summaries(top=8),
            }
        with self._lock:
            ticket.state = outcome
            ticket.latency = latency
            if outcome == COMPLETED:
                self._completed += 1
            elif outcome == CANCELLED:
                self._cancelled += 1
            else:
                self._failed += 1
            self._latencies.append(latency)
            self._latency_ema = (
                latency if self._latency_ema is None
                else 0.2 * latency + 0.8 * self._latency_ema
            )
            if (
                self._estimator is not None
                and outcome == COMPLETED
                and ticket.started_at is not None
            ):
                # Learn *execution* time (dequeue to finish) under the
                # requested strategy; queue wait is what admission
                # predicts from these numbers, so it must not pollute
                # them. Failed runs are truncated by their trip point
                # and would bias the estimate low.
                self._estimator.observe(
                    ticket.fingerprint,
                    ticket.strategy,
                    max(
                        0.0,
                        ticket.submitted_at + latency - ticket.started_at,
                    ),
                )
            if self._brownout is not None:
                # Observed while this query still counts as in flight:
                # sustained saturation must not flicker at completion
                # edges. Recovery is driven by the lighter utilization
                # later submissions (or evaluate_overload) read.
                self._observe_overload_locked(
                    ticket.submitted_at + latency
                )
            if summary is not None:
                self._trace_history.append(summary)
            if self.events is not None:
                # Emitted in the counters' critical section so per-kind
                # event counts reconcile exactly with ServiceStats.
                if outcome == CANCELLED:
                    self.events.emit(
                        "query.cancelled", query_id=ticket.query_id
                    )
                self.events.emit(
                    "query.finished",
                    query_id=ticket.query_id,
                    outcome=outcome,
                    strategy=ticket.strategy,
                    latency_ms=round(latency * 1000, 3),
                    error_type=(
                        type(error).__name__ if error is not None else None
                    ),
                    metrics=(
                        result.metrics.as_dict()
                        if result is not None else None
                    ),
                )
            if phases is not None:
                self._record_phases_locked(ticket, outcome)
        if self.slow_log is not None and ticket.brownout_level < 1:
            # Slow-query capture is shed at the first brownout rung,
            # together with tracing (see BROWNOUT_RUNGS).
            self.slow_log.observe(
                latency * 1000,
                sql=ticket.sql,
                strategy=ticket.strategy,
                query_id=ticket.query_id,
                outcome=outcome,
                degradations=(
                    result.degradations if result is not None else ()
                ),
                metrics=result.metrics if result is not None else None,
                tracer=tracer,
                phases=(
                    phases.as_ms_dict() if phases is not None else None
                ),
                brownout_level=ticket.brownout_level,
            )
        ticket._result = result
        ticket._error = error
        ticket._event.set()

    # -- lifecycle ----------------------------------------------------------

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop admitting queries and shut the pool down.

        ``drain=True`` (default) lets queued and running queries finish;
        ``drain=False`` cancels everything still queued (their tickets
        resolve with :class:`~repro.errors.QueryCancelled`) and interrupts
        running queries cooperatively.
        """
        with self._lock:
            self._closed = True
            if not drain:
                for ticket in list(self._queue) + [
                    t for t in self._tickets.values() if t.state == RUNNING
                ]:
                    ticket.guard.cancel()
            self._not_empty.notify_all()
        for thread in self._threads:
            thread.join(timeout)

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
        empty unless the service runs with ``slow_query_ms``/``slow_log``."""
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
            overload_summary = {}
            if self._overload is not None:
                overload_summary["estimator"] = self._estimator.as_dict()
                if self._governor is not None:
                    overload_summary["retry"] = {
                        "penalized": self._governor.penalized,
                        "rejected": self._governor.rejected,
                    }
            return ServiceStats(
                submitted=self._submitted,
                admitted=self._admitted,
                rejected=self._rejected,
                rejected_with_hint=self._rejected_with_hint,
                rejected_futile=self._rejected_futile,
                retry_storm_rejected=self._retry_storm_rejected,
                retry_penalized=(
                    self._governor.penalized
                    if self._governor is not None else 0
                ),
                completed=self._completed,
                failed=self._failed,
                cancelled=self._cancelled,
                shed=self._shed,
                expired_in_queue=self._expired_in_queue,
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
                breakers={
                    key: breaker.snapshot()
                    for key, breaker in self._breakers.items()
                },
                breaker_transitions=list(self._transitions),
                latency_histogram=_histogram(
                    latencies, self._latency_buckets
                ),
                queue_depth_histogram=_histogram(
                    self._queue_depth_samples, self._queue_depth_buckets
                ),
                recent_traces=list(self._trace_history),
                slow_queries=(
                    self.slow_log.records()
                    if self.slow_log is not None else []
                ),
                slow_total=(
                    self.slow_log.total if self.slow_log is not None else 0
                ),
                brownout_level=(
                    self._brownout.level
                    if self._brownout is not None else 0
                ),
                brownout_transitions=list(self._brownout_transitions),
                queue_wait_histogram=_histogram(
                    self._queue_wait_samples, self._latency_buckets
                ),
                phase_histograms={
                    name: _histogram(
                        self._phase_samples[name], self._latency_buckets
                    )
                    for name in PHASES
                    if name in self._phase_samples
                },
                overload=overload_summary,
                plan_cache_hits=cache_summary.get("hits", 0),
                plan_cache_misses=cache_summary.get("misses", 0),
                plan_cache_invalidations=cache_summary.get(
                    "invalidations", 0
                ),
                plan_cache=cache_summary,
            )
