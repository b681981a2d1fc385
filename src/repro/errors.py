"""Exception hierarchy for the repro engine.

All engine errors derive from :class:`ReproError` so applications can catch
one base class. The hierarchy mirrors the pipeline stages: lexing/parsing,
semantic analysis (QGM construction), rewriting, planning and execution.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from .sql.ast import Span


class ReproError(Exception):
    """Base class for all errors raised by the repro engine."""


class SQLError(ReproError):
    """Base class for errors in the SQL front-end."""


class LexError(SQLError):
    """Raised when the lexer encounters an invalid character sequence."""

    def __init__(self, message: str, position: int, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.position = position
        self.line = line
        self.column = column


class ParseError(SQLError):
    """Raised when the parser cannot derive a statement from the token stream.

    ``span`` carries the offending token's source range when the parser
    constructed the error (it always does); errors raised from other places
    may leave it ``None``. The formatted message already contains the
    location either way.
    """

    def __init__(self, message: str, span: Optional["Span"] = None):
        super().__init__(message)
        self.span = span


class _BinderFinding(ReproError):
    """What the binder (:mod:`repro.qgm.builder`) knows about a statement
    it rejected: ``message`` without a location, the ``span`` of the
    offending AST node (the formatted text appends its location), the SEM
    diagnostic ``code`` of the rule broken (``None`` for a rule without one)
    and an optional did-you-mean ``hint``. The analyzer reports exactly
    these fields."""

    def __init__(self, message: str, span: Optional["Span"] = None,
                 code: Optional[str] = None, hint: Optional[str] = None):
        super().__init__(message if span is None else f"{message} ({span.location()})")
        self.message = message
        self.span = span
        self.code = code
        self.hint = hint


class CatalogError(_BinderFinding):
    """Raised for catalog problems: unknown/duplicate tables, columns, indexes."""


class SchemaError(ReproError):
    """Raised for schema violations: arity mismatch, bad types, key violations."""


class BindError(_BinderFinding):
    """Raised during AST -> QGM building when a name cannot be resolved or is
    ambiguous, or when a construct is used in an invalid context."""


class QGMConsistencyError(ReproError):
    """Raised by the QGM validator when a graph invariant is broken.

    The paper (section 3) requires every rewrite rule application to leave the
    QGM consistent; the validator enforces that contract in tests.
    """


class RewriteError(ReproError):
    """Raised when a rewrite rule fails in an unexpected way."""


class NotApplicableError(RewriteError):
    """Raised when a decorrelation method cannot be applied to a query.

    Kim's and Dayal's methods only handle restricted query shapes (section 2);
    this error carries the human-readable reason used in benchmark reports.
    """

    def __init__(self, method: str, reason: str):
        super().__init__(f"{method} is not applicable: {reason}")
        self.method = method
        self.reason = reason


class PlanError(ReproError):
    """Raised when the planner cannot produce a physical plan."""


class ExecutionError(ReproError):
    """Raised at runtime, e.g. a scalar subquery returning more than one row."""


class TraceError(ReproError):
    """Raised for malformed trace payloads (:mod:`repro.trace` schema)."""


class EventLogError(ReproError):
    """Raised for malformed event streams (:mod:`repro.obs.events` schema)
    and misconfigured event-log components (bad sink, bad capacity)."""


class GuardrailError(ExecutionError):
    """Base class for execution-governance trips (budgets, cancellation).

    ``metrics`` carries a snapshot of the work counters at trip time so
    callers can see exactly how much work the query had done when the
    guardrail fired.
    """

    def __init__(self, message: str, metrics=None):
        super().__init__(message)
        self.metrics = metrics


class BudgetExceeded(GuardrailError):
    """Raised when a query exceeds a configured resource budget.

    ``budget`` names the limit that tripped (``"timeout"``,
    ``"max_rows_scanned"``, ``"max_rows_materialized"``,
    ``"max_subquery_invocations"``); ``limit`` and ``observed`` are the
    configured bound and the value that exceeded it.
    """

    def __init__(self, budget: str, limit, observed, metrics=None):
        super().__init__(
            f"budget {budget!r} exceeded: observed {observed} > limit {limit}",
            metrics,
        )
        self.budget = budget
        self.limit = limit
        self.observed = observed


class QueryCancelled(GuardrailError):
    """Raised when a query observes a cooperative cancellation request."""

    def __init__(self, reason: str = "query cancelled", metrics=None):
        super().__init__(reason, metrics)
        self.reason = reason


class QueryShed(ReproError):
    """Raised on a ticket that was admitted but then *shed* from the wait
    queue to make room for a strictly higher-priority arrival.

    Shedding is the overload-control counterpart of admission rejection:
    the ticket held a queue slot, never ran, and resolves with this typed
    error instead of burning a worker. ``priority`` is the shed ticket's
    class; ``retry_after_hint`` (when available) estimates how long the
    client should back off before resubmitting.
    """

    def __init__(
        self,
        priority: str,
        queue_depth: int,
        retry_after_hint: Optional[float] = None,
    ):
        hint = (
            f", retry after ~{retry_after_hint * 1000:.1f}ms"
            if retry_after_hint is not None
            else ""
        )
        super().__init__(
            f"query shed from queue (priority {priority!r}, depth "
            f"{queue_depth}) for higher-priority work{hint}"
        )
        self.priority = priority
        self.queue_depth = queue_depth
        self.retry_after_hint = retry_after_hint


class AdmissionRejected(ReproError):
    """Raised by the query service when a submission cannot be admitted.

    Admission control bounds the service's wait queue: rather than letting
    submissions pile up without bound, overflow fails fast with this typed
    error. ``queue_depth``/``max_queue`` describe the wait queue at
    rejection time, ``in_flight`` the number of queries then executing;
    ``reason`` is ``"queue full"`` or ``"service closed"`` -- or, with
    adaptive overload control on, ``"deadline unmeetable"`` (the learned
    service time for the query's shape cannot fit inside its deadline
    given the current queue) or ``"class quota"`` (the priority class's
    queue share is exhausted).

    ``retry_after_hint`` is the service's estimate, in seconds, of how
    long the client should back off before resubmitting (``None`` when
    retrying cannot help, e.g. the service is closed). Clients honouring
    the hint avoid the hot-loop resubmission storm a blind
    reject-and-retry produces.
    """

    def __init__(
        self,
        reason: str,
        queue_depth: int,
        max_queue: int,
        in_flight: int = 0,
        retry_after_hint: Optional[float] = None,
    ):
        hint = (
            f", retry after ~{retry_after_hint * 1000:.1f}ms"
            if retry_after_hint is not None
            else ""
        )
        super().__init__(
            f"admission rejected ({reason}): queue depth {queue_depth}"
            f"/{max_queue}, {in_flight} in flight{hint}"
        )
        self.reason = reason
        self.queue_depth = queue_depth
        self.max_queue = max_queue
        self.in_flight = in_flight
        self.retry_after_hint = retry_after_hint


class WorkerError(ExecutionError):
    """Base class for errors of the real shared-nothing executor
    (:mod:`repro.parallel.workers`)."""


class WorkerTaskError(WorkerError):
    """A single task failed terminally on a worker: its retry budget is
    exhausted (``attempts`` made) or the worker reported a non-retryable
    error. ``task_id`` names the plan fragment."""

    def __init__(self, task_id: str, attempts: int, message: str):
        super().__init__(
            f"worker task {task_id!r} failed after {attempts} attempt(s): "
            f"{message}"
        )
        self.task_id = task_id
        self.attempts = attempts


class WorkerPoolError(WorkerError):
    """The worker pool itself is unhealthy: too few live workers remain to
    host every partition, or the pool was asked to run after :meth:`close`.
    ``live``/``requested`` describe pool membership at failure time."""

    def __init__(self, message: str, live: int = 0, requested: int = 0):
        super().__init__(message)
        self.live = live
        self.requested = requested


class FaultInjectedError(ReproError):
    """Raised by a deterministic fault-injection point (``REPRO_FAULTS``).

    ``site`` is the injection-point name, ``sequence`` the per-site trigger
    ordinal at which the fault fired -- together with the registry seed they
    identify the fault exactly, making every injected failure reproducible.
    """

    def __init__(self, site: str, sequence: int, detail: str = ""):
        suffix = f" ({detail})" if detail else ""
        super().__init__(
            f"injected fault at {site!r} (trigger #{sequence}){suffix}"
        )
        self.site = site
        self.sequence = sequence
        self.detail = detail
