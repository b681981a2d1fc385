"""Execution guardrails: resource budgets and cooperative cancellation.

Section 6 of the paper shows how nested iteration can silently turn into
O(n^2) work; a production-shaped engine must be able to *bound* that work
rather than discover it after the fact. :class:`Limits` declares budgets
(wall-clock, rows scanned, rows materialized, subquery invocations);
:class:`ExecutionGuard` enforces them cooperatively -- the executor calls
:meth:`ExecutionGuard.check` at step granularity, so a trip is observed
within one executor step of the limit being crossed.

Budgets trip as typed errors (:class:`~repro.errors.BudgetExceeded`,
:class:`~repro.errors.QueryCancelled`) carrying a snapshot of the
:class:`~repro.exec.metrics.Metrics` at trip time.

The default (``limits=None``) is zero-overhead: no guard object exists and
the executor's fast path performs a single ``is None`` test per step.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import BudgetExceeded, QueryCancelled
from .exec.metrics import Metrics


@dataclass(frozen=True)
class Limits:
    """Resource budgets for one query execution. ``None`` = unlimited.

    ``timeout`` is wall-clock seconds; the row budgets bound the engine's
    own work counters (see :class:`~repro.exec.metrics.Metrics`).
    """

    timeout: Optional[float] = None
    max_rows_scanned: Optional[int] = None
    max_rows_materialized: Optional[int] = None
    max_subquery_invocations: Optional[int] = None


class ExecutionGuard:
    """Cooperative budget checker threaded through the executor.

    The guard holds the :class:`Limits` plus a reference to the live
    ``Metrics`` being accumulated (attached by the execution context).
    ``check()`` raises :class:`~repro.errors.BudgetExceeded` when any
    counter passed its budget, or :class:`~repro.errors.QueryCancelled`
    after :meth:`cancel` was called (e.g. from another thread).

    ``clock`` is injectable for deterministic timeout tests.

    Concurrency contract: :meth:`cancel` is safe to call from any thread
    and is the *only* cross-thread entry point -- it flips a single boolean
    flag (an atomic store under the GIL), which the executing thread
    observes at its next :meth:`check`, i.e. within one executor step.
    The deadline is fixed at construction time (``clock() + timeout``), so
    a guard built when a query is *submitted* to a service charges queue
    wait time against the deadline too; everything else on the guard is
    owned by the executing thread.
    """

    def __init__(
        self,
        limits: Limits,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.limits = limits
        self.metrics = None
        self._clock = clock
        self._deadline: Optional[float] = (
            None if limits.timeout is None else clock() + limits.timeout
        )
        self._cancelled = False
        #: The error this guard tripped with, if any (set by ``check``).
        self.tripped = None
        #: Optional :class:`repro.obs.events.EventLog`: a budget trip emits
        #: a ``guard.budget_exceeded`` event (attributed to the executing
        #: thread's query scope). ``None`` adds no overhead.
        self.events = None

    # -- wiring ------------------------------------------------------------

    def attach(self, metrics) -> None:
        """Bind the live metrics object counters are read from."""
        self.metrics = metrics

    def absorb(self, delta: Optional[Metrics]) -> None:
        """Fold a remote worker's :class:`Metrics` delta into the attached
        metrics and re-check every budget.

        The real shared-nothing executor accumulates work on *worker
        processes*; the coordinator's guard only learns about it when a
        result message arrives. ``absorb`` merges the delta with
        ``Metrics.__add__`` (sums for counters, max for peaks) while
        keeping the attached object's identity -- anything else holding a
        reference to it (an execution context, a stats exporter) sees the
        merged totals -- then runs :meth:`check` so a budget crossed by
        remote work trips within one exchange round.
        """
        if delta is None:
            return
        if self.metrics is None:
            self.attach(Metrics())
        merged = self.metrics + delta
        for field in dataclasses.fields(merged):
            setattr(self.metrics, field.name, getattr(merged, field.name))
        self.check()

    def cancel(self) -> None:
        """Request cooperative cancellation; the running query observes it
        at its next ``check()`` (one executor step at most)."""
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        """Has cancellation been requested?"""
        return self._cancelled

    def remaining(self) -> Optional[float]:
        """Seconds until the deadline (``None`` when no timeout is set;
        never negative). Service schedulers use this for queue triage."""
        if self._deadline is None:
            return None
        return max(0.0, self._deadline - self._clock())

    @property
    def deadline(self) -> Optional[float]:
        """The absolute deadline on this guard's clock (``None`` when no
        timeout is set). Fixed at construction -- see the class doc."""
        return self._deadline

    def expired(self) -> bool:
        """Has the deadline passed (without raising)?

        The same comparison :meth:`check` trips on, exposed as a
        predicate so the query service can *eagerly* evict tickets that
        expired while queued -- freeing the slot without a worker dequeue
        and without consuming the guard's trip state.
        """
        return self._deadline is not None and self._clock() > self._deadline

    # -- enforcement -------------------------------------------------------

    def _snapshot(self):
        if self.metrics is None:
            # Tripped before execution began (cancelled or expired while
            # queued): an all-zero snapshot, meaning "no work was done".
            return Metrics()
        return dataclasses.replace(self.metrics)

    def _trip(self, error) -> None:
        self.tripped = error
        if self.events is not None and isinstance(error, BudgetExceeded):
            self.events.emit(
                "guard.budget_exceeded",
                budget=error.budget,
                limit=error.limit,
                observed=error.observed,
            )
        raise error

    def check(self) -> None:
        """Raise the appropriate typed error if any budget is exhausted.

        Called by the executor at step granularity; cheap when nothing
        tripped (a handful of compares).
        """
        if self._cancelled:
            self._trip(QueryCancelled(metrics=self._snapshot()))
        if self._deadline is not None and self._clock() > self._deadline:
            self._trip(
                BudgetExceeded(
                    "timeout",
                    self.limits.timeout,
                    round(
                        self._clock() - (self._deadline - self.limits.timeout), 6
                    ),
                    metrics=self._snapshot(),
                )
            )
        metrics = self.metrics
        if metrics is None:
            return
        limits = self.limits
        if (
            limits.max_rows_scanned is not None
            and metrics.rows_scanned > limits.max_rows_scanned
        ):
            self._trip(
                BudgetExceeded(
                    "max_rows_scanned",
                    limits.max_rows_scanned,
                    metrics.rows_scanned,
                    metrics=self._snapshot(),
                )
            )
        if (
            limits.max_rows_materialized is not None
            and metrics.peak_rows_materialized > limits.max_rows_materialized
        ):
            # The budget bounds *memory*: the high-water mark of live
            # materialised rows, not the cumulative write count (a query
            # that builds and frees ten small hash tables should not trip
            # a budget sized for its largest one).
            self._trip(
                BudgetExceeded(
                    "max_rows_materialized",
                    limits.max_rows_materialized,
                    metrics.peak_rows_materialized,
                    metrics=self._snapshot(),
                )
            )
        if (
            limits.max_subquery_invocations is not None
            and metrics.subquery_invocations > limits.max_subquery_invocations
        ):
            self._trip(
                BudgetExceeded(
                    "max_subquery_invocations",
                    limits.max_subquery_invocations,
                    metrics.subquery_invocations,
                    metrics=self._snapshot(),
                )
            )


def guard_for(
    limits: Optional[Limits],
    clock: Callable[[], float] = time.monotonic,
) -> Optional[ExecutionGuard]:
    """An :class:`ExecutionGuard` for ``limits``, or ``None`` when no limits
    were given (the zero-overhead default)."""
    if limits is None:
        return None
    return ExecutionGuard(limits, clock=clock)
