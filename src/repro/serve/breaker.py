"""Per-strategy circuit breakers for the query service.

A breaker quarantines a decorrelation strategy after ``threshold``
*consecutive* failures (rewrite errors, invariant violations, injected
faults, or execution failures attributed to that strategy), so subsequent
queries degrade straight down the fallback chain without re-paying the
failing rewrite. After ``cooldown`` seconds the breaker admits exactly one
half-open *probe*; a successful probe closes the breaker, a failed one
re-opens it for another cooldown.

States and transitions (the classic three-state machine)::

    CLOSED --[threshold consecutive failures]--> OPEN
    OPEN   --[cooldown elapsed, probe claimed]--> HALF_OPEN
    HALF_OPEN --[probe succeeded]--> CLOSED
    HALF_OPEN --[probe failed]-----> OPEN

An *abandoned* probe (the probing query died before the strategy was
attempted, e.g. it was cancelled) stays HALF_OPEN with the probe slot
freed, so the next ``try_pass`` claims a fresh probe.

All methods are thread-safe; ``clock`` is injectable for deterministic
tests. Every transition is reported through ``on_transition``.

A service holds one :class:`BreakerBoard` -- every breaker, the transition
list (``service.stats().breaker_transitions``) and the shared ``threshold``
/ ``cooldown`` / ``clock`` -- and gives each query an :class:`Attempt`:
the veto hook the rewrite engine consults, and the one place the query's
outcome is booked to the strategies it says something about.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from ..errors import (
    BindError,
    BudgetExceeded,
    CatalogError,
    QueryCancelled,
    ReproError,
    SQLError,
)

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: The strategy of last resort: nothing follows it in the fallback chain,
#: so its breaker never blocks.
LAST_RESORT = "ni"
#: ``error_type`` of a degradation whose strategy was *vetoed* (by an open
#: breaker or a brownout), not attempted: it says nothing about health.
VETOED = "CircuitBreakerOpen"
#: Errors that say nothing about the strategy whose plan was running: a
#: budget or a cancel is the caller's, and a statement error (syntax,
#: binding, unknown table) fails identically under every strategy.
_NOT_THE_STRATEGY = (
    BudgetExceeded, QueryCancelled, SQLError, BindError, CatalogError,
)


@dataclass(frozen=True)
class BreakerTransition:
    """One state change of one strategy's breaker."""

    strategy: str
    from_state: str
    to_state: str
    reason: str

    def __str__(self) -> str:  # pragma: no cover - display helper
        return (
            f"breaker[{self.strategy}] {self.from_state} -> {self.to_state}"
            f" ({self.reason})"
        )


class CircuitBreaker:
    """The three-state breaker guarding one strategy.

    :meth:`try_pass` is consulted *before* a rewrite attempt (via the
    engine's ``disabled`` hook); :meth:`record_success` /
    :meth:`record_failure` report the attempt's outcome;
    :meth:`release_probe` returns an unresolved half-open probe (e.g. the
    probing query was cancelled before its rewrite finished) so the next
    caller can claim a fresh one.
    """

    def __init__(
        self,
        strategy: str,
        threshold: int = 5,
        cooldown: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Optional[Callable[[BreakerTransition], None]] = None,
    ):
        if threshold < 1:
            raise ValueError("breaker threshold must be >= 1")
        self.strategy = strategy
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock
        self._on_transition = on_transition
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_inflight = False

    # -- observation -------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def snapshot(self) -> dict:
        """State + counters as a plain dict (for ``service.stats()``)."""
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "probe_inflight": self._probe_inflight,
            }

    # -- transitions -------------------------------------------------------

    def _transition(self, to_state: str, reason: str) -> None:
        """Move to ``to_state`` (caller holds the lock)."""
        event = BreakerTransition(self.strategy, self._state, to_state, reason)
        self._state = to_state
        if self._on_transition is not None:
            self._on_transition(event)

    def try_pass(self) -> tuple[Optional[str], bool]:
        """May a query attempt this strategy right now?

        Returns ``(block_reason, claimed_probe)``: ``block_reason`` is
        ``None`` when the attempt may proceed (closed, or this caller just
        claimed the half-open probe, in which case ``claimed_probe`` is
        True and the caller MUST later resolve it via ``record_success``,
        ``record_failure`` or ``release_probe``), else a human-readable
        reason the strategy is quarantined.
        """
        with self._lock:
            if self._state == CLOSED:
                return None, False
            if self._state == OPEN:
                if self._clock() - self._opened_at < self.cooldown:
                    return (
                        f"circuit open for {self.strategy!r} "
                        f"({self._consecutive_failures} consecutive failures)",
                        False,
                    )
                self._transition(HALF_OPEN, "cooldown elapsed, probing")
                self._probe_inflight = True
                return None, True
            # HALF_OPEN
            if self._probe_inflight:
                return (
                    f"circuit half-open for {self.strategy!r}, probe in flight",
                    False,
                )
            self._probe_inflight = True
            return None, True

    def record_success(self) -> None:
        """An attempt with this strategy succeeded."""
        with self._lock:
            if self._state == HALF_OPEN:
                self._probe_inflight = False
                self._consecutive_failures = 0
                self._transition(CLOSED, "probe succeeded")
            elif self._state == CLOSED:
                self._consecutive_failures = 0
            # OPEN: a straggler that passed before the breaker opened;
            # ignored -- recovery goes through the half-open probe.

    def record_failure(self, reason: str = "") -> None:
        """An attempt with this strategy failed."""
        with self._lock:
            if self._state == HALF_OPEN:
                self._probe_inflight = False
                self._consecutive_failures += 1
                self._opened_at = self._clock()
                self._transition(OPEN, reason or "probe failed")
            elif self._state == CLOSED:
                self._consecutive_failures += 1
                if self._consecutive_failures >= self.threshold:
                    self._opened_at = self._clock()
                    self._transition(
                        OPEN,
                        reason
                        or f"{self._consecutive_failures} consecutive failures",
                    )
            # OPEN: stragglers don't extend the cooldown.

    def release_probe(self) -> None:
        """Return an unresolved half-open probe without an outcome."""
        with self._lock:
            if self._state == HALF_OPEN and self._probe_inflight:
                self._probe_inflight = False


class BreakerBoard:
    """One service's strategy health: every :class:`CircuitBreaker`
    (created when its strategy is first consulted), their transitions and
    the ``threshold`` / ``cooldown`` / ``clock`` they share. ``events`` (an
    :class:`~repro.obs.events.EventLog`) gets one ``breaker.transition``
    per state change."""

    def __init__(self, threshold: int, cooldown: float, clock, events=None):
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock
        self._events = events
        self._lock = threading.Lock()
        self._breakers: dict[str, CircuitBreaker] = {}
        #: Every transition so far, oldest first.
        self.transitions: list[BreakerTransition] = []

    def breaker(self, strategy: str) -> CircuitBreaker:
        breaker = self._breakers.get(strategy)  # no lock once it exists
        if breaker is None:
            with self._lock:
                breaker = self._breakers.setdefault(strategy, CircuitBreaker(
                    strategy, self.threshold, self.cooldown, self._clock,
                    on_transition=self._record,
                ))
        return breaker

    def _record(self, event: BreakerTransition) -> None:
        # Called with the breaker's lock held; appending to a list is
        # atomic, so no extra lock here. The event log's lock is a leaf
        # (it never takes another lock), so emitting under the breaker
        # lock is safe.
        self.transitions.append(event)
        if self._events is not None:
            self._events.emit(
                "breaker.transition",
                strategy=event.strategy,
                from_state=event.from_state,
                to_state=event.to_state,
                reason=event.reason,
            )

    def snapshot(self) -> dict:
        """Every consulted strategy's :meth:`CircuitBreaker.snapshot`."""
        return {
            key: breaker.snapshot()
            for key, breaker in list(self._breakers.items())
        }

    def attempt(self, requested: str, forced: Optional[str] = None) -> "Attempt":
        return Attempt(self, requested, forced)


class Attempt:
    """What one query may do to strategy health: veto, settle, release.
    ``requested`` is the strategy it asked for; ``forced`` (brownout level
    3) vetoes every other but the last resort."""

    def __init__(self, board: BreakerBoard, requested: str, forced=None):
        self._board = board
        self.requested = requested
        self.forced = forced
        self._probes: list[str] = []  # half-open probes this attempt holds

    def disabled(self, key: str) -> Optional[str]:
        """The rewrite engine's veto hook: a reason to skip ``key``, or
        ``None`` to attempt it. A half-open probe claimed here is this
        attempt's to resolve (:meth:`settle`) or give back."""
        if key == LAST_RESORT or key in self._probes:
            return None
        if self.forced is not None and key != self.forced:
            # Recorded as a VETOED degradation, which settle() skips: a
            # brownout must not poison strategy health.
            return f"brownout: forcing cheapest strategy {self.forced!r}"
        reason, probe = self._board.breaker(key).try_pass()
        if probe:
            self._probes.append(key)
        return reason

    def settle(self, degradations: Iterable, error=None) -> None:
        """Book the query's outcome from its own chain --
        ``Result.degradations``, or the one its ``error`` carried. Every
        strategy that *failed* on the way down takes a failure; the one
        whose plan then ran takes a success, or a failure when ``error``
        is about that plan: not a budget, a cancel or a statement error,
        and not the chain running out (its last entry is already booked).
        Probes still unresolved are released."""
        board, ran, resolved = self._board, self.requested, set()
        for event in degradations:
            if event.error_type != VETOED:
                board.breaker(event.attempted).record_failure(
                    f"{event.error_type}: {event.message}"
                )
                resolved.add(event.attempted)
            ran = event.fallback  # "" once the chain ran out
        if ran and error is None:
            board.breaker(ran).record_success()
            resolved.add(ran)
        elif ran and isinstance(error, ReproError) and not isinstance(
            error, _NOT_THE_STRATEGY
        ):
            board.breaker(ran).record_failure(f"{type(error).__name__}: {error}")
            resolved.add(ran)
        self._probes = [key for key in self._probes if key not in resolved]
        self.release()

    def release(self) -> None:
        """Give back the probes this attempt still holds (the query died
        before the probed strategy was attempted)."""
        for key in self._probes:
            self._board.breaker(key).release_probe()
        self._probes.clear()
