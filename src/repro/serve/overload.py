"""Adaptive overload control: admission estimates, shedding, brownout.

The paper's thesis is that set-oriented rewrites keep *work proportional
to the answer* rather than to the offered load; this module applies the
same discipline to the serving layer. Under overload a FIFO service
wastes workers in two ways: it executes queries whose deadline already
cannot be met (futile work), and it lets expired tickets squat in queue
slots. The primitives here let :class:`~repro.serve.service.QueryService`
spend workers only on queries that can still finish:

* :func:`fingerprint` -- a stable hash of the *shape* of a query
  (literals stripped, whitespace collapsed), the key under which service
  times are learned;
* :class:`ServiceTimeEstimator` -- per-(fingerprint, strategy) EMAs of
  execution time, the cost model behind deadline-aware admission and the
  brownout ladder's cheapest-strategy rung (the serving-layer echo of
  the paper's cost-guided strategy selection);
* :class:`BrownoutController` -- a degradation ladder stepping through
  configured rungs at sustained high utilization, with hysteresis on an
  injectable clock so it never flaps;
* :class:`OverloadConfig` -- the knob bundle wiring all of it into the
  service (``overload=None`` keeps the seed FIFO behaviour exactly);
* :class:`FifoPolicy` / :class:`AdaptivePolicy` -- the one admission-policy
  surface the service calls at every point where overload control has a
  say. The service holds exactly one (:func:`admission_policy`) and never
  asks which: ``overload=None`` *is* the FIFO policy.

None of these classes take locks: the service mutates them inside its
own critical section (they are documented as externally synchronized),
keeping the §9 lock order flat.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Optional

from ..guard import Limits

from ..plan.cache import fingerprint, normalize_sql  # noqa: F401 -- re-export

#: Priority classes, best first; rank = index (lower is better).
PRIORITIES: tuple[str, ...] = ("high", "normal", "low")

_PRIORITY_RANK = {name: rank for rank, name in enumerate(PRIORITIES)}


def priority_rank(priority: str) -> int:
    """The scheduling rank of a priority class (0 = most important);
    raises ``ValueError`` on an unknown class."""
    try:
        return _PRIORITY_RANK[priority]
    except KeyError:
        raise ValueError(
            f"unknown priority {priority!r}; choose from {PRIORITIES}"
        ) from None


# -- query shape fingerprint --------------------------------------------------
# ``normalize_sql`` / ``fingerprint`` live in :mod:`repro.plan.cache` now
# (the plan cache keys on the same shape); re-exported above so existing
# imports keep working.

# -- service-time estimation --------------------------------------------------

class ServiceTimeEstimator:
    """Exponentially-weighted service-time estimates per query shape.

    Keys are ``(fingerprint, strategy)``; a per-shape aggregate and a
    global aggregate back the lookup chain, so a cold (shape, strategy)
    pair still gets an order-of-magnitude answer from its shape or, at
    worst, from the service-wide mean. Observations are *execution*
    seconds (dequeue to finish), never queue wait -- queue wait is what
    admission predicts *from* these numbers.

    Not thread-safe: the owning service mutates it under its own lock.
    """

    #: EMA weight of the newest observation.
    ALPHA = 0.2
    #: LRU bound on each of the key and shape tables.
    MAX_SHAPES = 4096

    def __init__(self):
        #: (fingerprint, strategy) -> EMA seconds (LRU-bounded).
        self._by_key: OrderedDict[tuple[str, str], float] = OrderedDict()
        #: fingerprint -> EMA seconds across strategies.
        self._by_shape: OrderedDict[str, float] = OrderedDict()
        self._global: Optional[float] = None
        self.observations = 0

    def _bump(self, table: OrderedDict, key, seconds: float) -> None:
        previous = table.pop(key, None)
        table[key] = (
            seconds if previous is None
            else self.ALPHA * seconds + (1.0 - self.ALPHA) * previous
        )
        while len(table) > self.MAX_SHAPES:
            table.popitem(last=False)

    def observe(self, fp: str, strategy: str, seconds: float) -> None:
        """Fold one measured execution time into the EMAs."""
        if seconds < 0:
            return
        self._bump(self._by_key, (fp, strategy), seconds)
        self._bump(self._by_shape, fp, seconds)
        self._global = (
            seconds if self._global is None
            else self.ALPHA * seconds + (1.0 - self.ALPHA) * self._global
        )
        self.observations += 1

    def estimate(self, fp: str, strategy: str) -> Optional[float]:
        """Best available estimate for (shape, strategy): exact key,
        then the shape aggregate, then the global mean, else ``None``
        (a cold estimator must offer no number rather than a made-up
        one). Reads refresh LRU recency -- a hot shape that is only ever
        *read* (admission checks) must not be evicted by a flood of
        one-off shapes that are merely observed."""
        value = self._by_key.get((fp, strategy))
        if value is not None:
            self._by_key.move_to_end((fp, strategy))
            return value
        value = self._by_shape.get(fp)
        if value is not None:
            self._by_shape.move_to_end(fp)
            return value
        return self._global

    def global_mean(self) -> Optional[float]:
        """The service-wide execution-time EMA (``None`` until the first
        observation)."""
        return self._global

    def cheapest(self, fp: str, candidates) -> Optional[str]:
        """The candidate strategy with the lowest learned estimate for
        this shape; ``None`` when no candidate has history (forcing a
        strategy without evidence would be a guess, not a measurement)."""
        best: Optional[str] = None
        best_cost: Optional[float] = None
        for key in candidates:
            cost = self._by_key.get((fp, key))
            if cost is None:
                continue
            self._by_key.move_to_end((fp, key))  # reads refresh recency
            if best_cost is None or cost < best_cost:
                best, best_cost = key, cost
        return best

    def as_dict(self) -> dict:
        """A JSON-ready summary (shape count, global mean, observations)."""
        return {
            "shapes": len(self._by_shape),
            "keys": len(self._by_key),
            "observations": self.observations,
            "global_mean_ms": (
                round(self._global * 1000, 3)
                if self._global is not None else None
            ),
        }


# -- the brownout degradation ladder ------------------------------------------

#: What each brownout rung switches off (rung N applies all effects of
#: rungs 1..N). Documented here; enforced by the service.
BROWNOUT_RUNGS: tuple[str, ...] = (
    "normal",                 # level 0: everything on
    "shed observability",     # level 1: tracing + slow-query capture off
    "tighten budgets",        # level 2: Limits budgets scaled down
    "force cheapest strategy",  # level 3: rewrite veto -> cheapest plan
)


class BrownoutController:
    """The degradation ladder: utilization in, brownout level out.

    Steps *down* (level += 1) after utilization has stayed at or above
    :attr:`HIGH_WATERMARK` for ``dwell_s`` seconds; steps *up* (level -= 1)
    after it has stayed at or below :attr:`LOW_WATERMARK` for
    ``cooldown_s`` seconds. The gap between the watermarks plus the two
    dwell times is the hysteresis -- a service oscillating around one
    threshold never flaps the ladder. All time comes from the caller's
    clock readings; one level per transition, so recovery is as gradual
    as degradation.

    Externally synchronized (see module doc).
    """

    #: Utilization (backlog per worker) that starts the dwell / cooldown.
    HIGH_WATERMARK = 0.85
    LOW_WATERMARK = 0.5

    def __init__(
        self,
        dwell_s: float = 0.5,
        cooldown_s: float = 2.0,
        max_level: int = len(BROWNOUT_RUNGS) - 1,
    ):
        if dwell_s < 0 or cooldown_s < 0:
            raise ValueError("dwell_s and cooldown_s must be >= 0")
        if not 0 <= max_level <= len(BROWNOUT_RUNGS) - 1:
            raise ValueError(
                f"max_level must be in [0, {len(BROWNOUT_RUNGS) - 1}]"
            )
        self.dwell_s = dwell_s
        self.cooldown_s = cooldown_s
        self.max_level = max_level
        self.level = 0
        #: When utilization first crossed the high/low watermark and
        #: stayed there (None = not currently across it).
        self._high_since: Optional[float] = None
        self._low_since: Optional[float] = None

    def observe(
        self, utilization: float, now: float
    ) -> Optional[tuple[int, int]]:
        """Feed one utilization sample; returns ``(old, new)`` when the
        ladder stepped, else ``None``."""
        if utilization >= self.HIGH_WATERMARK:
            self._low_since = None
            if self._high_since is None:
                self._high_since = now
            if (
                self.level < self.max_level
                and now - self._high_since >= self.dwell_s
            ):
                old = self.level
                self.level += 1
                self._high_since = now  # re-dwell before the next rung
                return old, self.level
            return None
        self._high_since = None
        if utilization <= self.LOW_WATERMARK:
            if self._low_since is None:
                self._low_since = now
            if (
                self.level > 0
                and now - self._low_since >= self.cooldown_s
            ):
                old = self.level
                self.level -= 1
                self._low_since = now  # re-cool before the next rung
                return old, self.level
            return None
        # Between the watermarks: hold the level, reset both timers.
        self._low_since = None
        return None

    @property
    def tightening_budgets(self) -> bool:
        """Level >= 2: per-query Limits budgets are scaled down."""
        return self.level >= 2

    @property
    def forcing_cheapest(self) -> bool:
        """Level >= 3: the rewrite veto forces the cheapest strategy."""
        return self.level >= 3


# -- configuration ------------------------------------------------------------

@dataclass(frozen=True)
class OverloadConfig:
    """Knobs for the service's adaptive overload control.

    Passing an instance to ``QueryService(overload=...)`` turns the
    whole layer on; ``overload=None`` (the default) preserves the seed
    FIFO behaviour bit for bit. Deadline-aware admission, eager expiry
    and priority shedding are always on; the knobs below are the ones a
    caller tunes.
    """

    #: Per-class queue quota as a fraction of ``max_queue``; classes
    #: absent from the map are unrestricted. Low-priority work may fill
    #: only half the queue by default, so a low-priority flood can never
    #: starve the classes above it.
    class_quotas: dict = field(
        default_factory=lambda: {"low": 0.5, "normal": 0.9}
    )
    #: Brownout ladder (see :class:`BrownoutController`); max_level 0
    #: disables stepping entirely.
    brownout_dwell_s: float = 0.5
    brownout_cooldown_s: float = 2.0
    brownout_max_level: int = len(BROWNOUT_RUNGS) - 1

    def quota_for(self, priority: str, max_queue: int) -> Optional[int]:
        """The queued-ticket cap for ``priority`` (``None`` =
        unrestricted). A fractional quota rounds *up* so a tiny queue
        still admits at least one ticket of a capped class when the
        fraction is nonzero."""
        fraction = self.class_quotas.get(priority)
        if fraction is None:
            return None
        return math.ceil(max_queue * fraction)


# -- the admission policy -----------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    """One arrival decided; the defaults admit. ``refuse`` is the reason
    it is turned away (``hint`` its ``retry_after_hint``, ``marker`` an
    overload-specific ``(kind, payload)`` event emitted beside
    ``query.rejected``); ``shed`` is the queued ticket evicted to make
    room -- already out of the queue, ``hint`` the backoff its client is
    told."""

    refuse: Optional[str] = None
    hint: Optional[float] = None
    marker: Optional[tuple[str, dict]] = None
    shed: Any = None


ADMIT = Verdict()


class FifoPolicy:
    """Plain admission, first come first served: what ``overload=None``
    means, and the whole policy surface -- the service calls these nine
    methods and reads ``level`` unconditionally. Externally synchronized:
    all but :meth:`fingerprint` run inside the service's critical
    section, on the service's own queue."""

    #: Current brownout ladder level (see :data:`BROWNOUT_RUNGS`).
    level = 0

    def __init__(self, workers: int, max_queue: int):
        self.workers = workers
        self.max_queue = max_queue
        #: Exponentially-weighted mean query latency (seconds); drives the
        #: ``retry_after_hint`` on queue-full rejections. None until the
        #: first completion -- with no data, rejections carry no hint.
        self._latency_ema: Optional[float] = None

    def fingerprint(self, sql: str) -> str:
        """The shape key of ``sql`` (called outside the lock)."""
        return ""

    def admit(
        self, queue, in_flight: int, fp: str, strategy: str, rank: int,
        deadline: Optional[float],
    ) -> Verdict:
        """Total-capacity rule: admit while admitted-but-unfinished
        work fits in ``workers + max_queue``.  (Queue depth alone
        would make ``max_queue=0`` unusable even with idle workers.)
        Caller holds the lock."""
        if in_flight + len(queue) < self.workers + self.max_queue:
            return ADMIT
        return Verdict("queue full", self._retry_hint(queue, in_flight))

    def _retry_hint(self, queue, in_flight: int) -> Optional[float]:
        """The backoff estimate attached to a queue-full rejection: a
        full service clears roughly ``workers`` queries per mean latency,
        so one slot frees after about ``ema * (depth + 1) / workers``
        seconds. Deliberately rough -- the point is to replace a client's
        blind hot-loop with a back-off on the right order of magnitude.
        ``None`` before the first completion (no data, no hint)."""
        if self._latency_ema is None:
            return None
        return round(
            self._latency_ema * (len(queue) + 1) / self.workers, 6
        )

    def budget(self, limits: Limits) -> Limits:
        """The budgets an admitted ticket runs under."""
        return limits

    def enqueue(self, queue, ticket) -> None:
        """Queue an admitted ticket. Caller holds the lock."""
        queue.append(ticket)

    def expire(self, queue) -> list:
        """Take the tickets to evict as ``expired_in_queue`` out of the
        queue. Caller holds the lock."""
        return []

    def dequeued(self, ticket) -> None:
        """A worker picked ``ticket`` up. Caller holds the lock."""

    def observe(self, load: int, now: float) -> Optional[dict]:
        """One pressure sample (``load`` admitted-but-unfinished
        tickets); the brownout transition record when the ladder
        stepped. Caller holds the lock."""
        return None

    def finished(self, ticket, completed: bool) -> None:
        """A ticket that ran has its latency. Caller holds the lock."""
        self._latency_ema = (
            ticket.latency if self._latency_ema is None
            else 0.2 * ticket.latency + 0.8 * self._latency_ema
        )

    def stats(self) -> dict:
        """The :class:`~repro.serve.service.ServiceStats` fields this
        policy fills (the others keep their zeros). Caller holds the
        lock."""
        return {}


class AdaptivePolicy(FifoPolicy):
    """Adaptive overload control, built from an :class:`OverloadConfig`.
    Owns what the mechanisms learn and count: estimator, brownout ladder
    and its transitions, the class quotas with the per-rank census of the
    queue, and the counters of its own decisions.
    A ticket it takes out of the queue is counted here, where queue and
    census change, and handed back to the service to settle in the same
    critical section."""

    #: Budget scale applied at the tighten-budgets rung (level >= 2).
    LIMIT_SCALE = 0.5

    def __init__(self, config: OverloadConfig, workers: int, max_queue: int):
        super().__init__(workers, max_queue)
        self.estimator = ServiceTimeEstimator()
        self.brownout = BrownoutController(
            dwell_s=config.brownout_dwell_s,
            cooldown_s=config.brownout_cooldown_s,
            max_level=config.brownout_max_level,
        )
        self._quotas = [
            config.quota_for(priority, max_queue)
            for priority in PRIORITIES  # indexed by rank
        ]
        self._queued_by_rank = [0, 0, 0]
        #: Its own decisions, by :class:`ServiceStats` field.
        self.counts = dict.fromkeys(
            ("rejected_futile", "shed", "expired_in_queue"), 0,
        )
        self.transitions: list[dict] = []

    @property
    def level(self) -> int:
        return self.brownout.level

    def fingerprint(self, sql: str) -> str:
        return fingerprint(sql)

    def admit(
        self, queue, in_flight: int, fp: str, strategy: str, rank: int,
        deadline: Optional[float],
    ) -> Verdict:
        """Overload control, in order: refuse provably-futile work,
        enforce class quotas -- then the capacity rule, with priority
        shedding as the last resort before rejection. Caller holds the
        lock."""
        load = in_flight + len(queue)
        # Futility rejection only pays when the arrival would contend
        # for a worker: with idle capacity, executing a doomed-looking
        # query costs nothing (the estimate may be wrong; an idle worker
        # is wrong for sure).
        if deadline is not None and load >= self.workers:
            # No rejection while the estimator is cold (no evidence).
            estimate = self.estimator.estimate(fp, strategy)
            if estimate is not None:
                wait = self._backlog_seconds(queue, in_flight) / self.workers
                if wait + estimate > deadline:
                    self.counts["rejected_futile"] += 1
                    return Verdict(
                        "deadline unmeetable",
                        round(wait, 6) if wait > 0 else None,
                        ("overload.futile", {
                            "predicted_ms": round((wait + estimate) * 1000, 3),
                            "deadline_ms": round(deadline * 1000, 3),
                        }),
                    )
        quota = self._quotas[rank]
        if (
            quota is not None
            and load >= self.workers
            and self._queued_by_rank[rank] >= quota
        ):
            return Verdict("class quota", self._retry_hint(queue, in_flight))
        if load < self.workers + self.max_queue:
            return ADMIT
        if queue and queue[-1].rank > rank:
            # The queue is priority-ordered (FIFO within class),
            # so its tail is the newest lowest-priority ticket.
            victim = queue.pop()
            self._queued_by_rank[victim.rank] -= 1
            self.counts["shed"] += 1
            return Verdict(
                hint=self._retry_hint(queue, in_flight), shed=victim
            )
        return Verdict("queue full", self._retry_hint(queue, in_flight))

    def _backlog_seconds(self, queue, in_flight: int) -> float:
        """Estimated seconds of work already admitted: per-shape
        estimates for every queued ticket (global mean for cold shapes)
        plus half a mean per in-flight query (in expectation, running
        work is half done)."""
        mean = self.estimator.global_mean() or 0.0
        queued = 0.0
        for ticket in queue:
            estimate = self.estimator.estimate(
                ticket.fingerprint, ticket.strategy
            )
            queued += estimate if estimate is not None else mean
        return queued + 0.5 * mean * in_flight

    def _retry_hint(self, queue, in_flight: int) -> Optional[float]:
        """With a warm estimator, the predicted time for the current
        backlog to clear one slot (per-shape estimates for queued work,
        half a mean for each in-flight query); the latency-EMA estimate
        until then."""
        mean = self.estimator.global_mean()
        if mean is None:
            return super()._retry_hint(queue, in_flight)
        backlog = self._backlog_seconds(queue, in_flight)
        return round((backlog + mean) / self.workers, 6)

    def budget(self, limits: Limits) -> Limits:
        """The tighten-budgets brownout rung: scale the row/invocation
        budgets by :attr:`LIMIT_SCALE`. The timeout is *not*
        scaled -- the deadline is the client's contract, and shrinking it
        here would corrupt the futility test's arithmetic."""
        if not self.brownout.tightening_budgets:
            return limits
        scale = self.LIMIT_SCALE

        def scaled(value: Optional[int]) -> Optional[int]:
            return None if value is None else max(1, int(value * scale))

        return Limits(
            timeout=limits.timeout,
            max_rows_scanned=scaled(limits.max_rows_scanned),
            max_rows_materialized=scaled(limits.max_rows_materialized),
            max_subquery_invocations=scaled(
                limits.max_subquery_invocations
            ),
        )

    def enqueue(self, queue, ticket) -> None:
        """Priority order (rank ascending) with FIFO stability inside
        each class -- the insert walks from the tail, so same-rank
        traffic stays O(1). Caller holds the lock."""
        if not queue or queue[-1].rank <= ticket.rank:
            queue.append(ticket)
        else:
            index = len(queue)
            while index > 0 and queue[index - 1].rank > ticket.rank:
                index -= 1
            queue.insert(index, ticket)
        self._queued_by_rank[ticket.rank] += 1

    def expire(self, queue) -> list:
        """Eagerly evict queued tickets whose deadline already passed
        (``expired_in_queue`` outcome) -- the slot frees without a worker
        dequeue and without burning any execution on a dead query.

        Cancelled tickets are left for the workers: they must resolve as
        ``cancelled`` (the ``close(drain=False)`` contract), not as
        expired, even when their deadline also lapsed. Caller holds the
        lock."""
        if not queue:
            return []
        expired = [
            ticket for ticket in queue
            if not ticket.guard.cancelled and ticket.guard.expired()
        ]
        if expired:
            dead = set(id(ticket) for ticket in expired)
            alive = [ticket for ticket in queue if id(ticket) not in dead]
            queue.clear()
            queue.extend(alive)
            for ticket in expired:
                self._queued_by_rank[ticket.rank] -= 1
            self.counts["expired_in_queue"] += len(expired)
        return expired

    def dequeued(self, ticket) -> None:
        """Snapshot the ladder at dequeue: the whole run uses one
        consistent level, however the ladder moves. Caller holds the
        lock."""
        self._queued_by_rank[ticket.rank] -= 1
        ticket.brownout_level = self.brownout.level
        if self.brownout.forcing_cheapest:
            # Among magic, the strategy of last resort and the one asked
            # for; magic when none of them has history for this shape.
            ticket.forced_strategy = (
                self.estimator.cheapest(
                    ticket.fingerprint, ("magic", "ni", ticket.strategy)
                )
                or "magic"
            )

    def observe(self, load: int, now: float) -> Optional[dict]:
        """Feed current utilization to the brownout ladder; record and
        return a transition when it steps. Caller holds the lock."""
        # Pressure = admitted-but-unfinished work per worker: 1.0 means
        # every worker is spoken for, above 1.0 there is queue backlog
        # on top. Queue fill against max_queue would be blind here --
        # admission control deliberately keeps the queue short, so the
        # overload it is busy managing would never register.
        utilization = load / self.workers
        step = self.brownout.observe(utilization, now)
        if step is None:
            return None
        old, new = step
        record = {
            "from": old,
            "to": new,
            "direction": "down" if new > old else "up",
            "utilization": round(utilization, 4),
            "rung": BROWNOUT_RUNGS[new],
        }
        self.transitions.append(record)
        return record

    def finished(self, ticket, completed: bool) -> None:
        """Learn *execution* time (dequeue to finish) under the requested
        strategy; queue wait is what admission predicts from these
        numbers, so it must not pollute them. Failed runs are truncated
        by their trip point and would bias the estimate low. Caller
        holds the lock."""
        super().finished(ticket, completed)
        if completed:
            self.estimator.observe(
                ticket.fingerprint,
                ticket.strategy,
                max(
                    0.0,
                    ticket.submitted_at + ticket.latency - ticket.started_at,
                ),
            )

    def stats(self) -> dict:
        """The counters above plus the estimator summary. Caller holds
        the lock."""
        return {
            **self.counts,
            "brownout_level": self.brownout.level,
            "brownout_transitions": list(self.transitions),
            "overload": {"estimator": self.estimator.as_dict()},
        }


def admission_policy(
    config: Optional[OverloadConfig], workers: int, max_queue: int
) -> FifoPolicy:
    """The one policy a service runs: FIFO for ``overload=None``."""
    if config is None:
        return FifoPolicy(workers, max_queue)
    return AdaptivePolicy(config, workers, max_queue)
