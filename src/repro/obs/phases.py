"""Phase-budget accounting: where did a query's latency actually go?

A :class:`PhaseTimeline` splits one query's wall-clock lifetime into a
fixed taxonomy of contiguous phases::

    admit      admission control: parse-free checks, quota, capacity
    queue      waiting in the run queue for a worker thread
    plan_cache plan-cache lookup only (fingerprint, extraction, probe)
    rewrite    parsing + QGM construction + decorrelation rewrite
    optimize   physical planning of every box, expressions compiled
               (plus static plan verification when validation is on)
    execute    operator-graph execution
    drain      everything after execution until the ticket resolves
               (result hand-off, counter updates; failures land their
               residual tail here too)

``rewrite`` and ``optimize`` are marked by the one compile step
(:func:`repro.plan.compile.compile_query`), so every compile -- a cache
miss's included -- reports both and a cache hit reports neither.

The timeline is *mark-based*: each ``mark(phase)`` attributes the time
since the previous mark to ``phase``, on the same injectable clock the
:class:`~repro.serve.service.QueryService` measures ``ticket.latency``
with. Because marks are contiguous -- every interval between the first
clock read and the final one is attributed to exactly one phase -- the
phase durations sum to the measured latency exactly (up to float
associativity), which is the invariant ``check_phase_sum`` enforces and
the soak/CI gate asserts for every completed query.

Phases the query never visits (plan_cache with no cache configured, say)
simply do not appear; the sum law holds regardless.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

#: The phase taxonomy, in canonical (lifecycle) order. Rendering and the
#: per-phase histograms follow this order, not insertion order.
PHASES: tuple[str, ...] = (
    "admit",
    "queue",
    "plan_cache",
    "rewrite",
    "optimize",
    "execute",
    "drain",
)

_PHASE_SET = frozenset(PHASES)

#: Tolerance (seconds) for the sum-to-latency law: "within one clock
#: tick" of a monotonic float clock, generously rounded up to cover
#: float associativity across seven additions.
PHASE_SUM_TOLERANCE = 1e-6


class PhaseTimeline:
    """Accumulates per-phase durations for one query via contiguous marks.

    ``start`` is the query's birth (``ticket.submitted_at``); ``clock``
    the same injectable clock the service measures latency with. Each
    :meth:`mark` attributes ``now - last_mark`` to the named phase; a
    phase may be marked more than once (a refused parameterized compile,
    then the literal one) and accumulates.
    """

    __slots__ = ("_clock", "_last", "durations")

    def __init__(
        self,
        start: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._clock = clock
        self._last = clock() if start is None else start
        #: phase name -> cumulative seconds (only phases actually marked).
        self.durations: dict[str, float] = {}

    def mark(self, phase: str, now: Optional[float] = None) -> float:
        """Attribute the interval since the previous mark to ``phase``.

        Returns the clock reading used, so callers that already hold a
        fresh reading (the service's ``_finish``) can reuse it and keep
        the sum law exact.
        """
        if phase not in _PHASE_SET:
            raise ValueError(f"unknown phase {phase!r} (not in {PHASES})")
        if now is None:
            now = self._clock()
        self.durations[phase] = (
            self.durations.get(phase, 0.0) + (now - self._last)
        )
        self._last = now
        return now

    def total(self) -> float:
        """Sum of all recorded phase durations (== latency when the final
        mark used the same clock reading that measured latency)."""
        return sum(self.durations.values())

    def as_dict(self) -> dict[str, float]:
        """Durations in seconds, canonical phase order, marked phases only."""
        return {p: self.durations[p] for p in PHASES if p in self.durations}

    def as_ms_dict(self, ndigits: int = 3) -> dict[str, float]:
        """Durations in milliseconds (rounded), canonical phase order --
        the shape the ``query.phases`` event and slow-log records carry."""
        return {
            p: round(self.durations[p] * 1000.0, ndigits)
            for p in PHASES
            if p in self.durations
        }


def check_phase_sum(
    phases: dict[str, float],
    latency: float,
    tolerance: float = PHASE_SUM_TOLERANCE,
) -> Optional[str]:
    """The sum-to-latency law: ``sum(phases) == latency`` within
    ``tolerance`` seconds. Returns a human-readable problem string, or
    ``None`` when the law holds. ``phases`` is in *seconds* (use
    ``ms=True`` semantics by converting before calling)."""
    total = sum(phases.values())
    if abs(total - latency) > tolerance:
        return (
            f"phase durations sum to {total:.9f}s but measured latency is "
            f"{latency:.9f}s (|delta| {abs(total - latency):.3e}s > "
            f"tolerance {tolerance:.0e}s)"
        )
    return None


def render_phases(
    phases: dict[str, float],
    width: int = 40,
    indent: str = "",
) -> list[str]:
    """A proportional waterfall of one query's phase budget.

    ``phases`` maps phase name -> seconds. Each line shows the phase, its
    duration in ms, its share, and a bar scaled to the longest phase.
    """
    lines: list[str] = []
    total = sum(phases.values()) or 1.0
    longest = max(phases.values(), default=0.0) or 1.0
    for name in PHASES:
        if name not in phases:
            continue
        seconds = phases[name]
        bar = "#" * max(1, round(width * seconds / longest)) if seconds > 0 else ""
        lines.append(
            f"{indent}{name:<10} {seconds * 1000.0:>10.3f} ms "
            f"{100.0 * seconds / total:>5.1f}%  {bar}"
        )
    return lines
