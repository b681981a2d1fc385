"""Continuous observability: event log, slow-query log, phase budgets.

PR 4's tracer (:mod:`repro.trace`) answers "where does the time go?" for a
*single* query; this package answers it *continuously* -- for a soak run, a
service under load, or a sequence of benchmark commits:

* :mod:`repro.obs.events` -- a schema-versioned (v1) structured event
  stream of query-lifecycle events (submitted/admitted/rejected/started/
  degraded/cancelled/finished, breaker transitions, budget trips, fired
  faults) with pluggable sinks (bounded in-memory ring, append-to-file
  JSONL) and a ``validate_events`` checker;
* :mod:`repro.obs.slowlog` -- threshold-based slow-query capture (SQL,
  strategy, degradations, top operators, ``Metrics`` snapshot) in a
  bounded ring;
* :mod:`repro.obs.phases` -- phase-budget accounting: a per-query
  :class:`~repro.obs.phases.PhaseTimeline` splitting latency into
  admit/queue/plan_cache/rewrite/optimize/execute/drain with the
  sum-to-latency invariant (``check_phase_sum``);
* :mod:`repro.obs.why` -- the ``repro why <query_id>`` timeline
  reconstructor joining the event log, trace ring and slow-query log
  into one annotated waterfall.

The event log and the slow-query log follow the ``limits=None`` /
``tracer=None`` zero-overhead pattern: an unconfigured one costs one
``is None`` test.
"""

from .events import (
    EVENT_KINDS,
    EVENTS_VERSION,
    EventLog,
    FileSink,
    RingSink,
    TeeSink,
    count_by_kind,
    events_round_trip,
    load_events,
    render_event,
    validate_events,
)
from .phases import (
    PHASES,
    PhaseTimeline,
    check_phase_sum,
    render_phases,
)
from .slowlog import SlowQueryLog, render_slow_log
from .why import build_timeline, render_timeline, worker_spans

__all__ = [
    "PHASES",
    "PhaseTimeline",
    "check_phase_sum",
    "render_phases",
    "EVENT_KINDS",
    "EVENTS_VERSION",
    "EventLog",
    "FileSink",
    "RingSink",
    "TeeSink",
    "count_by_kind",
    "events_round_trip",
    "load_events",
    "render_event",
    "validate_events",
    "SlowQueryLog",
    "render_slow_log",
    "build_timeline",
    "render_timeline",
    "worker_spans",
]
