"""The structured event log: a schema-versioned JSONL lifecycle stream.

The span tracer answers "where did *this* query's time go"; the event log
answers "what happened to *every* query" -- a durable, append-only record
of the service's lifecycle that a soak run, a CI job or an operator can
replay after the fact.

Schema (version 2, the one version written and accepted): one flat JSON
object per event::

    {"v": 2, "seq": 17, "ts": 1754222000.123, "kind": "query.finished",
     "query_id": 9, "outcome": "completed", "latency_ms": 4.2, ...}

``v``/``seq``/``ts``/``kind``/``query_id`` are the envelope (``seq`` is
strictly increasing per log, ``query_id`` may be ``None`` for
service-level events such as breaker transitions); every other key is a
kind-specific field. :func:`validate_events` checks a stream against this
schema the way :func:`repro.trace.validate_trace` checks a trace export.

Sinks are pluggable: :class:`RingSink` keeps the last N events in memory
(the service default), :class:`FileSink` appends JSONL to a path (the soak
``--events-out`` path), :class:`TeeSink` fans out to several. The log is
thread-safe -- one lock around sequence assignment and the sink write, so
a stream produced by concurrent workers is still strictly ordered.

Zero overhead when disabled: every emission site in the engine is guarded
by ``if events is not None`` and an :class:`EventLog` is never constructed
on the plain path, mirroring ``limits=None`` and ``tracer=None``.

Attribution without plumbing: :meth:`EventLog.scope` binds a query id to
the *current thread*, so components deep in the stack (the rewrite
engine's fallback chain, the guard, the fault registry) emit events that
carry the right ``query_id`` without threading it through every call.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Any, Callable, Iterable, Optional

from ..errors import EventLogError

#: Event-stream schema version (bump on incompatible layout changes);
#: the one version :func:`validate_events` accepts.
EVENTS_VERSION = 2

#: The envelope keys every event carries (in this order, first).
ENVELOPE_KEYS = ("v", "seq", "ts", "kind", "query_id")

#: Every event kind admitted by the schema.
EVENT_KINDS: tuple[str, ...] = (
    "query.submitted",        # a submission reached the service/database
    "query.admitted",         # admission control let it in
    "query.rejected",         # admission control turned it away
    "query.started",          # a worker began executing it
    "query.degraded",         # one step down the strategy fallback chain
    "query.cancelled",        # it observed cooperative cancellation
    "query.finished",         # terminal: outcome + Metrics snapshot
    "query.phases",           # terminal: the per-phase latency budget (v2)
    "query.slow",             # the slow-query log captured it
    "guard.budget_exceeded",  # a resource budget tripped
    "breaker.transition",     # a circuit breaker changed state
    "fault.fired",            # a deterministic fault injection fired
    "plan.verified",          # the static plan verifier passed (contract summary)
    "plan.cache_hit",         # a cached prepared plan served this submission
    "plan.cache_miss",        # no reusable plan; the full pipeline ran
    "plan.cache_invalidated", # a cached plan was dropped (catalog generation moved)
    "worker.spawned",         # a real worker process joined the pool
    "worker.lost",            # a worker died or missed its heartbeats
    "worker.retry",           # a lost task was re-dispatched (with backoff)
    "worker.degraded",        # the pool fell back to single-process execution
    "overload.shed",          # a queued ticket was shed for higher priority
    "overload.expired",       # a queued ticket's deadline passed; evicted
    "overload.brownout",      # the degradation ladder stepped up or down
    "overload.futile",        # admission rejected a provably-late deadline
)

_KIND_SET = frozenset(EVENT_KINDS)


class RingSink:
    """A bounded in-memory sink: keeps the newest ``capacity`` events."""

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise EventLogError("RingSink capacity must be >= 1")
        self.capacity = capacity
        self._ring: deque[dict] = deque(maxlen=capacity)
        #: Every write ever, including those the ring has since dropped.
        self.total = 0

    def write(self, event: dict) -> None:
        self._ring.append(event)
        self.total += 1

    def events(self) -> list[dict]:
        """The retained events, oldest first."""
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def close(self) -> None:
        pass


class FileSink:
    """A file JSONL sink (one compact JSON object per line).

    Appends by default (a long-running service keeps one growing log);
    pass ``mode="w"`` to truncate first -- the CLI does, so a re-run
    with the same ``--events-out`` path yields one loadable stream
    instead of two concatenated ones with colliding ``seq`` numbers.
    """

    def __init__(self, path: str, mode: str = "a"):
        self.path = path
        self._handle = open(path, mode)
        self.total = 0

    def write(self, event: dict) -> None:
        self._handle.write(json.dumps(event, sort_keys=True) + "\n")
        self.total += 1

    def flush(self) -> None:
        self._handle.flush()

    def close(self) -> None:
        self._handle.close()


class TeeSink:
    """Fans each event out to several sinks (e.g. ring + file)."""

    def __init__(self, *sinks):
        if not sinks:
            raise EventLogError("TeeSink needs at least one sink")
        self.sinks = sinks

    def write(self, event: dict) -> None:
        for sink in self.sinks:
            sink.write(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


_UNSET = object()


class EventLog:
    """A thread-safe, schema-versioned event stream over one sink.

    ``clock`` is injectable (defaults to ``time.time`` -- event timestamps
    are *wall-clock*, unlike the tracer's monotonic spans, because the log
    is correlated with the world outside the process). ``sink=None`` is
    legal and makes every :meth:`emit` a no-op -- the disabled fast path
    for code handed a log unconditionally.
    """

    def __init__(self, sink=None, clock: Callable[[], float] = time.time):
        self._sink = sink
        self._clock = clock
        self._lock = threading.Lock()
        self._seq = 0
        self._tls = threading.local()

    # -- attribution --------------------------------------------------------

    def scope(self, query_id: Optional[int]) -> "_Scope":
        """Bind ``query_id`` to the current thread for the duration of a
        ``with`` block; nested emissions pick it up automatically."""
        return _Scope(self._tls, query_id)

    def current_query_id(self) -> Optional[int]:
        """The query id bound to this thread (None outside any scope)."""
        return getattr(self._tls, "query_id", None)

    # -- emission -----------------------------------------------------------

    def emit(self, kind: str, query_id: Any = _UNSET, **fields: Any) -> None:
        """Append one event (no-op without a sink).

        ``query_id`` defaults to the thread's :meth:`scope` binding;
        ``fields`` become the event's kind-specific keys and must not
        collide with the envelope.
        """
        sink = self._sink
        if sink is None:
            return
        if query_id is _UNSET:
            query_id = self.current_query_id()
        event: dict[str, Any] = {
            "v": EVENTS_VERSION,
            "kind": kind,
            "query_id": query_id,
        }
        event.update(fields)
        with self._lock:
            self._seq += 1
            event["seq"] = self._seq
            event["ts"] = self._clock()
            sink.write(event)

    # -- observation --------------------------------------------------------

    @property
    def sink(self):
        return self._sink

    def events(self) -> list[dict]:
        """The retained events when the sink keeps them in memory (a
        :class:`RingSink`, directly or inside a :class:`TeeSink`); raises
        :class:`~repro.errors.EventLogError` otherwise."""
        sinks = [self._sink]
        if isinstance(self._sink, TeeSink):
            sinks = list(self._sink.sinks)
        for sink in sinks:
            if isinstance(sink, RingSink):
                with self._lock:
                    return sink.events()
        raise EventLogError(
            "this event log's sink does not retain events in memory"
        )

    def flush(self) -> None:
        sink = self._sink
        if sink is not None and hasattr(sink, "flush"):
            with self._lock:
                sink.flush()

    def close(self) -> None:
        sink = self._sink
        if sink is not None:
            with self._lock:
                sink.close()


class _Scope:
    """Context manager restoring the previous thread-local query id."""

    __slots__ = ("_tls", "_query_id", "_previous")

    def __init__(self, tls: threading.local, query_id: Optional[int]):
        self._tls = tls
        self._query_id = query_id

    def __enter__(self) -> "_Scope":
        self._previous = getattr(self._tls, "query_id", None)
        self._tls.query_id = self._query_id
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tls.query_id = self._previous


# -- schema -------------------------------------------------------------------

def _validate_event(
    event: Any, index: int, last_seq: Optional[int], problems: list[str]
) -> Optional[int]:
    """Check one event; returns its ``seq`` (for ordering) when readable."""
    path = f"events[{index}]"
    if not isinstance(event, dict):
        problems.append(f"{path}: event must be an object")
        return last_seq
    for name in ENVELOPE_KEYS:
        if name not in event:
            problems.append(f"{path}: missing envelope field {name!r}")
            return last_seq
    if event["v"] != EVENTS_VERSION:
        problems.append(
            f"{path}: v must be {EVENTS_VERSION}, got {event['v']!r}"
        )
    seq = event["seq"]
    if not isinstance(seq, int) or seq < 1:
        problems.append(f"{path}: seq must be a positive int")
        seq = last_seq
    elif last_seq is not None and seq <= last_seq:
        problems.append(
            f"{path}: seq {seq} not strictly increasing (previous {last_seq})"
        )
    if not isinstance(event["ts"], (int, float)) or isinstance(
        event["ts"], bool
    ) or event["ts"] < 0:
        problems.append(f"{path}: ts must be a non-negative number")
    if event["kind"] not in _KIND_SET:
        problems.append(f"{path}: unknown kind {event['kind']!r}")
    query_id = event["query_id"]
    if query_id is not None and (
        not isinstance(query_id, int) or isinstance(query_id, bool)
    ):
        problems.append(f"{path}: query_id must be an int or null")
    for key, value in event.items():
        if not isinstance(key, str):  # pragma: no cover - json keys are str
            problems.append(f"{path}: non-string field name {key!r}")
            continue
        try:
            json.dumps(value)
        except (TypeError, ValueError):
            problems.append(
                f"{path}: field {key!r} is not JSON-serialisable"
            )
    return seq if isinstance(seq, int) else last_seq


def validate_events(events: Iterable[Any]) -> int:
    """Validate an event stream against the schema.

    Checks the envelope of every event (version, strictly-increasing
    ``seq``, timestamp, known ``kind``, well-typed ``query_id``) and that
    every field is JSON-serialisable. Returns the number of events checked;
    raises :class:`~repro.errors.EventLogError` naming every problem found
    (capped at 10, like ``validate_trace``)."""
    problems: list[str] = []
    last_seq: Optional[int] = None
    count = 0
    for index, event in enumerate(events):
        last_seq = _validate_event(event, index, last_seq, problems)
        count += 1
    if problems:
        raise EventLogError(
            "invalid event stream: " + "; ".join(problems[:10])
            + (f" (+{len(problems) - 10} more)" if len(problems) > 10 else "")
        )
    return count


def load_events(path: str) -> list[dict]:
    """Parse (and validate) a JSONL event file written by a
    :class:`FileSink`; raises :class:`~repro.errors.EventLogError` on
    malformed JSON or schema violations."""
    events: list[dict] = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise EventLogError(
                    f"{path}:{lineno}: malformed JSON: {exc}"
                ) from None
    validate_events(events)
    return events


def events_round_trip(events: list[dict]) -> bool:
    """Does the stream survive serialise -> parse -> re-serialise
    byte-identically? The CI schema check, mirroring
    :func:`repro.trace.trace_round_trips`."""
    validate_events(events)
    lines = [json.dumps(e, sort_keys=True) for e in events]
    reparsed = [json.loads(line) for line in lines]
    return lines == [json.dumps(e, sort_keys=True) for e in reparsed]


# -- aggregation --------------------------------------------------------------

def count_by_kind(events: Iterable[dict]) -> dict[str, int]:
    """Per-kind event counts -- what the reconciliation property compares
    against the :class:`~repro.serve.service.ServiceStats` counters."""
    counts: dict[str, int] = {}
    for event in events:
        kind = event.get("kind", "?")
        counts[kind] = counts.get(kind, 0) + 1
    return counts


def render_event(event: dict) -> str:
    """One human-readable line per event (the ``repro events`` renderer)."""
    qid = event.get("query_id")
    scope = f"q{qid}" if qid is not None else "-"
    detail = " ".join(
        f"{key}={event[key]!r}" if isinstance(event[key], str)
        else f"{key}={json.dumps(event[key])}"
        for key in sorted(event)
        if key not in ENVELOPE_KEYS
    )
    return (
        f"#{event.get('seq', '?'):>6} {event.get('ts', 0):>17.6f} "
        f"{scope:>8} {event.get('kind', '?'):<22} {detail}"
    )
