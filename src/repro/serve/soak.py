"""The soak harness: scenarios of one driver, one verifier, one report.

A :class:`Scenario` names a workload, an arrival source (closed-loop and
time-boxed, or an open-loop seeded schedule), one or two sides that
differ only in the :class:`~repro.serve.service.QueryService` keywords
they pass, and the cross-side gates ("adaptive goodput >= FIFO").
:func:`run_scenario` replays the arrivals against a fresh service per
side and hands every submitted ticket to :func:`verify_side`, which
checks the PR-2 metamorphic invariant *per query*:

* a completed query's rows must equal the fault-free reference answer for
  the strategy that actually produced them (per-strategy references,
  because Kim's method loses COUNT-bug rows by design);
* a failed query's error must be a *typed* engine error
  (:class:`~repro.errors.ReproError` subclass) -- never a raw traceback;
* a traced query's phase durations must sum to its latency;
* the service's counters must reconcile: every submission is accounted
  for as completed, failed, cancelled, shed, expired or rejected; and
* the service must not hang (the CLI arms ``faulthandler`` so a deadlock
  dumps stacks instead of stalling CI).

Three scenarios ship: :func:`chaos_scenario` (faults, random cancels and
tight deadlines at once), :func:`overload_scenario` (adaptive overload
control vs FIFO) and :func:`plan_cache_scenario` (plan cache on vs off).
:func:`run_worker_soak` keeps its own epoch loop -- its system under test
is :func:`repro.parallel.run_real`, not the query service -- but returns
the same :class:`SoakReport`.

Everything that varies is derived from ``seed`` via ``random.Random``, so
a soak run is reproducible up to thread scheduling: the *workload* (query
mix, strategies, deadlines, cancel points) is identical across runs; which
interleaving the OS picks is exactly what the soak is exercising.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Optional

from ..api.database import Database
from ..errors import AdmissionRejected, ReproError
from ..faults import FaultRegistry
from ..guard import Limits
from ..obs.events import EventLog, RingSink, count_by_kind
from ..obs.phases import check_phase_sum
from ..plan.cache import PlanCache
from ..storage import Catalog
from ..tpcd import QUERY_1, QUERY_2, QUERY_3, load_empdept, load_tpcd
from ..tpcd.queries import EMP_DEPT_QUERY
from ..trace import merge_operator_summaries
from .overload import PRIORITIES, OverloadConfig
from .service import QueryService, ServiceStats


#: The soak workload: name -> (sql, strategies worth requesting for it).
#: Kim and Dayal are requested where they are *not* always applicable too
#: -- exercising the fallback chain and feeding the circuit breakers is
#: the point, not avoiding them.
WORKLOAD: dict[str, tuple[str, tuple[str, ...]]] = {
    "empdept": (
        EMP_DEPT_QUERY,
        ("ni", "kim", "dayal", "magic", "magic_opt"),
    ),
    "q1": (QUERY_1, ("ni", "magic", "magic_opt", "kim")),
    "q2": (QUERY_2, ("ni", "magic", "magic_opt", "dayal")),
    "q3": (QUERY_3, ("ni", "magic", "magic_opt", "kim")),
}


#: Every invariant the harness reports, keyed by :attr:`Violation.kind`.
VIOLATION_KINDS: dict[str, str] = {
    # per ticket / per side (verify_side)
    "hung_query": "a submitted ticket never finished",
    "phase_sum": "a ticket's phase durations miss its latency",
    "untyped_error": "a query or worker epoch failed with a non-ReproError",
    "wrong_answer": "rows differ from the reference of the strategy that ran",
    "reconciliation": "counters break the section-9 law or their events",
    # cross-side gates
    "goodput_regression": "adaptive within-deadline goodput below FIFO",
    "futile_regression": "adaptive started more futile executions than FIFO",
    "cache_no_win": "plan-cached goodput not strictly above uncached",
    "hit_rate": "plan-cache hit rate at or below the required floor",
    # real-worker epochs
    "trace_schema": "a grafted trace export fails validation or round-trip",
    "trace_reconciliation": "grafted spans disagree with the pool's rows",
}


@dataclass
class Violation:
    """One broken invariant observed by a soak run."""

    kind: str       # a key of VIOLATION_KINDS
    query: str      # workload key (or "" for service-level violations)
    strategy: str   # requested strategy
    detail: str

    def __post_init__(self) -> None:
        if self.kind not in VIOLATION_KINDS:
            raise ValueError(f"unknown violation kind {self.kind!r}")

    def __str__(self) -> str:  # pragma: no cover - display helper
        scope = f" [{self.query}/{self.strategy}]" if self.query else ""
        return f"{self.kind}{scope}: {self.detail}"


@dataclass
class SideRecord:
    """What one side of a scenario did, as judged by :func:`verify_side`."""

    label: str
    elapsed: float = 0.0
    stats: Optional[ServiceStats] = None
    offered: int = 0
    #: Completed within their own deadline (no deadline counts as met).
    goodput: int = 0
    #: Tickets a worker *started* that produced no within-deadline
    #: answer: late completions, timeouts tripped at/after dequeue,
    #: other failures. The work the overload layer exists to avoid.
    futile_executions: int = 0
    checked_answers: int = 0
    #: The arrival source's ``headline`` count per second.
    throughput_qps: float = 0.0
    #: "ok" (within deadline) / "late" / error class name -> count.
    outcomes: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)
    #: Per-operator totals merged across every traced query (largest
    #: elapsed first); empty unless the side's service traced.
    operator_totals: list = field(default_factory=list)

    @property
    def goodput_qps(self) -> float:
        return self.goodput / self.elapsed if self.elapsed > 0 else 0.0


@dataclass
class SoakReport:
    """Outcome of one soak run: per-side records plus what spans sides."""

    scenario: str
    #: label -> :class:`SideRecord`; the first side is the one under test.
    sides: dict = field(default_factory=dict)
    #: Cross-side violations: failed gates, event/counter mismatches.
    violations: list = field(default_factory=list)
    #: Counts of the reconciled event family (``plan.cache_*``/``worker.*``).
    event_counts: dict = field(default_factory=dict)
    #: Scenario-level scalars echoed into JSON:
    #: the knobs the run was configured with, the worker-pool counters.
    facts: dict = field(default_factory=dict)
    #: One exported v2 trace per traced real-worker epoch (JSON-ready).
    traces: list = field(default_factory=list)

    @property
    def primary(self) -> SideRecord:
        return next(iter(self.sides.values()))

    def all_violations(self) -> list:
        per_side = [v for s in self.sides.values() for v in s.violations]
        return self.violations + per_side

    @property
    def ok(self) -> bool:
        return not self.all_violations()

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "scenario": self.scenario,
            **self.facts,
            "event_counts": self.event_counts,
            "violations": [str(v) for v in self.violations],
            "traces": self.traces,
            "sides": {
                label: {
                    **vars(side),
                    "elapsed": round(side.elapsed, 3),
                    "throughput_qps": round(side.throughput_qps, 2),
                    "goodput_qps": round(side.goodput_qps, 2),
                    "violations": [str(v) for v in side.violations],
                    "stats": side.stats.as_dict() if side.stats else None,
                }
                for label, side in self.sides.items()
            },
        }


def build_soak_catalog(scale: float = 0.005, seed: int = 7) -> Catalog:
    """The soak database: TPC-D tables at ``scale`` plus the section-2
    EMP/DEPT tables (with a COUNT-bug building), in one catalog."""
    catalog = load_empdept(
        n_depts=24, n_emps=160, n_buildings=8, seed=seed,
        catalog=load_tpcd(scale_factor=scale, seed=seed),
    )
    # Deterministic sentinels so the reference answer is non-trivial at
    # every seed: ``d_bug`` lives in the employee-free building (nested
    # iteration returns it, Kim's COUNT bug drops it), while ``d_busy``
    # out-counts its building's staff (every strategy returns it).
    dept = catalog.table("dept")
    dept.insert(("d_bug", 5000.0, 3, "B7"))
    dept.insert(("d_busy", 5000.0, 500, "B0"))
    return catalog


def compute_references(
    catalog: Catalog,
    workload: dict = WORKLOAD,
) -> dict[tuple[str, str], tuple[str, object]]:
    """Fault-free reference outcomes per (query, strategy).

    Values are ``("rows", sorted_rows)`` or ``("error", error_class_name)``
    -- a strategy that is statically inapplicable (Kim on Q3, say) is a
    legitimate *typed* reference outcome, not a soak failure.
    """
    reference_db = Database(
        catalog=catalog, validate=False, faults=FaultRegistry(0, ())
    )
    references: dict[tuple[str, str], tuple[str, object]] = {}
    for name, (sql, _) in workload.items():
        for strategy in ("ni", "kim", "dayal", "ganski_wong", "magic",
                         "magic_opt"):
            try:
                result = reference_db.execute(sql, strategy=strategy)
                references[(name, strategy)] = ("rows", sorted(result.rows))
            except ReproError as exc:
                references[(name, strategy)] = ("error", type(exc).__name__)
    return references


def verify_side(
    label: str,
    submitted: list,
    references: dict,
    stats: ServiceStats,
    elapsed: float,
) -> SideRecord:
    """The one verifier: judge every ``(ticket, workload key, deadline)``
    the harness submitted to one service, then the service's counters.

    Per ticket: it finished; its phase durations (when accounted) sum to
    its latency; a failure is a typed :class:`~repro.errors.ReproError`;
    a completion equals the fault-free reference of the strategy that
    effectively ran (degradations folded in). Per side: ``stats`` obeys
    the section-9 conservation law.
    """
    record = SideRecord(
        label=label,
        elapsed=elapsed,
        stats=stats,
        offered=stats.submitted,
        operator_totals=merge_operator_summaries(stats.recent_traces),
    )

    def count(outcome: str) -> None:
        record.outcomes[outcome] = record.outcomes.get(outcome, 0) + 1

    def violation(kind: str, detail: str) -> None:  # of the ticket in hand
        record.violations.append(Violation(kind, name, ticket.strategy, detail))

    for ticket, name, deadline in submitted:
        if not ticket.done:
            violation("hung_query", f"query {ticket.query_id} never finished")
            continue
        if ticket.phases is not None and ticket.latency is not None:
            # The sum-to-latency invariant, on every terminal ticket
            # (failed and cancelled included -- their residual time lands
            # in ``drain``).
            problem = check_phase_sum(ticket.phases.durations, ticket.latency)
            if problem is not None:
                violation("phase_sum", f"query {ticket.query_id}: {problem}")
        error = ticket.error()
        if error is not None:
            count(type(error).__name__)
            if not isinstance(error, ReproError):
                violation("untyped_error", f"{type(error).__name__}: {error}")
            if ticket.started_at is not None:
                record.futile_executions += 1
            continue
        if deadline is None or (
            ticket.latency is not None and ticket.latency <= deadline
        ):
            record.goodput += 1
            count("ok")
        else:
            record.futile_executions += 1
            count("late")
        result = ticket.result()
        effective = ticket.strategy
        for event in result.degradations:
            effective = event.fallback or effective
        expected = references.get((name, effective))
        if expected is None or expected[0] != "rows":
            violation(
                "wrong_answer",
                f"completed via {effective!r} but the fault-free "
                f"reference for it is {expected!r}",
            )
            continue
        record.checked_answers += 1
        if sorted(result.rows) != expected[1]:
            violation(
                "wrong_answer",
                f"rows differ from the fault-free {effective!r} answer "
                f"(got {len(result.rows)}, expected {len(expected[1])})",
            )
    if not stats.reconciles():
        record.violations.append(Violation("reconciliation", "", "", ", ".join(
            f"{counter}={getattr(stats, counter)}" for counter in (
                "submitted", "admitted", "rejected", "completed", "failed",
                "cancelled", "shed", "expired_in_queue", "in_flight",
                "queue_depth",
            )
        )))
    return record


def reconcile_events(
    log: EventLog, prefix: str, expected: dict, report: SoakReport
) -> None:
    """Closed-loop check of an event family against the counters it
    mirrors: keep the per-kind counts of ``prefix`` events on the report
    and record a violation for every kind in ``expected`` whose count
    differs. ``log`` must retain its events in memory (a ring sink)."""
    counts = count_by_kind(log.events())
    report.event_counts = {
        kind: n for kind, n in counts.items() if kind.startswith(prefix)
    }
    for kind, want in expected.items():
        got = counts.get(kind, 0)
        if got != want:
            report.violations.append(Violation(
                "reconciliation", kind, "",
                f"{got} {kind} events but the counters say {want}",
            ))


# -- arrival sources -----------------------------------------------------------

@dataclass(frozen=True)
class OverloadPhase:
    """One phase of the open-loop arrival process: ``rate_qps`` Poisson
    arrivals for ``seconds``."""

    name: str
    seconds: float
    rate_qps: float


#: Warmup (estimator learns service times), sustained overload (offered
#: load well past worker capacity at the default scale), recovery.
OVERLOAD_PHASES: tuple[OverloadPhase, ...] = (
    OverloadPhase("warmup", 2.5, 60.0),
    OverloadPhase("overload", 4.0, 300.0),
    OverloadPhase("recovery", 4.0, 40.0),
)


@dataclass(frozen=True)
class Arrival:
    """One scheduled submission (offsets from soak start, seconds)."""

    offset: float
    query: str
    strategy: str
    deadline: float
    priority: str


def overload_schedule(
    phases=OVERLOAD_PHASES, seed: int = 42, workload: dict = WORKLOAD
) -> list[Arrival]:
    """The seeded open-loop arrival schedule: Poisson arrivals per phase,
    each with a workload query, strategy, deadline and priority class.

    The schedule is a pure function of ``(phases, seed, workload)`` -- the
    two sides of an A/B comparison replay the *identical* offered load,
    which is what makes their goodput comparable.
    """
    rng = random.Random(seed)
    names = list(workload)
    schedule: list[Arrival] = []
    now = 0.0
    for phase in phases:
        if phase.seconds <= 0 or phase.rate_qps <= 0:
            raise ValueError(
                f"phase {phase.name!r} needs positive seconds and rate"
            )
        end = now + phase.seconds
        while True:
            now += rng.expovariate(phase.rate_qps)
            if now >= end:
                now = end
                break
            query = rng.choice(names)
            _, strategies = workload[query]
            strategy = rng.choice(strategies)
            # Deadlines span "only meetable with a short queue" to
            # "meetable unless the service is drowning": tight ones are
            # what FIFO burns workers on under overload.
            if rng.random() < 0.25:
                deadline = rng.uniform(0.02, 0.06)
            else:
                deadline = rng.uniform(0.08, 0.4)
            priority = rng.choices(PRIORITIES, weights=(2, 6, 2))[0]
            schedule.append(Arrival(
                offset=now, query=query, strategy=strategy,
                deadline=deadline, priority=priority,
            ))
    return schedule


@dataclass(frozen=True)
class ClosedLoop:
    """Time-boxed closed-loop arrivals: one submitter offers seeded
    workload picks as fast as admission lets it for ``seconds``, a
    ``tight_deadline_rate`` fraction of them with a deadline of a few
    milliseconds, while a background canceller targets an in-flight
    query with probability ``cancel_rate`` per tick."""

    seconds: float
    cancel_rate: float
    tight_deadline_rate: float

    def headline(self, record: SideRecord) -> int:
        """Few arrivals carry a deadline: count everything that finished."""
        stats = record.stats
        return stats.completed + stats.failed + stats.cancelled

    def drive(self, service, workload: dict, seed: int, submitted: list) -> None:
        """Offer the load, then wait for the service to go idle."""
        rng = random.Random(seed)
        names = list(workload)
        stop = threading.Event()

        def canceller() -> None:
            """Randomly cancel in-flight queries (seeded choice, wall-clock
            paced) through the public surface only: the candidates are
            the harness's own tickets that are not yet done."""
            cancel_rng = random.Random(seed ^ 0x5A5A)
            live: list = []
            seen = 0
            while not stop.wait(0.002):
                fresh = submitted[seen:]  # appends are atomic; a snapshot
                seen += len(fresh)
                live = [
                    ticket for ticket in live + [entry[0] for entry in fresh]
                    if not ticket.done
                ]
                if live and cancel_rng.random() < self.cancel_rate:
                    service.cancel(cancel_rng.choice(live).query_id)

        canceller_thread = threading.Thread(target=canceller, daemon=True)
        canceller_thread.start()
        start = time.monotonic()
        try:
            while time.monotonic() - start < self.seconds:
                name = rng.choice(names)
                sql, strategies = workload[name]
                strategy = rng.choice(strategies)
                deadline = None
                if rng.random() < self.tight_deadline_rate:
                    deadline = rng.uniform(0.0005, 0.01)
                try:
                    ticket = service.submit(sql, strategy=strategy,
                                            deadline=deadline)
                    submitted.append((ticket, name, deadline))
                except AdmissionRejected as exc:
                    # Counted by the service. Honour the service's backoff
                    # hint when it offers one (capped -- this thread is also
                    # the clock of the soak), else a token pause: the point
                    # is to let the queue drain, not hammer admission.
                    hint = exc.retry_after_hint
                    time.sleep(min(hint, 0.05) if hint else 0.001)
            service.drain(timeout=max(DRAIN_TIMEOUT, self.seconds))
        finally:
            stop.set()
            canceller_thread.join(timeout=5.0)


@dataclass(frozen=True)
class OpenLoop:
    """Open-loop arrivals: replay :func:`overload_schedule` for
    ``phases`` at its own pace, whatever the service does -- no retry on
    rejection, so every side of a scenario sees the identical offered
    load."""

    phases: tuple

    def headline(self, record: SideRecord) -> int:
        """Every arrival carries a deadline: count those that met theirs."""
        return record.goodput

    @property
    def seconds(self) -> float:
        return sum(phase.seconds for phase in self.phases)

    def drive(self, service, workload: dict, seed: int, submitted: list) -> None:
        schedule = overload_schedule(self.phases, seed, workload)
        start = time.monotonic()
        for arrival in schedule:
            delay = start + arrival.offset - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            sql, _ = workload[arrival.query]
            try:
                ticket = service.submit(
                    sql,
                    strategy=arrival.strategy,
                    deadline=arrival.deadline,
                    priority=arrival.priority,
                )
                submitted.append((ticket, arrival.query, arrival.deadline))
            except AdmissionRejected:
                pass  # counted by the service; open loop, no retry
        service.drain(timeout=DRAIN_TIMEOUT)


# -- scenarios and the one driver ----------------------------------------------

#: Seconds a side may take to go idle (and then to close) after its last
#: arrival before the run is declared hung.
DRAIN_TIMEOUT = 60.0


@dataclass(frozen=True)
class Scenario:
    """One soak: what is offered, how it arrives, to which service
    configurations, and what must hold across them.

    ``sides`` maps a label to the :class:`QueryService` keywords that
    side passes on top of the scenario-wide ones; the first side is the
    one under test: it receives the run's event log. ``gates`` are
    ``(violation kind, holds)`` pairs, ``holds`` a predicate over the
    finished side records in order -- a
    scenario with no gates only verifies per side. ``rewritable_only``
    restricts each query to the strategies that rewrite it cleanly (see
    :func:`_cacheable_workload`). A scenario is single-use when a side
    holds a stateful keyword (the plan cache).
    """

    name: str
    arrivals: object  # ClosedLoop | OpenLoop
    sides: dict
    gates: tuple = ()
    workload: dict = field(default_factory=lambda: WORKLOAD)
    rewritable_only: bool = False
    seed: int = 42
    workers: int = 4
    max_queue: int = 32
    scale: float = 0.005
    #: A ``seed:site=rate`` spec (:mod:`repro.faults` syntax), every side.
    faults: Optional[str] = None


def _run_side(
    scenario: Scenario, label: str, catalog: Catalog, references: dict,
    events: Optional[EventLog],
) -> SideRecord:
    """Replay the scenario's arrivals against one fresh service."""
    faults = scenario.faults  # unset: the Database's own (environment) default
    kwargs = {"faults": FaultRegistry.parse(faults)} if faults else {}
    service = QueryService(
        Database(catalog=catalog, validate=False, **kwargs),
        workers=scenario.workers,
        max_queue=scenario.max_queue,
        # A backstop so no single query can run away with a worker: roomy
        # enough that fault-free queries never trip it.
        default_limits=Limits(timeout=30.0, max_rows_scanned=50_000_000),
        events=events,
        **scenario.sides[label],
    )
    arrivals = scenario.arrivals
    submitted: list[tuple] = []  # (ticket, workload key, deadline)
    start = time.monotonic()
    try:
        arrivals.drive(service, scenario.workload, scenario.seed, submitted)
        # Give the brownout ladder its recovery edges now that the queue
        # is empty (bounded: the cooldowns are short; level 0 at once
        # without overload control).
        wall = time.monotonic() + 5.0
        while service.evaluate_overload() > 0 and time.monotonic() < wall:
            time.sleep(0.05)
    finally:
        service.close(drain=True, timeout=max(DRAIN_TIMEOUT, arrivals.seconds))
    elapsed = time.monotonic() - start
    record = verify_side(label, submitted, references, service.stats(), elapsed)
    if elapsed > 0:
        record.throughput_qps = arrivals.headline(record) / elapsed
    return record


def run_scenario(
    scenario: Scenario, events: Optional[EventLog] = None
) -> SoakReport:
    """Run every side of ``scenario`` over one catalog and verify it.

    ``events`` (a fresh :class:`repro.obs.events.EventLog` that retains
    its events in memory) streams the first side's lifecycle events; the
    harness uses a ring of its own when none is given. The stream's
    ``plan.cache_*`` counts are reconciled exactly against the first
    side's cache counters (both zero without a plan cache).
    """
    catalog = build_soak_catalog(scale=scenario.scale, seed=scenario.seed)
    references = compute_references(catalog, scenario.workload)
    if scenario.rewritable_only:
        scenario = replace(scenario, workload=_cacheable_workload(
            scenario.workload, references
        ))
    log = events if events is not None else EventLog(RingSink(262144))
    report = SoakReport(
        scenario=scenario.name,
        facts={
            "seed": scenario.seed, "workers": scenario.workers,
            "scale": scenario.scale, "faults": scenario.faults or "",
        },
    )
    for label in scenario.sides:
        report.sides[label] = _run_side(
            scenario, label, catalog, references,
            None if report.sides else log,
        )
    sides = list(report.sides.values())
    stats = sides[0].stats
    reconcile_events(log, "plan.cache_", {
        "plan.cache_hit": stats.plan_cache_hits,
        "plan.cache_miss": stats.plan_cache_misses,
        "plan.cache_invalidated": stats.plan_cache_invalidations,
    }, report)
    for kind, holds in scenario.gates:
        if not holds(*sides):
            numbers = "; ".join(
                f"{side.label}: {side.goodput} within deadline, "
                f"{side.futile_executions} futile" for side in sides
            )
            report.violations.append(Violation(
                kind, "", "",
                f"{VIOLATION_KINDS[kind]} at identical offered load "
                f"({numbers}; plan cache: {stats.plan_cache or 'off'})",
            ))
    return report


def chaos_scenario(
    seconds: float = 20.0,
    cancel_rate: float = 0.05,
    tight_deadline_rate: float = 0.1,
    workers: int = 8,
    max_queue: int = 64,
    seed: int = 42,
    scale: float = 0.005,
    faults: Optional[str] = None,
    **service,
) -> Scenario:
    """The chaos soak: the mixed workload against one service under
    injected ``faults``, random cancels and tight deadlines, all at once.
    ``service`` passes further :class:`QueryService` keywords to that one
    side: ``breaker_threshold``/``breaker_cooldown``, ``fault_scope``,
    ``slow_query_ms``, and ``trace=True`` to run every query under a
    tracer (merged per-operator totals of the last 256 land on the side
    record, a phase timeline on every ticket)."""
    return Scenario(
        "chaos", ClosedLoop(seconds, cancel_rate, tight_deadline_rate),
        sides={"chaos": {
            "breaker_threshold": 3, "breaker_cooldown": 1.0,
            "trace_history": 256, **service,
        }},
        workers=workers, max_queue=max_queue, seed=seed, scale=scale,
        faults=faults,
    )


def overload_scenario(phases=OVERLOAD_PHASES, **knobs) -> Scenario:
    """The phased overload soak: one seeded open-loop schedule replayed
    against adaptive overload control and the FIFO baseline (``knobs``:
    the :class:`Scenario` fields ``seed``/``workers``/``max_queue``/``scale``).

    The offered load is *identical* on both sides (same schedule, same
    catalog), so the comparison isolates the overload layer: the
    adaptive side must complete at least as many queries within their
    deadlines while starting no more futile executions. Its event stream
    is the one recorded -- brownout transitions, sheds and expiries land
    there; the FIFO baseline by definition has none.
    """
    # Short dwell/cooldown so a seconds-long soak walks the ladder down
    # *and* back up; production defaults are far more patient.
    config = OverloadConfig(brownout_dwell_s=0.3, brownout_cooldown_s=0.8)
    return Scenario(
        "overload", OpenLoop(tuple(phases)),
        sides={"adaptive": {"overload": config}, "fifo": {}},
        gates=(
            ("goodput_regression", lambda a, fifo: a.goodput >= fifo.goodput),
            ("futile_regression", lambda a, fifo:
                a.futile_executions <= fifo.futile_executions),
        ),
        **knobs,
    )


# -- the plan-cache A/B scenario -----------------------------------------------

#: A parameterized query family: one *template* (same shape, different
#: literals), so the plan cache pays one fill for the whole family. The
#: values are quantized so each variant's reference answer is precomputable.
PARAM_QUERY_TEMPLATE = (
    "select name, building, salary from emp where salary >= {:.1f} "
    "order by name"
)
PARAM_QUERY_VALUES = (55.0, 75.0, 95.0, 115.0, 135.0, 155.0, 175.0, 195.0)

#: Warmup (first submissions of each template pay the fill), then a
#: sustained rate high enough that the rewrite pipeline is the bottleneck
#: for the uncached baseline.
PLAN_CACHE_PHASES: tuple[OverloadPhase, ...] = (
    OverloadPhase("warmup", 2.0, 40.0),
    OverloadPhase("steady", 5.0, 400.0),
)


#: The template workload: the chaos-soak queries plus the parameterized
#: salary family (8 literal variants of one template).
PLAN_CACHE_WORKLOAD = {**WORKLOAD, **{
    f"param{index}": (
        PARAM_QUERY_TEMPLATE.format(value), ("ni", "magic", "magic_opt"),
    )
    for index, value in enumerate(PARAM_QUERY_VALUES)
}}


def _cacheable_workload(workload: dict, references: dict) -> dict:
    """Restrict each entry to strategies whose fault-free reference is a
    row set -- i.e. the strategy rewrites the query cleanly. Degrading
    (query, strategy) pairs tombstone in the cache and would dilute the
    hit rate with structural misses; the A/B comparison wants both sides
    executing identical, cleanly-rewritable work."""
    filtered = {}
    for name, (sql, strategies) in workload.items():
        clean = tuple(
            s for s in strategies
            if references.get((name, s), ("",))[0] == "rows"
        )
        filtered[name] = (sql, clean or ("ni",))
    return filtered


#: The cached side must sustain a hit rate strictly above this.
MIN_HIT_RATE = 0.9


def plan_cache_scenario(phases=PLAN_CACHE_PHASES, **knobs) -> Scenario:
    """The plan-cache A/B soak: one seeded open-loop template workload
    replayed on plain FIFO services with the plan cache on and off
    (``knobs`` as for :func:`overload_scenario`).

    The offered load is *identical* on both sides (same schedule, same
    catalog, no DML), so the comparison isolates the cache: the cached
    side must complete strictly more queries within their deadlines and
    sustain a hit rate above :data:`MIN_HIT_RATE`; the driver reconciles
    its ``plan.cache_*`` events exactly against the cache's counters.
    """
    return Scenario(
        "plan-cache", OpenLoop(tuple(phases)),
        sides={"cached": {"plan_cache": PlanCache()}, "baseline": {}},
        gates=(
            ("cache_no_win", lambda cached, base: cached.goodput > base.goodput),
            ("hit_rate", lambda cached, base:
                (cached.stats.plan_cache.get("hit_rate") or 0.0)
                > MIN_HIT_RATE),
        ),
        workload=PLAN_CACHE_WORKLOAD,
        rewritable_only=True,
        **knobs,
    )


# -- the real-worker chaos soak ------------------------------------------------

#: Expected wall-clock per real-worker epoch: recovery is bounded by
#: ``task_timeout`` x attempts, so this is generous. Sizes the CLI watchdog.
WORKER_EPOCH_SECONDS = 20.0


def run_worker_soak(
    epochs: int = 4,
    n_workers: int = 3,
    seed: int = 42,
    faults: Optional[str] = None,
    n_depts: int = 24,
    n_emps: int = 120,
    kill_per_epoch: bool = True,
    events=None,
    trace: bool = False,
) -> SoakReport:
    """Chaos-soak the real shared-nothing executor
    (:mod:`repro.parallel.workers`).

    Each epoch runs one full section-6 query (strategies alternate between
    nested iteration and the decorrelated plan) on a fresh pool of
    ``n_workers`` real processes. ``kill_per_epoch`` SIGKILLs one worker
    right after data placement -- the guaranteed crash the acceptance
    criterion demands -- and ``faults`` (a ``seed:site=rate`` spec, e.g.
    ``"7:worker.crash=0.05"``) injects the process-level sites on top,
    re-seeded per epoch (``base_seed + epoch``) so epochs draw independent
    deterministic schedules.

    Every epoch's answer is checked against the fault-free single-process
    reference; violations follow :class:`Violation`. The run's
    ``worker.*`` events (on ``events``, a fresh in-memory log, else a
    ring of the harness's own) are reconciled against the pool counters
    (lost/retry/degraded) by :func:`reconcile_events`.

    ``trace=True`` runs each epoch under a coordinator
    :class:`~repro.trace.Tracer`: workers ship their span trees back and
    the pool grafts them (kills included -- the failed attempt appears as
    a ``retried`` dispatch span). Each epoch's export is schema-validated,
    round-tripped, and reconciled *exactly* -- grafted
    ``metric_totals()["rows_scanned"]`` must equal the pool's
    ``rows_processed`` -- or a ``trace_reconciliation`` violation is
    recorded.
    """
    from ..parallel import local_reference, run_real
    from ..trace import Tracer
    from ..trace.tracer import trace_round_trips, validate_trace

    catalog = load_empdept(
        n_depts=n_depts, n_emps=n_emps, n_buildings=8, seed=seed
    )
    dept_rows = list(catalog.table("dept").rows)
    emp_rows = list(catalog.table("emp").rows)
    reference = local_reference(dept_rows, emp_rows)
    base = FaultRegistry.parse(faults) if faults else None
    log = events if events is not None else EventLog(RingSink(65536))

    side = SideRecord(label="real", offered=epochs)
    report = SoakReport(
        scenario="worker",
        sides={"real": side},
        facts={
            "seed": seed, "faults": faults or "",
            "epochs": epochs, "n_workers": n_workers,
            "kills": 0, "workers_lost": 0, "retries": 0, "messages": 0,
            "recovery_time_s": 0.0, "trace_reconciled": 0,
        },
    )
    facts = report.facts

    def violation(kind: str, detail: str) -> None:
        side.violations.append(
            Violation(kind, strategy, "real", f"epoch {epoch}: {detail}")
        )

    start = time.monotonic()
    for epoch in range(epochs):
        strategy = (
            "magic_decorrelated" if epoch % 2 == 0 else "nested_iteration"
        )
        registry = (
            FaultRegistry(base.seed + epoch, base.rules)
            if base is not None else None
        )

        def kill_one(pool, epoch=epoch):
            if kill_per_epoch:
                pool.kill_worker(epoch % n_workers)
                facts["kills"] += 1

        # Each epoch is one "query" to the event log (query_id = epoch),
        # so ``repro why <epoch>`` can join the timeline with the
        # epoch's grafted trace from the same run.
        epoch_started = time.monotonic()
        log.emit("query.submitted", query_id=epoch, strategy=strategy)
        tracer = Tracer() if trace else None
        try:
            run = run_real(
                strategy,
                dept_rows,
                emp_rows,
                n_workers,
                faults=registry,
                events=log,
                degrade=True,
                on_pool=kill_one,
                tracer=tracer,
                heartbeat_interval=0.02,
                heartbeat_timeout=0.3,
                task_timeout=3.0,
            )
        except Exception as exc:  # noqa: BLE001 - the invariant under test
            label = type(exc).__name__
            if isinstance(exc, ReproError):
                side.outcomes[label] = side.outcomes.get(label, 0) + 1
            else:
                violation("untyped_error", f"{label}: {exc}")
            log.emit(
                "query.finished", query_id=epoch, outcome="failed",
                strategy=strategy, error_type=label,
                latency_ms=round(
                    (time.monotonic() - epoch_started) * 1000, 3
                ),
            )
            continue
        facts["workers_lost"] += run.workers_lost
        facts["retries"] += run.retries
        facts["recovery_time_s"] += run.recovery_time
        facts["messages"] += run.messages
        if tracer is not None:
            export = tracer.export(
                sql=EMP_DEPT_QUERY, strategy=strategy, epoch=epoch
            )
            try:
                validate_trace(export)
                round_trips = trace_round_trips(export)
            except ReproError as exc:
                violation("trace_schema", str(exc))
            else:
                if not round_trips:
                    violation("trace_schema", "export does not round-trip")
                scanned = tracer.metric_totals()["rows_scanned"]
                if scanned != run.rows_processed:
                    violation(
                        "trace_reconciliation",
                        f"grafted spans account {scanned} rows_scanned "
                        f"but the pool accepted {run.rows_processed}",
                    )
                else:
                    facts["trace_reconciled"] += 1
            report.traces.append(export)
        label = "degraded" if run.degraded else "ok"
        side.outcomes[label] = side.outcomes.get(label, 0) + 1
        log.emit(
            "query.finished", query_id=epoch, outcome="completed",
            strategy=strategy, degraded=run.degraded,
            latency_ms=round((time.monotonic() - epoch_started) * 1000, 3),
            workers_lost=run.workers_lost, retries=run.retries,
            messages=run.messages, rows_processed=run.rows_processed,
        )
        side.checked_answers += 1
        if run.answer == reference:
            side.goodput += 1
        else:
            violation(
                "wrong_answer",
                f"{len(run.answer)} rows != reference {len(reference)} rows "
                f"(lost={run.workers_lost}, retries={run.retries})",
            )
    side.elapsed = time.monotonic() - start
    side.throughput_qps = side.goodput_qps
    facts["recovery_time_s"] = round(facts["recovery_time_s"], 6)
    reconcile_events(log, "worker.", {
        "worker.lost": facts["workers_lost"],
        "worker.retry": facts["retries"],
        "worker.degraded": side.outcomes.get("degraded", 0),
    }, report)
    return report
