"""The zero-overhead-when-disabled contract of ``repro.trace`` and
``repro.obs``.

Tracing follows the ``limits=None`` pattern of :mod:`repro.guard`: when no
tracer is attached the executor and rewrite engine must take the plain
code path -- no span bookkeeping, no clock reads, no snapshots. The same
contract covers the event log: a database without one must never
construct, consult or emit into it (a facade owns no query lifecycle and
no slow-query log; those are the query service's). Two kinds of guard
enforce it:

* *structural* checks: with every :class:`~repro.trace.Tracer` (resp.
  :class:`~repro.obs.events.EventLog`) entry point booby-trapped, a
  plain run must still succeed -- the disabled path provably never
  touches the machinery;
* *timing* checks: the disabled median must not exceed the enabled
  median by more than 5% -- the disabled path regressing towards (or
  past) the cost of the enabled one is exactly the bug this catches.
"""

import statistics
import time

import pytest

from repro import Database, Strategy
from repro.obs import EventLog
from repro.tpcd import QUERY_2, load_tpcd
from repro.trace import Tracer

from conftest import BENCH_SCALE, run_once

#: Timing-check budget: untraced must stay within 5% of traced.
OVERHEAD_TOLERANCE = 1.05
ROUNDS = 9


@pytest.fixture(scope="module")
def db() -> Database:
    db = Database(load_tpcd(scale_factor=min(BENCH_SCALE, 0.01)))
    for table in db.catalog.tables():
        db.catalog.stats(table.name)
    return db


def _median_seconds(fn, rounds: int = ROUNDS) -> float:
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def test_untraced_path_never_touches_the_tracer(db, monkeypatch):
    """Structural zero overhead: booby-trap every tracer entry point and
    run an untraced query -- the disabled path must not trip a single one."""
    def boom(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("tracer machinery reached on the untraced path")

    for name in ("begin", "end", "cache_hit", "record", "attach"):
        monkeypatch.setattr(Tracer, name, boom)
    result = db.execute(QUERY_2, strategy=Strategy.MAGIC)
    assert result.rows


def test_disabled_overhead_within_tolerance(db):
    """Timing zero overhead: untraced execution must not regress to more
    than ``OVERHEAD_TOLERANCE`` of the traced cost (tracing does strictly
    more work, so a disabled path slower than that is a regression)."""
    def untraced():
        db.execute(QUERY_2, strategy=Strategy.MAGIC)

    def traced():
        db.execute(QUERY_2, strategy=Strategy.MAGIC, tracer=Tracer())

    untraced()  # warm caches outside the measurement
    untraced_median = _median_seconds(untraced)
    traced_median = _median_seconds(traced)
    assert untraced_median <= traced_median * OVERHEAD_TOLERANCE, (
        f"untraced median {untraced_median * 1000:.3f}ms exceeds "
        f"{OVERHEAD_TOLERANCE}x traced median {traced_median * 1000:.3f}ms"
    )


def test_unobserved_path_never_touches_the_event_log(db, monkeypatch):
    """Structural zero overhead for the event log: with every emission
    entry point booby-trapped, a database built without ``events`` must
    never reach it."""
    def boom(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError(
            "observability machinery reached on the disabled path"
        )

    for name in ("emit", "scope", "current_query_id"):
        monkeypatch.setattr(EventLog, name, boom)
    result = db.execute(QUERY_2, strategy=Strategy.MAGIC)
    assert result.rows


def test_unvalidated_path_never_touches_the_plan_verifier(db, monkeypatch):
    """Structural zero overhead for the static plan verifier: with
    ``REPRO_VALIDATE`` off the pre-execution gate must never import or
    call :mod:`repro.analyze.plans` -- booby-trap its entry points and
    run a plain query."""
    from repro.analyze import plans

    def boom(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError(
            "plan verifier reached with validation disabled"
        )

    monkeypatch.setattr(plans, "verify_pre_execution", boom)
    monkeypatch.setattr(plans, "verify_query_plan", boom)
    monkeypatch.setattr(plans, "check_interfaces", boom)
    unvalidated_db = Database(catalog=db.catalog, validate=False)
    result = unvalidated_db.execute(QUERY_2, strategy=Strategy.MAGIC)
    assert result.rows


def test_disabled_validation_overhead_within_tolerance(db):
    """Timing zero overhead for the verifier: a validation-off database
    must not regress to more than ``OVERHEAD_TOLERANCE`` of one running
    the full per-step lint plus pre-execution plan verification."""
    plain_db = Database(catalog=db.catalog, validate=False)
    validated_db = Database(catalog=db.catalog, validate=True)

    def plain():
        plain_db.execute(QUERY_2, strategy=Strategy.MAGIC)

    def validated():
        validated_db.execute(QUERY_2, strategy=Strategy.MAGIC)

    plain()  # warm caches outside the measurement
    validated()
    plain_median = _median_seconds(plain)
    validated_median = _median_seconds(validated)
    assert plain_median <= validated_median * OVERHEAD_TOLERANCE, (
        f"plain median {plain_median * 1000:.3f}ms exceeds "
        f"{OVERHEAD_TOLERANCE}x validated median "
        f"{validated_median * 1000:.3f}ms"
    )


def test_phases_off_path_never_touches_the_timeline(db, monkeypatch):
    """Structural zero overhead for phase accounting: with every
    :class:`~repro.obs.phases.PhaseTimeline` entry point booby-trapped, a
    service built without ``phases=`` (and without ``trace``) must admit,
    execute and finish queries without constructing a single timeline."""
    from repro.obs.phases import PhaseTimeline
    from repro.serve import QueryService

    def boom(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError(
            "phase-accounting machinery reached with phases disabled"
        )

    for name in ("__init__", "mark", "total", "as_dict", "as_ms_dict"):
        monkeypatch.setattr(PhaseTimeline, name, boom)
    with QueryService(db, workers=2) as service:
        ticket = service.submit(QUERY_2, strategy=Strategy.MAGIC)
        assert ticket.result().rows
        assert ticket.phases is None


def test_disabled_phases_overhead_within_tolerance(db):
    """Timing zero overhead for phase accounting: a phases-off service
    must not regress to more than ``OVERHEAD_TOLERANCE`` of one stamping
    the full admit/queue/rewrite/execute/drain timeline per ticket."""
    from repro.serve import QueryService

    batch = 8

    def run(service):
        tickets = [
            service.submit(QUERY_2, strategy=Strategy.MAGIC)
            for _ in range(batch)
        ]
        for ticket in tickets:
            ticket.result()

    with QueryService(db, workers=2, max_queue=64) as plain_service:
        with QueryService(
            db, workers=2, max_queue=64, phases=True
        ) as phased_service:
            run(plain_service)  # warm caches outside the measurement
            run(phased_service)
            plain_median = _median_seconds(lambda: run(plain_service))
            phased_median = _median_seconds(lambda: run(phased_service))
    assert plain_median <= phased_median * OVERHEAD_TOLERANCE, (
        f"phases-off median {plain_median * 1000:.3f}ms exceeds "
        f"{OVERHEAD_TOLERANCE}x phases-on median "
        f"{phased_median * 1000:.3f}ms"
    )


@pytest.mark.benchmark(group="trace-overhead")
def test_bench_untraced(db, benchmark):
    run_once(benchmark, lambda: db.execute(QUERY_2, strategy=Strategy.MAGIC))


@pytest.mark.benchmark(group="trace-overhead")
def test_bench_traced(db, benchmark):
    run_once(
        benchmark,
        lambda: db.execute(
            QUERY_2, strategy=Strategy.MAGIC, tracer=Tracer()
        ),
    )
