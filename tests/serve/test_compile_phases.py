"""Where a query's time is booked now that the pipeline is one function.

On a fake clock that advances exactly one ``TICK`` per ``parse_statement``
call, per physically planned SPJ box and per table scan: a plan-cache miss
books its compile to ``rewrite`` + ``optimize`` (it used to pay a second,
quiet compile after the run, booked to ``drain``), ``optimize`` is
physical planning on every compile (it used to be lazily inside
``execute``), and the phase sum equals the latency on every way through.
"""

import pytest

import repro.plan.compile  # noqa: F401 - so its parse_statement is patched
from repro import Database
from repro.exec import executor
from repro.obs.phases import check_phase_sum
from repro.plan import PlanCache, planner
from repro.serve import QueryService
from repro.sql import parser
from repro.tpcd import EMP_DEPT_QUERY

from ..plan.test_compile import patch_everywhere
from .test_service import TICK, FakeClock, TickingGate

#: EMP/DEPT under magic: four SPJ boxes to plan, two table scans to run.
MAGIC_BOXES = 4
MAGIC_SCANS = 2


@pytest.fixture
def timed(empdept_catalog, monkeypatch):
    """``service(plan_cache)`` builds a one-worker service whose clock
    ticks once per parse, per planned SPJ box and per scan."""
    clock = FakeClock()
    gate = TickingGate(clock)

    def ticking(fn):
        def wrapper(*args, **kwargs):
            clock.advance(TICK)
            return fn(*args, **kwargs)
        return wrapper

    patch_everywhere(
        monkeypatch, parser.parse_statement, ticking(parser.parse_statement)
    )
    # The executor's planner only: the magic rewrite's own placement query
    # keeps the real one, so ``rewrite`` is the parse tick alone.
    monkeypatch.setattr(
        executor, "plan_select_box", ticking(planner.plan_select_box)
    )
    services = []

    def service(plan_cache=None, **options):
        services.append(QueryService(
            Database(empdept_catalog, faults=gate), workers=1,
            plan_cache=plan_cache, phases=True, clock=clock, **options,
        ))
        return services[-1]

    service.clock, service.gate = clock, gate
    yield service
    gate.release.set()
    for started in services:
        started.close(drain=True, timeout=30)


def run(service, sql, **submit):
    ticket = service.submit(sql, **submit)
    assert ticket.wait(30)
    assert check_phase_sum(ticket.phases.durations, ticket.latency) is None
    return ticket


def ticks(ticket) -> dict:
    return {
        phase: seconds / TICK
        for phase, seconds in ticket.phases.as_dict().items()
    }


def test_a_miss_books_its_compile_to_rewrite_and_optimize(timed):
    service = timed(PlanCache())
    miss = run(service, EMP_DEPT_QUERY, strategy="magic")
    hit = run(service, EMP_DEPT_QUERY, strategy="magic")
    assert (service.stats().plan_cache_misses, service.stats().plan_cache_hits) == (1, 1)
    assert miss.result().rows == hit.result().rows
    assert ticks(miss) == {
        "admit": 0, "queue": 0, "plan_cache": 0,
        "rewrite": 1, "optimize": MAGIC_BOXES, "execute": MAGIC_SCANS,
        "drain": 0,
    }
    # A hit visits neither compile phase, and its drain is a miss's.
    assert ticks(hit) == {
        "admit": 0, "queue": 0, "plan_cache": 0,
        "execute": MAGIC_SCANS, "drain": 0,
    }


def test_an_uncached_compile_reports_optimize_without_validation(timed):
    service = timed(None)
    assert not service._db.engine.validate
    ticket = run(service, EMP_DEPT_QUERY, strategy="magic")
    assert ticks(ticket) == {
        "admit": 0, "queue": 0,
        "rewrite": 1, "optimize": MAGIC_BOXES, "execute": MAGIC_SCANS,
        "drain": 0,
    }


def test_a_tombstoned_shape_books_both_parses_to_rewrite(timed):
    service = timed(PlanCache())
    sql = "select name from emp order by name limit 2"
    first = run(service, sql)    # ``limit ?`` refused, then the literal text
    second = run(service, sql)   # tombstoned: the literal text alone
    assert first.result().rows == second.result().rows
    assert ticks(first)["rewrite"] == 2 and ticks(second)["rewrite"] == 1
    for ticket in (first, second):
        assert ticks(ticket)["optimize"] == 1 and ticks(ticket)["drain"] == 0


def test_a_failed_compile_leaves_its_tail_in_drain(timed):
    service = timed(PlanCache())
    ticket = run(service, "select nosuch from emp")
    assert ticket.state == "failed"
    # Parsed twice (parameterized, then literal), bound neither time: no
    # compile phase was reached, so the time is the failure's tail.
    assert ticks(ticket) == {"admit": 0, "queue": 0, "plan_cache": 0, "drain": 2}


def test_a_cancelled_query_keeps_the_sum(timed):
    service = timed(PlanCache())
    timed.gate.armed = True
    ticket = service.submit(EMP_DEPT_QUERY, strategy="magic")
    assert timed.gate.started.wait(30)
    assert service.cancel(ticket.query_id)
    timed.gate.release.set()
    assert ticket.wait(30) and ticket.state == "cancelled"
    assert check_phase_sum(ticket.phases.durations, ticket.latency) is None
    # It was cancelled in its first scan: compiled in full, stored (the
    # compile finished clean), and the scan's tick is the tail.
    assert ticks(ticket) == {
        "admit": 0, "queue": 0, "plan_cache": 0,
        "rewrite": 1, "optimize": MAGIC_BOXES, "drain": 1,
    }
