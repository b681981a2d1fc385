"""The ``service_cached`` workload: closed-loop clients on a ``QueryService``
with a warm plan cache, and its traced run from each ticket's phases."""

from __future__ import annotations

import gc
import itertools
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from statistics import fmean
from typing import Callable, Iterator, Optional

from repro import Database, QueryService
from repro.errors import ReproError
from repro.obs.phases import PHASES
from repro.plan import PlanCache
from repro.storage import Catalog

import metrics as M
import probes
from calibrate import GAP_S, Machine
from data import build_catalog
from reference import Oracle
from spans import SpanLog
from workloads import DEFAULTS, Cell, Request, Workload, discover_cells, render, request_stream

clock = time.perf_counter

BLOCK = 500  # requests between two looks at the clock
_WARMUP_REQUESTS = 500
_RESULT_TIMEOUT_S = 60.0
#: Serial service-against-direct pairs per round of a traced run.
_PAIRS_PER_ROUND = 50


@dataclass
class Done:
    """One finished request: client-side start and end, the rows (``None``
    when it failed or was refused; dropped once checked) and the ticket,
    if one was issued and the caller keeps tickets."""

    request: Request
    started: float
    ended: float
    rows: Optional[list]
    ticket: object
    ok: bool = False


@dataclass
class Service:
    workload: Workload
    catalog: Catalog
    db: Database
    cells: list[Cell]
    not_applicable: list[Cell]
    timings: dict[str, float]
    clients: int
    cache: PlanCache
    svc: QueryService


def _start(db: Database, clients: int, cache: PlanCache, phases: bool) -> QueryService:
    return QueryService(
        db, workers=clients, max_queue=8, plan_cache=cache, clock=clock, phases=phases
    )


def run_block(svc: QueryService, requests: list[Request], clients: int) -> tuple[float, list[Done]]:
    """``clients`` threads share ``requests``; each sends its next one when
    the ticket of its last has resolved. Returns the wall time and what
    became of every request, in request order."""
    numbered = iter(enumerate(requests))
    take = threading.Lock()
    done: list[Optional[Done]] = [None] * len(requests)

    def client() -> None:
        while True:
            with take:
                item = next(numbered, None)
            if item is None:
                return
            index, request = item
            ticket, rows = None, None
            started = clock()
            try:
                ticket = svc.submit(request.sql, strategy=request.cell.strategy)
                rows = ticket.result(timeout=_RESULT_TIMEOUT_S).rows
            except (ReproError, TimeoutError):
                pass
            done[index] = Done(request, started, clock(), rows, ticket)

    threads = [threading.Thread(target=client) for _ in range(clients)]
    started = clock()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return clock() - started, [d for d in done if d is not None]


def _warm(service: Service, svc: QueryService, seed: int) -> None:
    """Every cell once, serially, so that each plan is filled exactly once;
    then a stretch of the mix through the clients."""
    for cell in service.cells:
        svc.submit(render(cell.family), strategy=cell.strategy).result(timeout=_RESULT_TIMEOUT_S)
    stream = request_stream(f"{seed}/warm-up", service.cells, service.workload)
    run_block(svc, list(itertools.islice(stream, _WARMUP_REQUESTS)), service.clients)


def set_up(workload: Workload, seed: int) -> Service:
    catalog, timings = build_catalog(workload.tpcd_scale, workload.empdept)
    db = Database(catalog, validate=False)
    cells, not_applicable = discover_cells(db, workload)
    clients = min(2, os.cpu_count() or 1)
    cache = PlanCache()
    service = Service(
        workload, catalog, db, cells, not_applicable, timings, clients, cache,
        _start(db, clients, cache, phases=False),
    )
    _warm(service, service.svc, seed)
    return service


def tear_down(service: Service) -> None:
    service.svc.close()


@dataclass
class Lane:
    """One service under load: what it is fed, and what came of it.
    ``done`` holds the finished requests in stream order, each checked;
    ``units`` one unit per block of ``BLOCK`` requests;
    ``first_block`` the service and cache counters over the first block,
    whose requests depend on the seed alone, so those counts repeat
    exactly; ``whole_run`` the same counters over all blocks."""

    svc: QueryService
    cache: PlanCache
    stream: Iterator[Request]
    keep_tickets: bool
    done: list[Done] = field(default_factory=list)
    units: list[M.Unit] = field(default_factory=list)
    start: dict[str, int] = field(default_factory=dict)
    first_block: dict[str, int] = field(default_factory=dict)
    whole_run: dict[str, int] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(wall for _, wall, _ in self.units)


def _check(oracle: Oracle, done: list[Done], keep_tickets: bool) -> None:
    """Mark each request right or wrong, then let go of its rows (and of
    its ticket, which holds them too) so memory does not grow with the run."""
    for d in done:
        literals = {**DEFAULTS[d.request.cell.family], **dict(d.request.literals)}
        d.ok = d.rows is not None and oracle.check(
            d.request.cell.family, literals, d.request.cell.strategy.value, d.rows
        )
        d.rows = None
        if not keep_tickets:
            d.ticket = None


def _counters(lane: Lane) -> dict[str, int]:
    stats, cache = lane.svc.stats(), lane.cache.snapshot()
    return {
        "serve.submitted": stats.submitted, "serve.completed": stats.completed,
        "serve.failed": stats.failed, "serve.rejected": stats.rejected,
        "plan.cache_hits": cache["hits"], "plan.cache_misses": cache["misses"],
    }


def _since_start(lane: Lane) -> dict[str, int]:
    now = _counters(lane)
    return {key: now[key] - lane.start[key] for key in now}


def run_lanes(
    service: Service, machine: Machine, oracle: Oracle, seconds: float, lanes: list[Lane],
    each_round: Optional[Callable[[], None]] = None,
) -> None:
    """Rounds of one block per lane (and ``each_round()``), until
    ``seconds`` have gone. The lanes take turns block by block, so that a
    change in the machine's speed during the run falls on all of them
    alike. Each block is checked as soon as its clock has stopped."""
    deadline = clock() + seconds
    for lane in lanes:
        lane.start = _counters(lane)
    while True:
        for lane in lanes:
            requests = list(itertools.islice(lane.stream, BLOCK))
            gc.collect()
            machine.sample(GAP_S)
            wall, done = run_block(lane.svc, requests, service.clients)
            lane.units.append((
                clock() - wall / 2, wall,
                [(d.request.cell.name, d.ended - d.started) for d in done],
            ))
            if not lane.done:
                lane.first_block = _since_start(lane)
            _check(oracle, done, lane.keep_tickets)
            lane.done.extend(done)
        if each_round is not None:
            each_round()
        if clock() >= deadline:
            break
    for lane in lanes:
        lane.whole_run = _since_start(lane)


def measure(service: Service, seed: int, seconds: float, machine: Machine) -> dict:
    oracle = Oracle(service.catalog)
    lane = Lane(
        service.svc, service.cache,
        request_stream(f"{seed}/timed", service.cells, service.workload), keep_tickets=False,
    )
    run_lanes(service, machine, oracle, seconds, [lane])
    return {
        "attempted": len(lane.done),
        "failed": sum(not d.ok for d in lane.done),
        "checked": oracle.checked,
        "units": lane.units,
    }


# -- the traced run -----------------------------------------------------------


def measure_traced(service: Service, seed: int, seconds: float, machine: Machine, out_dir: Path) -> dict:
    """Three things in turn: a block on the untraced service as the
    reference, a block on a second service with ``phases=True`` and its own
    warm cache, and serial pairs of one request through the service and
    then straight into a cached ``Database.execute``."""
    name = service.workload.name
    oracle = Oracle(service.catalog)
    direct = Database(service.catalog, validate=False, plan_cache=service.cache)
    serial = request_stream(f"{seed}/serial", service.cells, service.workload)
    through: list[Done] = []
    straight: list[Done] = []

    def serial_pairs() -> None:
        for request in itertools.islice(serial, _PAIRS_PER_ROUND):
            started = clock()
            ticket = service.svc.submit(request.sql, strategy=request.cell.strategy)
            served = ticket.result(timeout=_RESULT_TIMEOUT_S)
            middle = clock()
            answered = direct.execute(request.sql, strategy=request.cell.strategy)
            ended = clock()
            through.append(Done(request, started, middle, served.rows, None))
            straight.append(Done(request, middle, ended, answered.rows, None))
        _check(oracle, through[-_PAIRS_PER_ROUND:] + straight[-_PAIRS_PER_ROUND:], keep_tickets=False)

    cache = PlanCache()
    svc = _start(service.db, service.clients, cache, phases=True)
    try:
        _warm(service, svc, seed)
        reference = Lane(
            service.svc, service.cache,
            request_stream(f"{seed}/reference", service.cells, service.workload), keep_tickets=False,
        )
        traced = Lane(
            svc, cache,
            request_stream(f"{seed}/traced", service.cells, service.workload), keep_tickets=True,
        )
        run_lanes(service, machine, oracle, seconds, [reference, traced], serial_pairs)
    finally:
        svc.close()
    overhead_ms = (
        fmean(d.ended - d.started for d in through) - fmean(d.ended - d.started for d in straight)
    ) * 1000

    log = SpanLog()
    phase_s: dict[str, list[float]] = defaultdict(list)
    ticket_s: list[float] = []
    counts: dict[str, int] = {}
    for index, d in enumerate(traced.done):
        query_id = f"{name}/{d.request.cell.name}/{index}"
        root = log.add("client.request", d.started, d.ended, None, query_id)
        if d.ticket is None or d.ticket.phases is None or d.ticket.latency is None:
            continue
        ticket_s.append(d.ticket.latency)
        at = d.ticket.submitted_at
        durations = d.ticket.phases.durations
        for phase in PHASES:
            spent = durations.get(phase, 0.0)
            phase_s[phase].append(spent)
            if phase in durations:
                log.add(f"serve.{phase}", at, at + spent, root, query_id)
                at += spent
        if index < BLOCK and d.ok:
            M.add_exec_counters(counts, d.ticket.result().metrics.as_dict())

    n = len(ticket_s)
    out = M.blank_per_layer()

    def put(metric: str, value: float, samples: int) -> None:
        out[metric] = {"value": value, "n": samples}

    for phase in ("admit", "queue", "plan_cache", "rewrite", "execute", "drain"):
        put(f"serve.{phase}_ms", fmean(phase_s[phase]) * 1000, n)
    put("serve.overhead_ms", overhead_ms, len(through))
    put("serve.latency_ms_p99", M.percentile(ticket_s, 0.99) * 1000, n)
    put("exec.ms", fmean(phase_s["execute"]) * 1000, n)
    for key, value in {**traced.first_block, **counts}.items():
        put(key, value, BLOCK)
    executed = sum(phase_s["execute"][:BLOCK])
    put("exec.ns_per_work", executed * 1e9 / counts["exec.total_work"], BLOCK)
    hits, misses = traced.whole_run["plan.cache_hits"], traced.whole_run["plan.cache_misses"]
    put("plan.cache_hit_rate", hits / (hits + misses), hits + misses)
    put("rewrite.not_applicable", len(service.not_applicable), 1)
    out.update(probes.storage(service.catalog))
    out.update(probes.plan_cache(
        service.catalog, [(render(cell.family), cell.strategy) for cell in service.cells]
    ))
    put("storage.stats_s", service.timings["stats_s"], 1)
    put("tpcd.load_s", service.timings["load_s"], 1)
    put("trace.phases_overhead_ratio",
        (traced.wall / len(traced.done)) / (reference.wall / len(reference.done)), len(traced.done))

    log.write(out_dir / f"trace-{name}.json", workload=name, seed=seed)
    done = reference.done + traced.done + through + straight
    phase_sum = sum(fmean(samples) for samples in phase_s.values())
    return {
        "attempted": len(done),
        "failed": sum(not d.ok for d in done),
        "checked": oracle.checked,
        "metrics": out,
        "checks": {
            "phase_sum_over_ticket_latency": phase_sum / fmean(ticket_s),
            "plan_cache_hit_rate": out["plan.cache_hit_rate"]["value"],
        },
    }
