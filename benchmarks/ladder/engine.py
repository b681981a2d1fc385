"""The three engine workloads: single-threaded closed loops over
``Database.execute``, and the stepwise traced run that splits one query
into its layers from outside."""

from __future__ import annotations

import gc
import random
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from statistics import fmean
from typing import Callable, Optional

from repro import Database, Tracer
from repro.errors import ReproError
from repro.exec import ExecutionContext, execute_graph
from repro.plan import plan_select_box
from repro.qgm import SelectBox, build_qgm, iter_boxes
from repro.sql import parse_statement, tokenize
from repro.storage import Catalog

import metrics as M
import probes
from calibrate import GAP_S, Machine
from data import build_catalog
from reference import Oracle, rows_match
from spans import SpanLog
from workloads import DEFAULTS, Cell, Workload, discover_cells, render

clock = time.perf_counter


@dataclass
class Engine:
    workload: Workload
    catalog: Catalog
    db: Database
    cells: list[Cell]
    not_applicable: list[Cell]
    timings: dict[str, float]
    sql: dict[Cell, str]


@dataclass
class Samples:
    """What the passes of one kind measured: one unit per pass, and each
    cell's latest answer."""

    units: list[M.Unit] = field(default_factory=list)
    last_rows: dict[Cell, list] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0


def set_up(workload: Workload, seed: int) -> Engine:
    catalog, timings = build_catalog(workload.tpcd_scale, workload.empdept)
    db = Database(catalog, validate=False)
    cells, not_applicable = discover_cells(db, workload)
    sql = {cell: render(cell.family) for cell in cells}
    engine = Engine(workload, catalog, db, cells, not_applicable, timings, sql)
    for _ in range(workload.warmup_passes):
        for cell in cells:
            db.execute(engine.sql[cell], strategy=cell.strategy)
    return engine


def tear_down(engine: Engine) -> None:
    """Nothing to stop: an engine workload owns no thread."""


def run_passes(
    engine: Engine, oracle: Oracle, machine: Machine, seconds: float, rng: random.Random,
    kinds: dict[str, Callable],
) -> dict[str, Samples]:
    """Rounds of one whole pass per kind, until ``seconds`` have gone; each
    pass runs every cell once in a fresh seeded order. A kind's
    ``one_query(cell, pass_number)`` returns the rows or raises
    ``ReproError``; only the calls to it are timed. The kinds take turns
    pass by pass, so that a change in the machine's speed during the run
    falls on all of them alike. Between passes every answer is checked and
    dropped (so memory does not grow with the number of passes), garbage is
    collected and the machine-speed kernel runs; the collector stays on
    inside a pass."""
    taken = {kind: Samples() for kind in kinds}
    deadline = clock() + seconds
    while True:
        for kind, one_query in kinds.items():
            samples = taken[kind]
            order = list(engine.cells)
            rng.shuffle(order)
            gc.collect()
            machine.sample(GAP_S)
            done = []
            started = clock()
            for cell in order:
                before = clock()
                try:
                    rows = one_query(cell, len(samples.units))
                except ReproError:
                    rows = None
                done.append((cell, clock() - before, rows))
            ended = clock()
            samples.units.append((
                (started + ended) / 2, ended - started,
                [(cell.name, latency) for cell, latency, _ in done],
            ))
            for cell, _, rows in done:
                samples.attempted += 1
                if rows is None or not oracle.check(
                    cell.family, DEFAULTS[cell.family], cell.strategy.value, rows
                ):
                    samples.failed += 1
                else:
                    samples.last_rows[cell] = rows
        if clock() >= deadline:
            return taken


def _facade(engine: Engine) -> Callable:
    """The untraced kind of pass: ``Database.execute`` and nothing else."""
    return lambda cell, _pass: engine.db.execute(engine.sql[cell], strategy=cell.strategy).rows


def measure(engine: Engine, seed: int, seconds: float, machine: Machine) -> dict:
    oracle = Oracle(engine.catalog)
    kinds = {"facade": _facade(engine)}
    samples = run_passes(engine, oracle, machine, seconds, random.Random(seed), kinds)["facade"]
    return {
        "attempted": samples.attempted,
        "failed": samples.failed,
        "checked": oracle.checked,
        "units": samples.units,
    }


# -- the traced run -----------------------------------------------------------


def _stepwise(
    engine: Engine, cell: Cell, log: Optional[SpanLog] = None, query_id: str = "", tracer=None
) -> dict:
    """One query, layer by layer; with a ``log``, one span per call under a
    ``query`` root.

    The lexer runs first on its own, outside the root: the parser lexes
    again internally, so ``sql.parse`` covers both and the probe gives the
    lexer's share of it."""
    sql, catalog = engine.sql[cell], engine.catalog
    seconds: dict[str, float] = defaultdict(float)

    def step(name: str, call, parent):
        started = clock()
        out = call()
        ended = clock()
        if log is not None:
            log.add(name, started, ended, parent, query_id)
        seconds[name] += ended - started
        return out

    tokens = step("sql.lex", lambda: tokenize(sql), None)
    root_started = clock()
    root = log.add("query", root_started, root_started, None, query_id) if log is not None else None
    statement = step("sql.parse", lambda: parse_statement(sql), root)
    graph = step("qgm.build", lambda: build_qgm(statement, catalog), root)
    boxes_built = sum(1 for _ in iter_boxes(graph.root))
    graph = step("rewrite", lambda: engine.db.engine.rewrite(graph, cell.strategy), root)
    boxes = list(iter_boxes(graph.root))
    plans = {}
    for box in boxes:
        if isinstance(box, SelectBox):
            plans[box.id] = step("plan.select", lambda: plan_select_box(catalog, box), root)

    def execute():
        ctx = ExecutionContext(catalog, graph.root, "recompute", tracer=tracer)
        ctx.seed_plans(plans)
        started = clock()
        out = execute_graph(graph, catalog, ctx=ctx)
        seconds["exec.graph"] = clock() - started
        return out

    rows, work = step("exec", execute, root)
    ended = clock()
    if log is not None:
        log.close(root, ended)
    return {
        "rows": rows,
        "seconds": seconds,
        "root_s": ended - root_started,
        "work": work.as_dict(),
        "counts": {
            "sql.tokens": len(tokens),
            "qgm.boxes_built": boxes_built,
            "rewrite.boxes_out": len(boxes),
            "plan.select_boxes": len(plans),
        },
    }


def operator_kind(name: str, kind: str) -> str:
    """The ``exec.op.*`` bucket of one ``Tracer`` span."""
    if kind == "query":
        return "other"
    if name.startswith("table "):
        return "scan"
    if name.startswith("scan "):
        return "subquery" if name.endswith("(correlated)") else "scan"
    if name.startswith("scalar subquery"):
        return "subquery"
    for prefix, bucket in (
        ("index lookup", "index_lookup"), ("hash join", "hash_join"), ("filter", "filter"),
        ("groupby", "groupby"), ("select", "select"),
    ):
        if name.startswith(prefix):
            return bucket
    return "other"


def fold_operators(span: dict, totals: dict[str, float]) -> None:
    """Add the self time of ``span`` and of everything below it, by bucket."""
    children = span["children"]
    self_s = span["elapsed_s"] - sum(child["elapsed_s"] for child in children)
    totals[operator_kind(span["name"], span["kind"])] += self_s
    for child in children:
        fold_operators(child, totals)


def measure_traced(engine: Engine, seed: int, seconds: float, machine: Machine, out_dir: Path) -> dict:
    """Three kinds of pass in turn: the untraced facade as the reference,
    the stepwise pipeline with one span per call, and the stepwise pipeline
    under a ``Tracer`` for operator self times."""
    oracle = Oracle(engine.catalog)
    name = engine.workload.name
    log = SpanLog()
    records: list[tuple[Cell, dict]] = []
    pass_counts: list[dict[str, int]] = []
    operator_s: dict[str, float] = defaultdict(float)
    operator_trees: dict[str, dict] = {}
    traced_exec: list[float] = []
    traced_graph: list[float] = []  # execute_graph alone: what the Tracer's root span covers

    def stepwise(cell: Cell, pass_number: int):
        record = _stepwise(engine, cell, log, f"{name}/{cell.name}/{pass_number}")
        records.append((cell, record))
        if len(pass_counts) == pass_number:
            pass_counts.append(defaultdict(int))
        counts = pass_counts[pass_number]
        for key, value in record["counts"].items():
            counts[key] += value
        M.add_exec_counters(counts, record["work"])
        return record["rows"]

    def under_tracer(cell: Cell, _pass: int):
        tracer = Tracer()
        record = _stepwise(engine, cell, tracer=tracer)
        export = tracer.export(sql=engine.sql[cell], strategy=cell.strategy.value)
        for span in export["spans"]:
            if span["kind"] == "query":
                fold_operators(span, operator_s)
        operator_trees[cell.name] = export
        traced_exec.append(record["seconds"]["exec"])
        traced_graph.append(record["seconds"]["exec.graph"])
        return record["rows"]

    taken = run_passes(
        engine, oracle, machine, seconds, random.Random(seed),
        {"facade": _facade(engine), "stepwise": stepwise, "tracer": under_tracer},
    )
    reference, stepped = taken["facade"], taken["stepwise"]
    # The stepwise path must give what the facade gives, not only what the
    # oracle expects, or the layer times describe another pipeline.
    mismatched = sum(
        1 for cell, record in records
        if not rows_match(record["rows"], reference.last_rows.get(cell, []))
    )
    count_drift = sum(1 for counts in pass_counts if counts != pass_counts[0])

    layer_s = {key: [r["seconds"][key] for _, r in records]
               for key in ("sql.lex", "sql.parse", "qgm.build", "rewrite", "plan.select", "exec")}
    n = len(records)
    per_query = {key: fmean(values) * 1000 for key, values in layer_s.items()}
    stepwise_sum_ms = sum(per_query[k] for k in ("sql.parse", "qgm.build", "rewrite", "plan.select", "exec"))
    facade_ms = fmean(s for _, _, operations in reference.units for _, s in operations) * 1000
    counts = pass_counts[0]
    exec_work = sum(r["work"]["total_work"] for _, r in records)

    out = M.blank_per_layer()

    def put(metric: str, value: float, samples: int) -> None:
        out[metric] = {"value": value, "n": samples}

    put("sql.lex_ms", per_query["sql.lex"], n)
    put("sql.parse_ms", per_query["sql.parse"] - per_query["sql.lex"], n)
    put("qgm.build_ms", per_query["qgm.build"], n)
    put("rewrite.ms", per_query["rewrite"], n)
    for strategy in M.STRATEGIES:
        mine = [r["seconds"]["rewrite"] for cell, r in records if cell.strategy.value == strategy]
        if mine:
            put(f"rewrite.{strategy}_ms", fmean(mine) * 1000, len(mine))
    put("rewrite.not_applicable", len(engine.not_applicable), 1)
    put("plan.select_ms", per_query["plan.select"], n)
    put("exec.ms", per_query["exec"], n)
    put("exec.ns_per_work", sum(layer_s["exec"]) * 1e9 / exec_work, n)
    for key, value in counts.items():
        put(key, value, len(stepped.units))
    traced_queries = len(traced_exec)
    for bucket in M.OPERATORS:
        put(f"exec.op.{bucket}_ms", operator_s[bucket] * 1000 / traced_queries, traced_queries)
    out.update(probes.storage(engine.catalog))
    out.update(probes.plan_cache(
        engine.catalog, [(engine.sql[cell], cell.strategy) for cell in engine.cells]
    ))
    put("storage.stats_s", engine.timings["stats_s"], 1)
    put("tpcd.load_s", engine.timings["load_s"], 1)
    put("api.facade_ms", facade_ms - stepwise_sum_ms, n)
    root_ms = fmean(r["root_s"] for _, r in records) * 1000
    put("trace.stepwise_overhead_ratio", root_ms / facade_ms, n)
    put("trace.tracer_overhead_ratio", fmean(traced_exec) * 1000 / per_query["exec"], traced_queries)

    log.write(out_dir / f"trace-{name}.json", workload=name, seed=seed, operator_trees=operator_trees)
    front_ms = stepwise_sum_ms - per_query["exec"]
    return {
        "attempted": sum(samples.attempted for samples in taken.values()),
        "failed": sum(samples.failed for samples in taken.values()) + mismatched + count_drift,
        "checked": oracle.checked,
        "metrics": out,
        "checks": {
            "exec_share_of_stepwise": per_query["exec"] / stepwise_sum_ms,
            "frontend_share_of_stepwise": front_ms / stepwise_sum_ms,
            "operator_sum_over_traced_exec": sum(operator_s.values()) / sum(traced_graph),
        },
    }
