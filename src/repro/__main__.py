"""Command-line interface.

Usage::

    python -m repro shell                      # interactive SQL shell
    python -m repro run script.sql             # execute a SQL script
    python -m repro figures [--scale 0.01]     # regenerate the paper figures
    python -m repro explain "SELECT ..." --db script.sql --strategy magic

The shell keeps one in-memory database per session; ``\\strategy magic``
switches the decorrelation strategy, ``\\explain on`` prints the rewritten
QGM before each query.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import Database, Strategy
from .errors import BudgetExceeded, QueryCancelled, ReproError

#: Guardrail exit codes for ``repro run`` (distinct and nonzero so scripts
#: and CI can tell a timeout from a row-budget trip from an ordinary error).
EXIT_ERROR = 1
EXIT_TIMEOUT = 124
EXIT_BUDGET = 125
EXIT_CANCELLED = 130

_STRATEGY_NAMES = {s.value: s for s in Strategy}
_STRATEGY_NAMES.update({s.label.lower(): s for s in Strategy})


def _parse_strategy(name: str) -> Strategy:
    try:
        return _STRATEGY_NAMES[name.lower()]
    except KeyError:
        valid = ", ".join(sorted({s.value for s in Strategy}))
        raise SystemExit(f"unknown strategy {name!r}; choose from: {valid}")


def _print_result(result) -> None:
    if result.columns:
        print(" | ".join(result.columns))
        print("-+-".join("-" * len(c) for c in result.columns))
    for row in result.rows:
        print(" | ".join("NULL" if v is None else str(v) for v in row))
    print(
        f"({len(result.rows)} rows; {result.metrics.subquery_invocations} "
        f"subquery invocations; work {result.metrics.total_work()})"
    )


def cmd_run(args: argparse.Namespace) -> int:
    """``repro run``: execute a SQL script file statement by statement.

    Guardrail trips exit with distinct nonzero codes: ``124`` for a
    wall-clock timeout, ``125`` for any row budget, ``130`` for
    cancellation; other engine errors exit ``1``.
    """
    from .faults import FaultRegistry
    from .guard import Limits

    try:
        faults = FaultRegistry.parse(args.faults) if args.faults else None
    except ValueError as exc:
        raise SystemExit(f"--faults: {exc}")
    db = Database(faults=faults)
    with open(args.script) as handle:
        sql = handle.read()
    strategy = _parse_strategy(args.strategy)
    limits = None
    if args.timeout is not None or args.max_rows is not None:
        limits = Limits(timeout=args.timeout, max_rows_scanned=args.max_rows)
    failure = None
    try:
        results = db.execute_script(
            sql, strategy=strategy, cse_mode=args.cse_mode,
            limits=limits, fallback=args.fallback,
        )
    except ReproError as exc:
        results, failure = getattr(exc, "results", []), exc
    for result in results:
        if result.columns:  # a query: DDL and INSERT print nothing
            for event in result.degradations:
                print(f"-- {event}")
            _print_result(result)
    if failure is None:
        return 0
    if isinstance(failure, BudgetExceeded):
        print(f"guardrail: {failure}", file=sys.stderr)
        if failure.metrics is not None:
            print(f"guardrail: work at trip time: {failure.metrics.as_dict()}",
                  file=sys.stderr)
        return EXIT_TIMEOUT if failure.budget == "timeout" else EXIT_BUDGET
    if isinstance(failure, QueryCancelled):
        print(f"guardrail: {failure}", file=sys.stderr)
        return EXIT_CANCELLED
    print(f"error: {type(failure).__name__}: {failure}", file=sys.stderr)
    return EXIT_ERROR


def cmd_shell(args: argparse.Namespace) -> int:
    """``repro shell``: the interactive SQL loop."""
    db = Database()
    strategy = _parse_strategy(args.strategy)
    explain = False
    print("repro SQL shell -- \\q quits, \\strategy <name>, \\explain on|off")
    buffer = ""
    while True:
        try:
            prompt = "....> " if buffer else "repro> "
            line = input(prompt)
        except (EOFError, KeyboardInterrupt):
            print()
            return 0
        stripped = line.strip()
        if not buffer and stripped.startswith("\\"):
            parts = stripped.split()
            if parts[0] in ("\\q", "\\quit"):
                return 0
            if parts[0] == "\\strategy" and len(parts) > 1:
                strategy = _parse_strategy(parts[1])
                print(f"strategy = {strategy.label}")
            elif parts[0] == "\\explain":
                explain = len(parts) > 1 and parts[1] == "on"
                print(f"explain = {explain}")
            else:
                print("commands: \\q, \\strategy <name>, \\explain on|off")
            continue
        buffer += line + "\n"
        if not stripped.endswith(";"):
            continue
        sql, buffer = buffer, ""
        try:
            if explain:
                try:
                    print(db.explain(sql, strategy))
                except ReproError:
                    pass
            result = db.execute(sql, strategy=strategy)
            _print_result(result)
        except ReproError as exc:
            print(f"error: {exc}")


def _write_json(path: str, payload, note: str = "") -> None:
    import json

    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}{note}")


def _summarise_service(title: str, report, args) -> None:
    """One line per side, then whatever the side under test recorded:
    breakers, traced operators, slow queries, overload control, cache."""
    for side in report.sides.values():
        stats = side.stats
        print(
            f"{title} [{side.label}]: {side.elapsed:.1f}s, "
            f"{stats.submitted} submitted "
            f"({stats.completed} ok / {stats.failed} failed / "
            f"{stats.cancelled} cancelled / {stats.rejected} "
            f"rejected), {side.throughput_qps:.1f} q/s, "
            f"p50 {stats.latency_p50_ms} ms, "
            f"p95 {stats.latency_p95_ms} ms, "
            f"{side.goodput} within deadline, "
            f"{side.futile_executions} futile executions, "
            f"{side.outcomes.get('late', 0)} late, "
            f"{side.checked_answers} answers checked, "
            f"{len(stats.breaker_transitions)} breaker transitions"
        )
    side = report.primary
    stats = side.stats
    for strategy, snapshot in sorted(stats.breakers.items()):
        print(f"  breaker[{strategy}]: {snapshot['state']}")
    if side.operator_totals:
        print("  per-operator totals (traced queries, top 10 by elapsed):")
        for op in side.operator_totals[:10]:
            print(
                f"    {op['name']:<32} calls={op['calls']:>6} "
                f"rows_out={op['rows_out']:>8} "
                f"elapsed={op['elapsed_ms']:>10.3f}ms"
            )
    if stats.slow_queries or stats.slow_total:
        from .obs import render_slow_log

        slow = stats.slow_queries
        print(
            f"  slow queries (> {args.slow_ms} ms): "
            f"{stats.slow_total} total, showing {min(len(slow), 5)}"
        )
        print(render_slow_log(slow[-5:], indent="    "))
    if stats.overload:
        print(
            f"  {side.label}: shed={stats.shed} "
            f"expired_in_queue={stats.expired_in_queue} "
            f"rejected_futile={stats.rejected_futile} "
            f"brownout_transitions={len(stats.brownout_transitions)}"
        )
        for step in stats.brownout_transitions:
            print(
                f"    brownout {step['from']} -> {step['to']} "
                f"({step['rung']}) at utilization "
                f"{step['utilization']:.2f}"
            )
    if stats.plan_cache:
        print("  cache: " + " ".join(
            f"{name}={stats.plan_cache.get(name)}" for name in (
                "hit_rate", "hits", "misses", "invalidations", "entries",
            )
        ))


def _summarise_worker(title: str, report) -> None:
    side, facts = report.primary, report.facts
    outcomes = ", ".join(
        f"{k}={v}" for k, v in sorted(side.outcomes.items())
    )
    print(
        f"{title}: {side.offered} epochs x "
        f"{facts['n_workers']} workers "
        f"in {side.elapsed:.2f}s -- {outcomes or 'no epochs'}; "
        f"{facts['kills']} kills, {facts['workers_lost']} workers lost, "
        f"{facts['retries']} retries, "
        f"recovery {facts['recovery_time_s']:.3f}s, "
        f"{facts['messages']} messages"
    )
    for kind, n in sorted(report.event_counts.items()):
        print(f"  {kind:<18} {n}")


def cmd_soak(args: argparse.Namespace) -> int:
    """``repro soak``: the soak harness, one shell for every scenario.

    By default the chaos scenario: a seeded mixed workload (EMP/DEPT +
    TPC-D Q1/Q2/Q3) across worker threads with injected faults, random
    cancellations and tight deadlines; ``--overload``, ``--plan-cache``
    and ``--real-workers`` pick another (:mod:`repro.serve.soak`). Every
    run verifies the metamorphic invariant per query, the counter and
    event reconciliation and the scenario's gates. Exit codes: ``0`` all
    invariants held, ``1`` at least one violation (wrong answer, untyped
    error, hang, counter mismatch, lost A/B win), ``2`` bad configuration.
    A ``faulthandler`` watchdog -- per side, 3x the scenario's expected
    duration (at least 30 s) plus 60 s -- dumps every thread's stack and
    kills the process if the run wedges, rather than hang CI.
    """
    import faulthandler
    import functools

    from .obs import EventLog, FileSink, RingSink, TeeSink
    from .serve import soak

    trace = args.trace or bool(args.trace_out)
    common = dict(seed=args.seed, workers=args.workers,
                  max_queue=args.max_queue, scale=args.scale)
    if args.real_workers:
        sides, expected = 1, args.epochs * soak.WORKER_EPOCH_SECONDS
        run = functools.partial(
            soak.run_worker_soak,
            epochs=args.epochs, n_workers=args.workers, seed=args.seed,
            faults=args.faults, kill_per_epoch=not args.no_kill, trace=trace,
        )
    else:
        if args.overload:
            scenario = soak.overload_scenario(**common)
        elif args.plan_cache:
            scenario = soak.plan_cache_scenario(**common)
        else:
            scenario = soak.chaos_scenario(
                seconds=args.seconds, faults=args.faults,
                cancel_rate=args.cancel_rate,
                tight_deadline_rate=args.tight_deadline_rate,
                breaker_threshold=args.breaker_threshold,
                breaker_cooldown=args.breaker_cooldown,
                fault_scope=args.fault_scope, slow_query_ms=args.slow_ms,
                trace=trace, **common,
            )
        sides, expected = len(scenario.sides), scenario.arrivals.seconds
        run = functools.partial(soak.run_scenario, scenario)

    # A replaced stderr (in-process test capture) has no fileno -- run
    # unguarded then.
    watchdog = True
    try:
        faulthandler.enable()
        faulthandler.dump_traceback_later(
            sides * (max(expected * 3, 30.0) + 60.0), exit=True
        )
    except (OSError, RuntimeError):
        watchdog = False
    events_log = file_sink = ring = None
    if args.events_out:
        ring = RingSink(capacity=262144)
        file_sink = FileSink(args.events_out, mode="w")
        events_log = EventLog(TeeSink(ring, file_sink))
    try:
        report = run(events=events_log)
    except ValueError as exc:
        print(f"soak: bad configuration: {exc}", file=sys.stderr)
        return 2
    finally:
        if watchdog:
            faulthandler.cancel_dump_traceback_later()
        if file_sink is not None:
            file_sink.close()

    if ring is not None:
        from .obs import validate_events

        try:
            count = validate_events(ring.events())
        except ReproError as exc:
            print(f"soak: event stream invalid: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {args.events_out} ({count} events)")
    if args.trace_out and report.traces:
        _write_json(
            args.trace_out, report.traces[-1],
            f" ({report.facts['trace_reconciled']}/{len(report.traces)} "
            f"epochs reconciled)",
        )
    elif args.trace_out:
        print("soak: no traced epochs to export", file=sys.stderr)
    if args.json:
        _write_json(args.json, report.as_dict())
    title = "soak" if report.scenario == "chaos" else f"{report.scenario} soak"
    if args.real_workers:
        _summarise_worker(title, report)
    else:
        _summarise_service(title, report, args)
    if not report.ok:
        for violation in report.all_violations():
            print(f"VIOLATION: {violation}", file=sys.stderr)
        return 1
    print(f"{title}: all invariants held")
    return 0


def _worker_faults(spec: str | None, real: bool):
    """The ``repro parallel --faults`` registry, or ``None``. A spec needs
    ``--real``, and every rule must match a site a worker process honours
    (:func:`~repro.parallel.workers.worker_faults`)."""
    from .parallel.workers import worker_faults

    if spec and not real:
        raise ValueError(
            "needs --real (worker faults fire in the measured runs; the "
            "simulator runs fault-free)"
        )
    return worker_faults(spec)


def cmd_parallel(args: argparse.Namespace) -> int:
    """``repro parallel``: the section-6 shared-nothing comparison.

    Prints (and with ``--json`` writes) the simulator's counts of NI and
    the decorrelated plan; ``--real`` also runs both on worker processes
    five times each, with ``--faults`` injected there. Exit ``0`` when
    every answer agrees and, fault-free, all four counts are exact in
    every measured run (both back-ends run one plan, so a difference is a
    bug); ``1`` otherwise; ``2`` on a bad ``--faults``.
    """
    from .bench.calibration import (
        calibration_ok,
        render_calibration,
        run_calibration,
        simulated_report,
    )
    from .tpcd import load_empdept

    try:
        faults = _worker_faults(args.faults, args.real)
    except ValueError as exc:
        print(f"parallel: --faults: {exc}", file=sys.stderr)
        return 2
    catalog = load_empdept(
        n_depts=args.depts, n_emps=args.emps, n_buildings=8, seed=args.seed
    )
    dept_rows = list(catalog.table("dept").rows)
    emp_rows = list(catalog.table("emp").rows)

    if args.real:
        report = run_calibration(
            dept_rows, emp_rows, n_workers=args.workers, faults=faults
        )
    else:
        report = simulated_report(dept_rows, emp_rows, n_workers=args.workers)
    print(render_calibration(report))
    ok = calibration_ok(report)
    if args.json:
        _write_json(args.json, report)
    return 0 if ok else 1


def cmd_figures(args: argparse.Namespace) -> int:
    """``repro figures``: regenerate the paper's tables and figures."""
    from .bench.figures import ALL_FIGURES, table1

    print(f"Table 1 at scale factor {args.scale}:")
    for name, (expected, actual) in table1(args.scale).items():
        print(f"  {name:<10} expected={expected:>8}  generated={actual:>8}")
    print()
    ok = True
    for name, fn in ALL_FIGURES.items():
        if args.only and name not in args.only:
            continue
        report = fn(
            scale_factor=args.scale, repeat=args.repeat, trace=args.operators
        )
        report.print()
        ok = ok and report.shape_holds()
        print()
    return 0 if ok else 1


#: ``repro explain``/``stats`` query-name shorthands (require ``--tpcd``).
_NAMED_QUERIES = ("q1", "q2", "q3", "q1v", "empdept")


def _resolve_query(name_or_sql: str, tpcd_scale) -> tuple[str, bool]:
    """Resolve a query-name shorthand (q1/q2/q3/q1v/empdept) against the
    TPC-D workload; anything else is returned as SQL text verbatim.
    Returns (sql, is_named)."""
    key = name_or_sql.strip().lower()
    if key not in _NAMED_QUERIES:
        return name_or_sql, False
    from . import tpcd

    named = {
        "q1": tpcd.QUERY_1,
        "q1v": tpcd.QUERY_1_VARIANT,
        "q2": tpcd.QUERY_2,
        "q3": tpcd.QUERY_3,
        "empdept": tpcd.EMP_DEPT_QUERY,
    }
    return named[key], True


def _explain_db(args: argparse.Namespace, needs_data: bool) -> Database:
    """The database for ``explain``/``stats``: ``--tpcd SCALE`` loads the
    paper's workload, ``--db script.sql`` runs a schema script."""
    if args.tpcd is not None:
        from .tpcd import load_empdept, load_tpcd

        catalog = load_tpcd(scale_factor=args.tpcd)
        load_empdept(catalog=catalog)
        return Database(catalog=catalog)
    db = Database()
    if args.db:
        with open(args.db) as handle:
            db.execute_script(handle.read())
    elif needs_data:
        raise SystemExit(
            "explain --analyze needs data: pass --tpcd SCALE or --db script"
        )
    return db


def cmd_explain(args: argparse.Namespace) -> int:
    """``repro explain``: print the (rewritten) QGM of one query.

    ``--analyze`` executes the query under a tracer and prints the
    physical plan annotated EXPLAIN ANALYZE-style (per-operator calls,
    rows, elapsed), the rewrite timeline, a per-operator breakdown and a
    metrics reconciliation footer. ``--tpcd SCALE`` loads the paper's
    TPC-D workload so the named queries q1/q2/q3 (and q1v/empdept) work
    as shorthands. ``--trace-out PATH`` additionally writes the full span
    tree as versioned JSON (see ``repro trace-check``)."""
    sql, is_named = _resolve_query(args.query, args.tpcd)
    if is_named and args.tpcd is None:
        raise SystemExit(
            f"named query {args.query!r} needs --tpcd SCALE for its data"
        )
    db = _explain_db(args, needs_data=args.analyze)
    strategy = _parse_strategy(args.strategy)
    if not args.analyze:
        print(db.explain(sql, strategy))
        return 0

    from .trace import Tracer

    tracer = Tracer()
    print(db.explain(
        sql, strategy, analyze=True, cse_mode=args.cse_mode, tracer=tracer,
    ))
    if args.trace_out:
        _write_json(
            args.trace_out, tracer.export(sql=sql, strategy=strategy.value)
        )
    return 0


def _serve_paper_workload(args: argparse.Namespace, **service_options):
    """The paper trio (Q1/Q2/Q3) plus EMP/DEPT across all four strategies
    through a traced query service, drained: ``(service, tickets)``."""
    from .serve.service import QueryService
    from .tpcd import (
        EMP_DEPT_QUERY, QUERY_1, QUERY_2, QUERY_3, load_empdept, load_tpcd,
    )

    catalog = load_tpcd(scale_factor=args.scale)
    load_empdept(catalog=catalog)
    db = Database(catalog=catalog)
    queries = [QUERY_1, QUERY_2, QUERY_3, EMP_DEPT_QUERY]
    strategies = ["ni", "kim", "dayal", "magic"]
    with QueryService(
        db, workers=args.workers, trace=True, **service_options
    ) as service:
        tickets = [
            service.submit(sql, strategy=strategy)
            for sql in queries for strategy in strategies
        ]
        for ticket in tickets:
            ticket.wait(timeout=120)
        service.drain(timeout=120)
    return service, tickets


def cmd_stats(args: argparse.Namespace) -> int:
    """``repro stats``: run a seeded workload through the query service
    with tracing on and print the service metrics export.

    The workload is the paper trio (Q1/Q2/Q3) plus EMP/DEPT across all
    four strategies -- enough traffic to populate the latency and
    queue-depth histograms and the per-query trace ring. ``--format
    prometheus`` prints the text exposition format; ``json`` (default)
    the full snapshot including recent traces."""
    service, _ = _serve_paper_workload(
        args, trace_history=args.trace_history
    )
    stats = service.stats()
    if args.phases:
        histograms = stats.phase_histograms
        if not histograms:
            print("stats: no phase samples recorded", file=sys.stderr)
            return 1
        print(f"{'phase':<12} {'count':>7} {'mean_ms':>10} {'total_ms':>12}"
              f"  cumulative buckets (le: n)")
        for name, data in histograms.items():
            count = data["count"]
            mean_ms = (data["sum"] / count * 1000.0) if count else 0.0
            buckets = " ".join(
                f"{bound:g}:{n}" for bound, n in data["buckets"].items()
            )
            print(
                f"{name:<12} {count:>7} {mean_ms:>10.3f} "
                f"{data['sum'] * 1000.0:>12.3f}  {buckets}"
            )
        return 0
    print(stats.export(args.format))
    return 0


def cmd_trace_check(args: argparse.Namespace) -> int:
    """``repro trace-check``: validate an exported trace JSON file.

    Checks the file against the versioned schema and verifies it
    round-trips byte-identically through the parser (the CI schema
    check). Exit 0 when both hold, 1 otherwise."""
    import json

    from .errors import TraceError
    from .trace import trace_round_trips

    try:
        with open(args.file) as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"trace-check: cannot read {args.file}: {exc}", file=sys.stderr)
        return 1
    try:
        if not trace_round_trips(payload):
            print(
                f"trace-check: {args.file} does not round-trip through the "
                "parser", file=sys.stderr,
            )
            return 1
    except TraceError as exc:
        print(f"trace-check: {args.file}: {exc}", file=sys.stderr)
        return 1
    spans = payload.get("spans", [])
    print(
        f"trace-check: {args.file} OK (version {payload.get('version')}, "
        f"{len(spans)} root spans)"
    )
    return 0


def _lint_units(args: argparse.Namespace) -> list[tuple[str, str]]:
    """Expand the lint targets into ``(kind, payload)`` work units.

    ``kind`` is ``"sql"`` (payload: SQL text) or ``"py"`` (payload: a
    Python file or directory for the concurrency lint). A target that
    names an existing directory or ``.py`` file is concurrency-linted;
    a ``.sql`` file is split into statements; anything else is SQL text.
    """
    from .sql.splitter import split_statements

    units: list[tuple[str, str]] = []
    for target in args.targets:
        if os.path.isdir(target) or (
            target.endswith(".py") and os.path.isfile(target)
        ):
            units.append(("py", target))
        elif target.endswith(".sql") and os.path.isfile(target):
            with open(target) as handle:
                units.extend(("sql", s) for s in split_statements(handle.read()))
        else:
            units.append(("sql", target))
    if args.script:
        with open(args.script) as handle:
            units.extend(("sql", s) for s in split_statements(handle.read()))
    return units


def cmd_lint(args: argparse.Namespace) -> int:
    """``repro lint``: static analysis of queries, scripts and modules.

    Each target argument may be SQL text, a ``.sql`` script (split into
    statements), or a Python file/directory (run through the concurrency
    lint, :mod:`repro.analyze.conc`). ``--json`` emits one machine-readable
    report instead of human output.

    Exit codes (stable, scriptable):

    * ``0`` -- every target linted, no error-level diagnostics;
    * ``1`` -- at least one error-level diagnostic was reported;
    * ``2`` -- usage or I/O error (no target, unreadable file/schema).
    """
    import json

    from .analyze import Severity

    if not args.targets and not args.script:
        print("error: no lint target (pass SQL text, a .sql/.py file, "
              "a directory, or --script)", file=sys.stderr)
        return 2
    db = Database()
    try:
        if args.db:
            with open(args.db) as handle:
                db.execute_script(handle.read())
        units = _lint_units(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error in --db script: {exc}", file=sys.stderr)
        return 2

    failed = False
    json_diags: list[dict] = []
    n_sql = sum(1 for kind, _ in units if kind == "sql")
    statement_no = 0
    for kind, payload in units:
        if kind == "py":
            from .analyze.conc import lint_paths

            diagnostics = lint_paths([payload])
            failed = failed or any(
                d.severity is Severity.ERROR for d in diagnostics
            )
            if args.json:
                json_diags.extend(
                    _diag_json(d, target=payload) for d in diagnostics
                )
            else:
                for d in diagnostics:
                    print(str(d))
                print(f"{payload}: {len(diagnostics)} concurrency finding(s)")
        else:
            statement_no += 1
            report = db.analyze(payload)
            failed = failed or not report.ok
            if args.json:
                json_diags.extend(
                    _diag_json(d, target=payload) for d in report.diagnostics
                )
            else:
                if n_sql > 1:
                    print(f"-- statement {statement_no} " + "-" * 40)
                print(report.render(show_analysis=not args.quiet))
                if n_sql > 1:
                    print()
    if args.json:
        print(json.dumps({
            "version": 1,
            "diagnostics": json_diags,
            "errors": sum(1 for d in json_diags if d["severity"] == "error"),
            "warnings": sum(
                1 for d in json_diags if d["severity"] == "warning"
            ),
        }, indent=2, sort_keys=True))
    return 1 if failed else 0


def _diag_json(diagnostic, target: str) -> dict:
    """One diagnostic as a flat JSON-ready object (``--json`` output)."""
    return {
        "code": diagnostic.code,
        "severity": diagnostic.severity.value,
        "message": diagnostic.message,
        "hint": diagnostic.hint,
        "target": target,
    }


def cmd_report(args: argparse.Namespace) -> int:
    """``repro report``: regenerate the evaluation as a Markdown document."""
    from .bench.report import generate_report

    text = generate_report(
        scale_factor=args.scale, repeat=args.repeat, figures=args.only
    )
    if args.out == "-":
        print(text)
    else:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.out}")
    return 0


def cmd_events(args: argparse.Namespace) -> int:
    """``repro events``: inspect a structured event-log JSONL file.

    Validates the stream (schema version, strictly increasing sequence
    numbers, known kinds) and prints the events one per line, optionally
    filtered by kind or query id and limited to the newest ``--tail``.
    ``--json`` prints the raw JSON lines instead; ``--check`` only
    validates and prints per-kind counts. Exit 1 on an invalid stream.
    """
    import json

    from .errors import EventLogError
    from .obs import count_by_kind, load_events, render_event

    try:
        events = load_events(args.file)
    except (OSError, EventLogError) as exc:
        print(f"events: {exc}", file=sys.stderr)
        return 1
    selected = [
        e for e in events
        if (args.kind is None or e["kind"] == args.kind)
        and (args.query_id is None or e["query_id"] == args.query_id)
    ]
    if args.tail is not None:
        selected = selected[-args.tail:]
    if args.check:
        print(f"events: {args.file} OK ({len(events)} events, "
              f"{len(selected)} selected)")
        for kind, count in sorted(count_by_kind(selected).items()):
            print(f"  {kind:<24} {count}")
        return 0
    for event in selected:
        if args.json:
            print(json.dumps(event, sort_keys=True))
        else:
            print(render_event(event))
    return 0


def cmd_why(args: argparse.Namespace) -> int:
    """``repro why``: reconstruct one query's lifecycle from an event log.

    Joins the structured event log (a soak's ``--events-out`` JSONL) for
    one query id into an annotated timeline: lifecycle steps offset from
    submission, the phase budget as a proportional waterfall, brownout
    rung, degradations, budget trips, overlapping service context
    (breaker/brownout movement), and -- with ``--trace`` pointing at an
    exported v2 trace -- the grafted worker-process spans. ``--json``
    prints the machine-readable join instead. Exit 1 when the log cannot
    be read or holds no events for the query id.
    """
    import json

    from .errors import EventLogError, TraceError
    from .obs import build_timeline, load_events, render_timeline

    try:
        events = load_events(args.events)
    except (OSError, EventLogError) as exc:
        print(f"why: {exc}", file=sys.stderr)
        return 1
    trace = None
    if args.trace:
        from .trace import validate_trace

        try:
            with open(args.trace) as handle:
                trace = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"why: cannot read trace {args.trace}: {exc}",
                  file=sys.stderr)
            return 1
        try:
            validate_trace(trace)
        except TraceError as exc:
            print(f"why: {args.trace}: {exc}", file=sys.stderr)
            return 1
    try:
        timeline = build_timeline(args.query_id, events, trace=trace)
    except EventLogError as exc:
        print(f"why: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(timeline, indent=2, sort_keys=True))
    else:
        print(render_timeline(timeline))
    return 0


def cmd_slow(args: argparse.Namespace) -> int:
    """``repro slow``: run the paper workload through the query service
    with a slow-query threshold and print the captured slow-query log.

    The workload matches ``repro stats`` (Q1/Q2/Q3 + EMP/DEPT across the
    four strategies). Queries over ``--threshold-ms`` are captured with
    their SQL, strategy, degradations, metrics and -- since the service
    runs traced -- their top operators. ``--json`` dumps the raw records.
    """
    import json

    from .obs import render_slow_log

    service, tickets = _serve_paper_workload(
        args, slow_query_ms=args.threshold_ms
    )
    records = service.slow_queries()
    total = service.slow_log.total
    print(
        f"slow queries (> {args.threshold_ms} ms): {total} of "
        f"{len(tickets)} submitted"
    )
    if args.json:
        print(json.dumps(records, indent=2, sort_keys=True))
    elif records:
        print(render_slow_log(records, indent="  "))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Complex Query Decorrelation (ICDE 1996) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a SQL script")
    p_run.add_argument("script")
    p_run.add_argument("--strategy", default="ni")
    p_run.add_argument("--cse-mode", default="recompute", dest="cse_mode")
    p_run.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per query; exit 124 when tripped",
    )
    p_run.add_argument(
        "--max-rows", type=int, default=None, dest="max_rows", metavar="N",
        help="budget on base-table rows scanned per query; exit 125 when tripped",
    )
    p_run.add_argument(
        "--faults", default=None, metavar="SEED:SPEC",
        help="deterministic fault injection, e.g. '42:exec.join=0.01' "
             "(overrides REPRO_FAULTS)",
    )
    p_run.add_argument(
        "--fallback", action="store_true",
        help="degrade requested strategy -> magic -> nested iteration on "
             "rewrite failure",
    )
    p_run.set_defaults(fn=cmd_run)

    p_soak = sub.add_parser(
        "soak", help="chaos soak: concurrent mixed workload with faults"
    )
    p_soak.add_argument("--workers", type=int, default=8)
    p_soak.add_argument("--seconds", type=float, default=20.0)
    p_soak.add_argument("--seed", type=int, default=42)
    p_soak.add_argument(
        "--faults", default=None, metavar="SEED:SPEC",
        help="deterministic fault injection, e.g. "
             "'42:storage.scan=0.002,rewrite.strategy=0.05'",
    )
    p_soak.add_argument("--scale", type=float, default=0.005,
                        help="TPC-D scale factor for the soak database")
    p_soak.add_argument("--cancel-rate", type=float, default=0.05,
                        help="probability a background canceller targets an "
                             "in-flight query each tick")
    p_soak.add_argument("--tight-deadline-rate", type=float, default=0.1,
                        help="fraction of submissions given a millisecond "
                             "deadline")
    p_soak.add_argument("--max-queue", type=int, default=64)
    p_soak.add_argument("--breaker-threshold", type=int, default=3)
    p_soak.add_argument("--breaker-cooldown", type=float, default=1.0)
    p_soak.add_argument("--fault-scope", choices=["shared", "worker"],
                        default="shared")
    p_soak.add_argument("--trace", action="store_true",
                        help="trace every query; report per-operator totals "
                             "(with --real-workers: run each epoch under a "
                             "coordinator tracer that grafts worker spans)")
    p_soak.add_argument("--trace-out", default=None, metavar="PATH",
                        help="with --real-workers, write the last epoch's "
                             "v2 trace export (grafted worker spans) as "
                             "JSON -- feed it to 'repro why --trace' "
                             "(implies --trace)")
    p_soak.add_argument("--json", default=None, metavar="PATH",
                        help="write the full report as JSON")
    p_soak.add_argument("--events-out", default=None, metavar="PATH",
                        help="stream structured lifecycle events as JSONL "
                             "(validated after the run)")
    p_soak.add_argument("--slow-ms", type=float, default=None, metavar="MS",
                        help="capture queries slower than this threshold "
                             "on the service slow-query log")
    which = p_soak.add_mutually_exclusive_group()
    which.add_argument("--real-workers", action="store_true",
                       help="chaos-soak the real worker-process executor "
                            "instead of the query service (--workers then "
                            "counts processes; one is SIGKILLed per epoch)")
    which.add_argument("--overload", action="store_true",
                       help="run the phased overload soak instead: replay "
                            "one open-loop arrival schedule against "
                            "adaptive overload control and the FIFO "
                            "baseline, and compare within-deadline "
                            "goodput")
    which.add_argument("--plan-cache", action="store_true",
                       help="run the plan-cache A/B soak instead: replay "
                            "one open-loop template workload with the "
                            "plan cache on and off, gate on strict "
                            "goodput win + hit rate > 0.9 + exact "
                            "counter/event reconciliation")
    p_soak.add_argument("--epochs", type=int, default=4,
                        help="query epochs for --real-workers")
    p_soak.add_argument("--no-kill", action="store_true",
                        help="with --real-workers, skip the per-epoch "
                             "SIGKILL (fault spec only)")
    p_soak.set_defaults(fn=cmd_soak)

    p_par = sub.add_parser(
        "parallel",
        help="section-6 shared-nothing comparison: simulated counts, or "
             "--real worker processes checked against them",
    )
    p_par.add_argument("--workers", "--nodes", type=int, default=4,
                       dest="workers",
                       help="cluster size (simulator nodes / real processes)")
    p_par.add_argument("--depts", type=int, default=40,
                       help="DEPT rows to generate")
    p_par.add_argument("--emps", type=int, default=300,
                       help="EMP rows to generate")
    p_par.add_argument("--seed", type=int, default=2,
                       help="data-generator seed")
    p_par.add_argument("--real", action="store_true",
                       help="also execute on real worker processes and "
                            "print the measured-vs-simulated report")
    p_par.add_argument("--faults", default=None, metavar="SEED:SPEC",
                       help="worker fault injection for the measured runs "
                            "(needs --real), e.g. '7:worker.crash=0.05'")
    p_par.add_argument("--json", default=None, metavar="PATH",
                       help="write the printed report as JSON")
    p_par.set_defaults(fn=cmd_parallel)

    p_shell = sub.add_parser("shell", help="interactive SQL shell")
    p_shell.add_argument("--strategy", default="ni")
    p_shell.set_defaults(fn=cmd_shell)

    p_fig = sub.add_parser("figures", help="regenerate the paper's figures")
    p_fig.add_argument("--scale", type=float, default=0.01)
    p_fig.add_argument("--repeat", type=int, default=1)
    p_fig.add_argument("--only", nargs="*", default=None,
                       help="e.g. --only figure8 figure9")
    p_fig.add_argument("--operators", action="store_true",
                       help="add a traced run per strategy and print "
                            "per-operator breakdowns")
    p_fig.set_defaults(fn=cmd_figures)

    p_lint = sub.add_parser(
        "lint", help="static analysis: diagnostics, patterns, applicability, "
                     "and the concurrency lint for Python modules"
    )
    p_lint.add_argument(
        "targets", nargs="*",
        help="SQL text, .sql scripts, or Python files/directories "
             "(the latter run the concurrency lint); exit 0 clean, "
             "1 on errors, 2 on usage/I-O problems",
    )
    p_lint.add_argument("--script", help="lint every statement of a script")
    p_lint.add_argument("--db", help="SQL script creating the schema")
    p_lint.add_argument("--quiet", action="store_true",
                        help="diagnostics only (no pattern/strategy report)")
    p_lint.add_argument("--json", action="store_true",
                        help="machine-readable report on stdout")
    p_lint.set_defaults(fn=cmd_lint)

    p_explain = sub.add_parser(
        "explain",
        help="print the rewritten QGM (or, with --analyze, the executed "
             "plan with per-operator profiling)",
    )
    p_explain.add_argument(
        "query",
        help="SQL text, or a named query (q1/q2/q3/q1v/empdept, with --tpcd)",
    )
    p_explain.add_argument("--db", help="SQL script creating the schema")
    p_explain.add_argument("--strategy", default="magic")
    p_explain.add_argument(
        "--analyze", action="store_true",
        help="execute the query under a tracer and annotate the plan with "
             "actual per-operator rows/calls/elapsed",
    )
    p_explain.add_argument(
        "--tpcd", type=float, default=None, metavar="SCALE",
        help="load the TPC-D + EMP/DEPT workload at this scale factor",
    )
    p_explain.add_argument("--cse-mode", default="recompute", dest="cse_mode")
    p_explain.add_argument(
        "--trace-out", default=None, metavar="PATH", dest="trace_out",
        help="write the span tree as versioned JSON (with --analyze)",
    )
    p_explain.set_defaults(fn=cmd_explain)

    p_stats = sub.add_parser(
        "stats",
        help="run a traced workload through the query service and print "
             "its metrics export",
    )
    p_stats.add_argument("--scale", type=float, default=0.005,
                         help="TPC-D scale factor for the workload")
    p_stats.add_argument("--workers", type=int, default=4)
    p_stats.add_argument("--trace-history", type=int, default=64,
                         dest="trace_history",
                         help="ring-buffer size for per-query trace summaries")
    p_stats.add_argument("--format", choices=["json", "prometheus"],
                         default="json")
    p_stats.add_argument("--phases", action="store_true",
                         help="print the per-phase latency histogram table "
                              "instead of the full export")
    p_stats.set_defaults(fn=cmd_stats)

    p_trace = sub.add_parser(
        "trace-check",
        help="validate an exported trace JSON file (schema + round-trip)",
    )
    p_trace.add_argument("file")
    p_trace.set_defaults(fn=cmd_trace_check)

    p_events = sub.add_parser(
        "events",
        help="inspect/validate a structured event-log JSONL file",
    )
    p_events.add_argument("file")
    p_events.add_argument("--kind", default=None,
                          help="only events of this kind "
                               "(e.g. query.finished)")
    p_events.add_argument("--query-id", type=int, default=None,
                          dest="query_id",
                          help="only events attributed to this query id")
    p_events.add_argument("--tail", type=int, default=None, metavar="N",
                          help="only the newest N selected events")
    p_events.add_argument("--json", action="store_true",
                          help="print raw JSON lines instead of the "
                               "rendered form")
    p_events.add_argument("--check", action="store_true",
                          help="validate only; print per-kind counts")
    p_events.set_defaults(fn=cmd_events)

    p_why = sub.add_parser(
        "why",
        help="explain one query's lifecycle from an event log "
             "(timeline, phase waterfall, worker spans)",
    )
    p_why.add_argument("query_id", type=int,
                       help="the query id to explain (see repro events)")
    p_why.add_argument("--events", required=True, metavar="PATH",
                       help="event-log JSONL (a soak's --events-out file)")
    p_why.add_argument("--trace", default=None, metavar="PATH",
                       help="exported v2 trace JSON whose grafted worker "
                            "spans to include")
    p_why.add_argument("--json", action="store_true",
                       help="print the machine-readable join instead of "
                            "the rendered waterfall")
    p_why.set_defaults(fn=cmd_why)

    p_slow = sub.add_parser(
        "slow",
        help="run the paper workload with a slow-query threshold and "
             "print the captured slow-query log",
    )
    p_slow.add_argument("--threshold-ms", type=float, default=50.0,
                        dest="threshold_ms",
                        help="capture queries slower than this (ms)")
    p_slow.add_argument("--scale", type=float, default=0.005,
                        help="TPC-D scale factor for the workload")
    p_slow.add_argument("--workers", type=int, default=4)
    p_slow.add_argument("--json", action="store_true",
                        help="dump the raw slow-query records as JSON")
    p_slow.set_defaults(fn=cmd_slow)

    p_report = sub.add_parser(
        "report", help="write the full evaluation as Markdown"
    )
    p_report.add_argument("--scale", type=float, default=0.01)
    p_report.add_argument("--repeat", type=int, default=1)
    p_report.add_argument("--out", default="-",
                          help="output path ('-' for stdout)")
    p_report.add_argument("--only", nargs="*", default=None)
    p_report.set_defaults(fn=cmd_report)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
