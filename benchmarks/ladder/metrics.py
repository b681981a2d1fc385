"""The metric registry of the ladder, and the statistics every metric uses.

``BENCHMARK.json`` is generated from this module (``run.py
--write-manifest``) and ``run.py --selfcheck`` holds the committed file to
it, so the names, units and bounds the driver reads are the ones the code
reports.
"""

from __future__ import annotations

import math
from statistics import geometric_mean, median
from typing import Sequence

#: How long one run measures, in seconds (``run_seconds`` of the manifest).
RUN_SECONDS = 20

#: (name, unit, better, bound). The bound is the share of the parent's
#: median by which the metric may worsen. ``service_cached`` sets every
#: timing bound: over four sets of ten seeds its quartiles were 0.03 to
#: 0.065 apart in three, and 0.12 to 0.145 in the one run while the machine
#: was at its slowest, against 0.01 to 0.05 on the single-threaded
#: workloads. Three times that is over the 0.25 the contract allows, so
#: 0.25 it is. ``peak_rss_mb`` moved by up to 0.034 between two sets on
#: ``service_cached``. README.md, "Bounds and --agree", has the numbers.
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("throughput_qps", "queries/s", "higher", 0.25),
    ("query_ms_geomean", "ms", "lower", 0.25),
    ("slowest_cell_ms", "ms", "lower", 0.25),
    ("latency_ms_p50", "ms", "lower", 0.25),
    ("latency_ms_p95", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
)

OPERATORS = ("scan", "index_lookup", "hash_join", "filter", "groupby", "subquery", "select", "other")
EXEC_COUNTERS = (
    "total_work", "subquery_invocations", "rows_scanned", "index_lookups", "index_rows",
    "rows_joined", "rows_grouped", "boxes_recomputed", "rows_materialized",
    "peak_rows_materialized", "rows_output",
)
STRATEGIES = ("ni", "kim", "dayal", "magic", "magic_opt")

#: (name, unit, better). Times are means per query unless the name says
#: otherwise; counts are per pass (engine workloads) or per request block
#: (``service_cached``) and repeat exactly at a given seed.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("sql.lex_ms", "ms", "lower"),
    ("sql.parse_ms", "ms", "lower"),
    ("sql.tokens", "count", "lower"),
    ("qgm.build_ms", "ms", "lower"),
    ("qgm.boxes_built", "count", "lower"),
    ("rewrite.ms", "ms", "lower"),
    *((f"rewrite.{s}_ms", "ms", "lower") for s in STRATEGIES),
    ("rewrite.boxes_out", "count", "lower"),
    ("rewrite.not_applicable", "count", "lower"),
    ("plan.select_ms", "ms", "lower"),
    ("plan.select_boxes", "count", "lower"),
    ("plan.cache_prepare_ms", "ms", "lower"),
    ("plan.cache_fill_ms", "ms", "lower"),
    ("plan.cache_hits", "count", "higher"),
    ("plan.cache_misses", "count", "lower"),
    ("plan.cache_hit_rate", "ratio", "higher"),
    ("exec.ms", "ms", "lower"),
    ("exec.ns_per_work", "ns", "lower"),
    *((f"exec.{c}", "count", "lower") for c in EXEC_COUNTERS),
    *((f"exec.op.{op}_ms", "ms", "lower") for op in OPERATORS),
    ("storage.scan_us_per_krow", "us", "lower"),
    ("storage.index_probe_us", "us", "lower"),
    ("storage.stats_s", "s", "lower"),
    ("tpcd.load_s", "s", "lower"),
    ("api.facade_ms", "ms", "lower"),
    ("serve.admit_ms", "ms", "lower"),
    ("serve.queue_ms", "ms", "lower"),
    ("serve.plan_cache_ms", "ms", "lower"),
    ("serve.rewrite_ms", "ms", "lower"),
    ("serve.execute_ms", "ms", "lower"),
    ("serve.drain_ms", "ms", "lower"),
    ("serve.overhead_ms", "ms", "lower"),
    ("serve.latency_ms_p99", "ms", "lower"),
    ("serve.submitted", "count", "higher"),
    ("serve.completed", "count", "higher"),
    ("serve.failed", "count", "lower"),
    ("serve.rejected", "count", "lower"),
    ("trace.stepwise_overhead_ratio", "ratio", "lower"),
    ("trace.tracer_overhead_ratio", "ratio", "lower"),
    ("trace.phases_overhead_ratio", "ratio", "lower"),
    ("machine.kernel_ms", "ms", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

#: Per-layer metrics that must be bit-identical between two runs at one seed.
COUNT_METRICS = tuple(name for name, unit, _ in PER_LAYER if unit == "count")


def blank_per_layer() -> dict[str, dict]:
    """Every per-layer metric at 0 with no sample: what a workload reports
    for a layer it does not exercise."""
    return {name: {"value": 0, "n": 0} for name, *_ in PER_LAYER}


def add_exec_counters(totals: dict[str, int], work: dict[str, int]) -> None:
    """Add one execution's ``Metrics.as_dict()`` to ``totals`` under the
    ``exec.*`` names: sums, except the high-water mark, which is a maximum."""
    for counter in EXEC_COUNTERS:
        key = f"exec.{counter}"
        if counter == "peak_rows_materialized":
            totals[key] = max(totals.get(key, 0), work[counter])
        else:
            totals[key] = totals.get(key, 0) + work[counter]


def at_reference_speed(metrics: dict[str, dict], slowdown: float) -> None:
    """Restate, in place, every time and rate in ``metrics`` at the speed
    of the reference machine (see ``calibrate.py``); counts, ratios and
    sizes stay as they are."""
    for name, entry in metrics.items():
        if UNITS[name] in ("s", "ms", "us", "ns"):
            entry["value"] /= slowdown
        elif UNITS[name].endswith("/s"):
            entry["value"] *= slowdown


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


#: One pass over the cells, or one block of requests: the moment of its
#: middle, its timed wall time, and the (cell, latency) of each operation,
#: in seconds.
Unit = tuple[float, float, list[tuple[str, float]]]


def end_to_end(units: list[Unit], machine=None) -> dict[str, dict]:
    """The latency and throughput metrics of an untraced run; the worker
    adds ``setup_s`` and ``peak_rss_mb``.

    With a ``machine`` each unit is first restated at the machine speed of
    its own moment (``calibrate.Machine.slowdown_near``); without one the
    times stay as measured. Throughput and the percentiles are then taken
    within each unit and the median over the units is reported, so that a
    burst of interference, which spoils a few units, does not own the tail
    of one pooled sample."""
    by_cell: dict[str, list[float]] = {}
    rates, p50s, p95s = [], [], []
    for middle, wall, operations in units:
        slowdown = machine.slowdown_near(middle) if machine is not None else 1.0
        latencies_ms = [seconds / slowdown * 1000 for _, seconds in operations]
        for (cell, _), latency in zip(operations, latencies_ms):
            by_cell.setdefault(cell, []).append(latency)
        rates.append(len(operations) / (wall / slowdown))
        p50s.append(percentile(latencies_ms, 0.50))
        p95s.append(percentile(latencies_ms, 0.95))
    medians = [median(samples) for samples in by_cell.values()]
    per_cell = min(len(samples) for samples in by_cell.values())
    return {
        "throughput_qps": {"value": median(rates), "n": len(units)},
        "query_ms_geomean": {"value": geometric_mean(medians), "n": per_cell},
        "slowest_cell_ms": {"value": max(medians), "n": per_cell},
        "latency_ms_p50": {"value": median(p50s), "n": len(units)},
        "latency_ms_p95": {"value": median(p95s), "n": len(units)},
    }
