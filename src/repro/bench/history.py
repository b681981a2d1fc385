"""Perf-regression history: append-only benchmark records + comparison.

Every benchmark or soak run can append one schema-versioned JSON line to
``BENCH_history.jsonl`` (git SHA, seed, scale, workers, throughput,
latency percentiles, per-operator totals), building a queryable
performance timeline across commits. ``repro bench-compare`` reads the
newest matching record and flags regressions beyond a tolerance against
a named baseline (``BENCH_service.json`` by default), exiting non-zero
so CI can alert -- the observability answer to "did this commit make the
engine slower?".

Resolution order for the history path: an explicit ``path`` argument,
then the ``REPRO_BENCH_HISTORY`` environment variable (set to an empty
string to disable appends entirely), then ``BENCH_history.jsonl`` in the
current directory.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from typing import Optional

from ..errors import HistoryError

#: Record schema version (bump on breaking layout changes).
HISTORY_VERSION = 1

#: Default history file (one JSON object per line, append-only).
DEFAULT_HISTORY_PATH = "BENCH_history.jsonl"

#: Environment variable overriding the history path ("" disables).
HISTORY_ENV = "REPRO_BENCH_HISTORY"

#: Keys every record must carry; everything else is free-form.
REQUIRED_KEYS = ("version", "ts", "benchmark")

#: Baseline metrics compared by :func:`compare`: (key, direction) where
#: direction +1 means higher-is-better (throughput) and -1 means
#: lower-is-better (latency).
COMPARE_METRICS: tuple[tuple[str, int], ...] = (
    ("throughput_qps", +1),
    ("latency_p50_ms", -1),
    ("latency_p95_ms", -1),
    # Per-phase mean milliseconds (see repro.obs.phases) -- present only
    # on records from phase-accounted soaks; compare() skips a phase
    # absent from either side, so pre-phase baselines stay comparable.
    ("phase_admit_ms_avg", -1),
    ("phase_queue_ms_avg", -1),
    ("phase_plan_cache_ms_avg", -1),
    ("phase_rewrite_ms_avg", -1),
    ("phase_optimize_ms_avg", -1),
    ("phase_execute_ms_avg", -1),
    ("phase_drain_ms_avg", -1),
)


def git_sha() -> str:
    """The current short commit SHA, or ``""`` outside a git checkout
    (history must never fail a benchmark run)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def make_record(benchmark: str, **fields) -> dict:
    """A schema-versioned history record for one benchmark run.

    ``benchmark`` names the run (e.g. ``"service_soak"``); ``fields``
    carries the measurements (seed, scale, workers, throughput_qps,
    latency_p50_ms, latency_p95_ms, operator_totals, ...). ``ts`` and
    ``git_sha`` may be supplied explicitly (deterministic tests) and
    default to now / the current checkout.
    """
    record = {
        "version": HISTORY_VERSION,
        "ts": fields.pop("ts", None),
        "git_sha": fields.pop("git_sha", None),
        "benchmark": benchmark,
    }
    if record["ts"] is None:
        record["ts"] = round(time.time(), 3)
    if record["git_sha"] is None:
        record["git_sha"] = git_sha()
    record.update(fields)
    validate_record(record)
    return record


def validate_record(record) -> None:
    """Raise :class:`~repro.errors.HistoryError` unless ``record`` is a
    well-formed history record (envelope keys present and typed; every
    value JSON-serialisable)."""
    if not isinstance(record, dict):
        raise HistoryError(f"history record must be an object, got "
                           f"{type(record).__name__}")
    for key in REQUIRED_KEYS:
        if key not in record:
            raise HistoryError(f"history record missing {key!r}")
    version = record["version"]
    if not isinstance(version, int) or isinstance(version, bool):
        raise HistoryError(f"history record version must be an int, "
                           f"got {version!r}")
    if version != HISTORY_VERSION:
        raise HistoryError(
            f"unsupported history record version {version!r} "
            f"(this build reads version {HISTORY_VERSION})"
        )
    ts = record["ts"]
    if isinstance(ts, bool) or not isinstance(ts, (int, float)) or ts < 0:
        raise HistoryError(f"history record ts must be a non-negative "
                           f"number, got {ts!r}")
    name = record["benchmark"]
    if not isinstance(name, str) or not name:
        raise HistoryError(f"history record benchmark must be a non-empty "
                           f"string, got {name!r}")
    try:
        json.dumps(record)
    except (TypeError, ValueError) as exc:
        raise HistoryError(
            f"history record is not JSON-serialisable: {exc}"
        ) from None


def resolve_path(path: Optional[str] = None) -> Optional[str]:
    """The history file to use: explicit ``path``, else
    ``REPRO_BENCH_HISTORY`` (empty string disables -> ``None``), else
    :data:`DEFAULT_HISTORY_PATH`."""
    if path is not None:
        return path
    env = os.environ.get(HISTORY_ENV)
    if env is not None:
        return env.strip() or None
    return DEFAULT_HISTORY_PATH


def append_record(record: dict, path: Optional[str] = None) -> Optional[str]:
    """Validate and append one record (one JSON line) to the history
    file; returns the path written, or ``None`` when history is disabled
    via ``REPRO_BENCH_HISTORY=""``."""
    validate_record(record)
    target = resolve_path(path)
    if target is None:
        return None
    with open(target, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return target


def load_history(path: str) -> list[dict]:
    """Every record in a history file, validated; raises
    :class:`~repro.errors.HistoryError` naming the first bad line."""
    records: list[dict] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise HistoryError(f"cannot read history {path!r}: {exc}") from None
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise HistoryError(
                f"{path}:{number}: not valid JSON: {exc}"
            ) from None
        try:
            validate_record(record)
        except HistoryError as exc:
            raise HistoryError(f"{path}:{number}: {exc}") from None
        records.append(record)
    return records


def latest(records: list[dict], benchmark: Optional[str] = None) -> dict:
    """The newest record (optionally restricted to one benchmark name);
    raises :class:`~repro.errors.HistoryError` when there is none."""
    candidates = [
        r for r in records
        if benchmark is None or r["benchmark"] == benchmark
    ]
    if not candidates:
        scope = f" for benchmark {benchmark!r}" if benchmark else ""
        raise HistoryError(f"no history records{scope}")
    return candidates[-1]


def compare(
    current: dict, baseline: dict, tolerance: float = 0.2
) -> list[str]:
    """Regressions of ``current`` against ``baseline``, as human-readable
    strings (empty = within tolerance).

    Checks every metric in :data:`COMPARE_METRICS` present in *both*
    records: throughput may drop at most ``tolerance`` (fractional)
    below baseline, latencies may rise at most ``tolerance`` above.
    Metrics absent from either side are skipped -- a baseline without
    operator data cannot fail on it.
    """
    if not 0 <= tolerance:
        raise HistoryError(f"tolerance must be >= 0, got {tolerance}")
    problems: list[str] = []
    for key, direction in COMPARE_METRICS:
        base = baseline.get(key)
        value = current.get(key)
        if base is None or value is None:
            continue
        if isinstance(base, bool) or not isinstance(base, (int, float)):
            raise HistoryError(f"baseline {key} must be a number, "
                               f"got {base!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise HistoryError(f"current {key} must be a number, "
                               f"got {value!r}")
        if direction > 0:
            floor = base * (1 - tolerance)
            if value < floor:
                problems.append(
                    f"{key} regressed: {value} < {round(floor, 3)} "
                    f"(baseline {base}, tolerance {tolerance:.0%})"
                )
        else:
            ceiling = base * (1 + tolerance)
            if value > ceiling:
                problems.append(
                    f"{key} regressed: {value} > {round(ceiling, 3)} "
                    f"(baseline {base}, tolerance {tolerance:.0%})"
                )
    return problems


def phase_totals_from_stats(stats) -> dict:
    """Per-phase mean milliseconds (``phase_<name>_ms_avg``) from a
    :class:`~repro.serve.soak.ServiceStats` phase-histogram export --
    the keys ``repro bench-compare`` gates per-phase regressions on.
    Empty when the run was not phase-accounted."""
    fields: dict = {}
    for name, data in (getattr(stats, "phase_histograms", None) or {}).items():
        count = data.get("count", 0)
        if count:
            fields[f"phase_{name}_ms_avg"] = round(
                data["sum"] / count * 1000.0, 3
            )
    return fields
