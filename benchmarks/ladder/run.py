"""The benchmark ladder: four workloads, end to end and layer by layer.

    python3 benchmarks/ladder/run.py --seed 42            # everything, by name
    python3 benchmarks/ladder/run.py --workload frontend --seed 7 --seconds 20 --trace 0
    python3 benchmarks/ladder/run.py --selfcheck
    python3 benchmarks/ladder/run.py --agree

Every workload runs in a child interpreter (``worker.py``) with
``PYTHONHASHSEED=0`` and no ``REPRO_*`` variable. With ``--workload`` the
last line printed is the one JSON object the driver reads. See README.md.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

import metrics as M

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MANIFEST = ROOT / "BENCHMARK.json"
FORBIDDEN_IMPORTS = ("repro.bench", "repro.serve.soak", "repro.__main__")
_CHILD_TIMEOUT_S = 170
#: Runs per set of ``--agree``: as many as the driver makes per workload and set.
_AGREE_RUNS = 10

# For the parts that run in this process (manifest, self-check): they import
# ``workloads`` and through it the engine.
sys.path.insert(0, str(SRC))


def run_child(workload: str, seed: int, seconds: float, trace: int, setup_reps: int = 3) -> dict:
    """Run one workload in a fresh interpreter and return what it printed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--setup-reps", str(setup_reps),
        "--out", str(OUT),
    ]
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, timeout=_CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"ladder: {workload} (trace {trace}) exited with {done.returncode}")
    payload = json.loads(done.stdout.decode().splitlines()[-1])
    expected = M.PER_LAYER if trace else M.END_TO_END
    missing = [name for name, *_ in expected if name not in payload["metrics"]]
    if missing:
        raise SystemExit(f"ladder: {workload} (trace {trace}) did not report {missing}")
    return payload


def audit_line(workload: str, seed: int, payload: dict) -> str:
    """What an untraced run measured before it was restated, and by what."""
    return json.dumps({
        "workload": workload, "seed": seed, "slowdown": payload["slowdown"],
        "kernel_ms": payload["kernel_ms"], "as_measured": payload["as_measured"],
    })


def driver_line(payload: dict) -> str:
    """The one object the driver reads, with exactly its keys."""
    return json.dumps({
        "correct": payload["failed"] == 0,
        "attempted": payload["attempted"],
        "failed": payload["failed"],
        "metrics": {
            name: {"value": entry["value"], "unit": M.UNITS[name]}
            for name, entry in payload["metrics"].items()
        },
    })


def manifest() -> dict:
    from workloads import WORKLOADS

    return {
        "command": ["python3", "benchmarks/ladder/run.py"],
        "paths": ["benchmarks/ladder"],
        "run_seconds": M.RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in M.END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better} for name, unit, better in M.PER_LAYER
        ],
    }


# -- the full run -------------------------------------------------------------

#: What each workload was chosen to show, checked on its traced run:
#: (check reported by the worker, lowest and highest acceptable value).
SEPARATION = {
    "set_oriented": [("exec_share_of_stepwise", 0.85, 1.0),
                     ("operator_sum_over_traced_exec", 0.95, 1.05)],
    "nested_iteration": [("exec_share_of_stepwise", 0.85, 1.0),
                         ("operator_sum_over_traced_exec", 0.95, 1.05)],
    "frontend": [("frontend_share_of_stepwise", 0.55, 1.0),
                 ("operator_sum_over_traced_exec", 0.95, 1.05)],
    "service_cached": [("phase_sum_over_ticket_latency", 0.99, 1.01),
                       ("plan_cache_hit_rate", 0.99, 1.0)],
}


def _print_metrics(payload: dict, bounds: dict[str, float]) -> None:
    raw = payload.get("as_measured", {})
    for name, entry in payload["metrics"].items():
        bound = f"  bound {bounds[name]:.2f}" if name in bounds else ""
        measured = f"  as measured {raw[name]:.6g}" if name in raw else ""
        print(f"  {name:34s} {entry['value']:>14.6g} {M.UNITS[name]:9s} n={entry['n']}{bound}{measured}")


def full_run(seed: int, seconds: float) -> int:
    from workloads import WORKLOADS

    bounds = {name: bound for name, _unit, _better, bound in M.END_TO_END}
    summary: dict = {"seed": seed, "seconds": seconds, "workloads": {}}
    ok = True
    for name in WORKLOADS:
        untraced = run_child(name, seed, seconds, 0)
        traced = run_child(name, seed, seconds, 1)
        attempted = untraced["attempted"] + traced["attempted"]
        failed = untraced["failed"] + traced["failed"]
        checked = untraced["checked"] + traced["checked"]
        print(f"\n== {name}: {len(untraced['cells'])} cells, seed {seed}, {seconds:g} s per run ==")
        print(f" end to end (untraced run; times divided by {untraced['slowdown']:.4f}, "
              f"kernel {untraced['kernel_ms']:.3f} ms)")
        _print_metrics(untraced, bounds)
        print(f"  {'failed_share':34s} {failed / attempted:>14.6g} ratio  n={attempted}")
        print(f" per layer (traced run; times divided by {traced['slowdown']:.4f})")
        _print_metrics(traced, bounds)
        print(f" answers checked against the oracle: {checked}; failed operations: {failed}")
        if traced["not_applicable"]:
            print(f" not applicable (typed refusal): {', '.join(traced['not_applicable'])}")
        for check, low, high in SEPARATION[name]:
            value = traced["checks"][check]
            verdict = "ok" if low <= value <= high else "FAILED"
            ok = ok and verdict == "ok"
            print(f" {check} = {value:.4f} (wanted {low} to {high}): {verdict}")
        ok = ok and failed == 0 and checked > 0
        summary["workloads"][name] = {
            "end_to_end": untraced["metrics"], "as_measured": untraced["as_measured"],
            "slowdown": {"untraced": untraced["slowdown"], "traced": traced["slowdown"]},
            "per_layer": traced["metrics"],
            "checks": traced["checks"], "attempted": attempted, "failed": failed,
            "checked": checked, "failed_share": failed / attempted,
        }
    summary["claim"] = None
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"ladder-{seed}.json", "w") as out:
        json.dump(summary, out, indent=1)
    print(f"\nraw numbers: {OUT / f'ladder-{seed}.json'}; spans: {OUT}/trace-<workload>.json")
    print(json.dumps({"ok": ok, "seed": seed, "claim": None}))
    return 0 if ok else 1


# -- agreement of two sets of runs --------------------------------------------


def _spread(values: list[float]) -> float:
    first, _, third = quantiles(values, n=4)
    return (third - first) / median(values)


def _worse_by(a: list[float], b: list[float], better: str) -> float:
    return (median(b) - median(a)) / median(a) * (1 if better == "lower" else -1)


def agree(seed: int, seconds: float) -> int:
    """Two sets of ``_AGREE_RUNS`` untraced runs per workload, on seeds
    ``seed`` onwards, and one traced run per set at ``seed`` for the counts."""
    from workloads import WORKLOADS

    sets = []
    for _ in range(2):
        values = {
            name: [run_child(name, seed + i, seconds, 0) for i in range(_AGREE_RUNS)]
            for name in WORKLOADS
        }
        counts = {name: run_child(name, seed, seconds, 1)["metrics"] for name in WORKLOADS}
        sets.append((values, counts))
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"agree-{seed}.json", "w") as out:
        json.dump(sets, out)
    disagreements = 0
    proposed: dict[str, float] = {}
    print(f"{'workload':17s} {'metric':18s} {'median A':>12s} {'median B':>12s} "
          f"{'worse by':>9s} {'spread A':>9s} {'spread B':>9s} {'bound':>6s}")
    for metric, _unit, better, bound in M.END_TO_END:
        for name in WORKLOADS:
            a, b = ([run["metrics"][metric]["value"] for run in values[name]] for values, _ in sets)
            worse = _worse_by(a, b, better)
            spread = max(_spread(a), _spread(b))
            # The driver holds every spread but that of setup_s to the bound.
            bad = worse > bound or (metric != "setup_s" and spread > bound)
            disagreements += bad
            need = max(0.05, 2 * abs(worse), 3 * spread if metric != "setup_s" else 0.0)
            proposed[metric] = max(proposed.get(metric, 0.0), math.ceil(need * 100) / 100)
            print(f"{name:17s} {metric:18s} {median(a):12.5g} {median(b):12.5g} {worse:+9.3f} "
                  f"{_spread(a):9.3f} {_spread(b):9.3f} {bound:6.2f}{'  DISAGREE' if bad else ''}")
    print("as measured, before restating: the kernel in each set, and by how much the second "
          "set's medians are worse")
    for name in WORKLOADS:
        kernel_a, kernel_b = (median(run["kernel_ms"] for run in values[name]) for values, _ in sets)
        raw = []
        for metric, _unit, better, _bound in M.END_TO_END:
            a, b = ([run["as_measured"][metric] for run in values[name]] for values, _ in sets)
            raw.append(f"{metric} {_worse_by(a, b, better):+.3f}")
        print(f"{name:17s} kernel_ms {kernel_a:.2f} {kernel_b:.2f}  {'  '.join(raw)}")
    for name in WORKLOADS:
        (_, first), (_, second) = sets
        drifted = [m for m in M.COUNT_METRICS if first[name][m]["value"] != second[name][m]["value"]]
        disagreements += len(drifted)
        print(f"{name}: {len(M.COUNT_METRICS) - len(drifted)} of {len(M.COUNT_METRICS)} "
              f"count metrics identical{'; DRIFTED: ' + ', '.join(drifted) if drifted else ''}")
    print("proposed bounds (max of 0.05, twice the difference of the medians, three spreads):")
    for metric, value in proposed.items():
        note = "  over the contract's 0.25: demote to per-layer" if value > 0.25 else ""
        print(f"  {metric:18s} {value:.2f}{note}")
    return 1 if disagreements else 0


# -- self-check ---------------------------------------------------------------


def _imports(path: Path) -> set[str]:
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
    return found


def selfcheck() -> int:
    import itertools

    from repro.tpcd import queries

    import reference
    from data import build_catalog
    from workloads import DEFAULTS, WORKLOADS, Cell, render, request_stream

    problems: list[str] = []

    def expect(condition: bool, what: str) -> None:
        print(f"{'ok  ' if condition else 'FAIL'} {what}")
        if not condition:
            problems.append(what)

    originals = {"q1": queries.QUERY_1, "q1v": queries.QUERY_1_VARIANT, "q2": queries.QUERY_2,
                 "q3": queries.QUERY_3, "empdept": queries.EMP_DEPT_QUERY}
    for family, original in originals.items():
        expect(render(family) == original, f"template {family} at default literals is the paper's text")

    for path in sorted(HERE.glob("*.py")):
        banned = sorted(
            name for name in _imports(path)
            if any(name == bad or name.startswith(bad + ".") for bad in FORBIDDEN_IMPORTS)
        )
        expect(not banned, f"{path.name} imports none of {', '.join(FORBIDDEN_IMPORTS)}")

    expect(MANIFEST.exists() and json.loads(MANIFEST.read_text()) == manifest(),
           "BENCHMARK.json is what --write-manifest would write")
    expect(all(len(w.why) <= 200 and "\n" not in w.why for w in WORKLOADS.values()),
           "every workload's why is one line of at most 200 characters")

    catalog, _ = build_catalog(0.001, True)
    expected = reference.empdept(catalog, **DEFAULTS["empdept"])
    corrupted = expected[:-1] + [("no such department",)]
    expect(reference.rows_match(expected, list(reversed(expected))), "the oracle ignores row order")
    expect(not reference.rows_match(corrupted, expected), "the oracle rejects a corrupted row set")
    expect(not reference.rows_match(expected[:-1], expected), "the oracle rejects a missing row")
    kim = reference.empdept(catalog, **DEFAULTS["empdept"], kim=True)
    expect(len(kim) < len(expected), "Kim's expected answer on EMP/DEPT loses the COUNT-bug rows")

    cells = [Cell(family, strategy) for family, strategies in WORKLOADS["service_cached"].candidates
             for strategy in strategies]
    streams = [
        [r.sql for r in itertools.islice(request_stream(seed, cells, WORKLOADS["service_cached"]), 50)]
        for seed in (1, 1, 2)
    ]
    expect(streams[0] == streams[1], "the same seed gives the same request stream")
    expect(streams[0] != streams[2], "another seed gives another request stream")

    for name in WORKLOADS:
        first, second = (run_child(name, 1, 0, 1, setup_reps=1) for _ in range(2))
        drifted = [m for m in M.COUNT_METRICS if first["metrics"][m] != second["metrics"][m]]
        expect(not drifted, f"{name}: two runs at one seed give identical counts {drifted or ''}")
        same_verdicts = all(first[k] == second[k] for k in ("attempted", "failed", "checked"))
        expect(same_verdicts and first["failed"] == 0 and first["checked"] > 0,
               f"{name}: identical oracle verdicts, {first['checked']} answers checked, none failed")
        untraced = run_child(name, 1, 0, 0, setup_reps=1)
        expect(all(entry["value"] > 0 for entry in untraced["metrics"].values()),
               f"{name}: every end-to-end metric is above zero")
    print("selfcheck passed" if not problems else f"selfcheck FAILED: {len(problems)} problem(s)")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload and print the driver's JSON line")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=M.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--agree", action="store_true")
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args()
    if not (SRC / "repro").is_dir():
        print(f"ladder: no engine to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.write_manifest:
        MANIFEST.write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if args.selfcheck:
        return selfcheck()
    if args.agree:
        return agree(args.seed, args.seconds)
    if args.workload:
        payload = run_child(args.workload, args.seed, args.seconds, args.trace)
        if not args.trace:
            print(audit_line(args.workload, args.seed, payload))
        print(driver_line(payload))
        return 0
    return full_run(args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
