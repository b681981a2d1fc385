"""One workload in its own interpreter: set up, measure, print one JSON line.

``run.py`` starts this file with a scrubbed environment; nothing else
should. Set-up runs ``--setup-reps`` times and the last one is measured
on, so that ``setup_s`` is a median and not a single sample.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path
from statistics import median


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-reps", type=int, default=3)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    # Importing the engine is the first part of set-up, so it is timed.
    started = time.perf_counter()
    import engine
    import metrics as M
    import service
    from calibrate import Machine
    from workloads import ENGINE_WORKLOADS, WORKLOADS

    import_s = time.perf_counter() - started

    workload = WORKLOADS[args.workload]
    runner = engine if args.workload in ENGINE_WORKLOADS else service
    setups = []
    state = None
    setup_machine = Machine()
    setup_machine.sample()
    for _ in range(args.setup_reps):
        if state is not None:
            runner.tear_down(state)
            state = None
            gc.collect()
        started = time.perf_counter()
        state = runner.set_up(workload, args.seed)
        setups.append(time.perf_counter() - started)
        setup_machine.sample()
    # Keep the loaded tables out of the collector's reach: it stays on, but a
    # full collection inside a query then walks the query's own objects and
    # not every stored tuple. Unfrozen, full collections are a sixth of
    # set_oriented's time and fall on other cells in every run.
    gc.collect()
    gc.freeze()
    machine = Machine()
    try:
        if args.trace:
            payload = runner.measure_traced(state, args.seed, args.seconds, machine, args.out)
        else:
            payload = runner.measure(state, args.seed, args.seconds, machine)
    finally:
        runner.tear_down(state)
    machine.sample()
    # Times are stated at the reference machine's speed (see calibrate.py).
    # ``slowdown``, ``kernel_ms`` and ``as_measured`` let a reader undo that:
    # what the run's times were divided by on the whole, the kernel as
    # timed, and every end-to-end metric computed from the raw times.
    payload["slowdown"] = machine.slowdown()
    payload["kernel_ms"] = machine.kernel_s() * 1000
    if args.trace:
        metrics = payload["metrics"]
        M.at_reference_speed(metrics, machine.slowdown())
        # The kernel itself stays raw.
        metrics["machine.kernel_ms"] = {"value": payload["kernel_ms"], "n": len(machine.samples)}
    else:
        units = payload.pop("units")
        metrics = payload["metrics"] = M.end_to_end(units, machine)
        raw = {name: entry["value"] for name, entry in M.end_to_end(units).items()}
        # Set-up goes by the kernel as it ran between the set-ups; memory
        # has no speed.
        raw["setup_s"] = import_s + median(setups)
        metrics["setup_s"] = {"value": raw["setup_s"] / setup_machine.slowdown(), "n": len(setups)}
        raw["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["peak_rss_mb"] = {"value": raw["peak_rss_mb"], "n": 1}
        payload["as_measured"] = raw
    payload["cells"] = [cell.name for cell in state.cells]
    payload["not_applicable"] = [cell.name for cell in state.not_applicable]
    json.dump(payload, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
