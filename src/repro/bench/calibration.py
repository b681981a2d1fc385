"""Measured-vs-simulated check of the section-6 parallel claim.

Both back-ends run the same plan functions (:mod:`repro.parallel.plans`):
the simulator (:mod:`repro.parallel.simulate`) counts what they do, the
real executor (:mod:`repro.parallel.workers`) runs them on worker
processes. Messages, row work, fragments and tasks come from the one plan,
the one repartitioning rule and the one fragment interpreter, so in a
fault-free run every measured count must *equal* the simulated one -- a
closed-loop check that nothing on either side re-implements the other.

Each strategy is measured :data:`MEASURED_RUNS` times (NI and the
decorrelated plan alternating); the answer and all four counts are checked
in every run. The measured wall-clock ``makespan`` is reported as a plain
median of the runs: a measurement, with no simulated figure to score it
against -- the simulator prices nothing.

:func:`run_calibration` produces the report as a dict (``repro parallel
--real --json`` writes it); :func:`render_calibration` prints it and
:func:`calibration_ok` is the exit-code gate.
"""

from __future__ import annotations

import statistics

from ..parallel import (
    run_real_decorrelated,
    run_real_nested_iteration,
    simulate_decorrelated,
    simulate_nested_iteration,
)

#: Measured runs per strategy: wall-clock is never judged from one draw,
#: and exactness must hold in each of them.
MEASURED_RUNS = 5

#: The counts both back-ends report, fault-free equal by construction.
COUNTS = ("messages", "fragments", "rows_processed", "tasks")

#: report key -> (simulated back-end, measured back-end) of one plan.
_STRATEGIES = {
    "ni": (simulate_nested_iteration, run_real_nested_iteration),
    "decorrelated": (simulate_decorrelated, run_real_decorrelated),
}


def simulated_report(
    dept_rows: list, emp_rows: list, n_workers: int = 4,
    budget_limit: float = 10000.0,
) -> dict:
    """The simulated half of the report (all of it without ``--real``):
    sizes, the answer, whether both strategies agree on it, and their
    counts."""
    sims = {
        name: simulate(dept_rows, emp_rows, n_workers, budget_limit=budget_limit)
        for name, (simulate, _) in _STRATEGIES.items()
    }
    return {
        "n_workers": n_workers,
        "dept_rows": len(dept_rows),
        "emp_rows": len(emp_rows),
        "answer": sims["ni"].answer,
        "answers_agree": sims["ni"].answer == sims["decorrelated"].answer,
        "simulated": {
            name: {count: getattr(sim, count) for count in COUNTS}
            for name, sim in sims.items()
        },
    }


def run_calibration(
    dept_rows: list,
    emp_rows: list,
    n_workers: int = 4,
    budget_limit: float = 10000.0,
    faults=None,
    events=None,
    **pool_kwargs,
) -> dict:
    """Run NI and the decorrelated plan both simulated and measured.

    ``faults`` (a :class:`~repro.faults.FaultRegistry`) applies to the
    *measured* runs only; with faults injected the ``exact`` facts are
    expected to be False (recovery traffic and re-run fragments are real)
    and are reported, not gated. ``exact[count]`` and ``answers_agree``
    hold only if they hold in every measured run.
    """
    report = simulated_report(dept_rows, emp_rows, n_workers, budget_limit)
    runs: dict[str, list] = {name: [] for name in _STRATEGIES}
    for _ in range(MEASURED_RUNS):
        for name, (_, measure) in _STRATEGIES.items():
            runs[name].append(measure(
                dept_rows, emp_rows, n_workers, budget_limit=budget_limit,
                faults=faults.replica() if faults is not None else None,
                events=events, **pool_kwargs,
            ))
    measured = [(run, name) for name in runs for run in runs[name]]
    report["answers_agree"] = report["answers_agree"] and all(
        run.answer == report["answer"] for run, _ in measured
    )
    report["faulty"] = faults is not None
    report["exact"] = {
        count: all(
            getattr(run, count) == report["simulated"][name][count]
            for run, name in measured
        )
        for count in COUNTS
    }
    report["measured"] = {
        "runs": MEASURED_RUNS,
        **{name: _measured_dict(runs[name]) for name in runs},
    }
    return report


def _measured_dict(runs: list) -> dict:
    """One strategy's measured row: every figure the median of its runs."""
    return {
        "makespan": round(statistics.median(r.makespan for r in runs), 6),
        "recovery_time": round(
            statistics.median(r.recovery_time for r in runs), 6
        ),
        **{
            f: statistics.median_low([getattr(r, f) for r in runs])
            for f in COUNTS + ("retries", "workers_lost")
        },
        "degraded": any(r.degraded for r in runs),
    }


def calibration_ok(report: dict) -> bool:
    """The gate: every answer agrees and, fault-free, every count is
    exact in every measured run."""
    return report["answers_agree"] and (
        report.get("faulty", False) or all(report.get("exact", {}).values())
    )


def render_calibration(report: dict) -> str:
    """The report as a small human-readable table: the simulated counts,
    and beside them the measured ones when the report has them."""
    sim, real = report["simulated"], report.get("measured")
    size = f"{report['dept_rows']} dept x {report['emp_rows']} emp"
    if real is None:
        lines = [
            f"simulated section 6 @ {report['n_workers']} nodes ({size})",
            f"{'':>28} {'simulated':>14}",
        ]
    else:
        lines = [
            f"section-6 counts @ {report['n_workers']} workers ({size}"
            f"{', faults injected' if report['faulty'] else ''}; "
            f"measured: median of {real['runs']} runs)",
            f"{'':>28} {'simulated':>14} {'measured':>14}",
        ]
    for strategy in ("ni", "decorrelated"):
        for count in COUNTS:
            lines.append(
                f"{strategy + ' ' + count:>28} {sim[strategy][count]:>14}"
                + (f" {real[strategy][count]:>14}" if real else "")
            )
        if real:
            lines.append(
                f"{strategy + ' makespan [s]':>28} {'-':>14} "
                f"{real[strategy]['makespan']:>14.6f}"
            )
    facts = [
        f"{count} exact: {ok}" for count, ok in report.get("exact", {}).items()
    ]
    facts.append(f"answers agree: {report['answers_agree']}")
    lines.append("   ".join(facts))
    return "\n".join(lines)
