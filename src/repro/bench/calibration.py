"""Measured-vs-simulated calibration of the section-6 parallel claim.

Both back-ends run the same plan functions (:mod:`repro.parallel.plans`):
the simulator (:mod:`repro.parallel.simulate`) prices them in abstract
cost units, the real executor (:mod:`repro.parallel.workers`) measures
them in seconds on worker processes. This module runs both over the same
data and the same cluster size and reports how well the simulation
predicts reality.

Two comparisons, deliberately different in strength:

* **Counts** are directly comparable: messages, row work, fragments and
  task counts come from the one plan, the one repartitioning rule and the
  one fragment interpreter, so in a fault-free run the measured numbers
  must *equal* the simulated ones -- a closed-loop check that nothing on
  either side re-implements the other (``messages_exact``,
  ``rows_exact``).
* **Makespans** live in different units (cost units vs. seconds), so the
  comparison is unit-free: the *advantage ratio* ``NI makespan /
  decorrelated makespan`` from each side, scored with the q-error
  ``max(a/b, b/a)`` familiar from cardinality-estimation work -- a
  q-error of 1.0 means the simulator predicts the measured speedup
  perfectly; 2.0 means it is off by at most 2x in either direction.
  Wall-clock is noisy, so each strategy is measured
  :data:`MEASURED_RUNS` times (NI and decorrelated alternating, run ``i``
  of one paired with run ``i`` of the other) and makespan, advantage and
  its q-error are reported as a median with quartiles.

:func:`run_calibration` produces the report as a dict (``repro parallel
--real --json`` writes it); :func:`render_calibration` prints it.
"""

from __future__ import annotations

import statistics

from ..parallel import (
    run_real_decorrelated,
    run_real_nested_iteration,
    simulate_decorrelated,
    simulate_nested_iteration,
)

#: Measured runs per strategy; a ratio of two wall-clock times is never
#: judged from one draw.
MEASURED_RUNS = 5

#: The counts both back-ends report, fault-free equal by construction.
_COUNTS = ("messages", "fragments", "rows_processed", "tasks")

#: report key -> (simulated back-end, measured back-end) of one plan.
_STRATEGIES = {
    "ni": (simulate_nested_iteration, run_real_nested_iteration),
    "decorrelated": (simulate_decorrelated, run_real_decorrelated),
}


def qerror(a: float, b: float) -> float:
    """The symmetric ratio error ``max(a/b, b/a)`` (1.0 = perfect); inf
    when exactly one side is zero, 1.0 when both are."""
    if a == b:
        return 1.0
    if a <= 0 or b <= 0:
        return float("inf")
    return max(a / b, b / a)


def _spread(values: list) -> tuple[float, float, float]:
    """``(q1, median, q3)`` of a sample."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _ratio(a: float, b: float) -> float:
    return a / b if b > 0 else 0.0


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

    Returns the calibration report (see module docstring). ``faults`` (a
    :class:`~repro.faults.FaultRegistry`) applies to the *measured* runs
    only -- the simulated side stays fault-free as the prediction being
    tested; with faults injected, ``messages_exact`` and ``rows_exact``
    are expected to be False (recovery traffic and re-run fragments are
    real) and are reported, not asserted.

    Counts in the report are those of each strategy's median-makespan
    run; the ``*_exact`` facts and ``answers_agree`` must hold for every
    run.
    """
    sims = {
        name: simulate(dept_rows, emp_rows, n_workers, budget_limit=budget_limit)
        for name, (simulate, _) in _STRATEGIES.items()
    }
    runs: dict[str, list] = {name: [] for name in _STRATEGIES}
    for _ in range(MEASURED_RUNS):
        for name, (_, measure) in _STRATEGIES.items():
            runs[name].append(measure(
                dept_rows, emp_rows, n_workers, budget_limit=budget_limit,
                faults=faults.replica() if faults is not None else None,
                events=events, **pool_kwargs,
            ))

    def every_run(fact) -> bool:
        return all(
            fact(run, sims[name]) for name in runs for run in runs[name]
        )

    answers_agree = sims["ni"].answer == sims["decorrelated"].answer and (
        every_run(lambda run, sim: run.answer == sim.answer)
    )
    sim_advantage = _ratio(sims["ni"].makespan, sims["decorrelated"].makespan)
    advantages = [
        _ratio(ni.makespan, mag.makespan)
        for ni, mag in zip(runs["ni"], runs["decorrelated"])
    ]
    adv_q1, measured_advantage, adv_q3 = _spread(advantages)
    qe_q1, advantage_qerror, qe_q3 = _spread(
        [qerror(a, sim_advantage) for a in advantages]
    )
    measured = {name: _measured_dict(runs[name]) for name in runs}
    report = {
        "n_workers": n_workers,
        "dept_rows": len(dept_rows),
        "emp_rows": len(emp_rows),
        "faulty": faults is not None,
        "answers_agree": answers_agree,
        "simulated": {
            **{
                name: {"makespan": sim.makespan,
                       **{f: getattr(sim, f) for f in _COUNTS}}
                for name, sim in sims.items()
            },
            "advantage": round(sim_advantage, 4),
        },
        "measured": {
            **measured,
            "runs": MEASURED_RUNS,
            "advantage": round(measured_advantage, 4),
            "advantage_quartiles": [round(adv_q1, 4), round(adv_q3, 4)],
        },
        "calibration": {
            # Counts must match exactly in a fault-free run.
            "messages_exact": every_run(
                lambda run, sim: run.messages == sim.messages
            ),
            "rows_exact": every_run(
                lambda run, sim: run.rows_processed == sim.rows_processed
            ),
            "ni_message_qerror": qerror(
                measured["ni"]["messages"], sims["ni"].messages
            ),
            "decorrelated_message_qerror": qerror(
                measured["decorrelated"]["messages"],
                sims["decorrelated"].messages,
            ),
            # Unit-free: does the simulator predict the measured speedup?
            "advantage_qerror": round(advantage_qerror, 4),
            "advantage_qerror_quartiles": [round(qe_q1, 4), round(qe_q3, 4)],
        },
    }
    return report


def _measured_dict(runs: list) -> dict:
    """One strategy's measured row: makespan as median with quartiles,
    everything else from the median-makespan run."""
    q1, median, q3 = _spread([run.makespan for run in runs])
    run = sorted(runs, key=lambda r: r.makespan)[len(runs) // 2]
    return {
        "makespan": round(median, 6),
        "makespan_quartiles": [round(q1, 6), round(q3, 6)],
        "recovery_time": round(run.recovery_time, 6),
        **{f: getattr(run, f)
           for f in _COUNTS + ("retries", "workers_lost", "degraded")},
    }


def render_calibration(report: dict) -> str:
    """The calibration report as a small human-readable table."""
    sim, real, cal = (
        report["simulated"], report["measured"], report["calibration"]
    )
    lines = [
        f"section-6 calibration @ {report['n_workers']} workers "
        f"({report['dept_rows']} dept x {report['emp_rows']} emp"
        f"{', faults injected' if report['faulty'] else ''}; measured: "
        f"median [q1, q3] of {real['runs']} runs)",
        f"{'':>28} {'simulated':>14} {'measured':>14}",
    ]
    for strategy in ("ni", "decorrelated"):
        q1, q3 = real[strategy]["makespan_quartiles"]
        lines.append(
            f"{strategy + ' makespan':>28} "
            f"{sim[strategy]['makespan']:>14.3f} "
            f"{real[strategy]['makespan']:>14.6f}  [{q1:.6f}, {q3:.6f}]"
        )
        for count in _COUNTS:
            lines.append(
                f"{strategy + ' ' + count:>28} "
                f"{sim[strategy][count]:>14} "
                f"{real[strategy][count]:>14}"
            )
    lines.append(
        f"{'NI/decorr ratio':>28} {sim['advantage']:>14.3f} "
        f"{real['advantage']:>14.3f}  "
        f"[{real['advantage_quartiles'][0]:.3f}, "
        f"{real['advantage_quartiles'][1]:.3f}]"
    )
    lines.append(
        f"messages exact: {cal['messages_exact']}   "
        f"rows exact: {cal['rows_exact']}   "
        f"advantage q-error: {cal['advantage_qerror']:.3f} "
        f"[{cal['advantage_qerror_quartiles'][0]:.3f}, "
        f"{cal['advantage_qerror_quartiles'][1]:.3f}]   "
        f"answers agree: {report['answers_agree']}"
    )
    return "\n".join(lines)
