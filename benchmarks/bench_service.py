"""Query-service throughput under a fault-free closed-loop soak.

How many mixed queries per second does the concurrent service sustain at
1, 4 and 8 workers? Each case runs :func:`repro.serve.soak.chaos_scenario`
for two seconds at scale 0.002 with no faults, cancels or tight
deadlines, and fails if any soak invariant is violated. The gated
service numbers are the ladder's ``service_cached`` workload
(``benchmarks/ladder``); this module is the pytest-benchmark view::

    PYTHONPATH=src python -m pytest benchmarks/bench_service.py --benchmark-only
"""

import pytest

from repro.serve.soak import chaos_scenario, run_scenario


@pytest.mark.benchmark(group="service")
@pytest.mark.parametrize("workers", [1, 4, 8])
def test_bench_service_throughput(benchmark, workers):
    def soak():
        return run_scenario(chaos_scenario(
            workers=workers, seconds=2.0, seed=42, faults=None,
            scale=0.002, cancel_rate=0.0, tight_deadline_rate=0.0,
        ))

    report = benchmark.pedantic(soak, rounds=1, iterations=1, warmup_rounds=0)
    assert report.ok, [str(v) for v in report.all_violations()]
    assert report.primary.stats.completed > 0
