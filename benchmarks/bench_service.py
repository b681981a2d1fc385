"""Query-service throughput/latency baseline (``BENCH_service.json``).

A fault-free soak at the default benchmark scale: how many mixed queries
per second does the concurrent service sustain, and what are the p50/p95
latencies? The committed ``BENCH_service.json`` at the repo root records
the first baseline; regenerate it by running the soak and cutting the
baseline from the ``service_soak`` record it appends to the history (the
record has the baseline's layout, plus the envelope and a few extras)::

    python -m repro soak --workers 8 --seconds 10 --seed 42 \
        --cancel-rate 0 --tight-deadline-rate 0
    tail -n 1 BENCH_history.jsonl | python -m json.tool --sort-keys \
        > BENCH_service.json
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
