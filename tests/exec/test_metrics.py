"""Unit tests for the Metrics counters."""

from repro.exec import Metrics


def test_total_work_sums_row_operations():
    metrics = Metrics(
        rows_scanned=10, index_lookups=2, index_rows=5,
        rows_joined=7, rows_grouped=3,
    )
    assert metrics.total_work() == 27


def test_addition():
    a = Metrics(rows_scanned=1, subquery_invocations=2)
    b = Metrics(rows_scanned=3, boxes_recomputed=4)
    c = a + b
    assert c.rows_scanned == 4
    assert c.subquery_invocations == 2
    assert c.boxes_recomputed == 4
    # operands untouched
    assert a.rows_scanned == 1 and b.rows_scanned == 3


def test_as_dict_contains_every_counter():
    metrics = Metrics()
    d = metrics.as_dict()
    for key in (
        "subquery_invocations", "rows_scanned", "index_lookups",
        "index_rows", "rows_joined", "rows_grouped", "boxes_recomputed",
        "rows_output", "total_work",
    ):
        assert key in d


def test_fresh_metrics_are_zero():
    assert Metrics().total_work() == 0


def test_materialize_tracks_high_water_mark():
    metrics = Metrics()
    metrics.materialize(10)
    metrics.materialize(5)
    assert metrics.rows_materialized == 15
    assert metrics.peak_rows_materialized == 15
    # A later drop in the cumulative count (e.g. after a reset of the
    # running total) must not lower the recorded peak.
    metrics.rows_materialized = 3
    metrics.materialize(1)
    assert metrics.rows_materialized == 4
    assert metrics.peak_rows_materialized == 15


def test_as_dict_reports_materialization_counters():
    metrics = Metrics()
    metrics.materialize(7)
    d = metrics.as_dict()
    assert d["rows_materialized"] == 7
    assert d["peak_rows_materialized"] == 7


def test_addition_takes_max_of_peaks():
    a = Metrics(rows_materialized=10, peak_rows_materialized=10)
    b = Metrics(rows_materialized=4, peak_rows_materialized=4)
    c = a + b
    # Cumulative totals add; the high-water mark is per-execution.
    assert c.rows_materialized == 14
    assert c.peak_rows_materialized == 10


def test_materialization_does_not_change_total_work():
    # total_work() feeds the benchmark tables, whose numbers are pinned;
    # the memory counters report alongside it without perturbing it.
    metrics = Metrics(rows_scanned=10)
    before = metrics.total_work()
    metrics.materialize(1000)
    assert metrics.total_work() == before


def test_release_lowers_live_but_not_peak():
    metrics = Metrics()
    metrics.materialize(10)
    metrics.release(10)
    assert metrics.rows_materialized - metrics.rows_freed == 0
    assert metrics.rows_freed == 10
    assert metrics.peak_rows_materialized == 10


def test_peak_diverges_from_cumulative_for_sequential_builds():
    # Two hash builds that never coexist: cumulative materialisation is
    # their sum, but the memory high-water mark is only the larger one.
    metrics = Metrics()
    metrics.materialize(100)
    metrics.release(100)
    metrics.materialize(60)
    metrics.release(60)
    assert metrics.rows_materialized == 160
    assert metrics.peak_rows_materialized == 100


def test_peak_tracks_overlapping_materialisations():
    metrics = Metrics()
    metrics.materialize(40)   # build A live
    metrics.materialize(30)   # build B live alongside it
    metrics.release(40)
    metrics.materialize(10)
    assert metrics.peak_rows_materialized == 70
    assert metrics.rows_materialized - metrics.rows_freed == 40


def test_addition_covers_every_field():
    # __add__ iterates dataclasses.fields with a declared merge policy;
    # every counter must survive a round trip (guards against a future
    # field silently defaulting to zero in merged results).
    from dataclasses import fields

    a = Metrics(**{f.name: 2 for f in fields(Metrics)})
    b = Metrics(**{f.name: 3 for f in fields(Metrics)})
    c = a + b
    for f in fields(Metrics):
        expected = 3 if f.metadata.get("merge") == "max" else 5
        assert getattr(c, f.name) == expected, f.name


def test_sum_field_names_exclude_high_water_marks():
    from dataclasses import fields

    from repro.exec.metrics import SUM_FIELD_NAMES

    assert "peak_rows_materialized" not in SUM_FIELD_NAMES
    assert "rows_freed" in SUM_FIELD_NAMES
    assert set(SUM_FIELD_NAMES) | {"peak_rows_materialized"} == {
        f.name for f in fields(Metrics)
    }
    metrics = Metrics(rows_scanned=4, rows_freed=2)
    assert metrics.sum_values() == tuple(
        getattr(metrics, name) for name in SUM_FIELD_NAMES
    )


def test_query_execution_frees_every_materialised_row(empdept_catalog):
    """End-to-end conservation: at query teardown every transient
    materialisation (hash builds, work tables, CSE caches) was released,
    so the live count returns to zero and the peak is a true high-water
    mark rather than the cumulative total."""
    from repro import Database, Strategy

    db = Database(empdept_catalog)
    sql = (
        "SELECT name FROM dept D WHERE D.budget < 10000 AND D.num_emps > "
        "(SELECT count(*) FROM emp E WHERE E.building = D.building)"
    )
    for strategy in (Strategy.NESTED_ITERATION, Strategy.KIM,
                     Strategy.DAYAL, Strategy.MAGIC):
        metrics = db.execute(sql, strategy=strategy).metrics
        assert metrics.rows_freed == metrics.rows_materialized, strategy
        assert metrics.rows_materialized - metrics.rows_freed == 0
        assert metrics.peak_rows_materialized <= metrics.rows_materialized
        if metrics.rows_materialized:
            assert metrics.peak_rows_materialized > 0
