"""Two cheap paths of the set-oriented executor against the general path
each stands in for.

* Grouping by runs. An outer join hands on how many consecutive rows each
  preserved row produced (``RunRows``); a GROUP BY whose keys read only the
  preserved side keys each run once. It must give the rows, their order and
  every counter that keying each row gives (``_keys_read_preserved``
  patched to say no), through each path of the outer join -- a hash probe,
  the pair-by-pair re-check, no equi-key at all -- and correlated too.
* Probe-keyed builds. A hash build with more rows than probes keeps only
  the rows some probe can find. It must give the rows, ``rows_joined`` and
  the error of a full build (``_keeps_probed`` patched to say no), and hold
  no more rows than it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, Strategy
from repro.errors import SchemaError
from repro.exec import executor
from repro.exec.executor import ExecutionContext
from repro.qgm.model import (
    BaseTableBox,
    GroupByBox,
    OuterJoinBox,
    OutputColumn,
    Quantifier,
)
from repro.sql import ast
from repro.storage import Catalog, Column, Schema
from repro.types import SQLType

from .test_key_kernels import _hash_join, _outer_join, _run

PRESERVED = ["a", "b", "k"]
NULL_PRODUCING = ["k", "v", "w"]
#: Join keys: duplicates, NULL, 2 and 2.0 as one key, and strings, which
#: send the outer join to its pair-by-pair re-check without an error.
KEYS = st.sampled_from([None, 1, 2, 2.0, 3, "x"])
SMALL = st.sampled_from([None, 0, 1, 2])
FLOATS = st.sampled_from([None, 0.5, 1.5, -2.0])
#: How the ON condition is written: its equi-key alone (``=`` or ``<=>``),
#: a composite equi-key, the equi-key and a residual conjunct (no
#: equi-key, every right row a candidate of every left), or correlated --
#: a residual that reads the enclosing value, or an output that does.
ON = ["=", "<=>", "composite", "residual", "correlated-on", "correlated-output"]
#: Which preserved columns the GROUP BY keys on, as ``l.*`` outputs.
KEY_SETS = [("la",), ("lk",), ("la", "lb"), ("la", "lb", "lk"), ("lk", "la")]


def _catalog(left, right) -> Catalog:
    """``l(a, b, k)`` and ``r(k, v, w)``; ``k`` holds values of several
    classes, past the schema's check."""
    catalog = Catalog()
    for name, columns, rows in (
        ("l", PRESERVED, left), ("r", NULL_PRODUCING, right)
    ):
        table = catalog.create_table(
            name, Schema([Column(c, SQLType.INT) for c in columns])
        )
        table.insert_many([(None,) * 3] * len(rows))
        table.rows[:] = [tuple(row) for row in rows]
    return catalog


def _group_over_outer_join(on: str, keys: tuple[str, ...]):
    """``GROUP BY keys`` straight over ``l LEFT JOIN r ON <on>``, as Dayal's
    rewrite leaves it, with every aggregate and a plain output that reads
    the first member of each group."""
    l = Quantifier("l", BaseTableBox("l", PRESERVED))
    r = Quantifier("r", BaseTableBox("r", NULL_PRODUCING))
    o = Quantifier("o", BaseTableBox("o", ["x"]))  # the enclosing block
    equi = ast.Comparison("<=>" if on == "<=>" else "=", l.ref("k"), r.ref("k"))
    extra = {
        "composite": [ast.Comparison("=", l.ref("b"), r.ref("v"))],
        "residual": [ast.Comparison(">", r.ref("v"), l.ref("b"))],
        "correlated-on": [ast.Comparison(">", r.ref("v"), o.ref("x"))],
    }.get(on, [])
    condition = ast.And([equi, *extra]) if extra else equi
    outputs = [
        OutputColumn("la", l.ref("a")), OutputColumn("lb", l.ref("b")),
        OutputColumn("lk", l.ref("k")), OutputColumn("rk", r.ref("k")),
        OutputColumn("rv", r.ref("v")), OutputColumn("rw", r.ref("w")),
    ]
    if on == "correlated-output":
        outputs.append(OutputColumn("ox", o.ref("x")))
    j = Quantifier("j", OuterJoinBox(l, r, condition, outputs))
    aggregates = [
        ast.AggregateCall("count", None),
        ast.AggregateCall("count", j.ref("rv")),
        ast.AggregateCall("sum", j.ref("rv")),
        ast.AggregateCall("avg", j.ref("rw")),
        ast.AggregateCall("min", j.ref("rv")),
        ast.AggregateCall("max", j.ref("rw")),
        ast.AggregateCall("count", j.ref("rv"), distinct=True),
        ast.AggregateCall("sum", j.ref("rw"), distinct=True),
    ]
    first = ast.BinaryOp("+", j.ref("lb"), ast.Literal(1))
    return GroupByBox(j, group_by=[j.ref(key) for key in keys], outputs=[
        *[OutputColumn(key, j.ref(key)) for key in keys],
        OutputColumn("first", first),
        *[OutputColumn(f"agg{i}", agg) for i, agg in enumerate(aggregates)],
    ])


def _outcome(box, catalog, outer):
    """(rows, every counter, keyed by runs?) of one run of ``box``, or the
    ``SchemaError`` it raised."""
    ctx = ExecutionContext(catalog, box)
    try:
        rows = ctx.box_rows(box, outer)
    except SchemaError as error:
        return ("SchemaError", str(error)), None
    return (rows, ctx.metrics.as_dict()), ctx.plan(box).by_runs


def _by_value(patch):
    patch.setattr(executor, "_keys_read_preserved", lambda box: False)


def _full_build(patch):
    patch.setattr(executor, "_keeps_probed", lambda members, rows: False)


rows_l = st.lists(st.tuples(SMALL, SMALL, KEYS), max_size=8).map(
    lambda rows: rows + rows[:2]  # duplicate preserved rows
)
rows_r = st.lists(st.tuples(KEYS, SMALL, FLOATS), max_size=12)


class TestGroupingByRuns:
    @settings(max_examples=250, deadline=None)
    @given(
        rows_l, rows_r, st.sampled_from(ON), st.sampled_from(KEY_SETS),
        st.sampled_from([0, 1, 5]),
    )
    def test_runs_group_as_their_rows_do(self, left, right, on, keys, x):
        outer = (x,) if on.startswith("correlated") else ()
        catalog = _catalog(left, right)
        by_runs, qualified = _outcome(
            _group_over_outer_join(on, keys), catalog, outer
        )
        assert qualified in (True, None)
        with pytest.MonkeyPatch.context() as patch:
            _by_value(patch)
            by_value, qualified = _outcome(
                _group_over_outer_join(on, keys), catalog, outer
            )
            assert qualified in (False, None)
        assert by_runs == by_value

    @pytest.mark.parametrize("keys", [("rk",), ("la", "rv")])
    def test_a_key_from_the_null_producing_side_groups_by_value(self, keys):
        box = _group_over_outer_join("=", keys)
        ctx = ExecutionContext(_catalog([], []), box)
        assert ctx.plan(box).by_runs is False

    def test_runs_with_one_key_merge_in_run_order(self):
        """Two preserved rows of one key (a duplicate row, too) are one
        group, its values in the order of the runs; a left nothing matched
        is a run of one row, padded."""
        left = [(1, 0, 3), (2, 0, 4), (1, 1, 3), (1, 0, 3), (3, 0, None)]
        right = [(3, 10, 1.5), (3, 20, 2.5), (4, 30, 0.5)]
        box = _group_over_outer_join("=", ("la",))
        (rows, _), qualified = _outcome(box, _catalog(left, right), ())
        assert qualified
        assert [row[:4] for row in rows] == [
            (1, 1, 6, 6),   # three runs of two rows each
            (2, 1, 1, 1),
            (3, 1, 1, 0),   # NULL-padded: COUNT(*) 1, COUNT(rv) 0
        ]

    def test_a_cached_result_keeps_its_runs(self):
        """A second reader of the outer join is served its cached rows, and
        the runs with them."""
        box = _group_over_outer_join("=", ("la",))
        join = box.quantifier.box
        ctx = ExecutionContext(
            _catalog([(1, 0, 3), (1, 0, 3)], [(3, 1, 1.0), (3, 2, 2.0)]), box
        )
        first = ctx.box_rows(join)
        assert first.runs == [2, 2]
        assert ctx.box_rows(join) is first
        assert ctx.box_rows(box)[0][:2] == (1, 1)


#: The same through SQL: the builder puts an SPJ box (the projection) between
#: the GROUP BY and the outer join, whose one step, a scan, hands the runs on.
SCHEMA = """
CREATE TABLE dept (name TEXT PRIMARY KEY, budget FLOAT, num_emps INT, building TEXT);
CREATE TABLE emp (empno INT PRIMARY KEY, name TEXT, building TEXT, salary FLOAT);
INSERT INTO dept VALUES
    ('sales', 5000.0, 4, 'B1'), ('support', 8000.0, 1, 'B1'),
    ('research', 2000.0, 3, 'B2'), ('d_low', 500.0, 1, 'B9'),
    ('d_null', 700.0, NULL, NULL);
INSERT INTO emp VALUES
    (1, 'alice', 'B1', 100.0), (2, 'bob', 'B1', 120.0), (3, 'carol', 'B2', 90.0),
    (4, 'dan', NULL, 80.0);
"""
QUERIES = {
    # Five departments, two of them in B1: five runs, four groups.
    "one-building": (
        "SELECT d.building, count(*) FROM dept d LEFT JOIN emp e "
        "ON d.building = e.building GROUP BY d.building",
        Strategy.NESTED_ITERATION, [(5, 4)],
    ),
    "residual-on": (
        "SELECT d.building, d.num_emps, count(e.name), sum(e.salary), "
        "min(e.name), avg(e.salary) FROM dept d LEFT JOIN emp e "
        "ON d.building = e.building AND e.salary > d.num_emps "
        "GROUP BY d.building, d.num_emps",
        Strategy.NESTED_ITERATION, [(5, 5)],
    ),
    # A key from the null-producing side: each row is keyed.
    "null-producing-key": (
        "SELECT e.building, count(*) FROM dept d LEFT JOIN emp e "
        "ON d.building = e.building GROUP BY e.building",
        Strategy.NESTED_ITERATION, [],
    ),
    "dayal": (
        "SELECT d.name, count(*) FROM dept d WHERE d.num_emps > "
        "(SELECT count(*) FROM emp e WHERE e.building = d.building) "
        "GROUP BY d.name",
        Strategy.DAYAL, [(5, 5)],
    ),
}


def _spied(monkeypatch):
    """The ``(runs, groups)`` of every partition keyed by runs."""
    seen = []
    original = executor._buckets

    def spy(keys, values, runs=None):
        buckets = original(keys, values, runs)
        if runs is not None:
            seen.append((len(runs), len(buckets)))
        return buckets

    monkeypatch.setattr(executor, "_buckets", spy)
    return seen


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_sql_groups_by_runs_as_by_rows(monkeypatch, name):
    sql, strategy, partitions = QUERIES[name]

    def outcome():
        db = Database()
        db.execute_script(SCHEMA)
        result = db.execute(sql, strategy=strategy)
        return result.rows, result.metrics.as_dict()

    with monkeypatch.context() as patch:
        _by_value(patch)
        expected = outcome()
    seen = _spied(monkeypatch)
    assert outcome() == expected
    assert seen == partitions  # (runs, groups) of each keyed by runs


def test_the_guard_checks_as_often_by_runs(monkeypatch):
    """One check per group per aggregate: the same checks, whichever way
    the groups were found."""
    from repro.guard import ExecutionGuard, Limits

    class Counting(ExecutionGuard):
        checks = 0

        def check(self):
            Counting.checks += 1
            super().check()

    def checks():
        Counting.checks = 0
        db = Database()
        db.execute_script(SCHEMA)
        db.execute(QUERIES["residual-on"][0], guard=Counting(Limits()))
        return Counting.checks

    with monkeypatch.context() as patch:
        _by_value(patch)
        expected = checks()
    assert checks() == expected


# -- probe-keyed builds ----------------------------------------------------------

#: Values of every class, ``TRUE`` among them: a probe ``1`` keeps a built
#: ``TRUE`` for the re-check that refuses the pair.
VALUES = st.sampled_from([None, 0, 1, 2, 2.0, "a", "b", True])
OPERATORS = {"hash-join": _hash_join, "outer-join": _outer_join}


@pytest.mark.parametrize("shape", ["one-column", "composite"])
@pytest.mark.parametrize("operator", sorted(OPERATORS))
@settings(max_examples=60, deadline=None)
@given(
    left=st.lists(VALUES, max_size=4), right=st.lists(VALUES, max_size=10),
    op=st.sampled_from(["=", "<=>"]),
)
def test_a_probe_keyed_build_joins_as_a_full_one(
    operator, shape, left, right, op
):
    keyed = _run(OPERATORS[operator], op, shape, left, right)
    with pytest.MonkeyPatch.context() as patch:
        _full_build(patch)
        full = _run(OPERATORS[operator], op, shape, left, right)
    if full[0] == "SchemaError":
        assert keyed == full
        return
    (rows, work), (full_rows, full_work) = keyed, full
    assert rows == full_rows
    assert work["rows_joined"] == full_work["rows_joined"]
    assert work["rows_materialized"] <= full_work["rows_materialized"]


@pytest.mark.parametrize("shape", ["one-column", "composite"])
@pytest.mark.parametrize("operator", sorted(OPERATORS))
def test_a_build_holds_only_the_probed_keys_and_1_still_meets_true(
    operator, shape
):
    run = OPERATORS[operator]
    # Five rows built, one probe: only its two rows are held.
    (rows, work) = _run(run, "=", shape, [2], [1, 2, 3, 2.0, None])
    assert rows == [(0, 1), (0, 3)]
    assert work["rows_materialized"] == 2 + len(rows)
    # TRUE hashes as 1 does: kept, and the re-check refuses the pair --
    # also where 1 and TRUE share a bucket under the key 1.
    for right in ([True, 2, 3], [1, True, 3]):
        assert _run(run, "=", shape, [1], right) == (
            "SchemaError", "cannot compare 1 with True"
        )
