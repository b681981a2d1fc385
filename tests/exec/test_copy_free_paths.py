"""The set-oriented executor's cheap paths, each against the general path it
stands in for: a hash build on a key no two rows share holds rows and no
bucket lists; a lookup or an outer join re-checks its hash matches by the
classes of a whole batch; a projection that is the identity hands the
members on; an index is probed a batch at a time; a GROUP BY on the
preserved side of an outer join keys each preserved row's run of rows
once. (A build that keeps only the probed rows holds fewer rows, so its
parity is ``test_group_runs.py``'s.) Forcing the general path -- one switch at a
time and all at once -- must not change a row, its order, a count or an
error, under any strategy. Then the checks the cheap paths must keep: a
table that grows while a query runs, a guard that cancels during
aggregation, and rows that are the stored tuples themselves."""

from __future__ import annotations

import pytest

from repro import Database, Strategy
from repro.errors import NotApplicableError, QueryCancelled, ReproError
from repro.exec import executor
from repro.faults import FaultRegistry
from repro.guard import ExecutionGuard, Limits
from repro.storage.index import HashIndex

SCHEMA = """
CREATE TABLE dept (name TEXT PRIMARY KEY, budget FLOAT, num_emps INT, building TEXT);
CREATE TABLE emp (empno INT PRIMARY KEY, name TEXT, building TEXT, salary FLOAT);
CREATE TABLE flags (id INT PRIMARY KEY, flag BOOL, building TEXT);
CREATE INDEX emp_building ON emp (building);
CREATE INDEX emp_salary ON emp (salary);
INSERT INTO dept VALUES
    ('sales', 5000.0, 4, 'B1'), ('support', 8000.0, 1, 'B1'),
    ('research', 2000.0, 3, 'B2'), ('ops', 90.0, 2, 'B2'),
    ('d_low', 500.0, 1, 'B9'), ('d_null', 700.0, NULL, NULL),
    ('d_none', 120.0, 0, NULL);
INSERT INTO emp VALUES
    (1, 'alice', 'B1', 100.0), (2, 'bob', 'B1', 120.0), (3, 'carol', 'B1', 90.0),
    (4, 'dave', 'B2', 100.0), (5, 'erin', 'B2', NULL), (6, 'frank', NULL, 120.0),
    (7, 'gail', NULL, NULL);
INSERT INTO flags VALUES (1, TRUE, 'B1'), (2, FALSE, NULL), (3, NULL, 'B2');
"""

#: What each query is in the table for.
QUERIES = {
    # Kim groups emp by building (a unique build), Dayal outer-joins it
    # (duplicate keys, a building with no employee), magic joins on <=>.
    "count-bug": (
        "SELECT d.name FROM dept d WHERE d.num_emps > "
        "(SELECT COUNT(*) FROM emp e WHERE e.building = d.building)"
    ),
    "scalar-min": (
        "SELECT d.name, d.budget FROM dept d WHERE d.budget > "
        "(SELECT MIN(e.salary) FROM emp e WHERE e.building = d.building)"
    ),
    # Duplicate and NULL keys on both sides, under = and <=>.
    "equi-join": (
        "SELECT e.name, d.name FROM emp e, dept d WHERE e.building = d.building"
    ),
    "null-safe-join": (
        "SELECT e.name, d.name FROM emp e, dept d WHERE e.building <=> d.building"
    ),
    "composite-key": (
        "SELECT a.name, b.name FROM dept a, dept b "
        "WHERE a.building = b.building AND a.num_emps = b.num_emps"
    ),
    # A lookup by an outer value through the salary index, and through the
    # building index with a residual.
    "sorted-probe": (
        "SELECT d.name, (SELECT COUNT(*) FROM emp e WHERE e.salary = d.budget) "
        "FROM dept d"
    ),
    "hash-probe": (
        "SELECT d.name, (SELECT COUNT(*) FROM emp e WHERE e.building = d.building "
        "AND e.salary > d.num_emps) FROM dept d"
    ),
    # Identity boxes: under DISTINCT, and an outer join that keeps both
    # sides, a left with no match padded with NULLs.
    "identity-distinct": "SELECT DISTINCT * FROM (SELECT building FROM emp) x",
    "identity-outer-join": (
        "SELECT * FROM dept d LEFT JOIN emp e ON d.building = e.building"
    ),
    "select-star": "SELECT * FROM emp",
    # Every aggregate over groups with and without NULLs.
    "aggregates": (
        "SELECT building, COUNT(*), COUNT(salary), SUM(salary), AVG(salary), "
        "MIN(name), MAX(salary), COUNT(DISTINCT salary), SUM(DISTINCT salary) "
        "FROM emp GROUP BY building"
    ),
    "scalar-aggregates": (
        "SELECT COUNT(*), SUM(salary), AVG(salary), MIN(salary), MAX(name) "
        "FROM emp WHERE empno > 100"
    ),
    # INT against BOOL: the re-check after a probe, and in an ON clause.
    "int-true-probe": "SELECT f.id, e.name FROM flags f, emp e WHERE e.empno = f.flag",
    "int-true-on": "SELECT f.id, e.name FROM flags f LEFT JOIN emp e ON e.empno = f.flag",
    "bool-after-null": (
        "SELECT f.id, e.name FROM flags f, emp e WHERE e.empno = f.flag AND f.id = 3"
    ),
}


def _copying_rows(exprs, offsets, width):
    """``_compile_rows`` without the identity or the slice: a new tuple per
    row, built column by column."""
    columns = [executor._compile_values(e, offsets) for e in exprs]

    def rows(members, ctx):
        if not columns:
            return [()] * len(members)
        return list(zip(*[column(members, ctx) for column in columns]))

    return rows


#: Each switch forces one general path.
GENERAL = {
    "bucket-build": lambda patch: patch.setattr(
        executor, "_unique_table", lambda keys, rows: None
    ),
    "pairwise-recheck": lambda patch: patch.setattr(
        executor, "_comparable", lambda *columns: False
    ),
    "copying-projection": lambda patch: patch.setattr(
        executor, "_compile_rows", _copying_rows
    ),
    "probe-per-key": lambda patch: patch.setattr(
        HashIndex, "probe",
        lambda self, keys, rows: [[rows[i] for i in self.lookup(k)] for k in keys],
    ),
    "group-by-rows": lambda patch: patch.setattr(
        executor, "_keys_read_preserved", lambda box: False
    ),
}

STRATEGIES = list(Strategy)


def _db() -> Database:
    db = Database()
    db.execute_script(SCHEMA)
    return db


def _outcome(db, sql, strategy, **options):
    """(rows, every count) of one execution, or its typed error."""
    try:
        result = db.execute(sql, strategy=strategy, **options)
    except NotApplicableError:
        return "not applicable"
    except ReproError as error:
        return (type(error).__name__, str(error))
    return result.rows, result.metrics.as_dict()


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.value)
@pytest.mark.parametrize("name", sorted(QUERIES))
def test_the_general_paths_give_the_same_answer(name, strategy, monkeypatch):
    sql = QUERIES[name]
    cheap = _outcome(_db(), sql, strategy)
    for switch, force in GENERAL.items():
        with monkeypatch.context() as patch:
            force(patch)
            assert _outcome(_db(), sql, strategy) == cheap, switch
    with monkeypatch.context() as patch:
        for force in GENERAL.values():
            force(patch)
        assert _outcome(_db(), sql, strategy) == cheap


def test_the_table_takes_every_cheap_path(monkeypatch):
    """The parity above is not vacuous: each cheap path runs somewhere in
    it, and so does the error it must keep."""
    taken = set()

    def spy(module, name, label, took):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            if took(result):
                taken.add(label)
            return result

        monkeypatch.setattr(module, name, wrapper)

    spy(executor, "_unique_table", "unique build", lambda table: table is not None)
    spy(executor, "_unique_table", "bucket build", lambda table: table is None)
    spy(executor, "_comparable", "batch re-check", bool)
    spy(executor, "_comparable", "pairwise re-check", lambda ok: not ok)
    spy(executor, "_compile_rows", "identity", lambda rows: rows is executor._members)
    spy(HashIndex, "probe", "hash probe", lambda found: any(found) and all(
        type(row) is tuple for rows in found for row in rows
    ))
    spy(executor, "_keeps_probed", "probe-keyed build", bool)
    buckets = executor._buckets

    def runs_spy(keys, values, runs=None):
        if runs is not None:
            taken.add("group by runs")
        return buckets(keys, values, runs)

    monkeypatch.setattr(executor, "_buckets", runs_spy)
    outcomes = [
        _outcome(_db(), sql, strategy) for sql in QUERIES.values() for strategy in STRATEGIES
    ]
    assert taken == {
        "unique build", "bucket build", "batch re-check", "pairwise re-check",
        "identity", "hash probe", "probe-keyed build", "group by runs",
    }
    errors = {outcome[1] for outcome in outcomes if outcome[0] == "SchemaError"}
    assert any("cannot compare" in error for error in errors)


class _Grow(FaultRegistry):
    """At the second join step of a query, appends a row that joins to the
    table the first step scanned."""

    def __init__(self, db):
        super().__init__(0, ())
        self.db = db
        self.scanned = []

    def trigger(self, site: str, detail: str = "") -> None:
        if site != "exec.join":
            return
        self.scanned.append(detail)
        if len(self.scanned) == 2:
            table = {"scan x": "dept", "scan y": "emp"}[self.scanned[0]]
            row = {
                "dept": ("grown", 1.0, 1, "B1"),
                "emp": (99, "grown", "B1", 1.0),
            }[table]
            self.db.catalog.table(table).insert(row)


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.value)
def test_a_first_step_scan_keeps_the_rows_it_was_handed(strategy):
    """The first step's members are the scanned rows themselves, in a list
    of their own: a row the table gains while the query runs is not one of
    them, and the counts are those of the rows it was handed."""
    sql = "SELECT x.name, y.name FROM dept x, emp y WHERE x.building = y.building"
    before = _outcome(_db(), sql, strategy)
    if before == "not applicable":
        pytest.skip(f"{strategy.value} does not rewrite a query without a subquery")
    db = _db()
    grow = _Grow(db)
    db.faults = grow
    assert _outcome(db, sql, strategy) == before
    assert grow.scanned[0] in ("scan x", "scan y")
    assert len(grow.scanned) == 2


class _CancelAtCheck(ExecutionGuard):
    def __init__(self, at=None):
        super().__init__(Limits())
        self.at = at
        self.checks = 0

    def check(self):
        self.checks += 1
        if self.checks == self.at:
            self.cancel()
        super().check()


def _landings(sql):
    """The counters a cancel at each check of ``sql`` sees."""
    counting = _CancelAtCheck()
    _db().execute(sql, guard=counting)
    landings = []
    for at in range(1, counting.checks + 1):
        with pytest.raises(QueryCancelled) as info:
            _db().execute(sql, guard=_CancelAtCheck(at))
        landings.append(info.value.metrics.as_dict())
    return landings


@pytest.mark.parametrize("name", ["aggregates", "scalar-aggregates"])
def test_a_cancel_lands_on_the_same_counters_during_aggregation(name):
    """One check per aggregate per group, before the group is aggregated."""
    sql = QUERIES[name]
    landings = _landings(sql)
    # Eight aggregates over three groups (B1, B2 and NULL), or five over
    # the one group of a scalar aggregate: one check each, all on the
    # counters of the work table.
    aggregated = {"aggregates": 8 * 3, "scalar-aggregates": 5}[name]
    assert max(map(landings.count, landings)) > aggregated


def test_select_star_returns_the_stored_tuples():
    db = _db()
    rows = db.execute("SELECT * FROM emp").rows
    stored = db.catalog.table("emp").rows
    assert rows == stored
    assert all(row is kept for row, kept in zip(rows, stored))


def test_an_identity_outer_join_hands_on_its_joined_tuples():
    db = _db()
    from repro.exec.executor import OuterJoinPlan, plan_box
    from repro.qgm import iter_boxes

    graph = db._compile(QUERIES["identity-outer-join"], "EXECUTE", Strategy.NESTED_ITERATION).graph
    (box,) = [b for b in iter_boxes(graph.root) if b.kind == "outerjoin"]
    plan = plan_box(db.catalog, box)
    assert isinstance(plan, OuterJoinPlan)
    joined = [("a",) * len(box.output_names())]
    assert plan.project(joined, None) is joined


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.value)
def test_a_lookup_pairs_each_member_with_its_own_rows(strategy, monkeypatch):
    """A row inserted under a probed key after the probe, before the
    lookup has joined what it found -- as a concurrent insert may, since
    readers take no table lock -- shifts no fetched row onto another
    member: the lookup joins the rows its probe found."""
    sql = (
        "SELECT e.name, e.building, d.name, d.building FROM dept d, emp e "
        "WHERE e.building = d.building AND d.budget > 100"
    )
    before = _outcome(_db(), sql, strategy)
    if before == "not applicable":
        pytest.skip(f"{strategy.value} does not rewrite a query without a subquery")
    db = _db()
    recheck = executor._comparable
    inserted = []

    def insert_then_recheck(*columns):
        if not inserted:
            inserted.append(db.catalog.table("emp").insert((50, "late", "B1", 1.0)))
        return recheck(*columns)

    monkeypatch.setattr(executor, "_comparable", insert_then_recheck)
    assert _outcome(db, sql, strategy) == before
    assert inserted
