"""A stored non-NULL value is exactly the class its column's type stores
(``Schema.stored_class``): the fused lookup filter compares a fetched value
with an operand of that class without testing the value's class, so no way
into a table may store an instance of a subclass."""

import enum

import pytest

from repro import Database
from repro.errors import SchemaError
from repro.storage import Catalog, Column, Schema
from repro.tpcd import load_empdept, load_tpcd
from repro.types import SQLType


class Kind(enum.IntEnum):
    A = 1


class Name(str, enum.Enum):
    X = "x"


class Text(str):
    pass


def _insert_one_at_a_time(table, rows):
    for row in rows:
        table.insert(row)


def _insert_as_a_batch(table, rows):
    table.insert_many(rows)


@pytest.mark.parametrize("indexed", [False, True], ids=["scan", "index"])
@pytest.mark.parametrize(
    "insert", [_insert_one_at_a_time, _insert_as_a_batch],
    ids=["insert", "insert_many"],
)
def test_a_subclass_instance_is_stored_as_the_plain_value(insert, indexed):
    catalog = Catalog()
    table = catalog.create_table("t", Schema([
        Column("k", SQLType.INT), Column("s", SQLType.STR),
        Column("d", SQLType.DATE),
    ]))
    if indexed:
        table.create_index("t_k", ["k"])
        table.create_index("t_s", ["s"])
    insert(table, [
        (Kind.A, Name.X, Text("1996-02-26")),
        (2, Text("x"), "1996-02-27"),
        (None, None, None),
    ])
    assert table.rows == [(1, "x", "1996-02-26"), (2, "x", "1996-02-27"), (None,) * 3]
    assert [tuple(map(type, row)) for row in table.rows] == [
        (int, str, str), (int, str, str), (type(None),) * 3,
    ]
    db = Database(catalog)
    assert db.execute("select k from t where k = 1").rows == [(1,)]
    assert db.execute("select k from t where s = 'x' order by k").rows == [(1,), (2,)]
    assert db.execute("select k from t where d = '1996-02-26'").rows == [(1,)]


@pytest.mark.parametrize(
    "insert", [_insert_one_at_a_time, _insert_as_a_batch],
    ids=["insert", "insert_many"],
)
def test_a_float_column_refuses_nan(insert):
    # A NaN equals nothing, itself included, but a hash index matches a
    # key by identity first: stored, it joined itself through an index
    # and not through a scan.
    catalog = Catalog()
    table = catalog.create_table("t", Schema([
        Column("k", SQLType.INT), Column("f", SQLType.FLOAT),
    ]))
    with pytest.raises(SchemaError, match="column 'f': .* got NaN"):
        insert(table, [(1, float("nan")), (2, 1.0)])
    assert table.rows == []
    insert(table, [(1, None), (2, 1.0), (3, float("inf"))])
    db = Database(catalog)
    inner = "select a.k, b.k from t a, t b where a.f = b.f order by a.k"
    outer = (
        "select a.k, b.k from t a left outer join t b on a.f = b.f "
        "order by a.k"
    )
    answers = {"inner": [(2, 2), (3, 3)], "outer": [(1, None), (2, 2), (3, 3)]}
    assert db.execute(inner).rows == answers["inner"]
    assert db.execute(outer).rows == answers["outer"]
    table.create_index("t_f", ["f"])
    assert db.execute(inner).rows == answers["inner"]
    assert db.execute(outer).rows == answers["outer"]


@pytest.mark.parametrize("sql", [
    "select v * 10 - v * 10, count(*) from t group by v * 10 - v * 10",
    "select distinct v * 10 - v * 10 from t",
    "select k from t where v * 10 + (0 - v * 10) > 0",
    "select 0 * (v * 10) from t",
    "select (v * 10) / (v * 10) from t",
    "select sum(v * 10) + sum(0 - v * 10) from t",
    # The aggregates' own sums: inf and -inf in one group.
    "select sum(x) from (select v * 10 as x from t "
    "union all select 0 - v * 10 as x from t) u",
    "select avg(x) from (select v * 10 as x from t "
    "union all select 0 - v * 10 as x from t) u",
], ids=["group-by", "distinct", "add", "mul", "div", "sum-plus-sum", "sum", "avg"])
def test_a_computed_nan_is_refused_as_a_stored_one(sql):
    # 1e308 * 10 is inf, which is a value; inf - inf is NaN, which groups
    # and deduplicates as no value does: each NaN its own group.
    db = Database()
    db.execute("create table t (k int, v float)")
    db.execute("insert into t values (1, 1e308), (2, 1e308), (3, 2.0)")
    assert db.execute("select v * 10 from t").rows == [
        (float("inf"),), (float("inf"),), (20.0,)
    ]
    with pytest.raises(SchemaError, match="^expected FLOAT, got NaN$"):
        db.execute(sql)


def test_every_loaded_column_holds_its_stored_class_or_null():
    catalog = load_tpcd(scale_factor=0.01)
    load_empdept(catalog=catalog)
    tables = catalog.tables()
    assert {t.name for t in tables} >= {"lineitem", "partsupp", "emp", "dept"}
    for table in tables:
        for pos, column in enumerate(table.schema):
            classes = {type(row[pos]) for row in table.rows}
            assert classes <= {table.schema.stored_class(pos), type(None)}, (
                table.name, column.name, classes,
            )
