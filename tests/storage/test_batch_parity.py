"""The column-at-a-time load and ANALYZE paths against row-at-a-time
references.

Statistics are compared with the per-value loop they replace (kept here),
over seeded columns of every SQL value class and their mixes. A batch
insert is compared with per-row validation: the same stored rows, or the
same ``SchemaError`` text with the table left as it was. An index built a
batch at a time is compared with one built by :meth:`HashIndex.insert`,
bucket shapes and NULL flag included.
"""

import random
from itertools import combinations

import pytest

from repro.errors import SchemaError
from repro.storage import Catalog, Column, HashIndex, Schema, Table, compute_table_stats
from repro.storage.stats import ColumnStats
from repro.types import SQLType, sort_key

# -- statistics ----------------------------------------------------------

SHARED_NAN = float("nan")

POOLS = {
    "none": lambda rng: None,
    "bool": lambda rng: rng.choice((True, False)),
    "int": lambda rng: rng.randrange(-3, 4),
    "float": lambda rng: rng.choice(
        (0.0, -0.0, 1.0, -1.5, 2.25, SHARED_NAN, float("nan"), float(rng.randrange(-3, 4)))
    ),
    "str": lambda rng: rng.choice(("", "a", "B", "ab", "b")),
}
MIXES = [
    mix for size in (1, 2, 3) for mix in combinations(sorted(POOLS), size)
] + [tuple(sorted(POOLS))]


def reference_column_stats(rows, pos):
    """The row-at-a-time loop: first strictly smaller / larger by
    ``sort_key``, a set of the non-NULL values."""
    values = set()
    n_null = 0
    min_value = max_value = None
    for row in rows:
        v = row[pos]
        if v is None:
            n_null += 1
            continue
        values.add(v)
        if min_value is None or sort_key(v) < sort_key(min_value):
            min_value = v
        if max_value is None or sort_key(v) > sort_key(max_value):
            max_value = v
    return ColumnStats(len(values), n_null, min_value, max_value)


def raw_table(rows, width=1):
    """A table holding ``rows`` as they are (no validation: the statistics
    must hold for any value mix)."""
    table = Table("t", Schema([Column(f"c{i}", SQLType.INT) for i in range(width)]))
    table.rows = list(rows)
    return table


def assert_same_stats(got, want):
    assert (got.n_distinct, got.n_null) == (want.n_distinct, want.n_null)
    # The very object: ties keep the first (1 vs 1.0 vs True, 0.0 vs -0.0),
    # and a NaN is only the NaN it was.
    assert got.min_value is want.min_value
    assert got.max_value is want.max_value


@pytest.mark.parametrize("mix", MIXES, ids="-".join)
def test_column_stats_match_the_row_at_a_time_loop(mix):
    rng = random.Random(repr(mix))
    for _ in range(40):
        n = rng.randrange(0, 30)
        rows = [(POOLS[rng.choice(mix)](rng),) for _ in range(n)]
        got = compute_table_stats(raw_table(rows))
        assert got.row_count == n
        assert_same_stats(got.column("c0"), reference_column_stats(rows, 0))


@pytest.mark.parametrize("column", [
    [float("nan"), 1.0, 0.5],          # a leading NaN is the min and the max
    [1.0, float("nan"), 0.5],
    [0.0, -0.0, 0.0],                   # the first zero wins both ways
    [-0.0, 0, False, 0.0],
    [1, True, 1.0],                     # bool is below every number
    [True, 1, 2, False],
    [1, 1.0, 2.0, 2],                   # int and float compare naturally
    ["b", 1, None, True, "a", 0.5],
    [None, None],
    [],
])
def test_column_stats_of_edge_columns(column):
    rows = [(v,) for v in column]
    assert_same_stats(
        compute_table_stats(raw_table(rows)).column("c0"),
        reference_column_stats(rows, 0),
    )


class GrowingRows(list):
    """A row list that an INSERT appends to each time ANALYZE starts a pass
    over it, as one holding only the table lock may."""

    def __init__(self, rows, extra):
        super().__init__(rows)
        self.extra = list(extra)

    def __iter__(self):
        if self.extra:
            self.append(self.extra.pop())
        return super().__iter__()


def test_statistics_cover_the_rows_counted_even_while_the_table_grows():
    rows = [(1, "a"), (2, None), (3, "c")]
    table = raw_table(rows, width=2)
    table.rows = GrowingRows(rows, [(None, None)] * 20)
    stats = compute_table_stats(table)
    assert stats == compute_table_stats(raw_table(rows, width=2))
    for column in stats.columns.values():
        assert column.n_null + column.n_distinct <= stats.row_count


def test_statistics_that_raced_an_insert_are_recomputed():
    catalog = Catalog()
    table = catalog.create_table("t", Schema([Column("a", SQLType.INT)]))
    table.insert_many([(1,), (2,)])
    table.rows = GrowingRows(table.rows, [(3,)])
    assert catalog.stats("t").row_count == 2
    again = catalog.stats("t")
    assert again.row_count == 3
    assert again.column("a").max_value == 3


# -- batch insert ----------------------------------------------------------


def keyed_schema():
    return Schema(
        [
            # Nullable as a column: only the key rule keeps NULL out.
            Column("k", SQLType.INT),
            Column("name", SQLType.STR),
            Column("price", SQLType.FLOAT),
            Column("flag", SQLType.BOOL),
            Column("day", SQLType.DATE, nullable=False),
        ],
        primary_key=["k"],
    )


def loaded_table():
    table = Table("t", keyed_schema())
    table.insert_many([(1, "a", 1.5, True, "1996-01-01"), (2, None, None, None, "1996-01-02")])
    table.create_index("t_name", ["name"])
    table.create_index("t_flag_day", ["flag", "day"])
    return table


def good_rows(first_key, n):
    return [
        (k, f"n{k % 3}", k / 4, k % 2 == 0, f"1996-02-{k % 28 + 1:02d}")
        for k in range(first_key, first_key + n)
    ]


def per_row_reference(table, rows):
    """Per-row validation, then the unique checks: the rows to store, or the
    error to raise."""
    validated = []
    for row in rows:
        row = table.schema.validate_row(row)
        if any(row[pos] is None for pos in table.schema.key_positions()):
            raise SchemaError(f"primary key column of table {table.name!r} cannot be NULL")
        validated.append(row)
    for index in table.indexes.values():
        index.check_unique(validated)
    return validated


def index_state(table):
    return {
        name: (index._nulls, repr(index._map))
        for name, index in table.indexes.items()
    }


def rebuilt_row_by_row(table):
    """Each index of ``table``, built by :meth:`HashIndex.insert` over its
    rows in row-id order."""
    state = {}
    for name, index in table.indexes.items():
        fresh = HashIndex(name, index.column_positions, unique=index.unique)
        for row_id, row in enumerate(table.rows):
            fresh.insert(row_id, row)
        state[name] = (fresh._nulls, repr(fresh._map))
    return state


BAD_ROWS = {
    "short row": (90, "x", 1.0, True),
    "long row": (90, "x", 1.0, True, "1996-03-01", 0),
    "bool in INT": (True, "x", 1.0, True, "1996-03-01"),
    "str in FLOAT": (90, "x", "1.0", True, "1996-03-01"),
    "int in BOOL": (90, "x", 1.0, 1, "1996-03-01"),
    "int in STR": (90, 7, 1.0, True, "1996-03-01"),
    "NULL in NOT NULL": (90, "x", 1.0, True, None),
    "NULL primary key": (None, "x", 1.0, True, "1996-03-01"),
    "duplicate in the batch": (11, "x", 1.0, True, "1996-03-01"),
    "duplicate of the table": (1, "x", 1.0, True, "1996-03-01"),
    # Stored, not rejected: coerced, or already what would be stored.
    "int in FLOAT": (90, "x", 3, True, "1996-03-01"),
    "list row": [90, "x", 3.0, None, "1996-03-01"],
    "NULL in nullable": (90, None, None, None, "1996-03-01"),
    "NULL index keys": (90, None, 1.0, None, "1996-03-01"),
}


@pytest.mark.parametrize("at", ["first", "middle", "last"])
@pytest.mark.parametrize("case", sorted(BAD_ROWS))
def test_batch_insert_matches_per_row_validation(case, at):
    batch = good_rows(10, 5)
    batch.insert({"first": 0, "middle": 2, "last": 5}[at], BAD_ROWS[case])
    table = loaded_table()
    before = (list(table.rows), index_state(table))
    try:
        expected = per_row_reference(table, batch)
    except SchemaError as exc:
        with pytest.raises(SchemaError) as raised:
            table.insert_many(batch)
        assert str(raised.value) == str(exc)
        assert (table.rows, index_state(table)) == before
        return
    assert table.insert_many(iter(batch)) == len(batch)
    assert repr(table.rows) == repr(before[0] + expected)
    assert all(type(row) is tuple for row in table.rows)
    assert index_state(table) == rebuilt_row_by_row(table)


def test_batch_without_a_bad_row_is_stored_as_it_is():
    table = loaded_table()
    batch = good_rows(10, 50)
    table.insert_many(batch)
    assert all(stored is row for stored, row in zip(table.rows[2:], batch))
    assert index_state(table) == rebuilt_row_by_row(table)


# -- indexes -----------------------------------------------------------------


def seeded_rows(seed, n, null_rate):
    rng = random.Random(seed)

    def value(pool):
        return None if rng.random() < null_rate else rng.choice(pool)

    return [
        (k, value(("a", "b", "c")), value((1, 2, 3, 4)), value((0.5, 1.5)))
        for k in range(n)
    ]


def index_schema():
    return Schema(
        [
            Column("k", SQLType.INT, nullable=False),
            Column("s", SQLType.STR),
            Column("i", SQLType.INT),
            Column("f", SQLType.FLOAT),
        ],
        primary_key=["k"],
    )


INDEXES = [
    ("one_column", ["s"], False),
    ("composite", ["s", "i"], False),
    ("unique_with_nulls", ["i", "k"], True),
]


@pytest.mark.parametrize("null_rate", [0.0, 0.2])
@pytest.mark.parametrize("seed", range(4))
def test_indexes_built_a_batch_at_a_time_match_row_by_row(seed, null_rate):
    rows = seeded_rows(seed, 60, null_rate)
    loaded = Table("t", index_schema())
    for name, columns, unique in INDEXES:
        loaded.create_index(name, columns, unique=unique)
    for start in range(0, len(rows), 17):
        loaded.insert_many(rows[start:start + 17])
    backfilled = Table("t", index_schema())
    backfilled.insert_many(rows)
    for name, columns, unique in INDEXES:
        backfilled.create_index(name, columns, unique=unique)
    assert index_state(loaded) == rebuilt_row_by_row(loaded)
    assert index_state(backfilled) == rebuilt_row_by_row(backfilled)
    assert index_state(loaded) == index_state(backfilled)


def test_unique_index_backfill_raises_the_row_by_row_error():
    rows = [(1, "a", 1, None), (2, "b", 2, None), (3, None, 1, None), (4, "a", 2, None)]
    table = Table("t", index_schema())
    table.insert_many(rows)
    reference = HashIndex("u", (2,), unique=True)
    with pytest.raises(SchemaError) as expected:
        for row_id, row in enumerate(rows):
            reference.insert(row_id, row)
    with pytest.raises(SchemaError) as raised:
        table.create_index("u", ["i"], unique=True)
    assert str(raised.value) == str(expected.value)
    assert "u" not in table.indexes
