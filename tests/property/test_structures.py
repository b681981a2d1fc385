"""Property-based tests for core data structures and the SQL printer."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sql.parser import parse_expression, parse_statement
from repro.sql.printer import expr_to_sql, to_sql
from repro.storage import HashIndex
from repro.tpcd import TPCDGenerator
from repro.storage import Catalog
from repro.tpcd.schema import create_tpcd_schema
from repro.types import sort_key

values = st.one_of(st.none(), st.integers(-20, 20))


class TestHashIndexEquivalence:
    @given(st.lists(values, max_size=40), values)
    def test_lookup_matches_naive(self, data, probe):
        index = HashIndex("i", (0,))
        for i, v in enumerate(data):
            index.insert(i, (v,))
        if probe is None:
            assert index.lookup(probe) == []
        else:
            expected = sorted(i for i, v in enumerate(data) if v == probe)
            assert sorted(index.lookup(probe)) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        st.booleans(), st.sampled_from([(0,), (0, 1)]),
        st.lists(
            st.tuples(st.booleans(), st.lists(
                st.tuples(st.sampled_from([None, 0, 1, 2]), st.sampled_from([None, "a"])),
                max_size=6,
            )),
            max_size=6,
        ),
    )
    # A unique key that gains a second NULL row, one at a time and in a batch.
    @example(True, (0,), [(True, [(None, "a")]), (True, [(None, "a")])])
    @example(True, (0,), [(False, [(None, "a"), (None, "a")])])
    def test_a_probe_holds_the_rows_of_its_lookup(self, unique, positions, batches):
        """Any mix of ``insert`` and ``insert_many``: for every key, ``probe``
        hands back the stored rows at ``lookup``'s ids, in order and by
        identity, and ``lookup`` finds exactly the rows stored under it."""
        index = HashIndex("i", positions, unique=unique)
        rows: list = []
        for one_at_a_time, values in batches:
            # Each row is a new object: identity tells the rows apart.
            batch = [(a, b, len(rows) + n) for n, (a, b) in enumerate(values)]
            if unique:  # no key without a NULL twice
                seen = set(map(index._key_of, rows))
                kept = []
                for row in batch:
                    key = index._key_of(row)
                    if index._key_has_null(key) or key not in seen:
                        seen.add(key)
                        kept.append(row)
                batch = kept
            index.check_unique(batch)
            ids = range(len(rows), len(rows) + len(batch))
            rows.extend(batch)
            if one_at_a_time:
                for row_id, row in zip(ids, batch):
                    index.insert(row_id, row)
            else:
                index.insert_many(ids, batch)
        keys = sorted({index._key_of(row) for row in rows}, key=repr)
        for key, probed in zip(keys, index.probe(keys, rows)):
            ids = index.lookup(key)
            assert len(probed) == len(ids)
            assert all(row is rows[i] for row, i in zip(probed, ids))
            assert index.probe([key], rows)[0] == probed
            assert ids == ([] if index._key_has_null(key) else [
                i for i, row in enumerate(rows) if index._key_of(row) == key
            ])
        assert len(index) == len(rows)


class TestSortKeyTotalOrder:
    mixed = st.one_of(
        st.none(), st.booleans(), st.integers(-5, 5),
        st.floats(allow_nan=False, allow_infinity=False, width=16),
        st.text(max_size=3),
    )

    @given(st.lists(mixed, max_size=20))
    def test_sorting_is_stable_total_order(self, data):
        ordered = sorted(data, key=sort_key)
        # NULLs first
        n_nulls = sum(1 for v in data if v is None)
        assert all(v is None for v in ordered[:n_nulls])
        # Re-sorting is idempotent (total order)
        assert sorted(ordered, key=sort_key) == ordered


# -- parser round-trip -------------------------------------------------------

_literals = st.one_of(
    st.integers(0, 99),
    st.sampled_from(["'x'", "'it''s'", "NULL", "TRUE", "FALSE"]),
)
_names = st.sampled_from(["a", "t.b", "col1"])


@st.composite
def expressions(draw, depth=0):
    if depth > 2:
        return draw(st.one_of(_literals.map(str), _names))
    kind = draw(st.sampled_from(
        ["literal", "name", "binop", "cmp", "and", "or", "not", "func",
         "isnull", "between", "inlist", "agg"]
    ))
    sub = lambda: draw(expressions(depth=depth + 1))  # noqa: E731
    if kind == "literal":
        return str(draw(_literals))
    if kind == "name":
        return draw(_names)
    if kind == "binop":
        op = draw(st.sampled_from(["+", "-", "*", "/"]))
        return f"({sub()} {op} {sub()})"
    if kind == "cmp":
        op = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
        return f"({sub()} {op} {sub()})"
    if kind == "and":
        return f"({sub()} AND {sub()})"
    if kind == "or":
        return f"({sub()} OR {sub()})"
    if kind == "not":
        return f"(NOT {sub()})"
    if kind == "func":
        return f"coalesce({sub()}, {sub()})"
    if kind == "isnull":
        return f"({sub()} IS NULL)"
    if kind == "between":
        return f"({sub()} BETWEEN {sub()} AND {sub()})"
    if kind == "inlist":
        return f"({sub()} IN ({sub()}, {sub()}))"
    return f"count(DISTINCT {sub()})"


class TestPrinterRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(expressions())
    def test_expression_roundtrip(self, text):
        parsed = parse_expression(text)
        printed = expr_to_sql(parsed)
        reparsed = parse_expression(printed)
        assert reparsed == parsed, printed

    @settings(max_examples=60, deadline=None)
    @given(expressions(), expressions())
    def test_select_roundtrip(self, item, condition):
        sql = f"SELECT {item} AS v FROM t WHERE {condition}"
        parsed = parse_statement(sql)
        reparsed = parse_statement(to_sql(parsed))
        assert reparsed == parsed


class TestGeneratorDeterminism:
    @given(st.integers(0, 2**31), st.sampled_from([0.001, 0.002]))
    @settings(max_examples=10, deadline=None)
    def test_same_seed_same_data(self, seed, scale):
        def snapshot():
            catalog = Catalog()
            create_tpcd_schema(catalog, with_indexes=False)
            TPCDGenerator(scale_factor=scale, seed=seed).generate_all(catalog)
            return {
                t.name: list(t.rows)[:20] for t in catalog.tables()
            }

        assert snapshot() == snapshot()

    def test_different_seed_different_data(self):
        def rows(seed):
            catalog = Catalog()
            create_tpcd_schema(catalog, with_indexes=False)
            TPCDGenerator(scale_factor=0.002, seed=seed).generate_all(catalog)
            return list(catalog.table("suppliers").rows)

        assert rows(1) != rows(2)
