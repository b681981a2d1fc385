"""Unit tests for the TPC-D substrate: schema, generator, queries."""

import pytest

from repro import Database, Strategy
from repro.storage import Catalog
from repro.tpcd import (
    EMP_DEPT_QUERY,
    QUERY_1,
    QUERY_1_VARIANT,
    QUERY_2,
    QUERY_3,
    create_tpcd_schema,
    load_empdept,
    load_tpcd,
    paper_row_counts,
)
from repro.tpcd.schema import NATIONS, REGIONS
from repro.sql.parser import parse_statement
from repro.trace import Tracer


class TestSchema:
    def test_paper_counts_at_paper_scale(self):
        assert paper_row_counts(0.1) == {
            "customers": 15_000,
            "parts": 20_000,
            "suppliers": 1_000,
            "partsupp": 80_000,
            "lineitem": 600_000,
        }

    def test_twenty_five_nations_five_regions(self):
        assert len(NATIONS) == 25
        assert len(REGIONS) == 5
        assert len(REGIONS["EUROPE"]) == 5
        assert ("FRANCE", "EUROPE") in NATIONS

    def test_schema_creates_all_tables(self):
        catalog = Catalog()
        create_tpcd_schema(catalog)
        for name in ("customers", "parts", "suppliers", "partsupp", "lineitem"):
            assert catalog.has_table(name)

    def test_paper_index_set(self):
        catalog = Catalog()
        create_tpcd_schema(catalog)
        partsupp = catalog.table("partsupp")
        # ps_suppkey indexed (Figure 7 drops it); no single-column ps_partkey
        # index (the 1993 key is the composite primary key).
        assert "ps_suppkey_idx" in partsupp.indexes
        assert partsupp.find_index(["ps_partkey"]) is None
        assert catalog.table("lineitem").find_index(["l_partkey"]) is not None


class TestGenerator:
    @pytest.fixture(scope="class")
    def catalog(self):
        return load_tpcd(scale_factor=0.005)

    def test_counts(self, catalog):
        expected = paper_row_counts(0.005)
        for name, count in expected.items():
            assert len(catalog.table(name)) == count

    def test_partsupp_four_distinct_suppliers_per_part(self, catalog):
        seen: dict[int, set[int]] = {}
        for part, supp, _, _ in catalog.table("partsupp").rows:
            seen.setdefault(part, set()).add(supp)
        assert all(len(s) == 4 for s in seen.values())

    def test_suppliers_have_consistent_nation_region(self, catalog):
        nation_to_region = dict(NATIONS)
        for row in catalog.table("suppliers").rows:
            assert nation_to_region[row[3]] == row[4]

    def test_foreign_keys_valid(self, catalog):
        n_parts = len(catalog.table("parts"))
        n_suppliers = len(catalog.table("suppliers"))
        for row in catalog.table("lineitem").rows:
            assert 1 <= row[2] <= n_parts
            assert 1 <= row[3] <= n_suppliers

    def test_quantity_range_matches_query2(self, catalog):
        # Query 2 relies on quantities in [1, 50].
        quantities = [r[4] for r in catalog.table("lineitem").rows]
        assert min(quantities) >= 1 and max(quantities) <= 50


class TestPaperQueriesParse:
    @pytest.mark.parametrize(
        "sql", [EMP_DEPT_QUERY, QUERY_1, QUERY_1_VARIANT, QUERY_2, QUERY_3],
        ids=["empdept", "q1", "q1b", "q2", "q3"],
    )
    def test_parses(self, sql):
        parse_statement(sql)


class TestPaperQueriesRun:
    """Tiny-scale end-to-end runs of all paper queries under all strategies."""

    @pytest.fixture(scope="class")
    def db(self):
        return Database(load_tpcd(scale_factor=0.003))

    @pytest.mark.parametrize(
        "sql", [QUERY_1, QUERY_1_VARIANT, QUERY_2],
        ids=["q1", "q1b", "q2"],
    )
    def test_all_strategies_agree(self, db, sql):
        from collections import Counter

        oracle = Counter(db.execute(sql).rows)
        for strategy in (Strategy.KIM, Strategy.DAYAL, Strategy.MAGIC,
                         Strategy.MAGIC_OPT):
            assert Counter(db.execute(sql, strategy=strategy).rows) == oracle, (
                strategy
            )

    def test_query3_magic_agrees(self, db):
        from collections import Counter

        oracle = Counter(db.execute(QUERY_3).rows)
        assert Counter(db.execute(QUERY_3, strategy=Strategy.MAGIC).rows) == oracle
        assert (
            Counter(db.execute(QUERY_3, strategy=Strategy.MAGIC_OPT).rows)
            == oracle
        )

    def test_query2_invocations_keyed(self, db):
        result = db.execute(QUERY_2)
        # One invocation per qualifying part (binding is the part key).
        parts = db.execute(
            "SELECT count(*) FROM parts WHERE p_brand = 'Brand#23' "
            "AND p_container = '6 PACK'"
        ).scalar()
        assert result.metrics.subquery_invocations == parts

    def test_query3_invocations_match_european_suppliers(self, db):
        result = db.execute(QUERY_3)
        europeans = db.execute(
            "SELECT count(*) FROM suppliers WHERE s_region = 'EUROPE'"
        ).scalar()
        assert result.metrics.subquery_invocations == europeans
        assert len(result.rows) == europeans  # LOJ keeps every supplier


@pytest.fixture(scope="module")
def ladder_db():
    """The catalog of the benchmark ladder's ``nested_iteration`` cells."""
    return Database(load_tpcd(scale_factor=0.005, seed=19960226))


def test_q1_variant_under_ni_does_the_pinned_work(ladder_db):
    """The benchmark ladder's ``q1v/ni`` cell -- its longest -- as counts.
    A change to the executor that claims cheaper work, not less of it, must
    leave every one of them where it is; one that claims less work moves
    them here, on purpose."""
    result = ladder_db.execute(
        QUERY_1_VARIANT, strategy=Strategy.NESTED_ITERATION
    )
    assert len(result.rows) == 123
    work = result.metrics.as_dict()
    assert {name: work[name] for name in (
        "subquery_invocations", "rows_scanned", "index_lookups",
        "index_rows", "total_work",
    )} == {
        "subquery_invocations": 241,
        "rows_scanned": 12_100,
        "index_lookups": 7_712,
        "index_rows": 462_672,
        "total_work": 495_141,
    }


def test_q1_variant_under_ni_does_it_in_the_pinned_steps(ladder_db):
    """The same cell step by step: what the traced operator tree says of the
    correlated SPJ box, the one run once per outer binding. The totals above
    cannot tell a lookup that hands on 458 864 rows from one that hands on
    557; these can. Per step: calls, rows in, rows out, index probes, rows
    fetched."""
    result = ladder_db.execute(
        QUERY_1_VARIANT, strategy=Strategy.NESTED_ITERATION, tracer=Tracer()
    )

    def spans(span):
        yield span
        for child in span.children:
            yield from spans(child)

    (subquery,) = [
        span for root in result.tracer.roots for span in spans(root)
        if span.name.startswith("scalar subquery")
    ]
    (group_by,) = subquery.children
    (select,) = group_by.children
    assert (select.calls, select.rows_out) == (241, 557)
    assert [
        (
            step.name, step.calls, step.rows_in, step.rows_out,
            step.metrics["index_lookups"], step.metrics["index_rows"],
        )
        for step in select.children
    ] == [
        ("scan s1", 241, 241, 12_050, 0, 0),
        ("filter", 241, 12_050, 5_784, 0, 0),
        ("index lookup ps1 via ps_suppkey_idx", 241, 5_784, 458_864, 5_784, 458_864),
        ("filter", 241, 458_864, 557, 0, 0),
        ("filter", 241, 557, 557, 0, 0),
    ]


#: The set-oriented cells of the ladder as counts, at the ladder's
#: ``nested_iteration`` scale: (query, strategy) -> rows, then the work.
SET_ORIENTED_WORK = {
    ("q2", Strategy.DAYAL): (1, {
        "rows_scanned": 30_000, "index_rows": 288, "rows_joined": 37_817,
        "rows_grouped": 7_586, "rows_materialized": 45_906,
        "peak_rows_materialized": 45_388, "total_work": 75_700,
    }),
    ("q2", Strategy.KIM): (1, {
        "rows_scanned": 30_000, "index_rows": 288, "rows_joined": 9,
        "rows_grouped": 30_014, "rows_materialized": 31_038,
        "peak_rows_materialized": 30_000, "total_work": 60_320,
    }),
    ("q1v", Strategy.MAGIC): (123, {
        "rows_scanned": 2_150, "index_rows": 5_712, "rows_joined": 1_478,
        "rows_grouped": 241, "rows_materialized": 3_097,
        "peak_rows_materialized": 1_000, "total_work": 9_653,
    }),
}


@pytest.mark.parametrize(
    "query, strategy", sorted(SET_ORIENTED_WORK, key=str),
    ids=lambda value: getattr(value, "value", value),
)
def test_the_set_oriented_cells_do_the_pinned_work(ladder_db, query, strategy):
    """What ``test_q1_variant_under_ni_does_the_pinned_work`` is to nested
    iteration: the hash joins, the outer join and the GROUP BYs of a
    decorrelated plan may get cheaper per row, and build, join, group and
    hold exactly these many."""
    sql = {"q2": QUERY_2, "q1v": QUERY_1_VARIANT}[query]
    n_rows, pinned = SET_ORIENTED_WORK[query, strategy]
    result = ladder_db.execute(sql, strategy=strategy)
    work = result.metrics.as_dict()
    assert len(result.rows) == n_rows
    assert {name: work[name] for name in pinned} == pinned


def test_q2_under_dayal_does_it_in_the_pinned_spans(ladder_db):
    """The same cell span by span, as the plan is written: the outer join
    with its two inputs -- every step of the preserved side -- under the
    GROUP BY on the outer block's key. Per span: calls, rows in, rows out."""
    result = ladder_db.execute(QUERY_2, strategy=Strategy.DAYAL, tracer=Tracer())

    def tree(span):
        name = span.name.split(" [")[0]  # without the box id
        return (
            (name, span.calls, span.rows_in, span.rows_out),
            [tree(child) for child in span.children],
        )

    def find(node, name):
        if node[0][0] == name:
            yield node
        for child in node[1]:
            yield from find(child, name)

    (query,) = [root for root in result.tracer.roots if root.kind == "query"]
    (group_by,) = [
        node for node in find(tree(query), "groupby") if node[0][3] == 244
    ]
    assert group_by == (("groupby", 1, 0, 244), [
        (("outerjoin", 1, 0, 7_572), [
            (("select", 1, 0, 244), [
                (("index lookup p via p_brand_idx", 1, 1, 44), []),
                (("filter", 1, 44, 44), []),
                (("filter", 1, 44, 8), []),
                (("index lookup l via l_partkey_idx", 1, 8, 244), []),
                (("filter", 1, 244, 244), []),
            ]),
            (("select", 1, 0, 30_000), [
                (("scan l1", 1, 1, 30_000), [
                    (("table lineitem", 1, 0, 30_000), []),
                ]),
            ]),
        ]),
    ])


class TestEmpDept:
    def test_load_empdept(self):
        catalog = load_empdept(n_depts=20, n_emps=100, n_buildings=5)
        assert len(catalog.table("dept")) == 20
        assert len(catalog.table("emp")) == 100

    def test_empty_buildings_exist(self):
        catalog = load_empdept(
            n_depts=50, n_emps=200, n_buildings=10,
            empty_building_fraction=0.3,
        )
        dept_buildings = {r[3] for r in catalog.table("dept").rows}
        emp_buildings = {r[2] for r in catalog.table("emp").rows}
        assert dept_buildings - emp_buildings  # some dept building is empty

    def test_example_query_runs_and_matches_magic(self):
        from collections import Counter

        db = Database(load_empdept(n_depts=40, n_emps=300, n_buildings=8))
        oracle = Counter(db.execute(EMP_DEPT_QUERY).rows)
        for strategy in (Strategy.DAYAL, Strategy.MAGIC, Strategy.MAGIC_OPT,
                         Strategy.GANSKI_WONG):
            assert Counter(db.execute(EMP_DEPT_QUERY, strategy=strategy).rows) == oracle
