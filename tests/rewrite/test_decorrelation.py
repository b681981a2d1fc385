"""Decorrelation correctness: every strategy vs the nested-iteration oracle.

The central invariant: magic decorrelation (and Dayal's method, where
applicable) must produce multiset-identical results to nested iteration.
Kim's method must diverge exactly on COUNT-bug queries (section 2).
"""

from collections import Counter

import pytest

from repro import Database, Strategy
from repro.errors import NotApplicableError


@pytest.fixture
def db(empdept_catalog) -> Database:
    return Database(empdept_catalog)


PAPER_QUERY = """
    Select D.name From Dept D
    Where D.budget < 10000 and D.num_emps >
      (Select Count(*) From Emp E Where D.building = E.building)
"""

MIN_QUERY = """
    SELECT d.name FROM dept d
    WHERE d.budget < 10000 AND d.budget >
      (SELECT min(e.salary) * 10 FROM emp e WHERE e.building = d.building)
"""

SELECT_LIST_QUERY = """
    SELECT d.name, (SELECT sum(e.salary) FROM emp e
                    WHERE e.building = d.building) AS total
    FROM dept d WHERE d.budget < 10000
"""


def run(db, sql, strategy, **kwargs):
    return Counter(db.execute(sql, strategy=strategy, **kwargs).rows)


def assert_same(db, sql, strategies=(Strategy.MAGIC, Strategy.MAGIC_OPT)):
    oracle = run(db, sql, Strategy.NESTED_ITERATION)
    for strategy in strategies:
        assert run(db, sql, strategy) == oracle, strategy


class TestMagicOnPaperExample:
    def test_results_match_ni(self, db):
        assert_same(db, PAPER_QUERY)

    def test_count_bug_department_present(self, db):
        rows = run(db, PAPER_QUERY, Strategy.MAGIC)
        assert ("d_low",) in rows  # building with no employees, count = 0

    def test_no_subquery_invocations_after_magic(self, db):
        result = db.execute(PAPER_QUERY, strategy=Strategy.MAGIC)
        assert result.metrics.subquery_invocations == 0

    def test_ni_does_invoke(self, db):
        result = db.execute(PAPER_QUERY, strategy=Strategy.NESTED_ITERATION)
        assert result.metrics.subquery_invocations == 6

    def test_explain_differs(self, db):
        ni = db.explain(PAPER_QUERY, Strategy.NESTED_ITERATION)
        magic = db.explain(PAPER_QUERY, Strategy.MAGIC)
        assert ni != magic
        assert "OUTERJOIN" in magic  # the BugRemoval box
        assert "coalesce" in magic

    def test_min_aggregate_uses_plain_join(self, db):
        # MIN of an empty group is NULL; the use is null-rejecting, so the
        # paper's plain-join optimisation applies: no outer join needed.
        text = db.explain(MIN_QUERY, Strategy.MAGIC)
        assert "OUTERJOIN" not in text
        assert_same(db, MIN_QUERY)

    def test_select_list_subquery_keeps_loj(self, db):
        # A NULL sum must be *returned*, not filtered: LOJ is mandatory.
        text = db.explain(SELECT_LIST_QUERY, Strategy.MAGIC)
        assert "OUTERJOIN" in text
        assert_same(db, SELECT_LIST_QUERY)
        rows = run(db, SELECT_LIST_QUERY, Strategy.MAGIC)
        assert ("d_low", None) in rows


class TestMagicVariousShapes:
    def test_duplicate_bindings(self, db):
        # B1 and B2 appear in several departments: magic must deduplicate.
        sql = """
            SELECT d.name FROM dept d
            WHERE d.num_emps <= (SELECT count(*) FROM emp e
                                 WHERE e.building = d.building)
        """
        assert_same(db, sql)

    def test_null_binding_count(self, db):
        db.execute_script("INSERT INTO dept VALUES ('d_nb', 100, 0, NULL)")
        # NULL building: count over an empty set is 0, 0 >= 0 holds -> the
        # row must survive decorrelation (null-safe CI join).
        sql = """
            SELECT d.name FROM dept d
            WHERE d.num_emps >= (SELECT count(*) FROM emp e
                                 WHERE e.building = d.building)
        """
        oracle = run(db, sql, Strategy.NESTED_ITERATION)
        assert ("d_nb",) in oracle
        assert_same(db, sql)

    def test_multiple_correlation_columns(self, db):
        sql = """
            SELECT d.name FROM dept d
            WHERE d.num_emps > (SELECT count(*) FROM emp e
                                WHERE e.building = d.building
                                  AND e.salary < d.budget)
        """
        assert_same(db, sql)

    def test_correlation_in_expression(self, db):
        sql = """
            SELECT d.name FROM dept d
            WHERE d.budget > (SELECT sum(e.salary + d.num_emps) FROM emp e
                              WHERE e.building = d.building)
        """
        assert_same(db, sql)

    def test_two_subqueries_same_block(self, db):
        sql = """
            SELECT d.name FROM dept d
            WHERE d.num_emps > (SELECT count(*) FROM emp e
                                WHERE e.building = d.building)
              AND d.budget > (SELECT sum(e2.salary) FROM emp e2
                              WHERE e2.building = d.building)
        """
        assert_same(db, sql)

    def test_multi_level_correlation(self, db):
        sql = """
            SELECT d.name FROM dept d WHERE d.num_emps >
              (SELECT count(*) FROM emp e WHERE e.building = d.building
                 AND e.salary > (SELECT avg(e2.salary) FROM emp e2
                                 WHERE e2.building = d.building))
        """
        assert_same(db, sql)

    def test_correlated_derived_table(self, db):
        sql = """
            SELECT d.name, dt.cnt FROM dept d, DT(cnt) AS
              (SELECT count(*) FROM emp e WHERE e.building = d.building)
            WHERE d.budget < 10000
        """
        assert_same(db, sql)
        result = db.execute(sql, strategy=Strategy.MAGIC)
        assert result.metrics.subquery_invocations == 0

    def test_union_inside_correlated_derived_table(self, db):
        # The shape of the paper's Query 3: sum over a UNION ALL.
        sql = """
            SELECT d.name, dt.s FROM dept d, DT(s) AS
              (SELECT sum(bal) FROM DDT(bal) AS
                ((SELECT e.salary FROM emp e WHERE e.building = d.building)
                 UNION ALL
                 (SELECT e2.salary * 2 FROM emp e2
                  WHERE e2.building = d.building)))
            WHERE d.budget < 10000
        """
        assert_same(db, sql)
        result = db.execute(sql, strategy=Strategy.MAGIC)
        assert result.metrics.subquery_invocations == 0

    def test_union_distinct_subquery(self, db):
        sql = """
            SELECT d.name, dt.s FROM dept d, DT(s) AS
              (SELECT count(bal) FROM DDT(bal) AS
                ((SELECT e.salary FROM emp e WHERE e.building = d.building)
                 UNION
                 (SELECT e2.salary FROM emp e2
                  WHERE e2.building = d.building)))
            WHERE d.budget < 10000
        """
        assert_same(db, sql)

    def test_exists_decorrelated_via_ci(self, db):
        sql = """
            SELECT d.name FROM dept d
            WHERE d.budget < 10000 AND EXISTS
              (SELECT 1 FROM emp e WHERE e.building = d.building
               AND e.salary > 75)
        """
        assert_same(db, sql)
        # Without an index, NI rescans EMP per invocation while the magic
        # CI probes a once-materialised decorrelated result.
        db.catalog.table("emp").drop_index("emp_building")
        result = db.execute(sql, strategy=Strategy.MAGIC)
        ni = db.execute(sql, strategy=Strategy.NESTED_ITERATION)
        assert ni.metrics.rows_scanned > result.metrics.rows_scanned

    def test_not_exists(self, db):
        sql = """
            SELECT d.name FROM dept d
            WHERE NOT EXISTS (SELECT 1 FROM emp e
                              WHERE e.building = d.building)
        """
        assert_same(db, sql)
        assert ("d_low",) in run(db, sql, Strategy.MAGIC)

    def test_correlated_in_subquery(self, db):
        sql = """
            SELECT e.name FROM emp e
            WHERE e.salary IN (SELECT max(e2.salary) FROM emp e2
                               WHERE e2.building = e.building)
        """
        assert_same(db, sql)

    def test_correlated_not_in_with_nulls(self, db):
        db.execute_script("INSERT INTO emp VALUES (8, 'hank', 'B1', NULL)")
        sql = """
            SELECT d.name FROM dept d
            WHERE d.budget NOT IN (SELECT e.salary * 50 FROM emp e
                                   WHERE e.building = d.building)
        """
        assert_same(db, sql)

    def test_correlated_all(self, db):
        sql = """
            SELECT d.name FROM dept d
            WHERE d.budget > ALL (SELECT e.salary * 10 FROM emp e
                                  WHERE e.building = d.building)
        """
        assert_same(db, sql)

    def test_correlated_any(self, db):
        sql = """
            SELECT d.name FROM dept d
            WHERE d.budget < ANY (SELECT e.salary * 100 FROM emp e
                                  WHERE e.building = d.building)
        """
        assert_same(db, sql)

    def test_scalar_non_aggregate_subquery(self, db):
        # Scalar subquery without aggregation: partial decorrelation must
        # preserve per-binding cardinality checks.
        sql = """
            SELECT d.name,
                   (SELECT e.name FROM emp e
                    WHERE e.building = d.building AND e.salary > 110)
            FROM dept d WHERE d.budget < 10000
        """
        assert_same(db, sql)

    def test_uncorrelated_subquery_untouched(self, db):
        sql = """
            SELECT name FROM emp
            WHERE salary > (SELECT avg(salary) FROM emp)
        """
        assert_same(db, sql)

    def test_correlation_under_outer_aggregation(self, db):
        # Query-2 shape: the outer block is itself aggregated.
        sql = """
            SELECT sum(d.budget) FROM dept d
            WHERE d.num_emps > (SELECT count(*) FROM emp e
                                WHERE e.building = d.building)
        """
        assert_same(db, sql)

    def test_wrapped_aggregate_value(self, db):
        # Query-2 shape: arithmetic around the aggregate.
        sql = """
            SELECT e.name FROM emp e
            WHERE e.salary < (SELECT 1.5 * avg(e2.salary) FROM emp e2
                              WHERE e2.building = e.building)
        """
        assert_same(db, sql)

    def test_existential_knob_off(self, db):
        from repro.qgm import build_qgm, validate_graph
        from repro.rewrite.decorrelate import apply_magic
        from repro.sql.parser import parse_statement
        from repro.exec import execute_graph

        sql = """
            SELECT d.name FROM dept d
            WHERE EXISTS (SELECT 1 FROM emp e WHERE e.building = d.building)
        """
        graph = build_qgm(parse_statement(sql), db.catalog)
        graph = apply_magic(graph, db.catalog, decorrelate_existential=False)
        validate_graph(graph, db.catalog)
        rows, metrics = execute_graph(graph, db.catalog)
        oracle = run(db, sql, Strategy.NESTED_ITERATION)
        assert Counter(rows) == oracle
        assert metrics.subquery_invocations > 0  # still nested iteration


class TestKim:
    def test_count_bug_reproduced(self, db):
        ni = run(db, PAPER_QUERY, Strategy.NESTED_ITERATION)
        kim = run(db, PAPER_QUERY, Strategy.KIM)
        assert ("d_low",) in ni
        assert ("d_low",) not in kim  # the COUNT bug
        assert kim == Counter(
            {k: v for k, v in ni.items() if k != ("d_low",)}
        )

    def test_correct_on_min_query(self, db):
        # MIN over an empty group: both NI and Kim drop the row (no bug).
        assert_same(db, MIN_QUERY, strategies=(Strategy.KIM,))

    def test_not_applicable_on_union(self, db):
        sql = """
            SELECT d.name FROM dept d
            WHERE d.num_emps > (SELECT count(*) FROM DDT(b) AS
              ((SELECT e.building FROM emp e WHERE e.building = d.building)
               UNION ALL
               (SELECT e2.building FROM emp e2 WHERE e2.building = d.building)))
        """
        with pytest.raises(NotApplicableError):
            db.execute(sql, strategy=Strategy.KIM)

    def test_not_applicable_on_non_equality(self, db):
        sql = """
            SELECT d.name FROM dept d
            WHERE d.num_emps > (SELECT count(*) FROM emp e
                                WHERE e.salary < d.budget)
        """
        with pytest.raises(NotApplicableError):
            db.execute(sql, strategy=Strategy.KIM)

    def test_not_applicable_on_exists(self, db):
        sql = "SELECT d.name FROM dept d WHERE EXISTS (SELECT 1 FROM emp e WHERE e.building = d.building)"
        with pytest.raises(NotApplicableError):
            db.execute(sql, strategy=Strategy.KIM)

    def test_no_invocations(self, db):
        result = db.execute(PAPER_QUERY, strategy=Strategy.KIM)
        assert result.metrics.subquery_invocations == 0


class TestDayal:
    def test_count_bug_avoided(self, db):
        assert_same(db, PAPER_QUERY, strategies=(Strategy.DAYAL,))

    def test_min_query(self, db):
        assert_same(db, MIN_QUERY, strategies=(Strategy.DAYAL,))

    def test_non_equality_correlation_ok(self, db):
        sql = """
            SELECT d.name FROM dept d
            WHERE d.num_emps > (SELECT count(*) FROM emp e
                                WHERE e.salary < d.budget)
        """
        assert_same(db, sql, strategies=(Strategy.DAYAL,))

    def test_outer_aggregation(self, db):
        sql = """
            SELECT sum(d.budget) FROM dept d
            WHERE d.num_emps > (SELECT count(*) FROM emp e
                                WHERE e.building = d.building)
        """
        assert_same(db, sql, strategies=(Strategy.DAYAL,))

    def test_not_applicable_on_union(self, db):
        sql = """
            SELECT building FROM dept UNION ALL SELECT building FROM emp
        """
        with pytest.raises(NotApplicableError):
            db.execute(sql, strategy=Strategy.DAYAL)

    def test_requires_outer_key(self, db):
        db.execute_script(
            "CREATE TABLE keyless (a INT, b TEXT); "
            "INSERT INTO keyless VALUES (1, 'B1')"
        )
        sql = """
            SELECT k.a FROM keyless k
            WHERE k.a > (SELECT count(*) FROM emp e WHERE e.building = k.b)
        """
        with pytest.raises(NotApplicableError):
            db.execute(sql, strategy=Strategy.DAYAL)
        # magic has no such requirement
        assert_same(db, sql)

    def test_no_invocations(self, db):
        result = db.execute(PAPER_QUERY, strategy=Strategy.DAYAL)
        assert result.metrics.subquery_invocations == 0


class TestGanskiWong:
    def test_single_table_outer(self, db):
        assert_same(db, PAPER_QUERY, strategies=(Strategy.GANSKI_WONG,))

    def test_not_applicable_multi_table_outer(self, db):
        sql = """
            SELECT d.name FROM dept d, emp e0
            WHERE e0.building = d.building AND d.num_emps >
              (SELECT count(*) FROM emp e WHERE e.building = d.building)
        """
        with pytest.raises(NotApplicableError):
            db.execute(sql, strategy=Strategy.GANSKI_WONG)

    def test_magic_projects_fewer_bindings_than_ganski_wong(self, db):
        # Ganski/Wong projects bindings from the *unfiltered* table; magic
        # restricts to the supplementary table first (paper section 7). Give
        # a filtered-out department a building full of employees: Ganski/Wong
        # aggregates over them, magic never sees that binding.
        db.execute_script("INSERT INTO dept VALUES ('huge', 99999, 5, 'BX')")
        rows = ", ".join(
            f"({100 + i}, 'x{i}', 'BX', 10)" for i in range(30)
        )
        db.execute_script(f"INSERT INTO emp VALUES {rows}")
        magic = db.execute(PAPER_QUERY, strategy=Strategy.MAGIC).metrics
        gw = db.execute(PAPER_QUERY, strategy=Strategy.GANSKI_WONG).metrics
        assert (
            Counter(db.execute(PAPER_QUERY, strategy=Strategy.GANSKI_WONG).rows)
            == Counter(db.execute(PAPER_QUERY).rows)
        )
        # The decorrelated subquery aggregates strictly fewer rows under magic.
        assert gw.rows_grouped > magic.rows_grouped


class TestOptMag:
    def test_keyed_supplementary_eliminated(self, db):
        # Correlate on the dept primary key and use a null-rejecting MIN:
        # OptMag can route the supplementary row through the subquery.
        sql = """
            SELECT d.name FROM dept d
            WHERE d.budget < 10000 AND d.budget >
              (SELECT min(e.salary) * 10 FROM emp e WHERE e.building = d.building)
        """
        # here correlation is on building (not a key) -> OptMag == Mag
        assert_same(db, sql)

    def test_key_correlation(self, db):
        db.execute_script(
            "CREATE TABLE dept2 (name TEXT PRIMARY KEY, building TEXT)"
        )
        for row in db.catalog.table("dept").rows:
            db.catalog.table("dept2").insert((row[0], row[3]))
        sql = """
            SELECT d.name FROM dept2 d
            WHERE 100 < (SELECT min(e.salary) FROM emp e
                         WHERE e.building = d.building AND d.name <> 'x')
        """
        assert_same(db, sql)

    def test_optmag_recomputes_less(self, db):
        sql = """
            SELECT d.name FROM dept d
            WHERE d.budget > (SELECT min(e.salary) * 10 FROM emp e
                              WHERE e.building = d.name OR e.building = d.name)
        """
        # correlation on the primary key 'name' with a null-rejecting MIN
        mag = db.execute(sql, strategy=Strategy.MAGIC).metrics
        opt = db.execute(sql, strategy=Strategy.MAGIC_OPT).metrics
        oracle = run(db, sql, Strategy.NESTED_ITERATION)
        assert run(db, sql, Strategy.MAGIC_OPT) == oracle
        assert opt.boxes_recomputed <= mag.boxes_recomputed


@pytest.mark.parametrize("strategy, calls", [("ni", 1), ("magic", 2)])
def test_validation_off_checks_an_unchanged_graph_once(
    empdept_catalog, monkeypatch, strategy, calls
):
    """Without per-step validation the engine checks the bound graph, then
    the rewritten one; NI rewrites nothing, so its graph is checked once."""
    import repro.rewrite.engine as engine_module
    from repro.qgm import build_qgm
    from repro.sql import parse_statement

    seen = []
    real = engine_module.validate_graph

    def spy(graph, catalog):
        seen.append(graph)
        return real(graph, catalog)

    monkeypatch.setattr(engine_module, "validate_graph", spy)
    graph = build_qgm(parse_statement(PAPER_QUERY), empdept_catalog)
    engine = engine_module.RewriteEngine(empdept_catalog, validate=False)
    engine.rewrite(graph, strategy)
    assert len(seen) == calls
