"""The fingerprint-keyed plan cache: normalization, rebinding, staleness.

Covers the PR-9 bugfixes (comment stripping, quoted-identifier and
escaped-quote parameter extraction), the cache's counting law (every
cacheable lookup is exactly one hit or miss; invalidations additional,
all reconciling exactly with the emitted ``plan.cache_*`` events), the
generation-stamp staleness contract, and the tombstoning of shapes whose
literals are consumed at build time (``LIMIT n``, ordinal ``ORDER BY``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.errors import BindError, ExecutionError
from repro.obs.events import EventLog, RingSink, count_by_kind
from repro.plan.cache import (
    PlanCache,
    extract_parameters,
    fingerprint,
    normalize_sql,
    render_parameterized,
)
from repro.qgm import build_qgm
from repro.sql.parser import parse_statement
from repro.tpcd import load_empdept


@pytest.fixture()
def cache() -> PlanCache:
    return PlanCache()


@pytest.fixture()
def db(cache) -> Database:
    return Database(load_empdept(), plan_cache=cache)


@pytest.fixture()
def plain() -> Database:
    return Database(load_empdept())


# -- normalization and extraction (the satellite bugfixes) --------------------

class TestNormalization:
    def test_comment_twins_share_a_fingerprint(self):
        """Regression: ``--`` line comments are stripped before literal
        replacement; a commented query is the same shape as its twin."""
        plain_sql = "select name from emp where salary > 10"
        commented = (
            "select name  -- projected column\n"
            "from emp     -- the paper's section-2 table\n"
            "where salary > 10 -- a literal, not part of the comment\n"
        )
        assert normalize_sql(commented) == normalize_sql(plain_sql)
        assert fingerprint(commented) == fingerprint(plain_sql)

    def test_comment_text_never_leaks_literals(self):
        # A literal *inside* a comment must not become a parameter.
        sql = "select name from emp -- threshold was 99\nwhere salary > 5"
        extracted = extract_parameters(sql)
        assert [p.value for p in extracted.params] == [5]

    def test_literals_inside_quoted_identifiers_survive(self):
        """Regression: digits and quotes inside a quoted identifier are
        identifier content, never parameters."""
        sql = 'select "col5" from emp where salary > 7'
        extracted = extract_parameters(sql)
        assert [p.value for p in extracted.params] == [7]
        assert '"col5"' in extracted.template

    def test_escaped_quotes_do_not_terminate_strings(self):
        sql = "select name from emp where name = 'it''s' and salary > 2.5"
        extracted = extract_parameters(sql)
        assert [p.value for p in extracted.params] == ["it's", 2.5]

    def test_extraction_order_matches_marker_order(self):
        sql = "select 1, 'a', 2.5, 'b' from emp where salary > 3e1"
        extracted = extract_parameters(sql)
        assert [p.value for p in extracted.params] == [1, "a", 2.5, "b", 30.0]
        assert extracted.template.count("?") == 5

    def test_numbers_decode_like_the_lexer(self):
        values = [
            p.value for p in extract_parameters(
                "select 1, 1.5, .5, 2e3, 2E-1, 7 from emp"
            ).params
        ]
        assert values == [1, 1.5, 0.5, 2000.0, 0.2, 7]
        assert [type(v).__name__ for v in values] == [
            "int", "float", "float", "float", "float", "int",
        ]

    def test_malformed_input_is_flagged_not_cached(self):
        assert not extract_parameters("select 'unterminated").ok
        assert not extract_parameters('select "unterminated').ok

    def test_render_parameterized_splices_markers(self):
        sql = "select name from emp where name = 'it''s' and salary > 2.5"
        extracted = extract_parameters(sql)
        rendered = render_parameterized(sql, extracted)
        assert rendered == (
            "select name from emp where name = ? and salary > ?"
        )
        # The rendered text normalizes to the same template.
        assert normalize_sql(rendered) == extracted.template


# -- property: template + params re-render to an equivalent query -------------

_names = st.text(
    alphabet="ab'c", min_size=0, max_size=6
)


class TestRebindingProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        low=st.integers(-5, 300),
        high=st.floats(0, 300, allow_nan=False, width=16),
        name=_names,
    )
    def test_cached_execution_equals_plain(self, low, high, name):
        """For arbitrary literal values (including quotes needing ``''``
        escapes), executing through the cache -- template fill once, then
        rebinding extracted values in exact ``?``-marker order -- returns
        the same rows as the plain pipeline."""
        catalog = getattr(self, "_catalog", None)
        if catalog is None:
            catalog = self._catalog = load_empdept()
        sql = (
            "select name, salary from emp "
            f"where salary > {low} and name <> '{name.replace(chr(39), chr(39) * 2)}' "
            f"and salary < {high!r} order by name"
        )
        cache = PlanCache()
        db = Database(catalog, plan_cache=cache)
        plain = Database(catalog)
        expected = plain.execute(sql).rows
        assert db.execute(sql).rows == expected  # miss + fill
        assert db.execute(sql).rows == expected  # hit, rebound
        assert cache.hits >= 1

    @settings(max_examples=40, deadline=None)
    @given(values=st.lists(st.integers(0, 250), min_size=2, max_size=2))
    def test_rebinding_uses_this_submissions_values(self, values):
        """A hit must bind the *current* literals, not the fill's."""
        catalog = getattr(self, "_catalog2", None)
        if catalog is None:
            catalog = self._catalog2 = load_empdept()
        cache = PlanCache()
        db = Database(catalog, plan_cache=cache)
        plain = Database(catalog)
        template = "select name from emp where salary > {} order by name"
        for value in values:
            assert (
                db.execute(template.format(value)).rows
                == plain.execute(template.format(value)).rows
            )


# -- the cache itself ----------------------------------------------------------

class TestPlanCache:
    def test_hit_miss_counters(self, db, cache):
        sql = "select name from emp where salary > {} order by name"
        db.execute(sql.format(50))
        db.execute(sql.format(60))
        db.execute(sql.format(70))
        snap = cache.snapshot()
        assert snap["misses"] == 1
        assert snap["hits"] == 2
        assert snap["entries"] == 1

    def test_key_separates_strategy_cse_and_types(self, db, cache):
        sql = "select name from emp where salary > 50"
        db.execute(sql, strategy="ni")
        db.execute(sql, strategy="magic")
        db.execute(sql, strategy="ni", cse_mode="materialize")
        db.execute("select name from emp where salary > 50.5")  # float param
        assert cache.snapshot()["entries"] == 4
        assert cache.snapshot()["hits"] == 0

    def test_in_list_arity_stays_in_the_shape(self, db, cache):
        db.execute("select name from emp where empno in (1, 2)")
        db.execute("select name from emp where empno in (3, 4, 5)")
        assert cache.snapshot()["misses"] == 2
        db.execute("select name from emp where empno in (8, 9)")
        assert cache.snapshot()["hits"] == 1

    def test_non_queries_and_malformed_bypass(self, db, cache):
        db.execute("insert into emp values (9001, 'x', 'b1', 1.0)")
        with pytest.raises(Exception):
            db.execute("select 'unterminated from emp")
        snap = cache.snapshot()
        assert snap["hits"] == snap["misses"] == 0

    def test_breaker_veto_bypasses_the_cache(self, db, cache):
        sql = "select name from emp where salary > 50"
        db.execute(
            sql, strategy="magic", fallback=True,
            disabled=lambda key: "quarantined" if key == "magic" else None,
        )
        assert cache.snapshot()["hits"] == cache.snapshot()["misses"] == 0

    def test_traced_queries_use_the_cache(self, db, plain, cache):
        """Tracing no longer changes which path runs: a traced hit is a
        hit, its span tree has the ``query`` / operator / step spans and --
        nothing was rewritten -- no rewrite span, and the per-span metric
        deltas still add up to the query's totals."""
        from dataclasses import asdict

        from repro.exec.metrics import SUM_FIELD_NAMES
        from repro.trace import Tracer

        sql = "select name from emp where salary > {} order by name"
        miss = db.execute(sql.format(50), tracer=Tracer())
        hit = db.execute(sql.format(60), tracer=Tracer())
        assert (cache.snapshot()["misses"], cache.snapshot()["hits"]) == (1, 1)
        assert hit.rows == plain.execute(sql.format(60)).rows

        def kinds(result) -> set:
            found, stack = set(), list(result.tracer.roots)
            while stack:
                span = stack.pop()
                found.add(span.kind)
                stack.extend(span.children)
            return found

        assert kinds(miss) == {"rewrite", "query", "operator", "step"}
        assert kinds(hit) == {"query", "operator", "step"}
        for result in (miss, hit):
            totals = asdict(result.metrics)
            assert result.tracer.metric_totals() == {
                name: totals[name] for name in SUM_FIELD_NAMES
            }

    def test_lru_eviction(self):
        catalog = load_empdept()
        cache = PlanCache(capacity=2)
        db = Database(catalog, plan_cache=cache)
        base = "select name from emp where salary > 1"
        shapes = [base + " and 1=1" * i for i in range(3)]
        for sql in shapes:
            db.execute(sql)
        assert cache.snapshot()["entries"] == 2
        db.execute(shapes[0])  # evicted -> a miss again
        assert cache.snapshot()["misses"] == 4
        assert cache.snapshot()["hits"] == 0

    def test_all_strategies_cached_rows_match_plain(self, plain):
        from repro.tpcd.queries import EMP_DEPT_QUERY

        for strategy in ("ni", "magic", "magic_opt", "kim", "dayal"):
            cache = PlanCache()
            db = Database(plain.catalog, plan_cache=cache)
            expected = plain.execute(EMP_DEPT_QUERY, strategy=strategy).rows
            db.execute(EMP_DEPT_QUERY, strategy=strategy)
            hit = db.execute(EMP_DEPT_QUERY, strategy=strategy)
            assert sorted(hit.rows) == sorted(expected), strategy
            assert cache.hits == 1, strategy



# -- compiled closures ride along with the cached plan -------------------------

class TestCompiledClosures:
    """The expressions of a cached shape are compiled once, at fill time;
    every hit -- whatever its ``?`` values, whichever thread runs it --
    executes those same closures, and derives nothing from the graph."""

    SQL = (
        "select e.building, count(*), sum(e.salary) from emp e, dept d "
        "where e.building = d.building and e.salary > {} and d.budget < {} "
        "group by e.building order by e.building"
    )
    #: Nested iteration: the subquery's boxes read ``d.building`` from the
    #: row the outer box hands them, one ``?`` on each side of the hand-over.
    NI_SQL = (
        "select d.name from dept d where d.budget < {} and d.num_emps > "
        "(select count(*) from emp e where e.building = d.building "
        "and e.salary > {}) order by d.name"
    )
    #: ``(sql, strategy, two pairs of literals)``.
    ENTRIES = [
        (SQL, "magic", [(50.0, 9000.0), (120.0, 15000.0)]),
        (NI_SQL, "ni", [(10000.0, 50.0), (6000.0, 110.0)]),
    ]

    @staticmethod
    def _compiled(cache):
        (entry,) = cache._entries.values()
        assert entry.shared is not None
        # SPJ boxes keep their closures on the SelectPlan; the other kinds
        # are stored as their compiled plan.
        return {
            box_id: getattr(plan, "compiled", plan)
            for box_id, plan in entry.plans.items()
        }

    @staticmethod
    def _forbid_compiling(monkeypatch):
        """Booby-trap the compiler and the graph walks behind the facts
        that travel with the plans (``shared_boxes`` is ``parent_edges``,
        both a ``GraphFacts`` walk)."""
        from repro.exec import evaluate, executor
        from repro.qgm import analysis

        def trap(*args, **kwargs):
            raise AssertionError("a plan-cache hit compiled or analysed something")

        for name in ("plan_box", "compile_select", "compile_expr", "shared_boxes", "GraphFacts"):
            monkeypatch.setattr(executor, name, trap)
        for name in ("parent_edges", "external_column_refs", "box_children", "GraphFacts"):
            monkeypatch.setattr(analysis, name, trap)
        for name in ("outer_refs", "row_layout", "GraphFacts"):
            monkeypatch.setattr(evaluate, name, trap)

    @staticmethod
    def _filled(sql, strategy, literals, plain):
        """A database whose cache holds the one entry for ``sql``, and the
        uncached answers for both pairs of literals."""
        expected = [
            plain.execute(sql.format(*pair), strategy=strategy).rows
            for pair in literals
        ]
        assert expected[0] != expected[1] and all(expected)
        cache = PlanCache()
        db = Database(load_empdept(), plan_cache=cache)
        db.execute(sql.format(*literals[0]), strategy=strategy)  # miss, fill
        return db, cache, expected

    def test_hits_with_different_values_reuse_the_closures(self, plain, monkeypatch):
        for sql, strategy, literals in self.ENTRIES:
            db, cache, expected = self._filled(sql, strategy, literals, plain)
            before = self._compiled(cache)
            assert len(before) >= 2 and all(c is not None for c in before.values())
            with monkeypatch.context() as patched:
                self._forbid_compiling(patched)
                for pair, rows in zip(literals, expected):
                    hit = db.execute(sql.format(*pair), strategy=strategy)
                    assert hit.rows == rows
            after = self._compiled(cache)
            assert after.keys() == before.keys()
            assert all(after[box_id] is before[box_id] for box_id in before)
            assert cache.snapshot()["hits"] == 2

    def test_concurrent_hits_share_closures_and_keep_their_own_values(
        self, plain, monkeypatch
    ):
        """Two threads on one cached entry: under nested iteration each
        also keeps its own outer rows apart from the other's."""
        import threading

        for sql, strategy, literals in self.ENTRIES:
            db, cache, expected = self._filled(sql, strategy, literals, plain)
            before = self._compiled(cache)
            barrier = threading.Barrier(2)
            failures: list = []

            def work(i: int) -> None:
                try:
                    barrier.wait(10)
                    for _ in range(25):
                        rows = db.execute(
                            sql.format(*literals[i]), strategy=strategy
                        ).rows
                        if rows != expected[i]:
                            failures.append((i, rows))
                except Exception as exc:  # noqa: BLE001 - reported below
                    failures.append((i, exc))

            with monkeypatch.context() as patched:
                self._forbid_compiling(patched)
                threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60)
                    assert not thread.is_alive()
            assert not failures
            after = self._compiled(cache)
            assert all(after[box_id] is before[box_id] for box_id in before)
            assert cache.snapshot()["hits"] == 50

    def test_seeding_less_derives_the_rest_once(self, plain):
        """Planner plans for the SPJ boxes only (what the benchmark ladder
        seeds): the other kinds and the shared-box fact are derived on
        first use, and the answer is the facade's."""
        from repro.exec import ExecutionContext, execute_graph
        from repro.plan import plan_select_box
        from repro.qgm import iter_boxes
        from repro.qgm.model import SelectBox

        sql = self.NI_SQL.format(10000.0, 50.0)
        catalog = plain.catalog
        graph = plain.engine.rewrite(build_qgm(parse_statement(sql), catalog), "ni")
        plans = {
            box.id: plan_select_box(catalog, box)
            for box in iter_boxes(graph.root) if isinstance(box, SelectBox)
        }
        assert all(plan.compiled is None for plan in plans.values())
        ctx = ExecutionContext(catalog, graph.root, "recompute")
        ctx.seed_plans(plans)
        rows, _ = execute_graph(graph, catalog, ctx=ctx)
        assert rows == plain.execute(sql, strategy="ni").rows
        assert all(plan.compiled is not None for plan in plans.values())


# -- staleness: the generation stamp -------------------------------------------

class TestInvalidation:
    def test_insert_invalidates(self, db, plain, cache):
        sql = "select name from emp where salary > 50 order by name"
        db.execute(sql)
        db.execute(sql)
        before = cache.snapshot()["invalidations"]
        db.execute("insert into emp values (9100, 'zz', 'b1', 500.0)")
        plain.execute("insert into emp values (9100, 'zz', 'b1', 500.0)")
        assert db.execute(sql).rows == plain.execute(sql).rows
        assert cache.snapshot()["invalidations"] == before + 1

    def test_ddl_invalidates(self, db, cache):
        sql = "select name from emp where salary > 50"
        db.execute(sql)
        db.execute("create table scratch (id int not null, primary key (id))")
        db.execute(sql)  # stale generation -> invalidation + miss
        snap = cache.snapshot()
        assert snap["invalidations"] == 1
        assert snap["misses"] == 2
        assert snap["hits"] == 0

    def test_index_ddl_invalidates(self, db, cache):
        """Index DDL goes through the table, not the catalog namespace;
        the facade must still bump the generation (access paths may have
        been planned against the old index set)."""
        sql = "select name from emp where building = 'b1'"
        db.execute(sql)
        db.execute("create index emp_b on emp (building)")
        db.execute(sql)
        assert cache.snapshot()["invalidations"] == 1
        db.execute("drop index emp_b on emp")
        db.execute(sql)
        assert cache.snapshot()["invalidations"] == 2

    def test_ddl_during_fill_self_invalidates(self, db, cache):
        """A fill that raced DDL carries a pre-DDL stamp: the next lookup
        must drop it rather than serve the stale artifact."""
        sql = "select name from emp where salary > 50"
        prepared = cache.prepare(
            sql, strategy="ni", cse_mode="recompute",
            decorrelate_existential=True,
            generation=db.catalog.generation(),
        )
        db.execute("insert into emp values (9200, 'r', 'b1', 60.0)")  # bumps
        cache.fill(prepared, db.catalog)  # stores the stale stamp
        db.execute(sql)
        snap = cache.snapshot()
        assert snap["invalidations"] == 1

    def test_store_keeps_newer_generation(self, db, cache):
        """A racing fill built against a newer catalog wins the store."""
        sql = "select name from emp where salary > 50"
        old = cache.prepare(
            sql, strategy="ni", cse_mode="recompute",
            decorrelate_existential=True,
            generation=db.catalog.generation(),
        )
        db.execute("insert into emp values (9300, 's', 'b1', 60.0)")
        new = cache.prepare(
            sql, strategy="ni", cse_mode="recompute",
            decorrelate_existential=True,
            generation=db.catalog.generation(),
        )
        cache.fill(new, db.catalog)
        cache.fill(old, db.catalog)  # must not clobber the newer entry
        entry = cache._entries[new.key]
        assert entry.generation == new.generation


# -- uncacheable shapes --------------------------------------------------------

class TestTombstones:
    def test_limit_shapes_tombstone_but_run_correctly(self, db, plain, cache):
        sql = "select name from emp order by name limit 2"
        first = db.execute(sql)
        second = db.execute(sql)
        expected = plain.execute(sql).rows
        assert first.rows == second.rows == expected
        snap = cache.snapshot()
        assert snap["hits"] == 0
        assert snap["misses"] == 2  # tombstoned, never a hit

    def test_ordinal_order_by_tombstones(self, db, plain, cache):
        sql = "select name, salary from emp order by 2"
        assert db.execute(sql).rows == plain.execute(sql).rows
        assert db.execute(sql).rows == plain.execute(sql).rows
        assert cache.snapshot()["hits"] == 0

    def test_second_miss_skips_the_refill(self, db, cache, monkeypatch):
        """The first miss tries the parameterized text, is refused and
        compiles the literal one; the second goes straight to it."""
        from repro.api import database
        from repro.plan import compile as compile_module

        compiled: list = []
        real = compile_module.compile_query

        def spy(source, *args, **kwargs):
            compiled.append(source if isinstance(source, str) else "literal")
            return real(source, *args, **kwargs)

        monkeypatch.setattr(compile_module, "compile_query", spy)
        monkeypatch.setattr(database, "compile_query", spy)
        sql = "select name from emp order by name limit 2"
        db.execute(sql)  # tombstones
        assert compiled == ["select name from emp order by name limit ?", "literal"]
        db.execute(sql)
        assert compiled[2:] == ["literal"]

    def test_order_by_parameter_is_a_typed_bind_error(self, db):
        statement = parse_statement("select name from emp order by ?")
        with pytest.raises(BindError, match="ORDER BY position"):
            build_qgm(statement, db.catalog)

    def test_unbound_parameter_is_a_typed_execution_error(self, db):
        statement = parse_statement("select name from emp where salary > ?")
        graph = build_qgm(statement, db.catalog)
        from repro.exec import execute_graph

        with pytest.raises(ExecutionError, match="unbound parameter"):
            execute_graph(graph, db.catalog)


# -- events: the counting law --------------------------------------------------

class TestEvents:
    def test_counters_reconcile_exactly_with_events(self):
        sink = RingSink(capacity=65536)
        events = EventLog(sink)
        cache = PlanCache(events=events)
        db = Database(load_empdept(), plan_cache=cache, events=events)
        sql = "select name from emp where salary > {} order by name"
        for i in range(12):
            db.execute(sql.format(40 + i))
        db.execute("insert into emp values (9400, 'e', 'b1', 70.0)")
        for i in range(5):
            db.execute(sql.format(40 + i))
        db.execute("select name from emp order by name limit 1")  # tombstone
        db.execute("select name from emp order by name limit 1")
        counts = count_by_kind(sink.events())
        snap = cache.snapshot()
        assert counts.get("plan.cache_hit", 0) == snap["hits"]
        assert counts.get("plan.cache_miss", 0) == snap["misses"]
        assert counts.get("plan.cache_invalidated", 0) == snap["invalidations"]
        # Every cacheable lookup is exactly one hit or miss.
        assert snap["hits"] + snap["misses"] == 12 + 5 + 2

    def test_event_kinds_are_registered(self):
        from repro.obs.events import EVENT_KINDS

        for kind in (
            "plan.cache_hit", "plan.cache_miss", "plan.cache_invalidated",
        ):
            assert kind in EVENT_KINDS
