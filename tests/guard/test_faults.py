"""Deterministic fault injection: spec parsing, determinism, sites."""

import pytest

from repro import Database, FaultRegistry, Strategy
from repro.errors import FaultInjectedError
from repro.faults import FAULT_SITES, FaultRule, InjectedFault
from repro.tpcd import EMP_DEPT_QUERY


class TestSpecParsing:
    def test_parse_full_spec(self):
        registry = FaultRegistry.parse("42:exec.join=0.01,rewrite.strategy=1")
        assert registry.seed == 42
        assert registry.rules == (
            FaultRule("exec.join", 0.01),
            FaultRule("rewrite.strategy", 1.0),
        )

    def test_bare_site_means_rate_one(self):
        registry = FaultRegistry.parse("7:storage.scan")
        assert registry.rules == (FaultRule("storage.scan", 1.0),)

    def test_prefix_glob(self):
        registry = FaultRegistry.parse("7:storage.*=0.5")
        assert registry.rules[0].matches("storage.scan")
        assert registry.rules[0].matches("storage.index_lookup")
        assert not registry.rules[0].matches("exec.join")

    @pytest.mark.parametrize(
        "spec",
        ["", "noseed", "x:storage.scan=1", "1:bogus.site=1",
         "1:storage.scan=lots", "1:=1", "-1:storage.scan=1",
         "1:storage.scan=2"],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            FaultRegistry.parse(spec)

    def test_from_env(self):
        assert FaultRegistry.from_env({}) is None
        assert FaultRegistry.from_env({"REPRO_FAULTS": ""}) is None
        registry = FaultRegistry.from_env({"REPRO_FAULTS": "3:exec.join=0.5"})
        assert registry is not None and registry.seed == 3

    def test_all_named_sites_are_parseable(self):
        spec = "1:" + ",".join(f"{site}=0.1" for site in FAULT_SITES)
        assert len(FaultRegistry.parse(spec).rules) == len(FAULT_SITES)


class TestDeterminism:
    def test_same_seed_same_decisions(self):
        a = FaultRegistry.parse("11:exec.join=0.3")
        b = FaultRegistry.parse("11:exec.join=0.3")
        decisions_a = [a.should_fire("exec.join") for _ in range(200)]
        decisions_b = [b.should_fire("exec.join") for _ in range(200)]
        assert decisions_a == decisions_b
        assert a.log() == b.log()
        assert any(decisions_a) and not all(decisions_a)

    def test_different_seeds_differ(self):
        a = FaultRegistry.parse("1:exec.join=0.3")
        b = FaultRegistry.parse("2:exec.join=0.3")
        assert [a.should_fire("exec.join") for _ in range(200)] != [
            b.should_fire("exec.join") for _ in range(200)
        ]

    def test_replica_replays(self):
        registry = FaultRegistry.parse("5:storage.*=0.2")
        [registry.should_fire("storage.scan") for _ in range(50)]
        replica = registry.replica()
        assert replica.seed == registry.seed
        assert replica.rules == registry.rules
        assert replica.injected == []
        replayed = [replica.should_fire("storage.scan") for _ in range(50)]
        assert replica.log() == registry.log()
        assert any(replayed)

    def test_rate_zero_never_fires(self):
        registry = FaultRegistry.parse("5:exec.join=0")
        assert not any(registry.should_fire("exec.join") for _ in range(100))
        assert registry.log() == []

    def test_rate_one_always_fires(self):
        registry = FaultRegistry.parse("5:exec.join=1")
        assert all(registry.should_fire("exec.join") for _ in range(100))

    def test_unmatched_site_never_fires(self):
        registry = FaultRegistry.parse("5:exec.join=1")
        assert not registry.should_fire("storage.scan")


class TestTrigger:
    def test_trigger_raises_with_site_and_sequence(self):
        registry = FaultRegistry.parse("5:storage.scan=1")
        with pytest.raises(FaultInjectedError) as info:
            registry.trigger("storage.scan", detail="dept")
        assert info.value.site == "storage.scan"
        assert info.value.sequence == 0
        assert info.value.detail == "dept"
        assert registry.injected == [InjectedFault("storage.scan", 0, "dept")]

    def test_trigger_passes_when_not_fired(self):
        registry = FaultRegistry.parse("5:exec.join=0")
        registry.trigger("exec.join")  # no raise


class TestEngineIntegration:
    def test_scan_fault_surfaces_as_typed_error(self, empdept_catalog):
        db = Database(empdept_catalog, faults=FaultRegistry.parse("1:storage.scan=1"))
        with pytest.raises(FaultInjectedError) as info:
            db.execute(EMP_DEPT_QUERY)
        assert info.value.site == "storage.scan"

    def test_engine_run_is_reproducible(self, empdept_catalog):
        spec = "9:storage.scan=0.2,exec.join=0.1,exec.group=0.3"

        def outcome():
            db = Database(empdept_catalog, faults=FaultRegistry.parse(spec))
            try:
                result = db.execute(EMP_DEPT_QUERY, strategy=Strategy.MAGIC)
                return ("ok", sorted(result.rows), db.faults.log())
            except FaultInjectedError as exc:
                return ("fault", (exc.site, exc.sequence), db.faults.log())

        assert outcome() == outcome()

    def test_no_faults_by_default(self, empdept_catalog, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        db = Database(empdept_catalog)
        assert db.faults is None
        assert db.engine.faults is None

    def test_env_spec_is_picked_up(self, empdept_catalog, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "4:rewrite.strategy=1")
        db = Database(empdept_catalog)
        assert db.faults is not None
        with pytest.raises(FaultInjectedError):
            db.execute(EMP_DEPT_QUERY, strategy=Strategy.MAGIC)


class TestConcurrentDeterminism:
    """The registry keeps ONE global per-site ordinal schedule: concurrent
    callers each claim a distinct ordinal atomically, so the *set* of fired
    ordinals matches a single-threaded run of the same schedule exactly
    (which ordinal lands in which thread is the only nondeterminism)."""

    def test_concurrent_draws_consume_one_global_schedule(self):
        import threading

        spec = "9:exec.join=0.25"
        reference = FaultRegistry.parse(spec)
        expected_fired = [
            n for n in range(800) if reference.should_fire("exec.join")
        ]

        registry = FaultRegistry.parse(spec)
        barrier = threading.Barrier(8)

        def work() -> None:
            barrier.wait()
            for _ in range(100):
                registry.should_fire("exec.join")

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
            assert not t.is_alive()

        # Exactly 800 ordinals were claimed -- none lost, none duplicated --
        # and the fired set is the single-threaded schedule.
        fired = sorted(seq for _, seq, _ in registry.log())
        assert fired == expected_fired
        assert len(set(fired)) == len(fired)

    def test_replica_gives_each_thread_a_private_schedule(self):
        import threading

        base = FaultRegistry.parse("9:exec.join=0.25")
        single = base.replica()
        reference = [
            n for n in range(100) if single.should_fire("exec.join")
        ]
        results: list = [None] * 4

        def work(i: int) -> None:
            replica = base.replica()
            results[i] = [
                n for n in range(100) if replica.should_fire("exec.join")
            ]

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)

        # Every replica replays the same schedule from zero, and none of
        # them advanced the base registry's counters.
        assert all(r == reference for r in results)
        assert base.log() == []


class _Recorder(FaultRegistry):
    """Never fires; remembers every site that asked."""

    def __init__(self):
        super().__init__(0, ())
        self.asked = []

    def trigger(self, site: str, detail: str = "") -> None:
        self.asked.append(site)


class TestExecutorSites:
    """``exec.group`` is asked once per GROUP BY box run and ``exec.join``
    once per scan / hash-join step run, whatever kernel does the work."""

    @pytest.mark.parametrize("strategy, asked", [
        # NI: the subquery's GROUP BY once per qualifying department.
        (Strategy.NESTED_ITERATION, {"exec.join": 1, "exec.group": 6}),
        (Strategy.KIM, {"exec.join": 3, "exec.group": 1}),
        (Strategy.DAYAL, {"exec.join": 3, "exec.group": 1}),
        (Strategy.MAGIC, {"exec.join": 6, "exec.group": 1}),
    ], ids=lambda value: getattr(value, "value", None))
    def test_sites_fire_once_per_box_and_step(
        self, empdept_catalog, strategy, asked
    ):
        recorder = _Recorder()
        db = Database(empdept_catalog, faults=recorder)
        db.execute(EMP_DEPT_QUERY, strategy=strategy)
        assert {
            site: recorder.asked.count(site) for site in asked
        } == asked

    @pytest.mark.parametrize("site", ["exec.group", "exec.join"])
    def test_a_fired_site_is_the_typed_error(self, empdept_catalog, site):
        db = Database(
            empdept_catalog, faults=FaultRegistry.parse(f"1:{site}=1")
        )
        with pytest.raises(FaultInjectedError) as info:
            db.execute(EMP_DEPT_QUERY, strategy=Strategy.MAGIC)
        assert info.value.site == site
