"""Tests for the ``python -m repro`` command-line interface."""

import json
import subprocess
import sys

import pytest

from repro.__main__ import main


def run_cli(*args, input_text=None):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, input=input_text, timeout=300,
    )


@pytest.fixture
def script(tmp_path):
    path = tmp_path / "demo.sql"
    path.write_text(
        """
        CREATE TABLE t (id INT PRIMARY KEY, v TEXT);
        INSERT INTO t VALUES (1, 'a'), (2, 'b');
        SELECT v FROM t WHERE id = 2;
        """
    )
    return path


class TestRun:
    def test_runs_script(self, script):
        result = run_cli("run", str(script))
        assert result.returncode == 0
        assert "b" in result.stdout
        assert "(1 rows" in result.stdout

    def test_strategy_flag(self, script):
        result = run_cli("run", str(script), "--strategy", "magic")
        assert result.returncode == 0

    def test_unknown_strategy(self, script):
        result = run_cli("run", str(script), "--strategy", "nope")
        assert result.returncode != 0
        assert "unknown strategy" in result.stderr

    def test_a_failing_statement_is_named_after_what_ran_before_it(self, script):
        script.write_text(script.read_text() + "SELECT nosuch FROM t;\nSELECT v FROM t;")
        result = run_cli("run", str(script))
        assert result.returncode == 1
        assert "error: BindError: unknown column 'nosuch'" in result.stderr
        assert "[in statement: SELECT nosuch FROM t]" in result.stderr
        # The query before it printed; the one after it never ran.
        assert result.stdout.count("(1 rows") == 1
        assert "(2 rows" not in result.stdout


class TestExplain:
    def test_explain_with_schema(self, script):
        result = run_cli(
            "explain",
            "SELECT v FROM t WHERE id > (SELECT count(*) FROM t)",
            "--db", str(script), "--strategy", "magic",
        )
        assert result.returncode == 0
        assert "SELECT" in result.stdout


class TestShell:
    def test_shell_session(self):
        session = (
            "CREATE TABLE t (a INT);\n"
            "INSERT INTO t VALUES (1), (2);\n"
            "SELECT count(*) FROM t;\n"
            "\\strategy magic\n"
            "SELECT a FROM t WHERE a > 1;\n"
            "\\q\n"
        )
        result = run_cli("shell", input_text=session)
        assert result.returncode == 0
        assert "strategy = Mag" in result.stdout
        assert "(1 rows" in result.stdout

    def test_shell_reports_errors(self):
        result = run_cli("shell", input_text="SELECT nope FROM nada;\n\\q\n")
        assert result.returncode == 0
        assert "error:" in result.stdout


class TestFigures:
    def test_figures_subset_in_process(self, capsys):
        # In-process to keep it fast; only the cheapest figure.
        code = main(["figures", "--scale", "0.003", "--only", "figure9"])
        out = capsys.readouterr().out
        assert "Figure 9" in out
        assert "Table 1" in out
        assert code == 0


class TestReport:
    def test_report_markdown_in_process(self, tmp_path, capsys):
        code = main([
            "report", "--scale", "0.003", "--only", "figure9",
            "--out", str(tmp_path / "report.md"),
        ])
        assert code == 0
        text = (tmp_path / "report.md").read_text()
        assert "# Complex Query Decorrelation" in text
        assert "## Table 1" in text
        assert "## Figure 9" in text
        assert "## Section 6" in text
        assert "## Ablation" in text
        assert "| NI |" in text


class TestParallel:
    SMALL = ("--depts", "12", "--emps", "60")

    def test_simulator_mode_in_process(self, capsys):
        code = main(["parallel", "--workers", "3", *self.SMALL])
        assert code == 0
        out = capsys.readouterr().out
        assert "simulated section 6 @ 3 nodes" in out
        for count in ("fragments", "messages", "rows_processed", "tasks"):
            assert f"ni {count}" in out and f"decorrelated {count}" in out
        assert "answers agree: True" in out
        assert "makespan" not in out

    def test_simulator_mode_writes_the_counts_report(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        code = main([
            "parallel", "--workers", "3", *self.SMALL, "--json", "sim.json",
        ])
        assert code == 0
        from repro.parallel import simulate_nested_iteration
        from repro.tpcd import load_empdept

        report = json.loads((tmp_path / "sim.json").read_text())
        assert report["n_workers"] == 3 and report["answers_agree"] is True
        catalog = load_empdept(n_depts=12, n_emps=60, n_buildings=8, seed=2)
        ni = simulate_nested_iteration(
            list(catalog.table("dept").rows), list(catalog.table("emp").rows), 3
        )
        assert report["simulated"]["ni"] == {
            "messages": ni.messages, "fragments": ni.fragments,
            "rows_processed": ni.rows_processed, "tasks": ni.tasks,
        }
        assert report["simulated"]["decorrelated"]["fragments"] == 3

    def test_real_mode_writes_only_the_calibration(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        code = main([
            "parallel", "--real", "--workers", "2",
            *self.SMALL, "--json", "calibration.json",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "messages exact: True" in out
        assert "tasks exact: True" in out
        assert "answers agree: True" in out
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "calibration.json"
        ]
        report = json.loads((tmp_path / "calibration.json").read_text())
        assert report["exact"] == {
            "messages": True, "fragments": True,
            "rows_processed": True, "tasks": True,
        }

    def test_bad_faults_spec_exits_nonzero(self):
        result = run_cli("parallel", "--real", "--faults", "nonsense")
        assert result.returncode != 0
        assert "--faults" in result.stderr

    def test_faults_without_real_is_a_usage_error(self, capsys):
        code = main([
            "parallel", *self.SMALL, "--faults", "1:worker.crash=0.5",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "--faults" in err and "--real" in err

    @pytest.mark.parametrize("spec", [
        "1:cluster.node=0.9",
        "1:cluster.*=0.5",
        "1:worker.crash=0.1,cluster.deliver=0.5",
    ])
    def test_faults_that_never_fire_in_a_worker_are_rejected(
        self, capsys, spec
    ):
        code = main(["parallel", "--real", *self.SMALL, "--faults", spec])
        assert code == 2
        err = capsys.readouterr().err
        assert "cluster." in err and "worker.crash" in err

    def test_worker_fault_globs_are_accepted(self):
        from repro.__main__ import _worker_faults

        assert _worker_faults(None, real=False) is None
        for spec in ("1:worker.*=0.1", "1:exchange.drop=0.2"):
            assert _worker_faults(spec, real=True).rules


class TestSoakCLI:
    """Every scenario through the one ``repro soak`` shell, in process."""

    @staticmethod
    def compress(monkeypatch, gated):
        """Compress the A/B scenarios to seconds-long phases; ``gated``
        keeps their gates (a ~1 s comparison is too noisy to *pass* a
        unit test on, so the passing runs drop them)."""
        from dataclasses import replace

        from repro.serve import soak

        phases = (
            soak.OverloadPhase("warmup", 0.4, 40.0),
            soak.OverloadPhase("steady", 0.8, 200.0),
        )
        for name in ("overload_scenario", "plan_cache_scenario"):
            build = getattr(soak, name)

            def short(build=build, **knobs):
                scenario = build(phases=phases, **knobs)
                return scenario if gated else replace(scenario, gates=())

            monkeypatch.setattr(soak, name, short)

    def test_chaos_scenario_without_a_stderr_fileno(
        self, tmp_path, capsys, monkeypatch
    ):
        # ``faulthandler`` cannot arm on a stderr with no file descriptor;
        # the shell runs unguarded instead of raising.
        import io

        monkeypatch.setattr(sys, "stderr", io.StringIO())
        monkeypatch.chdir(tmp_path)
        code = main([
            "soak", "--seconds", "0.5", "--workers", "2", "--scale", "0.002",
            "--faults", "7:rewrite.strategy=0.1", "--trace",
            "--events-out", "events.jsonl", "--json", "r.json",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "soak [chaos]:" in out
        assert "soak: all invariants held" in out
        # Only the files asked for: the event stream and the report.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "events.jsonl", "r.json",
        ]
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["ok"] is True and report["scenario"] == "chaos"

    @pytest.mark.parametrize("flag, side, held", [
        ("--overload", "adaptive", "overload soak: all invariants held"),
        ("--plan-cache", "cached", "plan-cache soak: all invariants held"),
    ])
    def test_ab_scenarios(
        self, monkeypatch, tmp_path, capsys, flag, side, held
    ):
        self.compress(monkeypatch, gated=False)
        code = main([
            "soak", flag, "--workers", "2", "--max-queue", "8",
            "--scale", "0.002", "--json", str(tmp_path / "r.json"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert f"soak [{side}]:" in out
        assert held in out
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["ok"] is True and side in report["sides"]

    def test_a_failed_gate_exits_1(self, capsys, monkeypatch):
        from repro.serve import soak

        self.compress(monkeypatch, gated=True)
        monkeypatch.setattr(soak, "MIN_HIT_RATE", 1.0)  # unreachable floor
        code = main([
            "soak", "--plan-cache", "--workers", "2", "--max-queue", "8",
            "--scale", "0.002",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "VIOLATION: hit_rate" in captured.err
        assert "all invariants held" not in captured.out

    def test_a_wrong_reference_exits_1(self, capsys, monkeypatch):
        from repro.serve import soak

        real = soak.compute_references

        def wrong(catalog, workload=soak.WORKLOAD):
            return {
                key: ("rows", [("not", "the", "answer")])
                for key in real(catalog, workload)
            }

        monkeypatch.setattr(soak, "compute_references", wrong)
        code = main([
            "soak", "--seconds", "0.3", "--workers", "2", "--scale", "0.002",
            "--cancel-rate", "0", "--tight-deadline-rate", "0",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "VIOLATION: wrong_answer" in captured.err
        assert "all invariants held" not in captured.out

    def test_scenario_flags_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["soak", "--overload", "--plan-cache"])
        assert excinfo.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_real_workers_chaos_soak_in_process(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        code = main([
            "soak", "--real-workers", "--workers", "3", "--epochs", "2",
            "--faults", "5:worker.crash=0.2",
            "--events-out", str(events),
            "--json", str(tmp_path / "report.json"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "worker soak: all invariants held" in out
        assert "worker.spawned" in out
        assert events.exists()


@pytest.fixture
def correlated_script(tmp_path):
    """A small correlated-subquery workload for the guardrail flags."""
    path = tmp_path / "corr.sql"
    path.write_text(
        """
        CREATE TABLE dept (name TEXT PRIMARY KEY, building TEXT, num_emps INT);
        CREATE TABLE emp (empno INT PRIMARY KEY, building TEXT);
        INSERT INTO dept VALUES ('d1', 'b1', 2), ('d2', 'b2', 0);
        INSERT INTO emp VALUES (1, 'b1'), (2, 'b1'), (3, 'b2');
        SELECT name FROM dept D WHERE D.num_emps >
            (SELECT count(*) FROM emp E WHERE E.building = D.building);
        """
    )
    return path


class TestGuardrailFlags:
    def test_timeout_exits_124(self, correlated_script):
        result = run_cli("run", str(correlated_script), "--timeout", "0")
        assert result.returncode == 124
        assert "guardrail:" in result.stderr
        assert "timeout" in result.stderr

    def test_max_rows_exits_125_with_metrics(self, correlated_script):
        result = run_cli("run", str(correlated_script), "--max-rows", "1")
        assert result.returncode == 125
        assert "max_rows_scanned" in result.stderr
        assert "work at trip time" in result.stderr
        assert "rows_scanned" in result.stderr

    def test_generous_budgets_run_clean(self, correlated_script):
        result = run_cli(
            "run", str(correlated_script),
            "--timeout", "300", "--max-rows", "1000000",
        )
        assert result.returncode == 0
        assert "(0 rows" in result.stdout  # d1 has exactly num_emps matches

    def test_faults_flag_injects_typed_error(self, correlated_script):
        result = run_cli(
            "run", str(correlated_script), "--faults", "1:storage.scan=1",
        )
        assert result.returncode == 1
        assert "FaultInjectedError" in result.stderr
        assert "storage.scan" in result.stderr

    def test_bad_faults_spec_is_rejected(self, correlated_script):
        result = run_cli(
            "run", str(correlated_script), "--faults", "nonsense",
        )
        assert result.returncode != 0
        assert "--faults" in result.stderr

    def test_faults_runs_are_deterministic(self, correlated_script):
        args = ("run", str(correlated_script),
                "--faults", "9:storage.scan=0.2,exec.join=0.1")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode
        assert first.stdout == second.stdout
        assert first.stderr == second.stderr

    def test_fallback_prints_degradation(self, correlated_script):
        result = run_cli(
            "run", str(correlated_script),
            "--strategy", "magic", "--fallback",
            "--faults", "0:rewrite.strategy=0.3",
        )
        assert result.returncode == 0
        assert "-- degraded 'magic' -> 'ni'" in result.stdout
        assert "FaultInjectedError" in result.stdout


class TestExplainAnalyze:
    def test_analyze_named_query_with_trace_out(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main([
            "explain", "q2", "--tpcd", "0.003", "--analyze",
            "--strategy", "magic", "--trace-out", str(out),
        ])
        text = capsys.readouterr().out
        assert code == 0
        assert "(actual: calls=" in text
        assert "Rewrite timeline:" in text
        assert "Per-operator breakdown:" in text
        assert "reconcile exactly" in text
        assert out.exists()

    def test_analyze_with_db_script(self, correlated_script, capsys):
        code = main([
            "explain",
            "SELECT name FROM dept D WHERE D.num_emps > "
            "(SELECT count(*) FROM emp E WHERE E.building = D.building)",
            "--db", str(correlated_script), "--analyze",
        ])
        assert code == 0
        assert "(actual: calls=" in capsys.readouterr().out

    def test_named_query_requires_tpcd(self):
        with pytest.raises(SystemExit, match="--tpcd"):
            main(["explain", "q1"])

    def test_analyze_requires_data(self):
        with pytest.raises(SystemExit, match="needs data"):
            main(["explain", "SELECT 1", "--analyze"])


class TestTraceCheck:
    def test_exported_trace_passes(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main([
            "explain", "empdept", "--tpcd", "0.003", "--analyze",
            "--trace-out", str(out),
        ]) == 0
        capsys.readouterr()
        assert main(["trace-check", str(out)]) == 0
        assert "OK (version 2" in capsys.readouterr().out

    def test_schema_violation_fails(self, tmp_path, capsys):
        out = tmp_path / "bad.json"
        out.write_text('{"version": 99, "spans": []}')
        assert main(["trace-check", str(out)]) == 1
        assert "version" in capsys.readouterr().err

    def test_unreadable_file_fails(self, tmp_path, capsys):
        assert main(["trace-check", str(tmp_path / "missing.json")]) == 1
        assert "cannot read" in capsys.readouterr().err


class TestStats:
    def test_json_stats_reconcile(self, capsys):
        import json

        code = main(["stats", "--scale", "0.003", "--workers", "2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["submitted"] == 16  # 4 queries x 4 strategies
        assert (
            payload["completed"] + payload["failed"]
            == payload["submitted"]
        )
        assert payload["latency_histogram"]["count"] == 16
        assert payload["recent_traces"]
        assert payload["recent_traces"][0]["operators"]

    def test_prometheus_stats(self, capsys):
        code = main([
            "stats", "--scale", "0.003", "--workers", "2",
            "--format", "prometheus",
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "repro_queries_submitted_total 16" in text
        assert "# TYPE repro_query_latency_seconds histogram" in text
