"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.experiments.registry import REGISTRY


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for exp_id in ("fig3", "fig14", "table1", "bestpractices"):
            assert exp_id in out


class TestRun:
    def test_runs_experiment(self, capsys):
        assert main(["run", "fig4"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out
        assert "paper" in out

    def test_unknown_experiment_exits_two_before_running_anything(self, capsys):
        assert main(["run", "fig3", "nosuch"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # fig3 did not run
        assert captured.err == (
            "run: unknown experiment 'nosuch'; available: "
            f"{sorted(REGISTRY)}\n"
        )

    def test_ssb_experiments_share_one_runner(
        self, fresh_default_service, monkeypatch, capsys
    ):
        from repro.experiments.registry import run_experiment
        from repro.ssb import runner as ssb_runner

        made = []

        class Counted(ssb_runner.SsbRunner):
            def __init__(self):
                made.append(self)
                super().__init__(measured_sf=0.01)

        monkeypatch.setattr(ssb_runner, "SsbRunner", Counted)
        assert main(["run", "fig14", "table1"]) == 0
        out = capsys.readouterr().out
        assert len(made) == 1
        # table1's Q2.1 engine was already executed and priced for fig14.
        assert out.endswith("evaluation cache: 0 hits / 49 misses (0.0% hit rate)\n")
        separate = "".join(
            run_experiment(exp_id, runner=Counted()).render() + "\n\n"
            for exp_id in ("fig14", "table1")
        )
        assert out.startswith(separate)


class TestBandwidth:
    def test_default_read(self, capsys):
        assert main(["bandwidth"]) == 0
        out = capsys.readouterr().out
        assert "GB/s" in out
        assert "read" in out

    def test_write_with_options(self, capsys):
        assert main(
            ["bandwidth", "--op", "write", "--threads", "4", "--size", "4096"]
        ) == 0
        value = float(capsys.readouterr().out.split(":")[-1].split()[0])
        assert value == pytest.approx(12.6, rel=0.05)

    def test_far_cold_read(self, capsys):
        assert main(["bandwidth", "--far", "--cold", "--threads", "4"]) == 0
        value = float(capsys.readouterr().out.split(":")[-1].split()[0])
        assert value == pytest.approx(8.0, rel=0.1)

    def test_far_warm_read(self, capsys):
        # Without --cold a far read runs against a warm directory (§3.4).
        assert main(["bandwidth", "--far"]) == 0
        assert capsys.readouterr().out == (
            "read sequential 4096B x 18 threads "
            "(individual, cores, far pmem): 33.00 GB/s\n"
        )

    def test_random_read(self, capsys):
        assert main(
            ["bandwidth", "--pattern", "random", "--size", "256", "--threads", "36"]
        ) == 0
        assert "random" in capsys.readouterr().out

    def test_dram_grouped(self, capsys):
        assert main(
            ["bandwidth", "--media", "dram", "--layout", "grouped", "--threads", "18"]
        ) == 0
        value = float(capsys.readouterr().out.split(":")[-1].split()[0])
        assert value > 90


class TestVerify:
    def test_all_hold(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "all 12 insights and 7 best practices hold" in out


class TestAdvise:
    def test_scan_heavy(self, capsys):
        assert main(["advise", "--profile", "scan_heavy"]) == 0
        out = capsys.readouterr().out
        assert "Recommended PMEM configuration" in out
        assert "BP2" in out

    def test_constrained(self, capsys):
        assert main(
            ["advise", "--profile", "mixed", "--threads", "8",
             "--no-system-control", "--needs-filesystem"]
        ) == 0
        out = capsys.readouterr().out
        assert "fsdax" in out
        assert "numa_region" in out


class TestSsb:
    def test_ssb_runs(self, capsys):
        assert main(["ssb", "--sf", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "Figure 14b" in out
        assert "Table 1" in out
        assert "SSD" in out


class TestBadInput:
    """A typed error from bad input is one stderr line and exit 2."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["trace", "nope"], "trace: unknown experiment 'nope'"),
            (["bandwidth", "--threads", "0"],
             "bandwidth: thread count must be >= 1, got 0"),
            (["ssb", "--sf", "0"], "ssb: scale factor must be positive"),
            (["advise", "--sockets", "0"], "advise: need at least one socket"),
            (["hybrid", "--dram-budget-gib", "-5"],
             "hybrid: DRAM budget cannot be negative"),
        ],
        ids=["trace", "bandwidth", "ssb", "advise", "hybrid"],
    )
    def test_prints_command_and_message(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message)
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["fly"])


class TestClusterCli:
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "fig4", "--backend", "cluster", "--workers", "2"],
            ["bench", "--smoke", "--jobs", "2"],
            ["bench", "--smoke", "--backend", "vector"],
            ["run", "fig4", "--backend", "cluster", "--connect", "h:1"],
            ["run", "fig4", "--backend", "cluster"],
            ["run", "fig4", "--jobs", "2"],
            ["run", "fig4", "--cache-dir", "D"],
            ["serve", "--cache-dir", "D"],
        ],
        ids=["run-workers", "bench-jobs", "bench-backend", "run-connect",
             "run-backend", "run-jobs", "run-cache-dir", "serve-cache-dir"],
    )
    def test_removed_flags_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_worker_command_removed(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["worker", "--port", "0"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'worker'" in capsys.readouterr().err


class TestServeCli:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["serve", "--port", "99999"], "--port: must be in 0..65535"),
            (["serve", "--port", "-1"], "--port: must be in 0..65535"),
            (["request", "--port", "0", "{}"], "--port: must be in 1..65535"),
            (["request", "--port", "65536", "{}"], "--port: must be in 1..65535"),
        ],
        ids=["serve-high", "serve-negative", "request-zero", "request-high"],
    )
    def test_out_of_range_port_is_a_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    def test_busy_port_is_bad_input(self, capsys):
        import socket

        with socket.create_server(("127.0.0.1", 0)) as listener:
            port = listener.getsockname()[1]
            assert main(["serve", "--host", "127.0.0.1", "--port", str(port)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"serve: cannot listen on 127.0.0.1:{port}: ")
        assert "Traceback" not in captured.err and captured.out == ""

    def test_unresolvable_host_is_bad_input(self, monkeypatch, capsys):
        import socket

        def no_such_host(*args, **kwargs):
            raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")

        # Resolution fails locally: no name lookup leaves the process.
        monkeypatch.setattr(socket, "getaddrinfo", no_such_host)
        assert main(["serve", "--host", "no-such-host", "--port", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("serve: cannot listen on no-such-host:0: ")
        assert "Name or service not known" in err


class TestHybrid:
    def test_hybrid_plan(self, capsys):
        assert main(["hybrid", "--sf", "0.02", "--dram-budget-gib", "8"]) == 0
        out = capsys.readouterr().out
        assert "hybrid plan" in out
        assert "PMEM-only" in out and "DRAM-only" in out


@pytest.fixture
def fresh_default_service():
    """Isolate the process-wide evaluation service: earlier tests may
    have warmed its memo cache, which would turn every evaluation into
    a cache hit and suppress the memsim.* counters asserted below."""
    from repro.sweep import set_default_service

    previous = set_default_service(None)
    yield
    set_default_service(previous)


class TestRunMetrics:
    def test_metrics_prints_counter_report(self, fresh_default_service, capsys):
        assert main(["run", "fig5", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "memsim.app.read_bytes" in out
        assert "sweep.cache.misses_count" in out

    def test_metrics_snapshot_written_as_canonical_json(self, tmp_path, capsys):
        import json

        from repro.obs.golden import canonical_json

        target = tmp_path / "metrics.json"
        assert main(["run", "fig5", "--metrics", "-o", str(target)]) == 0
        snapshot = json.loads(target.read_text(encoding="utf-8"))
        assert set(snapshot) == {"counters", "histograms", "events", "spans"}
        assert target.read_text(encoding="utf-8") == canonical_json(snapshot)

    def test_without_metrics_no_counter_report(self, capsys):
        assert main(["run", "fig5"]) == 0
        assert "counters:" not in capsys.readouterr().out

    def test_output_without_metrics_is_a_usage_error(self, tmp_path, capsys):
        target = tmp_path / "metrics.json"
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig3", "-o", str(target)])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "-o/--output requires --metrics" in captured.err
        assert not target.exists()


class TestTrace:
    def test_trace_to_stdout_is_valid_jsonl(self, capsys):
        import json

        assert main(["trace", "fig5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["type"] == "span_begin"
        assert records[0]["fields"] == {"exp_id": "fig5"}
        assert records[-1]["type"] == "span_end"
        assert [r["seq"] for r in records] == list(range(len(records)))
        # Deterministic by default: no wall-clock fields.
        assert all("t" not in r for r in records)

    def test_trace_to_file(self, tmp_path, capsys):
        import json

        target = tmp_path / "trace.jsonl"
        assert main(["trace", "fig5", "-o", str(target)]) == 0
        assert "trace records" in capsys.readouterr().out
        records = [
            json.loads(line)
            for line in target.read_text(encoding="utf-8").splitlines()
        ]
        assert any(r["type"] == "counter" for r in records)

    def test_trace_timestamps_flag_adds_t(self, tmp_path):
        import json

        target = tmp_path / "trace.jsonl"
        assert main(["trace", "fig5", "-o", str(target), "--timestamps"]) == 0
        first = json.loads(target.read_text(encoding="utf-8").splitlines()[0])
        assert "t" in first


class TestUnwritableOutput:
    """An ``-o`` path that cannot be written fails before anything runs."""

    @pytest.mark.parametrize(
        "argv",
        [["run", "fig3", "--metrics", "-o"], ["trace", "fig3", "-o"]],
        ids=["run", "trace"],
    )
    def test_rejected_before_the_experiment_runs(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        from repro.experiments import registry

        def must_not_run(exp_id, **kwargs):
            raise AssertionError(f"{exp_id} ran before the output was checked")

        monkeypatch.setattr(registry, "run_experiment", must_not_run)
        target = tmp_path / "missing" / "x.out"
        assert main([*argv, str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"{argv[0]}: cannot write {target}: No such file or directory\n"
        )


class TestBenchOutput:
    """``bench -o`` is checked before the suite runs, like ``run -o``."""

    @pytest.fixture
    def runs(self, monkeypatch):
        from repro import bench

        calls = []

        def fake_run(names, **kwargs):
            calls.append(names)
            return {"created": "20260101T000000Z", "benchmarks": []}

        monkeypatch.setattr(bench, "run_benchmarks", fake_run)
        return calls

    def test_file_under_a_regular_file_is_rejected_before_running(
        self, runs, tmp_path, capsys
    ):
        blocker = tmp_path / "plain"
        blocker.write_text("")
        target = blocker / "x.json"
        assert main(["bench", "--smoke", "-o", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"bench: cannot write {target}: ")
        assert runs == []

    def test_unwritable_directory_is_rejected_before_running(
        self, runs, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr("os.access", lambda path, mode: False)
        assert main(["bench", "--smoke", "-o", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"bench: cannot write {tmp_path}: Permission denied\n"
        )
        assert runs == []

    def test_directory_gets_the_canonical_name(self, runs, tmp_path):
        assert main(["bench", "--smoke", "-o", str(tmp_path)]) == 0
        written = tmp_path / "BENCH_20260101T000000Z.json"
        assert json.loads(written.read_text())["benchmarks"] == []
        assert len(runs) == 1

    def test_trailing_separator_makes_a_directory(self, runs, tmp_path):
        import os

        target = tmp_path / "new" / "results"
        assert main(["bench", "--smoke", "-o", f"{target}{os.sep}"]) == 0
        assert (target / "BENCH_20260101T000000Z.json").is_file()

    def test_file_parents_are_created(self, runs, tmp_path):
        target = tmp_path / "a" / "b" / "snap.json"
        assert main(["bench", "--smoke", "-o", str(target)]) == 0
        assert json.loads(target.read_text())["created"] == "20260101T000000Z"


class TestLint:
    def test_lint_json_smoke(self, capsys):
        # The tree must be clean, so the subcommand exits 0 and emits a
        # JSON report over the configured paths.
        import json

        assert main(["lint", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []
        assert payload["files"] > 0

    def test_lint_reports_findings_on_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("x = 1.0 == 1.0\n")
        assert main(["lint", str(bad)]) == 1
        assert "SIM107" in capsys.readouterr().out

    def test_lint_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        assert "unit-literal" in capsys.readouterr().out
