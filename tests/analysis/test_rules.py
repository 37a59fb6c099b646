"""Every simlint rule fires on its deliberately-bad fixture and stays
silent on the clean one."""

from pathlib import Path

from repro.analysis import SimlintConfig, analyze_file

FIXTURES = Path(__file__).parent / "fixtures"

#: Config anchored at the fixtures directory: default unit-literal
#: allowlist (no fixture matches it) and determinism rules everywhere.
CONFIG = SimlintConfig(root=FIXTURES)


def run_fixture(name: str):
    findings, suppressed = analyze_file(FIXTURES / name, CONFIG)
    return findings, suppressed


def codes(findings) -> set[str]:
    return {f.rule for f in findings}


class TestUnitRules:
    def test_unit_literal_fires_on_every_shape(self):
        findings, _ = run_fixture("bad_units.py")
        literal_lines = {f.line for f in findings if f.rule == "SIM001"}
        # 1024**3, 1 << 20, 1_000_000_000, 10e-9, 1e-6, 2**30
        assert literal_lines == {6, 7, 8, 9, 10, 11}

    def test_unit_literal_suggests_units_names(self):
        findings, _ = run_fixture("bad_units.py")
        messages = " ".join(f.message for f in findings if f.rule == "SIM001")
        for suggestion in ("units.GIB", "units.MIB", "units.GB",
                           "units.NS", "units.US"):
            assert suggestion in messages

    def test_unit_mix_fires_on_div_and_add(self):
        findings, _ = run_fixture("bad_units.py")
        mixes = [f for f in findings if f.rule == "SIM002"]
        assert len(mixes) == 2
        assert {f.line for f in mixes} == {16, 21}

    def test_access_size_1024_is_not_flagged(self, tmp_path):
        target = tmp_path / "sizes.py"
        target.write_text("SIZES = (64, 256, 1024, 4096)\n")
        findings, _ = analyze_file(target, SimlintConfig(root=tmp_path))
        assert findings == []


class TestDeterminismRules:
    def test_unseeded_random_fires(self):
        findings, _ = run_fixture("bad_determinism.py")
        unseeded = [f for f in findings if f.rule == "SIM101"]
        assert len(unseeded) == 5
        messages = " ".join(f.message for f in unseeded)
        assert "default_rng" in messages
        assert "wall clock" in messages

    def test_set_iteration_fires(self):
        findings, _ = run_fixture("bad_determinism.py")
        assert len([f for f in findings if f.rule == "SIM102"]) == 2

    def test_scope_confines_determinism_rules(self):
        scoped = SimlintConfig(root=FIXTURES, determinism_paths=("memsim/",))
        findings, _ = analyze_file(FIXTURES / "bad_determinism.py", scoped)
        assert not codes(findings) & {"SIM101", "SIM102"}


class TestPurityRule:
    def test_mutable_shared_state_fires_on_every_shape(self):
        findings, _ = run_fixture("bad_purity.py")
        flagged = [f for f in findings if f.rule == "SIM103"]
        # module: {} / set() / annotated []; class: [] / dict()
        assert len(flagged) == 5
        messages = " ".join(f.message for f in flagged)
        assert "module-level" in messages
        assert "class-level" in messages
        assert "Evaluator.results" in messages

    def test_dunders_and_immutables_exempt(self):
        findings, _ = run_fixture("bad_purity.py")
        messages = " ".join(f.message for f in findings)
        assert "__all__" not in messages
        assert "SIZES" not in messages
        assert "NAMES" not in messages

    def test_function_locals_not_flagged(self, tmp_path):
        target = tmp_path / "ok.py"
        target.write_text(
            "def evaluate(specs):\n"
            "    acc = {}\n"
            "    for spec in specs:\n"
            "        acc[spec] = 1.0\n"
            "    return acc\n"
        )
        findings, _ = analyze_file(target, SimlintConfig(root=tmp_path))
        assert findings == []

    def test_scope_confines_purity_rule(self):
        scoped = SimlintConfig(root=FIXTURES, determinism_paths=("memsim/",))
        findings, _ = analyze_file(FIXTURES / "bad_purity.py", scoped)
        assert "SIM103" not in codes(findings)


class TestFloatRule:
    def test_float_equality_fires_on_every_shape(self):
        findings, _ = run_fixture("bad_floats.py")
        assert len([f for f in findings if f.rule == "SIM107"]) == 3

    def test_ordered_comparison_not_flagged(self, tmp_path):
        target = tmp_path / "ok.py"
        target.write_text("def f(x):\n    return x <= 0.0 or x > 1.0\n")
        findings, _ = analyze_file(target, SimlintConfig(root=tmp_path))
        assert findings == []


class TestExceptionRules:
    def test_all_three_rules_fire(self):
        findings, _ = run_fixture("bad_exceptions.py")
        assert {"SIM301", "SIM302", "SIM303"} <= codes(findings)

    def test_taxonomy_and_idiomatic_raises_allowed(self, tmp_path):
        target = tmp_path / "ok.py"
        target.write_text(
            "from repro.errors import SimulationError\n"
            "def f():\n"
            "    raise SimulationError('x')\n"
            "def g(key):\n"
            "    raise KeyError(key)\n"
        )
        findings, _ = analyze_file(target, SimlintConfig(root=tmp_path))
        assert findings == []


class TestDocstringRule:
    def test_fires_on_missing_and_unitless_docstrings(self):
        findings, _ = run_fixture("bad_docstrings.py")
        by_line = {f.line: f for f in findings if f.rule == "SIM401"}
        assert set(by_line) == {7, 11}
        assert "no docstring" in by_line[7].message
        assert "never names the unit" in by_line[11].message

    def test_private_helpers_exempt(self, tmp_path):
        target = tmp_path / "ok.py"
        target.write_text("def _scratch_gbps():\n    return 1.0\n")
        findings, _ = analyze_file(target, SimlintConfig(root=tmp_path))
        assert findings == []


class TestObsRules:
    def test_counter_name_fires_on_every_violation_shape(self):
        findings, _ = run_fixture("bad_obs.py")
        bad = [f for f in findings if f.rule == "SIM104"]
        assert {f.line for f in bad} == {5, 6, 7, 8, 9}

    def test_messages_name_the_offending_counter(self):
        findings, _ = run_fixture("bad_obs.py")
        messages = " ".join(f.message for f in findings if f.rule == "SIM104")
        assert "'badname'" in messages
        assert "unit suffix" in messages

    def test_valid_dynamic_and_event_names_not_flagged(self):
        findings, _ = run_fixture("bad_obs.py")
        assert all(f.line < 12 for f in findings if f.rule == "SIM104")


class TestHoistingRules:
    def test_context_derivable_fires_on_topology_queries(self):
        findings, _ = run_fixture("bad_hoisting.py")
        bad = [f for f in findings if f.rule == "SIM105"]
        assert {f.line for f in bad} == {5, 6, 7, 12}

    def test_message_points_at_eval_context(self):
        findings, _ = run_fixture("bad_hoisting.py")
        messages = " ".join(f.message for f in findings if f.rule == "SIM105")
        assert "EvalContext" in messages
        assert "'interleave_ways'" in messages

    def test_precomputed_tables_and_foreign_receivers_not_flagged(self):
        findings, _ = run_fixture("bad_hoisting.py")
        assert all(f.line < 14 for f in findings if f.rule == "SIM105")

    def test_topology_and_context_modules_exempt(self, tmp_path):
        scoped = SimlintConfig(root=tmp_path, determinism_paths=("repro/memsim",))
        source = "def rates(self):\n    return self.topology.interleave_ways(0, 'pmem')\n"
        exempt = tmp_path / "repro" / "memsim"
        exempt.mkdir(parents=True)
        for name in ("topology.py", "context.py"):
            (exempt / name).write_text(source)
            findings, _ = analyze_file(exempt / name, scoped)
            assert findings == [], name
        (exempt / "evaluation.py").write_text(source)
        findings, _ = analyze_file(exempt / "evaluation.py", scoped)
        assert [f.rule for f in findings] == ["SIM105"]

    def test_out_of_scope_paths_not_flagged(self, tmp_path):
        scoped = SimlintConfig(root=tmp_path, determinism_paths=("repro/memsim",))
        target = tmp_path / "repro" / "experiments"
        target.mkdir(parents=True)
        probe = target / "driver.py"
        probe.write_text("def go(model):\n    return model.topology.socket(0)\n")
        findings, _ = analyze_file(probe, scoped)
        assert findings == []


class TestVectorizationRules:
    def test_scalar_loop_fires_on_every_shape(self):
        findings, _ = run_fixture("bad_vectorization.py")
        bad = [f for f in findings if f.rule == "SIM106"]
        # array iteration, range(len(...)), np-call result, while
        # subscript, pop(0) in a loop
        assert {f.line for f in bad} == {8, 11, 14, 18, 23}

    def test_messages_name_the_array_and_the_fix(self):
        findings, _ = run_fixture("bad_vectorization.py")
        messages = " ".join(f.message for f in findings if f.rule == "SIM106")
        assert "'values'" in messages
        assert "array expression" in messages
        assert "deque.popleft" in messages

    def test_plain_python_loops_not_flagged(self):
        findings, _ = run_fixture("bad_vectorization.py")
        assert all(f.line <= 23 for f in findings if f.rule == "SIM106")

    def test_out_of_scope_paths_not_flagged(self, tmp_path):
        scoped = SimlintConfig(
            root=tmp_path, vector_paths=("repro/memsim/kernels",)
        )
        source = (
            "import numpy as np\n"
            "a = np.zeros(4)\n"
            "s = 0.0\n"
            "for v in a:\n"
            "    s += v\n"
        )
        outside = tmp_path / "repro" / "experiments"
        outside.mkdir(parents=True)
        (outside / "driver.py").write_text(source)
        findings, _ = analyze_file(outside / "driver.py", scoped)
        assert findings == []
        inside = tmp_path / "repro" / "memsim" / "kernels"
        inside.mkdir(parents=True)
        (inside / "analytic.py").write_text(source)
        findings, _ = analyze_file(inside / "analytic.py", scoped)
        assert [f.rule for f in findings] == ["SIM106"]


class TestPointMaterializationRule:
    def test_fires_on_every_shape(self):
        findings, _ = run_fixture("bad_materialization.py")
        bad = [f for f in findings if f.rule == "SIM108"]
        # .views() iteration, batch iteration, .view() in a loop body,
        # .views() in a comprehension
        assert {f.line for f in bad} == {11, 14, 18, 21}

    def test_messages_name_the_batch_and_the_fix(self):
        findings, _ = run_fixture("bad_materialization.py")
        messages = " ".join(f.message for f in findings if f.rule == "SIM108")
        assert "'columns'" in messages
        assert "'batch'" in messages
        assert "append_from" in messages
        assert "API boundary" in messages

    def test_boundary_materialization_not_flagged(self):
        findings, _ = run_fixture("bad_materialization.py")
        # Module-level .views()/.view(0) at the API boundary (lines 29-30)
        # and columnar reads are sanctioned.
        assert all(f.line <= 21 for f in findings if f.rule == "SIM108")

    def test_tuple_unpack_tracks_the_batch_position(self, tmp_path):
        source = (
            "from repro.memsim.kernels import evaluate_points_columns\n"
            "columns, emit = evaluate_points_columns(ctx, points, state)\n"
            "labels, out = runner.run_columns(grid)\n"
            "for v in columns.views():\n"
            "    pass\n"
            "for v in out.views():\n"
            "    pass\n"
            "for label in labels:\n"
            "    pass\n"
        )
        probe = tmp_path / "probe.py"
        probe.write_text(source)
        findings, _ = analyze_file(probe, SimlintConfig(root=tmp_path))
        assert [(f.rule, f.line) for f in findings if f.rule == "SIM108"] == [
            ("SIM108", 4),
            ("SIM108", 6),
        ]

    def test_out_of_scope_paths_not_flagged(self, tmp_path):
        scoped = SimlintConfig(root=tmp_path, vector_paths=("repro/sweep",))
        source = (
            "columns = service.evaluate_grid_columns(cfg, points)\n"
            "for v in columns.views():\n"
            "    pass\n"
        )
        outside = tmp_path / "repro" / "experiments"
        outside.mkdir(parents=True)
        (outside / "driver.py").write_text(source)
        findings, _ = analyze_file(outside / "driver.py", scoped)
        assert findings == []
        inside = tmp_path / "repro" / "sweep"
        inside.mkdir(parents=True)
        (inside / "service.py").write_text(source)
        findings, _ = analyze_file(inside / "service.py", scoped)
        assert [f.rule for f in findings] == ["SIM108"]


class TestAsyncBlockingRule:
    def test_fires_on_every_shape(self):
        findings, _ = run_fixture("bad_async.py")
        bad = [f for f in findings if f.rule == "SIM109"]
        # time.sleep, open, io.open, socket.create_connection,
        # subprocess.run, Path.read_text
        assert {f.line for f in bad} == {11, 12, 14, 15, 16, 17}

    def test_messages_name_the_coroutine_and_the_fix(self):
        findings, _ = run_fixture("bad_async.py")
        messages = " ".join(f.message for f in findings if f.rule == "SIM109")
        assert "'stalls_the_loop'" in messages
        assert "injected sleep" in messages
        assert "asyncio.open_connection" in messages
        assert "asyncio.create_subprocess_exec" in messages

    def test_sync_code_and_nested_defs_not_flagged(self):
        findings, _ = run_fixture("bad_async.py")
        # The nested callback (line 25) and plain_function (lines 31-32)
        # may block; only the coroutine's own statements count.
        assert all(f.line <= 17 for f in findings if f.rule == "SIM109")

    def test_only_sim109_fires_on_the_fixture(self):
        findings, _ = run_fixture("bad_async.py")
        assert codes(findings) == {"SIM109"}

    def test_out_of_scope_paths_not_flagged(self, tmp_path):
        scoped = SimlintConfig(root=tmp_path, serve_paths=("repro/serve",))
        source = (
            "import time\n"
            "async def handler():\n"
            "    time.sleep(0.25)\n"
        )
        outside = tmp_path / "repro" / "experiments"
        outside.mkdir(parents=True)
        (outside / "driver.py").write_text(source)
        findings, _ = analyze_file(outside / "driver.py", scoped)
        assert findings == []
        inside = tmp_path / "repro" / "serve"
        inside.mkdir(parents=True)
        (inside / "server.py").write_text(source)
        findings, _ = analyze_file(inside / "server.py", scoped)
        assert [f.rule for f in findings] == ["SIM109"]


class TestTransportRule:
    def test_fires_on_every_shape(self):
        findings, _ = run_fixture("bad_transport.py")
        bad = [f for f in findings if f.rule == "SIM110"]
        # open_connection, start_server, StreamReader (no limit=),
        # zero-arg .read(), unbounded recv accumulation loop
        assert {f.line for f in bad} == {7, 8, 9, 14, 20}

    def test_bounded_shapes_not_flagged(self):
        findings, _ = run_fixture("bad_transport.py")
        # bounded_streams / accumulates_bounded (lines 25+) pass a
        # limit=, a read size, or check len(buf) — all clean.
        assert all(f.line < 25 for f in findings)

    def test_messages_name_the_bound_to_add(self):
        findings, _ = run_fixture("bad_transport.py")
        messages = " ".join(f.message for f in findings if f.rule == "SIM110")
        assert "limit=" in messages
        assert "max frame size" in messages
        assert "len(buf)" in messages

    def test_only_sim110_fires_on_the_fixture(self):
        findings, _ = run_fixture("bad_transport.py")
        assert codes(findings) == {"SIM110"}

    def test_out_of_scope_paths_not_flagged(self, tmp_path):
        scoped = SimlintConfig(
            root=tmp_path,
            transport_paths=("repro/serve", "repro/sweep/cluster"),
        )
        source = (
            "import asyncio\n"
            "async def dial(host, port):\n"
            "    return await asyncio.open_connection(host, port)\n"
        )
        outside = tmp_path / "repro" / "experiments"
        outside.mkdir(parents=True)
        (outside / "driver.py").write_text(source)
        findings, _ = analyze_file(outside / "driver.py", scoped)
        assert findings == []
        inside = tmp_path / "repro" / "sweep" / "cluster"
        inside.mkdir(parents=True)
        (inside / "protocol.py").write_text(source)
        findings, _ = analyze_file(inside / "protocol.py", scoped)
        assert [f.rule for f in findings] == ["SIM110"]


class TestCleanAndSuppressed:
    def test_clean_fixture_has_no_findings(self):
        findings, suppressed = run_fixture("clean.py")
        assert findings == []
        assert suppressed == 0

    def test_suppressions_silence_by_name_code_and_bare(self):
        findings, suppressed = run_fixture("suppressed.py")
        assert findings == []
        assert suppressed == 5  # SIM001 x2, SIM107, SIM301, SIM302

    def test_parse_error_reported_as_finding(self, tmp_path):
        target = tmp_path / "broken.py"
        target.write_text("def broken(:\n")
        findings, _ = analyze_file(target, SimlintConfig(root=tmp_path))
        assert [f.rule for f in findings] == ["SIM000"]
