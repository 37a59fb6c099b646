"""Tests for the discrete-event engine."""

import pytest

from repro.errors import WorkloadError
from repro.memsim import MachineConfig, eval_context
from repro.memsim.engine import DiscreteEventEngine, EngineConfig, build_traces, simulate
from repro.memsim.spec import Layout, Op, Pattern
from repro.units import MIB


class TestTraces:
    def test_grouped_forms_global_sequential_stream(self):
        traces = build_traces(
            threads=4, access_size=256, total_bytes=64 * 1024,
            layout=Layout.GROUPED, pattern=Pattern.SEQUENTIAL,
        )
        # Thread 0 reads bytes 0-255, thread 1 from 256 (§3.1 definition).
        firsts = [next(iter(t))[0] for t in traces]
        assert firsts == [0, 256, 512, 768]
        # Thread 0's second op starts after all other threads' first ops.
        ops0 = list(traces[0])
        assert ops0[1][0] == 4 * 256

    def test_individual_gives_disjoint_slices(self):
        traces = build_traces(
            threads=2, access_size=4096, total_bytes=1 * MIB,
            layout=Layout.INDIVIDUAL, pattern=Pattern.SEQUENTIAL,
        )
        ops0 = list(traces[0])
        ops1 = list(traces[1])
        end0 = ops0[-1][0] + 4096
        assert ops1[0][0] >= end0

    def test_random_is_reproducible(self):
        kwargs = dict(
            threads=2, access_size=256, total_bytes=64 * 1024,
            layout=Layout.INDIVIDUAL, pattern=Pattern.RANDOM,
            region_bytes=1 * MIB, seed=42,
        )
        a = [list(t) for t in build_traces(**kwargs)]
        b = [list(t) for t in build_traces(**kwargs)]
        assert a == b

    def test_random_stays_in_region(self):
        traces = build_traces(
            threads=1, access_size=256, total_bytes=64 * 1024,
            layout=Layout.INDIVIDUAL, pattern=Pattern.RANDOM,
            region_bytes=1 * MIB,
        )
        for address, size in traces[0]:
            assert 0 <= address
            assert address + size <= 1 * MIB

    def test_volume_too_small_rejected(self):
        with pytest.raises(WorkloadError):
            build_traces(
                threads=8, access_size=4096, total_bytes=4096,
                layout=Layout.INDIVIDUAL, pattern=Pattern.SEQUENTIAL,
            )


class TestEngineBasics:
    def test_bandwidth_positive_and_bounded(self):
        result = simulate(
            EngineConfig(op=Op.READ, threads=4, access_size=4096, total_bytes=4 * MIB)
        )
        assert 0 < result.gbps <= 41.0

    def test_all_bytes_accounted(self):
        config = EngineConfig(
            op=Op.READ, threads=4, access_size=4096, total_bytes=4 * MIB
        )
        result = simulate(config)
        # Volume is rounded down to whole ops per thread.
        ops = (4 * MIB // 4096 // 4) * 4
        assert result.bytes_moved == ops * 4096
        assert sum(result.per_dimm_bytes) == result.bytes_moved

    def test_individual_access_balances_dimms(self):
        result = simulate(
            EngineConfig(op=Op.READ, threads=6, access_size=4096, total_bytes=8 * MIB)
        )
        assert result.dimm_imbalance < 1.1

    def test_deterministic_given_seed(self):
        config = EngineConfig(
            op=Op.WRITE, threads=8, access_size=4096, total_bytes=4 * MIB, seed=3
        )
        a = simulate(config)
        b = simulate(config)
        assert a.seconds == b.seconds

    def test_config_validation(self):
        with pytest.raises(WorkloadError):
            EngineConfig(op=Op.READ, threads=0, access_size=4096)
        with pytest.raises(WorkloadError):
            EngineConfig(op=Op.READ, threads=1, access_size=32)

    @pytest.mark.parametrize("field", ["phase_spread", "issue_jitter"])
    @pytest.mark.parametrize("value", [-1e-9, float("nan"), float("inf")])
    def test_timing_inputs_must_be_finite_and_non_negative(self, field, value):
        with pytest.raises(WorkloadError, match=field.replace("_", " ")):
            EngineConfig(op=Op.READ, threads=1, access_size=4096, **{field: value})

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "7", None])
    def test_seed_must_be_a_non_negative_int(self, seed):
        with pytest.raises(WorkloadError, match="seed"):
            EngineConfig(op=Op.READ, threads=1, access_size=4096, seed=seed)

    def test_zero_timing_noise_is_valid(self):
        config = EngineConfig(
            op=Op.READ, threads=2, access_size=4096, total_bytes=1 * MIB,
            phase_spread=0.0, issue_jitter=0.0,
        )
        assert simulate(config).gbps > 0


class TestEmergentReadBehaviour:
    def test_read_thread_scaling(self):
        b1 = simulate(
            EngineConfig(op=Op.READ, threads=1, access_size=4096, total_bytes=4 * MIB)
        ).gbps
        b8 = simulate(
            EngineConfig(op=Op.READ, threads=8, access_size=4096, total_bytes=8 * MIB)
        ).gbps
        b18 = simulate(
            EngineConfig(op=Op.READ, threads=18, access_size=4096, total_bytes=16 * MIB)
        ).gbps
        assert b1 < b8 < b18
        assert b18 == pytest.approx(40.0, rel=0.05)

    def test_grouped_small_reads_amplify_and_collapse(self):
        # The §3.1 mechanism: many threads sharing 256 B lines re-fetch
        # them from the media.
        result = simulate(
            EngineConfig(
                op=Op.READ, threads=36, access_size=64,
                layout=Layout.GROUPED, total_bytes=2 * MIB,
            )
        )
        assert result.amplification > 1.5
        assert result.gbps < 20.0

    def test_grouped_4k_reaches_peak(self):
        result = simulate(
            EngineConfig(
                op=Op.READ, threads=36, access_size=4096,
                layout=Layout.GROUPED, total_bytes=16 * MIB,
            )
        )
        assert result.gbps == pytest.approx(40.0, rel=0.05)
        assert result.amplification == pytest.approx(1.0)

    def test_individual_small_reads_do_not_amplify(self):
        result = simulate(
            EngineConfig(op=Op.READ, threads=18, access_size=64, total_bytes=2 * MIB)
        )
        assert result.amplification < 1.1
        assert result.gbps > 30.0

    def test_random_sub_line_reads_amplify_4x(self):
        result = simulate(
            EngineConfig(
                op=Op.READ, threads=18, access_size=64, pattern=Pattern.RANDOM,
                total_bytes=1 * MIB, region_bytes=256 * MIB,
            )
        )
        assert result.amplification == pytest.approx(4.0, rel=0.05)


class TestEmergentWriteBehaviour:
    def test_write_peak_at_4_to_6_threads(self):
        curve = {
            t: simulate(
                EngineConfig(op=Op.WRITE, threads=t, access_size=4096, total_bytes=8 * MIB)
            ).gbps
            for t in (1, 2, 4, 6, 8, 18)
        }
        best = max(curve, key=curve.get)
        assert best in (4, 6)
        assert curve[best] == pytest.approx(13.0, rel=0.08)

    def test_write_boomerang_emerges(self):
        # 18 threads at 4 KB collapse; 4 threads do not.
        b4 = simulate(
            EngineConfig(op=Op.WRITE, threads=4, access_size=4096, total_bytes=8 * MIB)
        )
        b18 = simulate(
            EngineConfig(op=Op.WRITE, threads=18, access_size=4096, total_bytes=8 * MIB)
        )
        assert b18.gbps < 0.6 * b4.gbps
        assert b18.amplification > 1.5
        assert b4.amplification == pytest.approx(1.0)

    def test_grouped_small_writes_amplify(self):
        result = simulate(
            EngineConfig(
                op=Op.WRITE, threads=36, access_size=64,
                layout=Layout.GROUPED, total_bytes=2 * MIB,
            )
        )
        assert result.amplification > 2.0

    def test_write_combining_ablation(self):
        on = DiscreteEventEngine()
        off = DiscreteEventEngine(
            eval_context(MachineConfig(write_combining_enabled=False))
        )
        config = EngineConfig(
            op=Op.WRITE, threads=4, access_size=4096, total_bytes=4 * MIB
        )
        assert off.run(config).gbps < 0.5 * on.run(config).gbps


class TestEngineVsAnalytic:
    """The two fidelity levels must agree on the calibrated anchors."""

    TOLERANCE = 0.45  # relative band; the engine is a coarse replay

    @pytest.mark.parametrize(
        "op,threads,size,layout",
        [
            (Op.READ, 1, 4096, Layout.INDIVIDUAL),
            (Op.READ, 8, 4096, Layout.INDIVIDUAL),
            (Op.READ, 18, 4096, Layout.INDIVIDUAL),
            (Op.READ, 36, 4096, Layout.GROUPED),
            (Op.READ, 36, 64, Layout.GROUPED),
            (Op.WRITE, 1, 4096, Layout.INDIVIDUAL),
            (Op.WRITE, 4, 4096, Layout.INDIVIDUAL),
            (Op.WRITE, 18, 4096, Layout.INDIVIDUAL),
            (Op.WRITE, 36, 64, Layout.INDIVIDUAL),
        ],
    )
    def test_agreement(self, op, threads, size, layout):
        from repro.memsim import StreamSpec, evaluate, paper_config

        spec = StreamSpec(op=op, threads=threads, access_size=size, layout=layout)
        analytic = evaluate(paper_config(), (spec,)).total_gbps
        engine = simulate(
            EngineConfig(
                op=op, threads=threads, access_size=size, layout=layout,
                total_bytes=max(4 * MIB, threads * size * 64),
            )
        ).gbps
        assert engine == pytest.approx(analytic, rel=self.TOLERANCE)
