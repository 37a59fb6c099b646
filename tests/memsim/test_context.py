"""EvalContext: derived tables match inline derivation, bit for bit."""

import pytest

from repro.errors import ConfigurationError, TopologyError
from repro.memsim import (
    DirectoryState,
    EvalContext,
    MachineConfig,
    MediaKind,
    Op,
    StreamSpec,
    eval_context,
    evaluate,
    paper_config,
)
from repro.memsim.context import _build_context, components
from repro.memsim.engine.simulator import DiscreteEventEngine, EngineConfig
from repro.memsim.scheduler import PinningPolicy
from repro.memsim.spec import Pattern

SPECS = (
    StreamSpec(op=Op.READ, threads=18, access_size=4096),
    StreamSpec(op=Op.WRITE, threads=6, access_size=16384,
               pinning=PinningPolicy.NUMA_REGION),
    StreamSpec(op=Op.READ, threads=8, access_size=4096,
               issuing_socket=0, target_socket=1),
    StreamSpec(op=Op.READ, threads=16, access_size=256, pattern=Pattern.RANDOM),
    StreamSpec(op=Op.WRITE, threads=4, access_size=64, pattern=Pattern.RANDOM,
               media=MediaKind.DRAM),
)


class TestDerivation:
    def test_cached_per_config(self):
        config = paper_config()
        assert eval_context(config) is eval_context(config)

    def test_distinct_configs_get_distinct_contexts(self):
        base = eval_context(paper_config())
        other = eval_context(MachineConfig(prefetcher_enabled=False))
        assert base is not other
        assert base.components is not other.components

    def test_tables_cover_every_socket_and_media(self):
        context = eval_context(paper_config())
        topology = context.config.topology
        for socket in topology.sockets:
            assert socket.socket_id in context.socket_ids
            for media in MediaKind:
                key = (socket.socket_id, media)
                ways = context.interleave_ways[key]
                assert ways == topology.interleave_ways(socket.socket_id, media)
                if ways == 0:
                    assert context.interleave_maps[key] is None
                else:
                    assert context.interleave_maps[key] is not None

    def test_mappings_are_read_only(self):
        context = eval_context(paper_config())
        with pytest.raises(TypeError):
            context.interleave_ways[(0, MediaKind.PMEM)] = 99

    def test_components_shared_with_component_cache(self):
        config = paper_config()
        assert eval_context(config).components is components(config)

    def test_require_socket_matches_topology_error(self):
        context = eval_context(paper_config())
        with pytest.raises(TopologyError, match="no such socket: 9"):
            context.require_socket(9)


class TestEvaluateWithContext:
    def test_explicit_context_is_bit_identical(self):
        config = paper_config()
        context = eval_context(config)
        for spec in SPECS:
            for state in (DirectoryState.cold(), DirectoryState.warm(config.topology)):
                implicit = evaluate(config, (spec,), state)
                explicit = evaluate(config, (spec,), state, context=context)
                assert implicit.counters == explicit.counters
                assert implicit.directory_after == explicit.directory_after
                assert [s.gbps for s in implicit.streams] == [
                    s.gbps for s in explicit.streams
                ]

    def test_freshly_built_context_is_equivalent(self):
        config = paper_config()
        rebuilt = _build_context(config)
        spec = SPECS[0]
        assert (
            evaluate(config, (spec,), context=rebuilt).counters
            == evaluate(config, (spec,)).counters
        )

    def test_mismatched_context_rejected(self):
        other = eval_context(MachineConfig(prefetcher_enabled=False))
        with pytest.raises(ConfigurationError, match="different MachineConfig"):
            evaluate(paper_config(), (SPECS[0],), context=other)

    def test_equal_config_different_instance_accepted(self):
        config = paper_config()
        clone = MachineConfig()
        assert clone == config and clone is not config
        context = eval_context(config)
        result = evaluate(clone, (SPECS[0],), context=context)
        assert result.total_gbps > 0


class TestEngineWithContext:
    def test_engine_accepts_context(self):
        config = paper_config()
        context = eval_context(config)
        engine_config = EngineConfig(op=Op.READ, threads=18, access_size=4096)
        plain = DiscreteEventEngine().run(engine_config)
        contextual = DiscreteEventEngine(context=context).run(engine_config)
        assert plain.gbps == contextual.gbps
