"""Tests for stream specifications."""

from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.memsim import (
    DaxMode,
    Layout,
    MediaKind,
    Op,
    Pattern,
    StreamSpec,
    read_stream,
    write_stream,
)
from repro.memsim.scheduler import PinningPolicy


class TestValidation:
    def test_zero_threads_rejected(self):
        with pytest.raises(WorkloadError):
            StreamSpec(op=Op.READ, threads=0)

    def test_sub_cacheline_access_rejected(self):
        with pytest.raises(WorkloadError):
            StreamSpec(op=Op.READ, threads=1, access_size=32)

    def test_ssd_media_rejected(self):
        with pytest.raises(WorkloadError):
            StreamSpec(op=Op.READ, threads=1, media=MediaKind.SSD)

    def test_negative_socket_rejected(self):
        with pytest.raises(WorkloadError):
            StreamSpec(op=Op.READ, threads=1, issuing_socket=-1)

    def test_zero_region_rejected(self):
        with pytest.raises(WorkloadError):
            StreamSpec(op=Op.READ, threads=1, region_bytes=0)


class TestProperties:
    def test_far_detection(self):
        near = StreamSpec(op=Op.READ, threads=1)
        far = StreamSpec(op=Op.READ, threads=1, target_socket=1)
        assert not near.far
        assert far.far

    def test_is_read(self):
        assert StreamSpec(op=Op.READ, threads=1).is_read
        assert not StreamSpec(op=Op.WRITE, threads=1).is_read

    def test_with_replaces_fields(self):
        spec = StreamSpec(op=Op.READ, threads=4)
        other = spec.with_(threads=8, layout=Layout.GROUPED)
        assert other.threads == 8
        assert other.layout is Layout.GROUPED
        assert spec.threads == 4  # original untouched

    def test_defaults_match_paper_conventions(self):
        spec = StreamSpec(op=Op.READ, threads=1)
        assert spec.access_size == 4096
        assert spec.layout is Layout.INDIVIDUAL
        assert spec.pinning is PinningPolicy.CORES
        assert spec.media is MediaKind.PMEM


class TestShorthands:
    def test_read_stream(self):
        spec = read_stream(8, access_size=256)
        assert spec.op is Op.READ
        assert spec.threads == 8
        assert spec.access_size == 256

    def test_write_stream(self):
        spec = write_stream(4)
        assert spec.op is Op.WRITE


FIELD_NAMES = (
    "op", "threads", "access_size", "media", "pattern", "layout", "pinning",
    "issuing_socket", "target_socket", "region_bytes", "total_bytes",
    "dax_mode", "prefaulted",
)

specs = st.builds(
    StreamSpec,
    op=st.sampled_from(Op),
    threads=st.integers(min_value=1, max_value=72),
    access_size=st.integers(min_value=1, max_value=1024).map(lambda lines: lines * 64),
    media=st.sampled_from([MediaKind.PMEM, MediaKind.DRAM]),
    pattern=st.sampled_from(Pattern),
    layout=st.sampled_from(Layout),
    pinning=st.sampled_from(PinningPolicy),
    issuing_socket=st.integers(min_value=0, max_value=1),
    target_socket=st.integers(min_value=0, max_value=1),
    region_bytes=st.integers(min_value=1, max_value=1 << 40),
    total_bytes=st.integers(min_value=1, max_value=1 << 40),
    dax_mode=st.sampled_from(DaxMode),
    prefaulted=st.booleans(),
)


class TestWithProperties:
    """``with_`` builds exactly what :func:`dataclasses.replace` builds."""

    def test_fields_are_the_thirteen_declared(self):
        # sweep.cache's canonical encoding iterates these fields.
        assert tuple(f.name for f in fields(StreamSpec)) == FIELD_NAMES

    @given(spec=specs, other=specs, names=st.sets(st.sampled_from(FIELD_NAMES)))
    @settings(max_examples=200, deadline=None)
    def test_matches_replace(self, spec, other, names):
        changes = {name: getattr(other, name) for name in names}
        built = spec.with_(**changes)
        expected = replace(spec, **changes)
        assert built == expected
        assert hash(built) == hash(expected)
        assert repr(built) == repr(expected)

    @given(spec=specs)
    @settings(max_examples=50, deadline=None)
    def test_hash_is_the_field_tuple_hash(self, spec):
        assert hash(spec) == hash(tuple(getattr(spec, f.name) for f in fields(spec)))

    @given(spec=specs, threads=st.integers(min_value=1, max_value=72))
    @settings(max_examples=25, deadline=None)
    def test_unknown_field_rejected(self, spec, threads):
        with pytest.raises(TypeError, match="unexpected keyword argument 'nosuch'"):
            spec.with_(threads=threads, nosuch=1)

    @given(spec=specs)
    @settings(max_examples=25, deadline=None)
    def test_invalid_values_rejected_as_before(self, spec):
        with pytest.raises(WorkloadError) as threads_error:
            spec.with_(threads=0)
        assert str(threads_error.value) == "thread count must be >= 1, got 0"
        with pytest.raises(WorkloadError) as size_error:
            spec.with_(access_size=32)
        assert str(size_error.value) == (
            "access size must be >= one cache line (64 B), got 32"
        )
