"""Golden cache keys and block bytes: the on-disk format is a contract.

A ``DiskCache`` directory written by one version must be served by the
next to every library user that keeps one (``EvaluationService(
disk_cache=DiskCache(path))``), so neither the request digest nor the
bytes of a stored column block may drift with a change of encoder. The hex values below were recorded from
the canonical-JSON encoding the disk cache has always used; any change
to them orphans every existing cache directory.
"""

import hashlib

from repro.memsim.config import DirectoryState, MachineConfig, paper_config
from repro.memsim.spec import read_stream, write_stream
from repro.sweep import DiskCache, EvaluationService
from repro.sweep.cache import request_digest

NEAR = (read_stream(4),)
FAR_PAIR = (
    read_stream(8, issuing_socket=0, target_socket=1),
    read_stream(8, issuing_socket=1, target_socket=0),
)
BATCH = [
    (read_stream(4),),
    (read_stream(8, issuing_socket=0, target_socket=1),),
    (read_stream(2, access_size=256), write_stream(2, access_size=512)),
]


def test_paper_config_cold_key():
    digest = request_digest(paper_config(), NEAR, DirectoryState.cold())
    assert digest == GOLDEN["paper_cold"]


def test_warm_two_stream_far_read_key():
    config = paper_config()
    warm = DirectoryState.warm(config.topology)
    assert request_digest(config, FAR_PAIR, warm) == GOLDEN["far_warm"]


def test_ablated_config_key():
    config = MachineConfig(prefetcher_enabled=False)
    digest = request_digest(config, NEAR, DirectoryState.cold())
    assert digest == GOLDEN["no_prefetcher"]


def test_block_and_index_bytes(tmp_path):
    config = paper_config()
    warm = DirectoryState.warm(config.topology)
    columns = EvaluationService(memoize=False).evaluate_grid_columns(
        config, BATCH, warm
    )
    digests = [request_digest(config, streams, warm) for streams in BATCH]
    DiskCache(tmp_path).put_columns(digests, columns)
    (block,) = (tmp_path / "blocks").rglob("*.json")
    assert hashlib.sha256(block.read_bytes()).hexdigest() == GOLDEN["block"]
    shards = sorted((tmp_path / "index").glob("*.json"))
    index = hashlib.sha256(b"".join(p.read_bytes() for p in shards)).hexdigest()
    assert index == GOLDEN["index"]


GOLDEN = {
    "paper_cold": "deb8a71655ff1b4bc67fede994f588e8f46e976832351d8152a397d22f5b730f",
    "far_warm": "4a21c083483bbe61d3ccb8b741dbef267345960a5b5094c8ed77e15ffb6bbe97",
    "no_prefetcher": "b2fc3d3ea2b2f1601a36d8dac4d270c2c9728098f0f2de1283f1cd2a2d2f6e50",
    "block": "1606a46a60cd6189d6ceb3de4ec7aa0ba23cc27af1d2ccc8b68af2f12c48c484",
    "index": "6d09de7becf2d511796931e300c627820d5f8a3d689b0cfda274d50a0ed82c86",
}
