"""Golden digests of the discrete-event engine's outputs.

Each case replays one configuration and hashes everything the replay
reports: ``seconds``, ``bytes_moved``, ``per_dimm_bytes``, ``media_bytes``
and the :class:`~repro.obs.CountersRecorder` snapshot for ``simulate``,
and ``seconds`` with both sides' bytes for ``simulate_mixed``. Floats
enter the digest as ``float.hex()``, so a digest pins exact bits, not a
tolerance band.

The digests pin the engine's behaviour across refactors of its replay
loop and its configuration. A change meant to keep that behaviour must
leave every digest here unchanged; re-recording one hides the drift it
exists to catch.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.memsim import MachineConfig, eval_context
from repro.memsim.engine.simulator import (
    EngineConfig,
    MixedEngineConfig,
    simulate,
    simulate_mixed,
)
from repro.memsim.spec import Layout, Op, Pattern
from repro.memsim.topology import MediaKind
from repro.obs import CountersRecorder
from repro.units import KIB, MIB


def _canonical(value: object) -> object:
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def _digest(payload: dict[str, object]) -> str:
    text = json.dumps(_canonical(payload), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _single(config: EngineConfig, **kwargs: object) -> str:
    recorder = CountersRecorder()
    result = simulate(config, recorder, **kwargs)
    return _digest(
        {
            "seconds": result.seconds,
            "bytes_moved": result.bytes_moved,
            "per_dimm_bytes": result.per_dimm_bytes,
            "media_bytes": result.media_bytes,
            "snapshot": recorder.snapshot(),
        }
    )


def _mixed(config: MixedEngineConfig) -> str:
    result = simulate_mixed(config)
    return _digest(
        {
            "seconds": result.seconds,
            "read_bytes": result.read_bytes,
            "write_bytes": result.write_bytes,
        }
    )


def _cases() -> dict[str, object]:
    cases: dict[str, object] = {}
    for op in Op:
        for size in (64, 256, 4096):
            for layout in Layout:
                for threads in (1, 6, 18):
                    config = EngineConfig(
                        op=op, threads=threads, access_size=size,
                        layout=layout, total_bytes=512 * KIB,
                    )
                    name = f"{op.value}-{size}-{layout.value}-t{threads}"
                    cases[name] = lambda c=config: _single(c)
    for op in Op:
        config = EngineConfig(
            op=op, threads=6, access_size=4096, media=MediaKind.DRAM,
            total_bytes=1 * MIB,
        )
        cases[f"dram-{op.value}"] = lambda c=config: _single(c)
    random_read = EngineConfig(
        op=Op.READ, threads=6, access_size=256, pattern=Pattern.RANDOM,
        region_bytes=64 * MIB, total_bytes=512 * KIB,
    )
    cases["pmem-random-read"] = lambda: _single(random_read)
    wc_off = EngineConfig(op=Op.WRITE, threads=4, access_size=4096, total_bytes=1 * MIB)
    cases["write-combining-off"] = lambda: _single(
        wc_off, context=eval_context(MachineConfig(write_combining_enabled=False))
    )
    for readers, writers, size, per_side in (
        (18, 6, 4096, 1 * MIB),
        (6, 18, 4096, 1 * MIB),
        (1, 4, 4096, 1 * MIB),
        (12, 12, 4096, 1 * MIB),
        (8, 4, 256, 512 * KIB),
        (4, 8, 256, 512 * KIB),
        (18, 6, 64, 256 * KIB),
        (2, 2, 64, 256 * KIB),
    ):
        config = MixedEngineConfig(
            read_threads=readers, write_threads=writers, access_size=size,
            bytes_per_side=per_side,
        )
        cases[f"mixed-r{readers}-w{writers}-{size}"] = lambda c=config: _mixed(c)
    dram_mixed = MixedEngineConfig(
        read_threads=18, write_threads=6, media=MediaKind.DRAM, bytes_per_side=1 * MIB
    )
    cases["mixed-dram-r18-w6-4096"] = lambda: _mixed(dram_mixed)
    return cases


CASES = _cases()

GOLDEN: dict[str, str] = {
    "dram-read": "4dc3b08e65499d6f221698a6a613c457ca507f9e5dfc8be7e0c64a13c01d2d85",
    "dram-write": "f16382cdcb8bc8b458796cb9eb8233d47ce527ec285c372fc12f29dc81b518f1",
    "mixed-dram-r18-w6-4096": "ebb859834575b0ff5cd44e94f195bd0b059ee9c216a1cd344af6e7abe55b1630",
    "mixed-r1-w4-4096": "3248ea952555a2bce88cc804366283d3e4b6214473e043f77a961d550e57fe75",
    "mixed-r12-w12-4096": "9c0511d40b920f0366699bd8bcb10b9e7edf1cb507036c20d44dfd04c4ee4f29",
    "mixed-r18-w6-4096": "9f40c45b4b5e2bdd68a7c06e8eecba20ba0c79a5cfab6e8a85b196081e79b4f2",
    "mixed-r18-w6-64": "02eb5208d02d42a7d7633d01c6d0c131c055f793bc584bab6361f432e35914dd",
    "mixed-r2-w2-64": "9ee94f9242d4645e2c9a972ebcc19a7f3b89deac17abced6fcd78a6627cf966a",
    "mixed-r4-w8-256": "a739bb12b7c939b8410955c307a70d916e0acb65ea5d6a3714788df82582ea90",
    "mixed-r6-w18-4096": "f9c1916100f5a98b8a62b919339a36e163d62782927db5a39cd38c8dff5a6c28",
    "mixed-r8-w4-256": "324b0679bd7ccf1f0ae7fa515f488a79c77e6e411f0ff9c4b20b88ef13c218a8",
    "pmem-random-read": "0f2015bf6bc94f3bf242ab3a5e4774d5b4d41fe6d097dd56916cfb3b5f1f63e9",
    "read-256-grouped-t1": "c078a9ada2bf94a5204ed936dead4113694251db9ffa4a4e6f2e12d7866119e2",
    "read-256-grouped-t18": "e47c3c278429af3c903656e3102443ab71a26f4dfef07c610c00468fd812c50f",
    "read-256-grouped-t6": "1e6e6de46b03a811a4115d880f825798f536cfcb597e43a9e438eda2f158355e",
    "read-256-individual-t1": "c078a9ada2bf94a5204ed936dead4113694251db9ffa4a4e6f2e12d7866119e2",
    "read-256-individual-t18": "c5001fb87fad420cda1d81848e7bbf3d6e415f39745b491f6866836e0eed8d8a",
    "read-256-individual-t6": "863b2e545792296395a6f88b954ec65c2e1ba5a3fdbe3683eb78ec5fa70be6e6",
    "read-4096-grouped-t1": "fb8bce074a3f18092ae6d9f86c0909d646b0ada1b128737344208de7b5c7148a",
    "read-4096-grouped-t18": "a6b50e0a37292c4ea18983095c18585f968f872d2dd2676437171b4c88c2a55b",
    "read-4096-grouped-t6": "3c8ce3096ecb82c69ebc3291fe9451e29ebcdd9bcf4018dc929aeef5c73a6e50",
    "read-4096-individual-t1": "fb8bce074a3f18092ae6d9f86c0909d646b0ada1b128737344208de7b5c7148a",
    "read-4096-individual-t18": "a6b50e0a37292c4ea18983095c18585f968f872d2dd2676437171b4c88c2a55b",
    "read-4096-individual-t6": "3e4fc4d4099de4930508dc952a2803ed3ad6c697698d992c7effa0a03d86e29b",
    "read-64-grouped-t1": "06ce222ed4b9f30dad78870b06c959173b7f005f2cff0677a3b35b788830146a",
    "read-64-grouped-t18": "38162f0b3d39a13b3cf1c6813945a3715262faf06f9acb2f25eb26b8417894b7",
    "read-64-grouped-t6": "ef2dfee96fca2c0bd576333091ee48341c766e81c27093d8577442d5fd05c76b",
    "read-64-individual-t1": "06ce222ed4b9f30dad78870b06c959173b7f005f2cff0677a3b35b788830146a",
    "read-64-individual-t18": "d87c1ac1916c4b011b082938894c0272e588c23921ff70760103c5a73f1a1cbb",
    "read-64-individual-t6": "f56cb84bab55dd2f476028a51227b9ee5613e67289434a60e3b1f0b90e9d4632",
    "write-256-grouped-t1": "fe9bd104caa30cf6a366b8372e85c56ae36d6c09d74f0ad4319b172e7383a979",
    "write-256-grouped-t18": "3b55e1cb08d3255ca01ce951318bf6cacd3dc30ae35f0bbd4abaea502f81a050",
    "write-256-grouped-t6": "efd02ab095886b152dbb703945198142d18e264cb03e54e7b5dcb62c9a3a98eb",
    "write-256-individual-t1": "fe9bd104caa30cf6a366b8372e85c56ae36d6c09d74f0ad4319b172e7383a979",
    "write-256-individual-t18": "7d9cd9c42352166716395f9c37244de90e1af16ee1d565e9c06ac16418a73b61",
    "write-256-individual-t6": "65913e5ac5af5907d6cc978a77db530c33cca9efe197cc098aea166886567391",
    "write-4096-grouped-t1": "f3ab0d341c5c44468efb3c9c249a363e07fd7606fbed5a2a44c5637a8297a840",
    "write-4096-grouped-t18": "4e7679781c9ff7ce2bc4af83b8598078973706b92c4c1fb335c0f857aad7334b",
    "write-4096-grouped-t6": "6776259ec930296c7cdea788d61efd9532971cc962100c05824d8356eabcc29a",
    "write-4096-individual-t1": "f3ab0d341c5c44468efb3c9c249a363e07fd7606fbed5a2a44c5637a8297a840",
    "write-4096-individual-t18": "ccde15f6537a9d6f1e88d82e7035177820c1696f04878471e0c4084852b11fb2",
    "write-4096-individual-t6": "f569d89a6e91e78f71aa6c2eab96a79c027473d7a5f7577a3c08992e4c6f930b",
    "write-64-grouped-t1": "0ffb4287ea7f9d2dddec6257cc114ee4cb0bcc8f0aaa2fa08513dd9e273de68c",
    "write-64-grouped-t18": "b37ec2b2326e16d4809ce25ca393adfe0590d2481f3fa44f76694233ecdbb4e9",
    "write-64-grouped-t6": "cc640249734523e8f1556df0e9af1156913d321b21555559fcb6fb18c4b62da7",
    "write-64-individual-t1": "1033e0d50606f6544ff9fc750d4ae8c503c3072ecdb35b9d77274a3bf0ba20b6",
    "write-64-individual-t18": "c6e5e33a725013fbbaa78ec6c9540ee555dbc8df9f621aae9c80f8c250d2ca83",
    "write-64-individual-t6": "aae5db517c178c03adad7fd478afaeb31e040f02374d8fe7210e450ccca710a0",
    "write-combining-off": "4dff2cfac693aed473bd68a97ba5e85c0e4907f3bdfe1c48c58ffe8e7a8f2328",
}


def test_every_case_has_a_digest():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_engine_output_matches_golden(name):
    assert CASES[name]() == GOLDEN[name]
