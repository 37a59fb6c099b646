"""Golden digests of everything the SSB executor records.

Each digest is a SHA-256 over one executor's run of all 13 queries: per
query its groups, its qualifying rows and every field of every
``OperatorTraffic`` (floats as hex), then the executor's ``build_traffic``.
Every priced SSB runtime is a function of these records, so an engine
change that keeps them byte-identical keeps every figure and table too.

The digests cover every storage profile (the Table 1 ladders included),
two seeds and two scale factors. Re-record them only for a change that
means to alter the recorded traffic:

    PYTHONPATH=src python tests/ssb/test_traffic_golden.py
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json

import pytest

from repro.memsim.topology import MediaKind
from repro.ssb.dbgen import generate
from repro.ssb.engine import SsbExecutor
from repro.ssb.engine.traffic import QueryTraffic
from repro.ssb.queries import ALL_QUERIES
from repro.ssb.storage import (
    HANDCRAFTED_DRAM,
    HANDCRAFTED_PMEM,
    HYBRID_PMEM_DRAM,
    HYRISE_DRAM,
    HYRISE_PMEM,
    TRADITIONAL_SSD,
    table1_ladder,
)

PROFILES = (
    HYRISE_PMEM,
    HYRISE_DRAM,
    HANDCRAFTED_PMEM,
    HANDCRAFTED_DRAM,
    HYBRID_PMEM_DRAM,
    TRADITIONAL_SSD,
    *table1_ladder(MediaKind.PMEM),
    *table1_ladder(MediaKind.DRAM),
)
SEEDS = (1, 2021)
SCALES = (0.01, 0.05)


@functools.lru_cache(maxsize=1)
def _database(seed: int, scale: float):
    return generate(scale_factor=scale, seed=seed)


def _hexify(value: object) -> object:
    return value.hex() if isinstance(value, float) else value


def _traffic(traffic: QueryTraffic) -> list:
    return [
        [[f.name, _hexify(getattr(op, f.name))] for f in dataclasses.fields(op)]
        for op in traffic.operators
    ]


def traffic_digest(seed: int, scale: float, profile) -> str:
    """SHA-256 of one executor's results and traffic over all queries."""
    executor = SsbExecutor(_database(seed, scale), profile)
    payload = []
    for query in ALL_QUERIES:
        result = executor.execute(query)
        payload.append(
            [
                query.name,
                [[list(k), v] for k, v in result.groups.items()],
                result.qualifying_rows,
                result.traffic.query,
                _traffic(result.traffic),
            ]
        )
    payload.append(["index-build", _traffic(executor.build_traffic)])
    canonical = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _cases() -> list[tuple[int, float, object]]:
    return [(s, sf, p) for s in SEEDS for sf in SCALES for p in PROFILES]


def _case_id(seed: int, scale: float, profile) -> str:
    return f"seed{seed}-sf{scale}-{profile.name}"


#: Recorded before the engine resolved joins per dimension row.
GOLDEN: dict[str, str] = {
    "seed1-sf0.01-hyrise-pmem": "cec58e85867f184843affe97ff223e37837aa2f3014e0bf893c42da92014daa3",
    "seed1-sf0.01-hyrise-dram": "cec58e85867f184843affe97ff223e37837aa2f3014e0bf893c42da92014daa3",
    "seed1-sf0.01-handcrafted-pmem": "23ff6619cbe30ded1154978ee65e47c5dfb4f690f9e40d2d41d492e4d833ac60",
    "seed1-sf0.01-handcrafted-dram": "23ff6619cbe30ded1154978ee65e47c5dfb4f690f9e40d2d41d492e4d833ac60",
    "seed1-sf0.01-hybrid-pmem-dram": "23ff6619cbe30ded1154978ee65e47c5dfb4f690f9e40d2d41d492e4d833ac60",
    "seed1-sf0.01-traditional-ssd": "23ff6619cbe30ded1154978ee65e47c5dfb4f690f9e40d2d41d492e4d833ac60",
    "seed1-sf0.01-handcrafted-pmem-1thr": "23ff6619cbe30ded1154978ee65e47c5dfb4f690f9e40d2d41d492e4d833ac60",
    "seed1-sf0.01-handcrafted-pmem-18thr": "23ff6619cbe30ded1154978ee65e47c5dfb4f690f9e40d2d41d492e4d833ac60",
    "seed1-sf0.01-handcrafted-pmem-2socket": "23ff6619cbe30ded1154978ee65e47c5dfb4f690f9e40d2d41d492e4d833ac60",
    "seed1-sf0.01-handcrafted-pmem-numa": "23ff6619cbe30ded1154978ee65e47c5dfb4f690f9e40d2d41d492e4d833ac60",
    "seed1-sf0.01-handcrafted-pmem-pinning": "23ff6619cbe30ded1154978ee65e47c5dfb4f690f9e40d2d41d492e4d833ac60",
    "seed1-sf0.01-handcrafted-dram-1thr": "23ff6619cbe30ded1154978ee65e47c5dfb4f690f9e40d2d41d492e4d833ac60",
    "seed1-sf0.01-handcrafted-dram-18thr": "23ff6619cbe30ded1154978ee65e47c5dfb4f690f9e40d2d41d492e4d833ac60",
    "seed1-sf0.01-handcrafted-dram-2socket": "23ff6619cbe30ded1154978ee65e47c5dfb4f690f9e40d2d41d492e4d833ac60",
    "seed1-sf0.01-handcrafted-dram-numa": "23ff6619cbe30ded1154978ee65e47c5dfb4f690f9e40d2d41d492e4d833ac60",
    "seed1-sf0.01-handcrafted-dram-pinning": "23ff6619cbe30ded1154978ee65e47c5dfb4f690f9e40d2d41d492e4d833ac60",
    "seed1-sf0.05-hyrise-pmem": "dc9a2f97b98a9fae6b545f0dfdfa88e57c5b10d6ee371c5e97962fbfefd0284c",
    "seed1-sf0.05-hyrise-dram": "dc9a2f97b98a9fae6b545f0dfdfa88e57c5b10d6ee371c5e97962fbfefd0284c",
    "seed1-sf0.05-handcrafted-pmem": "8a6692710d581c8f2257925d1fe29c0f830fd87b432d4d3bff1006cf1665566e",
    "seed1-sf0.05-handcrafted-dram": "8a6692710d581c8f2257925d1fe29c0f830fd87b432d4d3bff1006cf1665566e",
    "seed1-sf0.05-hybrid-pmem-dram": "8a6692710d581c8f2257925d1fe29c0f830fd87b432d4d3bff1006cf1665566e",
    "seed1-sf0.05-traditional-ssd": "8a6692710d581c8f2257925d1fe29c0f830fd87b432d4d3bff1006cf1665566e",
    "seed1-sf0.05-handcrafted-pmem-1thr": "8a6692710d581c8f2257925d1fe29c0f830fd87b432d4d3bff1006cf1665566e",
    "seed1-sf0.05-handcrafted-pmem-18thr": "8a6692710d581c8f2257925d1fe29c0f830fd87b432d4d3bff1006cf1665566e",
    "seed1-sf0.05-handcrafted-pmem-2socket": "8a6692710d581c8f2257925d1fe29c0f830fd87b432d4d3bff1006cf1665566e",
    "seed1-sf0.05-handcrafted-pmem-numa": "8a6692710d581c8f2257925d1fe29c0f830fd87b432d4d3bff1006cf1665566e",
    "seed1-sf0.05-handcrafted-pmem-pinning": "8a6692710d581c8f2257925d1fe29c0f830fd87b432d4d3bff1006cf1665566e",
    "seed1-sf0.05-handcrafted-dram-1thr": "8a6692710d581c8f2257925d1fe29c0f830fd87b432d4d3bff1006cf1665566e",
    "seed1-sf0.05-handcrafted-dram-18thr": "8a6692710d581c8f2257925d1fe29c0f830fd87b432d4d3bff1006cf1665566e",
    "seed1-sf0.05-handcrafted-dram-2socket": "8a6692710d581c8f2257925d1fe29c0f830fd87b432d4d3bff1006cf1665566e",
    "seed1-sf0.05-handcrafted-dram-numa": "8a6692710d581c8f2257925d1fe29c0f830fd87b432d4d3bff1006cf1665566e",
    "seed1-sf0.05-handcrafted-dram-pinning": "8a6692710d581c8f2257925d1fe29c0f830fd87b432d4d3bff1006cf1665566e",
    "seed2021-sf0.01-hyrise-pmem": "5e7ae98955da95dc5dd286149d24c1569aeda4d4f50c861013b7c1d129bd2a08",
    "seed2021-sf0.01-hyrise-dram": "5e7ae98955da95dc5dd286149d24c1569aeda4d4f50c861013b7c1d129bd2a08",
    "seed2021-sf0.01-handcrafted-pmem": "c558bd4da03948d3efcafa10ce5ab4ac88191709004d7912096256fb326f9ebf",
    "seed2021-sf0.01-handcrafted-dram": "c558bd4da03948d3efcafa10ce5ab4ac88191709004d7912096256fb326f9ebf",
    "seed2021-sf0.01-hybrid-pmem-dram": "c558bd4da03948d3efcafa10ce5ab4ac88191709004d7912096256fb326f9ebf",
    "seed2021-sf0.01-traditional-ssd": "c558bd4da03948d3efcafa10ce5ab4ac88191709004d7912096256fb326f9ebf",
    "seed2021-sf0.01-handcrafted-pmem-1thr": "c558bd4da03948d3efcafa10ce5ab4ac88191709004d7912096256fb326f9ebf",
    "seed2021-sf0.01-handcrafted-pmem-18thr": "c558bd4da03948d3efcafa10ce5ab4ac88191709004d7912096256fb326f9ebf",
    "seed2021-sf0.01-handcrafted-pmem-2socket": "c558bd4da03948d3efcafa10ce5ab4ac88191709004d7912096256fb326f9ebf",
    "seed2021-sf0.01-handcrafted-pmem-numa": "c558bd4da03948d3efcafa10ce5ab4ac88191709004d7912096256fb326f9ebf",
    "seed2021-sf0.01-handcrafted-pmem-pinning": "c558bd4da03948d3efcafa10ce5ab4ac88191709004d7912096256fb326f9ebf",
    "seed2021-sf0.01-handcrafted-dram-1thr": "c558bd4da03948d3efcafa10ce5ab4ac88191709004d7912096256fb326f9ebf",
    "seed2021-sf0.01-handcrafted-dram-18thr": "c558bd4da03948d3efcafa10ce5ab4ac88191709004d7912096256fb326f9ebf",
    "seed2021-sf0.01-handcrafted-dram-2socket": "c558bd4da03948d3efcafa10ce5ab4ac88191709004d7912096256fb326f9ebf",
    "seed2021-sf0.01-handcrafted-dram-numa": "c558bd4da03948d3efcafa10ce5ab4ac88191709004d7912096256fb326f9ebf",
    "seed2021-sf0.01-handcrafted-dram-pinning": "c558bd4da03948d3efcafa10ce5ab4ac88191709004d7912096256fb326f9ebf",
    "seed2021-sf0.05-hyrise-pmem": "1ae9bee7bbec74b0978cdd55d5044dcd8e56bc190e073bf98a03c87582ed2ee1",
    "seed2021-sf0.05-hyrise-dram": "1ae9bee7bbec74b0978cdd55d5044dcd8e56bc190e073bf98a03c87582ed2ee1",
    "seed2021-sf0.05-handcrafted-pmem": "937e1aceacdee44ac662c9fbf80cfcba55c4d1edfa19da93be023c0ef9cfd77c",
    "seed2021-sf0.05-handcrafted-dram": "937e1aceacdee44ac662c9fbf80cfcba55c4d1edfa19da93be023c0ef9cfd77c",
    "seed2021-sf0.05-hybrid-pmem-dram": "937e1aceacdee44ac662c9fbf80cfcba55c4d1edfa19da93be023c0ef9cfd77c",
    "seed2021-sf0.05-traditional-ssd": "937e1aceacdee44ac662c9fbf80cfcba55c4d1edfa19da93be023c0ef9cfd77c",
    "seed2021-sf0.05-handcrafted-pmem-1thr": "937e1aceacdee44ac662c9fbf80cfcba55c4d1edfa19da93be023c0ef9cfd77c",
    "seed2021-sf0.05-handcrafted-pmem-18thr": "937e1aceacdee44ac662c9fbf80cfcba55c4d1edfa19da93be023c0ef9cfd77c",
    "seed2021-sf0.05-handcrafted-pmem-2socket": "937e1aceacdee44ac662c9fbf80cfcba55c4d1edfa19da93be023c0ef9cfd77c",
    "seed2021-sf0.05-handcrafted-pmem-numa": "937e1aceacdee44ac662c9fbf80cfcba55c4d1edfa19da93be023c0ef9cfd77c",
    "seed2021-sf0.05-handcrafted-pmem-pinning": "937e1aceacdee44ac662c9fbf80cfcba55c4d1edfa19da93be023c0ef9cfd77c",
    "seed2021-sf0.05-handcrafted-dram-1thr": "937e1aceacdee44ac662c9fbf80cfcba55c4d1edfa19da93be023c0ef9cfd77c",
    "seed2021-sf0.05-handcrafted-dram-18thr": "937e1aceacdee44ac662c9fbf80cfcba55c4d1edfa19da93be023c0ef9cfd77c",
    "seed2021-sf0.05-handcrafted-dram-2socket": "937e1aceacdee44ac662c9fbf80cfcba55c4d1edfa19da93be023c0ef9cfd77c",
    "seed2021-sf0.05-handcrafted-dram-numa": "937e1aceacdee44ac662c9fbf80cfcba55c4d1edfa19da93be023c0ef9cfd77c",
    "seed2021-sf0.05-handcrafted-dram-pinning": "937e1aceacdee44ac662c9fbf80cfcba55c4d1edfa19da93be023c0ef9cfd77c",
}


@pytest.mark.parametrize(
    "seed,scale,profile",
    _cases(),
    ids=[_case_id(*case) for case in _cases()],
)
def test_traffic_matches_golden(seed, scale, profile):
    assert traffic_digest(seed, scale, profile) == GOLDEN[_case_id(seed, scale, profile)]


if __name__ == "__main__":
    for case in _cases():
        print(f'    "{_case_id(*case)}": "{traffic_digest(*case)}",')
