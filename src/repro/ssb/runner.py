"""SSB experiment runner: Figures 14a/14b, Table 1, and the SSD contrast.

Queries execute once per *engine configuration* (index kind + layout +
awareness — the things that change the recorded traffic) on a small
generated database; the traffic is then priced for each media/placement
profile at the paper's scale factors. This mirrors the reproduction's
core design: one real execution, many priced deployments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.memsim import MediaKind
from repro.ssb.costmodel import CostBreakdown, SsbCostModel
from repro.ssb.dbgen import SsbDatabase, generate
from repro.ssb.engine import SsbExecutor
from repro.ssb.queries import ALL_QUERIES, QueryDef, get_query
from repro.ssb.storage import (
    HANDCRAFTED_DRAM,
    HANDCRAFTED_PMEM,
    HYRISE_DRAM,
    HYRISE_PMEM,
    TRADITIONAL_SSD,
    SystemProfile,
    table1_ladder,
)

#: Scale factor used for the real executions feeding the cost model.
DEFAULT_MEASURED_SF: float = 0.05


@dataclass
class SsbRun:
    """Per-query predicted runtimes for one profile."""

    profile: SystemProfile
    target_sf: float
    breakdowns: dict[str, CostBreakdown] = field(default_factory=dict)

    @property
    def seconds(self) -> dict[str, float]:
        """Predicted runtime in seconds per query name."""
        return {name: b.seconds for name, b in self.breakdowns.items()}

    @property
    def average_seconds(self) -> float:
        """Mean query runtime in seconds across the run."""
        if not self.breakdowns:
            raise ConfigurationError("run holds no queries")
        return sum(b.seconds for b in self.breakdowns.values()) / len(self.breakdowns)

    def flight_seconds(self, flight: int) -> float:
        """Total runtime in seconds of one SSB query flight."""
        names = [q.name for q in ALL_QUERIES if q.flight == flight]
        return sum(self.breakdowns[n].seconds for n in names if n in self.breakdowns)


class SsbRunner:
    """Executes and prices the SSB for arbitrary profiles."""

    def __init__(
        self,
        measured_sf: float = DEFAULT_MEASURED_SF,
        db: SsbDatabase | None = None,
        seed: int = 2021,
    ) -> None:
        self.measured_sf = measured_sf
        self.db = db if db is not None else generate(measured_sf, seed=seed)
        self.cost_model = SsbCostModel()
        #: Traffic cache keyed by engine configuration.
        self._traffic: dict[tuple, dict[str, object]] = {}

    def _engine_key(self, profile: SystemProfile) -> tuple:
        return (profile.index_kind, profile.tuple_layout)

    def _traffic_for(self, profile: SystemProfile, queries: tuple[QueryDef, ...]):
        key = self._engine_key(profile)
        cached = self._traffic.setdefault(key, {})
        missing = [q for q in queries if q.name not in cached]
        if missing:
            executor = SsbExecutor(self.db, profile)
            for query in missing:
                cached[query.name] = executor.execute(query).traffic
        return {q.name: cached[q.name] for q in queries}

    def _region_factors(self, target_sf: float) -> dict[str, float]:
        """Per-table cardinality growth from the measured to target sf."""
        from repro.ssb import schema

        m = self.measured_sf
        return {
            "lineorder": target_sf / m,
            "customer": schema.customer_rows(target_sf) / schema.customer_rows(m),
            "supplier": schema.supplier_rows(target_sf) / schema.supplier_rows(m),
            "part": schema.part_rows(target_sf) / schema.part_rows(m),
            "date": 1.0,
        }

    def run(
        self,
        profile: SystemProfile,
        target_sf: float = 100.0,
        queries: tuple[QueryDef, ...] = ALL_QUERIES,
    ) -> SsbRun:
        """Predict per-query runtimes for ``profile`` at ``target_sf``."""
        if target_sf <= 0:
            raise ConfigurationError("target scale factor must be positive")
        ratio = target_sf / self.measured_sf
        region_factors = self._region_factors(target_sf)
        traffic = self._traffic_for(profile, queries)
        run = SsbRun(profile=profile, target_sf=target_sf)
        for query in queries:
            run.breakdowns[query.name] = self.cost_model.price(
                traffic[query.name],
                profile,
                scale_ratio=ratio,
                region_factors=region_factors,
            )
        return run

    # ------------------------------------------------------------------
    # the paper's experiments
    # ------------------------------------------------------------------

    def figure14a(self) -> dict[str, SsbRun]:
        """Hyrise SSB at sf 50, PMEM vs DRAM (Fig. 14a)."""
        return {
            "pmem": self.run(HYRISE_PMEM, target_sf=50.0),
            "dram": self.run(HYRISE_DRAM, target_sf=50.0),
        }

    def figure14b(self) -> dict[str, SsbRun]:
        """Handcrafted SSB at sf 100, PMEM vs DRAM (Fig. 14b)."""
        return {
            "pmem": self.run(HANDCRAFTED_PMEM, target_sf=100.0),
            "dram": self.run(HANDCRAFTED_DRAM, target_sf=100.0),
        }

    def table1(self) -> dict[str, dict[str, float]]:
        """The Q2.1 optimization ladder (Table 1), PMEM and DRAM."""
        query = (get_query("Q2.1"),)
        steps = ("1 Thr.", "18 Thr.", "2-Socket", "NUMA", "Pinning")
        out: dict[str, dict[str, float]] = {}
        for media in (MediaKind.PMEM, MediaKind.DRAM):
            ladder = table1_ladder(media)
            row: dict[str, float] = {}
            for step, profile in zip(steps, ladder):
                run = self.run(profile, target_sf=100.0, queries=query)
                row[step] = run.breakdowns["Q2.1"].seconds
            out[media.value] = row
        return out

    def q21_on_ssd(self) -> float:
        """Q2.1 on the traditional NVMe-SSD deployment (§6.2)."""
        run = self.run(TRADITIONAL_SSD, target_sf=100.0, queries=(get_query("Q2.1"),))
        return run.breakdowns["Q2.1"].seconds


def slowdown(pmem: SsbRun, dram: SsbRun) -> dict[str, float]:
    """Per-query PMEM/DRAM runtime ratios."""
    return {
        name: pmem.breakdowns[name].seconds / dram.breakdowns[name].seconds
        for name in pmem.breakdowns
    }


def average_slowdown(pmem: SsbRun, dram: SsbRun) -> float:
    ratios = slowdown(pmem, dram)
    return sum(ratios.values()) / len(ratios)
