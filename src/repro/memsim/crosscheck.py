"""Cross-validation harness: analytic model vs. discrete-event replay.

The analytic model (:func:`~repro.memsim.evaluation.evaluate`) is
calibrated to the paper's curves; the discrete-event engine
(:mod:`repro.memsim.engine`) replays traces through the same component
models with no bandwidth formulas of its own. Where both agree, the
curve shape is a *consequence of the mechanisms*; where they diverge,
the divergence is a documented model limitation. This harness runs the
anchor configurations on both and reports agreement, so the validation
that lives in the test suite is also available to library users (and to
anyone re-calibrating for a different device).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.memsim.config import MachineConfig, paper_config
from repro.memsim.context import eval_context
from repro.memsim.engine import EngineConfig, simulate
from repro.memsim.evaluation import evaluate
from repro.memsim.spec import Layout, Op, Pattern, StreamSpec
from repro.units import GIB, MIB


@dataclass(frozen=True)
class AnchorConfig:
    """One configuration checked on both fidelity levels."""

    label: str
    op: Op
    threads: int
    access_size: int
    layout: Layout = Layout.INDIVIDUAL
    pattern: Pattern = Pattern.SEQUENTIAL
    #: Relative tolerance for this anchor; wider where the replay is
    #: known to be coarse (documented in EXPERIMENTS.md).
    tolerance: float = 0.45


#: The calibrated anchors both levels must agree on.
DEFAULT_ANCHORS: tuple[AnchorConfig, ...] = (
    AnchorConfig("read 1T 4KB", Op.READ, 1, 4096),
    AnchorConfig("read 8T 4KB", Op.READ, 8, 4096),
    AnchorConfig("read 18T 4KB", Op.READ, 18, 4096),
    AnchorConfig("read 18T 64B individual", Op.READ, 18, 64),
    AnchorConfig("read 36T 4KB grouped", Op.READ, 36, 4096, layout=Layout.GROUPED),
    AnchorConfig(
        "read 36T 64B grouped", Op.READ, 36, 64, layout=Layout.GROUPED,
        tolerance=0.6,
    ),
    AnchorConfig("write 1T 4KB", Op.WRITE, 1, 4096),
    AnchorConfig("write 4T 4KB", Op.WRITE, 4, 4096),
    AnchorConfig("write 6T 4KB", Op.WRITE, 6, 4096),
    AnchorConfig("write 18T 4KB", Op.WRITE, 18, 4096),
    AnchorConfig("write 36T 64B individual", Op.WRITE, 36, 64),
    AnchorConfig(
        "write 36T 64B grouped", Op.WRITE, 36, 64, layout=Layout.GROUPED,
        tolerance=0.6,
    ),
    AnchorConfig(
        "random read 36T 256B", Op.READ, 36, 256, pattern=Pattern.RANDOM,
    ),
    AnchorConfig(
        "random read 18T 64B", Op.READ, 18, 64, pattern=Pattern.RANDOM,
        tolerance=0.6,
    ),
)


@dataclass(frozen=True)
class AnchorOutcome:
    """Agreement of one anchor across the two fidelity levels."""

    anchor: AnchorConfig
    analytic_gbps: float
    engine_gbps: float

    @property
    def relative_error(self) -> float:
        if self.analytic_gbps <= 0:
            raise ConfigurationError("analytic bandwidth must be positive")
        return abs(self.engine_gbps - self.analytic_gbps) / self.analytic_gbps

    @property
    def agrees(self) -> bool:
        return self.relative_error <= self.anchor.tolerance


@dataclass
class CrossCheckReport:
    """All anchor outcomes plus summary judgements."""

    outcomes: list[AnchorOutcome] = field(default_factory=list)

    @property
    def all_agree(self) -> bool:
        return all(o.agrees for o in self.outcomes)

    @property
    def worst(self) -> AnchorOutcome:
        if not self.outcomes:
            raise ConfigurationError("empty cross-check report")
        return max(self.outcomes, key=lambda o: o.relative_error)

    def describe(self) -> str:
        lines = ["analytic model vs. discrete-event replay:"]
        for o in self.outcomes:
            mark = "ok " if o.agrees else "DIVERGES"
            lines.append(
                f"  [{mark}] {o.anchor.label:<28} "
                f"analytic={o.analytic_gbps:6.2f} GB/s "
                f"engine={o.engine_gbps:6.2f} GB/s "
                f"(err {o.relative_error * 100:4.1f}%, tol "
                f"{o.anchor.tolerance * 100:.0f}%)"
            )
        worst = self.worst
        lines.append(
            f"  worst: {worst.anchor.label} at "
            f"{worst.relative_error * 100:.1f}% relative error"
        )
        return "\n".join(lines)


def cross_check(
    anchors: tuple[AnchorConfig, ...] = DEFAULT_ANCHORS,
    config: MachineConfig | None = None,
    volume_bytes: int = 8 * MIB,
) -> CrossCheckReport:
    """Run every anchor on both fidelity levels.

    ``volume_bytes`` bounds the replay length per anchor (steady state is
    reached quickly; the default keeps the whole sweep under seconds).
    """
    if not anchors:
        raise ConfigurationError("need at least one anchor")
    config = config if config is not None else paper_config()
    context = eval_context(config)
    report = CrossCheckReport()
    for anchor in anchors:
        if anchor.pattern is Pattern.RANDOM:
            spec = StreamSpec(
                op=anchor.op,
                threads=anchor.threads,
                access_size=anchor.access_size,
                pattern=Pattern.RANDOM,
                region_bytes=2 * GIB,
            )
        else:
            spec = StreamSpec(
                op=anchor.op,
                threads=anchor.threads,
                access_size=anchor.access_size,
                layout=anchor.layout,
            )
        analytic = evaluate(config, (spec,), context=context).total_gbps
        total = max(volume_bytes, anchor.threads * anchor.access_size * 16)
        engine = simulate(
            EngineConfig(
                op=anchor.op,
                threads=anchor.threads,
                access_size=anchor.access_size,
                layout=anchor.layout,
                pattern=anchor.pattern,
                total_bytes=total,
                region_bytes=256 * MIB if anchor.pattern is Pattern.RANDOM else None,
            ),
            context=context,
        ).gbps
        report.outcomes.append(
            AnchorOutcome(anchor=anchor, analytic_gbps=analytic, engine_gbps=engine)
        )
    return report
