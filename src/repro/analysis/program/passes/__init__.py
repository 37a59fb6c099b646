"""Whole-program passes: importing this package registers SIM201, SIM203 and SIM204."""

from __future__ import annotations

from repro.analysis.program.passes import (  # noqa: F401
    counters,
    purity,
    units_flow,
)
