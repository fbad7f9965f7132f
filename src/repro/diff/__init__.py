"""Golden-model differential screening (ROADMAP item 4, second half).

The portfolio's dynamic complement to the static lint and IFT screens:
compile each critical register's ValidWays spec into an executable
reference next-state function (the spec *is* the golden model), drive
implementation and reference with shared seeded stimulus on the
bit-parallel simulator, and flag any cycle where the register departs
from every documented way's prediction. Zero SAT calls; findings fuse
into :class:`~repro.core.report.DetectionReport` as ``diff_evidence``
with a ``differential_suspect`` verdict rung.

Public surface::

    analyze_design(netlist, spec, design=...)   -> DiffReport
    build_golden_models(netlist, spec)          -> (clone, models)
    build_phases(netlist, spec, models, config) -> [Phase]
    to_sarif / write_sarif                      -> SARIF 2.1.0
"""

from repro.diff.findings import (
    DIFF_RULES,
    DiffFinding,
    DiffReport,
    RegisterDiffStats,
)
from repro.diff.golden import GoldenModel, WayMonitor, build_golden_models
from repro.diff.screen import DiffConfig, analyze_design
from repro.diff.stimulus import Phase, build_phases
from repro.screens import merged_sarif as to_sarif, write_sarif

__all__ = [
    "DIFF_RULES",
    "DiffConfig",
    "DiffFinding",
    "DiffReport",
    "GoldenModel",
    "Phase",
    "RegisterDiffStats",
    "WayMonitor",
    "analyze_design",
    "build_golden_models",
    "build_phases",
    "to_sarif",
    "write_sarif",
]
