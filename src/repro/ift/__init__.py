"""Solver-free static information-flow taint analysis (ROADMAP item 4).

The portfolio's semantic complement to the Eq. 2 corruption check: taint
every net that feeds a critical register's write port without being in
the documented valid-way cone, propagate through the gate-level netlist
to a fixpoint (combinational sweep + sequential transfer across
register boundaries), and report taint reaching the critical register
itself, primary outputs, or other registers' write enables. Zero SAT
calls; sub-second per design; findings fuse into
:class:`~repro.core.report.DetectionReport` as ``ift_evidence``.

Public surface::

    analyze_design(netlist, spec, design=...)  -> IftReport
    derive_sources(netlist, spec, register, analysis) -> TaintSources
    propagate(netlist, sources)                -> TaintResult
    to_sarif / write_sarif                     -> SARIF 2.1.0
"""

from repro.ift.analyze import IftConfig, analyze_design
from repro.ift.engine import TaintResult, propagate, shortest_taint_path
from repro.ift.findings import (
    IFT_RULES,
    IftFinding,
    IftReport,
    RegisterIftStats,
)
from repro.ift.lattice import MAYBE, TAINTED, UNTAINTED, join, weaken
from repro.ift.sources import TaintSources, derive_sources
from repro.screens import merged_sarif as to_sarif, write_sarif

__all__ = [
    "IFT_RULES",
    "IftConfig",
    "IftFinding",
    "IftReport",
    "MAYBE",
    "RegisterIftStats",
    "TAINTED",
    "TaintResult",
    "TaintSources",
    "UNTAINTED",
    "analyze_design",
    "derive_sources",
    "join",
    "propagate",
    "shortest_taint_path",
    "to_sarif",
    "weaken",
    "write_sarif",
]
