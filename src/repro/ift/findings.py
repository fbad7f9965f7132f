"""Structured results of the static IFT screen.

Findings reuse the lint severity ladder and field shape
(:class:`~repro.lint.findings.LintFinding`) so every downstream
consumer — Algorithm 1 register prioritization, the shared SARIF
writer, the fused audit report — handles lint and IFT evidence with the
same code. An :class:`IftReport` aggregates one design's findings with
per-register engine accounting (source counts, fixpoint rounds, reach
sizes) that the bench harness and the termination tests read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.lint.findings import LintFinding
from repro.screens import SUSPICIOUS, WARN, ScreenReport

# Rule registry of the IFT screen: id -> (severity, description). Kept
# as data (not classes) because IFT is one analysis with three sink
# kinds, not a family of independent structural patterns.
IFT_RULES = {
    "taint-reaches-critical": (
        SUSPICIOUS,
        "Taint from an undocumented write-port source reaches the "
        "critical register's D pins — a valid-way violation the "
        "corruption property may not express.",
    ),
    "taint-reaches-output": (
        WARN,
        "Taint from an undocumented source of a critical register "
        "reaches a primary output — a potential leakage channel.",
    ),
    "taint-reaches-enable": (
        WARN,
        "Taint from an undocumented source of a critical register "
        "reaches another register's write-enable logic.",
    ),
}


@dataclass
class IftFinding(LintFinding):
    """One IFT sink hit; shares the lint finding shape end to end."""


@dataclass
class RegisterIftStats:
    """Engine accounting for one screened critical register."""

    register: str
    num_sources: int = 0
    rounds: int = 0
    round_limit: int = 0
    reach: int = 0

    def to_dict(self) -> dict:
        return {
            "register": self.register,
            "num_sources": self.num_sources,
            "rounds": self.rounds,
            "round_limit": self.round_limit,
            "reach": self.reach,
        }


@dataclass
class IftReport(ScreenReport):
    """All IFT findings for one design."""

    design: str
    findings: list = field(default_factory=list)
    register_stats: dict = field(default_factory=dict)  # name -> stats
    elapsed: float = 0.0

    screen = "ift"
    rules = IFT_RULES
    tainted_registers = ScreenReport.flagged_registers

    def bench_figures(self) -> dict:
        return {
            "tainted_registers": self.tainted_registers,
            "max_rounds": max(
                (st.rounds for st in self.register_stats.values()),
                default=0,
            ),
        }

    def to_dict(self) -> dict:
        return {
            "design": self.design,
            "elapsed": self.elapsed,
            "findings": [f.to_dict() for f in self.findings],
            "register_stats": {
                name: st.to_dict()
                for name, st in self.register_stats.items()
            },
            "severity_counts": self.severity_counts,
            "register_scores": self.register_scores(),
        }


def make_finding(
    rule: str,
    message: str,
    design: str,
    register: str,
    nets: Any = (),
    net_names: Any = (),
    evidence: "dict | None" = None,
) -> IftFinding:
    """Build a finding for a registered IFT rule."""
    severity, _description = IFT_RULES[rule]
    return IftFinding(
        rule=rule,
        severity=severity,
        message=message,
        design=design,
        register=register,
        nets=list(nets),
        net_names=list(net_names),
        evidence=dict(evidence or {}),
    )
