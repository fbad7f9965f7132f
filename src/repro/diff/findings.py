"""Structured results of the golden-model differential screen.

Findings reuse the lint severity ladder and field shape
(:class:`~repro.lint.findings.LintFinding`) so every downstream
consumer — Algorithm 1 register prioritization, the shared SARIF
writer, the fused audit report — handles lint, IFT and differential
evidence with the same code. A :class:`DiffReport` aggregates one
design's findings with per-register simulation accounting (way counts,
cycles driven, divergence counts) that the bench harness reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.lint.findings import LintFinding
from repro.screens import SUSPICIOUS, ScreenReport

# Rule registry of the differential screen: id -> (severity,
# description). Two rules, one per evidence tier: a divergence reached
# by input-only stimulus is a demonstrated spec violation; a divergence
# that needed undocumented state forced shows that hidden state *can*
# steer the register, without a reachability witness.
DIFF_RULES = {
    "diff-divergence": (
        SUSPICIOUS,
        "Under input-only stimulus the implementation register departed "
        "from every documented valid way's prediction — a reachable "
        "violation of the datasheet update spec.",
    ),
    "diff-undocumented-state": (
        SUSPICIOUS,
        "Forcing the register's undocumented write-port state nets "
        "steered the register off every documented valid way — hidden "
        "state controls the register's next value.",
    ),
}


@dataclass
class DiffFinding(LintFinding):
    """One divergence family hit; shares the lint finding shape."""


@dataclass
class RegisterDiffStats:
    """Simulation accounting for one screened critical register."""

    register: str
    num_ways: int = 0
    num_sources: int = 0
    cycles: int = 0
    lanes: int = 0
    divergent_cycles: int = 0

    def to_dict(self) -> dict:
        return {
            "register": self.register,
            "num_ways": self.num_ways,
            "num_sources": self.num_sources,
            "cycles": self.cycles,
            "lanes": self.lanes,
            "divergent_cycles": self.divergent_cycles,
        }


@dataclass
class DiffReport(ScreenReport):
    """All differential findings for one design."""

    design: str
    findings: list = field(default_factory=list)
    register_stats: dict = field(default_factory=dict)  # name -> stats
    seed: int = 0
    lanes: int = 0
    cycles: int = 0
    elapsed: float = 0.0

    screen = "diff"
    rules = DIFF_RULES
    divergent_registers = ScreenReport.flagged_registers

    def bench_figures(self) -> dict:
        return {
            "divergent_registers": self.divergent_registers,
            "cycles": self.cycles,
            "lanes": self.lanes,
        }

    def sarif_properties(self) -> dict:
        return dict(
            super().sarif_properties(),
            seed=self.seed, lanes=self.lanes, cycles=self.cycles,
        )

    def _scope_detail(self) -> str:
        return "; seed {}, {} lanes, {} cycles".format(
            self.seed, self.lanes, self.cycles
        )

    def to_dict(self) -> dict:
        return {
            "design": self.design,
            "seed": self.seed,
            "lanes": self.lanes,
            "cycles": self.cycles,
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
) -> DiffFinding:
    """Build a finding for a registered diff rule."""
    severity, _description = DIFF_RULES[rule]
    return DiffFinding(
        rule=rule,
        severity=severity,
        message=message,
        design=design,
        register=register,
        nets=list(nets),
        net_names=list(net_names),
        evidence=dict(evidence or {}),
    )
