"""Structured results of the static lint pass.

A :class:`LintFinding` is one rule hit: which rule fired, how severe it
is, which register/nets it implicates and machine-readable ``evidence``
for downstream consumers (Algorithm 1 ordering, the bench harness, SARIF
export). A :class:`LintReport` aggregates the findings of one design
together with per-rule runtime/hit accounting and the register priority
scores the detector uses to order its property checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# the severity ladder is shared by every screen; re-exported here
from repro.screens import (  # noqa: F401
    ERROR,
    INFO,
    SEVERITIES,
    SEVERITY_RANK,
    SEVERITY_WEIGHT,
    SUSPICIOUS,
    WARN,
    ScreenReport,
    severity_rank,
)


@dataclass
class LintFinding:
    """One rule hit on one design."""

    rule: str
    severity: str
    message: str
    design: str = ""
    register: str | None = None  # implicated register, when identifiable
    nets: list = field(default_factory=list)  # implicated net ids
    net_names: list = field(default_factory=list)  # matching debug names
    evidence: dict = field(default_factory=dict)  # JSON-safe details

    def __post_init__(self):
        severity_rank(self.severity)  # validate eagerly

    def to_dict(self):
        return {
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "design": self.design,
            "register": self.register,
            "nets": list(self.nets),
            "net_names": list(self.net_names),
            "evidence": dict(self.evidence),
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            rule=data["rule"],
            severity=data["severity"],
            message=data["message"],
            design=data.get("design", ""),
            register=data.get("register"),
            nets=list(data.get("nets", [])),
            net_names=list(data.get("net_names", [])),
            evidence=dict(data.get("evidence", {})),
        )

    def __str__(self):
        subject = self.register or (
            self.net_names[0] if self.net_names else ""
        )
        prefix = "[{}] {}".format(self.severity, self.rule)
        if subject:
            prefix += " @ {}".format(subject)
        return "{}: {}".format(prefix, self.message)


@dataclass
class RuleStats:
    """Runtime accounting for one rule over one design."""

    rule: str
    hits: int = 0
    elapsed: float = 0.0

    def to_dict(self):
        return {"rule": self.rule, "hits": self.hits, "elapsed": self.elapsed}


@dataclass
class LintReport(ScreenReport):
    """All lint findings for one design."""

    design: str
    findings: list = field(default_factory=list)
    rule_stats: dict = field(default_factory=dict)  # rule -> RuleStats
    elapsed: float = 0.0
    stats: object = None  # NetlistStats of the linted design

    screen = "lint"

    def by_severity(self, minimum=INFO):
        floor = severity_rank(minimum)
        return [
            f for f in self.findings if severity_rank(f.severity) >= floor
        ]

    @property
    def rule_hits(self):
        """Per-rule hit counts (every enabled rule, zero included)."""
        return {rule: st.hits for rule, st in self.rule_stats.items()}

    def bench_figures(self):
        return {"rule_hits": self.rule_hits, "max_severity": self.max_severity}

    def to_dict(self):
        data = {
            "design": self.design,
            "elapsed": self.elapsed,
            "findings": [f.to_dict() for f in self.findings],
            "rule_stats": {
                rule: st.to_dict() for rule, st in self.rule_stats.items()
            },
            "severity_counts": self.severity_counts,
            "register_scores": self.register_scores(),
        }
        if self.stats is not None:
            data["netlist"] = {
                "cells": self.stats.num_cells,
                "flops": self.stats.num_flops,
                "registers": self.stats.num_registers,
                "depth": self.stats.depth,
                "max_fanout": self.stats.max_fanout,
            }
        return data

    def summary(self):
        """Human-readable multi-line report, ending in the priority order
        :func:`~repro.core.detector.prioritize_registers` would audit."""
        lines = [super().summary()]
        scores = self.register_scores()
        ranked = self.prioritize(sorted(scores))
        if ranked:
            lines.append("  priority: {}".format(", ".join(
                "{} ({})".format(name, scores[name]) for name in ranked
            )))
        return "\n".join(lines)
