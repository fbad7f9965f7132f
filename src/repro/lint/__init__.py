"""Static lint pre-pass over gate-level netlists.

A rule-based structural analyzer that screens designs for Trojan-shaped
structure *before* Algorithm 1 spends any formal-engine budget: extra
write ports contradicting the valid-way set, wide trigger comparators,
low-influence counters wired into write selects, dominator flops on
critical enables, bypass muxes in output cones, plus netlist hygiene
(dead logic, floating/unread nets, pathological depth).

Typical use::

    from repro.lint import lint_design

    report = lint_design(netlist, spec)
    ordered = report.prioritize(list(spec.critical))  # audit these first
"""

from repro.lint.analysis import DesignAnalysis, MuxArm, RegisterMuxTree
from repro.lint.engine import LintConfig, LintConfigError, Linter, lint_design
from repro.lint.findings import (
    ERROR,
    INFO,
    SEVERITIES,
    SUSPICIOUS,
    WARN,
    LintFinding,
    LintReport,
    RuleStats,
    severity_rank,
)
from repro.lint.rules import RULE_REGISTRY, Rule, RuleContext, all_rules, rule
from repro.screens import merged_sarif as to_sarif, write_sarif

__all__ = [
    "DesignAnalysis",
    "MuxArm",
    "RegisterMuxTree",
    "LintConfig",
    "LintConfigError",
    "Linter",
    "lint_design",
    "ERROR",
    "INFO",
    "SEVERITIES",
    "SUSPICIOUS",
    "WARN",
    "LintFinding",
    "LintReport",
    "RuleStats",
    "severity_rank",
    "RULE_REGISTRY",
    "Rule",
    "RuleContext",
    "all_rules",
    "rule",
    "to_sarif",
    "write_sarif",
]
