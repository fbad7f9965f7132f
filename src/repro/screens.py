"""The screening modalities — lint, IFT and the golden-model diff —
behind one interface.

Algorithm 1 alone decides a verdict. A screen only reorders the
registers it audits and attaches evidence to their findings (DESIGN.md
decisions 8 and 18), so every screen looks the same to its consumers:

* :meth:`Screen.analyze` returns a report built on
  :class:`ScreenReport`: findings on the shared severity ladder,
  per-register priority scores, JSON and a text summary;
* a report's findings on one register attach to the
  :class:`~repro.core.report.RegisterFinding` field named by
  :attr:`Screen.evidence` (:func:`attach_evidence`);
* :meth:`Screen.sarif_run` turns a report into one SARIF run, and
  :func:`merged_sarif` stitches the runs of several screens into one log;
* :func:`map_designs` fans a per-design job out over forked workers.

:data:`SCREENS` lists the screens in portfolio order. Nothing here
imports a screen's package before that screen is used: analyzers, rule
tables and SARIF builders are looked up by module and name at call
time. Importing :mod:`repro.core` therefore stays free of the screens,
and a wrapper installed on a module attribute such as
``repro.lint.engine.lint_design`` (a profiler, say) sees every call.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass

# Severity ladder shared by every screen. ``error`` marks structural
# brokenness (a netlist that downstream tools cannot trust);
# ``suspicious`` marks Trojan-shaped structure; ``warn``/``info`` are
# advisory.
INFO = "info"
WARN = "warn"
SUSPICIOUS = "suspicious"
ERROR = "error"

SEVERITIES = (INFO, WARN, SUSPICIOUS, ERROR)
SEVERITY_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}

# Contribution of one finding to its register's priority score. Trojan-
# shaped structure dominates; structural errors still outrank advisories
# (a register whose logic is broken deserves early scrutiny).
SEVERITY_WEIGHT = {INFO: 1, WARN: 4, SUSPICIOUS: 16, ERROR: 8}


def severity_rank(severity):
    """Numeric rank of a severity name (higher = more severe)."""
    try:
        return SEVERITY_RANK[severity]
    except KeyError:
        raise ValueError(
            "unknown severity {!r}; expected one of {}".format(
                severity, ", ".join(SEVERITIES)
            )
        ) from None


def _plural(count):
    return "" if count == 1 else "s"


class ScreenReport:
    """Queries and serialization shared by every screen's report.

    Subclasses are dataclasses with at least ``design``, ``findings``
    and ``elapsed`` fields. ``screen`` names their :class:`Screen`;
    ``rules`` is their rule table (rule id -> (severity, description)).
    """

    screen = ""
    rules = {}

    def findings_for(self, register):
        """Findings implicating one register."""
        return [f for f in self.findings if f.register == register]

    @property
    def max_severity(self):
        if not self.findings:
            return None
        return max(
            self.findings, key=lambda f: severity_rank(f.severity)
        ).severity

    @property
    def severity_counts(self):
        counts = {name: 0 for name in SEVERITIES}
        for finding in self.findings:
            counts[finding.severity] += 1
        return counts

    @property
    def rule_hits(self):
        """Per-rule hit counts (every rule of the table, zero included)."""
        counts = {rule: 0 for rule in self.rules}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts

    @property
    def flagged_registers(self):
        """Registers with at least one finding, sorted."""
        return sorted({f.register for f in self.findings if f.register})

    def register_scores(self):
        """Priority score per implicated register (higher = audit first)."""
        scores = {}
        for finding in self.findings:
            if finding.register is None:
                continue
            scores[finding.register] = (
                scores.get(finding.register, 0)
                + SEVERITY_WEIGHT[finding.severity]
            )
        return scores

    def prioritize(self, registers):
        """Order ``registers`` most-suspicious first (stable for ties)."""
        scores = self.register_scores()
        order = {name: index for index, name in enumerate(registers)}
        return sorted(
            registers, key=lambda name: (-scores.get(name, 0), order[name])
        )

    def to_json(self, indent=1):
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def bench_figures(self):
        """Screen-specific figures for a bench row (name -> value)."""
        return {}

    def sarif_properties(self):
        """Properties of this report's SARIF run."""
        props = {
            "design": self.design,
            "elapsed": self.elapsed,
            "ruleHits": self.rule_hits,
        }
        stats = getattr(self, "register_stats", None)
        if stats is not None:
            props["registerStats"] = {
                name: st.to_dict() for name, st in stats.items()
            }
        return props

    def _scope(self):
        """What was screened, between the counts and the timing of the
        summary head; empty unless the report keeps register stats."""
        stats = getattr(self, "register_stats", None)
        if stats is None:
            return ""
        sourced = sum(1 for st in stats.values() if st.num_sources)
        return " over {} register{} ({} with undocumented sources{})".format(
            len(stats), _plural(len(stats)), sourced, self._scope_detail()
        )

    def _scope_detail(self):
        return ""

    def summary(self):
        """Human-readable multi-line report."""
        counts = self.severity_counts
        lines = [
            "{} {!r}: {} finding{} ({}){} in {:.2f}s".format(
                self.screen,
                self.design,
                len(self.findings),
                _plural(len(self.findings)),
                ", ".join(
                    "{} {}".format(counts[name], name)
                    for name in reversed(SEVERITIES)
                    if counts[name]
                )
                or "clean",
                self._scope(),
                self.elapsed,
            )
        ]
        for finding in sorted(
            self.findings, key=lambda f: -severity_rank(f.severity)
        ):
            lines.append("  {}".format(finding))
        return "\n".join(lines)


def _resolve(ref):
    """``"module:attr"`` -> the attribute, looked up now."""
    module, _sep, attr = ref.partition(":")
    return getattr(importlib.import_module(module), attr)


@dataclass(frozen=True)
class Screen:
    """One screening modality, described by data.

    ``analyzer``, ``rule_table`` and ``sarif`` are ``"module:attr"``
    references resolved on every use, so the screen's package loads
    lazily and a wrapper on the analyzer is never bypassed.
    """

    name: str  # subcommand, trace span and SARIF driver suffix
    title: str  # one-line description (subcommand help)
    analyzer: str  # f(netlist, spec, design=, **options) -> ScreenReport
    rule_table: str  # rule id -> (severity, description), or a callable
    sarif: str  # f(screen, report) -> one SARIF run
    evidence: str  # RegisterFinding field its findings attach to
    noun: str  # qualifies "finding" in exit-code help and pre-pass line
    evidence_noun: str  # qualifies "finding" in the audit summary
    prepass_label: str  # names the register list of the pre-pass line
    prepass_ranks: bool = False  # list every register, ranked
    suspect: str | None = None  # RegisterFinding status it can raise
    bench_note: str | None = None  # bench text column (None: no flag)

    def analyze(self, netlist, spec, design=None, **options):
        return _resolve(self.analyzer)(
            netlist, spec, design=design, **options
        )

    @property
    def rules(self):
        table = _resolve(self.rule_table)
        return table() if callable(table) else dict(table)

    def sarif_run(self, report):
        return _resolve(self.sarif)(self, report)

    def prepass_line(self, report, registers):
        """The ``repro audit`` line announcing this screen's pre-pass."""
        if self.prepass_ranks:
            listed = report.prioritize(registers)
        else:
            listed = report.flagged_registers
        return "{} pre-pass: {} {}finding{} in {:.2f}s{}".format(
            self.name,
            len(report.findings),
            self.noun + " " if self.noun else "",
            _plural(len(report.findings)),
            report.elapsed,
            "; {}: {}".format(self.prepass_label, ", ".join(listed))
            if listed or self.prepass_ranks
            else "",
        )

    def evidence_line(self, finding):
        """This screen's part of a register's audit summary line, or
        ``None`` when it left no evidence there."""
        evidence = getattr(finding, self.evidence, None)
        if not evidence:
            return None
        suspect = self.suspect and getattr(finding, self.suspect)
        return "{}: {} {} finding{} ({}){}".format(
            self.name,
            len(evidence),
            self.evidence_noun,
            _plural(len(evidence)),
            ", ".join(sorted({e["rule"] for e in evidence})),
            " — " + self.suspect.replace("_", " ").upper()
            if suspect
            else "",
        )


#: Every screen, in portfolio order: SARIF logs, audit pre-passes and
#: summaries list them in this order.
SCREENS = (
    Screen(
        name="lint",
        title="static structural lint pre-pass",
        analyzer="repro.lint.engine:lint_design",
        rule_table="repro.lint.rules:rule_table",
        sarif="repro.report.sarif:screen_run",
        evidence="lint_evidence",
        noun="",
        evidence_noun="static",
        prepass_label="priority",
        prepass_ranks=True,
    ),
    Screen(
        name="ift",
        title="static information-flow taint screen (no solver)",
        analyzer="repro.ift.analyze:analyze_design",
        rule_table="repro.ift.findings:IFT_RULES",
        sarif="repro.report.sarif:screen_run",
        evidence="ift_evidence",
        noun="taint",
        evidence_noun="taint",
        prepass_label="flagged",
        suspect="leakage_suspect",
        bench_note="{solver_calls} solver call(s)",
    ),
    Screen(
        name="diff",
        title="golden-model differential screen (no solver)",
        analyzer="repro.diff.screen:analyze_design",
        rule_table="repro.diff.findings:DIFF_RULES",
        sarif="repro.diff.sarif:sarif_run",
        evidence="diff_evidence",
        noun="divergence",
        evidence_noun="divergence",
        prepass_label="divergent",
        suspect="differential_suspect",
        bench_note="{flagged} divergent register(s)",
    ),
)

_BY_NAME = {screen.name: screen for screen in SCREENS}


def by_name(name):
    """The screen called ``name``."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(
            "unknown screen {!r}; known: {}".format(
                name, ", ".join(_BY_NAME)
            )
        ) from None


def attach_evidence(finding, reports):
    """Copy each report's findings on ``finding.register`` into the
    evidence field of that report's screen (as finding dicts)."""
    for report in reports:
        setattr(finding, by_name(report.screen).evidence, [
            f.to_dict() for f in report.findings_for(finding.register)
        ])


def merged_sarif(reports):
    """One SARIF log over one report or a list of reports of any
    screens: a run per report, grouped by screen in portfolio order,
    input order within a group."""
    from repro.report.sarif import merged_log

    if not isinstance(reports, (list, tuple)):
        reports = [reports]
    return merged_log(*(
        [screen.sarif_run(r) for r in reports if r.screen == screen.name]
        for screen in SCREENS
    ))


def write_sarif(path, reports):
    """Write :func:`merged_sarif` to ``path``; returns the path."""
    from repro.report.sarif import write_log

    return write_log(path, merged_sarif(reports))


def map_designs(fn, items, jobs):
    """``[fn(*args) for args in items]``, on up to ``jobs`` forked
    worker processes when there is more than one item.

    ``fn`` must be a module-level function (the pool pickles it by
    name) and its results picklable. Results keep input order.
    """
    items = list(items)
    jobs = min(jobs or 1, len(items))
    if jobs <= 1:
        return [fn(*args) for args in items]
    import multiprocessing

    with multiprocessing.get_context("fork").Pool(jobs) as pool:
        return pool.starmap(fn, items)
