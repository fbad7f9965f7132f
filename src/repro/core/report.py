"""Detection reports for Algorithm 1 runs."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.screens import SCREENS

#: keys whose values vary run-to-run (wall clock, RSS, cache bookkeeping);
#: :func:`scrub_volatile` strips them so two audits of the same design can
#: be compared byte-for-byte — the basis of the ``--jobs N`` determinism
#: guarantee and of any golden-file test.
VOLATILE_KEYS = frozenset({"elapsed", "peak_memory", "saved_elapsed", "ts"})


def scrub_volatile(obj, keys=VOLATILE_KEYS):
    """Recursively drop run-varying keys from a report/finding dict."""
    if isinstance(obj, dict):
        return {
            k: scrub_volatile(v, keys) for k, v in obj.items()
            if k not in keys
        }
    if isinstance(obj, list):
        return [scrub_volatile(v, keys) for v in obj]
    return obj


@dataclass
class RegisterFinding:
    """Everything Algorithm 1 learned about one critical register."""

    register: str
    pseudo_criticals: list = field(default_factory=list)  # (name, direction)
    corruption: object = None  # engine result for Eq. (2)
    bypass: object = None  # BypassResult for Eq. (4)
    pseudo_corruptions: dict = field(default_factory=dict)  # name -> result
    witness_confirmed: bool | None = None
    elapsed: float = 0.0
    # per-check resource outcomes (check name -> runner.CheckOutcome):
    # how each property check ended under supervision — completed, budget
    # exhausted, hard timeout, or crashed — with attempts and bounds.
    check_outcomes: dict = field(default_factory=dict)
    restored: bool = False  # finding came from a resume checkpoint
    # static lint findings implicating this register (LintFinding dicts,
    # attached when the detector runs with a lint report); persisted in
    # checkpoints so a resumed audit keeps its static evidence
    lint_evidence: list = field(default_factory=list)
    # static information-flow findings implicating this register
    # (IftFinding dicts, attached under --ift); persisted like
    # lint_evidence so resumed audits keep the taint verdict
    ift_evidence: list = field(default_factory=list)
    # golden-model differential findings implicating this register
    # (DiffFinding dicts, attached under --diff); persisted like the
    # other evidence lists so resumed audits keep the divergence verdict
    diff_evidence: list = field(default_factory=list)

    @property
    def corrupted(self):
        return self.corruption is not None and self.corruption.detected

    @property
    def bypassed(self):
        return self.bypass is not None and self.bypass.detected

    @property
    def pseudo_corrupted(self):
        return any(r.detected for r in self.pseudo_corruptions.values())

    @property
    def trojan_found(self):
        return self.corrupted or self.bypassed or self.pseudo_corrupted

    @property
    def lint_flagged(self):
        """True when the static lint pre-pass implicated this register."""
        return bool(self.lint_evidence)

    @property
    def ift_flagged(self):
        """True when the static IFT screen implicated this register."""
        return bool(self.ift_evidence)

    @property
    def diff_flagged(self):
        """True when the differential screen implicated this register."""
        return bool(self.diff_evidence)

    @property
    def degraded_checks(self):
        """Check outcomes that did not complete (name -> CheckOutcome)."""
        return {
            name: outcome
            for name, outcome in self.check_outcomes.items()
            if not getattr(outcome, "ok", True)
        }

    @property
    def leakage_suspect(self):
        """IFT sees undocumented information flow but the dynamic checks
        came back clean and complete.

        This is the fused verdict the ISSUE calls out: the bounded
        corruption property (Eq. 2) can pass while a leakage-style
        payload still routes undocumented data through the register —
        taint evidence without corruption evidence is its signature.
        A register whose checks found the Trojan, or whose checks never
        concluded, is reported as ``trojan_found``/``degraded`` instead.
        """
        return (
            self.ift_flagged
            and not self.trojan_found
            and not self.degraded_checks
        )

    @property
    def differential_suspect(self):
        """The differential screen saw the register depart from every
        documented way, but the dynamic checks came back clean and
        complete.

        A simulated divergence is a concrete trace the bounded Eq. 2
        property may have missed (a corruption past the unroll bound,
        or one only reachable from forced undocumented state) — so it
        outranks the structural ``leakage_suspect`` in the ladder.
        """
        return (
            self.diff_flagged
            and not self.trojan_found
            and not self.degraded_checks
        )

    @property
    def status(self):
        """Fused per-register verdict.

        ``"degraded"`` when a supervised check did not conclude;
        ``"differential_suspect"`` when the golden-model diff saw a
        divergence the (complete) dynamic checks did not corroborate;
        ``"leakage_suspect"`` when static IFT flagged the register but
        nothing dynamic fired; ``"ok"`` otherwise. Without screen
        evidence this reduces to the historical ok/degraded split.
        """
        if self.degraded_checks:
            return "degraded"
        if self.differential_suspect:
            return "differential_suspect"
        if self.leakage_suspect:
            return "leakage_suspect"
        return "ok"

    @property
    def attempts(self):
        """Total check attempts spent on this register (0 if unsupervised)."""
        return sum(
            getattr(outcome, "num_attempts", 0)
            for outcome in self.check_outcomes.values()
        )

    @property
    def peak_memory(self):
        """Largest per-check peak RSS observed, in bytes (0 if unmeasured)."""
        peaks = [
            getattr(outcome, "peak_memory", 0)
            for outcome in self.check_outcomes.values()
        ]
        return max(peaks, default=0)

    @property
    def bound_reached(self):
        """Smallest bound actually certified across this register's checks.

        Equals ``max_cycles`` for a fully completed clean register; less
        when some check degraded — the honest figure for the paper's
        "no Trojan found for T clock cycles" statement.
        """
        bounds = []
        if self.corruption is not None:
            bounds.append(self.corruption.bound)
        if self.bypass is not None:
            bounds.append(self.bypass.bound)
        return min(bounds) if bounds else 0


@dataclass
class DetectionReport:
    """Outcome of a full Algorithm 1 run over a design."""

    design: str
    engine: str
    max_cycles: int
    findings: dict = field(default_factory=dict)  # register -> RegisterFinding
    elapsed: float = 0.0
    trojan_info: object = None

    @property
    def trojan_found(self):
        return any(f.trojan_found for f in self.findings.values())

    @property
    def degraded(self):
        """True when any register's checks hit a resource limit or crash."""
        return any(f.status == "degraded" for f in self.findings.values())

    @property
    def leakage_suspects(self):
        """Registers flagged by IFT that every dynamic check passed."""
        return [
            name
            for name, finding in self.findings.items()
            if getattr(finding, "leakage_suspect", False)
        ]

    @property
    def differential_suspects(self):
        """Registers the diff screen flagged that every check passed."""
        return [
            name
            for name, finding in self.findings.items()
            if getattr(finding, "differential_suspect", False)
        ]

    @property
    def resumed_registers(self):
        """Registers restored from a checkpoint rather than re-audited."""
        return [
            name
            for name, finding in self.findings.items()
            if getattr(finding, "restored", False)
        ]

    def trusted_for(self):
        """Cycles the design is certified trustworthy for (min over checks),
        or 0 if a Trojan was found."""
        if self.trojan_found:
            return 0
        bounds = []
        for finding in self.findings.values():
            if finding.corruption is not None:
                bounds.append(finding.corruption.bound)
            if finding.bypass is not None:
                bounds.append(finding.bypass.bound)
        return min(bounds) if bounds else 0

    def to_dict(self, scrub=False):
        """JSON-ready dict of the whole report.

        Findings serialize through the same codec the resume checkpoint
        uses (:func:`repro.runner.checkpoint.finding_to_dict`), so a
        report dict and a checkpoint entry agree field-for-field. With
        ``scrub=True``, run-varying keys (:data:`VOLATILE_KEYS`) are
        dropped — two audits of the same design then compare equal
        regardless of wall clock or worker count.
        """
        from repro.runner.checkpoint import finding_to_dict

        data = {
            "design": self.design,
            "engine": self.engine,
            "max_cycles": self.max_cycles,
            "trojan_found": self.trojan_found,
            "degraded": self.degraded,
            "leakage_suspects": self.leakage_suspects,
            "differential_suspects": self.differential_suspects,
            "trusted_for": self.trusted_for(),
            "elapsed": self.elapsed,
            "findings": {
                register: finding_to_dict(finding)
                for register, finding in self.findings.items()
            },
        }
        return scrub_volatile(data) if scrub else data

    def to_json(self, scrub=False, indent=2):
        """The report as a JSON string (see :meth:`to_dict`)."""
        return json.dumps(
            self.to_dict(scrub=scrub), indent=indent, sort_keys=False,
            default=str,
        )

    def summary(self):
        verdict = (
            "TROJAN FOUND" if self.trojan_found else
            "no data-corruption Trojan found for {} clock cycles".format(
                self.trusted_for()
            )
        )
        if self.degraded and not self.trojan_found:
            verdict += " [degraded: some checks hit resource limits]"
        diff_suspects = self.differential_suspects
        if diff_suspects and not self.trojan_found:
            verdict += " [differential suspect: {}]".format(
                ", ".join(diff_suspects)
            )
        suspects = self.leakage_suspects
        if suspects and not self.trojan_found:
            verdict += " [leakage suspect: {}]".format(", ".join(suspects))
        lines = [
            "Algorithm 1 on {!r} via {} (bound {} cycles): {}".format(
                self.design, self.engine, self.max_cycles, verdict,
            )
        ]
        for register, finding in self.findings.items():
            parts = []
            if finding.pseudo_criticals:
                parts.append(
                    "pseudo-critical: {}".format(
                        ", ".join(
                            "{} ({})".format(n, d)
                            for n, d in finding.pseudo_criticals
                        )
                    )
                )
            if finding.corrupted:
                parts.append(
                    "CORRUPTED at cycle {} (witness {}confirmed)".format(
                        finding.corruption.bound,
                        "" if finding.witness_confirmed else "NOT ",
                    )
                )
            for name, result in finding.pseudo_corruptions.items():
                if result.detected:
                    parts.append(
                        "pseudo-critical {} CORRUPTED at cycle {}".format(
                            name, result.bound
                        )
                    )
            if finding.bypassed:
                parts.append(
                    "BYPASSED (p={:#x}, q={:#x}) after prefix of {} "
                    "cycles".format(
                        finding.bypass.p_value,
                        finding.bypass.q_value,
                        finding.bypass.bound,
                    )
                )
            for name, outcome in finding.degraded_checks.items():
                parts.append("{} {}".format(name, outcome.describe()))
            if not parts:
                parts.append("clean within bound")
            for screen in SCREENS:
                line = screen.evidence_line(finding)
                if line is not None:
                    parts.append(line)
            if getattr(finding, "restored", False):
                parts.append("restored from checkpoint")
            lines.append("  {}: {}".format(register, "; ".join(parts)))
        if self.trojan_info is not None:
            lines.append(
                "  [ground truth: {} — {}]".format(
                    self.trojan_info.name, self.trojan_info.payload
                )
            )
        return "\n".join(lines)
