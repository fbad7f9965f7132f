"""Corpus runner: screen every mutant, score against in-band truth.

:func:`run_corpus` fans the bundles of a generated corpus through the
static portfolio — lint, IFT and the golden-model differential screen —
in parallel worker processes, and :func:`score_results` folds the rows
into a per-mutator detection-rate table keyed by the ground truth each
bundle carries in its provenance.

A mutant counts as *detected* when any enabled modality reports a
finding at or above ``RunConfig.fail_on`` (default ``suspicious`` —
the same exit-code convention as ``repro lint``). A trojaned mutant
nobody flags lands in ``missed``; a clean mutant anybody flags lands in
``false_positives``; :func:`detection_gate` turns either into exit 1,
which is what the CI corpus-smoke job enforces.

With ``RunConfig.audit=True`` every mutant additionally runs through
Algorithm 1 on the shared :class:`~repro.sched.AuditScheduler` pool
(via :func:`repro.bench.harness.audit_sweep`) — the path that exists
for the *evasive* mutators the static screens are allowed to miss.

The report dict is a pure function of the corpus bytes and the config:
no timestamps, no timings, canonical float rounding — re-running the
same corpus yields byte-identical JSON (:func:`dumps_report`).
"""

from __future__ import annotations

import glob
import json
import os
from dataclasses import dataclass

from repro.corpus.bundle import load_bundle
from repro.corpus.mutate import MANIFEST_NAME
from repro.errors import CorpusError
from repro.screens import SCREENS, by_name, map_designs, severity_rank

REPORT_FORMAT = "repro-corpus-report"
REPORT_VERSION = 1
DEFAULT_MODALITIES = tuple(screen.name for screen in SCREENS)


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a corpus run's report bytes."""

    jobs: int = 1
    fail_on: str = "suspicious"
    modalities: tuple = DEFAULT_MODALITIES
    audit: bool = False  # also run Algorithm 1 per mutant (sched pool)
    audit_max_cycles: int = 12
    audit_engine: str = "bmc"

    def to_dict(self):
        payload = {
            "fail_on": self.fail_on,
            "modalities": list(self.modalities),
            "audit": self.audit,
        }
        if self.audit:
            payload["audit_max_cycles"] = self.audit_max_cycles
            payload["audit_engine"] = self.audit_engine
        return payload


def corpus_paths(corpus_dir):
    """Bundle paths of a corpus directory, in manifest order.

    Falls back to sorted ``*.design.json`` globbing for a directory of
    loose bundles without a ``corpus.json`` manifest.
    """
    manifest_path = os.path.join(corpus_dir, MANIFEST_NAME)
    if os.path.exists(manifest_path):
        try:
            with open(manifest_path, "r", encoding="ascii") as handle:
                manifest = json.load(handle)
        except ValueError as exc:
            raise CorpusError(
                "unreadable corpus manifest {}: {}".format(
                    manifest_path, exc
                )
            ) from exc
        return [
            os.path.join(corpus_dir, entry["file"])
            for entry in manifest.get("mutants", ())
        ]
    paths = sorted(glob.glob(os.path.join(corpus_dir, "*.design.json")))
    if not paths:
        raise CorpusError(
            "no corpus at {!r}: neither {} nor any *.design.json".format(
                corpus_dir, MANIFEST_NAME
            )
        )
    return paths


def screen_bundle(path, config=None):
    """Screen one bundle through the enabled modalities; returns a row.

    Module-level so a fork Pool can ship it to workers; the row is a
    plain dict ready for :func:`score_results`.
    """
    if config is None:
        config = RunConfig()
    bundle = load_bundle(path)
    netlist, spec = bundle.netlist, bundle.spec
    provenance = bundle.provenance or {}
    floor = severity_rank(config.fail_on)
    modalities = {}
    for modality in config.modalities:
        try:
            screen = by_name(modality)
        except ValueError as exc:
            raise CorpusError(str(exc)) from None
        report = screen.analyze(netlist, spec, design=netlist.name)
        flagged = sorted(
            {
                finding.severity
                for finding in report.findings
                if severity_rank(finding.severity) >= floor
            }
        )
        modalities[modality] = {
            "flagged": bool(flagged),
            "flagged_severities": flagged,
            "findings": len(report.findings),
        }
    return {
        "name": netlist.name,
        "file": os.path.basename(path),
        "base": provenance.get("base"),
        "mutator": provenance.get("mutator"),
        "trojaned": bool(provenance.get("trojaned")),
        "target_register": provenance.get("target_register"),
        "modalities": modalities,
        "detected": any(m["flagged"] for m in modalities.values()),
    }


def run_corpus(corpus_dir, config=None, progress=None):
    """Screen a whole corpus; returns the list of per-mutant rows.

    ``progress(row)`` fires per mutant in manifest order (after the
    parallel fan-out completes, so the callback never races workers).
    """
    if config is None:
        config = RunConfig()
    paths = corpus_paths(corpus_dir)
    rows = map_designs(
        screen_bundle, [(path, config) for path in paths], config.jobs
    )
    if config.audit:
        _audit_rows(paths, rows, config)
    if progress is not None:
        for row in rows:
            progress(row)
    return rows


def _audit_rows(paths, rows, config):
    """Fold an Algorithm 1 verdict into every row (sched-pool sweep)."""
    from repro.bench.harness import audit_sweep

    designs = []
    for path, row in zip(paths, rows):
        bundle = load_bundle(path)
        designs.append((row["name"], bundle.netlist, bundle.spec))
    sweep = audit_sweep(
        designs,
        jobs=config.jobs if config.jobs > 1 else None,
        max_cycles=config.audit_max_cycles,
        engine=config.audit_engine,
    )
    for row, audit_row in zip(rows, sweep):
        row["modalities"]["audit"] = {
            "flagged": bool(audit_row.trojan_found),
            "status": audit_row.status,
            "registers": audit_row.registers,
        }
        row["detected"] = row["detected"] or bool(audit_row.trojan_found)


def score_results(rows, config=None):
    """Fold rows into the deterministic detection-rate report dict."""
    if config is None:
        config = RunConfig()
    per_mutator = {}
    per_modality = {}
    missed = []
    false_positives = []
    for row in rows:
        stats = per_mutator.setdefault(
            row["mutator"] or "unknown",
            {
                "mutants": 0,
                "trojaned": 0,
                "detected": 0,
                "clean": 0,
                "false_positives": 0,
            },
        )
        stats["mutants"] += 1
        if row["trojaned"]:
            stats["trojaned"] += 1
            if row["detected"]:
                stats["detected"] += 1
            else:
                missed.append(row["name"])
        else:
            stats["clean"] += 1
            if row["detected"]:
                stats["false_positives"] += 1
                false_positives.append(row["name"])
        for modality, verdict in row["modalities"].items():
            tally = per_modality.setdefault(
                modality, {"trojaned_flagged": 0, "clean_flagged": 0}
            )
            if verdict["flagged"]:
                key = (
                    "trojaned_flagged"
                    if row["trojaned"]
                    else "clean_flagged"
                )
                tally[key] += 1
    for stats in per_mutator.values():
        stats["recall"] = _rate(stats["detected"], stats["trojaned"])
        stats["fp_rate"] = _rate(stats["false_positives"], stats["clean"])
    trojaned = sum(s["trojaned"] for s in per_mutator.values())
    detected = sum(s["detected"] for s in per_mutator.values())
    clean = sum(s["clean"] for s in per_mutator.values())
    return {
        "format": REPORT_FORMAT,
        "version": REPORT_VERSION,
        "config": config.to_dict(),
        "totals": {
            "mutants": len(rows),
            "trojaned": trojaned,
            "clean": clean,
            "detected": detected,
            "recall": _rate(detected, trojaned),
            "false_positives": len(false_positives),
            "fp_rate": _rate(len(false_positives), clean),
        },
        "per_mutator": per_mutator,
        "per_modality": per_modality,
        "missed": sorted(missed),
        "false_positives": sorted(false_positives),
        "mutants": rows,
    }


def _rate(hits, total):
    """A stable ratio: 4 decimal places, ``None`` over an empty pool."""
    if not total:
        return None
    return round(hits / total, 4)


def detection_gate(report):
    """CI exit status: 1 on any trojaned miss or any clean flag."""
    return 1 if report["missed"] or report["false_positives"] else 0


def dumps_report(report):
    """Canonical report JSON — byte-identical across reruns."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
