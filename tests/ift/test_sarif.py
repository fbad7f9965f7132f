"""Merged lint+IFT SARIF export: one multi-run 2.1.0 document."""

import json

import pytest

from repro.frontend import build_builtin as build_design
from repro.ift import analyze_design
from repro.lint import lint_design
from repro.screens import merged_sarif, write_sarif

from tests.lint.test_sarif import SARIF_21_SUBSET


def reports_for(names):
    ift_reports, lint_reports = [], []
    for name in names:
        netlist, spec = build_design(name)
        ift_reports.append(analyze_design(netlist, spec, design=name))
        lint_reports.append(lint_design(netlist, spec, design=name))
    return ift_reports, lint_reports


def test_ift_only_log_structure():
    ift_reports, _lint = reports_for(["mc8051-t800"])
    log = merged_sarif(ift_reports)
    assert log["version"] == "2.1.0"
    (run,) = log["runs"]
    assert run["tool"]["driver"]["name"] == "repro-ift"
    assert len(run["results"]) == len(ift_reports[0].findings)
    rules = [r["id"] for r in run["tool"]["driver"]["rules"]]
    assert "taint-reaches-critical" in rules
    for result in run["results"]:
        assert rules[result["ruleIndex"]] == result["ruleId"]


def test_merged_log_interleaves_both_modalities():
    names = ["router", "mc8051-t800"]
    ift_reports, lint_reports = reports_for(names)
    log = merged_sarif(ift_reports + lint_reports)
    drivers = [run["tool"]["driver"]["name"] for run in log["runs"]]
    assert drivers == ["repro-lint", "repro-lint", "repro-ift", "repro-ift"]
    designs = [run["properties"]["design"] for run in log["runs"]]
    assert designs == names + names


def test_merged_log_validates_against_embedded_2_1_0_schema():
    jsonschema = pytest.importorskip("jsonschema")
    ift_reports, lint_reports = reports_for(["risc", "risc-t100"])
    jsonschema.validate(
        merged_sarif(ift_reports + lint_reports), SARIF_21_SUBSET
    )


def test_suspicious_findings_map_to_error_level():
    ift_reports, _lint = reports_for(["aes-t800"])
    log = merged_sarif(ift_reports)
    by_rule = {
        r["ruleId"]: r["level"] for r in log["runs"][0]["results"]
    }
    assert by_rule["taint-reaches-critical"] == "error"


def test_run_properties_carry_engine_accounting():
    ift_reports, _lint = reports_for(["risc-t100"])
    log = merged_sarif(ift_reports)
    props = log["runs"][0]["properties"]
    assert set(props["ruleHits"]) == {
        "taint-reaches-critical",
        "taint-reaches-output",
        "taint-reaches-enable",
    }
    stats = props["registerStats"]
    assert any(entry["num_sources"] for entry in stats.values())


def test_write_sarif_emits_stable_bytes(tmp_path):
    ift_reports, lint_reports = reports_for(["mc8051", "mc8051-t800"])
    first = tmp_path / "a.sarif"
    second = tmp_path / "b.sarif"
    write_sarif(first, ift_reports + lint_reports)
    write_sarif(second, ift_reports + lint_reports)
    assert first.read_bytes() == second.read_bytes()
    log = json.loads(first.read_text())
    assert len(log["runs"]) == 4
