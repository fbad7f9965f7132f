"""The shared screen interface: byte-stable outputs, lazy imports, and
traced targets that still exist."""

import hashlib
import importlib
import inspect
import io
import os
import re
import subprocess
import sys

import pytest

from repro.cli import main
from repro.screens import SCREENS, by_name, map_designs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

GOLDEN_DESIGNS = ["router", "mc8051-t800", "risc-t100", "router-redirect"]

# sha256 of `repro <screen> --design ... --json -` and of its merged
# `--sarif` log over GOLDEN_DESIGNS, every "elapsed" value zeroed.
# Recorded before the screens shared one interface; a change here is a
# change of report, SARIF or JSON bytes.
GOLDEN = {
    "lint.json":
        "9a5023d648b25807dde59337acc98cf9aa194ddea500b029b01ba1af0060debb",
    "lint.sarif":
        "29fcd0aa8ffe84f902b3047f93d6681777bf14215ae407de2d2503bdf1244dd1",
    "ift.json":
        "95dd6e82e4386d9afc593aa1407d907d27d6cefa6946c752fd23c771912aa2e0",
    "ift.sarif":
        "5259f22cee818940c37e8366bcdb49cfc425598863fd5de096c210e7bd0b9abb",
    "diff.json":
        "8ad0b7333f232a50094beab8f17c1c9a48c76900d36e33edd61555c02a13e6ce",
    "diff.sarif":
        "cc2fd46f28783d7ae301a84d25be454217924e3aaf37ce9e184275ac0690c2db",
}

_ELAPSED = re.compile(rb'"elapsed": -?[0-9][0-9.eE+-]*')


def _digest(data):
    return hashlib.sha256(_ELAPSED.sub(b'"elapsed": 0', data)).hexdigest()


@pytest.mark.parametrize("screen", [s.name for s in SCREENS])
def test_screen_outputs_match_golden_digests(tmp_path, screen):
    designs = [a for d in GOLDEN_DESIGNS for a in ("--design", d)]
    out = io.StringIO()
    main([screen, *designs, "--json", "-"], out=out)
    sarif = tmp_path / "screen.sarif"
    main([screen, *designs, "--sarif", str(sarif)], out=io.StringIO())
    assert _digest(out.getvalue().encode()) == GOLDEN[screen + ".json"]
    assert _digest(sarif.read_bytes()) == GOLDEN[screen + ".sarif"]


def _subpackages():
    base = os.path.join(SRC, "repro")
    return sorted(
        name for name in os.listdir(base)
        if os.path.isfile(os.path.join(base, name, "__init__.py"))
    )


def _import_first(module, probe="pass"):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-c", "import {}\n{}".format(module, probe)],
        env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("package", _subpackages())
def test_every_subpackage_imports_first(package):
    result = _import_first("repro." + package)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("package", ["core", "runner", "sched", "serve"])
def test_engine_packages_do_not_import_the_screens(package):
    probe = (
        "import sys\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[:2] in "
        "(['repro', 'lint'], ['repro', 'ift'], ['repro', 'diff']))\n"
        "print(loaded)"
    )
    result = _import_first("repro." + package, probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def _perfbench_specs():
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    from perfbench.layers import SPECS

    return SPECS


def test_every_traced_target_resolves():
    missing = []
    for spec in _perfbench_specs():
        owner = importlib.import_module(spec.module)
        *path, attr = spec.attr.split(".")
        try:
            for part in path:
                owner = getattr(owner, part)
            inspect.getattr_static(owner, attr)
        except AttributeError:
            missing.append("{}.{}".format(spec.module, spec.attr))
    assert missing == []


def test_screen_analyzers_are_the_traced_targets():
    traced = {
        (spec.module, spec.attr): spec.name for spec in _perfbench_specs()
    }
    for screen in SCREENS:
        module, _sep, attr = screen.analyzer.partition(":")
        assert traced.get((module, attr)) == screen.name + ".analyze"


def test_analyze_looks_the_analyzer_up_at_call_time(monkeypatch):
    import repro.ift.analyze

    calls = []
    monkeypatch.setattr(
        repro.ift.analyze, "analyze_design",
        lambda netlist, spec, design=None: calls.append(design) or "seen",
    )
    assert by_name("ift").analyze(None, None, design="d") == "seen"
    assert calls == ["d"]


def test_prepass_and_evidence_lines():
    from repro.core.report import RegisterFinding
    from repro.ift import IftFinding, IftReport

    report = IftReport(design="d", findings=[IftFinding(
        rule="taint-reaches-critical", severity="suspicious",
        message="m", design="d", register="r",
    )])
    ift = by_name("ift")
    assert ift.prepass_line(report, ["r"]) == (
        "ift pre-pass: 1 taint finding in 0.00s; flagged: r"
    )
    finding = RegisterFinding(register="r")
    assert ift.evidence_line(finding) is None
    finding.ift_evidence = [f.to_dict() for f in report.findings]
    assert ift.evidence_line(finding) == (
        "ift: 1 taint finding (taint-reaches-critical) — LEAKAGE SUSPECT"
    )


def test_map_designs_keeps_order_serial_and_forked():
    items = [(2, 3), (3, 2), (5, 1)]
    assert map_designs(pow, items, 1) == [8, 9, 5]
    assert map_designs(pow, items, 2) == [8, 9, 5]
    assert map_designs(pow, [], 2) == []


def test_unknown_screen_is_rejected():
    with pytest.raises(ValueError, match="unknown screen"):
        by_name("fuzz")

