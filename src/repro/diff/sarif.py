"""SARIF run builder of the differential screen.

One :class:`~repro.diff.findings.DiffReport` becomes one ``run`` under
driver ``repro-diff`` (:func:`repro.report.sarif.screen_run`), with the
VCD witness stripped from each result's evidence: ``witnessVcd`` would
dwarf every other property in a scanning UI. Its cycle count and
replay coordinates stay, and the full witness remains in the JSON
report and fused audit evidence.
"""

from __future__ import annotations

from typing import Any

from repro.report.sarif import screen_run


def sarif_run(screen: Any, report: Any) -> dict:
    """The shared screen run, minus each result's VCD witness."""
    run = screen_run(screen, report)
    for result in run["results"]:
        result["properties"]["evidence"].pop("witness_vcd", None)
    return run
