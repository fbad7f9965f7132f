"""Shared report serialization (SARIF) for the static modalities.

Every screen — :mod:`repro.lint`, :mod:`repro.ift` and
:mod:`repro.diff` — emits SARIF 2.1.0 for code-scanning UIs. The writer
lives here so a screen only describes its *tool* (driver name, rule
table, run properties) and the log assembly, level mapping and
logical-location encoding stay in one place; :func:`merged_log`
stitches several screens' runs into a single multi-run document.
"""

from repro.report.sarif import (
    SARIF_SCHEMA,
    SARIF_VERSION,
    driver_rule,
    finding_result,
    make_log,
    make_run,
    merged_log,
    screen_run,
    severity_level,
    write_log,
)

__all__ = [
    "SARIF_SCHEMA",
    "SARIF_VERSION",
    "driver_rule",
    "finding_result",
    "make_log",
    "make_run",
    "merged_log",
    "screen_run",
    "severity_level",
    "write_log",
]
