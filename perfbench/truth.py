"""Ground truth the benchmark scores every verdict against.

Each built-in design is audited at its *reference bound*: the depth at
which the paper's Table 1 flow reaches a verdict. RISC designs need
``8 + 4 * (trigger + 3)`` cycles for the default 8-cycle trigger; the
others take the bound of their family. ``aes-t1200`` carries a Trojan
whose trigger lies beyond its bound, so, as in the paper's Table 1
"N/A", the expected verdict is "not found within the bound".
"""

from __future__ import annotations

TROJAN = "trojan"
CLEAN = "clean"
NOT_WITHIN_BOUND = "n/a"

RISC_TRIGGER = 8
RISC_BOUND = 8 + 4 * (RISC_TRIGGER + 3)

# design -> (reference bound, expected verdict)
REFERENCE = {
    "risc": (RISC_BOUND, CLEAN),
    "risc-fig1": (RISC_BOUND, TROJAN),
    "risc-t100": (RISC_BOUND, TROJAN),
    "risc-t300": (RISC_BOUND, TROJAN),
    "risc-t400": (RISC_BOUND, TROJAN),
    "mc8051": (12, CLEAN),
    "mc8051-t400": (12, TROJAN),
    "mc8051-t700": (12, TROJAN),
    "mc8051-t800": (12, TROJAN),
    "aes": (24, CLEAN),
    "aes-t700": (24, TROJAN),
    "aes-t800": (12, TROJAN),
    "aes-t1200": (16, NOT_WITHIN_BOUND),
    "router": (16, CLEAN),
    "router-redirect": (16, TROJAN),
}


def bound(design):
    return REFERENCE[design][0]


def expects_trojan_found(design):
    """Whether an audit at the reference bound must report a Trojan."""
    return REFERENCE[design][1] == TROJAN


def check_audit(design, report, target=None):
    """Problems with one Algorithm 1 report (empty list: correct).

    A found Trojan must implicate the Trojan's target register, and a
    degraded audit (a check that hit a limit or crashed) is a failure
    whatever its verdict.
    """
    problems = []
    if report.degraded:
        problems.append("{}: degraded audit".format(design))
    found = report.trojan_found
    if found != expects_trojan_found(design):
        problems.append("{}: trojan_found={} expected {}".format(
            design, found, REFERENCE[design][1]))
    elif found and target is not None:
        flagged = sorted(
            name for name, finding in report.findings.items()
            if finding.trojan_found
        )
        if target not in flagged:
            problems.append("{}: flagged {} not the target {}".format(
                design, flagged, target))
    return problems
