"""Gate-level netlist IR and word-level construction front-end."""

from repro.netlist.builder import BitVec, Circuit, Reg
from repro.netlist.cells import CONST0, CONST1, Cell, Flop, Kind
from repro.netlist.fingerprint import (
    config_fingerprint,
    netlist_fingerprint,
    objective_fingerprint,
)
from repro.netlist.netlist import Netlist
from repro.netlist.stats import NetlistStats, stats
from repro.netlist.traversal import (
    cone_of_influence,
    fanin_cone,
    fanout_cone,
    fanout_map,
    levelize,
    registers_reading,
    topological_cells,
    transitive_fanout_outputs,
)
from repro.netlist.validate import ValidationReport, validate

__all__ = [
    "BitVec",
    "Circuit",
    "Reg",
    "CONST0",
    "CONST1",
    "Cell",
    "Flop",
    "Kind",
    "Netlist",
    "NetlistStats",
    "stats",
    "config_fingerprint",
    "netlist_fingerprint",
    "objective_fingerprint",
    "cone_of_influence",
    "fanin_cone",
    "fanout_cone",
    "fanout_map",
    "levelize",
    "registers_reading",
    "topological_cells",
    "transitive_fanout_outputs",
    "ValidationReport",
    "validate",
]

from repro.netlist.optimize import OptimizeStats, optimize  # noqa: E402

__all__ += [
    "EquivResult",
    "check_equivalence",
    "OptimizeStats",
    "optimize",
]


def __getattr__(name):
    # equiv needs the SAT layer, whose Tseitin encoder imports this
    # package: loading it on first use keeps `import repro.sat` acyclic
    if name in ("EquivResult", "check_equivalence"):
        from repro.netlist import equiv

        return getattr(equiv, name)
    raise AttributeError(
        "module {!r} has no attribute {!r}".format(__name__, name)
    )
