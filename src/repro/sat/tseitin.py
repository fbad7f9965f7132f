"""Tseitin encoding of netlist cells into CNF clauses.

Gates become clause groups over a sink (``new_var``/``add_clause``/
``add_clauses`` interface — :class:`~repro.sat.cnf.Cnf`,
:class:`~repro.sat.solver.Solver` and
:class:`~repro.sat.native.NativeSolver` all qualify). Each gate's group
goes to the sink in one ``add_clauses`` call; an n-ary XOR makes one per
2-input stage, because it allocates each stage's auxiliary variable just
before that stage's clauses. Inverters and buffers are *not* encoded:
callers alias the output literal to (the negation of) the input literal,
which roughly halves variable counts on typical netlists. The same
applies to NAND/NOR/XNOR: they are encoded as their base gate with an
inverted output literal by :func:`encode_cell`.
"""

from __future__ import annotations

from repro.errors import EncodingError
from repro.netlist.cells import Kind


def encode_and(sink, out, inputs):
    """out <-> AND(inputs)."""
    clauses = [[-out, lit] for lit in inputs]
    clauses.append([out] + [-lit for lit in inputs])
    sink.add_clauses(clauses)


def encode_or(sink, out, inputs):
    """out <-> OR(inputs)."""
    clauses = [[out, -lit] for lit in inputs]
    clauses.append([-out] + list(inputs))
    sink.add_clauses(clauses)


def encode_xor2(sink, out, a, b):
    """out <-> a XOR b."""
    sink.add_clauses((
        [-out, a, b],
        [-out, -a, -b],
        [out, -a, b],
        [out, a, -b],
    ))


def encode_xor(sink, out, inputs):
    """out <-> XOR(inputs); folds n-ary XOR with auxiliary variables."""
    acc = inputs[0]
    for i, lit in enumerate(inputs[1:]):
        if i == len(inputs) - 2:
            nxt = out
        else:
            nxt = sink.new_var()
        encode_xor2(sink, nxt, acc, lit)
        acc = nxt
    if len(inputs) == 1:
        # Degenerate 1-input XOR is a buffer.
        sink.add_clauses(([-out, inputs[0]], [out, -inputs[0]]))


def encode_mux(sink, out, sel, d0, d1):
    """out <-> sel ? d1 : d0 (with the redundant propagation clauses)."""
    sink.add_clauses((
        [-sel, -d1, out],
        [-sel, d1, -out],
        [sel, -d0, out],
        [sel, d0, -out],
        [d0, d1, -out],
        [-d0, -d1, out],
    ))


def encode_cell(sink, kind, out_lit, in_lits):
    """Encode one combinational cell.

    ``NOT``/``BUF`` must be handled by literal aliasing in the caller and
    are rejected here. NAND/NOR/XNOR encode as the base gate with ``-out``.
    """
    if kind is Kind.AND:
        encode_and(sink, out_lit, in_lits)
    elif kind is Kind.OR:
        encode_or(sink, out_lit, in_lits)
    elif kind is Kind.XOR:
        encode_xor(sink, out_lit, in_lits)
    elif kind is Kind.NAND:
        encode_and(sink, -out_lit, in_lits)
    elif kind is Kind.NOR:
        encode_or(sink, -out_lit, in_lits)
    elif kind is Kind.XNOR:
        encode_xor(sink, -out_lit, in_lits)
    elif kind is Kind.MUX:
        encode_mux(sink, out_lit, in_lits[0], in_lits[1], in_lits[2])
    elif kind in (Kind.NOT, Kind.BUF):
        raise EncodingError(
            "{} cells are aliased, not encoded; caller bug".format(kind)
        )
    else:  # pragma: no cover - closed enum
        raise EncodingError("unknown cell kind {!r}".format(kind))


class CombEncoder:
    """Encodes the combinational logic of a netlist once (single frame).

    Used by the combinational checks in the test suite and the baselines.
    Sequential unrolling lives in :mod:`repro.bmc.unroll`.
    """

    def __init__(self, netlist, sink):
        from repro.netlist.traversal import topological_cells

        self.netlist = netlist
        self.sink = sink
        self.true_lit = sink.new_var()
        sink.add_clause([self.true_lit])
        self._lit = {0: -self.true_lit, 1: self.true_lit}
        for nets in netlist.inputs.values():
            for net in nets:
                self._lit[net] = sink.new_var()
        for flop in netlist.flops:
            self._lit[flop.q] = sink.new_var()
        for idx in topological_cells(netlist):
            cell = netlist.cells[idx]
            ins = [self._lit[n] for n in cell.inputs]
            if cell.kind is Kind.BUF:
                self._lit[cell.output] = ins[0]
            elif cell.kind is Kind.NOT:
                self._lit[cell.output] = -ins[0]
            else:
                out = sink.new_var()
                self._lit[cell.output] = out
                encode_cell(sink, cell.kind, out, ins)

    def lit(self, net):
        """SAT literal of a net (inputs, flop Qs and cell outputs)."""
        try:
            return self._lit[net]
        except KeyError:
            raise EncodingError(
                "net {} not in encoded cone".format(net)
            ) from None
