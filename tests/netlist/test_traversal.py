"""Traversal tests: topological order, cones, COI, loop detection."""

import pytest

from repro.errors import CombinationalLoopError
from repro.netlist import (
    Cell,
    Circuit,
    Kind,
    Netlist,
    cone_of_influence,
    fanin_cone,
    fanout_cone,
    levelize,
    registers_reading,
    topological_cells,
    transitive_fanout_outputs,
)

from tests.conftest import build_counter, build_secret_design


class TestTopologicalOrder:
    def test_order_respects_dependencies(self):
        c = Circuit("t")
        a = c.input("a", 1)
        b = c.input("b", 1)
        x = a & b
        y = x ^ a
        c.output("y", y)
        nl = c.finalize()
        order = topological_cells(nl)
        position = {nl.cells[i].output: p for p, i in enumerate(order)}
        for cell in nl.cells:
            for net in cell.inputs:
                if net in position:
                    assert position[net] < position[cell.output]

    def test_loop_detected(self):
        nl = Netlist("loop")
        a = nl.new_net()
        b = nl.new_net()
        nl.add_cell(Kind.NOT, (a,), output=b)
        nl.add_cell(Kind.NOT, (b,), output=a)
        with pytest.raises(CombinationalLoopError):
            topological_cells(nl)

    def test_flops_break_loops(self):
        nl = build_counter()  # counter feeds back through flops
        topological_cells(nl)  # must not raise


def _two_gates():
    """c0: x = a AND b; c1: y = a OR b — independent, order [0, 1]."""
    nl = Netlist("memo")
    a, b = nl.add_input("a"), nl.add_input("b")
    x = nl.add_cell(Kind.AND, (a[0], b[0]))
    y = nl.add_cell(Kind.OR, (a[0], b[0]))
    return nl, a[0], x, y


class TestTopologicalMemo:
    def test_repeat_call_reuses_the_order(self, monkeypatch):
        nl, _, _, _ = _two_gates()
        first = topological_cells(nl)

        def no_driver(net):
            raise AssertionError("order recomputed")

        monkeypatch.setattr(nl, "driver_of", no_driver)
        assert topological_cells(nl) == first

    def test_add_cell_misses(self):
        nl, a, x, y = _two_gates()
        assert topological_cells(nl) == [0, 1]
        nl.add_cell(Kind.XOR, (x, y))
        assert topological_cells(nl) == [0, 1, 2]

    def test_in_place_replacement_misses(self):
        nl, a, x, y = _two_gates()
        assert topological_cells(nl) == [0, 1]
        # x now reads y, so c1 must come first
        nl.cells[0] = Cell(Kind.AND, (y, a), x)
        assert topological_cells(nl) == [1, 0]
        nl.cells[1] = Cell(Kind.OR, (x, a), y)
        with pytest.raises(CombinationalLoopError):
            topological_cells(nl)

    def test_clone_that_gains_cells_gets_its_own_order(self):
        nl, a, x, y = _two_gates()
        assert topological_cells(nl) == [0, 1]
        twin = nl.clone()
        assert topological_cells(twin) == [0, 1]
        twin.add_cell(Kind.AND, (x, y))
        assert topological_cells(twin) == [0, 1, 2]
        assert topological_cells(nl) == [0, 1]
        nl.cells[0] = Cell(Kind.AND, (y, a), x)
        assert topological_cells(nl) == [1, 0]
        assert topological_cells(twin) == [0, 1, 2]

    def test_changing_a_returned_list_leaves_the_memo(self):
        nl, _, _, _ = _two_gates()
        order = topological_cells(nl)
        order.reverse()
        order.append(7)
        assert topological_cells(nl) == [0, 1]
        assert topological_cells(nl) is not topological_cells(nl)


class TestLevelize:
    def test_levels_monotone(self):
        nl = build_secret_design()
        level = levelize(nl)
        for cell in nl.cells:
            assert level[cell.output] == 1 + max(
                level[n] for n in cell.inputs
            )

    def test_sources_are_level_zero(self):
        nl = build_counter()
        level = levelize(nl)
        for flop in nl.flops:
            assert level[flop.q] == 0
        for nets in nl.inputs.values():
            for net in nets:
                assert level[net] == 0


class TestCones:
    def test_fanin_cone_stops_at_flops(self):
        nl = build_counter()
        q0 = nl.flops[0].q
        cone = fanin_cone(nl, [nl.flops[0].d], through_flops=False)
        assert q0 in cone  # flop Q is a frontier source
        assert nl.flops[0].d in cone

    def test_fanin_cone_through_flops(self):
        nl = build_counter()
        cone = fanin_cone(nl, [nl.flops[-1].d], through_flops=True)
        # through flops, the whole counter feedback is in the cone
        for flop in nl.flops:
            assert flop.q in cone

    def test_coi_restricts_cells(self):
        nl = build_secret_design(trojan=True)
        secret_q = nl.register_q_nets("secret")
        _nets, cells, flops = cone_of_influence(nl, secret_q)
        assert 0 < len(cells) <= len(nl.cells)
        assert 0 < len(flops) <= len(nl.flops)

    def test_fanout_reaches_outputs(self):
        nl = build_secret_design()
        secret_q = nl.register_q_nets("secret")
        names = transitive_fanout_outputs(nl, secret_q)
        assert "out" in names

    def test_fanout_cone_contains_start(self):
        nl = build_counter()
        cone = fanout_cone(nl, [nl.flops[0].q])
        assert nl.flops[0].q in cone


class TestRegistersReading:
    def test_pseudo_register_reads_secret(self):
        nl = build_secret_design(pseudo=True)
        readers = registers_reading(nl, "secret")
        assert "pseudo_secret" in readers

    def test_counter_does_not_read_secret(self):
        nl = build_secret_design(trojan=True)
        readers = registers_reading(nl, "troj_counter")
        assert "secret" in readers  # trojan feeds the secret's next value
