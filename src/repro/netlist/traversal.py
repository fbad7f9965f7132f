"""Netlist traversal: levelization, cones, and cone-of-influence.

The formal engines never unroll the whole design; they unroll the
*cone of influence* (COI) of the property nets. This module provides the
structural queries everything else is built on:

* :func:`topological_cells` — combinational cells in evaluation order
  (raises on combinational loops),
* :func:`levelize` — per-net logic depth,
* :func:`fanin_cone` / :func:`fanout_cone` — combinational cones,
* :func:`cone_of_influence` — sequential COI (follows flops backwards),
* :func:`transitive_fanout_outputs` — output ports reachable from nets.
"""

from __future__ import annotations

from array import array
from collections import deque

from repro.errors import CombinationalLoopError


def topological_cells(netlist):
    """Indexes of combinational cells in a valid evaluation order.

    Kahn's algorithm over the cell dependency graph. Inputs, constants and
    flop Q pins are sources. Raises :class:`CombinationalLoopError` if the
    combinational logic is cyclic.

    The order is memoised on the netlist together with a copy of
    ``netlist.cells``; a cell list that no longer equals the copy (an
    ``add_cell``, or a cell replaced in place) recomputes it. Only cells
    decide the order: whether a cell's input is driven by a cell is fixed
    by the cell list. Every call returns a fresh list.
    """
    cells = netlist.cells
    memo = netlist._topo
    if memo is not None and memo[0] == cells:
        return memo[1].tolist()
    # net -> list of cell indexes that consume it
    consumers = {}
    indegree = [0] * len(cells)
    for idx, cell in enumerate(cells):
        for net in set(cell.inputs):
            kind, _ = netlist.driver_of(net)
            if kind == "cell":
                indegree[idx] += 1
                consumers.setdefault(net, []).append(idx)
    ready = deque(idx for idx, deg in enumerate(indegree) if deg == 0)
    order = []
    while ready:
        idx = ready.popleft()
        order.append(idx)
        for consumer in consumers.get(cells[idx].output, ()):
            indegree[consumer] -= 1
            if indegree[consumer] == 0:
                ready.append(consumer)
    if len(order) != len(cells):
        looped = [cells[i].output for i, d in enumerate(indegree) if d > 0]
        raise CombinationalLoopError(looped)
    netlist._topo = (list(cells), array("i", order))
    return order


def levelize(netlist, order=None):
    """Map net id -> combinational depth (sources are level 0)."""
    if order is None:
        order = topological_cells(netlist)
    level = {0: 0, 1: 0}
    for nets in netlist.inputs.values():
        for net in nets:
            level[net] = 0
    for flop in netlist.flops:
        level[flop.q] = 0
    for idx in order:
        cell = netlist.cells[idx]
        level[cell.output] = 1 + max(level[net] for net in cell.inputs)
    return level


def fanin_cone(netlist, nets, through_flops=False):
    """Set of nets in the transitive fan-in of ``nets``.

    With ``through_flops`` the traversal continues from a flop's Q to its D
    (i.e. crosses register boundaries); otherwise flop Q pins are frontier
    sources, which gives the purely combinational cone.
    """
    seen = set()
    stack = list(nets)
    while stack:
        net = stack.pop()
        if net in seen:
            continue
        seen.add(net)
        kind, payload = netlist.driver_of(net)
        if kind == "cell":
            stack.extend(netlist.cells[payload].inputs)
        elif kind == "flop" and through_flops:
            stack.append(netlist.flops[payload].d)
    return seen


def cone_of_influence(netlist, nets):
    """Sequential cone of influence of ``nets``.

    Returns ``(net_set, cell_indexes, flop_indexes)`` where ``cell_indexes``
    is in topological order restricted to the cone. This is the slice of the
    design the BMC/ATPG engines unroll for a property over ``nets``.
    """
    net_set = fanin_cone(netlist, nets, through_flops=True)
    flop_indexes = [
        idx for idx, flop in enumerate(netlist.flops) if flop.q in net_set
    ]
    order = topological_cells(netlist)
    cell_indexes = [
        idx for idx in order if netlist.cells[idx].output in net_set
    ]
    return net_set, cell_indexes, flop_indexes


def fanout_map(netlist):
    """Map net id -> list of (consumer kind, index) records.

    Consumer kinds are ``"cell"`` (cell index), ``"flop"`` (flop index) and
    ``"output"`` (port name).
    """
    fanout = {}
    for idx, cell in enumerate(netlist.cells):
        for net in cell.inputs:
            fanout.setdefault(net, []).append(("cell", idx))
    for idx, flop in enumerate(netlist.flops):
        fanout.setdefault(flop.d, []).append(("flop", idx))
    for name, nets in netlist.outputs.items():
        for net in nets:
            fanout.setdefault(net, []).append(("output", name))
    return fanout


def fanout_cone(netlist, nets, through_flops=True, fanout=None):
    """Set of nets in the transitive fan-out of ``nets``."""
    if fanout is None:
        fanout = fanout_map(netlist)
    seen = set()
    stack = list(nets)
    while stack:
        net = stack.pop()
        if net in seen:
            continue
        seen.add(net)
        for kind, payload in fanout.get(net, ()):
            if kind == "cell":
                stack.append(netlist.cells[payload].output)
            elif kind == "flop" and through_flops:
                stack.append(netlist.flops[payload].q)
    return seen


def transitive_fanout_outputs(netlist, nets, through_flops=True):
    """Names of output ports reachable from ``nets``."""
    cone = fanout_cone(netlist, nets, through_flops=through_flops)
    reached = []
    for name, port_nets in netlist.outputs.items():
        if any(net in cone for net in port_nets):
            reached.append(name)
    return reached


def registers_reading(netlist, register_name):
    """Register names whose D logic reads the Q of ``register_name``.

    Used by the detector to rank pseudo-critical candidates: a register fed
    combinationally by the critical register is the natural suspect.
    """
    q_nets = set(netlist.register_q_nets(register_name))
    readers = []
    for name, idxs in netlist.registers.items():
        if name == register_name:
            continue
        d_nets = [netlist.flops[i].d for i in idxs]
        cone = fanin_cone(netlist, d_nets, through_flops=False)
        if cone & q_nets:
            readers.append(name)
    return readers
