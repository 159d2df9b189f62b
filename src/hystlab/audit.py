"""Independent KCL audit of a converged DC solution.

Re-sums element currents straight from the node voltages and the
netlist, through mos_eval, without touching any solver workspace; each
voltage source must hold its value. Cross-checks every Solution the
solver emits. device_evals is the one routine that evaluates a
solution's MOSFETs: the audit reads every one, `op` prints every one,
and the comparator extractor reads M1 and M2 alone.
"""

from __future__ import annotations

from .devices import DeviceEval, mos_eval
from .errors import HystlabError
from .netlist import ISource, Mosfet, Netlist, Resistor, VSource
from .solver import OPTIONS, Solution


def device_evals(netlist: Netlist, solution: Solution, names=None) -> dict[str, DeviceEval]:
    """Each MOSFET of the netlist by name, in element order, at the
    solution; with ``names``, only the MOSFETs so named, in that order."""
    v = solution.node_voltages
    els = netlist.elements if names is None else map(netlist.find_element, names)
    return {el.name: mos_eval(el.model, el.geom, v[el.g] - v[el.s], v[el.d] - v[el.s])
            for el in els if type(el) is Mosfet}


def kcl_residuals(netlist: Netlist, solution: Solution) -> dict[str, tuple[float, float]]:
    """Per non-ground node: (sum of currents leaving, local current scale)."""
    v = solution.node_voltages
    evals = device_evals(netlist, solution)
    residual = dict.fromkeys(netlist.nodes, 0.0)  # ground "0" too, dropped below
    scale = residual.copy()
    for el in netlist.elements:  # i leaves its first terminal, enters its second
        kind = type(el)
        if kind is Mosfet:
            p, q, i = el.d, el.s, evals[el.name].id
        elif kind is Resistor:
            p, q, i = el.pos, el.neg, (v[el.pos] - v[el.neg]) / el.ohms
        elif kind is VSource:
            p, q, i = el.pos, el.neg, solution.branch_currents[el.name]
        elif kind is ISource:
            p, q, i = el.pos, el.neg, el.spec.value_at(0.0)
        else:
            continue  # a capacitor is open at DC
        residual[p] += i
        residual[q] -= i
        i = abs(i)
        scale[p] += i
        scale[q] += i
    gmin = OPTIONS.gmin_floor  # then each node's shunt; ground "0" leads nodes
    return {n: (residual[n] + gmin * v[n], scale[n] + abs(gmin * v[n]))
            for n in netlist.nodes[1:]}


def verify_kcl(netlist: Netlist, solution: Solution) -> float:
    """Check every node against the solver's abstol + reltol*scale, then
    each voltage source's row: v(pos) - v(neg) within vntol +
    reltol*(|v(pos)| + |v(neg)| + |value|) of its value.

    Returns the worst node residual [A]; raises HystlabError on violation.
    """
    abstol, reltol, vntol = OPTIONS.abstol, OPTIONS.reltol, OPTIONS.vntol
    worst = 0.0
    for node, (res, sc) in kcl_residuals(netlist, solution).items():
        worst = max(worst, abs(res))
        if abs(res) > abstol + reltol * sc:
            raise HystlabError(
                f"KCL violated at node {node}: residual {res:.3e} A "
                f"against scale {sc:.3e} A")
    v = solution.node_voltages
    for el in netlist.elements:
        if type(el) is VSource:
            hi, lo, value = v[el.pos], v[el.neg], el.spec.value_at(0.0)
            if abs(hi - lo - value) > vntol + reltol * (abs(hi) + abs(lo) + abs(value)):
                raise HystlabError(
                    f"voltage source {el.name} holds {hi - lo:g} V, not {value:g} V")
    return worst
