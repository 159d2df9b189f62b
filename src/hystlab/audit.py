"""Independent KCL audit of a converged DC solution.

Re-sums element currents straight from the node voltages and the
netlist, through mos_eval (device_evals, which `op` and the comparator
extractor read too), without touching any solver workspace; each voltage
source must hold its value. Cross-checks every Solution the solver emits.
"""

from __future__ import annotations

from .devices import DeviceEval, mos_eval
from .errors import HystlabError
from .netlist import Capacitor, ISource, Mosfet, Netlist, Resistor, VSource
from .solver import OPTIONS, Solution


def device_evals(netlist: Netlist, solution: Solution) -> dict[str, DeviceEval]:
    """Each MOSFET of the netlist by name, in element order, at the solution."""
    v = solution.node_voltages
    return {el.name: mos_eval(el.model, el.geom, v[el.g] - v[el.s], v[el.d] - v[el.s])
            for el in netlist.elements if isinstance(el, Mosfet)}


def kcl_residuals(netlist: Netlist, solution: Solution) -> dict[str, tuple[float, float]]:
    """Per non-ground node: (sum of currents leaving, local current scale)."""
    v = solution.node_voltages
    evals = device_evals(netlist, solution)
    residual = {n: 0.0 for n in netlist.nodes if n != "0"}
    scale = {n: 0.0 for n in residual}

    def add(node: str, current: float):
        if node != "0":
            residual[node] += current
            scale[node] += abs(current)

    for el in netlist.elements:
        if isinstance(el, Resistor):
            i = (v[el.pos] - v[el.neg]) / el.ohms
            add(el.pos, i)
            add(el.neg, -i)
        elif isinstance(el, Capacitor):
            continue  # open at DC
        elif isinstance(el, ISource):
            val = el.spec.value_at(0.0)
            add(el.pos, val)
            add(el.neg, -val)
        elif isinstance(el, VSource):
            j = solution.branch_currents[el.name]
            add(el.pos, j)
            add(el.neg, -j)
        elif isinstance(el, Mosfet):
            i = evals[el.name].id
            add(el.d, i)
            add(el.s, -i)

    for n in residual:
        shunt = OPTIONS.gmin_floor * v[n]
        residual[n] += shunt
        scale[n] += abs(shunt)

    return {n: (residual[n], scale[n]) for n in residual}


def verify_kcl(netlist: Netlist, solution: Solution) -> float:
    """Check every node against the solver's abstol + reltol*scale, then
    each voltage source's row: v(pos) - v(neg) within vntol +
    reltol*(|v(pos)| + |v(neg)| + |value|) of its value.

    Returns the worst node residual [A]; raises HystlabError on violation.
    """
    worst = 0.0
    for node, (res, sc) in kcl_residuals(netlist, solution).items():
        worst = max(worst, abs(res))
        if abs(res) > OPTIONS.abstol + OPTIONS.reltol * sc:
            raise HystlabError(
                f"KCL violated at node {node}: residual {res:.3e} A "
                f"against scale {sc:.3e} A")
    v = solution.node_voltages
    for el in netlist.elements:
        if isinstance(el, VSource):
            hi, lo, value = v[el.pos], v[el.neg], el.spec.value_at(0.0)
            if abs(hi - lo - value) > OPTIONS.vntol + OPTIONS.reltol * (
                    abs(hi) + abs(lo) + abs(value)):
                raise HystlabError(
                    f"voltage source {el.name} holds {hi - lo:g} V, not {value:g} V")
    return worst
