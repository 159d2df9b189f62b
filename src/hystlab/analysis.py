"""Swept-DC and transient engines plus the derived measurements.

Both engines return a Trace, one float array with a row per sample: the
stimulus of a sweep or the time of a transient, then the node voltages;
trace_csv writes either to a text stream. The hysteresis measurement
mirrors the bench procedure: trace the transfer curve in both directions
with warm-started solves, then bisect each output transition down to the
requested current resolution. measure_hysteresis takes both full sweeps;
hysteresis_walk, which the CLI's hyst runs, visits every _STRIDE-th point
and walks point by point only where the output can cross. Each bisection
probe starts from the bracket's pre-transition side, then from its far
side. Delay measurement works on a transient's samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .errors import MeasurementError, NetlistError
from .netlist import DcSpec, Netlist
from .solver import OPTIONS, Plan, Solution, dc_solve


@dataclass(frozen=True)
class Trace:
    """Solved samples of a DC sweep or a transient, in solve order.

    ``axis`` names the independent variable, "stimulus" for a sweep and
    "time" for a transient; it heads the first CSV column. Each row of
    ``samples`` is one sample: the axis value, then the voltage of each
    node in ``nodes``, ground left out. It is made read-only, so the
    column views that times() and node() return cannot write into it.
    ``source_name`` is the swept source, empty for a transient.
    """

    axis: str
    nodes: tuple[str, ...]
    samples: np.ndarray
    source_name: str = ""

    def __post_init__(self):
        self.samples.flags.writeable = False

    def times(self) -> np.ndarray:
        """The axis values: stimulus of a sweep, time of a transient."""
        return self.samples[:, 0]

    def node(self, name: str) -> np.ndarray:
        if name == "0":
            return np.zeros(len(self.samples))
        if name not in self.nodes:
            nodes = ", ".join(("0", *self.nodes))
            raise MeasurementError(f"no node {name!r} in the trace; it has {nodes}")
        return self.samples[:, 1 + self.nodes.index(name)]


@dataclass(frozen=True)
class HysteresisReport:
    i_t1: float        # up-sweep transition [A]
    i_t2: float        # down-sweep transition [A]
    i_hy: float        # |i_t1 - i_t2| [A]
    resolution: float  # worst refined bracket width [A]
    threshold: float   # output decision level [V]


@dataclass(frozen=True)
class DelayReport:
    t_plh: float    # [s]
    t_phl: float    # [s]
    average: float  # [s]


# the most sweep points or transient steps one analysis takes: a trace
# keeps 8 B per value, 64 MB at this budget on the 7-node stock build
_MAX_POINTS = 1_000_000

# grid steps between the points of the coarse walk (see _walk)
_STRIDE = 8


def _point_count(span: float, step: float) -> int:
    """Whole steps of ``step`` in ``span``; MeasurementError past _MAX_POINTS."""
    n = span / step + 1e-9
    if not n < _MAX_POINTS + 1:  # int(n) <= _MAX_POINTS; also rejects inf and nan
        raise MeasurementError(f"{span:g} in steps of {step:g} is {n:.3g} steps, "
                               f"over the budget of {_MAX_POINTS:,}")
    return int(n)


def _sweep_grid(start: float, stop: float, step: float) -> list[float]:
    if not step > 0.0:  # NaN fails too
        raise MeasurementError(f"sweep step must be > 0, got {step}")
    span = stop - start
    if span == 0.0:
        return [start]
    sign = 1.0 if span > 0.0 else -1.0
    n = _point_count(abs(span), step)
    values = [start + sign * step * i for i in range(n + 1)]
    if abs(values[-1] - stop) > 1e-12 * max(1.0, abs(stop)):
        values.append(stop)
    return values


def _dc_source(netlist: Netlist, source_name: str):
    """Reject a ``source_name`` that names no DC source of the netlist."""
    if not isinstance(netlist.find_source(source_name).spec, DcSpec):
        raise NetlistError(f"source {source_name!r} is not a DC source")


def _sweep(plan: Plan, source_name: str, values: list[float],
           before: list[float] | None = None) -> Trace:
    """Plan.sweep's rows over ``values``, ``before`` its first start, as a Trace."""
    volts = plan.sweep(plan.netlist.find_source(source_name).name, values, before)
    return Trace("stimulus", plan.node_names, np.column_stack((values, volts)), source_name)


def dc_sweep(netlist: Netlist, source_name: str, start: float, stop: float,
             step: float) -> Trace:
    """Solve along a stimulus grid, each point started from the points before.

    The points are solved by Plan.sweep, whose start rule applies: the
    quadratic through the last three points while each converged within
    3 Newton iterations and the steps are even, else the last point's
    node voltages. Either start lies by the branch of the point before,
    so a bistable circuit holds that branch through the hysteresis band.
    At a fold, where the branch ends, the start fails and dc_solve's next
    stage, plain Newton from zero, lands on the surviving branch. A
    failed point raises "sweep failed at <source>=<value>".
    """
    _dc_source(netlist, source_name)
    values = _sweep_grid(start, stop, step)
    return _sweep(Plan(netlist), source_name, values)


def _near_strides(y: np.ndarray, threshold: float) -> np.ndarray:
    """For each stride between consecutive coarse outputs ``y``, whether
    either end sits no farther from ``threshold`` than the output moved
    across that stride or the stride before it. A stride the output
    crosses always does.
    """
    near = np.abs(y - threshold)
    moved = np.abs(np.diff(y))
    reach = np.maximum(moved, np.concatenate(([0.0], moved[:-1])))
    return np.minimum(near[:-1], near[1:]) <= reach


def _walk(netlist: Netlist, source_name: str, start: float, stop: float,
          step: float, node: str, threshold: float) -> Trace:
    """The points of dc_sweep's grid that the coarse walk visits, in order.

    One Plan.sweep solves every _STRIDE-th point and the last. A stride
    is walked point by point, from its earlier end's row, when it is near
    the threshold (_near_strides). So is every stride after a
    point-by-point walk that ends on the other side of the threshold than
    the coarse point at the same value, as when the coarse walk left a
    branch early: the fine walk holds the branch a full sweep holds, up to
    its own crossing.
    """
    _dc_source(netlist, source_name)
    grid = _sweep_grid(start, stop, step)
    plan = Plan(netlist)
    ends = [*range(0, len(grid) - 1, _STRIDE), len(grid) - 1]
    coarse = _sweep(plan, source_name, [grid[i] for i in ends])
    y = coarse.node(node)
    walk = _near_strides(y, threshold)
    blocks = [coarse.samples[:1]]
    above = y[0] >= threshold  # at the last visited point
    for s, (lo, hi) in enumerate(zip(ends, ends[1:])):
        if walk[s] or above != (y[s] >= threshold):
            block = _sweep(plan, source_name, grid[lo + 1:hi + 1], blocks[-1][-1, 1:].tolist())
            blocks.append(block.samples)
            above = block.node(node)[-1] >= threshold
        else:
            blocks.append(coarse.samples[s + 1:s + 2])
            above = y[s + 1] >= threshold
    return Trace("stimulus", plan.node_names, np.vstack(blocks), source_name)


def _crossings(values: np.ndarray, level: float) -> np.ndarray:
    """Each i where values[i] and values[i + 1] fall on opposite sides of
    ``level``, a value equal to it counting as above."""
    above = values >= level
    return np.flatnonzero(above[:-1] != above[1:])


def _refine_transition(netlist: Netlist, curve: Trace, node: str,
                       threshold: float, refine_to: float):
    direction = "up" if curve.times()[-1] >= curve.times()[0] else "down"
    y = curve.node(node)
    span = float(y.max() - y.min())
    # an output that moves no more than the solver's voltage tolerance
    # has no crossing: which side of the threshold each point falls on is noise
    if span <= OPTIONS.vntol + OPTIONS.reltol * float(np.abs(y).max()):
        raise MeasurementError(f"{node} does not move on the {direction} sweep: it spans "
                               f"{span:.3g} V, within the solver's voltage tolerance")
    brackets = _crossings(y, threshold)
    if len(brackets) != 1:
        raise MeasurementError(
            f"expected exactly one {node} crossing of {threshold:g} V on the "
            f"{direction} sweep, found {len(brackets)}")
    i = brackets[0]
    # Python floats: the bisection and its warm guesses stay off numpy scalars
    (a, *row_a), (b, *row_b) = curve.samples[i:i + 2].tolist()
    volts_a, volts_b = dict(zip(curve.nodes, row_a)), dict(zip(curve.nodes, row_b))
    pre_side = volts_a[node] >= threshold
    name = netlist.find_source(curve.source_name).name

    # start every probe from the pre-transition side, so the bisection
    # follows that branch right up to the jump. Past a fold that branch
    # has ended, and the probe starts again from the post side's last row,
    # which already sits on the branch that survives
    while abs(b - a) > refine_to:
        mid = 0.5 * (a + b)
        if mid in (a, b):
            break  # a and b are adjacent floats: no finer bracket exists
        sol = dc_solve(netlist.replaced_source(name, DcSpec(mid)), volts_a, volts_b)
        if (sol.node_voltages[node] >= threshold) == pre_side:
            a, volts_a = mid, sol.node_voltages
        else:
            b, volts_b = mid, sol.node_voltages
    return 0.5 * (a + b), abs(b - a)


def measure_hysteresis(up: Trace, down: Trace, output_node: str,
                       threshold: float, refine_to: float,
                       netlist: Netlist) -> HysteresisReport:
    """Locate both transition currents and report the hysteresis width.

    Each transition is where ``output_node`` crosses ``threshold``. On
    the comparator builds with output node OUT the two edges measure
    different things. The down edge i_t2 is the latch fold, where node C
    jumps and OUT with it. The up edge i_t1 is the output inverter's trip
    point: OUT rises smoothly through the threshold while the latch
    holds, and C jumps only later, about 0.1 uA higher on the stock
    build (3.20 against 3.29-3.30 uA) and 0.22 uA higher at lam=0 (3.84-3.86
    against 4.06-4.08 uA). Node C with a 1 V threshold measures the fold
    on both edges. A ``refine_to`` below the float spacing at an edge
    stops at adjacent floats, and ``resolution`` reports that width.
    ``resolution`` is the width of the final bracket, not the accuracy of
    the edge: each probe's side is decided by a Newton solve converged to
    vntol + reltol*|v|. On a 1 MOhm probe with no hysteresis, refine_to=1e-30
    puts the two edges 2.5e-13 A apart at a resolution of 2.1e-22 A.
    """
    if not refine_to > 0.0:  # NaN fails too
        raise MeasurementError(f"refine_to must be > 0, got {refine_to}")
    i_t1, w1 = _refine_transition(netlist, up, output_node, threshold, refine_to)
    i_t2, w2 = _refine_transition(netlist, down, output_node, threshold, refine_to)
    return HysteresisReport(i_t1=i_t1, i_t2=i_t2, i_hy=abs(i_t1 - i_t2),
                            resolution=max(w1, w2), threshold=threshold)


def hysteresis_walk(netlist: Netlist, source_name: str, start: float, stop: float,
                    step: float, output_node: str, threshold: float,
                    refine_to: float) -> HysteresisReport:
    """measure_hysteresis over dc_sweep's grid from start to stop and back,
    each way found by a coarse walk instead of a full sweep.

    The walk (_walk) solves every _STRIDE-th point and walks point by
    point only near the threshold, so the bracket and its end rows come
    from a point-by-point walk as in a full sweep. Every visited point
    counts toward "exactly one crossing". A double crossing inside one
    stride whose ends both sit out of reach of the threshold is not seen.
    """
    up = _walk(netlist, source_name, start, stop, step, output_node, threshold)
    down = _walk(netlist, source_name, stop, start, step, output_node, threshold)
    return measure_hysteresis(up, down, output_node, threshold, refine_to, netlist)


def transient(netlist: Netlist, dt: float, tstop: float) -> Trace:
    """Trapezoidal integration from the t=0 operating point, one row per
    k*dt, the time column k*dt bit for bit.

    Every node carries the solver's CMIN to ground during the steps. One
    loop with one length rule runs every circuit: steps of 2**j * dt, up
    to 16*dt, as the local truncation error allows, never longer than dt
    across a source corner, with rows inside a longer step interpolated.
    A longer step whose Newton run fails is redone at half its length; a
    step of dt that fails raises ConvergenceError. So dt is the row
    spacing and the shortest step. With MOSFETs a moving step starts from
    a prediction. Every step runs its own Newton solve (see Plan.steps).
    """
    if not dt > 0.0:  # NaN fails too
        raise MeasurementError(f"dt must be > 0, got {dt}")
    if not tstop >= dt:
        raise MeasurementError(f"tstop must be >= dt, got {tstop}")
    n_steps = _point_count(tstop, dt)
    plan = Plan(netlist, dt=dt)
    volts = plan.steps(dc_solve(netlist), n_steps)
    time = np.arange(n_steps + 1) * dt  # k * dt bit for bit, as Plan.steps times step k
    return Trace("time", plan.node_names, np.column_stack((time, volts)))


def source_trace(netlist: Netlist, source_name: str, times: np.ndarray) -> np.ndarray:
    """Sample a source's stimulus spec on a time grid."""
    spec = netlist.find_source(source_name).spec
    return np.array([spec.value_at(float(t)) for t in times])


def _interp_crossings(times: np.ndarray, values: np.ndarray, level: float):
    # (time, rising?) for every linear-interpolated crossing of level
    out = []
    for i in _crossings(values, level):
        frac = (level - values[i]) / (values[i + 1] - values[i])
        out.append((times[i] + frac * (times[i + 1] - times[i]), bool(values[i + 1] >= level)))
    return out


def measure_delay(times: np.ndarray, stimulus: np.ndarray,
                  output: np.ndarray, vdd: float) -> DelayReport:
    """Propagation delay from stimulus 50% edges to output vdd/2 crossings."""
    s_level = 0.5 * (float(np.max(stimulus)) + float(np.min(stimulus)))
    edges = _interp_crossings(times, stimulus, s_level)
    if not edges:
        raise MeasurementError("stimulus has no 50% edges")
    out_crossings = _interp_crossings(times, output, 0.5 * vdd)

    rising: list[float] = []
    falling: list[float] = []
    for k, (t_edge, _edge_up) in enumerate(edges):
        t_next = edges[k + 1][0] if k + 1 < len(edges) else float(times[-1]) + 1.0
        hit = next((c for c in out_crossings if t_edge <= c[0] < t_next), None)
        if hit is None:
            raise MeasurementError(
                f"no output crossing after the stimulus edge at {t_edge:.6g} s")
        (rising if hit[1] else falling).append(hit[0] - t_edge)
    if not rising or not falling:
        raise MeasurementError("need both low-to-high and high-to-low output edges")
    t_plh = float(np.mean(rising))
    t_phl = float(np.mean(falling))
    return DelayReport(t_plh=t_plh, t_phl=t_phl, average=0.5 * (t_plh + t_phl))


def branch_solution_at(netlist: Netlist, source_name: str, value: float,
                       approach_from: float) -> Solution:
    """Solve at one stimulus value, approached by continuation.

    Walks the solver from approach_from in 32 equal moves, one
    Plan.sweep with its start rule (see dc_sweep), so the returned
    Solution sits on the branch reachable from that side, which matters
    inside a hysteresis band. The end point, solved by dc_solve from the
    walk's last row of node voltages, is the path's own last value,
    which in floating point need not equal ``value``.
    """
    name = netlist.find_source(source_name).name
    path = [approach_from + (value - approach_from) * k / 32 for k in range(33)]
    plan = Plan(netlist)
    walk = plan.sweep(name, path[:-1])
    end = netlist.replaced_source(name, DcSpec(path[-1]))
    return dc_solve(end, dict(zip(plan.node_names, walk[-1].tolist())))


def trace_csv(trace: Trace, out: TextIO):
    """Write CSV to a text stream: header <axis>,<nodes>, then one line per sample."""
    np.savetxt(out, trace.samples, fmt="%.12e", delimiter=",",
               header=",".join((trace.axis, *trace.nodes)), comments="")
