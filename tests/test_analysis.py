"""Sweep, hysteresis-measurement, transient and delay checks."""

import io
import random
import tracemalloc

import numpy as np
import pytest

from hystlab import analysis
from hystlab import solver as solver_module
from hystlab import (
    ComparatorConfig,
    ComparatorVariant,
    ConvergenceError,
    DcSpec,
    MeasurementError,
    MosGeometry,
    Trace,
    branch_solution_at,
    build_comparator,
    dc_solve,
    dc_sweep,
    hysteresis_walk,
    measure_delay,
    measure_hysteresis,
    parse_netlist,
    source_trace,
    table_sizing,
    trace_csv,
    transient,
)

PROBE = """current probe
IIN 0 a DC 0
R1 a 0 1meg
.end
"""

RC_STEP = """rc lowpass
V1 in 0 PULSE(0 1 0 1p 1p 5u 0)
R1 in out 1k
C1 out 0 1n
.end
"""


def test_sweep_linear_in_stimulus():
    net = parse_netlist(PROBE)
    curve = dc_sweep(net, "IIN", -2e-6, 2e-6, 0.5e-6)
    stim = curve.times()
    va = curve.node("a")
    assert curve.axis == "stimulus"
    assert curve.source_name == "IIN"
    assert np.all(np.diff(stim) > 0)
    # node a sees the 1 MOhm in parallel with the gmin floor
    assert np.max(np.abs(va - stim / (1e-6 + 1e-12))) < 1e-9


def test_sweep_grid_and_direction():
    net = parse_netlist(PROBE)
    down = dc_sweep(net, "IIN", 2e-6, -2e-6, 0.5e-6)
    assert down.times()[0] == 2e-6
    assert down.times()[-1] == -2e-6
    # stop off the step grid still gets an endpoint sample
    ragged = dc_sweep(net, "IIN", 0.0, 1.05e-6, 0.5e-6)
    assert ragged.times()[-1] == pytest.approx(1.05e-6)


def test_monostable_path_independence():
    net = parse_netlist(PROBE)
    up = dc_sweep(net, "IIN", -1e-6, 1e-6, 0.25e-6)
    dn = dc_sweep(net, "IIN", 1e-6, -1e-6, 0.25e-6)
    for su, sd, nu, nd in zip(up.times(), dn.times()[::-1], up.node("a"), dn.node("a")[::-1]):
        assert su == pytest.approx(sd, abs=1e-18)
        assert nu == pytest.approx(nd, abs=1e-9)


def test_sweep_tags_failures_with_stimulus():
    net = parse_netlist("""stuck
IIN 0 a DC 0
M1 a 0 0 0 nch W=1u L=1u
.model nch NMOS (KP=200u VTO=0.5)
.end
""")
    with pytest.raises(ConvergenceError) as exc:
        dc_sweep(net, "IIN", 0.0, 1e-3, 0.5e-3)
    assert "sweep failed at" in str(exc.value)
    assert exc.value.stage == "pseudo-transient"
    assert np.isfinite(exc.value.residual)


def test_hysteresis_on_monostable_is_zero():
    net = parse_netlist(PROBE)
    up = dc_sweep(net, "IIN", -2e-6, 2e-6, 10e-9)
    dn = dc_sweep(net, "IIN", 2e-6, -2e-6, 10e-9)
    rep = measure_hysteresis(up, dn, output_node="a", threshold=1.5,
                             refine_to=1e-9, netlist=net)
    # 1.5 V across 1 MOhm: both transitions at 1.5 uA
    assert rep.i_t1 == pytest.approx(1.5e-6, abs=2e-9)
    assert rep.i_t2 == pytest.approx(1.5e-6, abs=2e-9)
    assert rep.i_hy == abs(rep.i_t1 - rep.i_t2)
    assert rep.i_hy <= 2e-9
    assert rep.resolution <= 1e-9


def test_bisection_stops_at_float_spacing():
    # a target far below the spacing of floats near 1.5 uA (about 2e-22 A)
    # used to spin forever with the midpoint landing on an endpoint
    net = parse_netlist(PROBE)
    up = dc_sweep(net, "IIN", -2e-6, 2e-6, 0.5e-6)
    dn = dc_sweep(net, "IIN", 2e-6, -2e-6, 0.5e-6)
    rep = measure_hysteresis(up, dn, output_node="a", threshold=1.5,
                             refine_to=1e-30, netlist=net)
    # 1.5 V across 1 MOhm in parallel with the 1e-12 S gmin floor
    assert rep.i_t1 == pytest.approx(1.5e-6 * (1 + 1e-6), abs=1e-12)
    assert rep.i_t2 == pytest.approx(1.5e-6 * (1 + 1e-6), abs=1e-12)
    assert 0.0 < rep.resolution <= 4 * np.spacing(1.5e-6)


def test_hysteresis_band_located(hysteresis_net):
    up = dc_sweep(hysteresis_net, "IIN", -8e-6, 8e-6, 50e-9)
    dn = dc_sweep(hysteresis_net, "IIN", 8e-6, -8e-6, 50e-9)
    rep = measure_hysteresis(up, dn, output_node="OUT", threshold=1.5,
                             refine_to=1e-9, netlist=hysteresis_net)
    assert rep.i_t1 > rep.i_t2
    assert rep.i_t1 == pytest.approx(3.851e-6, abs=5e-9)
    assert rep.i_t2 == pytest.approx(-4.651e-6, abs=5e-9)
    assert rep.i_hy == abs(rep.i_t1 - rep.i_t2)
    assert rep.threshold == 1.5


def test_iref_variant_probes_take_no_pseudo_transient_step(monkeypatch):
    # IREF = 1.106 uA: a probe past the down fold stalls from the pre
    # side. It used to restart from zero and then run pseudo-transient
    # continuation (10 steps); it now converges from the post side's row
    net = build_comparator(ComparatorConfig()).replaced_source(
        "IREF", DcSpec(1.1057981355806849e-06))
    up = dc_sweep(net, "IIN", -8e-6, 8e-6, 50e-9)
    dn = dc_sweep(net, "IIN", 8e-6, -8e-6, 50e-9)
    steps = []
    real = solver_module._newton

    def spy(plan, x0, g=0.0, **kwargs):
        steps.append(g)
        return real(plan, x0, g, **kwargs)

    monkeypatch.setattr(solver_module, "_newton", spy)
    rep = measure_hysteresis(up, dn, "OUT", 1.5, 1e-9, net)
    assert steps and not any(steps)
    # the answer is the one the probes gave through the cold restart
    assert (repr(rep.i_t1), repr(rep.i_t2), repr(rep.resolution)) == (
        "4.161328125e-06", "-2.3933593749999987e-06", "7.81250000000019e-10")


def test_walk_finds_the_brackets_of_the_full_sweeps(hysteresis_net):
    full = measure_hysteresis(dc_sweep(hysteresis_net, "IIN", -8e-6, 8e-6, 50e-9),
                              dc_sweep(hysteresis_net, "IIN", 8e-6, -8e-6, 50e-9),
                              "OUT", 1.5, 1e-9, hysteresis_net)
    assert hysteresis_walk(hysteresis_net, "IIN", -8e-6, 8e-6, 50e-9,
                           "OUT", 1.5, 1e-9) == full
    # the walk visits a subset of the grid, in order, with the first and
    # last points
    grid = analysis._sweep_grid(-8e-6, 8e-6, 50e-9)
    up = analysis._walk(hysteresis_net, "IIN", -8e-6, 8e-6, 50e-9, "OUT", 1.5)
    visited = up.times().tolist()
    assert visited[0] == grid[0] and visited[-1] == grid[-1]
    assert len(visited) < len(grid) // 2
    assert set(visited) <= set(grid) and visited == sorted(visited)


def _outcome(measure) -> tuple[float, float, float] | str:
    try:
        rep = measure()
    except MeasurementError as e:
        return str(e)
    return rep.i_t1, rep.i_t2, rep.resolution


def test_walk_agrees_with_the_full_sweeps_on_mismatched_comparators():
    # the walk misses a double crossing inside one stride whose ends sit
    # out of reach of the threshold. On seeded mismatched builds of either
    # variant (W off by 5 % per device, one sigma, and IREF within
    # +/-2 uA) it gives the full sweeps' answer, or their error, bit for bit
    rng = random.Random(2012)
    for _ in range(24):
        variant = rng.choice(list(ComparatorVariant))
        sizing = {name: MosGeometry(g.w * (1.0 + rng.gauss(0.0, 0.05)), g.l)
                  for name, g in table_sizing(variant).items()}
        net = build_comparator(ComparatorConfig(variant=variant, sizing=sizing,
                                                i_ref=rng.uniform(-2e-6, 2e-6)))
        full = _outcome(lambda: measure_hysteresis(
            dc_sweep(net, "IIN", -8e-6, 8e-6, 50e-9), dc_sweep(net, "IIN", 8e-6, -8e-6, 50e-9),
            "OUT", 1.5, 1e-9, net))
        walk = _outcome(lambda: hysteresis_walk(net, "IIN", -8e-6, 8e-6, 50e-9,
                                                "OUT", 1.5, 1e-9))
        assert walk == full, (variant, sizing, net.find_source("IREF"))


@pytest.mark.parametrize("y, walked", [
    # a crossing, and the stride after it, whose ends sit within the move
    # before it
    ([0.0, 0.2, 2.8, 3.0, 3.0], [False, True, True, False]),
    # 1.4 -> 1.41 moves less than its 0.09 V gap, but the stride before moved 1.4 V
    ([0.0, 0.0, 1.4, 1.41, 1.41], [False, True, True, False]),
    # an end exactly at the threshold of a flat stretch: within a move of 0
    ([1.5, 1.5, 1.5], [True, True]),
    ([3.0, 3.0, 3.0], [False, False]),
])
def test_near_strides(y, walked):
    assert analysis._near_strides(np.array(y), 1.5).tolist() == walked


def test_walk_holds_its_branch_past_coarse_points_that_left_it(monkeypatch):
    # the coarse sweep is made to report 1.2-1.44 uA beyond the threshold,
    # as coarse points that landed on the other branch early would. The
    # point-by-point walk goes on past them to its own crossing, so the
    # bracket is the full sweep's pair of adjacent grid points
    net = parse_netlist(PROBE)
    real = solver_module.Plan.sweep

    def sweep(self, name, values, before=None):
        rows = real(self, name, values, before)
        if before is None:  # the coarse sweep
            rows = rows.copy()
            rows[[1.19e-6 < v < 1.45e-6 for v in values]] = 2.0
        return rows

    monkeypatch.setattr(solver_module.Plan, "sweep", sweep)
    walk = analysis._walk(net, "IIN", -2e-6, 2e-6, 10e-9, "a", 1.5)
    (i,) = analysis._crossings(walk.node("a"), 1.5)
    monkeypatch.undo()
    full = dc_sweep(net, "IIN", -2e-6, 2e-6, 10e-9)
    (j,) = analysis._crossings(full.node("a"), 1.5)
    assert walk.times()[i:i + 2].tolist() == full.times()[j:j + 2].tolist()


def test_no_crossing_is_an_error():
    net = parse_netlist(PROBE)
    up = dc_sweep(net, "IIN", -2e-6, 2e-6, 0.5e-6)
    dn = dc_sweep(net, "IIN", 2e-6, -2e-6, 0.5e-6)
    with pytest.raises(MeasurementError) as exc:
        measure_hysteresis(up, dn, output_node="a", threshold=5.0,
                           refine_to=1e-9, netlist=net)
    assert "on the up sweep, found 0" in str(exc.value)


def test_multiple_crossings_is_an_error():
    net = parse_netlist(PROBE)
    zigzag = [(i * 1e-7, v) for i, v in enumerate([0.0, 2.0, 1.0, 2.0, 2.2])]
    up = Trace("stimulus", ("a",), np.array(zigzag), "IIN")
    dn = dc_sweep(net, "IIN", 2e-6, -2e-6, 1e-6)
    with pytest.raises(MeasurementError) as exc:
        measure_hysteresis(up, dn, output_node="a", threshold=1.5,
                           refine_to=1e-9, netlist=net)
    assert "found 3" in str(exc.value)


def test_rc_step_matches_exponential():
    wave = transient(parse_netlist(RC_STEP), dt=1e-9, tstop=5e-6)
    t = wave.times()
    v = wave.node("out")
    tau = 1e-6
    exact = 1.0 - np.exp(-np.clip(t - 1e-12, 0.0, None) / tau)
    assert np.max(np.abs(v - exact)) < 0.01
    assert np.all(np.diff(t) > 0)
    assert np.allclose(np.diff(t), 1e-9, rtol=1e-9)


def test_rc_step_takes_steps_longer_than_dt(monkeypatch):
    # 5000 rows of dt; with no MOSFET the steps grow up to 16 dt once the
    # truncation error allows, so far fewer steps are solved (320 here)
    runs = []
    real = solver_module._newton

    def newton(plan, *args, **kwargs):
        runs.append(plan.dt)
        return real(plan, *args, **kwargs)

    monkeypatch.setattr(solver_module, "_newton", newton)
    wave = transient(parse_netlist(RC_STEP), dt=1e-9, tstop=5e-6)
    assert len(wave.samples) == 5001
    assert len(runs) < 1000


def test_transient_holds_dc_equilibrium():
    net = parse_netlist("""hold
V1 a 0 DC 2
R1 a b 1k
R2 b 0 1k
C1 b 0 1n
.end
""")
    wave = transient(net, dt=1e-8, tstop=1e-6)
    b = wave.node("b")
    assert np.max(np.abs(b - b[0])) < 1e-9
    assert b[0] == pytest.approx(1.0, rel=1e-6)


def test_transient_samples_are_one_read_only_array():
    net = parse_netlist(RC_STEP)
    wave = transient(net, dt=1e-7, tstop=1e-6)
    assert wave.nodes == ("in", "out")
    assert wave.samples.dtype == np.float64
    assert wave.samples.shape == (11, 3)  # n_steps + 1 rows: time, in, out
    assert not wave.samples.flags.writeable
    # the time column is k * dt bit for bit, and row 0 is the DC point
    assert wave.times().tolist() == [k * 1e-7 for k in range(11)]
    start = dc_solve(net)
    assert wave.samples[0, 1:].tolist() == [start.node_voltages[n] for n in wave.nodes]
    assert wave.node("0").tolist() == [0.0] * 11
    with pytest.raises(ValueError):
        wave.times()[0] = 1.0
    with pytest.raises(ValueError):
        wave.node("out")[0] = 1.0


def test_transient_trace_keeps_under_64_bytes_per_sample():
    net = parse_netlist(RC_STEP)
    transient(net, dt=1e-9, tstop=1e-7)  # one-off imports and caches first
    tracemalloc.start()
    try:
        wave = transient(net, dt=1e-9, tstop=1e-6)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(wave.samples) == 1001
    assert kept / len(wave.samples) <= 64


def _trapezoid(t, period, rise, lo, hi):
    ph = t % period
    half = period / 2
    if ph < rise:
        return lo + (hi - lo) * ph / rise
    if ph < half:
        return hi
    if ph < half + rise:
        return hi - (hi - lo) * (ph - half) / rise
    return lo


def test_delay_of_shifted_copy():
    times = np.arange(0.0, 400e-9, 1e-9)
    stim = np.array([_trapezoid(t, 200e-9, 10e-9, -1.0, 1.0) for t in times])
    out = np.array([_trapezoid(max(t - 1e-9, 0.0), 200e-9, 10e-9, 0.0, 3.0)
                    for t in times])
    rep = measure_delay(times, stim, out, vdd=3.0)
    assert rep.t_plh == pytest.approx(1e-9, abs=1e-15)
    assert rep.t_phl == pytest.approx(1e-9, abs=1e-15)
    assert rep.average == (rep.t_plh + rep.t_phl) / 2


def test_delay_hand_computed_ramps():
    # stimulus crosses 0 at 25 ns / 75 ns; output crosses 1.5 V at
    # 30 ns (rising, slope 0.3 V/ns from 0) and 80 ns (falling)
    times = np.arange(0.0, 100e-9, 1e-9)
    stim = np.interp(times, [0, 20e-9, 30e-9, 70e-9, 80e-9, 100e-9],
                     [-1, -1, 1, 1, -1, -1])
    out = np.interp(times, [0, 25e-9, 35e-9, 75e-9, 85e-9, 100e-9],
                    [0, 0, 3, 3, 0, 0])
    rep = measure_delay(times, stim, out, vdd=3.0)
    assert rep.t_plh == pytest.approx(5e-9, abs=1e-12)
    assert rep.t_phl == pytest.approx(5e-9, abs=1e-12)


def test_delay_missing_crossing_is_an_error():
    times = np.arange(0.0, 100e-9, 1e-9)
    stim = np.interp(times, [0, 40e-9, 60e-9, 100e-9], [-1, -1, 1, 1])
    out = np.full_like(times, 0.2)  # never crosses vdd/2
    with pytest.raises(MeasurementError):
        measure_delay(times, stim, out, vdd=3.0)


def test_delay_needs_stimulus_edges():
    times = np.arange(0.0, 100e-9, 1e-9)
    out = np.interp(times, [0, 40e-9, 60e-9, 100e-9], [0, 0, 3, 3])
    with pytest.raises(MeasurementError, match="stimulus has no 50% edges"):
        measure_delay(times, np.zeros_like(times), out, vdd=3.0)


def test_delay_needs_edges_in_both_directions():
    # one rising stimulus edge answered by one rising output edge
    times = np.arange(0.0, 100e-9, 1e-9)
    stim = np.interp(times, [0, 40e-9, 60e-9, 100e-9], [-1, -1, 1, 1])
    out = np.interp(times, [0, 45e-9, 65e-9, 100e-9], [0, 0, 3, 3])
    with pytest.raises(MeasurementError,
                       match="need both low-to-high and high-to-low output edges"):
        measure_delay(times, stim, out, vdd=3.0)


def test_crossing_search_matches_the_sample_loop():
    # the loop over every sample that the vectorized search replaced; the
    # interpolation is the same arithmetic, so the crossings match exactly
    def reference(times, values, level):
        out = []
        for i in range(len(values) - 1):
            if (values[i] >= level) != (values[i + 1] >= level):
                frac = (level - values[i]) / (values[i + 1] - values[i])
                out.append((times[i] + frac * (times[i + 1] - times[i]),
                            bool(values[i + 1] >= level)))
        return out

    rng = np.random.default_rng(7)
    times = np.arange(400) * 1e-9
    # a random walk on a 0.25 V grid; each level is a sample's value, so
    # some samples sit exactly on it (5 to 21 crossings per level)
    values = np.cumsum(rng.integers(-2, 3, size=400)) * 0.25
    trace = Trace("time", ("a",), np.column_stack((times, values)))
    for level in values[[50, 150, 250, 350]].tolist():
        crossings = analysis._interp_crossings(times, values, level)
        assert len(crossings) >= 5
        assert crossings == reference(times, values, level)
        assert analysis._crossings(trace.node("a"), level).tolist() == [
            i for i in range(399) if (values[i] >= level) != (values[i + 1] >= level)]


def test_source_trace_follows_pulse():
    net = parse_netlist("""pulse
IIN 0 a PULSE(-1u 1u 0 10n 10n 90n 200n)
R1 a 0 1k
.end
""")
    times = np.array([0.0, 5e-9, 50e-9, 105e-9, 150e-9, 205e-9])
    trace = source_trace(net, "IIN", times)
    spec = net.find_source("IIN").spec
    assert np.all(trace == [spec.value_at(t) for t in times])
    assert trace[0] == -1e-6
    assert trace[2] == 1e-6


def test_branch_solution_at_is_side_dependent(hysteresis_net):
    lo = branch_solution_at(hysteresis_net, "IIN", 0.0, approach_from=-8e-6)
    hi = branch_solution_at(hysteresis_net, "IIN", 0.0, approach_from=8e-6)
    # inside the hysteresis band the two approaches land on different branches
    assert lo.node_voltages["OUT"] < 1.0
    assert hi.node_voltages["OUT"] > 2.5


def _walk_solving_each_point(sweep_chain, net, value, approach_from):
    """branch_solution_at(net, "IIN", ...) by a chain of 33 dc_solve
    calls: the walk's 32, each guessed as Plan.sweep starts its points,
    then the end point warm from the last point's voltages."""
    path = [approach_from + (value - approach_from) * k / 32 for k in range(33)]
    *_, (_, last) = sweep_chain(net, "IIN", path[:-1])
    return dc_solve(net.replaced_source("IIN", DcSpec(path[-1])), last.node_voltages)


# inside the stock band (-3.54 to 3.20 uA); the walk to 1 uA ends a float
# away from 1 uA from either side, and to 3.1 uA from below
@pytest.mark.parametrize("value", [-3e-6, 0.0, 1e-6, 3.1e-6])
@pytest.mark.parametrize("approach_from", [-8e-6, 8e-6], ids=["from-below", "from-above"])
def test_branch_solution_at_matches_solving_each_point(sweep_chain, approach_from, value):
    net = build_comparator(ComparatorConfig())
    got = branch_solution_at(net, "IIN", value, approach_from)
    want = _walk_solving_each_point(sweep_chain, net, value, approach_from)
    assert (repr((got.node_voltages, got.branch_currents, got.iterations))
            == repr((want.node_voltages, want.branch_currents, want.iterations)))


@pytest.mark.parametrize("make,axis,node", [
    (lambda: dc_sweep(parse_netlist(PROBE), "IIN", 0.0, 1e-6, 0.5e-6), "stimulus", "a"),
    (lambda: transient(parse_netlist(RC_STEP), dt=1e-7, tstop=1e-6), "time", "out"),
], ids=["sweep", "transient"])
def test_trace_csv_round_trips(make, axis, node):
    trace = make()
    out = io.StringIO()
    trace_csv(trace, out)
    lines = out.getvalue().strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == axis
    col = header.index(node)
    assert len(lines) == len(trace.samples) + 1
    # %.12e formatting: 13 significant digits survive the trip
    for x, v, line in zip(trace.times(), trace.node(node), lines[1:]):
        parts = line.split(",")
        assert float(parts[0]) == pytest.approx(x, rel=1e-12, abs=0)
        assert float(parts[col]) == pytest.approx(v, rel=1e-12, abs=0)


def test_point_budget_caps_sweeps_and_transients():
    # counted before any point is solved or stored
    assert analysis._point_count(1e6, 1.0) == 1_000_000
    with pytest.raises(MeasurementError):
        analysis._point_count(1e6 + 1.0, 1.0)
    net = parse_netlist(PROBE)
    with pytest.raises(MeasurementError, match="2e\\+20 steps, over the budget"):
        dc_sweep(net, "IIN", -1.0, 1.0, 1e-20)
    with pytest.raises(MeasurementError, match="steps, over the budget"):
        transient(parse_netlist(RC_STEP), 1e-15, 1e-6)


def _probe_hysteresis(refine_to):
    net = parse_netlist(PROBE)
    up = dc_sweep(net, "IIN", -2e-6, 2e-6, 0.5e-6)
    dn = dc_sweep(net, "IIN", 2e-6, -2e-6, 0.5e-6)
    return measure_hysteresis(up, dn, "a", 1.5, refine_to, net)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")], ids=["zero", "negative", "nan"])
@pytest.mark.parametrize("analyse,message", [
    (_probe_hysteresis, "refine_to must be > 0"),
    (lambda x: transient(parse_netlist(RC_STEP), x, 1e-6), "dt must be > 0"),
    (lambda x: transient(parse_netlist(RC_STEP), 1e-7, x), "tstop must be >= dt"),
    (lambda x: dc_sweep(parse_netlist(PROBE), "IIN", 0.0, 1e-6, x), "sweep step must be > 0"),
], ids=["refine_to", "dt", "tstop", "step"])
def test_limits_reject_nonpositive_and_nan(analyse, message, bad):
    # a NaN used to pass a `<= 0` test: refine_to then returned the
    # unrefined bracket, and dt or step hit the point budget as "nan steps"
    with pytest.raises(MeasurementError, match=message):
        analyse(bad)


def test_capacitor_companion_overflow_is_rejected():
    # 2C/dt overflows to inf; the step used to fail with a NaN residual
    net = parse_netlist(RC_STEP.replace("C1 out 0 1n", "C1 out 0 1e300"))
    with pytest.raises(MeasurementError) as exc:
        transient(net, 1e-9, 5e-9)
    assert "1e+300 F" in str(exc.value)
    assert "dt=1e-09 s" in str(exc.value)
