"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single pass/fail line, so `pytest -s` on this module
doubles as a release checklist. Criteria are numbered for stable
reference from the docs; the bodies restate what is being promised.
"""

import dataclasses

import numpy as np
import pytest

from hystlab import (
    ComparatorConfig,
    ComparatorVariant,
    DcSpec,
    MeasurementError,
    MosGeometry,
    MosPolarity,
    NMOS_DEFAULT,
    PMOS_DEFAULT,
    PulseSpec,
    RatioDirection,
    Region,
    branch_solution_at,
    build_comparator,
    build_latch_testbench,
    current_ratio,
    dc_solve,
    dc_sweep,
    device_evals,
    extract_operating_point,
    kcl_residuals,
    kfactor,
    latch_current_ratio_from_devices,
    latch_voltages_large_signal,
    measure_delay,
    measure_hysteresis,
    mos_eval,
    parse_netlist,
    source_trace,
    table_sizing,
    transient,
    transition_currents,
)
from hystlab.cli import run

DIVIDER = """divider
V1 in 0 DC 3
R1 in mid 1k
R2 mid 0 2k
.end
"""

DIODE_LOAD = """diode load
V1 top 0 DC 3
R1 top d 10k
M1 d d 0 0 nch W=1u L=1u
.model nch NMOS (KP=200u VTO=0.5)
.end
"""

RC_STEP = """rc lowpass
V1 in 0 PULSE(0 1 0 1p 1p 5u 0)
R1 in out 1k
C1 out 0 1n
.end
"""

GMIN = 1e-12
SPAN = 8e-6
STEP = 50e-9


def _check(num, label, ok, detail=""):
    line = f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _band(net, span, step):
    up = dc_sweep(net, "IIN", -span, span, step)
    down = dc_sweep(net, "IIN", span, -span, step)
    return measure_hysteresis(up, down, output_node="OUT", threshold=1.5,
                              refine_to=1e-9, netlist=net)


@pytest.fixture(scope="module")
def band_1x(hysteresis_net):
    return _band(hysteresis_net, SPAN, STEP)


def _pre_transition_ratio(net, span, i_t, side):
    # sample just before the latch lets go, on the branch being left
    sol = branch_solution_at(net, "IIN", i_t - side * 2e-9,
                             approach_from=-side * span)
    op = extract_operating_point(net, sol)
    if device_evals(net, sol)["M9"].region is Region.TRIODE:
        direction = RatioDirection.HIGH_TO_LOW
    else:
        direction = RatioDirection.LOW_TO_HIGH
    p = current_ratio(op.v_c, op.v_d, op.v_th, op.k_n9 / op.k_n7, direction)
    return p, op


def _predicted_band(net, span, rep):
    p_up, op = _pre_transition_ratio(net, span, rep.i_t1, +1)
    p_dn, _ = _pre_transition_ratio(net, span, rep.i_t2, -1)
    return transition_currents(op.i_ref, op.i_d1, op.i_d2,
                               p=p_up, p_prime=p_dn)


def _machine_lines(text):
    vals = {}
    for line in text.splitlines():
        key, sep, raw = line.partition("=")
        if sep and " " not in key:
            try:
                vals[key] = float(raw)
            except ValueError:
                pass
    return vals


def test_criterion_01_device_model_consistency():
    rng = np.random.default_rng(0)
    geom = MosGeometry(1e-6, 1e-6)
    h = 1e-6

    def rel(fd, an):
        return abs(fd - an) / max(abs(an), 1e-12)

    worst_fd = 0.0
    worst_seam = 0.0
    for model in (NMOS_DEFAULT, PMOS_DEFAULT):
        sgn = 1.0 if model.polarity is MosPolarity.N else -1.0
        vto = abs(model.vto)
        n = 0
        while n < 100:
            vov = rng.uniform(0.02, 1.5)
            vds = rng.uniform(0.02, 2.5)
            if abs(vds - vov) <= 0.01:
                continue  # stay off the pinchoff seam for differencing
            n += 1
            vgs_s, vds_s = sgn * (vto + vov), sgn * vds
            ev = mos_eval(model, geom, vgs_s, vds_s)
            gm_fd = (mos_eval(model, geom, vgs_s + h, vds_s).id
                     - mos_eval(model, geom, vgs_s - h, vds_s).id) / (2 * h)
            gds_fd = (mos_eval(model, geom, vgs_s, vds_s + h).id
                      - mos_eval(model, geom, vgs_s, vds_s - h).id) / (2 * h)
            worst_fd = max(worst_fd, rel(gm_fd, ev.gm), rel(gds_fd, ev.gds))
        for _ in range(100):
            vov = rng.uniform(0.05, 1.5)
            vgs_s, seam = sgn * (vto + vov), sgn * vov
            a = mos_eval(model, geom, vgs_s, np.nextafter(seam, -np.inf)).id
            b = mos_eval(model, geom, vgs_s, np.nextafter(seam, np.inf)).id
            gap = abs(a - b) / (1e-18 + 1e-12 * max(abs(a), abs(b)))
            worst_seam = max(worst_seam, gap)
            vfix = sgn * rng.uniform(0.1, 2.0)
            a = mos_eval(model, geom, np.nextafter(sgn * vto, -np.inf), vfix).id
            b = mos_eval(model, geom, np.nextafter(sgn * vto, np.inf), vfix).id
            worst_seam = max(worst_seam,
                             abs(a - b) / (1e-18 + 1e-12 * max(abs(a), abs(b))))
    ok = worst_fd < 1e-6 and worst_seam <= 1.0
    _check(1, "device curves continuous with exact derivatives", ok,
           f"worst fd rel {worst_fd:.2e}, worst seam gap {worst_seam:.2f}x tol")


def test_criterion_02_linear_and_nonlinear_roots():
    sol = dc_solve(parse_netlist(DIVIDER))
    g1, g2 = 1e-3, 0.5e-3
    expected = 3.0 * g1 / (g1 + g2 + GMIN)
    div_rel = abs(sol.node_voltages["mid"] - expected) / expected

    lo, hi = 0.5, 3.0
    f = lambda v: 100e-6 * (v - 0.5) ** 2 + GMIN * v - (3.0 - v) / 10e3
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    dsol = dc_solve(parse_netlist(DIODE_LOAD))
    diode_dv = abs(dsol.node_voltages["d"] - root)

    ok = div_rel < 1e-12 and diode_dv < 1e-9
    _check(2, "solver agrees with independent root finders", ok,
           f"divider rel {div_rel:.2e}, diode |dv| {diode_dv:.2e} V")


def test_criterion_03_kcl_audit(hysteresis_net, zero_lambda_models):
    nmos, _ = zero_lambda_models
    cases = [parse_netlist(DIVIDER), parse_netlist(DIODE_LOAD),
             hysteresis_net,
             hysteresis_net.replaced_source("IIN", DcSpec(-6e-6)),
             hysteresis_net.replaced_source("IIN", DcSpec(6e-6)),
             build_latch_testbench(MosGeometry(0.27e-6, 0.18e-6),
                                   MosGeometry(0.36e-6, 0.18e-6),
                                   nmos, 20e-6, 20e-6)]
    solutions = [(net, dc_solve(net)) for net in cases]
    for side in (-SPAN, SPAN):
        solutions.append((hysteresis_net,
                          branch_solution_at(hysteresis_net, "IIN", 0.0,
                                             approach_from=side)))
    worst = 0.0
    ok = True
    for net, sol in solutions:
        for node, (res, scale) in kcl_residuals(net, sol).items():
            worst = max(worst, abs(res))
            if abs(res) > 1e-12 + 1e-4 * scale:
                ok = False
    _check(3, "every solution passes the independent KCL audit", ok,
           f"worst residual {worst:.2e} A over {len(solutions)} solutions")


def test_criterion_04_latch_voltage_inversion():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        k7 = rng.uniform(20e-6, 400e-6)
        k9 = k7 * rng.uniform(0.1, 0.9)
        sq_a, sq_b = rng.uniform(1e-4, 4.0, size=2)
        i1 = k7 * sq_a + k9 * sq_b
        i2 = k7 * sq_b + k9 * sq_a
        v_a, v_b = latch_voltages_large_signal(k7, k9, 0.5, i1, i2)
        worst = max(worst, abs((v_a - 0.5) ** 2 - sq_a) / sq_a,
                    abs((v_b - 0.5) ** 2 - sq_b) / sq_b)
    ok = worst < 1e-12
    _check(4, "latch node solution inverts the current forms", ok,
           f"worst rel {worst:.2e} over 50 cases")


def test_criterion_05_ratio_reciprocity():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        v_c, v_d = rng.uniform(0.6, 2.5, size=2)
        k = rng.uniform(0.05, 20.0)
        fwd = current_ratio(v_c, v_d, 0.5, k, RatioDirection.HIGH_TO_LOW)
        rev = current_ratio(v_d, v_c, 0.5, k, RatioDirection.LOW_TO_HIGH)
        worst = max(worst, abs(fwd * rev - 1.0))
    ok = worst < 1e-12
    _check(5, "opposite-direction ratios are reciprocal", ok,
           f"worst |p*p'-1| {worst:.2e} over 50 cases")


def test_criterion_06_ratio_oracle_agreement():
    rng = np.random.default_rng(0)
    nmos = dataclasses.replace(NMOS_DEFAULT, lam=0.0)
    diode = MosGeometry(0.27e-6, 0.18e-6)
    cross = MosGeometry(0.36e-6, 0.18e-6)
    k_ratio = kfactor(nmos, cross) / kfactor(nmos, diode)
    worst = 0.0
    n = 0
    while n < 50:
        v_c, v_d = rng.uniform(0.6, 2.5, size=2)
        a, b = v_c - 0.5, v_d - 0.5
        # keep clear of the zero of each triode-form denominator
        if (abs(a * a + k_ratio * (2 * v_d - 1.0 - v_c) * v_c) < 0.05
                or abs(b * b + k_ratio * (2 * v_c - 1.0 - v_d) * v_d) < 0.05):
            continue
        n += 1
        for direction in RatioDirection:
            algebra = current_ratio(v_c, v_d, 0.5, k_ratio, direction)
            summed = latch_current_ratio_from_devices(v_c, v_d, nmos, diode,
                                                      cross, direction)
            worst = max(worst, abs(summed - algebra) / abs(algebra))
    ok = worst < 1e-12
    _check(6, "ratio algebra matches device summation", ok,
           f"worst rel {worst:.2e} over 50 cases")


def test_criterion_07_pinned_range_hysteresis_demo(hysteresis_net):
    # stock hysteresis build (lam=0), swept +/-SPAN at 10 nA with 1 nA
    # refinement: must show a band wider than 10 nA with both edges inside
    # the window, and the output levels its inverter gives outside the band.
    # - window: SPAN (8 uA) is the range the README, criteria 03 and 13,
    #   test_hysteresis_band_located and the CLI golden use for this build,
    #   whose band sits at [-4.65, +3.85] uA
    # - high level: 99% of the rail, the paper's "rail to rail" output,
    #   reached with C low and MNI off
    # - low level: OUT comes from the single inverter MPI/MNI driven from
    #   node C, whose high level diode M7 holds at about 1.5-1.9 V, so MPI
    #   never turns off and OUT low is ratioed: MNI in triode against MPI
    #   in saturation. The paper names no number for it; the level must sit
    #   below the NMOS threshold, so a following NMOS gate stays off, and
    #   equal the lam=0 square-law ratioed level at the solved V_C
    net = hysteresis_net
    up = dc_sweep(net, "IIN", -SPAN, SPAN, 10e-9)
    down = dc_sweep(net, "IIN", SPAN, -SPAN, 10e-9)
    problems = []
    try:
        rep = measure_hysteresis(up, down, output_node="OUT", threshold=1.5,
                                 refine_to=1e-9, netlist=net)
        if rep.i_hy <= 10e-9:
            problems.append(f"width {rep.i_hy:.3e} A <= 10 nA")
        if not -SPAN < rep.i_t2 < rep.i_t1 < SPAN:
            problems.append(f"edges [{rep.i_t2 * 1e6:.2f}, "
                            f"{rep.i_t1 * 1e6:.2f}] uA not inside the window")
    except MeasurementError as e:
        true_band = _band(net, SPAN, STEP)
        problems.append(f"{e}; transitions actually at "
                        f"[{true_band.i_t2 * 1e6:.2f}, "
                        f"{true_band.i_t1 * 1e6:.2f}] uA")
    out_hi = max(max(up.node("OUT")), max(down.node("OUT")))
    if out_hi < 2.97:
        problems.append(f"high level {out_hi:.3f} V below 99% of the rail")

    rows = np.vstack((up.samples, down.samples))
    low = rows[np.argmin(rows[:, 1 + up.nodes.index("OUT")])]
    volts = dict(zip(up.nodes, low[1:].tolist()))
    v_c, v_out, vdd = volts["C"], volts["OUT"], volts["VDD"]
    mni, mpi = net.find_element("MNI"), net.find_element("MPI")
    if v_out >= mni.model.vto:
        problems.append(f"low level {v_out:.3f} V not below the NMOS "
                        f"threshold {mni.model.vto:g} V")
    regions = (mos_eval(mni.model, mni.geom, v_c, v_out).region,
               mos_eval(mpi.model, mpi.geom, v_c - vdd, v_out - vdd).region)
    if (regions != (Region.TRIODE, Region.SATURATION)
            or mni.model.lam != 0.0 or mpi.model.lam != 0.0):
        problems.append(f"inverter at low level is MNI {regions[0].value}, "
                        f"MPI {regions[1].value}, lam {mni.model.lam:g}/"
                        f"{mpi.model.lam:g}; the ratioed form does not apply")
    else:
        vov_n = v_c - mni.model.vto
        vov_p = vdd - v_c - abs(mpi.model.vto)
        ratio = kfactor(mpi.model, mpi.geom) / kfactor(mni.model, mni.geom)
        ratioed = vov_n - np.sqrt(vov_n * vov_n - ratio * vov_p * vov_p)
        if abs(v_out - ratioed) > 1e-6:
            problems.append(f"low level {v_out:.6f} V != ratioed inverter "
                            f"level {ratioed:.6f} V at V_C {v_c:.4f} V")
    _check(7, "band and output levels inside the +/-8 uA window",
           not problems, "; ".join(problems))


def test_criterion_08_equal_latch_sizing_closes_band(zero_lambda_models):
    nmos, pmos = zero_lambda_models
    sizing = table_sizing(ComparatorVariant.HYSTERESIS)
    sizing["M7"] = sizing["M10"] = MosGeometry(0.36e-6, 0.18e-6)
    net = build_comparator(ComparatorConfig(nmos=nmos, pmos=pmos,
                                            sizing=sizing))
    rep = _band(net, SPAN, STEP)
    ok = rep.i_hy <= 2e-9
    _check(8, "matched latch devices leave no band", ok,
           f"width {rep.i_hy:.3e} A")


def test_criterion_09_transition_prediction(hysteresis_net, band_1x):
    pred = _predicted_band(hysteresis_net, SPAN, band_1x)
    err_up = abs(pred.i_t1 - band_1x.i_t1) / abs(band_1x.i_t1)
    err_dn = abs(pred.i_t2 - band_1x.i_t2) / abs(band_1x.i_t2)
    ok = err_up < 0.25 and err_dn < 0.25
    _check(9, "closed forms predict both transitions", ok,
           f"up err {err_up:.2%}, down err {err_dn:.2%}")


def test_criterion_10_band_tracks_reference_current(hysteresis_net, band_1x,
                                                    zero_lambda_models):
    nmos, pmos = zero_lambda_models
    sizing = table_sizing(ComparatorVariant.HYSTERESIS)
    for dev in ("M1", "M2", "M3", "M4"):
        g = sizing[dev]
        sizing[dev] = MosGeometry(g.w * 2.0, g.l)
    net2 = build_comparator(ComparatorConfig(nmos=nmos, pmos=pmos,
                                             sizing=sizing))
    rep2 = _band(net2, 16e-6, 100e-9)

    op1 = extract_operating_point(hysteresis_net, dc_solve(hysteresis_net))
    op2 = extract_operating_point(net2, dc_solve(net2))
    measured = rep2.i_hy / band_1x.i_hy
    analytic = (_predicted_band(net2, 16e-6, rep2).i_hy
                / _predicted_band(hysteresis_net, SPAN, band_1x).i_hy)
    ok = (rep2.i_hy > band_1x.i_hy
          and abs(measured - analytic) / analytic < 0.25)
    _check(10, "band width scales with the reference branch", ok,
           f"i_d2 x{op2.i_d2 / op1.i_d2:.4f}, width x{measured:.4f} "
           f"vs analytic x{analytic:.4f}")


def _avg_delay(net, amp, dt, period=400e-9):
    rise = period / 20.0
    pulse = PulseSpec(v1=-amp, v2=amp, delay=0.0, rise=rise, fall=rise,
                      width=period / 2.0 - rise, period=period)
    bench = net.replaced_source("IIN", pulse)
    wave = transient(bench, dt, 2.0 * period)
    times = wave.times()
    rep = measure_delay(times, source_trace(bench, "IIN", times),
                        wave.node("OUT"), 3.0)
    return rep.average


def test_criterion_11_transient_fidelity(capacitance_net):
    wave = transient(parse_netlist(RC_STEP), dt=1e-9, tstop=5e-6)
    t = wave.times()
    exact = 1.0 - np.exp(-np.clip(t - 1e-12, 0.0, None) / 1e-6)
    rc_err = float(np.max(np.abs(wave.node("out") - exact)))

    d_coarse = _avg_delay(capacitance_net, 1e-6, 1e-9)
    d_fine = _avg_delay(capacitance_net, 1e-6, 0.5e-9)
    shift = abs(d_coarse - d_fine) / d_fine

    ok = rc_err < 0.01 and shift < 0.05
    _check(11, "transient matches RC theory and holds under dt halving", ok,
           f"rc err {rc_err:.2e} V, delay shift {shift:.2%}")


def test_criterion_12_overdrive_shortens_delay(capacitance_net):
    slow = _avg_delay(capacitance_net, 1e-6, 1e-9)
    fast = _avg_delay(capacitance_net, 100e-6, 1e-9)
    ratio = slow / fast
    ok = ratio >= 2.0
    _check(12, "heavy overdrive cuts the average delay", ok,
           f"{slow * 1e9:.2f} ns at 1 uA vs {fast * 1e9:.2f} ns at 100 uA, "
           f"x{ratio:.2f}")


def test_criterion_13_cli_determinism(capsys):
    argv = ["hyst", "--variant", "hysteresis", "--source", "IIN",
            "--range", "8u", "--step", "50n"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    vals = _machine_lines(first)
    ok = (first == second
          and vals["i_hy"] == abs(vals["i_t1"] - vals["i_t2"]))
    _check(13, "hysteresis CLI is reproducible and self-consistent", ok,
           f"identical={first == second}, i_hy={vals['i_hy']:.6e} A")


@pytest.mark.xfail(strict=False, reason="cold solves inside the bistable "
                   "band settle on a branch per point, which can move the "
                   "apparent transition")
def test_cold_solve_reproduces_up_transition(hysteresis_net, band_1x):
    step = 250e-9
    values = np.arange(-SPAN, SPAN + step / 2.0, step)
    outs = np.array([
        dc_solve(hysteresis_net.replaced_source("IIN", DcSpec(float(v))))
        .node_voltages["OUT"] for v in values])
    idx = np.nonzero(np.diff(outs > 1.5))[0]
    assert len(idx) == 1
    assert abs(values[idx[0]] - band_1x.i_t1) <= step
