"""DC solver checks: linear exactness, nonlinear roots against bisection,
the pseudo-transient fallback, warm starts and the independent KCL audit."""

from array import array
import dataclasses
import random
import sys
import warnings
from contextlib import contextmanager
from fractions import Fraction
from math import isfinite

import numpy as np
import pytest

from hystlab import (
    ComparatorConfig,
    ConvergenceError,
    DcSpec,
    HystlabError,
    ISource,
    Mosfet,
    NetlistError,
    PulseSpec,
    Resistor,
    VSource,
    branch_solution_at,
    build_comparator,
    dc_solve,
    dc_sweep,
    device_evals,
    hysteresis_walk,
    measure_delay,
    mos_eval,
    parse_netlist,
    source_trace,
    transient,
)
from hystlab import solver as solver_module
from hystlab.audit import kcl_residuals, verify_kcl
from hystlab.devices import kfactor, mos_kernel, mos_sign
from hystlab.solver import Plan, Solution
from test_random_circuits import (TIGHT_LINEAR_SEEDS, random_circuit, random_linear,
                                  random_transient)

GMIN = 1e-12


def _sample_volts(trace, i):
    """Node voltages of a trace's sample i as floats by name, a dc_solve guess."""
    return dict(zip(trace.nodes, trace.samples[i, 1:].tolist()))


def _same_bits(a: list[float], b: list[float]) -> bool:
    """a and b hold the same float64 bits: -0.0 differs from 0.0.

    == is the cheap first test. Floats that compare equal differ in bits
    only as -0.0 and 0.0 do, which the bytes then tell apart. (A NaN can
    fail == though its bits match.)
    """
    return a == b and array("d", a).tobytes() == array("d", b).tobytes()

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


def test_divider_matches_analytic_with_shunt():
    # the always-on 1e-12 S shunt to ground is part of the solved system
    sol = dc_solve(parse_netlist(DIVIDER))
    g1, g2 = 1e-3, 0.5e-3
    expected = 3.0 * g1 / (g1 + g2 + GMIN)
    assert sol.node_voltages["mid"] == pytest.approx(expected, rel=1e-12)
    assert sol.node_voltages["0"] == 0.0
    # source also supplies the pos-node shunt current gmin*3V
    assert sol.branch_currents["V1"] == pytest.approx(
        -((3.0 - expected) * g1 + GMIN * 3.0), rel=1e-9)


def test_divider_symmetric_half():
    sol = dc_solve(parse_netlist(
        "half\nV1 in 0 DC 3\nR1 in mid 1k\nR2 mid 0 1k\n.end\n"))
    assert sol.node_voltages["mid"] == pytest.approx(1.5, rel=1e-9)


def _bisect(f, lo, hi, n=200):
    for _ in range(n):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_diode_connected_root_vs_bisection():
    # node equation: K(V-vto)^2 + gmin*V = (3-V)/R
    k, r = 100e-6, 10e3
    root = _bisect(lambda v: k * (v - 0.5) ** 2 + GMIN * v - (3.0 - v) / r, 0.5, 3.0)
    sol = dc_solve(parse_netlist(DIODE_LOAD))
    assert sol.node_voltages["d"] == pytest.approx(root, abs=1e-9)
    # series current ~134.2 uA
    assert (3.0 - sol.node_voltages["d"]) / r == pytest.approx(134.2e-6, rel=1e-3)


def _random_linear_netlist(rng, n_nodes=4):
    lines = ["random linear"]
    names = [f"n{i}" for i in range(n_nodes)]
    idx = 0
    # spanning chain guarantees connectivity
    for a, b in zip(["0"] + names, names):
        lines.append(f"R{idx} {a} {b} {rng.uniform(100, 10e3):.6f}")
        idx += 1
    for _ in range(3):
        a, b = rng.choice(["0"] + names, size=2, replace=False)
        lines.append(f"R{idx} {a} {b} {rng.uniform(100, 10e3):.6f}")
        idx += 1
    lines.append(f"V1 n0 0 DC {rng.uniform(-5, 5):.6f}")
    lines.append(f"I1 0 n{n_nodes - 1} DC {rng.uniform(-1e-3, 1e-3):.8f}")
    lines.append(".end")
    return parse_netlist("\n".join(lines))


def _direct_linear_solution(net):
    """Independent dense MNA assembly for R/V/I circuits, shunt included."""
    nodes = [n for n in net.nodes if n != "0"]
    index = {n: i for i, n in enumerate(nodes)}
    vsrcs = [e for e in net.elements if type(e).__name__ == "VSource"]
    n = len(nodes) + len(vsrcs)
    a = np.zeros((n, n))
    b = np.zeros(n)
    for i in range(len(nodes)):
        a[i, i] += GMIN
    for e in net.elements:
        kind = type(e).__name__
        if kind == "Resistor":
            g = 1.0 / e.ohms
            p = index.get(e.pos, -1)
            q = index.get(e.neg, -1)
            if p >= 0:
                a[p, p] += g
            if q >= 0:
                a[q, q] += g
            if p >= 0 and q >= 0:
                a[p, q] -= g
                a[q, p] -= g
        elif kind == "ISource":
            x = e.spec.value_at(0.0)
            p = index.get(e.pos, -1)
            q = index.get(e.neg, -1)
            if p >= 0:
                b[p] -= x
            if q >= 0:
                b[q] += x
    for j, e in enumerate(vsrcs):
        row = len(nodes) + j
        p = index.get(e.pos, -1)
        q = index.get(e.neg, -1)
        if p >= 0:
            a[p, row] += 1.0
            a[row, p] += 1.0
        if q >= 0:
            a[q, row] -= 1.0
            a[row, q] -= 1.0
        b[row] = e.spec.value_at(0.0)
    x = np.linalg.solve(a, b)
    return {node: x[i] for node, i in index.items()}


def test_linear_matches_direct_solve():
    rng = np.random.default_rng(0)
    for _ in range(20):
        net = _random_linear_netlist(rng)
        sol = dc_solve(net)
        direct = _direct_linear_solution(net)
        for node, v in direct.items():
            assert sol.node_voltages[node] == pytest.approx(v, rel=1e-12, abs=1e-12)


def test_element_order_independence():
    net = parse_netlist(DIVIDER)
    reordered = parse_netlist(
        "divider\nR2 mid 0 2k\nR1 in mid 1k\nV1 in 0 DC 3\n.end\n")
    a = dc_solve(net).node_voltages
    b = dc_solve(reordered).node_voltages
    for node in a:
        assert b[node] == pytest.approx(a[node], rel=1e-12, abs=1e-15)


def test_determinism_bit_for_bit():
    net = parse_netlist(DIODE_LOAD)
    s1, s2 = dc_solve(net), dc_solve(net)
    assert s1.node_voltages == s2.node_voltages
    assert s1.branch_currents == s2.branch_currents
    assert s1.iterations == s2.iterations


def test_warm_start_exact_two_iterations():
    net = parse_netlist(DIODE_LOAD)
    first = dc_solve(net)
    again = dc_solve(net, initial_guess=first.node_voltages)
    assert again.iterations <= 2
    assert again.node_voltages["d"] == pytest.approx(first.node_voltages["d"], abs=1e-9)


def test_kcl_audit_clean(hysteresis_net):
    sol = dc_solve(hysteresis_net)
    worst = verify_kcl(hysteresis_net, sol)
    assert worst < 1e-12
    res = kcl_residuals(hysteresis_net, sol)
    assert set(res) == {n for n in hysteresis_net.nodes if n != "0"}
    for node, (r, scale) in res.items():
        assert abs(r) <= 1e-12 + 1e-4 * scale


def test_kcl_audit_flags_a_moved_node():
    # the audit's failing branch: 1 mV off the stock answer at C breaks KCL there
    net = build_comparator(ComparatorConfig())
    sol = dc_solve(net)
    moved = dataclasses.replace(
        sol, node_voltages={**sol.node_voltages, "C": sol.node_voltages["C"] + 1e-3})
    with pytest.raises(HystlabError, match="KCL violated at node C"):
        verify_kcl(net, moved)


def test_kcl_audit_checks_the_source_rows():
    # a solution of the wrong circuit: every node balances at VDD = 2.7 V,
    # but the netlist holds VDD at 3 V, so only VDD's own row fails
    net = build_comparator(ComparatorConfig())
    sol = dc_solve(net.replaced_source("VDD", DcSpec(2.7)))
    assert all(abs(r) <= 1e-12 + 1e-4 * sc for r, sc in kcl_residuals(net, sol).values())
    with pytest.raises(HystlabError, match="^voltage source VDD holds 2.7 V, not 3 V$"):
        verify_kcl(net, sol)


def test_residual_check_reads_the_branch_rows():
    # at a = 0.5 V with I(V1) = -0.5 mA the node row balances to the gmin
    # shunt (5e-13 A); only V1's branch row, off by -0.5 V, fails
    plan = Plan(parse_netlist("vr\nV1 a 0 DC 1\nR1 a 0 1k\n.end\n"))
    a = plan.assemble([0.5, -0.5e-3], plan.source_values(0.0))
    opts = solver_module.OPTIONS
    node_scale = a.scale[:plan.n_nodes]
    assert abs(a.f[0]) <= opts.abstol + opts.reltol * node_scale[0]
    assert a.f[1] == -0.5
    assert not solver_module._residual_ok(plan, a)
    assert solver_module._residual_ok(plan, plan.assemble([1.0, -1e-3], plan.source_values(0.0)))


# two ideal sources fighting over one node: a loop through ground
CLASH = "clash\nV1 a 0 DC 1\nV2 a 0 DC 2\n.end\n"
# current forced into a cutoff device: only the gmin path absorbs it,
# which needs ~1e9 V
STUCK = """stuck
I1 0 a DC 1m
M1 a 0 0 0 nch W=1u L=1u
.model nch NMOS (KP=200u VTO=0.5)
.end
"""


@pytest.mark.parametrize("deck,line,closer", [
    (CLASH, 3, "V2"),
    ("self\nV1 a a DC 0\nR1 a 0 1k\n.end\n", 2, "V1"),
    ("ring\nV1 a 0 DC 1\nV2 b a DC 1\nV3 b 0 DC 2\nR1 b 0 1k\n.end\n", 4, "V3"),
    ("clash\nV1 a 0 DC 1\nV2 a 0 DC 2\nR1 a 0 1k\n.end\n", 3, "V2"),
], ids=["clash", "self-loop", "through-ground", "closer-not-last"])
def test_voltage_source_loop_is_rejected(deck, line, closer):
    # sources in a loop fix a sum of voltages and leave the loop current
    # free, so [G B; B^T 0] is singular: the parser names the source that
    # closes the loop and its line, and no solve is tried
    message = f"^line {line}: {closer} closes a loop of voltage sources$"
    with pytest.raises(NetlistError, match=message) as exc:
        parse_netlist(deck)
    assert exc.value.line_no == line


@pytest.mark.parametrize("guess", [None, {"mid": 1.5}], ids=["cold", "warm"])
def test_singular_circuit_names_suspect(guess, monkeypatch):
    # the clashing pair is named when the Netlist is built, before any
    # solve. A singular matrix can still reach the solver; with each J
    # replaced by zeros, a warm solve reaches the pseudo-transient stage
    # only after its cold restart, and every stage must see the singular
    # matrix as LinAlgError, not as a NaN step and a RuntimeWarning
    with pytest.raises(NetlistError, match="^line 3: V2 closes a loop of voltage sources$"):
        parse_netlist(CLASH)
    statuses = []
    solve, newton = solver_module._solve, solver_module._newton
    monkeypatch.setattr(solver_module, "_solve",
                        lambda jac, rhs: solve(np.zeros_like(jac), rhs))

    def spy(*args, **kwargs):
        result = newton(*args, **kwargs)
        statuses.append(result[3])
        return result

    monkeypatch.setattr(solver_module, "_newton", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError) as exc:
            dc_solve(parse_netlist(DIVIDER), initial_guess=guess)
    assert exc.value.stage == "pseudo-transient"
    assert set(statuses) == {"singular"}


def test_hopeless_circuit_raises_convergence_error():
    # pseudo-transient continuation must give up
    net = parse_netlist(STUCK)
    with pytest.raises(ConvergenceError) as exc:
        dc_solve(net)
    assert exc.value.stage == "pseudo-transient"
    # the plain residual at the last accepted point: pseudo-transient steps
    # move node a a little before they give up, so just under the full 1 mA
    assert exc.value.residual == pytest.approx(9.950760558680447e-4, rel=1e-6)


def _caller_policy(err, flag):
    pass


@pytest.mark.parametrize("singular,fail", [
    (True, lambda: dc_solve(parse_netlist(DIVIDER))),
    (False, lambda: dc_solve(parse_netlist(STUCK))),
    (True, lambda: Plan(parse_netlist(DIVIDER)).sweep("V1", [1.0, 2.0])),
    (False, lambda: Plan(parse_netlist(STUCK)).sweep("I1", [1e-3])),
    (False, lambda: transient(parse_netlist(
        "t\nV1 in 0 PULSE(0 1e300 0 1n 1n 5n 0)\nR1 in a 1e-300\n"
        "R2 a 0 1k\nC1 a 0 1p\n.end\n"), 1e-9, 5e-9)),
], ids=["solve-singular", "solve-stuck", "sweep-singular", "sweep-stuck", "steps"])
def test_failed_solve_restores_callers_error_policy(singular, fail, monkeypatch):
    # each error is raised inside the solver's floating-point error scope;
    # leaving the scope must hand back the caller's policy and handler. A
    # singular case solves a zero matrix in place of each J, which LAPACK
    # reports as singular: every stage reads "singular" and the solve
    # gives up with ConvergenceError
    statuses = []
    if singular:
        solve, newton = solver_module._solve, solver_module._newton
        monkeypatch.setattr(solver_module, "_solve",
                            lambda jac, rhs: solve(np.zeros_like(jac), rhs))

        def spy(*args, **kwargs):
            result = newton(*args, **kwargs)
            statuses.append(result[3])
            return result

        monkeypatch.setattr(solver_module, "_newton", spy)
    with np.errstate(divide="raise", over="warn", under="print", invalid="call",
                     call=_caller_policy):
        before = np.geterr(), np.geterrcall()
        with pytest.raises(ConvergenceError):
            fail()
        assert (np.geterr(), np.geterrcall()) == before
    assert set(statuses) == ({"singular"} if singular else set())


def test_gmin_rescues_floating_gate():
    # gate node touched only by a capacitor: the shunt keeps it solvable
    net = parse_netlist("""float
V1 vdd 0 DC 3
C1 g 0 1p
M1 d g 0 0 nch W=1u L=1u
R1 vdd d 10k
.model nch NMOS (KP=200u VTO=0.5)
.end
""")
    sol = dc_solve(net)
    assert sol.node_voltages["g"] == pytest.approx(0.0, abs=1e-9)
    assert sol.node_voltages["d"] == pytest.approx(3.0, rel=1e-6)


def test_stale_guess_on_vanished_branch_recovers(hysteresis_net):
    # a guess from deep on the other branch must not strand the solver
    from hystlab import dc_sweep
    up = dc_sweep(hysteresis_net, "IIN", -8e-6, 6e-6, 0.5e-6)
    guess = _sample_volts(up, -1)
    hot = hysteresis_net.replaced_source("IIN", DcSpec(12e-6))
    sol = dc_solve(hot, initial_guess=guess)
    assert sol.node_voltages["OUT"] > 2.9  # aligned branch, not the dead one
    verify_kcl(hot, sol)


def test_solution_records_iterations_and_evals(hysteresis_net):
    sol = dc_solve(hysteresis_net)
    assert sol.iterations > 0
    assert [f.name for f in dataclasses.fields(sol)] == [
        "node_voltages", "branch_currents", "iterations"]
    assert set(device_evals(hysteresis_net, sol)) >= {"M1", "M7", "MPI", "MNI"}
    assert all(np.isfinite(v) for v in sol.node_voltages.values())


def test_nonfinite_stimulus_reports_nan_residual():
    # a NaN nodal current must be reported as NaN, not as the largest
    # finite entry; source specs reject NaN, so it is set in the rows here
    plan = Plan(build_comparator(ComparatorConfig()))
    a = plan.assemble(plan.vector_from_guess(None), plan.source_values(0.0))
    a.f[:2] = [float("nan"), 1.0]
    exc = solver_module._convergence_error(plan, a, "no DC convergence", "plain")
    assert np.isnan(exc.residual)
    assert "residual=nan A" in str(exc)


def test_branch_row_mismatch_is_reported():
    # the step overflows at every stage; from zero the nodal rows read 0
    # while the V1 branch row is off by the full 1e300 V
    net = parse_netlist("t\nV1 in 0 DC 1e300\nR1 in a 1e-300\nR2 a 0 1k\n.end\n")
    with pytest.raises(ConvergenceError) as exc:
        dc_solve(net)
    assert exc.value.residual == 0.0
    assert "branch residual=1.000e+300 V" in str(exc.value)


def test_transient_step_reports_branch_row():
    # at t=1 ns the step overflows while the nodal rows still read 0; the
    # mismatch sits in the V1 branch row alone
    net = parse_netlist("t\nV1 in 0 PULSE(0 1e300 0 1n 1n 5n 0)\nR1 in a 1e-300\n"
                        "R2 a 0 1k\nC1 a 0 1p\n.end\n")
    with pytest.raises(ConvergenceError) as exc:
        transient(net, 1e-9, 5e-9)
    message = str(exc.value)
    assert message.startswith("transient step failed at t=1e-09 s (nonfinite)")
    assert exc.value.residual == 0.0
    branch = float(message.split("branch residual=")[1].split()[0])
    assert branch != 0.0


def test_transient_step_that_stalls_names_its_status():
    # the stock build's latch flips within one 1 ns step at 15 ns; that
    # step's Newton run stops contracting and ends early, where it used to
    # run to maxiter at the same step; no RuntimeWarning escapes
    rise = 400e-9 / 20.0
    net = build_comparator(ComparatorConfig()).replaced_source(
        "IIN", PulseSpec(v1=-8e-6, v2=8e-6, delay=0.0, rise=rise, fall=rise,
                         width=200e-9 - rise, period=400e-9))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError) as exc:
            transient(net, 1e-9, 30e-9)
    assert str(exc.value).startswith("transient step failed at t=1.5e-08 s (stalled)")


def test_warm_fold_solve_restarts_cold_before_any_gmin_rung(monkeypatch):
    # stock up fold: the warm guess from 3.25 uA sits on a branch that is
    # gone at 3.3 uA; the cold restart converges, so no pseudo-transient
    # step runs
    net = build_comparator(ComparatorConfig())
    guess = _sample_volts(dc_sweep(net, "IIN", -8e-6, 3.25e-6, 50e-9), -1)
    runs = []
    real = solver_module._newton

    def spy(sys_, x0, g=0.0, *args, **kwargs):
        runs.append((list(x0[:sys_.n_nodes]), g))
        return real(sys_, x0, g, *args, **kwargs)

    monkeypatch.setattr(solver_module, "_newton", spy)
    sol = dc_solve(net.replaced_source("IIN", DcSpec(3.3e-6)), initial_guess=guess)
    assert sol.node_voltages["OUT"] > 2.5  # jumped to the high branch
    nodes = [n for n in net.nodes if n != "0"]
    assert runs[0][0] == [guess[n] for n in nodes]
    assert runs[1][0] == [0.0] * len(nodes)
    assert len(runs) == 2
    assert all(g == 0.0 for _, g in runs)


def test_dc_solve_tries_its_guesses_in_order():
    # inside the stock band at IIN = 0 both branches solve, so the first
    # guess decides the branch and the second is never tried
    net = build_comparator(ComparatorConfig())
    low = branch_solution_at(net, "IIN", 0.0, approach_from=-8e-6).node_voltages
    high = branch_solution_at(net, "IIN", 0.0, approach_from=8e-6).node_voltages
    assert low["OUT"] < 1.5 < high["OUT"]
    at_zero = net.replaced_source("IIN", DcSpec(0.0))
    assert dc_solve(at_zero, low, high).node_voltages["OUT"] < 1.5
    assert dc_solve(at_zero, high, low).node_voltages["OUT"] > 1.5


def test_second_guess_converges_past_a_fold(monkeypatch):
    # a bisection probe past the stock up fold: the first guess, from
    # 3.25 uA, sits on a branch that is gone at 3.3 uA. The second, the
    # 3.35 uA point on the far side, converges: no cold restart, no
    # pseudo-transient step
    net = build_comparator(ComparatorConfig())
    up = dc_sweep(net, "IIN", -8e-6, 3.35e-6, 50e-9)
    assert up.times()[-3] == pytest.approx(3.25e-6)
    first, second = _sample_volts(up, -3), _sample_volts(up, -1)
    runs = _spy_runs(monkeypatch)
    sol = dc_solve(net.replaced_source("IIN", DcSpec(3.3e-6)), first, second)
    assert sol.node_voltages["OUT"] > 2.5  # on the branch past the fold
    assert len(runs) == 2
    assert runs[0][2] != "ok" and runs[1][2] == "ok"
    assert all(g == 0.0 for g, _, _ in runs)


def _spy_plain_starts(monkeypatch):
    """Record the start x0 of every plain _newton run, as a list."""
    starts = []
    real = solver_module._newton

    def spy(sys_, x0, g=0.0, *args, **kwargs):
        if not g:
            starts.append(list(x0))
        return real(sys_, x0, g, *args, **kwargs)

    monkeypatch.setattr(solver_module, "_newton", spy)
    return starts


def test_second_guess_alone_runs_before_the_cold_start(monkeypatch):
    # with no first guess, plain Newton starts from the second guess; a
    # solved point with its branch currents reconverges in one iteration,
    # so the cold start never runs
    net = build_comparator(ComparatorConfig())
    sol = dc_solve(net)
    guess = {**sol.node_voltages, **{f"I({b})": i for b, i in sol.branch_currents.items()}}
    starts = _spy_plain_starts(monkeypatch)
    again = dc_solve(net, None, guess)
    assert again.iterations == 1
    plan = Plan(net)
    assert len(starts) == 1 and _same_bits(starts[0], plan.vector_from_guess(guess))


def test_guess_of_negative_zeros_is_the_cold_start(monkeypatch):
    # every unknown at -0.0 is the cold start: one plain run, from +0.0,
    # before pseudo-transient continuation
    net = parse_netlist(MISMATCH_DECK)
    plan = Plan(net)
    guess = dict.fromkeys(plan.index, -0.0)
    starts = _spy_plain_starts(monkeypatch)
    sol = dc_solve(net, guess)
    assert sol.iterations == 55
    assert _same_bits(starts[0], [0.0] * plan.n_unknowns)
    assert all(any(x) for x in starts[1:])  # the rest start off pseudo-transient steps


def _spy_runs(monkeypatch):
    """Record (g, iterations, status) of every _newton run."""
    runs = []
    real = solver_module._newton

    def spy(sys_, x0, g=0.0, *args, **kwargs):
        result = real(sys_, x0, g, *args, **kwargs)
        runs.append((g, result[2], result[3]))
        return result

    monkeypatch.setattr(solver_module, "_newton", spy)
    return runs


def _without_stall_test(monkeypatch, solve):
    """solve() with the stall test switched off, as before it existed."""
    with monkeypatch.context() as m:
        m.setattr(solver_module, "_STALL_FROM", solver_module.OPTIONS.max_newton_iters + 1)
        return solve()


def test_warm_fold_run_stalls_then_cold_restart_converges(monkeypatch):
    # the stock up fold again: the doomed warm run used to take 100
    # iterations; it now ends within 15, and the answer does not move
    net = build_comparator(ComparatorConfig())
    guess = _sample_volts(dc_sweep(net, "IIN", -8e-6, 3.25e-6, 50e-9), -1)
    hot = net.replaced_source("IIN", DcSpec(3.3e-6))
    runs = _spy_runs(monkeypatch)
    sol = dc_solve(hot, initial_guess=guess)
    assert runs[0][0] == 0.0 and runs[0][2] == "stalled" and runs[0][1] <= 15
    assert runs[1:] == [(0.0, 8, "ok")]
    runs.clear()
    slow = _without_stall_test(monkeypatch, lambda: dc_solve(hot, initial_guess=guess))
    assert runs == [(0.0, 100, "maxiter"), (0.0, 8, "ok")]
    assert sol.node_voltages == slow.node_voltages
    assert sol.node_voltages == pytest.approx(
        {"0": 0.0, "VDD": 3.0, "A": 1.5826460312216366, "B": 1.5139639368687459,
         "C": 0.5473859647624404, "D": 1.6615281235230785, "OUT": 2.999375435421021},
        abs=1e-12)


# a 30 V deck: from zero, every node climbs by the 1 V clamp for about
# 30 iterations, with no steadily falling residual to show progress
HIGH_VOLTAGE = """high voltage
V1 vdd 0 DC 30
R1 vdd a 1k
M1 a a 0 0 nm W=1u L=1u
MP b a vdd vdd pm W=1u L=1u
MN b a 0 0 nm W=1u L=1u
R2 vdd c 100k
M4 c b 0 0 nm W=1u L=1u
.model nm NMOS (KP=0.00017 VTO=0.5 LAMBDA=0.05)
.model pm PMOS (KP=6e-05 VTO=-0.5 LAMBDA=0.05)
.end
"""


def test_long_clamped_run_is_not_stopped(monkeypatch):
    # clamped steps never count as failing to contract, so the stall test
    # lets this run converge exactly as it did without the test
    net = parse_netlist(HIGH_VOLTAGE)
    runs = _spy_runs(monkeypatch)
    sol = dc_solve(net)
    assert runs == [(0.0, 33, "ok")]
    assert sol.iterations == 33
    slow = _without_stall_test(monkeypatch, lambda: dc_solve(net))
    assert sol.node_voltages == slow.node_voltages
    assert sol.branch_currents == slow.branch_currents
    verify_kcl(net, sol)


# the comparator far from its table widths (M4 4.3x, M1 2.5x, M9 2x,
# M10 0.5x): its plain Newton from zero ends on a 2-cycle through the clamp
MISSIZED_DECK = """missized comparator
VDD VDD 0 DC 3
IIN 0 A DC 5.13967e-06
IREF 0 B DC 8.63671e-07
M1 A B 0 0 nm W=0.452454u L=0.72u
M2 B B 0 0 nm W=0.213925u L=0.72u
M3 A A VDD VDD pm W=0.592458u L=0.72u
M4 B B VDD VDD pm W=2.33499u L=0.72u
M5 C A VDD VDD pm W=1.13868u L=0.18u
M6 D B VDD VDD pm W=0.927776u L=0.18u
M7 C C 0 0 nm W=0.295824u L=0.18u
M8 C D 0 0 nm W=0.496223u L=0.18u
M9 D C 0 0 nm W=0.717841u L=0.18u
M10 D D 0 0 nm W=0.131043u L=0.18u
MPI OUT C VDD VDD pm W=0.347968u L=0.18u
MNI OUT C 0 0 nm W=0.294229u L=0.18u
.model nm NMOS (KP=0.00017 VTO=0.5 LAMBDA=0.05)
.model pm PMOS (KP=6e-05 VTO=-0.5 LAMBDA=0.05)
.end
"""


def test_clamp_two_cycle_ends_cold_run(monkeypatch):
    # a cold start of MISSIZED_DECK: C, D and OUT swing +-1 V, each step
    # clamped, and every other iterate repeats. The 2-cycle alone ends the
    # run (the contraction count is switched off here); pseudo-transient
    # continuation then gives the answer the 100-iteration run led to
    net = parse_netlist(MISSIZED_DECK)
    runs = _spy_runs(monkeypatch)
    monkeypatch.setattr(solver_module, "_STALL_STEPS", 10**9)
    sol = dc_solve(net)
    assert runs[0] == (0.0, 19, "stalled")
    assert runs[1][0] == solver_module._PTC_G_START
    runs.clear()
    slow = _without_stall_test(monkeypatch, lambda: dc_solve(net))
    assert runs[0] == (0.0, 100, "maxiter")
    assert sol.node_voltages == slow.node_voltages
    assert sol.node_voltages["OUT"] == pytest.approx(0.01755312720927172, abs=1e-12)
    verify_kcl(net, sol)


def test_sweep_evaluates_no_device(monkeypatch):
    # the solver stamps with the kernel alone: no solve, sweep, walk or
    # transient evaluates a device through mos_eval, wherever it is bound
    net = build_comparator(ComparatorConfig())
    calls = []

    def spy(*args):
        calls.append(args)
        return mos_eval(*args)

    bound = sorted(name for name, module in sys.modules.items()
                   if name.split(".")[0] == "hystlab" and hasattr(module, "mos_eval"))
    assert {"hystlab", "hystlab.devices", "hystlab.audit", "hystlab.analytics"} <= set(bound)
    for name in bound:
        monkeypatch.setattr(sys.modules[name], "mos_eval", spy)
    sol = dc_solve(net)
    curve = dc_sweep(net, "IIN", -2e-6, 2e-6, 0.5e-6)
    assert len(curve.samples) == 9
    walk = hysteresis_walk(net, "IIN", -8e-6, 8e-6, 50e-9, "OUT", 1.5, 1e-9)
    assert walk.i_hy > 0
    assert len(transient(net, 1e-9, 20e-9).samples) == 21
    assert calls == []
    verify_kcl(net, sol)  # the spy is live: the audit evaluates all 12
    assert len(calls) == 12


def test_device_evals_match_mos_eval_at_solution():
    net = build_comparator(ComparatorConfig())
    sol = dc_solve(net)
    v = sol.node_voltages
    mosfets = [el for el in net.elements if isinstance(el, Mosfet)]
    assert len(mosfets) == 12
    evals = device_evals(net, sol)
    assert evals == {
        el.name: mos_eval(el.model, el.geom, v[el.g] - v[el.s], v[el.d] - v[el.s])
        for el in mosfets}
    assert list(evals) == [el.name for el in mosfets]
    # named: those MOSFETs alone, in the order named, whatever the case
    assert device_evals(net, sol, ("M2", "m1")) == {"M2": evals["M2"], "M1": evals["M1"]}
    assert list(device_evals(net, sol, ("M2", "m1"))) == ["M2", "M1"]
    # the audit sums exactly these drain currents: at the nodes that only
    # MOSFETs meet, its residual and scale are rebuilt from them bit for bit
    audit = kcl_residuals(net, sol)
    sources = [el for el in net.elements if not isinstance(el, Mosfet)]
    assert not {"C", "D", "OUT"} & {node for el in sources for node in (el.pos, el.neg)}
    for node in ("C", "D", "OUT"):
        res = scale = 0.0
        for el in mosfets:
            for terminal, i in ((el.d, evals[el.name].id), (el.s, -evals[el.name].id)):
                if terminal == node:
                    res += i
                    scale += abs(i)
        shunt = GMIN * v[node]
        assert audit[node] == (res + shunt, scale + abs(shunt)), node


def _closure_kcl_residuals(net, sol):
    """kcl_residuals re-summed through one closure call per terminal that
    skips ground, and isinstance dispatch: each node's currents in element
    order, + i at the first terminal and + -i at the second, then the
    gmin shunt."""
    v = sol.node_voltages
    evals = device_evals(net, sol)
    residual = {n: 0.0 for n in net.nodes if n != "0"}
    scale = {n: 0.0 for n in residual}

    def add(node, current):
        if node != "0":
            residual[node] += current
            scale[node] += abs(current)

    for el in net.elements:
        if isinstance(el, Resistor):
            i = (v[el.pos] - v[el.neg]) / el.ohms
            add(el.pos, i)
            add(el.neg, -i)
        elif isinstance(el, ISource):
            val = el.spec.value_at(0.0)
            add(el.pos, val)
            add(el.neg, -val)
        elif isinstance(el, VSource):
            j = sol.branch_currents[el.name]
            add(el.pos, j)
            add(el.neg, -j)
        elif isinstance(el, Mosfet):
            i = evals[el.name].id
            add(el.d, i)
            add(el.s, -i)
    for n in residual:
        shunt = GMIN * v[n]
        residual[n] += shunt
        scale[n] += abs(shunt)
    return {n: (residual[n], scale[n]) for n in residual}


def _bits(table):
    return {k: tuple(x.hex() for x in pair) for k, pair in table.items()}


@pytest.mark.parametrize("build", ["stock", "random", "random-caps"])
def test_kcl_residuals_match_a_closure_re_sum_bit_for_bit(build):
    # at each solved point, and at seeded points off it where every node
    # carries a residual, the audit's inline sums keep the closure's bits
    if build == "stock":
        nets = [build_comparator(ComparatorConfig())]
    else:
        make = random_circuit if build == "random" else random_transient
        nets = [make(seed) for seed in range(60)]
    rng = random.Random(48)
    for net in nets:
        sol = dc_solve(net)
        off = Solution({n: rng.uniform(-1.0, 4.0) if n != "0" else 0.0
                        for n in sol.node_voltages},
                       {b: rng.uniform(-1e-3, 1e-3) for b in sol.branch_currents}, 0)
        for point in (sol, off):
            assert _bits(kcl_residuals(net, point)) == _bits(_closure_kcl_residuals(net, point))


def test_plan_slots_follow_the_row_major_rule():
    # the compiled slot of each (row, column): p*n + q in the n x n block,
    # the spare slot n*n in ground's row or column; and the constant J
    # stamped element by element, bit for bit, on random circuits too
    for net in (build_comparator(ComparatorConfig()), *map(random_circuit, range(60))):
        plan = Plan(net)
        n = plan.n_unknowns

        def slot(p, q):
            return p * n + q if p < n and q < n else n * n

        for d, g, s, *_, dg, dd, ds, sg, sd, ss in plan.mosfets:
            s = n if s is None else s
            assert (dg, dd, ds, sg, sd, ss) == (slot(d, g), slot(d, d), slot(d, s),
                                                slot(s, g), slot(s, d), slot(s, s))
        assert plan.diag == tuple(slot(i, i) for i in range(plan.n_nodes))
        np.testing.assert_array_equal(plan.jac, _constant_jacobian(net, None))
        assert plan.node_names == tuple(node for node in net.nodes if node != "0")


def _companions(net, cmin):
    """(pos, neg, farads) of each companion, in the solver's order.

    The nonzero capacitances in element order (capacitors, then each
    MOSFET's cgs and cgd), then cmin from every node to ground, summed
    in that order per unordered node pair. Pairs keep the order and the
    orientation in which they first appear; a capacitance from a node to
    itself carries no current and is skipped.
    """
    caps = []
    for el in net.elements:
        if type(el).__name__ == "Capacitor":
            caps.append((el.pos, el.neg, el.farads))
        elif type(el).__name__ == "Mosfet":
            caps += [(el.g, el.s, el.model.cgs), (el.g, el.d, el.model.cgd)]
    caps = [cap for cap in caps if cap[2] > 0.0]
    caps += [(n, "0", cmin) for n in net.nodes if n != "0"]
    pairs = []
    for pos, neg, c in caps:
        if pos == neg:
            continue
        for j, (p, q, total) in enumerate(pairs):
            if {p, q} == {pos, neg}:
                pairs[j] = (p, q, total + c)
                break
        else:
            pairs.append((pos, neg, c))
    return pairs


def _companion_currents(net, volts, dt, cmin, ieq):
    """Per node: trapezoidal companion currents leaving it, and their scale.

    One companion per node pair (_companions), as ``ieq`` lists them.
    """
    current = dict.fromkeys(volts, 0.0)
    scale = dict.fromkeys(volts, 0.0)
    for (pos, neg, c), q in zip(_companions(net, cmin), ieq, strict=True):
        gv = 2.0 * c / dt * (volts[pos] - volts[neg])
        current[pos] += gv + q
        current[neg] -= gv + q
        scale[pos] += abs(gv) + abs(q)
        scale[neg] += abs(gv) + abs(q)
    return current, scale


# every stamp kind off ground: a floating source, a resistor pair, a
# current source and a P device, which the comparator builds lack
FLOATING = """floating source
V1 a 0 DC 3
R1 a b 1k
V2 b c DC 0.7
R2 c d 2k
I1 d c DC 0.1m
M1 d c a a pch W=2u L=1u
C1 b d 1p
.model pch PMOS (KP=60u VTO=-0.5 LAMBDA=0.05 CGS=5f)
.end
"""


@pytest.mark.parametrize("build,dt", [("stock", None), ("capacitance", None),
                                      ("capacitance", 1e-9), ("floating", 1e-9)])
def test_plan_matches_audit_and_finite_differences(build, dt, request):
    # the compiled stamp plan against two oracles that share none of its
    # index tables: the KCL audit's re-summation for the residual and
    # central differences of that residual for the Jacobian; the last
    # case adds the pseudo-transient tie of every node to x0
    net = {"stock": lambda: build_comparator(ComparatorConfig()),
           "capacitance": lambda: request.getfixturevalue("capacitance_net"),
           "floating": lambda: parse_netlist(FLOATING)}[build]()
    cmin = 1e-15  # the solver's per-node transient shunt
    sys_ = Plan(net, dt=dt)
    nn, n = sys_.n_nodes, sys_.n_unknowns
    e = sys_.source_values(0.0)
    rng = np.random.default_rng(20)
    ieq = list(rng.uniform(-1e-6, 1e-6, len(sys_.caps)))
    x0 = rng.uniform(-0.5, 3.5, nn).tolist()
    for tie in (0.0, 1e-3):
        # off-solution points: the device regions mix and KCL does not hold
        x = np.concatenate([rng.uniform(-0.5, 3.5, nn), rng.uniform(-1e-4, 1e-4, n - nn)])
        a = sys_.assemble(x, e, ieq, tie, x0)
        f = np.asarray(a.f)
        sol = Solution({"0": 0.0, **dict(zip(sys_.node_names, x.tolist()))},
                       dict(zip(sys_.vsource_names, x[nn:].tolist())), 0)
        audit = kcl_residuals(net, sol)
        extra, extra_scale = ({}, {}) if dt is None else _companion_currents(
            net, sol.node_voltages, dt, cmin, ieq)
        assert max(abs(f[:nn])) > 1e-6
        node_scale = a.scale[:nn]
        for i, node in enumerate(sys_.node_names):
            res, scale = audit[node]
            res += extra.get(node, 0.0) + tie * (x[i] - x0[i])
            scale += extra_scale.get(node, 0.0) + abs(tie * (x[i] - x0[i]))
            assert f[i] == pytest.approx(res, rel=1e-12, abs=1e-15), node
            assert node_scale[i] == pytest.approx(scale, rel=1e-12, abs=1e-15), node

        fd = np.empty((n, n))
        for j in range(n):
            h = 1e-6 if j < nn else 1e-9
            up, down = x.copy(), x.copy()
            up[j] += h
            down[j] -= h
            fd[:, j] = (np.asarray(sys_.assemble(up, e, ieq, tie, x0).f)
                        - np.asarray(sys_.assemble(down, e, ieq, tie, x0).f)) / (2 * h)
        np.testing.assert_allclose(fd, a.jac, rtol=1e-6, atol=1e-11)


def _constant_jacobian(net, dt):
    """The Jacobian's MOSFET-free part, stamped element by element: 1/R,
    the voltage sources' +-1, 2C/dt of every companion (CMIN included),
    then the gmin floor. Summed per slot in this order, a MOSFET-free
    plan's answers stay bit-identical to per-assembly stamping."""
    nodes = [n for n in net.nodes if n != "0"]
    vsrcs = [el for el in net.elements if type(el).__name__ == "VSource"]
    index = {n: i for i, n in enumerate(nodes)}
    jac = np.zeros((len(nodes) + len(vsrcs),) * 2)

    def stamp(pos, neg, g):
        p, q = index.get(pos), index.get(neg)
        for r, c, sign in ((p, p, 1.0), (p, q, -1.0), (q, p, -1.0), (q, q, 1.0)):
            if r is not None and c is not None:
                jac[r, c] += sign * g

    for el in net.elements:
        if type(el).__name__ == "Resistor":
            stamp(el.pos, el.neg, 1.0 / el.ohms)
    for b, el in enumerate(vsrcs, start=len(nodes)):
        for node, sign in ((el.pos, 1.0), (el.neg, -1.0)):
            if node in index:
                jac[index[node], b] += sign
                jac[b, index[node]] += sign
    if dt is not None:
        for pos, neg, c in _companions(net, 1e-15):
            stamp(pos, neg, 2.0 * c / dt)
    for i in range(len(nodes)):
        jac[i, i] += GMIN
    return jac


# the RC deck's transient plan and the probe deck's DC plan have no
# MOSFET; the floating-source deck has one
COMPILED = {"rc": (lambda: RC_EDGE, 1e-9),
            "probe": (lambda: parse_netlist("probe\nIIN 0 a DC 0\nR1 a 0 1meg\n.end\n"), None),
            "floating": (lambda: parse_netlist(FLOATING), 1e-9)}


def _assemble_twice(plan, rng):
    # different x, source values and companion currents each time
    out = []
    for _ in range(2):
        x = rng.uniform(-1.0, 3.0, plan.n_unknowns).tolist()
        e = rng.uniform(-1.0, 1.0, len(plan.specs)).tolist()
        ieq = rng.uniform(-1e-6, 1e-6, len(plan.caps)).tolist()
        out.append(plan.assemble(x, e, ieq).jac)
    return out


@pytest.mark.parametrize("deck", COMPILED)
def test_compiled_jacobian_matches_stamping_bit_for_bit(deck):
    netlist, dt = COMPILED[deck]
    net = netlist()
    np.testing.assert_array_equal(Plan(net, dt=dt).jac, _constant_jacobian(net, dt))


@pytest.mark.parametrize("deck", ["rc", "probe"])
def test_mosfet_free_plan_returns_one_read_only_jacobian(deck):
    netlist, dt = COMPILED[deck]
    plan = Plan(netlist(), dt=dt)
    first, second = _assemble_twice(plan, np.random.default_rng(3))
    assert first is second is plan.jac
    with pytest.raises(ValueError):
        first[0, 0] = 1.0
    # a tie changes J, so it is stamped onto a fresh copy
    tied = plan.assemble([0.0] * plan.n_unknowns, plan.source_values(0.0),
                         tie=1e-3, x0=[0.0] * plan.n_nodes).jac
    tie = np.diag([1e-3] * plan.n_nodes + [0.0] * (plan.n_unknowns - plan.n_nodes))
    assert tied is not plan.jac
    np.testing.assert_array_equal(tied, plan.jac + tie)


def test_mosfet_plan_assembles_a_fresh_writable_jacobian():
    netlist, dt = COMPILED["floating"]
    plan = Plan(netlist(), dt=dt)
    first, second = _assemble_twice(plan, np.random.default_rng(3))
    assert first is not second
    assert first is not plan.jac and second is not plan.jac
    assert first.flags.writeable and second.flags.writeable
    assert not np.array_equal(first, second)


def _spare_row_assembly(net, dt, x, e, ieq, tie, x0):
    """f, node scales, branch scales and J at x, every element stamped as
    if ground were one more unknown: both ends of every resistor, source,
    MOSFET and companion, ground's onto a spare trailing row and column
    that are dropped at the end. f and the scales sum resistors, current
    sources, voltage sources, MOSFETs, companions, gmin, then the tie; J
    is the constant part (_constant_jacobian), then the MOSFETs, then the
    tie. ``e`` holds the source values in element order."""
    nodes = [n for n in net.nodes if n != "0"]
    vsrcs = [el for el in net.elements if type(el).__name__ == "VSource"]
    nn, n = len(nodes), len(nodes) + len(vsrcs)
    index = {name: i for i, name in enumerate(nodes)} | {"0": n}
    value = dict(zip([el.name for el in net.elements
                      if type(el).__name__ in ("ISource", "VSource")], e))
    xl = [*x, 0.0]
    f, sc = [0.0] * (n + 1), [0.0] * (n + 1)
    jac = np.zeros((n + 1, n + 1))
    jac[:n, :n] = _constant_jacobian(net, dt)

    def stamp(p, q, i, scale):
        f[p] += i
        f[q] -= i
        sc[p] += scale
        sc[q] += scale

    def of_kind(kind):
        return [el for el in net.elements if type(el).__name__ == kind]

    for el in of_kind("Resistor"):
        p, q = index[el.pos], index[el.neg]
        i = 1.0 / el.ohms * (xl[p] - xl[q])
        stamp(p, q, i, abs(i))
    for el in of_kind("ISource"):
        stamp(index[el.pos], index[el.neg], value[el.name], abs(value[el.name]))
    for b, el in enumerate(vsrcs, start=nn):
        p, q = index[el.pos], index[el.neg]
        stamp(p, q, xl[b], abs(xl[b]))
        f[b] = (xl[p] - xl[q]) - value[el.name]
        sc[b] = abs(xl[p]) + abs(xl[q]) + abs(value[el.name])
    for el in of_kind("Mosfet"):
        d, g, s, m = index[el.d], index[el.g], index[el.s], el.model
        i, gm, gds = mos_kernel(kfactor(m, el.geom), mos_sign(m), m.vto, m.lam,
                                xl[g] - xl[s], xl[d] - xl[s])
        stamp(d, s, i, abs(i))
        jac[d, g] += gm
        jac[d, d] += gds
        jac[d, s] -= gm + gds
        jac[s, g] -= gm
        jac[s, d] -= gds
        jac[s, s] += gm + gds
    if dt is not None:
        for (pos, neg, c), q in zip(_companions(net, 1e-15), ieq, strict=True):
            p, r = index[pos], index[neg]
            gv = 2.0 * c / dt * (xl[p] - xl[r])
            stamp(p, r, gv + q, abs(gv) + abs(q))
    for i in range(nn):
        gx = GMIN * xl[i]
        f[i] += gx
        sc[i] += abs(gx)
    if tie:
        for i in range(nn):
            gx = tie * (xl[i] - x0[i])
            f[i] += gx
            jac[i, i] += tie
            sc[i] += abs(gx)
    return f[:n], sc[:nn], sc[nn:n], np.ascontiguousarray(jac[:n, :n])


# a capacitor written ground-first, so that its companion's ground end is
# p, and a MOSFET whose source is not ground
GROUND_FIRST = """ground-first capacitor
V1 vdd 0 DC 3
R1 vdd a 10k
C1 0 a 2p
M1 a a 0 0 nch W=2u L=1u
R2 a b 1k
M2 b a vdd vdd pch W=2u L=1u
C2 b 0 1p
.model nch NMOS (KP=120u VTO=0.5 LAMBDA=0.02 CGS=5f CGD=5f)
.model pch PMOS (KP=60u VTO=-0.5 LAMBDA=0.05 CGS=5f)
.end
"""


@pytest.mark.parametrize("build,dt", [("stock", None), ("capacitance", 1e-9),
                                      ("floating", 1e-9), ("ground-first", 1e-9)])
def test_assemble_matches_spare_row_stamping_bit_for_bit(build, dt, request):
    # the plan skips the ground row where a MOSFET's source or a companion's
    # end is ground; every other sum must keep its bits
    net = {"stock": lambda: build_comparator(ComparatorConfig()),
           "capacitance": lambda: request.getfixturevalue("capacitance_net"),
           "floating": lambda: parse_netlist(FLOATING),
           "ground-first": lambda: parse_netlist(GROUND_FIRST)}[build]()
    plan = Plan(net, dt=dt)
    nn, n = plan.n_nodes, plan.n_unknowns
    if build == "ground-first":
        # C1, M1's cgs, CMIN; node 1 is its node end
        assert (n, 1, 2.0 * (2e-12 + 5e-15 + 1e-15) / dt, 1) in plan.caps
    e = plan.source_values(0.0)
    rng = np.random.default_rng(41)
    ieq = rng.uniform(-1e-6, 1e-6, len(plan.caps)).tolist()
    x0 = rng.uniform(-0.5, 3.5, nn).tolist()
    for tie in (0.0, 1e-3):
        for _ in range(3):
            x = [*rng.uniform(-0.5, 3.5, nn), *rng.uniform(-1e-4, 1e-4, n - nn)]
            a = plan.assemble(x, e, ieq, tie, x0)
            f, node_scale, branch_scale, jac = _spare_row_assembly(net, dt, x, e, ieq, tie, x0)
            assert array("d", a.f).tobytes() == array("d", f).tobytes()
            assert array("d", a.scale[:nn]).tobytes() == array("d", node_scale).tobytes()
            assert array("d", a.scale[nn:]).tobytes() == array("d", branch_scale).tobytes()
            assert a.jac.tobytes() == jac.tobytes()


# two nodes tied to ground by 1e-308 ohm (1e308 S each: J's entries are
# finite, their sum is not), and an open capacitor whose two nodes only
# gmin holds in DC, where a guess of 1e308 V asks for steps of about -1e308
OVERFLOWING = """overflowing sums
V1 vdd 0 DC 3
R1 a 0 1e-308
R2 b 0 1e-308
M1 vdd vdd a 0 nch W=1u L=1u
C1 c d 1p
.model nch NMOS (KP=120u VTO=0.5)
.end
"""


def test_finite_reads_each_entry_when_the_sum_overflows():
    finite = solver_module._finite
    assert finite([]) and finite([1.0, -2.0])
    assert finite([1e308, 1e308]) and finite([-1e308, -1e308, 1e308])
    assert not finite([1e308, 1e308, float("nan")])
    assert not finite([1.0, float("inf")]) and not finite([float("-inf"), float("inf")])


def test_overflowing_sums_of_finite_entries_do_not_read_nonfinite(monkeypatch):
    plan = Plan(parse_netlist(OVERFLOWING))
    e = plan.source_values(0.0)
    a, b, c, d = (plan.index[name] for name in "abcd")
    solved = []

    def spy(jac, rhs):
        dx = solve(jac, rhs)
        solved.append((jac.ravel().tolist(), rhs, dx))
        return dx

    solve = solver_module._solve
    monkeypatch.setattr(solver_module, "_solve", spy)
    x0 = [0.0] * plan.n_unknowns
    x0[a] = x0[b] = 1.5
    x0[c] = x0[d] = 1e308
    assert plan.assemble(x0, e).jac_finite
    with solver_module._lapack_errors():
        _, _, iters, status = solver_module._newton(plan, x0, e=e)
    assert status == "maxiter" and iters == 100
    # the first iteration met all three overflowing sums and read on
    jac, rhs, dx = solved[0]
    for values in (jac, rhs, dx):
        assert all(map(isfinite, values)) and not isfinite(sum(values))

    # a non-finite entry still ends the run at once
    for i, v in ((a, 2.0), (c, float("nan"))):  # f[a] = 2e308 overflows; NaN
        x = list(x0)
        x[i] = v
        with solver_module._lapack_errors():
            assert solver_module._newton(plan, x, e=e)[2:] == (1, "nonfinite")
    x = list(x0)
    x[plan.index["vdd"]] = float("nan")  # M1's gate and drain: NaN in J
    assembled = plan.assemble(x, e)
    assert not assembled.jac_finite and not np.isfinite(assembled.jac).all()


def test_warm_solve_past_fold_rescued_by_pseudo_transient(monkeypatch):
    # an IREF variant whose down fold leaves the -4.1 uA point stranded:
    # both plain runs fail at -4.15 uA, and pseudo-transient continuation
    # from zero follows the circuit down to the low branch
    net = build_comparator(ComparatorConfig()).replaced_source(
        "IREF", DcSpec(-5.498739455983647e-07))
    curve = dc_sweep(net, "IIN", 8e-6, -4.1e-6, 50e-9)
    value, guess = curve.times()[-1], _sample_volts(curve, -1)
    assert value == pytest.approx(-4.1e-6)
    runs = []
    real = solver_module._newton

    def spy(sys_, x0, g=0.0, *args, **kwargs):
        result = real(sys_, x0, g, *args, **kwargs)
        runs.append((list(x0[:sys_.n_nodes]), g, result[2], result[3]))
        return result

    monkeypatch.setattr(solver_module, "_newton", spy)
    hot = net.replaced_source("IIN", DcSpec(-4.15e-6))
    sol = dc_solve(hot, initial_guess=guess)
    verify_kcl(hot, sol)
    # the up sweep reaches this point by warm plain Newton, at OUT =
    # 0.3135155851379468; the answer agrees to 1e-12 V
    assert sol.node_voltages["OUT"] == pytest.approx(0.3135155851379468, abs=1e-12)
    nodes = [n for n in net.nodes if n != "0"]
    zero = [0.0] * len(nodes)
    # both plain runs end early, where each used to run 100 iterations
    assert runs[0] == ([guess[n] for n in nodes], 0.0, 18, "stalled")
    assert runs[1] == (zero, 0.0, 21, "stalled")
    assert runs[2][:2] == (zero, solver_module._PTC_G_START)
    assert all(g > 0.0 for _, g, _, _ in runs[2:-1])
    assert runs[-1][1] == 0.0 and runs[-1][3] == "ok"  # the plain finish
    # each pseudo-transient step takes its solved step on every node
    assert sol.iterations == sum(iters for *_, iters, _ in runs) == 75


# a Monte Carlo W-mismatch instance of the stock build (5 % sigma per
# device) whose plain Newton from zero does not converge
MISMATCH_DECK = """current comparator (hysteresis variant)
VDD VDD 0 DC 3
IIN 0 A DC 1.80583613017e-06
IREF 0 B DC 0
M1 A B 0 0 nm W=0.186655u L=0.72u
M2 B B 0 0 nm W=0.165899u L=0.72u
M3 A A VDD VDD pm W=0.505433u L=0.72u
M4 B B VDD VDD pm W=0.548031u L=0.72u
M5 C A VDD VDD pm W=1.11375u L=0.18u
M6 D B VDD VDD pm W=1.10149u L=0.18u
M7 C C 0 0 nm W=0.282054u L=0.18u
M8 C D 0 0 nm W=0.341594u L=0.18u
M9 D C 0 0 nm W=0.393775u L=0.18u
M10 D D 0 0 nm W=0.266258u L=0.18u
MPI OUT C VDD VDD pm W=0.56057u L=0.18u
MNI OUT C 0 0 nm W=0.183583u L=0.18u
.model nm NMOS (KP=0.00017 VTO=0.5 LAMBDA=0.05)
.model pm PMOS (KP=6e-05 VTO=-0.5 LAMBDA=0.05)
.end
"""


def test_pseudo_transient_rescues_cold_solve(monkeypatch):
    # plain Newton from zero stops contracting and ends early (it used to
    # run 100 iterations); pseudo-transient steps then carry the circuit
    # to where plain Newton converges
    net = parse_netlist(MISMATCH_DECK)
    runs = _spy_runs(monkeypatch)
    sol = dc_solve(net)
    verify_kcl(net, sol)
    assert sol.node_voltages["OUT"] == pytest.approx(0.3872, abs=1e-4)
    assert runs[0] == (0.0, 20, "stalled")
    assert runs[1][0] == solver_module._PTC_G_START
    assert all(g > 0.0 for g, _, _ in runs[1:-1])
    assert runs[-1][0] == 0.0 and runs[-1][2] == "ok"  # the plain finish
    # each pseudo-transient step takes its solved step on every node
    assert sol.iterations == sum(iters for _, iters, _ in runs) == 55


@pytest.mark.parametrize("guess", [{}, {"nowhere": 1.0}], ids=["empty", "no-node"])
def test_zero_warm_start_is_the_cold_start(monkeypatch, guess):
    # a guess that sets no node starts from zero, so its failed plain run
    # is not repeated from zero before pseudo-transient continuation
    net = parse_netlist(MISMATCH_DECK)
    runs = _spy_runs(monkeypatch)
    cold = dc_solve(net)
    cold_runs = runs.copy()
    runs.clear()
    warm = dc_solve(net, initial_guess=guess)
    assert runs == cold_runs
    assert [g for g, _, _ in runs[:2]] == [0.0, solver_module._PTC_G_START]
    assert warm.iterations == cold.iterations == 55
    assert warm.node_voltages == cold.node_voltages
    # a start of zeros of either sign is the cold start too
    runs.clear()
    assert dc_solve(net, initial_guess={"A": -0.0}).iterations == 55
    assert runs == cold_runs


def test_pseudo_transient_places_a_120_volt_supply(monkeypatch):
    # plain Newton climbs the 120 V node by the 1 V clamp and runs out of
    # iterations; a pseudo-transient step takes its solved step unclamped,
    # so V1's branch row lands the node on the source's value
    net = parse_netlist("120 volts\nV1 a 0 DC 120\nR1 a 0 1k\n.end\n")
    runs = _spy_runs(monkeypatch)
    sol = dc_solve(net)
    verify_kcl(net, sol)
    assert sol.node_voltages["a"] == 120.0
    assert runs[0] == (0.0, 100, "maxiter")  # the plain run is clamped as before
    assert any(g > 0.0 for g, _, _ in runs)


# Monte Carlo W-mismatch instance of the stock build whose plain Newton
# from zero does not converge and which source stepping, the stage that
# pseudo-transient continuation replaced, failed to solve
MISMATCH_DECK_SOURCE_STEPPING = """current comparator (hysteresis variant)
VDD VDD 0 DC 3
IIN 0 A DC 1.44204697594e-06
IREF 0 B DC 0
M1 A B 0 0 nm W=0.180657u L=0.72u
M2 B B 0 0 nm W=0.153561u L=0.72u
M3 A A VDD VDD pm W=0.545653u L=0.72u
M4 B B VDD VDD pm W=0.50017u L=0.72u
M5 C A VDD VDD pm W=1.14214u L=0.18u
M6 D B VDD VDD pm W=1.06732u L=0.18u
M7 C C 0 0 nm W=0.297231u L=0.18u
M8 C D 0 0 nm W=0.331487u L=0.18u
M9 D C 0 0 nm W=0.354084u L=0.18u
M10 D D 0 0 nm W=0.271454u L=0.18u
MPI OUT C VDD VDD pm W=0.573696u L=0.18u
MNI OUT C 0 0 nm W=0.17981u L=0.18u
.model nm NMOS (KP=0.00017 VTO=0.5 LAMBDA=0.05)
.model pm PMOS (KP=6e-05 VTO=-0.5 LAMBDA=0.05)
.end
"""


def test_pseudo_transient_solves_where_source_stepping_failed():
    net = parse_netlist(MISMATCH_DECK_SOURCE_STEPPING)
    sol = dc_solve(net)
    verify_kcl(net, sol)
    assert sol.node_voltages["OUT"] == pytest.approx(0.5941, abs=1e-4)


def test_down_sweep_completes_past_iref_variant_fold(monkeypatch):
    # both plain runs fail just past this variant's down fold, at -3.55 uA
    net = build_comparator(ComparatorConfig()).replaced_source(
        "IREF", DcSpec(-2.563959656879562e-09))
    down = dc_sweep(net, "IIN", 8e-6, -8e-6, 50e-9)
    assert len(down.samples) == 321
    # the solve that failed, warm from the last point before the fold
    value, guess = down.times()[230], _sample_volts(down, 230)
    assert value == pytest.approx(-3.5e-6)
    runs = _spy_runs(monkeypatch)
    low = net.replaced_source("IIN", DcSpec(-3.55e-6))
    sol = dc_solve(low, initial_guess=guess)
    verify_kcl(low, sol)
    # both plain runs fail, then pseudo-transient continuation solves it
    assert [(g, status) for g, _, status in runs[:2]] == [(0.0, "stalled")] * 2
    assert runs[2][0] == solver_module._PTC_G_START
    assert runs[-1][::2] == (0.0, "ok")


def _sweep_solving_each_point(sweep_chain, net, values):
    """The samples of dc_sweep(net, "IIN", ...) at ``values`` by a chain
    of dc_solve calls, each guessed as Plan.sweep starts its points."""
    return np.array([[v, *(sol.node_voltages[n] for n in net.nodes if n != "0")]
                     for v, sol in sweep_chain(net, "IIN", values)])


@pytest.mark.parametrize("iref,start,stop", [
    (None, -8e-6, 8e-6),
    (None, 8e-6, -8e-6),
    # the down sweep of test_down_sweep_completes_past_iref_variant_fold,
    # whose -3.55 uA point is solved by pseudo-transient continuation
    (-2.563959656879562e-09, 8e-6, -8e-6),
], ids=["stock-up", "stock-down", "iref-variant-down"])
def test_sweep_matches_solving_each_point(monkeypatch, sweep_chain, iref, start, stop):
    net = build_comparator(ComparatorConfig())
    if iref is not None:
        net = net.replaced_source("IREF", DcSpec(iref))
    runs = _spy_runs(monkeypatch)
    curve = dc_sweep(net, "IIN", start, stop, 50e-9)
    assert len(curve.samples) == 321
    reference = _sweep_solving_each_point(sweep_chain, net, curve.times().tolist())
    assert curve.samples.tobytes() == reference.tobytes()
    if iref is not None:
        assert any(g > 0.0 for g, _, _ in runs)


def test_sweep_leaves_the_plan_as_compiled():
    net = build_comparator(ComparatorConfig())
    plan = Plan(net)
    plan.sweep("IIN", [-1e-6, 0.0, 2e-6])
    assert plan.specs == Plan(net).specs
    # a sweep value passes DcSpec's check, as a netlist's source value does
    with pytest.raises(NetlistError, match="must be finite"):
        plan.sweep("IIN", [0.0, float("nan")])
    assert plan.specs == Plan(net).specs


def test_predicted_sweep_starts_halve_the_newton_iterations(monkeypatch):
    # warm from the last point's voltages, the stock up and down sweeps
    # took 1,521 iterations, 2 stalled runs and no pseudo-transient step
    net = build_comparator(ComparatorConfig())
    runs = _spy_runs(monkeypatch)
    dc_sweep(net, "IIN", -8e-6, 8e-6, 50e-9)
    dc_sweep(net, "IIN", 8e-6, -8e-6, 50e-9)
    assert sum(iters for _, iters, _ in runs) <= 800
    assert sum(status == "stalled" for _, _, status in runs) == 2
    assert not any(g > 0.0 for g, _, _ in runs)


def _spy_work(monkeypatch):
    """Count Plan.assemble and _solve calls, and record every _newton run."""
    counts = {"assemble": 0, "solve": 0}
    real_assemble, real_solve = Plan.assemble, solver_module._solve

    def assemble(*args, **kwargs):
        counts["assemble"] += 1
        return real_assemble(*args, **kwargs)

    def solve(*args):
        counts["solve"] += 1
        return real_solve(*args)

    monkeypatch.setattr(Plan, "assemble", assemble)
    monkeypatch.setattr(solver_module, "_solve", solve)
    return counts, _spy_runs(monkeypatch)


def test_dc_runs_assemble_and_solve_once_per_iteration(monkeypatch):
    # a converged DC run takes its solved step, with no polish assembly,
    # so every Newton iteration is one assembly and one solve
    net = build_comparator(ComparatorConfig())
    counts, runs = _spy_work(monkeypatch)
    dc_sweep(net, "IIN", -8e-6, 8e-6, 50e-9)
    dc_sweep(net, "IIN", 8e-6, -8e-6, 50e-9)
    iters = sum(n for _, n, _ in runs)
    assert counts == {"assemble": iters, "solve": iters}
    assert iters == 761
    counts.update(assemble=0, solve=0)
    assert dc_solve(net).iterations == 8
    assert counts == {"assemble": 8, "solve": 8}


def test_guess_reads_branch_currents_by_unknown_name():
    net = build_comparator(ComparatorConfig())
    sol = dc_solve(net)
    plan = Plan(net)
    assert plan.index["I(VDD)"] == plan.n_nodes
    # the node VDD and the branch I(VDD) are two unknowns
    guess = {**sol.node_voltages, "I(VDD)": sol.branch_currents["VDD"], "I(IIN)": 1.0}
    x = plan.vector_from_guess(guess)
    assert x == [*(sol.node_voltages[n] for n in plan.node_names), sol.branch_currents["VDD"]]
    # from a solved point, only its branch current spares the second iteration
    assert dc_solve(net, guess).iterations == 1
    assert dc_solve(net, sol.node_voltages).iterations == 2


def _spy_starts(monkeypatch):
    """Record (first start, x) of every sweep point's _dc_point call."""
    points = []
    real = solver_module._dc_point

    def spy(plan, e, starts):
        x, iters = real(plan, e, starts)
        points.append((starts[0], x))
        return x, iters

    monkeypatch.setattr(solver_module, "_dc_point", spy)
    return points


def _warm_start(x, n_nodes):
    """Plan.sweep's start without a prediction: x's voltages, branches zero."""
    return x[:n_nodes] + [0.0] * (len(x) - n_nodes)


def test_repeated_sweep_values_are_not_extrapolated(monkeypatch):
    # approached from the value itself, the walk holds IIN at 1 uA 32
    # times: every step is 0, so no point may be extrapolated. The 33rd
    # point is the end point, which dc_solve starts warm as well.
    net = build_comparator(ComparatorConfig())
    points = _spy_starts(monkeypatch)
    branch_solution_at(net, "IIN", 1e-6, approach_from=1e-6)
    nn = Plan(net).n_nodes
    assert len(points) == 33
    for (_, before), (start, _) in zip(points, points[1:]):
        assert start == _warm_start(before, nn)


def test_uneven_last_sweep_step_is_not_extrapolated(monkeypatch):
    # the grid ends 50 nA steps at 7.95 uA and appends 7.99 uA
    net = build_comparator(ComparatorConfig())
    points = _spy_starts(monkeypatch)
    curve = dc_sweep(net, "IIN", -8e-6, 7.99e-6, 50e-9)
    assert curve.times()[-3:].tolist() == pytest.approx([7.9e-6, 7.95e-6, 7.99e-6])
    nn = Plan(net).n_nodes
    (_, x_a), (start_b, x_b), (start_c, _) = points[-3:]
    assert start_b != _warm_start(x_a, nn)  # the even steps before it were extrapolated
    assert start_c == _warm_start(x_b, nn)


# a 3 V edge in 1 ps moves node "in" by more than dv_clamp in one 1 ns
# step, so that step's Newton run is clamped
RC_EDGE = parse_netlist("rc edge\nV1 in 0 PULSE(0 3 10n 1p 1p 200n 0)\n"
                        "R1 in out 1k\nC1 out 0 1n\n.end\n")


@contextmanager
def _count_solves(monkeypatch):
    """Record (J, rhs) of every linear solve of the Newton path.

    Fails unless at least one solve was recorded, so a solve that
    bypasses solver._solve cannot make a count pass vacuously.
    """
    calls = []
    real = solver_module._solve

    def spy(jac, b):
        calls.append((jac.copy(), list(b)))
        return real(jac, b)

    with monkeypatch.context() as m:
        m.setattr(solver_module, "_solve", spy)
        yield calls
    assert calls, "no linear solve went through solver._solve"


def test_step_bound_keeps_transient_bit_identical(monkeypatch):
    # skipping the confirming solve must accept the same points as solving it
    iterations = []
    real = solver_module._newton

    def spy(*args, **kwargs):
        result = real(*args, **kwargs)
        iterations.append(result[2])
        return result

    monkeypatch.setattr(solver_module, "_newton", spy)
    with _count_solves(monkeypatch) as calls:
        bounded = transient(RC_EDGE, 1e-9, 100e-9)
    bounded_solves = len(calls)
    # the clamped edge step: two clamped steps, then the solved step that
    # the certificate accepts
    assert max(iterations) == 3

    monkeypatch.setattr(solver_module, "_inverse_norm", lambda jac: float("inf"))
    with _count_solves(monkeypatch) as calls:
        solved = transient(RC_EDGE, 1e-9, 100e-9)
    assert repr(bounded) == repr(solved)
    assert bounded_solves < len(calls)


def test_step_bound_waits_on_a_high_impedance_node(monkeypatch):
    # one clamped step leaves the node 0.02 V short of 1.02 V: its
    # residual of 2.2e-13 A already passes, but the step to the answer
    # does not, so the bound must not accept that iterate. The second
    # iteration solves that step, and the certificate accepts its end
    net = parse_netlist("hiz\nI1 0 a DC 1.122e-11\nR1 a 0 1e11\n.end\n")
    bounded = dc_solve(net)
    monkeypatch.setattr(solver_module, "_inverse_norm", lambda jac: float("inf"))
    solved = dc_solve(net)
    assert repr((bounded.node_voltages, bounded.branch_currents)) == repr(
        (solved.node_voltages, solved.branch_currents))
    assert abs(bounded.node_voltages["a"] - 1.02) < 1e-9  # not the clamped 1.0 V
    assert (bounded.iterations, solved.iterations) == (2, 3)


def test_linear_transient_solves_once_per_step(monkeypatch):
    with _count_solves(monkeypatch) as calls:
        transient(RC_EDGE, 1e-9, 500e-9)
    assert len(calls) <= 1.1 * 500


def test_linear_dc_solve_takes_the_bounded_point_unpolished(monkeypatch):
    # the certificate returns the solved iterate as it is, the point that
    # the step bound accepted unsolved at a second iteration before it:
    # the first iteration's solve is the only one, and nothing is
    # assembled at its end
    counts, _ = _spy_work(monkeypatch)
    sol = dc_solve(parse_netlist("vr\nV1 a 0 DC 1\nR1 a 0 1k\n.end\n"))
    assert counts == {"assemble": 1, "solve": 1}
    assert repr(sol) == ("Solution(node_voltages={'0': 0.0, 'a': 1.0}, "
                         "branch_currents={'V1': -0.001000000001}, iterations=1)")


def test_certificate_declines_a_resistor_from_a_node_to_itself():
    # R2 stamps +1 S and -1 S into a's diagonal, whose sum then rounds
    # (the branch current reads -0.0010000000009998899 A): the bound's
    # proof excludes such cancellation, so the step bound takes the run
    net = parse_netlist("self\nV1 a 0 DC 1\nR1 a 0 1k\nR2 a a 1\n.end\n")
    assert solver_module.Plan(net).certificate == (float("inf"),) * 3
    sol = dc_solve(net)
    assert (sol.node_voltages["a"], sol.iterations) == (1.0, 2)


def _reference_bounds(plan):
    """(4*beta, c_scale, c_step, c_x) of ``plan`` by the formulas of
    Plan.inverse_norm and Plan.certificate written out: beta through
    np.linalg.inv, and ||J||_inf summed for each use."""
    jac, n = plan.jac, plan.n_unknowns
    try:
        beta = float(np.abs(np.linalg.inv(jac)).sum(axis=1).max(initial=0.0))
    except np.linalg.LinAlgError:
        beta = float("inf")
    if not float(np.abs(jac).sum(axis=1).max(initial=0.0)) * beta <= 1e12:
        beta = float("inf")
    if any(p == q for p, q, _ in plan.resistors):
        return 4.0 * beta, *(float("inf"),) * 3
    norm = float(np.abs(jac).sum(axis=1).max(initial=0.0))
    u = 2.0**-53
    terms = 2 * (len(plan.resistors) + len(plan.isources) + len(plan.vsources)
                 + len(plan.caps)) + 4
    sums = terms * u / (1.0 - terms * u)
    lu = 3 * n * u / (1.0 - 3 * n * u) * (1.0 + 2.0 * (n * n - n) * 2.0 ** (n - 1))
    return 4.0 * beta, 4.0 * sums, 2.0 * (lu + 2.0 * sums) * norm, 4.0 * u * norm


def test_plan_bounds_keep_the_formulas_bit_for_bit():
    # the step bound's 4*beta and the certificate, cached in one tuple,
    # keep the bits of np.linalg.inv and of ||J||_inf computed per use:
    # on random linear plans, DC and transient, and on an RC deck's plans
    # at every step length a transient takes
    plans = [Plan(RC_EDGE, m * 1e-9) for m in (1, 2, 4, 8, 16)]
    for seed in (*range(30), *TIGHT_LINEAR_SEEDS):
        net = random_linear(seed)
        plans += [Plan(net), Plan(net, 1e-9)]
    for plan in plans:
        want = _reference_bounds(plan)
        assert _same_bits(plan.bounds, want)
        assert _same_bits((4.0 * plan.inverse_norm, *plan.certificate), want)


@pytest.mark.parametrize("deck, start, solves", [
    # f overflows before anything is solved
    ("nan\nV1 a 0 DC 1\nR1 a 0 1k\n.end\n", float("nan"), 0),
    # 1e300 A through 1e12 ohm: the first solved step overflows
    ("overflow\nI1 0 a DC 1e300\nR1 a 0 1e12\n.end\n", 0.0, 1),
], ids=["nonfinite-f", "nonfinite-dx"])
def test_linear_first_iteration_ends_on_a_nonfinite_value(monkeypatch, deck, start, solves):
    plan = Plan(parse_netlist(deck))
    counts, _ = _spy_work(monkeypatch)
    with solver_module._lapack_errors():
        result = solver_module._newton(plan, [start] * plan.n_unknowns,
                                       e=plan.source_values(0.0))
    assert result[2:] == (1, "nonfinite")
    assert counts == {"assemble": 1, "solve": solves}


def test_linear_runs_assemble_and_solve_at_most_once_per_iteration(monkeypatch):
    # each iteration of a linear run assembles once and solves at most
    # once: the step bound, the certificate and the step test all read
    # that one assembly. Runs that go on after a clamped step or a
    # declined certificate must occur
    runs, run = [], None
    real_newton, real_assemble = solver_module._newton, Plan.assemble
    real_solve, real_certified = solver_module._solve, solver_module._certified

    def newton(plan, x0, g=0.0, **kwargs):
        nonlocal run
        run = {"plan": plan, "events": []}
        result = real_newton(plan, x0, g, **kwargs)
        run["iters"], run["status"] = result[2:]
        runs.append(run)
        run = None
        return result

    def assemble(plan, *args, **kwargs):
        if run is not None:
            run["events"].append("assemble")
        return real_assemble(plan, *args, **kwargs)

    def solve(jac, rhs):
        dx = real_solve(jac, rhs)
        nn = run["plan"].n_nodes
        run["events"].append("clamped" if max(map(abs, dx[:nn])) > 1.0 else "solve")
        return dx

    def certified(*args):
        ok = real_certified(*args)
        run["events"].append("certified" if ok else "declined")
        return ok

    monkeypatch.setattr(solver_module, "_newton", newton)
    monkeypatch.setattr(Plan, "assemble", assemble)
    monkeypatch.setattr(solver_module, "_solve", solve)
    monkeypatch.setattr(solver_module, "_certified", certified)
    for seed in (*range(30), *TIGHT_LINEAR_SEEDS):
        net = random_linear(seed)
        for analysis in (lambda: dc_solve(net), lambda: transient(net, 1e-9, 200e-9)):
            try:
                analysis()
            except HystlabError:
                pass
    went_on = {"clamped": 0, "declined": 0}
    for r in runs:
        events, iters = r["events"], r["iters"]
        assert events.count("assemble") == iters + (r["status"] == "maxiter")
        assert events.count("clamped") + events.count("solve") <= iters
        for kind in went_on:
            went_on[kind] += iters > 1 and kind in events
    assert len(runs) > 1000
    assert went_on["clamped"] > 0 and went_on["declined"] > 0, went_on


def test_transient_step_returns_x_plus_dx_and_repeats_no_solve(monkeypatch, capacitance_net):
    # a converged MOSFET run returns x + dx, dx solved at the last x it
    # assembled; a transient step is no exception, settled or not. No
    # linear system is solved twice in a row. At dt = 0.25 ns the delay
    # bench's plateaus settle, and its steps grow past dt
    last = {}
    real_assemble, real_solve = Plan.assemble, solver_module._solve
    real_newton = solver_module._newton

    def assemble(plan, x, *args, **kwargs):
        last["x"] = x
        return real_assemble(plan, x, *args, **kwargs)

    def solve(jac, b):
        last["dx"] = real_solve(jac, b)
        return last["dx"]

    lengths = []

    def newton(plan, x0, *args, **kwargs):
        x, _, _, status = result = real_newton(plan, x0, *args, **kwargs)
        if status == "ok":
            want = [xi + di for xi, di in zip(last["x"], last["dx"])]
            assert _same_bits(x, want)
            lengths.append(plan.dt)
        return result

    monkeypatch.setattr(Plan, "assemble", assemble)
    monkeypatch.setattr(solver_module, "_solve", solve)
    monkeypatch.setattr(solver_module, "_newton", newton)
    with _count_solves(monkeypatch) as calls:
        transient(_delay_bench(capacitance_net, 8e-6), 0.25e-9, 200e-9)
    assert max(dt for dt in lengths if dt is not None) > 0.25e-9
    for (jac0, b0), (jac1, b1) in zip(calls, calls[1:]):
        assert not (np.array_equal(jac0, jac1) and b0 == b1)


def test_transient_assembles_and_solves_once_per_iteration(monkeypatch, capacitance_net):
    # a MOSFET transient step, settled or not, spends exactly one
    # assembly and one linear solve per Newton iteration. Steps chosen by
    # the truncation error take 233 runs, one of them the DC point, and
    # 419 iterations, against 351 runs and 517 iterations in steps of dt
    counts, runs = _spy_work(monkeypatch)
    transient(_delay_bench(capacitance_net, 8e-6), 1e-9, 800e-9)
    iters = sum(n for _, n, _ in runs)
    assert counts == {"assemble": iters, "solve": iters}
    assert len(runs) == 233
    assert iters <= 440


def _delay_bench(net, amp, period=400e-9):
    """The square-wave bench of criteria 11-12 on ``net``'s IIN."""
    rise = period / 20.0
    return net.replaced_source("IIN", PulseSpec(v1=-amp, v2=amp, delay=0.0, rise=rise,
                                                fall=rise, width=period / 2.0 - rise,
                                                period=period))


def _fixed_steps(net, dt, n_steps):
    """The samples of a transient of ``net`` over n_steps fixed steps of
    dt: _newton on each step from the point before, then Plan.advance."""
    plan = Plan(net, dt=dt)
    nn = plan.n_nodes
    start = dc_solve(net)
    x = plan.vector_from_guess(start.node_voltages)
    x[nn:] = [start.branch_currents[name] for name in plan.vsource_names]
    ieq = plan.ieq_from(x, [0.0] * len(plan.caps))  # no current flows at the DC point
    rows = [x[:nn]]
    with solver_module._lapack_errors():
        for k in range(1, n_steps + 1):
            x, _, _, status = solver_module._newton(
                plan, x, e=plan.source_values(k * dt), ieq=ieq)
            assert status == "ok"
            _, ieq = plan.advance(x, ieq)
            rows.append(x[:nn])
    return np.column_stack((np.arange(n_steps + 1) * dt, rows))


@pytest.fixture(scope="module")
def fine_delay_bench(capacitance_net):
    """amp -> the samples of _delay_bench(capacitance_net, amp) over 800
    ns in fixed steps of dt/8 = 0.125 ns, each run once per module."""
    runs = {}

    def run(amp):
        if amp not in runs:
            runs[amp] = _fixed_steps(_delay_bench(capacitance_net, amp), 1e-9 / 8, 6400)
        return runs[amp]

    return run


# max |V - V at dt/8| over every node and row of _delay_bench(capacitance_net,
# amp) when every step is dt = 1 ns, rounded up [V]; and the multiple of it
# that steps chosen by the truncation error may reach. At 1 uA the absolute
# _LTE_TOL per step bounds them, not the error of steps of dt: 13.9 times
# it, measured; at 8 and 100 uA they err as steps of dt do
CAP_FIXED_STEP_ERROR = {1e-6: 8.6e-5, 8e-6: 2.33e-3, 100e-6: 3.2e-2}
CAP_ERROR_RATIO = {1e-6: 14.0, 8e-6: 1.01, 100e-6: 1.01}


@pytest.mark.parametrize("amp", [1e-6, 8e-6, 100e-6, None],
                         ids=["cap-1u", "cap-8u", "cap-100u", "rc-edge"])
def test_transient_samples_stay_near_fine_steps_or_the_closed_form(
        amp, capacitance_net, fine_delay_bench):
    # every plan takes steps longer than dt, so no run in steps of dt has
    # their samples; the delay bench's samples are held to fixed steps of
    # dt/8 instead, within CAP_ERROR_RATIO times the error of steps of dt
    if amp is None:
        # RC_EDGE's samples are held to the closed form. Fixed steps of dt
        # err by 1.498e-3 V there, set by the 1 ps edges between grid
        # points; the longer steps may add RC_MARGIN
        wave = transient(RC_EDGE, 1e-9, 500e-9)
        exact = 3.0 * _rc_pulse_response(wave.times(), 1e-6, 10e-9, 1e-12, 200e-9, 1e-12)
        assert np.max(np.abs(wave.node("out") - exact)) < 1.498e-3 + RC_MARGIN
        return
    wave = transient(_delay_bench(capacitance_net, amp), 1e-9, 800e-9)
    fine = fine_delay_bench(amp)[::8]
    assert wave.times().tolist() == fine[:, 0].tolist()
    error = np.max(np.abs(wave.samples[:, 1:] - fine[:, 1:]))
    assert error < CAP_ERROR_RATIO[amp] * CAP_FIXED_STEP_ERROR[amp]


# |t - t at dt/8| / (t at dt/8) of (t_plh, t_phl) on _delay_bench(capacitance_net,
# amp) when every step is dt = 1 ns, rounded up; steps chosen by the
# truncation error may add DELAY_MARGIN to either
CAP_FIXED_STEP_DELAY_ERROR = {1e-6: (1.14e-4, 1.21e-4), 8e-6: (1.164e-3, 8.45e-4),
                              100e-6: (8.52e-3, 7.33e-3)}
DELAY_MARGIN = 5e-4


@pytest.mark.parametrize("amp", [1e-6, 8e-6, 100e-6], ids=["cap-1u", "cap-8u", "cap-100u"])
def test_mosfet_transient_keeps_the_delays_of_fine_fixed_steps(
        monkeypatch, amp, capacitance_net, fine_delay_bench):
    # the delays of criteria 11-12 agree with fixed steps of dt/8 within
    # the error of fixed steps of dt plus DELAY_MARGIN, and a settling
    # tail, where IIN is flat, takes some step longer than dt
    net = _delay_bench(capacitance_net, amp)
    fine = fine_delay_bench(amp)
    steps = _spy_steps(monkeypatch)
    wave = transient(net, 1e-9, 800e-9)
    out = 1 + list(wave.nodes).index("OUT")

    def delays(samples):
        t = samples[:, 0]
        rep = measure_delay(t, source_trace(net, "IIN", t), samples[:, out], 3.0)
        return rep.t_plh, rep.t_phl

    for got, want, error in zip(delays(wave.samples), delays(fine),
                                CAP_FIXED_STEP_DELAY_ERROR[amp]):
        assert abs(got - want) <= (error + DELAY_MARGIN) * want
    spec = net.find_source("IIN").spec
    assert any(h > 1e-9 and spec.value_at(t - h) == spec.value_at(t) for t, h, _ in steps)


def _spy_steps(monkeypatch):
    """Record every transient step attempted as [end time, step length,
    Newton run]; a run is (x0, result).

    Plan.steps reads the source values at each step's end, once per
    attempt and on the step's own plan, then runs Newton; no other caller
    reads them on a plan with a dt.
    """
    steps = []
    real_values, real_newton = Plan.source_values, solver_module._newton

    def source_values(plan, time):
        if plan.dt is not None:
            steps.append([time, plan.dt, None])
        return real_values(plan, time)

    def newton(plan, x0, *args, **kwargs):
        result = real_newton(plan, x0, *args, **kwargs)
        if steps and plan.dt is not None:
            steps[-1][2] = (x0, result)
        return result

    monkeypatch.setattr(Plan, "source_values", source_values)
    monkeypatch.setattr(solver_module, "_newton", newton)
    return steps


def test_mosfet_free_transient_starts_each_step_from_the_last_point(monkeypatch):
    # no prediction without a MOSFET: every attempted step runs Newton
    # from the last accepted point, bit for bit, branch current included.
    # A step is accepted unless the next one ends no later (it was redone
    # shorter). Rows at accepted points are those points
    steps = _spy_steps(monkeypatch)
    start = dc_solve(RC_EDGE)
    wave = transient(RC_EDGE, 1e-9, 500e-9)
    points = [[start.node_voltages["in"], start.node_voltages["out"],
               start.branch_currents["V1"]]]
    times = [0.0]
    assert all(run is not None for _, _, run in steps)  # no step skips Newton
    for (t, _, run), after in zip(steps, [*steps[1:], None]):
        assert _same_bits(run[0], points[-1]), t
        assert run[1][3] == "ok"
        if after is None or after[0] > t:
            points.append(run[1][0])
            times.append(t)
    assert times[-1] == 500 * 1e-9 and len(times) < 100  # steps longer than dt
    rows = wave.samples[[round(t / 1e-9) for t in times], 1:]
    assert rows.tolist() == [x[:2] for x in points]


# the error of RC_EDGE and of each _rc_pulse_deck against the closed form may
# exceed that of fixed steps of dt by this much [V]
RC_MARGIN = 2e-5


def _rc_pulse_deck(seed):
    """A single-pole RC low-pass driven by one 0-1 V pulse, with seeded
    R (about 1 kOhm), C (about 1 nF), delay, rise, fall and width:
    (netlist, tau, (delay, rise, width, fall))."""
    rng = random.Random(seed)
    ohms = 1e3 * 2.0 ** rng.uniform(-0.5, 0.5)
    farads = 1e-9 * 2.0 ** rng.uniform(-0.5, 0.5)
    delay = rng.uniform(0.0, 0.5e-6)
    rise, fall = rng.uniform(1e-12, 50e-9), rng.uniform(1e-12, 50e-9)
    width = rng.uniform(1e-6, 3e-6)
    net = parse_netlist(f"rc pulse\nV1 in 0 PULSE(0 1 {delay!r} {rise!r} {fall!r} {width!r} 0)\n"
                        f"R1 in out {ohms!r}\nC1 out 0 {farads!r}\n.end\n")
    return net, ohms * farads, (delay, rise, width, fall)


def _rc_pulse_response(t, tau, delay, rise, width, fall):
    """Exact RC response to a 0-1 V trapezoidal pulse: the sum of the
    responses s*(u - tau*(1 - exp(-u/tau))) to the four ramps, u the time
    since each corner and s its change of slope."""
    top = delay + rise + width
    out = np.zeros_like(t)
    for corner, slope in ((delay, 1.0 / rise), (delay + rise, -1.0 / rise),
                          (top, -1.0 / fall), (top + fall, 1.0 / fall)):
        u = np.clip(t - corner, 0.0, None)
        out += slope * (u + tau * np.expm1(-u / tau))
    return out


# max |out - closed form| of _rc_pulse_deck(seed) over 5 us when every step
# is dt = 1 ns, rounded up
FIXED_STEP_ERROR = {0: 5.2e-6, 1: 5.8e-6, 2: 1.26e-5, 3: 4.3e-6,
                    4: 3.9e-5, 5: 2.7e-6, 6: 1.65e-4, 7: 5.0e-5}


@pytest.mark.parametrize("seed", sorted(FIXED_STEP_ERROR))
def test_seeded_rc_pulse_keeps_the_grid_and_the_closed_form(seed):
    net, tau, pulse = _rc_pulse_deck(seed)
    wave = transient(net, 1e-9, 5e-6)
    assert wave.times().tolist() == [k * 1e-9 for k in range(5001)]
    exact = _rc_pulse_response(wave.times(), tau, *pulse)
    assert np.max(np.abs(wave.node("out") - exact)) < FIXED_STEP_ERROR[seed] + RC_MARGIN


def _corners(delay, rise, width, fall):
    return (delay, delay + rise, delay + rise + width, delay + rise + width + fall)


@pytest.mark.parametrize("case", ["rc-edge", *range(4), "cap-8u"])
def test_only_steps_of_dt_reach_a_source_corner(monkeypatch, request, case):
    # with MOSFETs or without, every step is 2**j * dt, at most 16*dt, on
    # a plan compiled once at its length. A step longer than dt holds no
    # PULSE corner, not even at its end; each corner lies in a step of dt
    stop = 5e-6
    if case == "rc-edge":
        net, corners, stop = RC_EDGE, _corners(10e-9, 1e-12, 200e-9, 1e-12), 500e-9
    elif case == "cap-8u":
        net = _delay_bench(request.getfixturevalue("capacitance_net"), 8e-6)
        corners = [c * 1e-9 for c in (20, 200, 220, 400, 420, 600, 620, 800)]
        stop = 800e-9
    else:
        net, _, pulse = _rc_pulse_deck(case)
        corners = _corners(*pulse)
    compiled = []
    real_init = Plan.__init__

    def init(plan, netlist, dt=None):
        compiled.append(dt)
        real_init(plan, netlist, dt)

    steps = _spy_steps(monkeypatch)
    monkeypatch.setattr(Plan, "__init__", init)
    transient(net, 1e-9, stop)
    lengths = {h for _, h, _ in steps}
    assert lengths == {2**j * 1e-9 for j in range(5)}
    assert compiled.count(None) == 1  # the DC point's
    assert sorted(dt for dt in compiled if dt is not None) == sorted(lengths)
    for c in corners:
        holders = [h for t, h, _ in steps if t - h < c <= t]
        assert holders and set(holders) == {1e-9}, c


# a two-pole RC ladder: on its 20 ns ramps some steps of 4 dt err by more
# than the tolerance
LADDER = parse_netlist("rc ladder\nV1 in 0 PULSE(0 3 10n 20n 20n 300n 0)\n"
                       "R1 in a 1k\nC1 a 0 100p\nR2 a b 10k\nC2 b 0 1n\n.end\n")


def test_step_over_the_error_tolerance_is_redone_at_half_length(monkeypatch):
    steps = _spy_steps(monkeypatch)
    transient(LADDER, 1e-9, 500e-9)
    redone = [(step, again) for step, again in zip(steps, steps[1:]) if again[0] <= step[0]]
    assert redone
    for (t, h, run), (t_again, h_again, run_again) in redone:
        assert h > 1e-9 and h_again == h / 2
        assert round((t - h) / 1e-9) == round((t_again - h_again) / 1e-9)
        assert _same_bits(run_again[0], run[0])  # from the same start


def test_failed_long_step_is_redone_at_half_length(monkeypatch, capacitance_net):
    # a step longer than dt whose Newton run fails is redone at h/2 from
    # the same accepted point, as a step over the error tolerance is, and
    # the transient goes on. Here the first such run is made to fail
    steps = _spy_steps(monkeypatch)
    spied = solver_module._newton
    failed = []

    def newton(plan, x0, *args, **kwargs):
        x, a, iters, status = spied(plan, x0, *args, **kwargs)
        if plan.dt is not None and plan.dt > 1e-9 and not failed:
            failed.append(steps[-1][:2])
            status = "stalled"
        return x, a, iters, status

    monkeypatch.setattr(solver_module, "_newton", newton)
    wave = transient(_delay_bench(capacitance_net, 8e-6), 1e-9, 200e-9)
    assert failed and wave.times()[-1] == 200 * 1e-9
    j = [step[:2] for step in steps].index(failed[0])
    (t, h, _), (t_again, h_again, run_again) = steps[j:j + 2]
    assert h_again == h / 2
    assert round((t - h) / 1e-9) == round((t_again - h_again) / 1e-9)
    assert run_again[1][3] == "ok"


def _accepted_points(steps, start, dt):
    """(k, x, m) of the DC point and of each accepted step, from a
    _spy_steps record: the step ends at k*dt, x is its answer and m*dt its
    length. A step is accepted unless the next one ends no later (it was
    redone shorter)."""
    points = [(0, [*start.node_voltages.values()][1:], 0)]
    for (t, h, run), after in zip(steps, [*steps[1:], None]):
        if after is None or after[0] > t:
            points.append((round(t / dt), run[1][0], round(h / dt)))
    return points


def test_three_point_weights_are_exact_ratios_rounded_once():
    # each weight of the quadratic through t0, t1 and t2 at t is the exact
    # Lagrange ratio rounded once, for every call the solver makes: the
    # transient predictor over steps a and b, m on; row j of a long step
    # of m after one of a; the sweep's start one point on
    def exact(t0, t1, t2, t):
        return tuple(float(Fraction((t - q) * (t - r), (p - q) * (p - r)))
                     for p, q, r in ((t0, t1, t2), (t1, t0, t2), (t2, t0, t1)))

    lengths = (1, 2, 4, 8, 16)
    calls = [(-(a + b), -b, 0, m) for a in lengths for b in lengths for m in lengths]
    calls += [(-a, 0, m, j) for a in lengths for m in lengths for j in range(1, m)]
    for call in calls:
        assert solver_module._weights(*call) == exact(*call), call
    assert solver_module._weights(-2, -1, 0, 1) == (1.0, -3.0, 3.0)


def _divided_difference(points):
    """The divided difference of (t, v) points, exactly: ints and Fractions."""
    if len(points) == 1:
        return points[0][1]
    return ((_divided_difference(points[1:]) - _divided_difference(points[:-1]))
            / (points[-1][0] - points[0][0]))


@pytest.mark.parametrize("case", ["ladder", "cap-8u"])
def test_step_rule_keeps_the_exact_truncation_error(monkeypatch, request, case):
    # each converged step is held to its exact local truncation error:
    # m**3/2 times the largest |third divided difference| of the node
    # voltages through the three accepted points up to its start and its
    # own answer, in Fractions. An accepted step longer than dt is within
    # _LTE_TOL, one redone after converging is over it, and a step longer
    # than the accepted one before follows one under _LTE_TOL/8. An
    # estimate without the 2 or without the distances fails here
    if case == "ladder":
        net, stop = LADDER, 500e-9
    else:
        net, stop = _delay_bench(request.getfixturevalue("capacitance_net"), 8e-6), 200e-9
    steps = _spy_steps(monkeypatch)
    start = dc_solve(net)
    transient(net, 1e-9, stop)
    nn = len(start.node_voltages) - 1
    points = _accepted_points(steps, start, 1e-9)
    at = {k: i for i, (k, _, _) in enumerate(points)}
    tol, margin = Fraction(solver_module._LTE_TOL), Fraction(1, 10**9)

    def exact_error(t, h, x):
        k, m = round(t / 1e-9), round(h / 1e-9)
        i = at[k - m]
        fit = [*((kk, xx) for kk, xx, _ in points[i - 2:i + 1]), (k, x)]
        return Fraction(m**3, 2) * max(
            abs(_divided_difference([(kk, Fraction(xx[j])) for kk, xx in fit]))
            for j in range(nn))

    accepted_long, redone_long, before = 0, 0, None
    for (t, h, run), after in zip(steps, [*steps[1:], None]):
        if before is not None and h > before[1]:
            assert exact_error(*before) < tol / 8 * (1 + margin), t
        accepted = after is None or after[0] > t
        if h > 1e-9 and run[1][3] == "ok":
            error = exact_error(t, h, run[1][0])
            if accepted:
                accepted_long += 1
                assert error <= tol * (1 + margin), t
            else:
                redone_long += 1
                assert error > tol * (1 - margin), t
        if accepted:
            before = (t, h, run[1][0])
    assert accepted_long > 10 and redone_long


@pytest.mark.parametrize("case", ["ladder", *range(8)])
def test_rows_inside_a_long_step_are_the_quadratic_in_python_floats(monkeypatch, case):
    # each row strictly inside an accepted step from k to k+m is
    # wp*u + ws*v + we*w, summed left to right in Python floats, with u, v
    # and w the node voltages at the accepted points kp (the one before
    # k), k and k+m and the weights _weights(kp - k, 0, m, j); every
    # row at an accepted point is that point
    net = LADDER if case == "ladder" else _rc_pulse_deck(case)[0]
    stop = 500e-9 if case == "ladder" else 5e-6
    steps = _spy_steps(monkeypatch)
    start = dc_solve(net)
    rows = transient(net, 1e-9, stop).samples[:, 1:].tolist()
    points = _accepted_points(steps, start, 1e-9)
    assert points[-1][0] == len(rows) - 1
    nn = len(rows[0])
    for k, x, _ in points:
        assert _same_bits(rows[k], x[:nn])
    long_steps = 0
    for (kp, u, _), (k, v, _), (_, w, m) in zip(points, points[1:], points[2:]):
        if m > 1:
            long_steps += 1
            for j in range(1, m):
                wp, ws, we = solver_module._weights(kp - k, 0, m, j)
                want = [wp * a + ws * b + we * c for a, b, c in zip(u[:nn], v, w)]
                assert _same_bits(rows[k + j], want), (k, j)
    assert long_steps > 10


def test_transient_without_a_node_keeps_its_rows(monkeypatch):
    # a deck whose only element ties ground to itself still has one row
    # per k*dt, holding only the time. Its empty prediction still gives an
    # error of 0, so its steps grow to 16*dt: 13 Newton runs for 100 rows
    steps = _spy_steps(monkeypatch)
    wave = transient(parse_netlist("no node\nR1 0 0 1k\n.end\n"), 1e-9, 100e-9)
    assert wave.samples.shape == (101, 1)
    assert wave.times().tolist() == [k * 1e-9 for k in range(101)]
    assert len(steps) == 13 and all(run is not None for _, _, run in steps)


def test_source_driven_node_reads_its_pulse_between_steps(monkeypatch):
    # rows inside a longer step come from a quadratic through accepted
    # points past the last corner, where the source is one straight piece
    runs = _spy_runs(monkeypatch)
    wave = transient(RC_EDGE, 1e-9, 500e-9)
    assert len(runs) < 100  # most rows are interpolated
    spec = RC_EDGE.find_source("V1").spec
    pulse = [spec.value_at(t) for t in wave.times().tolist()]
    assert np.max(np.abs(wave.node("in") - pulse)) <= 1e-12


@pytest.mark.parametrize("which", ["cap-build", "ladder"])
def test_advance_gives_the_next_currents_of_ieq_from(which, capacitance_net):
    # a step as long as the last one takes advance's next companion
    # currents instead of calling ieq_from(x, i): the two agree bit for bit
    net = capacitance_net if which == "cap-build" else LADDER
    rng = random.Random(which)
    for dt in (1e-9, 4e-9):
        plan = Plan(net, dt=dt)
        for _ in range(50):
            x = [rng.uniform(-3.0, 3.0) for _ in range(plan.n_unknowns)]
            ieq = [rng.uniform(-1e-3, 1e-3) for _ in plan.caps]
            i, nxt = plan.advance(x, ieq)
            xl = [*x, 0.0]
            assert _same_bits(
                i, [g * (xl[p] - xl[q]) + c for (p, q, g, _), c in zip(plan.caps, ieq)])
            assert _same_bits(nxt, plan.ieq_from(x, i))


# an RC deck whose node b carries the given capacitor lines
RC_AT_B = "rc at b\nV1 in 0 PULSE(0 3 10n 1p 1p 200n 0)\nR1 in b 1k\n{}.end\n"


def test_capacitance_between_one_node_pair_is_one_companion():
    # C2 and C3 join b and ground both ways round and CMIN joins them; C1
    # joins b to itself and carries no current. The plan is that of a
    # single 1 nF capacitor, and so is the transient, bit for bit
    merged = parse_netlist(RC_AT_B.format("C2 b 0 0.5n\nC3 0 b 0.5n\nC1 b b 1p\n"))
    single = parse_netlist(RC_AT_B.format("C2 b 0 1n\n"))
    plan = Plan(merged, dt=1e-9)
    assert len(plan.caps) == 2
    assert plan.caps == Plan(single, dt=1e-9).caps
    assert (transient(merged, 1e-9, 300e-9).samples.tobytes()
            == transient(single, 1e-9, 300e-9).samples.tobytes())


def test_delay_bench_takes_at_most_half_a_run_per_row(monkeypatch, capacitance_net):
    # one DC run and 800 rows: the steps chosen by the truncation error
    # grow past dt on the plateaus, so fewer runs than rows are needed
    runs = _spy_runs(monkeypatch)
    transient(_delay_bench(capacitance_net, 8e-6), 1e-9, 800e-9)
    assert len(runs) <= 400


def test_zero_start_check_tells_signed_zeros_apart():
    # equal under == but not in bits: the bit-for-bit checks of these
    # tests tell -0.0 from 0.0
    key = [0.5, 0.0, -2.5]
    assert _same_bits(key, [0.5, 0.0, -2.5])
    assert [0.5, -0.0, -2.5] == key
    assert not _same_bits([0.5, -0.0, -2.5], key)
    assert not _same_bits([0.5, 0.0, -2.5000000000000004], key)


@pytest.mark.parametrize("jac,expected", [
    (np.eye(3) * 2.0, 0.5),
    (np.array([[1.0, 1.0], [1.0, 1.0]]), float("inf")),        # singular
    (np.array([[1e300, 0.0], [0.0, 1.0]]), float("inf")),      # ill-conditioned
    (np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]]), float("inf")),
])
def test_inverse_norm_bounds_only_well_conditioned(jac, expected):
    assert solver_module._inverse_norm(jac) == expected


def _solve_in_scope(jac, rhs):
    # (solver._solve, np.linalg.solve) of one system, inside the solver's scope
    with solver_module._lapack_errors():
        return solver_module._solve(jac, rhs), np.linalg.solve(jac, rhs).tolist()


@pytest.mark.parametrize("n", [3, 7, 9])
def test_solve_matches_numpy_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for _ in range(50):
        got, want = _solve_in_scope(rng.standard_normal((n, n)),
                                    rng.standard_normal(n).tolist())
        assert repr(got) == repr(want)


def test_solve_matches_numpy_on_ill_conditioned_matrix():
    rng = np.random.default_rng(12)
    q1, _ = np.linalg.qr(rng.standard_normal((7, 7)))
    q2, _ = np.linalg.qr(rng.standard_normal((7, 7)))
    jac = q1 @ np.diag(np.logspace(0.0, -12.0, 7)) @ q2
    assert 1e11 < np.linalg.cond(jac) < 1e13
    got, want = _solve_in_scope(jac, rng.standard_normal(7).tolist())
    assert repr(got) == repr(want)


def test_solve_matches_numpy_on_stock_jacobian():
    net = build_comparator(ComparatorConfig())
    plan = Plan(net)
    sol = dc_solve(net)
    x = plan.vector_from_guess(sol.node_voltages)
    x[plan.n_nodes:] = [sol.branch_currents[name] for name in plan.vsource_names]
    a = plan.assemble(x, plan.source_values(0.0))
    assert a.jac.shape == (7, 7)
    rng = np.random.default_rng(7)
    for rhs in ([-v for v in a.f], rng.standard_normal(7).tolist()):
        got, want = _solve_in_scope(a.jac, rhs)
        assert repr(got) == repr(want)


def test_solve_raises_on_singular_matrix_in_scope():
    with solver_module._lapack_errors():
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            solver_module._solve(np.array([[1.0, 1.0], [1.0, 1.0]]), [0.0, 0.0])


def test_every_solve_runs_inside_the_error_scope(monkeypatch):
    # outside it, a singular J would give NaN and a RuntimeWarning, not
    # LinAlgError; record the policy in force at each solve of each path
    policies = []
    real = solver_module._solve

    def spy(jac, b):
        policies.append((np.geterr(), np.geterrcall()))
        return real(jac, b)

    monkeypatch.setattr(solver_module, "_solve", spy)
    with pytest.raises(ConvergenceError):
        dc_solve(parse_netlist(STUCK))  # every stage, pseudo-transient included
    assert len(policies) == 1250  # one per Newton iteration, none singular
    transient(RC_EDGE, 1e-9, 100e-9)  # Plan.steps
    assert len(policies) > 1250 + 10
    scope = ({"divide": "ignore", "over": "ignore", "under": "ignore", "invalid": "call"},
             solver_module._singular)
    assert all(p == scope for p in policies)
