"""Checks over seeded random circuits: every DC solve over seeds 0-599
solves and passes the KCL audit (oracle A) within a Newton iteration
budget, every random transient over seeds 0-99 keeps its finite rows
within one too, each netlist survives to_text and parse_netlist
unchanged, and a warm sweep equals the chain of dc_solve calls guessed as
the sweep starts its points, each of which passes the audit. An output
that does not move has no crossing. On random linear circuits, _newton's
certificate keeps dc_solve and transient bit for bit, and each point it
certifies passes the tests the step bound would run there."""

import math
import random

import numpy as np
import pytest

from hystlab import (
    NMOS_DEFAULT,
    PMOS_DEFAULT,
    Capacitor,
    DcSpec,
    HystlabError,
    ISource,
    MeasurementError,
    MosGeometry,
    Mosfet,
    Netlist,
    PulseSpec,
    Resistor,
    VSource,
    dc_solve,
    dc_sweep,
    hysteresis_walk,
    measure_hysteresis,
    parse_netlist,
    transient,
    verify_kcl,
)
from hystlab import solver as solver_module

MODELS = {"nch": NMOS_DEFAULT, "pch": PMOS_DEFAULT}


def random_circuit(seed: int) -> Netlist:
    """2-6 nodes, each tied toward ground by a spanning tree of resistors
    (100 ohm to 10 Mohm, log-uniform), VDD on the first node, 0-2 current
    sources of up to +/-20 uA and 1-6 MOSFETs of the default cards."""
    rng = random.Random(seed)
    nodes = [f"n{i}" for i in range(1, rng.randint(2, 6) + 1)]
    elements = [VSource("VDD", nodes[0], "0", DcSpec(rng.choice((1.0, 1.8, 3.0, 5.0, 12.0))))]
    for i, node in enumerate(nodes):
        elements.append(Resistor(f"R{i}", node, rng.choice(["0", *nodes[:i]]),
                                 10.0 ** rng.uniform(2.0, 7.0)))
    terminals = ["0", *nodes]
    for i in range(rng.randint(0, 2)):
        pos, neg = rng.sample(terminals, 2)
        elements.append(ISource(f"I{i}", pos, neg, DcSpec(rng.uniform(-20e-6, 20e-6))))
    for i in range(rng.randint(1, 6)):
        d, s = rng.sample(terminals, 2)
        card = rng.choice(("nch", "pch"))
        g = rng.choice(terminals)
        w = 10.0 ** rng.uniform(math.log10(0.2e-6), math.log10(32e-6))
        elements.append(Mosfet(f"M{i}", d, g, s,
                               "0" if card == "nch" else nodes[0], card, MODELS[card],
                               MosGeometry(w, 0.18e-6)))
    return Netlist(f"random circuit {seed}", tuple(elements))


def random_transient(seed: int) -> Netlist:
    """random_circuit(seed) with VDD a PULSE from 0 V to its DC value
    (delay 10 ns, rise and fall 5 ns, width 80 ns, period 200 ns), plus
    1-3 capacitors of 1 fF to 1 nF (log-uniform), each between two
    distinct terminals, drawn from random.Random(10_000 + seed). It runs
    with dt 1 ns to 200 ns."""
    net = random_circuit(seed)
    vdd = net.find_source("VDD").spec.value
    net = net.replaced_source("VDD", PulseSpec(v1=0.0, v2=vdd, delay=10e-9, rise=5e-9,
                                               fall=5e-9, width=80e-9, period=200e-9))
    rng = random.Random(10_000 + seed)
    caps = []
    for i in range(rng.randint(1, 3)):
        pos, neg = rng.sample(net.nodes, 2)
        caps.append(Capacitor(f"C{i}", pos, neg, 10.0 ** rng.uniform(-15.0, -9.0)))
    return Netlist(net.title, (*net.elements, *caps))


def random_linear(seed: int) -> Netlist:
    """2-6 nodes and no MOSFET, values across many decades, drawn by
    random.Random(20_000 + seed): a spanning tree of resistors (1 ohm to
    1 Gohm) ties each node toward ground, 1-3 voltage sources (1 mV to
    1 kV, either sign; DC, or a PULSE from 0 V with 1 ps to 20 ns edges),
    each from a node no other source drives to an earlier terminal, so
    they close no loop, 0-2 DC current sources (1 nA to 10 mA, either
    sign) and 0-3 capacitors (1 fF to 1 uF), each between two distinct
    terminals. Magnitudes are log-uniform. Its transient runs at dt 1 ns
    to 200 ns."""
    rng = random.Random(20_000 + seed)
    nodes = [f"n{i}" for i in range(1, rng.randint(2, 6) + 1)]
    terminals = ["0", *nodes]
    elements = [Resistor(f"R{i}", node, rng.choice(terminals[:i + 1]),
                         10.0 ** rng.uniform(0.0, 9.0))
                for i, node in enumerate(nodes)]
    driven = sorted(rng.sample(range(len(nodes)), rng.randint(1, min(3, len(nodes)))))
    for j, i in enumerate(driven):
        volts = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 3.0)
        spec = DcSpec(volts) if rng.random() < 0.5 else PulseSpec(
            v1=0.0, v2=volts, delay=10e-9, rise=10.0 ** rng.uniform(-12.0, math.log10(20e-9)),
            fall=10.0 ** rng.uniform(-12.0, math.log10(20e-9)), width=50e-9, period=150e-9)
        elements.append(VSource(f"V{j}", nodes[i], rng.choice(terminals[:i + 1]), spec))
    for j in range(rng.randint(0, 2)):
        pos, neg = rng.sample(terminals, 2)
        amps = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-9.0, -2.0)
        elements.append(ISource(f"I{j}", pos, neg, DcSpec(amps)))
    for j in range(rng.randint(0, 3)):
        pos, neg = rng.sample(terminals, 2)
        elements.append(Capacitor(f"C{j}", pos, neg, 10.0 ** rng.uniform(-15.0, -6.0)))
    return Netlist(f"random linear circuit {seed}", tuple(elements))


def test_random_circuits_solve_or_raise():
    # oracle A: every circuit solves, and no Solution fails the audit
    for seed in range(600):
        net = random_circuit(seed)
        verify_kcl(net, dc_solve(net))


def test_random_circuits_solve_within_an_iteration_budget(monkeypatch):
    # oracle A's solves take 6,527 Newton iterations in all; with the
    # plain-run clamp at 0.5 V instead of 1 V they took 10,107
    iterations = []
    real = solver_module._newton

    def spy(*args, **kwargs):
        result = real(*args, **kwargs)
        iterations.append(result[2])
        return result

    monkeypatch.setattr(solver_module, "_newton", spy)
    for seed in range(600):
        dc_solve(random_circuit(seed))
    assert sum(iterations) < 8000


@pytest.mark.parametrize("seed, vdd", [
    *((s, None) for s in (301, 406, 1719, 2260, 4018, 5981)),
    *((s, 0.0) for s in (301, 406, 1719, 2260)),
])
def test_formerly_failing_circuits_solve(seed, vdd):
    # each raised ConvergenceError while a pseudo-transient step was
    # clamped as a plain run is; with VDD at 0 V, as at a random
    # transient's DC point, too
    net = random_circuit(seed)
    if vdd is not None:
        net = net.replaced_source("VDD", DcSpec(vdd))
    verify_kcl(net, dc_solve(net))


def test_supply_tied_to_ground_is_placed_by_pseudo_transient():
    # seed 202's plain runs fail. Pseudo-transient continuation used to
    # give up with VDD's branch row off by the full 5 V, as the 0.5 V clamp
    # kept the node from reaching it within a step's iterations; a
    # pseudo-transient step now takes its solved step unclamped, and VDD's
    # branch row places the node within the step
    net = random_circuit(202)
    sol = dc_solve(net)
    verify_kcl(net, sol)
    assert sol.node_voltages["n5"] == pytest.approx(0.853, abs=1e-3)


def test_random_transients_keep_their_rows_within_an_iteration_budget(monkeypatch):
    # each random transient returns one finite row per ns; their DC points
    # and steps take 32,755 Newton iterations in all
    iterations = []
    real = solver_module._newton

    def spy(*args, **kwargs):
        result = real(*args, **kwargs)
        iterations.append(result[2])
        return result

    monkeypatch.setattr(solver_module, "_newton", spy)
    for seed in range(100):
        wave = transient(random_transient(seed), 1e-9, 200e-9)
        assert wave.samples.shape[0] == 201 and np.isfinite(wave.samples).all(), seed
    assert sum(iterations) < 36000


def test_random_circuits_round_trip_through_text():
    # to_text keeps every value exactly, so parsing it rebuilds the netlist
    for seed in range(300):
        net = random_circuit(seed)
        assert parse_netlist(net.to_text()) == net


# the circuits among seeds 100-199 that have a current source; seed 128's
# sweep fails at its first point, so both outcomes are compared
SWEEP_SEEDS = [s for s in range(100, 200)
               if any(isinstance(el, ISource) for el in random_circuit(s).elements)]


@pytest.mark.parametrize("seed", SWEEP_SEEDS)
def test_random_sweep_matches_solving_each_point(sweep_chain, seed):
    net = random_circuit(seed)
    name = next(el.name for el in net.elements if isinstance(el, ISource))
    values = [-20e-6 + 4e-6 * i for i in range(11)]  # dc_sweep's grid, bit for bit
    rows, chain_error = [], None
    try:
        for v, sol in sweep_chain(net, name, values):
            rows.append([v, *(sol.node_voltages[n] for n in net.nodes if n != "0")])
            # a warm or predicted answer is audited as a cold one is
            verify_kcl(net.replaced_source(name, DcSpec(v)), sol)
    except HystlabError as exc:
        chain_error = exc, values[len(rows)]
    if chain_error is None:
        curve = dc_sweep(net, name, -20e-6, 20e-6, 4e-6)
        assert curve.samples.tobytes() == np.array(rows).tobytes()
        return
    # both fail at the same point, with the same error
    exc, v = chain_error
    with pytest.raises(type(exc)) as got:
        dc_sweep(net, name, -20e-6, 20e-6, 4e-6)
    assert str(got.value) in (str(exc), f"sweep failed at {name}={v:.6g}: {exc}")


def _outcome(run, read):
    """read(run()), or the text of the error that run raises."""
    try:
        return read(run())
    except HystlabError as exc:
        return str(exc)


def _linear_outcomes(net: Netlist) -> tuple:
    """(dc_solve's values as text, transient's samples as bytes, dc_sweep's
    samples of the first DC source over twice its value either way, None
    without one), each the text of its error when it raises."""
    source = next((el for el in net.elements if isinstance(el, (VSource, ISource))
                   and isinstance(el.spec, DcSpec)), None)
    span = 0.0 if source is None else 2.0 * abs(source.spec.value)
    return (_outcome(lambda: dc_solve(net),
                     lambda sol: repr((sol.node_voltages, sol.branch_currents))),
            _outcome(lambda: transient(net, 1e-9, 200e-9), lambda wave: wave.samples.tobytes()),
            None if source is None else _outcome(
                lambda: dc_sweep(net, source.name, -span, span, span / 4),
                lambda curve: curve.samples))


# the seeds of 0-999 on which the certificate's bound comes closest to
# certifying a point whose residual fails: a bound 163-247 times smaller
# certifies one on each (tens to hundreds of volts across megohm nodes)
TIGHT_LINEAR_SEEDS = (868, 444, 149, 82, 675)


def test_certificate_keeps_random_linear_answers_bit_identical(monkeypatch):
    # at every certified return, the residual at the returned point passes
    # what the step bound's next iteration would test; dc_solve and
    # transient keep every bit of a run without the certificate. A sweep
    # may start a point from its prediction one point sooner, as a
    # certified point reports one iteration less, so its samples are held
    # to the step test's tolerance instead
    opts = solver_module.OPTIONS
    real_newton, real_certified = solver_module._newton, solver_module._certified
    certified, tally = [], {"fired": 0, "declined": 0}

    def certified_spy(plan, a, dx, x):
        ok = real_certified(plan, a, dx, x)
        tally["fired" if ok else "declined"] += 1
        if ok:
            certified.append(x)
        return ok

    def newton_spy(plan, x0, g=0.0, *, e, ieq=()):
        certified.clear()
        x, a, iters, status = real_newton(plan, x0, g, e=e, ieq=ieq)
        if certified:
            assert certified[0] is x and status == "ok"
            at_x = plan.assemble(x, e, ieq)
            assert 4.0 * plan.inverse_norm * max(map(abs, at_x.f)) <= opts.vntol
            assert solver_module._residual_ok(plan, at_x)
        return x, a, iters, status

    for seed in (*range(30), *TIGHT_LINEAR_SEEDS):
        net = random_linear(seed)
        with monkeypatch.context() as m:
            m.setattr(solver_module, "_newton", newton_spy)
            m.setattr(solver_module, "_certified", certified_spy)
            fast = _linear_outcomes(net)
        with monkeypatch.context() as m:
            m.setattr(solver_module, "_certified", lambda *args: False)
            slow = _linear_outcomes(net)
        assert fast[:2] == slow[:2], seed
        got, want = fast[2], slow[2]
        if not isinstance(want, np.ndarray) or not isinstance(got, np.ndarray):
            assert got == want, seed
        else:
            assert (np.abs(got - want) <= opts.vntol + opts.reltol * np.abs(want)).all(), seed
    # both kinds of run: one that the certificate ends, one it leaves to
    # the step bound as before
    assert tally["fired"] > 0 and tally["declined"] > 0, tally


def test_output_that_does_not_move_has_no_crossing():
    # n2 spans about 1.4e-23 V over the sweep: each point's side of a
    # threshold inside that span is solver noise, not a crossing
    net = random_circuit(515)
    threshold, message = 7.136e-24, "n2 does not move on the up sweep: it spans"
    up = dc_sweep(net, "I0", -20e-6, 20e-6, 250e-9)
    down = dc_sweep(net, "I0", 20e-6, -20e-6, 250e-9)
    with pytest.raises(MeasurementError, match=message):
        measure_hysteresis(up, down, "n2", threshold, 1e-9, net)
    with pytest.raises(MeasurementError, match=message):
        hysteresis_walk(net, "I0", -20e-6, 20e-6, 250e-9, "n2", threshold, 1e-9)
