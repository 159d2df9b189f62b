"""Checks over seeded random circuits: every DC solve over seeds 0-599
solves and passes the KCL audit (oracle A) within a Newton iteration
budget, every random transient over seeds 0-99 keeps its finite rows
within one too, each netlist survives to_text and parse_netlist
unchanged, and a warm sweep equals the chain of dc_solve calls guessed as
the sweep starts its points, each of which passes the audit. An output
that does not move has no crossing."""

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
