import dataclasses

import pytest

from hystlab import (
    NMOS_DEFAULT,
    PMOS_DEFAULT,
    ComparatorConfig,
    ComparatorVariant,
    DcSpec,
    MosGeometry,
    build_comparator,
    dc_solve,
    table_sizing,
)
from hystlab import solver as solver_module


@pytest.fixture(scope="session")
def zero_lambda_models():
    # lam=0 makes the square law exactly invertible, which the
    # closed-form cross-checks rely on
    return (dataclasses.replace(NMOS_DEFAULT, lam=0.0),
            dataclasses.replace(PMOS_DEFAULT, lam=0.0))


@pytest.fixture(scope="session")
def hysteresis_net(zero_lambda_models):
    nm, pm = zero_lambda_models
    return build_comparator(ComparatorConfig(
        variant=ComparatorVariant.HYSTERESIS, nmos=nm, pmos=pm))


@pytest.fixture(scope="session")
def capacitance_net():
    # the device-capacitance build of acceptance criteria 11-12, tuned
    # monostable: matched latch so the band closes, widened input branch
    # and a reference offset so both stimulus levels straddle the
    # threshold with usable overdrive
    nmos = dataclasses.replace(NMOS_DEFAULT, lam=0.0, cgs=20e-15, cgd=20e-15)
    pmos = dataclasses.replace(PMOS_DEFAULT, lam=0.0, cgs=20e-15, cgd=20e-15)
    sizing = table_sizing(ComparatorVariant.HYSTERESIS)
    for dev in ("M1", "M2", "M3", "M4"):
        g = sizing[dev]
        sizing[dev] = MosGeometry(g.w * 6.0, g.l)
    sizing["M7"] = sizing["M10"] = MosGeometry(0.36e-6, 0.18e-6)
    return build_comparator(ComparatorConfig(nmos=nmos, pmos=pmos,
                                             sizing=sizing, i_ref=11.5e-6))


def _sweep_chain(net, name, values):
    """Yield (value, Solution) of dc_solve at each of ``values`` in turn,
    each guessed as Plan.sweep starts its points.

    The guess is the quadratic through the last three points, one point
    on: w0*x0 + w1*x1 + w2*x2 summed left to right, with the weights
    _weights(-3, -2, -1, 0) = (1, -3, 3), every unknown spelled as the
    guess reads it (node names, and I(<source>) for branch currents). It
    is taken while each of the three took at most _PREDICT_ITERS
    iterations and the three steps from x0's value to this one agree
    within _EVEN_STEPS relative. Otherwise it is the node
    voltages of the point before, none for the first. A point that fails
    raises as dc_solve does.
    """
    fit, guess = [], None
    for v in values:
        if len(fit) == 3:
            (s0, x0), (s1, x1), (s2, x2) = fit
            step = s2 - s1
            if abs(s1 - s0 - step) + abs(v - s2 - step) < solver_module._EVEN_STEPS * abs(step):
                w0, w1, w2 = solver_module._weights(-3, -2, -1, 0)
                guess = {k: w0 * x0[k] + w1 * x1[k] + w2 * x2[k] for k in x2}
        sol = dc_solve(net.replaced_source(name, DcSpec(v)), guess)
        yield v, sol
        unknowns = {**sol.node_voltages,
                    **{f"I({b})": i for b, i in sol.branch_currents.items()}}
        keep = sol.iterations <= solver_module._PREDICT_ITERS
        fit = [*fit[-2:], (v, unknowns)] if keep else []
        guess = sol.node_voltages


@pytest.fixture(scope="session")
def sweep_chain():
    """Plan.sweep restated as a chain of public dc_solve calls (_sweep_chain)."""
    return _sweep_chain
