import dataclasses

import pytest

from hystlab import (
    NMOS_DEFAULT,
    PMOS_DEFAULT,
    ComparatorConfig,
    ComparatorVariant,
    MosGeometry,
    build_comparator,
    table_sizing,
)


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
