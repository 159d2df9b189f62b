"""Device-law checks: hand-evaluated bias points, region boundaries,
derivative consistency and the polarity mirror."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hystlab import (
    MosGeometry,
    MosModel,
    MosPolarity,
    Region,
    kfactor,
    mos_eval,
)
from hystlab.errors import ModelError

# K = (200u/2)*(1/1) = 100 uA/V^2
NCH = MosModel(MosPolarity.N, kp=200e-6, vto=0.5)
NCH_LAM = dataclasses.replace(NCH, lam=0.05)
PCH = MosModel(MosPolarity.P, kp=200e-6, vto=-0.5)
UNIT = MosGeometry(1e-6, 1e-6)

CONT_ABS = 1e-18
CONT_REL = 1e-12


def test_kfactor_convention():
    assert kfactor(NCH, UNIT) == pytest.approx(100e-6, rel=1e-15)
    assert kfactor(NCH, MosGeometry(0.27e-6, 0.18e-6)) == pytest.approx(150e-6, rel=1e-12)


@pytest.mark.parametrize(
    "model,vgs,vds,id_,gm,gds,region",
    [
        # saturation: id = K*vov^2, gm = 2K*vov, gds = 0
        (NCH, 1.5, 2.0, 100e-6, 200e-6, 0.0, Region.SATURATION),
        # triode: id = K(2vov - vds)vds, gm = 2K*vds, gds = K(2vov - 2vds)
        (NCH, 1.5, 0.5, 75e-6, 100e-6, 100e-6, Region.TRIODE),
        (NCH, 0.4, 1.0, 0.0, 0.0, 0.0, Region.CUTOFF),
        # channel-length modulation scales id by (1 + lam*vds)
        (NCH_LAM, 1.5, 2.0, 110e-6, 220e-6, 5e-6, Region.SATURATION),
        (NCH_LAM, 1.5, 0.5, 76.875e-6, 102.5e-6, 106.25e-6, Region.TRIODE),
        # P device mirrors the N law; conducting id is negative
        (PCH, -1.5, -2.0, -100e-6, 200e-6, 0.0, Region.SATURATION),
        (PCH, -1.5, -0.5, -75e-6, 100e-6, 100e-6, Region.TRIODE),
        (PCH, -0.4, -1.0, 0.0, 0.0, 0.0, Region.CUTOFF),
    ],
)
def test_hand_points(model, vgs, vds, id_, gm, gds, region):
    ev = mos_eval(model, UNIT, vgs, vds)
    assert ev.region is region
    assert ev.id == pytest.approx(id_, rel=1e-12, abs=1e-18)
    assert ev.gm == pytest.approx(gm, rel=1e-12, abs=1e-18)
    assert ev.gds == pytest.approx(gds, rel=1e-12, abs=1e-18)


def test_reversed_conduction_is_terminal_swap():
    # drain below source: same device seen from the other end
    fwd = mos_eval(NCH, UNIT, 2.0, 0.5)
    rev = mos_eval(NCH, UNIT, 1.5, -0.5)
    assert rev.id == pytest.approx(-fwd.id, rel=1e-12)
    assert rev.id == pytest.approx(-125e-6, rel=1e-12)


def test_saturation_boundary_included():
    ev = mos_eval(NCH, UNIT, 1.5, 1.0)  # vds == vov exactly
    assert ev.region is Region.SATURATION


@pytest.mark.parametrize(
    "model,vgs,vds,region",
    [
        # drain below source on an N device: vov = vgs - vds - vto, seen
        # from the swapped end, and -vds takes the place of vds
        (NCH, 0.0, -0.2, Region.CUTOFF),        # vov = -0.3
        (NCH, 1.5, -0.5, Region.TRIODE),        # vov = 1.5 > 0.5
        (NCH, 0.0, -2.0, Region.SATURATION),    # vov = 1.5 <= 2.0
        (NCH_LAM, 0.5, -1.0, Region.SATURATION),  # vov = 1.0 == -vds
        # drain above source on a P device, the mirror image
        (PCH, 0.0, 0.2, Region.CUTOFF),
        (PCH, -1.5, 0.5, Region.TRIODE),
        (PCH, 0.0, 2.0, Region.SATURATION),
        (PCH, -0.5, 1.0, Region.SATURATION),
    ],
)
def test_region_under_reversed_conduction(model, vgs, vds, region):
    assert mos_eval(model, UNIT, vgs, vds).region is region
    # the same device read from its other end conducts forward
    assert mos_eval(model, UNIT, vgs - vds, -vds).region is region


@pytest.mark.parametrize("model", [NCH, NCH_LAM, PCH])
@pytest.mark.parametrize("vgs", [0.9, 1.3, 2.1])
def test_continuity_at_pinchoff(model, vgs):
    sign = -1.0 if model.polarity is MosPolarity.P else 1.0
    vov = abs(vgs) - abs(model.vto)
    below = mos_eval(model, UNIT, sign * abs(vgs), sign * np.nextafter(vov, 0.0))
    above = mos_eval(model, UNIT, sign * abs(vgs), sign * np.nextafter(vov, 10.0))
    for a, b in ((below.id, above.id), (below.gm, above.gm)):
        assert abs(a - b) <= CONT_ABS + CONT_REL * abs(a)


@pytest.mark.parametrize("model", [NCH, NCH_LAM])
def test_continuity_at_threshold(model):
    off = mos_eval(model, UNIT, np.nextafter(0.5, 0.0), 1.0)
    on = mos_eval(model, UNIT, np.nextafter(0.5, 10.0), 1.0)
    assert off.id == 0.0
    assert abs(on.id) <= CONT_ABS
    assert abs(on.gm) <= 1e-12


@given(
    vgs=st.floats(-1.0, 2.5),
    vds=st.floats(-2.5, 2.5),
    lam=st.sampled_from([0.0, 0.05]),
)
@settings(max_examples=200, deadline=None)
def test_polarity_mirror_property(vgs, vds, lam):
    n = dataclasses.replace(NCH, lam=lam)
    p = dataclasses.replace(PCH, lam=lam)
    ne = mos_eval(n, UNIT, vgs, vds)
    pe = mos_eval(p, UNIT, -vgs, -vds)
    assert pe.id == -ne.id
    assert pe.gm == ne.gm
    assert pe.gds == ne.gds
    assert pe.region is ne.region


@given(
    vgs=st.floats(0.0, 2.5),
    dv=st.floats(1e-3, 1.0),
    vds=st.floats(0.0, 2.5),
)
@settings(max_examples=200, deadline=None)
def test_monotone_in_vgs(vgs, dv, vds):
    # lam=0: drain current never decreases with gate drive
    lo = mos_eval(NCH, UNIT, vgs, vds)
    hi = mos_eval(NCH, UNIT, vgs + dv, vds)
    assert hi.id >= lo.id


@given(
    vgs=st.floats(-0.5, 2.3),
    vds=st.floats(0.0, 2.4),
    lam=st.sampled_from([0.0, 0.05]),
)
@settings(max_examples=300, deadline=None)
def test_derivatives_match_finite_differences(vgs, vds, lam):
    model = dataclasses.replace(NCH, lam=lam)
    vov = vgs - model.vto
    # keep the stencil off the region boundaries
    if abs(vds - vov) < 1e-2 or abs(vov) < 1e-2 or vds < 1e-2:
        return
    h = 1e-6
    ev = mos_eval(model, UNIT, vgs, vds)
    gm_fd = (mos_eval(model, UNIT, vgs + h, vds).id
             - mos_eval(model, UNIT, vgs - h, vds).id) / (2 * h)
    gds_fd = (mos_eval(model, UNIT, vgs, vds + h).id
              - mos_eval(model, UNIT, vgs, vds - h).id) / (2 * h)
    assert gm_fd == pytest.approx(ev.gm, rel=1e-6, abs=1e-12)
    assert gds_fd == pytest.approx(ev.gds, rel=1e-6, abs=1e-12)


def test_cutoff_zeroes_everything():
    ev = mos_eval(NCH, UNIT, 0.2, 1.7)
    assert (ev.id, ev.gm, ev.gds) == (0.0, 0.0, 0.0)
    assert ev.region is Region.CUTOFF


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(polarity=MosPolarity.N, kp=0.0, vto=0.5),
        dict(polarity=MosPolarity.N, kp=-1e-6, vto=0.5),
        dict(polarity=MosPolarity.N, kp=100e-6, vto=-0.1),
        dict(polarity=MosPolarity.P, kp=100e-6, vto=0.1),
        dict(polarity=MosPolarity.N, kp=100e-6, vto=0.5, lam=-0.01),
        dict(polarity=MosPolarity.N, kp=100e-6, vto=0.5, cgs=-1e-15),
        dict(polarity=MosPolarity.N, kp=math.nan, vto=0.5),
        dict(polarity=MosPolarity.N, kp=math.inf, vto=0.5),
        dict(polarity=MosPolarity.N, kp=100e-6, vto=math.nan),
        dict(polarity=MosPolarity.P, kp=100e-6, vto=-math.inf),
        dict(polarity=MosPolarity.N, kp=100e-6, vto=0.5, lam=math.inf),
        dict(polarity=MosPolarity.N, kp=100e-6, vto=0.5, cgd=math.nan),
    ],
)
def test_model_validation(kwargs):
    with pytest.raises(ModelError):
        MosModel(**kwargs)


@pytest.mark.parametrize("w,l", [(0.0, 1e-6), (1e-6, 0.0), (-1e-6, 1e-6),
                                 (math.nan, 1e-6), (1e-6, math.nan),
                                 (math.inf, 1e-6), (1e-6, math.inf)])
def test_geometry_validation(w, l):
    with pytest.raises(ModelError):
        MosGeometry(w, l)
