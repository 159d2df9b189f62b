"""Closed-form latch algebra: spot values, limits and exact identities."""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from hystlab import (
    DomainError,
    LatchOperatingPoint,
    MosGeometry,
    MosModel,
    MosPolarity,
    RatioDirection,
    SingularityError,
    current_ratio,
    kfactor,
    latch_current_ratio_from_devices,
    latch_voltages_large_signal,
    latch_voltages_small_signal,
    node_squares,
    transition_currents,
)

NMOS = MosModel(MosPolarity.N, kp=170e-6, vto=0.5, lam=0.0)
DIODE = MosGeometry(0.27e-6, 0.18e-6)
CROSS = MosGeometry(0.36e-6, 0.18e-6)


def _op(**over):
    base = dict(k_n7=200e-6, k_n9=100e-6, k_p3=30e-6, k_p5=30e-6,
                v_th=0.5, i_d1=10e-6, i_d2=10e-6, i_ref=0.0,
                v_c=1.0, v_d=1.0)
    base.update(over)
    return LatchOperatingPoint(**base)


def test_small_signal_spot():
    v_a, v_b = latch_voltages_small_signal(gm7=1e-3, gm9=2e-3, i1=1e-6, i2=0.0)
    assert v_a == pytest.approx(-3.3333e-4, rel=1e-4)
    assert v_b == pytest.approx(6.6667e-4, rel=1e-4)


def test_small_signal_decouples_without_cross_pair():
    v_a, v_b = latch_voltages_small_signal(gm7=2e-3, gm9=0.0, i1=4e-6, i2=1e-6)
    assert v_a == pytest.approx(4e-6 / 2e-3, rel=1e-12)
    assert v_b == pytest.approx(1e-6 / 2e-3, rel=1e-12)


def test_small_signal_equal_gm_diverges():
    with pytest.raises(SingularityError):
        latch_voltages_small_signal(gm7=1e-3, gm9=1e-3, i1=1e-6, i2=0.0)


def test_small_signal_negative_gm_rejected():
    # checked ahead of the equal-gm test: |gm7| == |gm9| here
    with pytest.raises(SingularityError, match="transconductances must be >= 0"):
        latch_voltages_small_signal(gm7=-1e-3, gm9=1e-3, i1=0.0, i2=0.0)


def test_large_signal_spot():
    v_a, v_b = latch_voltages_large_signal(200e-6, 100e-6, 0.5, 20e-6, 10e-6)
    assert v_a == pytest.approx(0.8162, abs=5e-5)
    assert v_b == pytest.approx(0.5000, abs=1e-12)


def test_large_signal_diode_only_limit():
    v_a, _ = latch_voltages_large_signal(200e-6, 0.0, 0.5, 20e-6, 10e-6)
    assert v_a == pytest.approx(0.5 + math.sqrt(20e-6 / 200e-6), rel=1e-12)


def test_large_signal_negative_radicand():
    for i1, i2, node in ((0.0, 10e-6, "first"), (20e-6, 5e-6, "second")):
        with pytest.raises(DomainError, match=f"for the {node} node") as exc:
            latch_voltages_large_signal(200e-6, 100e-6, 0.5, i1, i2)
        assert exc.value.value < 0.0


def test_large_signal_equal_k_degenerates():
    with pytest.raises(SingularityError):
        latch_voltages_large_signal(100e-6, 100e-6, 0.5, 20e-6, 10e-6)


def test_node_squares_balanced_spot():
    sq_c, sq_d = node_squares(_op(), 0.0)
    assert sq_c == pytest.approx(1.0 / 30.0, rel=1e-12)
    assert sq_d == pytest.approx(1.0 / 30.0, rel=1e-12)
    assert 0.5 + math.sqrt(sq_c) == pytest.approx(0.5 + 0.18257, abs=1e-5)


def test_node_squares_bracket_zero():
    # i_in chosen so the first node's drive cancels exactly
    op = _op()
    i_in = op.i_d1 - (op.k_n9 / op.k_n7) * op.i_d2 + op.i_ref
    sq_c, _ = node_squares(op, i_in)
    assert sq_c == pytest.approx(0.0, abs=1e-18)


@pytest.mark.parametrize("over", [dict(k_n7=0.0), dict(k_n9=0.0),
                                  dict(k_n9=200e-6)])
def test_node_squares_degenerate_k(over):
    with pytest.raises(SingularityError):
        node_squares(_op(**over), 0.0)


def test_current_ratio_spot():
    p = current_ratio(0.2, 1.0, 0.5, 1.0, RatioDirection.LOW_TO_HIGH)
    assert p == pytest.approx(0.25 / 0.34, rel=1e-12)


def test_current_ratio_balanced_point():
    p = current_ratio(1.0, 1.0, 0.5, 1.0, RatioDirection.LOW_TO_HIGH)
    pp = current_ratio(1.0, 1.0, 0.5, 1.0, RatioDirection.HIGH_TO_LOW)
    assert p == pytest.approx(0.5, rel=1e-12)
    assert pp == pytest.approx(2.0, rel=1e-12)


def test_current_ratio_no_cross_pair_limit():
    p = current_ratio(1.2, 0.9, 0.5, 0.0, RatioDirection.HIGH_TO_LOW)
    assert p == pytest.approx((0.7 / 0.4) ** 2, rel=1e-12)


def test_current_ratio_zero_denominator():
    with pytest.raises(SingularityError):
        current_ratio(0.5, 0.5, 0.5, 1.0, RatioDirection.LOW_TO_HIGH)
    # both devices of the denominator sit at threshold and carry nothing
    with pytest.raises(SingularityError, match="zero denominator"):
        latch_current_ratio_from_devices(NMOS.vto, NMOS.vto, NMOS, DIODE, CROSS,
                                         RatioDirection.LOW_TO_HIGH)


def test_transition_currents_spot():
    res = transition_currents(0.0, 10e-6, 10e-6, p=0.9, p_prime=1.1)
    assert res.i_t1 == pytest.approx(1e-6, rel=1e-12)
    assert res.i_t2 == pytest.approx(-1e-6, rel=1e-12)
    assert res.i_hy == pytest.approx(2e-6, rel=1e-12)
    assert res.i_a == pytest.approx(1e-6, rel=1e-12)
    assert res.i_b == pytest.approx(1e-6, rel=1e-12)


def test_transition_currents_asymmetric_band():
    res = transition_currents(0.0, 10e-6, 10e-6, p=0.928, p_prime=1.065)
    assert res.i_t1 == pytest.approx(0.72e-6, rel=1e-9)
    assert res.i_t2 == pytest.approx(-0.65e-6, rel=1e-9)
    assert res.i_hy == pytest.approx(1.37e-6, rel=1e-9)


def test_equal_ratios_close_the_band():
    res = transition_currents(2e-6, 8e-6, 8e-6, p=1.01, p_prime=1.01)
    assert res.i_hy == 0.0
    assert res.i_t1 == res.i_t2


@given(st.floats(1e-6, 4.0), st.floats(1e-6, 4.0),
       st.floats(20e-6, 400e-6), st.floats(0.1, 0.9))
@settings(max_examples=200, deadline=None)
def test_large_signal_inverts_exactly(sq_a, sq_b, k7, ratio):
    # forward currents assume both cross devices saturated; the solver
    # form must recover the squared overdrives it was built from
    k9 = k7 * ratio
    i1 = k7 * sq_a + k9 * sq_b
    i2 = k7 * sq_b + k9 * sq_a
    v_a, v_b = latch_voltages_large_signal(k7, k9, 0.5, i1, i2)
    assert (v_a - 0.5) ** 2 == pytest.approx(sq_a, rel=1e-12)
    assert (v_b - 0.5) ** 2 == pytest.approx(sq_b, rel=1e-12)


@given(st.floats(0.6, 2.5), st.floats(0.6, 2.5), st.floats(0.05, 20.0))
@settings(max_examples=200, deadline=None)
def test_ratio_reciprocity(v_c, v_d, k):
    fwd = current_ratio(v_c, v_d, 0.5, k, RatioDirection.HIGH_TO_LOW)
    rev = current_ratio(v_d, v_c, 0.5, k, RatioDirection.LOW_TO_HIGH)
    assert fwd * rev == pytest.approx(1.0, rel=1e-12)


@given(st.floats(0.6, 2.5), st.floats(0.6, 2.5))
@settings(max_examples=200, deadline=None)
def test_ratio_agrees_with_device_summation(v_c, v_d):
    k_ratio = kfactor(NMOS, CROSS) / kfactor(NMOS, DIODE)
    # keep clear of the zero of each triode-form denominator
    a, b = v_c - NMOS.vto, v_d - NMOS.vto
    assume(abs(a * a + k_ratio * (2.0 * v_d - 1.0 - v_c) * v_c) > 0.05)
    assume(abs(b * b + k_ratio * (2.0 * v_c - 1.0 - v_d) * v_d) > 0.05)
    for direction in RatioDirection:
        algebra = current_ratio(v_c, v_d, NMOS.vto, k_ratio, direction)
        summed = latch_current_ratio_from_devices(v_c, v_d, NMOS, DIODE,
                                                  CROSS, direction)
        assert summed == pytest.approx(algebra, rel=1e-12)


@given(st.floats(1e-7, 1e-4), st.floats(1.0, 8.0))
@settings(max_examples=100, deadline=None)
def test_band_width_linear_in_reference_branch(i_d2, scale):
    one = transition_currents(0.0, i_d2, i_d2, p=0.9, p_prime=1.1)
    big = transition_currents(0.0, scale * i_d2, scale * i_d2,
                              p=0.9, p_prime=1.1)
    assert big.i_hy == pytest.approx(scale * one.i_hy, rel=1e-12)


def test_small_signal_sensitivity_matches_derivative():
    gm7, gm9, i1, i2 = 1e-3, 2e-3, 5e-6, 3e-6
    h = i1 * 1e-6
    up, _ = latch_voltages_small_signal(gm7, gm9, i1 + h, i2)
    dn, _ = latch_voltages_small_signal(gm7, gm9, i1 - h, i2)
    fd = (up - dn) / (2 * h)
    assert fd == pytest.approx(gm7 / (gm7 ** 2 - gm9 ** 2), rel=1e-6)
