"""Closed-form latch voltage and transition-current expressions.

Companions to the simulator: the same quantities the sweep engine
measures, computed from square-law algebra at an extracted operating
point. The device-summation oracle at the bottom re-derives the
current ratios through mos_eval so the algebra has an independent
check.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .devices import MosGeometry, MosModel, mos_eval
from .errors import DomainError, SingularityError
from .comparator import LatchOperatingPoint


class RatioDirection(enum.Enum):
    """Which latch transition the current-ratio expression assumes.

    LOW_TO_HIGH models the cross device at node C in triode;
    HIGH_TO_LOW models the cross device at node D in triode.
    """

    LOW_TO_HIGH = "low_to_high"
    HIGH_TO_LOW = "high_to_low"


@dataclass(frozen=True)
class TransitionResult:
    i_t1: float  # up-transition input current [A]
    i_t2: float  # down-transition input current [A]
    i_a: float   # up-side overdrive margin [A]
    i_b: float   # down-side overdrive margin [A]
    i_hy: float  # hysteresis width [A]


def latch_voltages_small_signal(gm7: float, gm9: float,
                                i1: float, i2: float) -> tuple[float, float]:
    """Incremental node voltages of the latch for small drive currents,
    gm7 being the diode devices' transconductance and gm9 the cross pair's."""
    if gm7 < 0.0 or gm9 < 0.0:
        raise SingularityError("transconductances must be >= 0")
    d = gm7 * gm7 - gm9 * gm9
    if d == 0.0:
        raise SingularityError("gm7 equals gm9: latch small-signal gain diverges")
    return (gm7 * i1 - gm9 * i2) / d, (gm7 * i2 - gm9 * i1) / d


def latch_voltages_large_signal(k_n7: float, k_n9: float, v_th: float,
                                i1: float, i2: float) -> tuple[float, float]:
    """DC latch node voltages with both cross devices saturated."""
    d = k_n7 * k_n7 - k_n9 * k_n9
    if d == 0.0:
        raise SingularityError("k_n7 equals k_n9: latch DC solution degenerates")
    rad_a = (k_n7 * i1 - k_n9 * i2) / d
    if rad_a < 0.0:
        raise DomainError(f"negative radicand {rad_a:.6e} for the first node",
                          value=rad_a)
    rad_b = (k_n7 * i2 - k_n9 * i1) / d
    if rad_b < 0.0:
        raise DomainError(f"negative radicand {rad_b:.6e} for the second node",
                          value=rad_b)
    return v_th + math.sqrt(rad_a), v_th + math.sqrt(rad_b)


def node_squares(op: LatchOperatingPoint, i_in: float) -> tuple[float, float]:
    """Squared overdrives (v_c - v_th)^2 and (v_d - v_th)^2 vs input current.

    Signs follow the closed forms verbatim; a negative result means the
    assumed operating regions do not hold there and is returned as-is.
    """
    if op.k_n7 == 0.0 or op.k_n9 == 0.0:
        raise SingularityError("latch K-factors must be nonzero")
    d = op.k_n7 * op.k_n7 - op.k_n9 * op.k_n9
    if d == 0.0:
        raise SingularityError("k_n7 equals k_n9: node squares degenerate")
    mirror = op.k_p5 / op.k_p3
    bracket_c = i_in - op.i_ref + (op.k_n9 / op.k_n7) * op.i_d2 - op.i_d1
    bracket_d = i_in - op.i_ref + (op.k_n7 / op.k_n9) * op.i_d2 - op.i_d1
    sq_c = -(op.k_n7 * mirror / d) * bracket_c
    sq_d = (op.k_n9 * mirror / d) * bracket_d
    return sq_c, sq_d


def current_ratio(v_c: float, v_d: float, v_th: float, k_ratio: float,
                  direction: RatioDirection) -> float:
    """Ratio of the two mirror currents the latch can absorb at (v_c, v_d).

    k_ratio is K_cross/K_diode. The direction picks which cross device
    is written in its triode form.
    """
    a = v_c - v_th
    b = v_d - v_th
    if direction is RatioDirection.LOW_TO_HIGH:
        num = a * a + k_ratio * (2.0 * v_d - 2.0 * v_th - v_c) * v_c
        den = b * b + k_ratio * a * a
    else:
        num = a * a + k_ratio * b * b
        den = b * b + k_ratio * (2.0 * v_c - 2.0 * v_th - v_d) * v_d
    if den == 0.0:
        raise SingularityError(f"zero denominator at v_c={v_c}, v_d={v_d}")
    return num / den


def transition_currents(i_ref: float, i_d1: float, i_d2: float,
                        p: float, p_prime: float) -> TransitionResult:
    """Transition currents and hysteresis width from the two ratios."""
    i_a = i_d1 - p * i_d2
    i_b = p_prime * i_d2 - i_d1
    i_t1 = i_ref + i_a
    i_t2 = i_ref - i_b
    # i_t1 - i_t2 without i_ref, which would cancel against a large i_ref
    i_hy = abs(i_a + i_b)
    # same quantity two ways, must agree to rounding
    width = abs(p_prime - p) * i_d2
    if not math.isclose(i_hy, width, rel_tol=1e-9, abs_tol=1e-24):
        raise DomainError(f"hysteresis width {i_hy!r} A disagrees with "
                          f"|p' - p|*i_d2 = {width!r} A", value=i_hy)
    return TransitionResult(i_t1=i_t1, i_t2=i_t2, i_a=i_a, i_b=i_b, i_hy=i_hy)


def _sat_any(model: MosModel, geom: MosGeometry, u: float) -> float:
    # K*(u - vth)^2 on both sides of threshold, evaluated through the
    # device code at a diode-connected bias (mirror sub-threshold u so
    # the square never collapses to the cutoff branch)
    v = u if u >= model.vto else 2.0 * model.vto - u
    return mos_eval(model, geom, v, v).id


def _forced_triode(model: MosModel, geom: MosGeometry, vgs: float, vds: float) -> float:
    # K*(2(vgs-vth) - vds)*vds via the exact square difference; keeps
    # the triode algebra even where the device would leave that region
    return _sat_any(model, geom, vgs) - _sat_any(model, geom, vgs - vds)


def latch_current_ratio_from_devices(v_c: float, v_d: float, model: MosModel,
                                     diode_geom: MosGeometry,
                                     cross_geom: MosGeometry,
                                     direction: RatioDirection) -> float:
    """current_ratio re-derived by summing device currents.

    Sums the diode and cross-device drain currents at the given node
    voltages with the branch combination the direction assumes. Use a
    model with lam=0; channel-length modulation is outside the closed
    forms being checked.
    """
    if direction is RatioDirection.LOW_TO_HIGH:
        num = _sat_any(model, diode_geom, v_c) + _forced_triode(model, cross_geom, v_d, v_c)
        den = _sat_any(model, diode_geom, v_d) + _sat_any(model, cross_geom, v_c)
    else:
        num = _sat_any(model, diode_geom, v_c) + _sat_any(model, cross_geom, v_d)
        den = _sat_any(model, diode_geom, v_d) + _forced_triode(model, cross_geom, v_c, v_d)
    if den == 0.0:
        raise SingularityError(f"zero denominator at v_c={v_c}, v_d={v_d}")
    return num / den
