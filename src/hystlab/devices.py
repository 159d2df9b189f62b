"""Level-1 (square-law) MOSFET evaluation.

Drain current, operating region and analytic small-signal conductances
for both polarities. The current coefficient convention is
K = (kp/2)*(w/l), so a saturated device carries K*Vov^2*(1+lambda*Vds).
Body effect is ignored; bulks are assumed tied to the source rail.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import ModelError


class MosPolarity(enum.Enum):
    N = "nmos"
    P = "pmos"


class Region(enum.Enum):
    CUTOFF = "cutoff"
    TRIODE = "triode"
    SATURATION = "saturation"


@dataclass(frozen=True)
class MosModel:
    """Process-level model card."""

    polarity: MosPolarity
    kp: float           # transconductance parameter mu*Cox [A/V^2]
    vto: float          # threshold voltage [V], <= 0 for P devices
    lam: float = 0.0    # channel-length modulation [1/V]
    cgs: float = 0.0    # fixed gate-source capacitance [F]
    cgd: float = 0.0    # fixed gate-drain capacitance [F]

    def __post_init__(self):
        if not all(map(math.isfinite, (self.kp, self.vto, self.lam, self.cgs, self.cgd))):
            raise ModelError(f"model parameters must be finite, got {self}")
        if self.kp <= 0.0:
            raise ModelError(f"kp must be > 0, got {self.kp}")
        if self.polarity is MosPolarity.N and self.vto < 0.0:
            raise ModelError(f"N-device vto must be >= 0, got {self.vto}")
        if self.polarity is MosPolarity.P and self.vto > 0.0:
            raise ModelError(f"P-device vto must be <= 0, got {self.vto}")
        if self.lam < 0.0:
            raise ModelError(f"lambda must be >= 0, got {self.lam}")
        if self.cgs < 0.0 or self.cgd < 0.0:
            raise ModelError("capacitances must be >= 0")


@dataclass(frozen=True)
class MosGeometry:
    w: float  # channel width [m]
    l: float  # channel length [m]

    def __post_init__(self):
        if not (0.0 < self.w < math.inf and 0.0 < self.l < math.inf):
            raise ModelError(f"w and l must be finite and > 0, got w={self.w} l={self.l}")


@dataclass(frozen=True)
class DeviceEval:
    """Operating data at one bias point.

    ``id`` is the current flowing into the drain terminal, so a
    conducting P device reports a negative value. ``gm`` and ``gds``
    are the analytic partials of ``id`` w.r.t. vgs and vds on the
    returned branch.
    """

    id: float      # drain current [A]
    gm: float      # d id / d vgs [S]
    gds: float     # d id / d vds [S]
    region: Region


# representative 180 nm level-1 cards; lambda nonzero for realism,
# replace with lam=0 when cross-checking against the closed forms
NMOS_DEFAULT = MosModel(MosPolarity.N, kp=170e-6, vto=0.5, lam=0.05)
PMOS_DEFAULT = MosModel(MosPolarity.P, kp=60e-6, vto=-0.5, lam=0.05)


def kfactor(model: MosModel, geom: MosGeometry) -> float:
    """Square-law current coefficient K = (kp/2)*(w/l) [A/V^2]."""
    return 0.5 * model.kp * geom.w / geom.l


def mos_kernel(k: float, sign: float, vto: float, lam: float,
               vgs: float, vds: float):
    """Scalar device law: (id, gm, gds) at a source-referenced bias.

    ``k`` is kfactor(), ``sign`` is +1.0 for N devices and -1.0 for P
    devices, ``vto`` and ``lam`` come from the model card. P devices are
    evaluated by mirroring the N equations; every product with ``sign``
    is exact, so both polarities round as the N law does. The region is
    left to mos_eval, as the Newton loop reads none.
    """
    vgs = sign * vgs
    vds = sign * vds
    vto = sign * vto
    if vds >= 0.0:
        vov = vgs - vto
        reverse = False
    else:
        # reversed conduction: source and drain swap roles
        vov = vgs - vds - vto
        vds = -vds
        reverse = True
    cm = 1.0 + lam * vds
    if vov <= 0.0:
        i = gm = gds = 0.0
    elif vds >= vov:
        base = k * vov * vov
        i, gm, gds = base * cm, 2.0 * k * vov * cm, base * lam
    else:
        i = k * (2.0 * vov - vds) * vds * cm
        gm = 2.0 * k * vds * cm
        gds = k * ((2.0 * vov - 2.0 * vds) * cm + (2.0 * vov - vds) * vds * lam)
    if reverse:
        return -sign * i, -gm, gm + gds
    return sign * i, gm, gds


def _region(sign: float, vto: float, vgs: float, vds: float) -> Region:
    """The branch mos_kernel takes at this bias, by the same arithmetic."""
    vgs, vds, vto = sign * vgs, sign * vds, sign * vto
    if not vds >= 0.0:  # reversed conduction (or NaN), as in mos_kernel
        vgs, vds = vgs - vds, -vds
    vov = vgs - vto
    if vov <= 0.0:
        return Region.CUTOFF
    return Region.SATURATION if vds >= vov else Region.TRIODE


def mos_sign(model: MosModel) -> float:
    """The ``sign`` argument of mos_kernel for this model card."""
    return -1.0 if model.polarity is MosPolarity.P else 1.0


def mos_eval(model: MosModel, geom: MosGeometry, vgs: float, vds: float) -> DeviceEval:
    """Evaluate one device at the bias (vgs, vds), source-referenced.

    Total function: every real (vgs, vds) maps to a branch. P devices
    are evaluated by polarity mirroring of the N equations.
    """
    sign = mos_sign(model)
    i, gm, gds = mos_kernel(kfactor(model, geom), sign, model.vto, model.lam, vgs, vds)
    return DeviceEval(id=i, gm=gm, gds=gds, region=_region(sign, model.vto, vgs, vds))
