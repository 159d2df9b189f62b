"""Current-comparator circuit generators and operating-point extraction.

Topology (all bulks on the source rail):
  input branch   M1 (d=A g=B), M3 diode at A
  reference      M2 diode at B, M4 diode at B
  mirrors        M5 (g=A) feeding C, M6 (g=B) feeding D
  latch          M7 diode at C, M10 diode at D, cross pair M8 (g=D d=C)
                 and M9 (g=C d=D)
  output         inverter MPI/MNI from C to OUT
  stimuli        IIN into node A, IREF into node B

The input current therefore steers node A, which throttles M5 through
the M3/M5 mirror; the latch at C/D regenerates the difference and the
inverter squares it up. One table, _DEVICES, holds every device's
terminals and both variants' sizes; both generators build their element
records from it, and `Netlist.to_text` prints the result. Device names
are part of the contract so the extractor can be name-based.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .audit import device_evals
from .devices import MosGeometry, MosModel, NMOS_DEFAULT, PMOS_DEFAULT, kfactor
from .errors import ConfigError, ExtractionError, NetlistError
from .netlist import DcSpec, ISource, Mosfet, Netlist, SourceSpec, VSource
from .solver import Solution


class ComparatorVariant(enum.Enum):
    HYSTERESIS = "hysteresis"
    PLAIN = "plain"


# one row per device, in netlist order: name, drain, gate, source (= bulk),
# model, then W of the hysteresis variant, W of the plain variant and L in
# micrometres; table_sizing scales the sizes by 1e-6 as the grammar scales "u"
_DEVICES = (
    ("M1", "A", "B", "0", "nm", 0.18, 0.18, 0.72),
    ("M2", "B", "B", "0", "nm", 0.18, 0.18, 0.72),
    ("M3", "A", "A", "VDD", "pm", 0.54, 0.18, 0.72),
    ("M4", "B", "B", "VDD", "pm", 0.54, 0.18, 0.72),
    ("M5", "C", "A", "VDD", "pm", 1.08, 1.19, 0.18),
    ("M6", "D", "B", "VDD", "pm", 1.08, 1.19, 0.18),
    ("M7", "C", "C", "0", "nm", 0.27, 0.21, 0.18),
    ("M8", "C", "D", "0", "nm", 0.36, 0.34, 0.18),
    ("M9", "D", "C", "0", "nm", 0.36, 0.34, 0.18),
    ("M10", "D", "D", "0", "nm", 0.27, 0.21, 0.18),
    ("MPI", "OUT", "C", "VDD", "pm", 0.54, 0.54, 0.18),
    ("MNI", "OUT", "C", "0", "nm", 0.18, 0.18, 0.18),
)

DEVICE_NAMES = tuple(row[0] for row in _DEVICES)

_VDD = VSource("VDD", "VDD", "0", DcSpec(3.0))  # the paper's one supply


def table_sizing(variant: ComparatorVariant) -> dict[str, MosGeometry]:
    """Default per-device geometry map for a variant (copy, safe to edit)."""
    hysteresis = variant is ComparatorVariant.HYSTERESIS
    return {name: MosGeometry((w_hyst if hysteresis else w_plain) * 1e-6, l * 1e-6)
            for name, _, _, _, _, w_hyst, w_plain, l in _DEVICES}


@dataclass(frozen=True)
class ComparatorConfig:
    variant: ComparatorVariant = ComparatorVariant.HYSTERESIS
    nmos: MosModel = NMOS_DEFAULT
    pmos: MosModel = PMOS_DEFAULT
    sizing: dict[str, MosGeometry] | None = None  # None -> variant table
    i_in: SourceSpec = field(default_factory=lambda: DcSpec(0.0))
    i_ref: float = 0.0  # [A]

    def __post_init__(self):
        # i_in is a source spec, which checks its own values
        if not math.isfinite(self.i_ref):
            raise ConfigError(f"i_ref must be finite, got {self.i_ref}")

    def resolved_sizing(self) -> dict[str, MosGeometry]:
        if self.sizing is None:
            return table_sizing(self.variant)
        for name in DEVICE_NAMES:
            if name not in self.sizing:
                raise ConfigError(f"sizing map is missing device {name!r}")
        if len(self.sizing) > len(DEVICE_NAMES):  # every device is in it
            unknown = next(name for name in self.sizing if name not in DEVICE_NAMES)
            raise ConfigError(f"sizing map names unknown device {unknown!r}")
        return dict(self.sizing)


@dataclass(frozen=True)
class LatchOperatingPoint:
    """Symbol bundle consumed by the hysteresis closed forms."""

    k_n7: float   # diode latch device K [A/V^2]
    k_n9: float   # cross-coupled latch device K [A/V^2]
    k_p3: float   # input mirror diode K [A/V^2]
    k_p5: float   # mirror output K [A/V^2]
    v_th: float   # latch NMOS threshold [V]
    i_d1: float   # input branch current [A]
    i_d2: float   # reference branch current [A]
    i_ref: float  # [A]
    v_c: float    # latch node [V]
    v_d: float    # latch node [V]


def _mosfets(models: dict[str, MosModel],
             sizing: dict[str, MosGeometry]) -> tuple[Mosfet, ...]:
    """Records for the _DEVICES rows that ``sizing`` names, in table order."""
    return tuple(Mosfet(name, d, g, s, s, model, models[model], sizing[name])
                 for name, d, g, s, model, _, _, _ in _DEVICES if name in sizing)


def build_comparator(config: ComparatorConfig | None = None) -> Netlist:
    """The comparator on the paper's 3 V supply, built from the topology table.

    ``to_text()`` prints it in the parser's grammar; the stock variants'
    text parses back to an equal netlist.
    """
    config = config or ComparatorConfig()
    models = {"nm": config.nmos, "pm": config.pmos}
    sources = (_VDD, ISource("IIN", "0", "A", config.i_in),
               ISource("IREF", "0", "B", DcSpec(config.i_ref)))
    return Netlist(f"current comparator ({config.variant.value} variant)",
                   sources + _mosfets(models, config.resolved_sizing()))


def build_latch_testbench(diode_geom: MosGeometry, cross_geom: MosGeometry,
                          nmos: MosModel, i_1: float, i_2: float) -> Netlist:
    """Latch core M7-M10 alone, driven by ideal current sources into C and D.

    The 3 V VDD source touches no other element, so it changes no result.
    """
    if not (math.isfinite(i_1) and math.isfinite(i_2)):
        raise ConfigError(f"currents must be finite, got i_1={i_1} i_2={i_2}")
    models = {"nm": nmos}
    sizing = {"M7": diode_geom, "M8": cross_geom, "M9": cross_geom, "M10": diode_geom}
    sources = (_VDD, ISource("I1", "0", "C", DcSpec(i_1)),
               ISource("I2", "0", "D", DcSpec(i_2)))
    return Netlist("positive feedback latch testbench",
                   sources + _mosfets(models, sizing))


def extract_operating_point(netlist: Netlist, solution: Solution) -> LatchOperatingPoint:
    """Pull the closed-form inputs out of a solved comparator.

    Requires the generator's canonical names; a Netlist holds an M name to
    a MOSFET. ExtractionError names the first of M1, M2, M3, M5, M7, M9
    and IREF that is missing, or the first node read here that the
    solution lacks. i_d1/i_d2 are read off audit.device_evals, which
    evaluates M1 and M2 alone.
    """
    devices = {}
    for name in ("M1", "M2", "M3", "M5", "M7", "M9"):
        try:
            devices[name] = netlist.find_element(name)
        except NetlistError:
            raise ExtractionError(f"netlist lacks canonical device {name!r}") from None
    try:
        i_ref_el = netlist.find_source("IREF")
    except NetlistError:
        raise ExtractionError("netlist lacks the IREF source") from None

    try:
        i_d1, i_d2 = (ev.id for ev in device_evals(netlist, solution, ("M1", "M2")).values())
        v_c, v_d = solution.node_voltages["C"], solution.node_voltages["D"]
    except KeyError as missing:
        raise ExtractionError(f"solution lacks node {missing.args[0]!r}") from None

    k = {name: kfactor(el.model, el.geom) for name, el in devices.items()}
    return LatchOperatingPoint(
        k_n7=k["M7"], k_n9=k["M9"], k_p3=k["M3"], k_p5=k["M5"], v_th=devices["M7"].model.vto,
        i_d1=i_d1, i_d2=i_d2, i_ref=i_ref_el.spec.value_at(0.0), v_c=v_c, v_d=v_d)
