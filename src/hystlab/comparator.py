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
inverter squares it up. Device names are part of the contract so the
extractor can be name-based.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .devices import MosGeometry, MosModel, NMOS_DEFAULT, PMOS_DEFAULT, kfactor
from .errors import ConfigError, ExtractionError
from .netlist import (DcSpec, Netlist, SourceSpec, _model_line, _mosfet_line,
                      _spec_text, parse_netlist)
from .solver import Solution


class ComparatorVariant(enum.Enum):
    HYSTERESIS = "hysteresis"
    PLAIN = "plain"


DEVICE_NAMES = ("M1", "M2", "M3", "M4", "M5", "M6", "M7", "M8", "M9", "M10",
                "MPI", "MNI")

# widths/lengths in meters
_HYSTERESIS_SIZING = {
    "M1": MosGeometry(0.18e-6, 0.72e-6),
    "M2": MosGeometry(0.18e-6, 0.72e-6),
    "M3": MosGeometry(0.54e-6, 0.72e-6),
    "M4": MosGeometry(0.54e-6, 0.72e-6),
    "M5": MosGeometry(1.08e-6, 0.18e-6),
    "M6": MosGeometry(1.08e-6, 0.18e-6),
    "M7": MosGeometry(0.27e-6, 0.18e-6),
    "M8": MosGeometry(0.36e-6, 0.18e-6),
    "M9": MosGeometry(0.36e-6, 0.18e-6),
    "M10": MosGeometry(0.27e-6, 0.18e-6),
    "MPI": MosGeometry(0.54e-6, 0.18e-6),
    "MNI": MosGeometry(0.18e-6, 0.18e-6),
}

_PLAIN_SIZING = {
    "M1": MosGeometry(0.18e-6, 0.72e-6),
    "M2": MosGeometry(0.18e-6, 0.72e-6),
    "M3": MosGeometry(0.18e-6, 0.72e-6),
    "M4": MosGeometry(0.18e-6, 0.72e-6),
    "M5": MosGeometry(1.19e-6, 0.18e-6),
    "M6": MosGeometry(1.19e-6, 0.18e-6),
    "M7": MosGeometry(0.21e-6, 0.18e-6),
    "M8": MosGeometry(0.34e-6, 0.18e-6),
    "M9": MosGeometry(0.34e-6, 0.18e-6),
    "M10": MosGeometry(0.21e-6, 0.18e-6),
    "MPI": MosGeometry(0.54e-6, 0.18e-6),
    "MNI": MosGeometry(0.18e-6, 0.18e-6),
}


def table_sizing(variant: ComparatorVariant) -> dict[str, MosGeometry]:
    """Default per-device geometry map for a variant (copy, safe to edit)."""
    table = _HYSTERESIS_SIZING if variant is ComparatorVariant.HYSTERESIS else _PLAIN_SIZING
    return dict(table)


@dataclass(frozen=True)
class ComparatorConfig:
    variant: ComparatorVariant = ComparatorVariant.HYSTERESIS
    nmos: MosModel = NMOS_DEFAULT
    pmos: MosModel = PMOS_DEFAULT
    sizing: dict[str, MosGeometry] | None = None  # None -> variant table
    i_in: SourceSpec = field(default_factory=lambda: DcSpec(0.0))
    i_ref: float = 0.0  # [A]

    def resolved_sizing(self) -> dict[str, MosGeometry]:
        if self.sizing is None:
            return table_sizing(self.variant)
        for name in DEVICE_NAMES:
            if name not in self.sizing:
                raise ConfigError(f"sizing map is missing device {name!r}")
        for name in self.sizing:
            if name not in DEVICE_NAMES:
                raise ConfigError(f"sizing map names unknown device {name!r}")
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
    i_1: float    # current delivered into node C [A]
    i_2: float    # current delivered into node D [A]


def comparator_text(config: ComparatorConfig) -> str:
    """Netlist text for the comparator on a 3 V supply; always valid generator grammar."""
    sz = config.resolved_sizing()
    lines = [
        f"current comparator ({config.variant.value} variant)",
        "VDD VDD 0 DC 3",
        f"IIN 0 A {_spec_text(config.i_in)}",
        f"IREF 0 B {_spec_text(DcSpec(config.i_ref))}",
        _mosfet_line("M1", "A", "B", "0", "0", "nm", sz["M1"]),
        _mosfet_line("M2", "B", "B", "0", "0", "nm", sz["M2"]),
        _mosfet_line("M3", "A", "A", "VDD", "VDD", "pm", sz["M3"]),
        _mosfet_line("M4", "B", "B", "VDD", "VDD", "pm", sz["M4"]),
        _mosfet_line("M5", "C", "A", "VDD", "VDD", "pm", sz["M5"]),
        _mosfet_line("M6", "D", "B", "VDD", "VDD", "pm", sz["M6"]),
        _mosfet_line("M7", "C", "C", "0", "0", "nm", sz["M7"]),
        _mosfet_line("M8", "C", "D", "0", "0", "nm", sz["M8"]),
        _mosfet_line("M9", "D", "C", "0", "0", "nm", sz["M9"]),
        _mosfet_line("M10", "D", "D", "0", "0", "nm", sz["M10"]),
        _mosfet_line("MPI", "OUT", "C", "VDD", "VDD", "pm", sz["MPI"]),
        _mosfet_line("MNI", "OUT", "C", "0", "0", "nm", sz["MNI"]),
        _model_line("nm", config.nmos),
        _model_line("pm", config.pmos),
        ".end",
    ]
    return "\n".join(lines) + "\n"


def build_comparator(config: ComparatorConfig | None = None) -> Netlist:
    """Generate and parse the comparator netlist (round-trip by construction)."""
    return parse_netlist(comparator_text(config or ComparatorConfig()))


def build_latch_testbench(diode_geom: MosGeometry, cross_geom: MosGeometry,
                          nmos: MosModel, i_1: float, i_2: float) -> Netlist:
    """Latch core alone, driven by ideal current sources into C and D.

    The 3 V VDD source touches no other element, so it changes no result.
    """
    lines = [
        "positive feedback latch testbench",
        "VDD VDD 0 DC 3",
        f"I1 0 C DC {i_1:.12g}",
        f"I2 0 D DC {i_2:.12g}",
        _mosfet_line("M7", "C", "C", "0", "0", "nm", diode_geom),
        _mosfet_line("M8", "C", "D", "0", "0", "nm", cross_geom),
        _mosfet_line("M9", "D", "C", "0", "0", "nm", cross_geom),
        _mosfet_line("M10", "D", "D", "0", "0", "nm", diode_geom),
        _model_line("nm", nmos),
        ".end",
    ]
    return parse_netlist("\n".join(lines) + "\n")


def extract_operating_point(netlist: Netlist, solution: Solution) -> LatchOperatingPoint:
    """Pull the closed-form inputs out of a solved comparator.

    Requires the generator's canonical names; i_1/i_2 are the mirror
    currents delivered into the latch (magnitudes of the M5/M6 drain
    currents).
    """
    devices = {}
    for name in ("M1", "M2", "M3", "M5", "M6", "M7", "M9"):
        try:
            devices[name] = netlist.find_element(name)
        except Exception:
            raise ExtractionError(f"netlist lacks canonical device {name!r}") from None
    try:
        i_ref_el = netlist.find_source("IREF")
    except Exception:
        raise ExtractionError("netlist lacks the IREF source") from None

    evals = solution.device_evals
    for name in ("M1", "M2", "M5", "M6"):
        if devices[name].name not in evals:
            raise ExtractionError(f"solution carries no evaluation for {name!r}")

    volts = solution.node_voltages
    for node in ("C", "D"):
        if node not in volts:
            raise ExtractionError(f"solution lacks node {node!r}")

    m7 = devices["M7"]
    return LatchOperatingPoint(
        k_n7=kfactor(m7.model, m7.geom),
        k_n9=kfactor(devices["M9"].model, devices["M9"].geom),
        k_p3=kfactor(devices["M3"].model, devices["M3"].geom),
        k_p5=kfactor(devices["M5"].model, devices["M5"].geom),
        v_th=m7.model.vto,
        i_d1=evals[devices["M1"].name].id,
        i_d2=evals[devices["M2"].name].id,
        i_ref=i_ref_el.spec.value_at(0.0),
        v_c=volts["C"],
        v_d=volts["D"],
        i_1=-evals[devices["M5"].name].id,
        i_2=-evals[devices["M6"].name].id,
    )
