"""Comparator generator, sizing tables and operating-point extraction."""

import dataclasses
import math

import pytest

from hystlab import (
    ComparatorConfig,
    ComparatorVariant,
    ConfigError,
    DcSpec,
    ExtractionError,
    MosGeometry,
    Netlist,
    NetlistError,
    Resistor,
    build_comparator,
    build_latch_testbench,
    dc_solve,
    device_evals,
    extract_operating_point,
    mos_eval,
    parse_netlist,
    table_sizing,
)
from hystlab import audit as audit_module
from hystlab.comparator import DEVICE_NAMES


def test_element_inventory():
    net = build_comparator()
    names = [e.name for e in net.elements]
    assert len(names) == 15
    assert names[:3] == ["VDD", "IIN", "IREF"]
    for dev in DEVICE_NAMES:
        assert dev in names


@pytest.mark.parametrize("variant, dev, w, l", [
    (ComparatorVariant.HYSTERESIS, "M1", 0.18e-6, 0.72e-6),
    (ComparatorVariant.HYSTERESIS, "M3", 0.54e-6, 0.72e-6),
    (ComparatorVariant.HYSTERESIS, "M5", 1.08e-6, 0.18e-6),
    (ComparatorVariant.HYSTERESIS, "M7", 0.27e-6, 0.18e-6),
    (ComparatorVariant.HYSTERESIS, "M8", 0.36e-6, 0.18e-6),
    (ComparatorVariant.PLAIN, "M3", 0.18e-6, 0.72e-6),
    (ComparatorVariant.PLAIN, "M5", 1.19e-6, 0.18e-6),
    (ComparatorVariant.PLAIN, "M7", 0.21e-6, 0.18e-6),
    (ComparatorVariant.PLAIN, "M8", 0.34e-6, 0.18e-6),
])
def test_sizing_tables(variant, dev, w, l):
    geom = table_sizing(variant)[dev]
    assert geom.w == pytest.approx(w) and geom.l == pytest.approx(l)


def test_generated_text_is_canonical():
    text = build_comparator(ComparatorConfig()).to_text()
    assert "M5 C A VDD VDD pm W=1.08u L=0.18u" in text
    assert "M9 D C 0 0 nm W=0.36u L=0.18u" in text
    assert "IREF 0 B DC 0" in text
    # generator output must parse back to the same geometry
    net = parse_netlist(text)
    m7 = net.find_element("M7")
    assert m7.geom.w == pytest.approx(0.27e-6, rel=1e-9)
    assert m7.model.kp == pytest.approx(170e-6, rel=1e-9)


@pytest.mark.parametrize("variant", list(ComparatorVariant))
def test_generated_text_parses_back_equal(variant):
    net = build_comparator(ComparatorConfig(variant=variant))
    assert parse_netlist(net.to_text()) == net
    assert net.nodes == ("0", "VDD", "A", "B", "C", "D", "OUT")


def test_custom_config_is_built_exactly():
    # no text round trip: W and the currents are not rounded to print digits
    sizing = table_sizing(ComparatorVariant.HYSTERESIS)
    sizing["M5"] = MosGeometry(1.0812345678901e-6, 0.18e-6)
    iin = DcSpec(1.44204697594123e-06)
    net = build_comparator(ComparatorConfig(sizing=sizing, i_in=iin,
                                            i_ref=9.11010274375754e-08))
    assert net.find_element("M5").geom == sizing["M5"]
    assert net.find_source("IIN").spec == iin
    assert net.find_source("IREF").spec == DcSpec(9.11010274375754e-08)


@pytest.mark.parametrize("kwargs", [
    dict(i_ref=math.nan),
    dict(i_ref=-math.inf),
])
def test_nonfinite_currents_rejected(kwargs):
    with pytest.raises(ConfigError, match="finite"):
        ComparatorConfig(**kwargs)


@pytest.mark.parametrize("i_1, i_2", [(math.nan, 20e-6), (20e-6, math.inf)])
def test_latch_testbench_rejects_nonfinite_currents(zero_lambda_models, i_1, i_2):
    nmos, _ = zero_lambda_models
    geom = MosGeometry(0.27e-6, 0.18e-6)
    with pytest.raises(ConfigError, match="finite"):
        build_latch_testbench(geom, geom, nmos, i_1, i_2)


def test_sizing_table_copies_are_independent():
    a = table_sizing(ComparatorVariant.HYSTERESIS)
    a["M5"] = MosGeometry(9e-6, 9e-6)
    assert table_sizing(ComparatorVariant.HYSTERESIS)["M5"].w == pytest.approx(1.08e-6)


@pytest.mark.parametrize("lam", [0.0, 0.05])
def test_balance_is_symmetric(lam, zero_lambda_models):
    nmos, pmos = zero_lambda_models
    cfg = ComparatorConfig(nmos=dataclasses.replace(nmos, lam=lam),
                           pmos=dataclasses.replace(pmos, lam=lam))
    net = build_comparator(cfg)
    sol = dc_solve(net)
    v = sol.node_voltages
    # zero differential input: both halves sit at the same bias
    assert v["A"] == pytest.approx(v["B"], abs=1e-9)
    assert v["C"] == pytest.approx(v["D"], abs=1e-9)
    # the P mirror outputs M5 and M6 deliver equal currents into C and D
    evals = device_evals(net, sol)
    assert evals["M5"].id == pytest.approx(evals["M6"].id, rel=1e-9)
    assert evals["M5"].id < 0
    op = extract_operating_point(net, sol)
    assert op.i_d1 == pytest.approx(op.i_d2, rel=1e-9)


def test_balance_bias_values(hysteresis_net):
    sol = dc_solve(hysteresis_net)
    v = sol.node_voltages
    assert v["B"] == pytest.approx(1.514289, abs=1e-5)
    assert v["C"] == pytest.approx(1.266730, abs=1e-5)
    assert v["OUT"] == pytest.approx(2.74945, abs=1e-4)


def test_self_bias_matches_closed_form(hysteresis_net):
    # the reference column self-biases where the M4 and M2 diodes carry
    # equal current: kp4*(2.5-V)^2 = kn2*(V-0.5)^2
    kp4 = 0.5 * 60e-6 * (0.54 / 0.72)
    kn2 = 0.5 * 170e-6 * (0.18 / 0.72)
    vb = (math.sqrt(kp4) * 2.5 + math.sqrt(kn2) * 0.5) \
        / (math.sqrt(kp4) + math.sqrt(kn2))
    sol = dc_solve(hysteresis_net)
    assert sol.node_voltages["B"] == pytest.approx(vb, rel=1e-3)
    assert sol.node_voltages["B"] == pytest.approx(vb, rel=1e-6)


def test_extracted_k_factors(hysteresis_net):
    op = extract_operating_point(hysteresis_net, dc_solve(hysteresis_net))
    assert op.k_n7 == pytest.approx(127.5e-6, rel=1e-12)
    assert op.k_n9 == pytest.approx(170e-6, rel=1e-12)
    assert op.k_p3 == pytest.approx(22.5e-6, rel=1e-12)
    assert op.k_p5 == pytest.approx(180e-6, rel=1e-12)
    assert op.v_th == 0.5
    assert op.i_ref == 0.0


def test_reference_branch_ignores_input_current(hysteresis_net):
    base = extract_operating_point(hysteresis_net, dc_solve(hysteresis_net))
    for iin in (-6e-6, 6e-6):
        net = hysteresis_net.replaced_source("IIN", DcSpec(iin))
        op = extract_operating_point(net, dc_solve(net))
        assert op.i_d2 == pytest.approx(base.i_d2, rel=1e-9)


def test_latch_testbench_structure(zero_lambda_models):
    nmos, _ = zero_lambda_models
    net = build_latch_testbench(MosGeometry(0.27e-6, 0.18e-6),
                                MosGeometry(0.36e-6, 0.18e-6),
                                nmos, 20e-6, 20e-6)
    assert [e.name for e in net.elements] == ["VDD", "I1", "I2",
                                              "M7", "M8", "M9", "M10"]
    sol = dc_solve(net)
    assert sol.node_voltages["C"] == pytest.approx(sol.node_voltages["D"],
                                                   abs=1e-9)


def test_latch_diode_only_limit(zero_lambda_models):
    # shrink the cross pair to nothing: each node sees only its diode,
    # so V_C -> vto + sqrt(i/k)
    nmos, _ = zero_lambda_models
    net = build_latch_testbench(MosGeometry(0.27e-6, 0.18e-6),
                                MosGeometry(0.27e-9, 0.18e-6),
                                nmos, 20e-6, 20e-6)
    sol = dc_solve(net)
    k7 = 0.5 * nmos.kp * (0.27e-6 / 0.18e-6)
    assert sol.node_voltages["C"] == pytest.approx(
        nmos.vto + math.sqrt(20e-6 / k7), rel=1e-3)


def test_incomplete_sizing_rejected():
    sz = table_sizing(ComparatorVariant.HYSTERESIS)
    del sz["M10"]
    with pytest.raises(ConfigError) as exc:
        build_comparator(ComparatorConfig(sizing=sz))
    assert "M10" in str(exc.value)


def test_unknown_sizing_name_rejected():
    sz = table_sizing(ComparatorVariant.HYSTERESIS)
    sz["MX"] = MosGeometry(1e-6, 1e-6)
    with pytest.raises(ConfigError) as exc:
        build_comparator(ComparatorConfig(sizing=sz))
    assert "MX" in str(exc.value)


@pytest.mark.parametrize("scale", [None, 0.9, 1.1])
def test_extraction_evaluates_m1_and_m2_alone(monkeypatch, scale):
    # i_d1 and i_d2 are M1's and M2's drain currents as device_evals gives
    # them, bit for bit, and an extraction evaluates those two devices alone
    sizing = None if scale is None else {
        name: MosGeometry(g.w * (scale if name in ("M1", "M5", "M9") else 1.0), g.l)
        for name, g in table_sizing(ComparatorVariant.HYSTERESIS).items()}
    net = build_comparator(ComparatorConfig(sizing=sizing, i_in=DcSpec(2e-6)))
    sol = dc_solve(net)
    calls = []

    def spy(*args):
        calls.append(args)
        return mos_eval(*args)

    monkeypatch.setattr(audit_module, "mos_eval", spy)
    op = extract_operating_point(net, sol)
    assert len(calls) == 2
    evals = device_evals(net, sol)
    assert op.i_d1 == evals["M1"].id and op.i_d2 == evals["M2"].id


def test_extraction_requires_canonical_names(zero_lambda_models):
    nmos, _ = zero_lambda_models
    bench = build_latch_testbench(MosGeometry(0.27e-6, 0.18e-6),
                                  MosGeometry(0.36e-6, 0.18e-6),
                                  nmos, 20e-6, 20e-6)
    sol = dc_solve(bench)
    with pytest.raises(ExtractionError) as exc:
        extract_operating_point(bench, sol)
    assert "M1" in str(exc.value)

    # a canonical name cannot be held by an element that is not a MOSFET:
    # the Netlist holds each name to its type's letter
    stock = build_comparator()
    els = tuple(Resistor("M9", "D", "0", 1e6) if e.name == "M9" else e
                for e in stock.elements)
    with pytest.raises(NetlistError, match="^Resistor name 'M9' does not start with R$"):
        Netlist(stock.title, els)

    # every canonical device present, the reference source missing
    net = Netlist(stock.title, tuple(e for e in stock.elements if e.name != "IREF"))
    with pytest.raises(ExtractionError, match="^netlist lacks the IREF source$"):
        extract_operating_point(net, dc_solve(net))


def test_extraction_requires_matching_solution(hysteresis_net,
                                               zero_lambda_models):
    nmos, _ = zero_lambda_models
    bench = build_latch_testbench(MosGeometry(0.27e-6, 0.18e-6),
                                  MosGeometry(0.36e-6, 0.18e-6),
                                  nmos, 20e-6, 20e-6)
    # the testbench solves only VDD, C and D; device_evals reads M1's gate
    # B first, then its source 0 and its drain A
    with pytest.raises(ExtractionError, match="^solution lacks node 'B'$"):
        extract_operating_point(hysteresis_net, dc_solve(bench))
