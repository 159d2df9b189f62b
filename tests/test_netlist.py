"""Grammar, value suffixes, source specs and round-trip serialization."""

import dataclasses
import math
import re
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hystlab import (
    NMOS_DEFAULT,
    PMOS_DEFAULT,
    Capacitor,
    DcSpec,
    ISource,
    MosGeometry,
    MosModel,
    MosPolarity,
    Mosfet,
    Netlist,
    NetlistError,
    PulseSpec,
    Resistor,
    VSource,
    build_comparator,
    parse_netlist,
    parse_value,
)
from hystlab import netlist as netlist_module
from hystlab.solver import Plan

DIVIDER = """voltage divider
* a comment line
V1 in 0 DC 3
R1 in mid 1k
R2 mid gnd 2k
.end
"""


@pytest.mark.parametrize(
    "text,value",
    [
        ("1k", 1e3),
        ("1K", 1e3),
        ("2.5uF", 2.5e-6),
        ("3MEG", 3e6),
        ("3meg", 3e6),
        ("100n", 1e-7),
        ("10p", 1e-11),
        ("4f", 4e-15),
        ("1e-3", 1e-3),
        ("0.5", 0.5),
        ("-2.5m", -2.5e-3),
        ("+1.5G", 1.5e9),
        (".5u", 0.5e-6),
        ("1kohm", 1e3),     # trailing unit letters ignored
        ("2.2E3", 2.2e3),
    ],
)
def test_parse_value(text, value):
    assert parse_value(text) == pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize("text", ["1x", "abc", "", "k1", "1.2.3", "--5", "1 k",
                                  "1e400", "1e306MEG", "-1e400"])
def test_parse_value_rejects(text):
    with pytest.raises(NetlistError):
        parse_value(text)


def test_divider_structure():
    net = parse_netlist(DIVIDER)
    assert net.title == "voltage divider"
    assert [e.name for e in net.elements] == ["V1", "R1", "R2"]
    assert net.nodes[0] == "0"
    assert set(net.nodes) == {"0", "in", "mid"}
    r2 = net.find_element("r2")
    assert isinstance(r2, Resistor)
    assert r2.neg == "0"  # gnd aliased to 0
    assert net.find_element("V1").spec.value_at(0.0) == 3.0
    # an empty line, a line of spaces and one of bare parens hold no tokens
    spaced = DIVIDER.replace("V1 in", "\n   \n( )\nV1 in")
    assert parse_netlist(spaced) == net


def test_mosfet_and_model_cards():
    net = parse_netlist("""mos pair
M1 d g 0 0 nch W=0.27u L=0.18u
M2 d g 0 0 pch W=0.54u L=0.18u
.model nch NMOS (KP=170u VTO=0.5 LAMBDA=0.05)
.model pch PMOS (KP=60u VTO=-0.5)
.end
""")
    m1 = net.find_element("M1")
    assert isinstance(m1, Mosfet)
    assert m1.geom.w == pytest.approx(0.27e-6, rel=1e-12)
    assert m1.model.kp == pytest.approx(170e-6)
    assert m1.model.lam == pytest.approx(0.05)
    m2 = net.find_element("M2")
    assert m2.model.vto == -0.5
    assert m2.model.lam == 0.0  # LAMBDA optional, defaults to 0


def test_model_card_defaults_fall_back_to_stock_cards():
    net = parse_netlist("""defaults
M1 d d 0 0 nch W=1u L=1u
.model nch NMOS ()
.end
""")
    m = net.find_element("M1").model
    assert m.kp == pytest.approx(170e-6)
    assert m.vto == 0.5


def test_element_defined_before_model_card():
    # cards are read before elements: a device line may precede its .model line
    net = parse_netlist("""forward ref
M1 a a 0 0 n1 W=1u L=1u
.model n1 NMOS (KP=100u VTO=0.4)
.end
""")
    assert net.find_element("M1").model.kp == pytest.approx(100e-6)


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("R1 a 0 1k\nR1 a 0 2k", "line 3"),          # duplicate name
        ("R1 a 0 0", "resistance"),                   # R must be > 0
        ("C1 a 0 -1p", "capacitance"),                # C must be >= 0
        ("R1 a 1k", "line 2"),                        # arity
        ("M1 a b 0 0 nox W=1u L=1u", "nox"),          # unresolved model
        ("Q1 a b c", "Q"),                            # unknown element type
        ("V1 a 0 PULSE(0 1 0 0 1n 1n 0)", "rise"),    # rise must be > 0
        ("V1 a 0 PULSE(0 1 0 1n 1n 5n 6n)", "period"),
        ("R1 a 0 1x", "line 2"),
        ("V1 a 0 DC 1e400", "line 2"),                # overflows to inf
        ("R1 a 0 1e-320", "conductance"),             # 1/R overflows to inf
        (".op", "unknown card"),                      # analyses run from the CLI
        (".dc V1 0 1 0.1", "unknown card"),
        (".tran 1n 10n", "unknown card"),
        # several errors: elements in line order, model references included
        ("M1 a a 0 0 nox W=1u L=1u\nR1 a 0 bogus", "line 2: undeclared model 'nox'"),
        # card errors come before element errors
        ("R1 a 0 bogus\n.op", "line 3: unknown card '.op'"),
        # a record's own check gets the line number too
        (".model n1 NMOS (KP=-1u)", "line 2"),
        ("R1 a 0 1k\nM1 a a 0 0 n1 W=0 L=1u\n.model n1 NMOS ()", "line 3"),
        ("R1 a 0 1k2", "line 2: malformed value '1k2' (bad unit tail '2')"),
        ("V1 a 0 PULSE(0 1 0 1n 1n -1n 0)", "line 2: pulse width must be >= 0"),
        ("V1 a 0 DC 1 2", "line 2: DC spec takes exactly one value"),
        ("V1 a 0 PULSE(0 1)", "line 2: PULSE spec takes 7 values"),
        ("V1 a 0 SIN(0 1 1k)", "line 2: unknown source spec 'SIN'"),
        ("V1 a 0", "line 2: source takes two nodes and a spec"),
        (".model n1 NMOS (KP)", "line 2: expected key=value, got 'KP'"),
        (".model n1", "line 2: .model needs a name and a type"),
        (".model n1 NMOS (GAMMA=0.4)", "line 2: unknown model parameter 'GAMMA'"),
        (".model n1 NMOS ()\n.model N1 PMOS ()", "line 3: duplicate model 'n1'"),
        # Netlist's rules name the line too, after the line's record is built
        ("R1 a 0 1k\nr1 a 0 bogus", "line 3: malformed value 'bogus'"),
        ("V1 a 0 DC 1\nV2 0 a DC 2\nR1 a 0 1k", "line 3: V2 closes a loop"),
        ("M1 a a 0 0 n1 W=1u", "line 2: mosfet takes four nodes, a model and W=/L="),
        ("M1 a a 0 0 n1 W=1u X=1u", "line 2: mosfet needs exactly W= and L="),
        # the error names the model as the element line spells it
        ("M1 a a 0 0 NOX W=1u L=1u", "line 2: undeclared model 'NOX'"),
    ],
)
def test_parse_errors(body, fragment):
    with pytest.raises(NetlistError) as exc:
        parse_netlist(f"bad\n{body}\n.end\n")
    assert fragment in str(exc.value)


def test_empty_netlist_is_rejected():
    with pytest.raises(NetlistError, match="empty netlist"):
        parse_netlist("")


def test_error_carries_line_number():
    with pytest.raises(NetlistError) as exc:
        parse_netlist("t\nV1 a 0 DC 1\nR1 a 0 bogus\n.end\n")
    assert exc.value.line_no == 3
    assert str(exc.value).startswith("line 3:")


def test_pulse_value_at():
    p = PulseSpec(v1=-1.0, v2=1.0, delay=2e-9, rise=1e-9, fall=1e-9,
                  width=3e-9, period=10e-9)
    assert p.value_at(0.0) == -1.0
    assert p.value_at(2.5e-9) == pytest.approx(0.0)       # mid-rise
    assert p.value_at(4e-9) == 1.0                        # flat top
    assert p.value_at(6.5e-9) == pytest.approx(0.0)       # mid-fall
    assert p.value_at(9e-9) == -1.0
    assert p.value_at(12.5e-9) == pytest.approx(0.0)      # periodic repeat
    single = PulseSpec(0.0, 1.0, 0.0, 1e-9, 1e-9, 5e-9, 0.0)
    assert single.value_at(1e-3) == 0.0                   # one-shot tail


def test_pulse_corner_after():
    # corners at delay + n*period + {0, rise, rise+width, rise+width+fall}
    p = PulseSpec(v1=-1.0, v2=1.0, delay=2e-9, rise=1e-9, fall=1e-9,
                  width=3e-9, period=10e-9)
    assert p.corner_after(0.0) == 2e-9
    assert p.corner_after(2e-9) == pytest.approx(3e-9)    # strictly after t
    assert p.corner_after(6.5e-9) == pytest.approx(7e-9)
    assert p.corner_after(7.5e-9) == pytest.approx(12e-9)  # the next cycle
    assert p.corner_after(1e-6 + 2.5e-9) == pytest.approx(1e-6 + 3e-9)
    single = PulseSpec(0.0, 1.0, 0.0, 1e-9, 1e-9, 5e-9, 0.0)
    assert single.corner_after(6.5e-9) == pytest.approx(7e-9)
    assert single.corner_after(7.5e-9) == math.inf       # one-shot tail
    # a period too short to resolve at t: a corner everywhere
    tiny = PulseSpec(0.0, 1.0, 0.0, 1e-300, 1e-300, 0.0, 3e-300)
    assert tiny.corner_after(1e-9) == 1e-9


def test_dc_spec():
    assert DcSpec(2.5).value_at(123.0) == 2.5
    assert DcSpec(2.5).corner_after(0.0) == math.inf


def test_replaced_source():
    net = parse_netlist("t\nI1 0 a DC 1u\nR1 a 0 1k\n.end\n")
    swapped = net.replaced_source("I1", DcSpec(5e-6))
    assert swapped.find_source("I1").spec.value_at(0.0) == 5e-6
    # original untouched
    assert net.find_source("I1").spec.value_at(0.0) == 1e-6


SWAPS = {
    "divider": (lambda: parse_netlist(DIVIDER), "V1", DcSpec(5.0)),
    "stock-iin": (lambda: build_comparator(), "iin",
                  PulseSpec(-8e-6, 8e-6, 0.0, 1e-8, 1e-8, 1.8e-7, 4e-7)),
    "stock-iref": (lambda: build_comparator(), "IREF", DcSpec(1e-6)),
}


@pytest.mark.parametrize("case", SWAPS)
def test_replaced_source_equals_a_fresh_netlist(case):
    # the copy carries its tables over, and they are the ones that the
    # rules would build: ==, hash, nodes and every lookup agree
    make, name, spec = SWAPS[case]
    net = make()
    copy = net.replaced_source(name, spec)
    fresh = Netlist(copy.title, copy.elements)
    assert copy == fresh and hash(copy) == hash(fresh) and repr(copy) == repr(fresh)
    assert copy.nodes == fresh.nodes
    assert copy.find_source(name).spec == spec
    assert net.find_source(name).spec != spec
    for el in fresh.elements:
        for spelled in (el.name, el.name.lower(), el.name.upper()):
            assert copy.find_element(spelled) is fresh.find_element(spelled) is el
    with pytest.raises(NetlistError, match="^no element named 'X1'$"):
        copy.find_element("X1")


def test_rules_run_once_per_parsed_element_and_not_on_a_spec_swap(monkeypatch):
    texts = (DIVIDER, build_comparator().to_text())
    checked = []
    real = netlist_module._check

    def spy(el, *tables):
        checked.append(el)
        return real(el, *tables)

    monkeypatch.setattr(netlist_module, "_check", spy)
    for text in texts:
        net = parse_netlist(text)
        assert len(checked) == len(net.elements)
        assert all(a is b for a, b in zip(checked, net.elements))
        checked.clear()
        copy = net.replaced_source(net.elements[0].name, DcSpec(1.5))
        assert checked == []
        # a Netlist built or replaced by hand still runs every rule
        dataclasses.replace(copy, title="again")
        assert checked == list(copy.elements)
        checked.clear()


def test_find_source_rejects_other_elements():
    net = parse_netlist("t\nI1 0 a DC 1u\nR1 a 0 1k\n.end\n")
    with pytest.raises(NetlistError, match="element 'R1' is not a source"):
        net.find_source("R1")


def test_round_trip():
    src = """rt check
V1 in 0 DC 3
VP drv 0 PULSE(0 1.8 1n 0.1n 0.1n 4n 10n)
R1 in mid 12.34k
C1 mid 0 2.2p
I1 0 mid DC 1.5u
M1 out mid 0 0 nch W=0.36u L=0.18u
M2 out mid vdd vdd pch W=0.72u L=0.18u
M3 out mid 0 0 nch W=1.0416210002712285u L=0.18u
.model nch NMOS (KP=170u VTO=0.5 LAMBDA=0.05 CGS=1f)
.model pch PMOS (KP=60u VTO=-0.5)
.end
"""
    first = parse_netlist(src)
    # 12 significant digits where they parse back exactly (M3's W does not)
    text = first.to_text()
    assert "W=0.36u L=0.18u" in text and "W=1.0416210002712285e-06" in text
    second = parse_netlist(text)
    assert second == first
    assert second.to_text() == text


R_VALUES = st.floats(1.0, 1e7, allow_nan=False, allow_infinity=False)


@given(values=st.lists(R_VALUES, min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_round_trip_property(values):
    lines = ["generated ladder"]
    for i, v in enumerate(values):
        lines.append(f"R{i} n{i} n{i + 1} {v!r}")
    lines.append("V1 n0 0 DC 1")
    lines.append(".end")
    net = parse_netlist("\n".join(lines))
    assert parse_netlist(net.to_text()) == net


def test_ground_always_interned_first():
    net = parse_netlist("t\nR1 a b 1k\n.end\n")
    assert net.nodes[0] == "0"


def test_hand_built_netlist_has_parsed_nodes():
    mos = "M1 d mid s b nm W=1u L=1u\n.model nm NMOS ()\n.end"
    parsed = parse_netlist(DIVIDER.replace(".end", mos))
    nm = parsed.models["nm"]
    hand = Netlist("voltage divider", (
        VSource("V1", "in", "0", DcSpec(3.0)),
        Resistor("R1", "in", "mid", 1e3),
        Resistor("R2", "mid", "0", 2e3),  # the deck names this node gnd
        Mosfet("M1", "d", "mid", "s", "b", "nm", nm, MosGeometry(1e-6, 1e-6)),
    ))
    assert hand == parsed
    assert hand.nodes == parsed.nodes == ("0", "in", "mid", "d", "s", "b")
    assert Netlist("t", ()).nodes == parse_netlist("t\n.end\n").nodes == ()


def test_derived_tables_are_computed_once_per_netlist():
    net = parse_netlist(DIVIDER)
    assert net.nodes is net.nodes
    assert net.find_element("r1") is net.find_element("R1") is net.elements[1]
    with pytest.raises(NetlistError, match="no element named 'R9'"):
        net.find_element("R9")
    # the kept tables are no field: ==, hash and repr read the fields alone
    fresh = parse_netlist(DIVIDER)
    assert net == fresh and hash(net) == hash(fresh) and repr(net) == repr(fresh)
    copy = net.replaced_source("V1", DcSpec(5.0))
    assert copy.nodes is net.nodes  # carried over: a spec swap moves no node
    assert copy.find_element("v1").spec == DcSpec(5.0)
    assert net.find_element("v1").spec == DcSpec(3.0)


@pytest.mark.parametrize("make", [
    lambda: Resistor("R1", "a", "0", 0.0),
    lambda: Resistor("R1", "a", "0", math.nan),
    lambda: Resistor("R1", "a", "0", 5e-324),  # 1/R overflows to inf
    lambda: Capacitor("C1", "a", "0", -1e-12),
    lambda: Capacitor("C1", "a", "0", math.nan),
    lambda: DcSpec(math.nan),
    lambda: DcSpec(-math.inf),
    lambda: PulseSpec(math.nan, 1.0, 0.0, 1e-9, 1e-9, 1e-8, 0.0),
    lambda: PulseSpec(0.0, math.inf, 0.0, 1e-9, 1e-9, 1e-8, 0.0),
    lambda: PulseSpec(0.0, 1.0, 0.0, math.nan, 1e-9, 1e-8, 0.0),
    lambda: PulseSpec(0.0, 1.0, 0.0, 1e-9, 1e-9, 1e-8, math.inf),
], ids=["r-zero", "r-nan", "r-subnormal", "c-negative", "c-nan", "dc-nan", "dc-inf",
        "pulse-nan-level", "pulse-inf-level", "pulse-nan-rise", "pulse-inf-period"])
def test_records_check_their_values(make):
    with pytest.raises(NetlistError) as exc:
        make()
    assert exc.value.line_no is None
    assert not str(exc.value).startswith("line")


def test_hand_built_netlist_rejects_duplicate_names():
    # a sweep of V1 would move only one of them, so none may be built
    with pytest.raises(NetlistError, match="duplicate element name 'V1'") as exc:
        Netlist("t", (VSource("V1", "a", "0", DcSpec(1.0)),
                      VSource("V1", "b", "0", DcSpec(2.0)),
                      Resistor("R1", "a", "b", 1e3)))
    assert exc.value.line_no is None
    with pytest.raises(NetlistError, match="duplicate"):
        Netlist("t", (Resistor("R1", "a", "0", 1e3), Resistor("r1", "a", "0", 2e3)))


def _nmos(name: str, model_name: str, model: MosModel) -> Mosfet:
    return Mosfet(name, "a", "a", "0", "0", model_name, model, MosGeometry(1e-6, 1e-6))


@pytest.mark.parametrize("first", ["nm", "NM"])
def test_hand_built_netlist_rejects_two_cards_for_one_model(first):
    # to_text would print one .model nm card for both, so the text would
    # describe another circuit than the records
    with pytest.raises(NetlistError, match="model 'nm' names two different cards") as exc:
        Netlist("t", (VSource("V1", "a", "0", DcSpec(1.0)),
                      _nmos("M1", first, NMOS_DEFAULT), _nmos("M2", "nm", PMOS_DEFAULT)))
    assert exc.value.line_no is None


@pytest.mark.parametrize("ground", ["gnd", "GND"])
def test_hand_built_netlist_rejects_gnd_node(ground):
    # the parser reads gnd as ground "0"; a record would float it as its own node
    with pytest.raises(NetlistError, match=f"R1 names node '{ground}'; spell ground '0'") as exc:
        Netlist("t", (VSource("V1", "a", "0", DcSpec(1.0)), Resistor("R1", "a", ground, 1e3)))
    assert exc.value.line_no is None


def test_hand_built_netlist_rejects_a_name_of_another_type():
    # to_text would print this capacitor as "R2 b 0 1e-12", a 1e-12 ohm resistor
    with pytest.raises(NetlistError, match="^Capacitor name 'R2' does not start with C$"):
        Netlist("t", (VSource("V1", "a", "0", DcSpec(1.0)), Capacitor("R2", "b", "0", 1e-12)))
    assert Netlist("t", (Capacitor("c2", "b", "0", 1e-12),)).elements[0].name == "c2"


_NODES = ("0", "a", "b", "c")
_RECORDS = {"R": Resistor, "C": Capacitor, "V": VSource, "I": ISource}


def _record(kind: str, name: str, pos: str, neg: str, value: float):
    spec = DcSpec(value) if kind in "VI" else value
    return _RECORDS[kind](name, pos, neg, spec)


@given(rows=st.lists(st.tuples(st.sampled_from("RCVI"), st.sampled_from(_NODES),
                               st.sampled_from(_NODES), st.floats(1.0, 1e6)),
                     min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_source_loop_is_rejected_exactly_when_the_dc_matrix_is_singular(rows):
    # with gmin on every node, J = [G B; B^T 0] has G positive definite, so
    # it is singular exactly when the sources' incidence columns B, ground
    # row dropped, are dependent: when the sources close a loop
    els = tuple(_record(k, f"{k}{i}", p, q, v) for i, (k, p, q, v) in enumerate(rows))
    incidence = np.array([[(n == p) - (n == q) for n in _NODES[1:]]
                          for k, p, q, _ in rows if k == "V"]).reshape(-1, 3)
    loop = np.linalg.matrix_rank(incidence) < len(incidence)
    try:
        net = Netlist("t", els)
    except NetlistError as exc:
        # a hand-built loop has no line to name
        assert loop and exc.line_no is None
        assert str(exc).endswith(" closes a loop of voltage sources")
        return
    assert not loop
    plan = Plan(net)
    assert np.linalg.matrix_rank(plan.jac) == plan.n_unknowns


# characters that the parser splits on, strips, or reads as a line break,
# comment or card, besides those of plain identifiers
_ODD = " \t\n\x0c\x85\u2028(),*.="
_WORD = string.ascii_letters + string.digits + "_"
_TEXT = st.text(_WORD, min_size=1, max_size=3) | st.text(_WORD + _ODD, max_size=3)


@st.composite
def _named_record(draw):
    """An R, C, V, I or M record whose name starts with its type's letter,
    in either case, or with any letter or odd character, and whose nodes
    and model name may hold odd characters too."""
    kind = draw(st.sampled_from("RCVIM"))
    first = draw(st.sampled_from((kind, kind.lower()))
                 | st.sampled_from(string.ascii_letters + _ODD))
    name = first + draw(_TEXT)
    node = st.sampled_from(_NODES) | _TEXT
    if kind == "M":
        return Mosfet(name, draw(node), draw(node), draw(node), draw(node),
                      draw(st.just("nm") | _TEXT), NMOS_DEFAULT, MosGeometry(1e-6, 0.18e-6))
    return _record(kind, name, draw(node), draw(node), draw(st.floats(1e-15, 1e15)))


@given(title=st.just("t") | _TEXT, els=st.lists(_named_record(), max_size=6))
@settings(max_examples=200, deadline=None)
def test_accepted_records_round_trip(title, els):
    # a Netlist rejects what its text cannot say: whatever it accepts, the
    # parser reads back as the same records
    try:
        net = Netlist(title, tuple(els))
    except NetlistError:
        return
    assert parse_netlist(net.to_text()) == net


@pytest.mark.parametrize("make,message", [
    (lambda: Resistor("R 1", "a", "0", 1e3), "element name 'R 1' is not one token"),
    (lambda: Resistor("R(1", "a", "0", 1e3), "element name 'R(1' is not one token"),
    (lambda: Resistor("R1", "a,b", "0", 1e3), "R1 names node 'a,b', which is not one token"),
    (lambda: Resistor("R1", "a", "", 1e3), "R1 names node '', which is not one token"),
    (lambda: Capacitor("C1", "a\u2028b", "0", 1e-12),
     r"C1 names node 'a\u2028b', which is not one token"),
    (lambda: _nmos("M1", "n m", NMOS_DEFAULT), "M1 names model 'n m', which is not one token"),
    (lambda: _nmos("M1", "", NMOS_DEFAULT), "M1 names model '', which is not one token"),
], ids=["name-space", "name-paren", "node-comma", "node-empty", "node-line-separator",
        "model-space", "model-empty"])
def test_hand_built_netlist_rejects_what_is_not_one_token(make, message):
    # to_text would print a line the parser splits into other tokens
    with pytest.raises(NetlistError, match=f"^{re.escape(message)}$") as exc:
        Netlist("t", (VSource("V1", "a", "0", DcSpec(1.0)), make()))
    assert exc.value.line_no is None


@pytest.mark.parametrize("title", ["two\nlines", "a\x85b", "a\u2028b", " t", "t\t"])
def test_hand_built_netlist_rejects_a_title_that_does_not_read_back(title):
    # the parser reads the first line alone as the title, stripped
    with pytest.raises(NetlistError, match=r"^title .* is not one stripped line$"):
        Netlist(title, ())
    assert Netlist("a\tb c", ()).to_text() == "a\tb c\n.end\n"


def test_hand_built_mosfet_netlist_round_trips():
    pm = MosModel(MosPolarity.P, kp=50e-6, vto=0.0, lam=0.02, cgs=1e-15, cgd=2e-16)
    net = Netlist("two cards", (
        VSource("VDD", "vdd", "0", DcSpec(1.8)),
        _nmos("M1", "nm", NMOS_DEFAULT),
        Mosfet("M2", "a", "a", "vdd", "vdd", "pm", pm, MosGeometry(2e-6, 0.18e-6)),
        _nmos("M3", "nm", MosModel(MosPolarity.N, NMOS_DEFAULT.kp, NMOS_DEFAULT.vto,
                                   NMOS_DEFAULT.lam)),  # an equal card, not the same object
    ))
    assert list(net.models) == ["nm", "pm"]
    text = net.to_text()
    assert ".model pm PMOS (KP=5e-05 VTO=0 LAMBDA=0.02 CGS=1e-15 CGD=2e-16)" in text
    assert parse_netlist(text) == net


def test_upper_case_model_name_round_trips():
    # the card prints under its lower-case name; the element line keeps
    # the model name as spelled, and the parser reads it back so
    net = Netlist("t", (VSource("V1", "a", "0", DcSpec(1.0)), _nmos("M1", "NM", NMOS_DEFAULT)))
    text = net.to_text()
    assert "M1 a a 0 0 NM W=1u L=1u" in text and ".model nm NMOS" in text
    assert parse_netlist(text) == net


def test_unused_model_card_is_checked_then_dropped():
    deck = "t\nM1 a a 0 0 nm W=1u L=1u\n.model nm NMOS ()\n.model spare PMOS ()\n.end\n"
    parsed = parse_netlist(deck)
    assert parsed.models["nm"] == MosModel(MosPolarity.N, NMOS_DEFAULT.kp, NMOS_DEFAULT.vto)
    assert list(parsed.models) == ["nm"]
    assert ".model spare" not in parsed.to_text()
    assert parse_netlist(parsed.to_text()) == parsed
    with pytest.raises(NetlistError, match="line 4: unknown model type 'QMOS'"):
        parse_netlist(deck.replace("spare PMOS", "spare QMOS"))


def test_case_insensitive_duplicate_names():
    with pytest.raises(NetlistError):
        parse_netlist("t\nR1 a 0 1k\nr1 b 0 2k\n.end\n")


def test_end_stops_parsing():
    net = parse_netlist("t\nR1 a 0 1k\n.end\nR2 b 0 junk that would fail\n")
    assert len(net.elements) == 1
