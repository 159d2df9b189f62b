"""SPICE-like netlist subset: value grammar, element records, parser, serializer.

Line-oriented format, first line is the title, '*' starts a comment.
Supported elements: R, C, V, I, M. Supported cards: .model and .end;
any other card is an error. Node names are arbitrary identifiers; "0"
is ground and "gnd" is accepted as an alias for it.

A Netlist is its title and its element records; each MOSFET record
carries its model card, and `Netlist.models` is worked out from them.
`parse_netlist` and the comparator generators build one; `Netlist.to_text`
is the one text writer, and prints only the cards that MOSFETs name. Each
record checks its own values, and one rule pass, `_check`, the rest (see
Netlist): a Netlist runs it over its records, with no line number in its
errors, and the parser on each line's element, so every deck error names
its line.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from itertools import product

from .devices import MosGeometry, MosModel, MosPolarity, NMOS_DEFAULT, PMOS_DEFAULT
from .errors import ModelError, NetlistError

_VALUE_RE = re.compile(r"^[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")

# "meg" must be tried before "m"
_SUFFIXES = (
    ("meg", 1e6),
    ("f", 1e-15),
    ("p", 1e-12),
    ("n", 1e-9),
    ("u", 1e-6),
    ("m", 1e-3),
    ("k", 1e3),
    ("g", 1e9),
)


def parse_value(token: str) -> float:
    """Decimal with optional SI suffix; trailing unit letters ignored.

    "1k" -> 1000, "2.5uF" -> 2.5e-6, "3MEG" -> 3e6. Anything outside
    that grammar, or a value that overflows a float, raises NetlistError.
    """
    m = _VALUE_RE.match(token)
    if not m:
        raise NetlistError(f"malformed value {token!r}")
    value = float(m.group(0))
    rest = token[m.end():]
    if rest:
        low = rest.lower()
        for suffix, mult in _SUFFIXES:
            if low.startswith(suffix):
                tail = low[len(suffix):]
                if tail and not tail.isalpha():
                    raise NetlistError(f"malformed value {token!r} (bad unit tail {tail!r})")
                value *= mult
                break
        else:
            raise NetlistError(f"unknown suffix {rest!r} in value {token!r}")
    if not math.isfinite(value):
        raise NetlistError(f"value {token!r} is not a finite number")
    return value


@dataclass(frozen=True)
class DcSpec:
    value: float  # [V] or [A]

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise NetlistError(f"source value must be finite, got {self.value}")

    def value_at(self, t: float) -> float:
        return self.value

    def corner_after(self, t: float) -> float:
        """A constant has no corner: inf."""
        return math.inf


@dataclass(frozen=True)
class PulseSpec:
    v1: float      # initial level
    v2: float      # pulsed level
    delay: float   # [s]
    rise: float    # [s], > 0
    fall: float    # [s], > 0
    width: float   # [s], >= 0
    period: float  # [s], 0 means single-shot

    def __post_init__(self):
        if not all(map(math.isfinite, vars(self).values())):
            raise NetlistError(f"pulse parameters must be finite, got {self}")
        if self.rise <= 0.0 or self.fall <= 0.0:
            raise NetlistError("pulse rise and fall times must be > 0")
        if self.width < 0.0:
            raise NetlistError("pulse width must be >= 0")
        if self.period != 0.0 and self.period < self.rise + self.fall + self.width:
            raise NetlistError("pulse period shorter than rise+width+fall")

    def value_at(self, t: float) -> float:
        tau = t - self.delay
        if tau < 0.0:
            return self.v1
        if self.period > 0.0:
            tau = tau % self.period
        if tau < self.rise:
            return self.v1 + (self.v2 - self.v1) * tau / self.rise
        tau -= self.rise
        if tau < self.width:
            return self.v2
        tau -= self.width
        if tau < self.fall:
            return self.v2 + (self.v1 - self.v2) * tau / self.fall
        return self.v1

    def corner_after(self, t: float) -> float:
        """The first time after t at which value_at may change slope: the
        start or end of a rise or fall; inf when none follows.

        Between t and that time value_at is one straight piece. A period
        too short to resolve at t (cycles beyond 2**52) puts a corner
        everywhere: that returns t itself.
        """
        marks = (0.0, self.rise, self.rise + self.width, self.rise + self.width + self.fall)
        start = self.delay
        if self.period > 0.0 and t > start:
            cycles = (t - start) // self.period
            if not cycles < 2.0**52:
                return t
            start += max(cycles - 1.0, 0.0) * self.period  # a cycle early, for rounding
        for base in (start, start + self.period, start + 2.0 * self.period):
            for mark in marks:
                if base + mark > t:
                    return base + mark
        return math.inf


SourceSpec = DcSpec | PulseSpec


@dataclass(frozen=True)
class Resistor:
    name: str
    pos: str
    neg: str
    ohms: float

    def __post_init__(self):
        if not self.ohms > 0.0:  # NaN fails too
            raise NetlistError(f"resistance must be > 0, got {self.ohms}")
        if not math.isfinite(1.0 / self.ohms):
            raise NetlistError(f"resistance {self.ohms} has no finite conductance")


@dataclass(frozen=True)
class Capacitor:
    name: str
    pos: str
    neg: str
    farads: float

    def __post_init__(self):
        if not self.farads >= 0.0:  # NaN fails too
            raise NetlistError(f"capacitance must be >= 0, got {self.farads}")


@dataclass(frozen=True)
class VSource:
    name: str
    pos: str
    neg: str
    spec: SourceSpec


@dataclass(frozen=True)
class ISource:
    """Current source: drives spec amperes from pos through itself into neg.

    A positive value therefore flows INTO the neg node. The comparator
    generator injects its input as `IIN 0 A DC x` so positive x raises
    the receiving node.
    """

    name: str
    pos: str
    neg: str
    spec: SourceSpec


@dataclass(frozen=True)
class Mosfet:
    name: str
    d: str
    g: str
    s: str
    b: str
    model_name: str
    model: MosModel
    geom: MosGeometry


Element = Resistor | Capacitor | VSource | ISource | Mosfet


# every case spelling of "gnd", which the parser reads as ground "0"
_GND = frozenset(map("".join, product("gG", "nN", "dD")))


# the letter that starts each element type's name, as the parser reads it
_LETTER = {Resistor: "R", Capacitor: "C", VSource: "V", ISource: "I", Mosfet: "M"}
_TYPE = {letter: cls for cls, letter in _LETTER.items()}

# one token of the parser's split: no whitespace (\s is what str.isspace
# accepts), paren or comma; the rules try the cheaper isalnum() first
_TOKEN = re.compile(r"[^\s(),]+").fullmatch


def _root(joined: dict[str, str], node: str) -> str:
    while node in joined:  # child -> parent, up to the root of node's tree
        node = joined[node]
    return node


def _check(el: Element, names: dict[str, Element], nodes: dict[str, None],
           cards: dict[str, MosModel], joined: dict[str, str]):
    """Check el by Netlist's rules against the elements before it, then add
    it to their tables: names by upper-case name, nodes in order of first
    use (each checked as it enters), cards by lower-case model name, and
    the nodes that voltage sources join."""
    kind = type(el)
    key = el.name.upper()
    if key in names:
        raise NetlistError(f"duplicate element name {el.name!r}")
    letter = _LETTER[kind]
    if el.name[:1].upper() != letter:
        raise NetlistError(f"{kind.__name__} name {el.name!r} does not start with {letter}")
    if not (el.name.isalnum() or _TOKEN(el.name)):
        raise NetlistError(f"element name {el.name!r} is not one token")
    for node in (el.d, el.g, el.s, el.b) if kind is Mosfet else (el.pos, el.neg):
        if node not in nodes:
            if node in _GND:
                raise NetlistError(f"{el.name} names node {node!r}; spell ground '0'")
            if not (node.isalnum() or _TOKEN(node)):
                raise NetlistError(f"{el.name} names node {node!r}, which is not one token")
            nodes[node] = None
    if kind is VSource:
        pos, neg = _root(joined, el.pos), _root(joined, el.neg)
        if pos == neg:
            raise NetlistError(f"{el.name} closes a loop of voltage sources")
        joined[pos] = neg
    elif kind is Mosfet:
        low = el.model_name.lower()
        if low not in cards and not (el.model_name.isalnum() or _TOKEN(el.model_name)):
            raise NetlistError(f"{el.name} names model {el.model_name!r}, which is not one token")
        # the generators share one card object per model: one `is` test each
        card = cards.setdefault(low, el.model)
        if card is not el.model and card != el.model:
            raise NetlistError(f"model {el.model_name!r} names two different cards")
    names[key] = el


@dataclass(frozen=True)
class Netlist:
    """A title and its element records. It rejects a name that repeats
    case-insensitively or does not start with its type's letter (R, C, V,
    I or M), a terminal spelled "gnd" in any case, two cards under one
    model name, and a voltage source whose ends other voltage sources join
    already, one from a node to itself included: no solve can fix the
    current around such a loop. Names, nodes and model names must each be
    one token of the parser's split, and the title one stripped line, so
    that `to_text` reads back as this netlist. `nodes` (ground "0" first
    if any element, then terminals in order of first use) and the name
    table are kept when it is built, outside the fields that ==, hash and
    repr read."""

    title: str
    elements: tuple[Element, ...]

    def __post_init__(self):
        if self.title != self.title.strip() or len(self.title.splitlines()) > 1:
            raise NetlistError(f"title {self.title!r} is not one stripped line")
        tables = ({}, {"0": None}, {}, {})  # _check's: names, nodes, cards, joined
        for el in self.elements:
            _check(el, *tables)
        vars(self).update(nodes=tuple(tables[1]) if self.elements else (), _by_name=tables[0])

    @classmethod
    def _checked(cls, title: str, elements: tuple, names: dict, nodes) -> "Netlist":
        """A Netlist of a stripped one-line title and of elements that _check
        ran over, in order, into names and nodes: no rule runs again."""
        net = object.__new__(cls)
        vars(net).update(title=title, elements=elements, _by_name=names,
                         nodes=tuple(nodes) if elements else ())
        return net

    @property
    def models(self) -> dict[str, MosModel]:
        """Each MOSFET's card by lower-case model name, in order of first use."""
        return {el.model_name.lower(): el.model
                for el in self.elements if isinstance(el, Mosfet)}

    def find_element(self, name: str) -> Element:
        el = self._by_name.get(name.upper())
        if el is None:
            raise NetlistError(f"no element named {name!r}")
        return el

    def find_source(self, name: str) -> VSource | ISource:
        el = self.find_element(name)
        if not isinstance(el, (VSource, ISource)):
            raise NetlistError(f"element {name!r} is not a source")
        return el

    def replaced_source(self, name: str, spec: SourceSpec) -> "Netlist":
        """Copy of this netlist with one source's spec swapped out. It keeps
        the names, nodes and cards that the rules checked, and the new spec
        checks itself, so no rule runs again."""
        src = self.find_source(name)
        new = replace(src, spec=spec)
        els = tuple(new if el is src else el for el in self.elements)
        return self._checked(self.title, els, {**self._by_name, src.name.upper(): new}, self.nodes)

    def to_text(self) -> str:
        lines = [self.title]
        for el in self.elements:
            lines.append(_element_line(el))
        for name, model in self.models.items():
            lines.append(_model_line(name, model))
        lines.append(".end")
        return "\n".join(lines) + "\n"


def _fmt(v: float, micro: bool = False) -> str:
    """v to 12 significant digits (in micro, with a "u" suffix, if asked),
    or repr(v) where those digits would not parse back to v."""
    short = f"{v * 1e6:.12g}u" if micro else f"{v:.12g}"
    return short if parse_value(short) == v else repr(v)


def _element_line(el: Element) -> str:
    if isinstance(el, Mosfet):
        return (f"{el.name} {el.d} {el.g} {el.s} {el.b} {el.model_name} "
                f"W={_fmt(el.geom.w, micro=True)} L={_fmt(el.geom.l, micro=True)}")
    if isinstance(el, Resistor):
        value = _fmt(el.ohms)
    elif isinstance(el, Capacitor):
        value = _fmt(el.farads)
    elif isinstance(el.spec, DcSpec):
        value = f"DC {_fmt(el.spec.value)}"
    else:
        p = el.spec
        value = "PULSE(" + " ".join(
            _fmt(x) for x in (p.v1, p.v2, p.delay, p.rise, p.fall, p.width, p.period)) + ")"
    return f"{el.name} {el.pos} {el.neg} {value}"


# .model parameter -> MosModel field, in print order. KP and VTO fall back
# to the default card when left out, so they are always printed; the rest
# fall back to zero and are printed when nonzero.
_MODEL_FIELDS = {"KP": "kp", "VTO": "vto", "LAMBDA": "lam", "CGS": "cgs", "CGD": "cgd"}


def _model_line(name: str, m: MosModel) -> str:
    kind = "NMOS" if m.polarity is MosPolarity.N else "PMOS"
    params = " ".join(f"{key}={_fmt(value)}" for key, field in _MODEL_FIELDS.items()
                      if (value := getattr(m, field)) or key in ("KP", "VTO"))
    return f".model {name} {kind} ({params})"


def _parse_source_spec(tokens: list[str]) -> SourceSpec:
    head = tokens[0].upper()
    if head == "DC":
        if len(tokens) != 2:
            raise NetlistError("DC spec takes exactly one value")
        return DcSpec(parse_value(tokens[1]))
    if head == "PULSE":
        if len(tokens) != 8:
            raise NetlistError("PULSE spec takes 7 values")
        return PulseSpec(*map(parse_value, tokens[1:]))
    raise NetlistError(f"unknown source spec {tokens[0]!r}")


def _parse_kv(tokens: list[str]) -> dict[str, str]:
    out = {}
    for tok in tokens:
        key, _, val = tok.partition("=")
        if not key or not val:
            raise NetlistError(f"expected key=value, got {tok!r}")
        out[key.upper()] = val
    return out


def _parse_model_card(tokens: list[str]) -> tuple[str, MosModel]:
    # .model <name> NMOS|PMOS (params)
    if len(tokens) < 3:
        raise NetlistError(".model needs a name and a type")
    name = tokens[1].lower()
    kind = tokens[2].upper()
    if kind == "NMOS":
        polarity, base = MosPolarity.N, NMOS_DEFAULT
    elif kind == "PMOS":
        polarity, base = MosPolarity.P, PMOS_DEFAULT
    else:
        raise NetlistError(f"unknown model type {tokens[2]!r}")
    values = {"kp": base.kp, "vto": base.vto}
    for key, val in _parse_kv(tokens[3:]).items():
        if key not in _MODEL_FIELDS:
            raise NetlistError(f"unknown model parameter {key!r}")
        values[_MODEL_FIELDS[key]] = parse_value(val)
    return name, MosModel(polarity, **values)


def _node(raw: str) -> str:
    return "0" if raw in _GND else raw


def _element(tokens: list[str], models: dict[str, MosModel]) -> Element:
    head = tokens[0]
    cls = _TYPE.get(head[0].upper())
    if cls is Resistor or cls is Capacitor:
        if len(tokens) != 4:
            raise NetlistError(f"{cls.__name__.lower()} takes two nodes and a value")
        return cls(head, _node(tokens[1]), _node(tokens[2]), parse_value(tokens[3]))
    if cls is VSource or cls is ISource:
        if len(tokens) < 4:
            raise NetlistError("source takes two nodes and a spec")
        return cls(head, _node(tokens[1]), _node(tokens[2]), _parse_source_spec(tokens[3:]))
    if cls is Mosfet:
        if len(tokens) != 8:
            raise NetlistError("mosfet takes four nodes, a model and W=/L=")
        kv = _parse_kv(tokens[6:8])
        if set(kv) != {"W", "L"}:
            raise NetlistError("mosfet needs exactly W= and L=")
        w, l = parse_value(kv["W"]), parse_value(kv["L"])
        model_name = tokens[5]
        model = models.get(model_name.lower())
        if model is None:
            raise NetlistError(f"undeclared model {model_name!r}")
        d, g, s, b = map(_node, tokens[1:5])
        return Mosfet(head, d, g, s, b, model_name, model, MosGeometry(w, l))
    raise NetlistError(f"unknown element type {head!r}")


def parse_netlist(text: str) -> Netlist:
    """Parse netlist text into an immutable Netlist.

    Cards are read before elements, so a MOSFET may precede its .model
    card; a card that no MOSFET names is checked and then dropped. Each
    element line's record is built, its own value checks included, and
    then Netlist's rules run on it against the lines before (`_check`).
    Errors carry the 1-based line number of the offending line; card
    errors come first, then element errors in line order.
    """
    lines = text.splitlines()
    if not lines:
        raise NetlistError("empty netlist (missing title line)")
    title = lines[0].strip()

    cards: list[tuple[int, list[str]]] = []  # (line number, tokens) per line
    rows: list[tuple[int, list[str]]] = []
    for idx, raw_line in enumerate(lines[1:], start=2):
        line = raw_line.strip()
        if line.startswith("*"):
            continue
        # PULSE(...) and (param lists) tokenize with parens as spaces
        tokens = line.replace("(", " ").replace(")", " ").replace(",", " ").split()
        if not tokens:
            continue
        if tokens[0].lower() == ".end":
            break
        (cards if tokens[0].startswith(".") else rows).append((idx, tokens))

    models: dict[str, MosModel] = {}  # lookup only: each MOSFET carries its card
    elements: list[Element] = []
    tables = ({}, {"0": None}, {}, {})  # _check's, for the lines so far
    for idx, tokens in cards + rows:
        try:
            if tokens[0].lower() == ".model":
                name, model = _parse_model_card(tokens)
                if name in models:
                    raise NetlistError(f"duplicate model {name!r}")
                models[name] = model
            elif tokens[0].startswith("."):
                raise NetlistError(f"unknown card {tokens[0]!r}")
            else:
                elements.append(_element(tokens, models))
                _check(elements[-1], *tables)
        except (NetlistError, ModelError) as e:
            raise NetlistError(str(e), idx) from None

    return Netlist._checked(title, tuple(elements), *tables[:2])
