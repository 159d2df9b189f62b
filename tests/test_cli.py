"""Command-line interface: exit codes, report formats, determinism."""

import hashlib
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hystlab import (
    ComparatorConfig,
    ComparatorVariant,
    ConfigError,
    ConvergenceError,
    ExtractionError,
    HystlabError,
    MeasurementError,
    ModelError,
    NetlistError,
    RatioDirection,
    build_comparator,
    current_ratio,
    dc_solve,
    dc_sweep,
    measure_hysteresis,
    node_squares,
    parse_netlist,
    parse_value,
    transition_currents,
    verify_kcl,
)
from hystlab.comparator import LatchOperatingPoint
from hystlab import cli
from hystlab import solver as solver_module
from hystlab.cli import run

PROBE = """current probe
IIN 0 a DC 0
R1 a 0 1meg
.end
"""

# 1 Mohm into a 1.5 V offset: node a swings symmetrically about the
# inverter-style threshold, so both delay edges are measurable
OFFSET = """offset probe
IIN 0 a DC 0
R1 a mid 1meg
V1 mid 0 DC 1.5
C1 a 0 20f
.end
"""

DIVIDER = """divider
V1 in 0 DC 3
R1 in mid 1k
R2 mid 0 2k
.end
"""


@pytest.fixture
def probe_file(tmp_path):
    p = tmp_path / "probe.cir"
    p.write_text(PROBE)
    return p


def _machine_lines(text):
    out = {}
    for line in text.splitlines():
        if "=" in line and " " not in line.split("=", 1)[0]:
            key, _, val = line.partition("=")
            try:
                out[key] = float(val)
            except ValueError:
                pass
    return out


def test_missing_file_is_usage_error(capsys):
    rc = run(["op", "/no/such/file.cir"])
    assert rc == 2
    assert "/no/such/file.cir" in capsys.readouterr().err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cir"
    bad.write_text("title\nR1 a 0 -5\n.end\n")
    assert run(["op", str(bad)]) == 3
    assert "error:" in capsys.readouterr().err


def test_non_utf8_file_is_file_error(tmp_path, capsys):
    # a file that does not decode is a file error, not a crash
    bad = tmp_path / "bad.cir"
    bad.write_bytes(b"\xff\xfe\x00")
    assert run(["op", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(bad) in err


@pytest.mark.parametrize("error,code", [
    (NetlistError("bad"), 3),
    (ConfigError("bad"), 2),
    (OSError("bad"), 2),
    (ModelError("bad"), 1),
    (ExtractionError("bad"), 1),
    (HystlabError("bad"), 1),
], ids=lambda x: type(x).__name__ if isinstance(x, Exception) else str(x))
def test_exit_code_follows_error_class(monkeypatch, capsys, error, code):
    def fail(args):
        raise error
    monkeypatch.setitem(cli._COMMANDS, "op", fail)
    assert run(["op", "--variant", "hysteresis"]) == code
    assert capsys.readouterr().err == "error: bad\n"


def test_failed_dc_both_writes_no_file(probe_file, tmp_path, monkeypatch, capsys):
    # the reverse sweep fails after the forward one has finished
    sweeps = []

    def sweep(*args):
        sweeps.append(args)
        if len(sweeps) == 2:
            raise ConvergenceError("reverse sweep failed")
        return dc_sweep(*args)
    monkeypatch.setattr(cli, "dc_sweep", sweep)
    out = tmp_path / "sweep.csv"
    rc = run(["dc", str(probe_file), "--source", "IIN", "--from=-1u",
              "--to", "1u", "--step", "0.5u", "--both", "-o", str(out)])
    assert rc == 1
    assert len(sweeps) == 2
    assert not out.exists()


def test_neither_input_is_usage_error(capsys):
    assert run(["op"]) == 2
    assert "exactly one" in capsys.readouterr().err


def test_both_inputs_is_usage_error(probe_file, capsys):
    assert run(["op", str(probe_file), "--variant", "hysteresis"]) == 2


# full `gen` output for both variants: the text that every generated
# circuit is parsed from
GEN_GOLDEN = {
    "hysteresis": """\
current comparator (hysteresis variant)
VDD VDD 0 DC 3
IIN 0 A DC 0
IREF 0 B DC 0
M1 A B 0 0 nm W=0.18u L=0.72u
M2 B B 0 0 nm W=0.18u L=0.72u
M3 A A VDD VDD pm W=0.54u L=0.72u
M4 B B VDD VDD pm W=0.54u L=0.72u
M5 C A VDD VDD pm W=1.08u L=0.18u
M6 D B VDD VDD pm W=1.08u L=0.18u
M7 C C 0 0 nm W=0.27u L=0.18u
M8 C D 0 0 nm W=0.36u L=0.18u
M9 D C 0 0 nm W=0.36u L=0.18u
M10 D D 0 0 nm W=0.27u L=0.18u
MPI OUT C VDD VDD pm W=0.54u L=0.18u
MNI OUT C 0 0 nm W=0.18u L=0.18u
.model nm NMOS (KP=0.00017 VTO=0.5 LAMBDA=0.05)
.model pm PMOS (KP=6e-05 VTO=-0.5 LAMBDA=0.05)
.end
""",
    "plain": """\
current comparator (plain variant)
VDD VDD 0 DC 3
IIN 0 A DC 0
IREF 0 B DC 0
M1 A B 0 0 nm W=0.18u L=0.72u
M2 B B 0 0 nm W=0.18u L=0.72u
M3 A A VDD VDD pm W=0.18u L=0.72u
M4 B B VDD VDD pm W=0.18u L=0.72u
M5 C A VDD VDD pm W=1.19u L=0.18u
M6 D B VDD VDD pm W=1.19u L=0.18u
M7 C C 0 0 nm W=0.21u L=0.18u
M8 C D 0 0 nm W=0.34u L=0.18u
M9 D C 0 0 nm W=0.34u L=0.18u
M10 D D 0 0 nm W=0.21u L=0.18u
MPI OUT C VDD VDD pm W=0.54u L=0.18u
MNI OUT C 0 0 nm W=0.18u L=0.18u
.model nm NMOS (KP=0.00017 VTO=0.5 LAMBDA=0.05)
.model pm PMOS (KP=6e-05 VTO=-0.5 LAMBDA=0.05)
.end
""",
}


def test_gen_emits_canonical_netlist(capsys):
    for variant, golden in GEN_GOLDEN.items():
        assert run(["gen", "--variant", variant]) == 0
        assert capsys.readouterr().out == golden


def test_op_reports_nodes_and_devices(tmp_path, capsys):
    f = tmp_path / "div.cir"
    f.write_text(DIVIDER)
    assert run(["op", str(f)]) == 0
    out = capsys.readouterr().out
    assert "V(mid) = 2" in out
    assert "I(V1) = -0.001" in out
    assert "iterations=" in out


# full `op --variant hysteresis` output: voltages, branch current, device
# table and the Newton iteration count
OP_STOCK_GOLDEN = """\
node voltages:
  V(VDD) = 3 V
  V(A) = 1.51396394 V
  V(B) = 1.51396394 V
  V(C) = 1.2750499 V
  V(D) = 1.2750499 V
  V(OUT) = 2.70551883 V
source branch currents:
  I(VDD) = -0.000485173912 A
devices:
  name   region             id [A]         gm [S]        gds [S]
  M1     saturation   2.350144e-05   4.635557e-05   1.092381e-06
  M2     saturation   2.350144e-05   4.635557e-05   1.092381e-06
  M3     saturation  -2.350144e-05   4.766851e-05   1.093801e-06
  M4     saturation  -2.350144e-05   4.766851e-05   1.093801e-06
  M5     saturation  -1.901021e-04   3.855885e-04   8.750404e-06
  M6     saturation  -1.901021e-04   3.855885e-04   8.750404e-06
  M7     saturation   8.147232e-05   2.102376e-04   3.829477e-06
  M8     saturation   1.086298e-04   2.803168e-04   5.105970e-06
  M9     saturation   1.086298e-04   2.803168e-04   5.105970e-06
  M10    saturation   8.147232e-05   2.102376e-04   3.829477e-06
  MPI    triode      -5.796685e-05   5.378708e-05   1.728067e-04
  MNI    saturation   5.796685e-05   1.495822e-04   2.552985e-06
iterations=8
"""


def test_op_stock_golden(capsys):
    # refactor guard: every printed digit and the iteration count
    assert run(["op", "--variant", "hysteresis"]) == 0
    assert capsys.readouterr().out == OP_STOCK_GOLDEN


@pytest.mark.parametrize("deck,fragment", [
    ("V1 a 0 DC 1e400\nR1 a 0 1k", "line 2"),
    ("V1 a 0 DC 1\nR1 a b 1e-320\nR2 b 0 1k", "line 3"),
])
def test_op_rejects_nonfinite_values(tmp_path, capsys, deck, fragment):
    # an overflowing value is a parse error naming its line, caught before
    # the solver could report a meaningless residual
    f = tmp_path / "inf.cir"
    f.write_text(f"overflow\n{deck}\n.end\n")
    assert run(["op", str(f)]) == 3
    assert fragment in capsys.readouterr().err


# full `dc --both` output on the probe: the up sweep, a blank line, the
# down sweep, each under its own header
DC_BOTH_GOLDEN = """\
stimulus,a
-1.000000000000e-06,-9.999990000010e-01
-5.000000000000e-07,-4.999995000005e-01
0.000000000000e+00,0.000000000000e+00
5.000000000000e-07,4.999995000005e-01
1.000000000000e-06,9.999990000010e-01

stimulus,a
1.000000000000e-06,9.999990000010e-01
5.000000000000e-07,4.999995000005e-01
0.000000000000e+00,0.000000000000e+00
-5.000000000000e-07,-4.999995000005e-01
-1.000000000000e-06,-9.999990000010e-01
"""


def test_dc_csv_both_directions(probe_file, tmp_path):
    out = tmp_path / "sweep.csv"
    rc = run(["dc", str(probe_file), "--source", "IIN", "--from=-1u",
              "--to", "1u", "--step", "0.5u", "--both", "-o", str(out)])
    assert rc == 0
    assert out.read_text() == DC_BOTH_GOLDEN


RC_DECK = """rc
V1 in 0 PULSE(0 1 0 1p 1p 5u 0)
R1 in out 1k
C1 out 0 1n
.end
"""

# full `tran` output on RC_DECK at dt=100n: header + 11 samples
TRAN_GOLDEN = """\
time,in,out
0.000000000000e+00,0.000000000000e+00,0.000000000000e+00
1.000000000000e-07,1.000000000000e+00,4.761900226535e-02
2.000000000000e-07,1.000000000000e+00,1.383218680380e-01
3.000000000000e-07,1.000000000000e+00,2.203863738606e-01
4.000000000000e-07,1.000000000000e+00,2.946352198981e-01
5.000000000000e-07,1.000000000000e+00,3.618127539932e-01
6.000000000000e-07,1.000000000000e+00,4.225924337854e-01
7.000000000000e-07,1.000000000000e+00,4.775835781523e-01
8.000000000000e-07,1.000000000000e+00,5.273374756577e-01
9.000000000000e-07,1.000000000000e+00,5.723529112423e-01
1.000000000000e-06,1.000000000000e+00,6.130811665644e-01
"""


def test_tran_csv(tmp_path):
    f = tmp_path / "rc.cir"
    f.write_text(RC_DECK)
    out = tmp_path / "wave.csv"
    rc = run(["tran", str(f), "--dt", "100n", "--stop", "1u", "-o", str(out)])
    assert rc == 0
    assert out.read_text() == TRAN_GOLDEN


# sha256 of the full `tran` output on RC_DECK at dt=1n to 5u: 5,001 samples,
# taken in steps of up to 16 ns, so most rows lie inside a longer step
TRAN_LONG_STEPS_SHA256 = "096f12b2d88723aaba6b31e2defa03f19f60d6c251a10a445094593045807ced"


def test_tran_csv_with_long_steps(tmp_path):
    f = tmp_path / "rc.cir"
    f.write_text(RC_DECK)
    out = tmp_path / "wave.csv"
    rc = run(["tran", str(f), "--dt", "1n", "--stop", "5u", "-o", str(out)])
    assert rc == 0
    text = out.read_text()
    assert text.count("\n") == 5002
    assert hashlib.sha256(text.encode()).hexdigest() == TRAN_LONG_STEPS_SHA256


def test_hyst_resistor_report(probe_file, capsys):
    rc = run(["hyst", str(probe_file), "--range", "2u", "--step", "10n",
              "--node", "a"])
    assert rc == 0
    vals = _machine_lines(capsys.readouterr().out)
    # 1.5 V threshold across (1 Mohm || gmin): both edges at the same spot
    assert vals["i_t1"] == 1.5003125e-06
    assert vals["i_t2"] == 1.5003125e-06
    assert vals["i_hy"] == abs(vals["i_t1"] - vals["i_t2"])
    assert vals["i_hy"] == 0.0
    assert vals["resolution"] <= 1e-9


def test_hyst_runs_are_byte_identical(probe_file, capsys):
    argv = ["hyst", str(probe_file), "--range", "2u", "--step", "50n",
            "--node", "a"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first


def test_hyst_without_crossing_fails(probe_file, capsys):
    rc = run(["hyst", str(probe_file), "--range", "2u", "--step", "50n",
              "--node", "a", "--threshold", "5"])
    assert rc == 1
    assert "found 0" in capsys.readouterr().err


def test_delay_report(tmp_path, capsys):
    f = tmp_path / "offset.cir"
    f.write_text(OFFSET)
    rc = run(["delay", str(f), "--amp", "2u", "--period", "400n",
              "--node", "a"])
    assert rc == 0
    out = capsys.readouterr().out
    vals = _machine_lines(out)
    # dominated by the 20 ns RC at node a; edges nearly symmetric
    assert 10e-9 < vals["t_plh"] < 20e-9
    assert vals["t_phl"] == pytest.approx(vals["t_plh"], abs=1e-11)
    assert vals["average"] == (vals["t_plh"] + vals["t_phl"]) / 2
    # refactor guard: the transient's exact output. The deck has no
    # MOSFET, so its steps grow past dt on the plateaus: against fixed
    # steps of dt, t_plh moved by 3.4e-15 s and t_phl by 6.9e-14 s
    assert out.splitlines()[-3:] == ["t_plh=1.5349852329261113e-08",
                                     "t_phl=1.5349083286951996e-08",
                                     "average=1.5349467808106556e-08"]


def test_delay_threshold_never_crossed_fails(probe_file, capsys):
    # without the offset the node swings +/-2 V around 0, crossing
    # 1.5 V off-phase with the stimulus edges
    rc = run(["delay", str(probe_file), "--amp", "2u", "--period", "400n",
              "--node", "a"])
    assert rc == 1


def test_analytic_matches_library(capsys):
    rc = run(["analytic", "--kn7", "127.5u", "--kn9", "170u", "--kp3", "22.5u",
              "--kp5", "180u", "--vth", "0.5", "--id1", "21.86u",
              "--id2", "21.86u", "--vc", "1.2667", "--vd", "1.2667"])
    assert rc == 0
    vals = _machine_lines(capsys.readouterr().out)
    # feed the library the same parsed floats the CLI saw
    kn7, kn9 = parse_value("127.5u"), parse_value("170u")
    id_ = parse_value("21.86u")
    op = LatchOperatingPoint(k_n7=kn7, k_n9=kn9, k_p3=parse_value("22.5u"),
                             k_p5=parse_value("180u"), v_th=0.5, i_d1=id_,
                             i_d2=id_, i_ref=0.0, v_c=1.2667, v_d=1.2667)
    sq_c, sq_d = node_squares(op, 0.0)
    p = current_ratio(1.2667, 1.2667, 0.5, kn9 / kn7,
                      RatioDirection.LOW_TO_HIGH)
    pp = current_ratio(1.2667, 1.2667, 0.5, kn9 / kn7,
                       RatioDirection.HIGH_TO_LOW)
    tr = transition_currents(0.0, id_, id_, p, pp)
    assert vals["sq_c"] == sq_c and vals["sq_d"] == sq_d
    assert vals["p"] == p and vals["p_prime"] == pp
    assert vals["i_t1"] == tr.i_t1 and vals["i_t2"] == tr.i_t2
    assert vals["i_hy"] == tr.i_hy


@pytest.mark.parametrize("iref", ["1k", "1e4", "1e6"])
def test_analytic_width_independent_of_reference_current(iref, capsys):
    # i_t1 and i_t2 both carry i_ref; their difference used to cancel
    # against it and trip the width cross-check
    argv = ["analytic", "--kn7", "100u", "--kn9", "120u", "--kp3", "50u",
            "--kp5", "50u", "--vth", "0.5", "--vc", "1.2", "--vd", "0.3",
            "--id1", "10u", "--id2", "10u", "--iref"]
    assert run(argv + ["0"]) == 0
    base = _machine_lines(capsys.readouterr().out)
    assert run(argv + [iref]) == 0
    vals = _machine_lines(capsys.readouterr().out)
    assert vals["i_hy"] == base["i_hy"]


@pytest.mark.parametrize("variant, i_t1, i_t2", [
    ("hysteresis", "3.1996093750000013e-06", "-3.537109375000002e-06"),
    ("plain", "2.6285156250000014e-06", "-2.569140625000001e-06"),
], ids=["hysteresis", "plain"])
def test_hyst_stock_golden(variant, i_t1, i_t2, capsys):
    # refactor guard: bisection midpoints on a dyadic grid survive
    # last-bit changes, so any drift here is a change of behaviour
    assert run(["hyst", "--variant", variant, "--source", "IIN",
                "--range", "8u", "--step", "50n"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert f"i_t1={i_t1}" in lines
    assert f"i_t2={i_t2}" in lines


# closed forms at K-factors of 1 or 2 A/V^2; a later repeat of a flag wins
ANALYTIC = ["analytic", "--kn7", "1", "--kn9", "2", "--kp3", "1", "--kp5", "1",
            "--vth", "0.5", "--id1", "1u", "--id2", "1u", "--vc", "1", "--vd", "1"]


@pytest.mark.parametrize("argv,flag", [
    # a negative range would sweep +8u to -8u "up" and swap the edges
    (["hyst", "--range=-8u", "--step", "50n"], "--range"),
    (["hyst", "--range", "8u", "--step", "0"], "--step"),
    (["hyst", "--range", "8u", "--step", "50n", "--resolution=-1n"], "--resolution"),
    (["dc", "--source", "IIN", "--from=-1u", "--to", "1u", "--step=-1n"], "--step"),
    (["tran", "--dt=-1n", "--stop", "10n"], "--dt"),
    (["tran", "--dt", "1n", "--stop", "0"], "--stop"),
    (["delay", "--amp", "1u", "--period", "400n", "--dt=-1n"], "--dt"),
    (["delay", "--amp", "1u", "--period", "400n", "--stop=-1n"], "--stop"),
    (["delay", "--amp", "1u", "--period", "0"], "--period"),
    # a negative amplitude inverts the square wave; zero has no edges
    (["delay", "--amp", "0", "--period", "400n"], "--amp"),
    (["delay", "--amp=-2u", "--period", "400n"], "--amp"),
    # a zero rail would report crossings of 0 V
    (["delay", "--amp", "1u", "--period", "400n", "--vdd", "0"], "--vdd"),
    (["delay", "--amp", "1u", "--period", "400n", "--vdd=-3"], "--vdd"),
    # K = kp/2*W/L > 0; a zero --kp3 used to divide by zero
    ([*ANALYTIC, "--kn7", "0"], "--kn7"),
    ([*ANALYTIC, "--kn9=-2"], "--kn9"),
    ([*ANALYTIC, "--kp3", "0"], "--kp3"),
    ([*ANALYTIC, "--kp5", "0"], "--kp5"),
], ids=["hyst-range", "hyst-step", "hyst-resolution", "dc-step", "tran-dt",
        "tran-stop", "delay-dt", "delay-stop", "delay-period", "delay-amp-zero",
        "delay-amp-negative", "delay-vdd-zero", "delay-vdd-negative",
        "analytic-kn7", "analytic-kn9", "analytic-kp3", "analytic-kp5"])
def test_nonpositive_flag_is_usage_error(argv, flag, capsys):
    if argv[0] != "analytic":
        argv = argv + ["--variant", "hysteresis"]
    rc = run(argv)
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {flag} must be > 0")


@pytest.mark.parametrize("argv", [
    ["tran", "RC", "--dt", "1n", "--stop", "1e300"],
    ["hyst", "--variant", "hysteresis", "--range", "1e300", "--step", "1e-9"],
], ids=["tran", "hyst"])
def test_infinite_point_count_fails(argv, tmp_path, capsys):
    # the count overflows a float; int() of it used to raise OverflowError
    deck = tmp_path / "rc.cir"
    deck.write_text(RC_DECK)
    rc = run([str(deck) if a == "RC" else a for a in argv])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "inf steps, over the budget of 1,000,000" in err


def test_stock_hyst_takes_under_400_newton_iterations(monkeypatch, capsys):
    # the coarse walk solves every 8th point and walks point by point only
    # near the threshold; both full sweeps took 768 iterations
    iters = []
    real = solver_module._newton

    def spy(*args, **kwargs):
        result = real(*args, **kwargs)
        iters.append(result[2])
        return result

    monkeypatch.setattr(solver_module, "_newton", spy)
    assert run(["hyst", "--variant", "hysteresis", "--range", "8u", "--step", "50n"]) == 0
    assert sum(iters) < 400  # test_hyst_stock_golden pins the answer


def test_hyst_walk_with_partial_last_step_matches_full_sweeps(capsys):
    # 16 uA in steps of 30 nA ends on a partial step, and neither the
    # 533 points nor the edges fall on the stride
    assert run(["hyst", "--variant", "hysteresis", "--range", "8u", "--step", "30n"]) == 0
    vals = _machine_lines(capsys.readouterr().out)
    net = build_comparator(ComparatorConfig())
    span, step = parse_value("8u"), parse_value("30n")  # the floats the CLI sweeps
    rep = measure_hysteresis(dc_sweep(net, "IIN", -span, span, step),
                             dc_sweep(net, "IIN", span, -span, step), "OUT", 1.5, 1e-9, net)
    assert (vals["i_t1"], vals["i_t2"]) == (rep.i_t1, rep.i_t2)


# a series PMOS/NMOS pair gated by the input drives a 100 kohm load: out
# rises to a bump of 1.63 V at 5.65 uA and falls back to 0
BUMP = """bump
VDD vdd 0 DC 3
IIN 0 in DC 0
RIN in 0 400k
MP mid in vdd vdd pch W=2u L=0.18u
MN mid in out 0 nch W=2u L=0.18u
RL out 0 100k
.model nch NMOS ()
.model pch PMOS ()
.end
"""


@pytest.mark.parametrize("threshold", ["1", "1.62"], ids=["wide", "peak"])
def test_hyst_rejects_a_double_crossing(threshold, tmp_path, capsys):
    # at 1.62 V only the grid point at 5.65 uA lies above the threshold,
    # inside a stride whose coarse ends lie below it; the stride is walked
    # because its end sits nearer the threshold than the output moves
    deck = tmp_path / "bump.cir"
    deck.write_text(BUMP)
    rc = run(["hyst", str(deck), "--range", "8u", "--step", "50n",
              "--node", "out", "--threshold", threshold])
    assert rc == 1
    err = capsys.readouterr().err
    assert "on the up sweep, found 2" in err
    net = parse_netlist(BUMP)
    with pytest.raises(MeasurementError, match="on the up sweep, found 2"):
        measure_hysteresis(dc_sweep(net, "IIN", -8e-6, 8e-6, 50e-9),
                           dc_sweep(net, "IIN", 8e-6, -8e-6, 50e-9), "out",
                           float(threshold), 1e-9, net)


def test_hyst_unknown_node_fails(capsys):
    rc = run(["hyst", "--variant", "hysteresis", "--range", "8u",
              "--step", "1u", "--node", "XYZ"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no node 'XYZ' in the trace")
    assert "OUT" in err


def test_analytic_singular_input_fails(capsys):
    rc = run(["analytic", "--kn7", "100u", "--kn9", "100u", "--kp3", "30u",
              "--kp5", "30u", "--vth", "0.5", "--id1", "10u", "--id2", "10u",
              "--vc", "1.0", "--vd", "1.0"])
    assert rc == 1


def test_bad_si_value_is_usage_error():
    assert run(["hyst", "--variant", "hysteresis", "--range", "2x",
                "--step", "10n"]) == 2


# flag values at the edges of what the value parser accepts, next to values
# a user would type. The typical values keep every sweep and transient
# either at a few dozen points or past the 1,000,000-point budget; a legal
# count between about 1e4 and 1e6 would pass the budget and take seconds.
EDGES = ("0", "-1", "1e-300", "1e300", "1e-20")
DIODE = """diode
V1 top 0 DC 3
R1 top d 10k
M1 d d 0 0 nch W=1u L=1u
.model nch NMOS (KP=200u VTO=0.5)
.end
"""


def _value(*usual):
    # one draw in five is an edge, so most runs pass all but one check
    return st.sampled_from(usual * (20 // len(usual)) + EDGES)


def _maybe(strategy):
    return st.one_of(st.none(), strategy)


@st.composite
def _cli_argv(draw, command, circuits):
    flags = {}
    if command == "analytic":
        for flag in ("kn7", "kn9", "kp3", "kp5", "vth", "id1", "id2", "vc", "vd"):
            flags[flag] = draw(_value("100u", "30u", "0.5", "1.2"))
        flags["iref"] = draw(_maybe(_value("1u")))
        flags["iin"] = draw(_maybe(_value("2u")))
        circuit = []
    else:
        # each circuit with its own stimulus and observed node
        circuit, source, node = draw(st.sampled_from(circuits))
    if command == "dc":
        flags["source"] = source
        flags["from"] = draw(_value("-8u", "8u", "1.5", "3"))
        flags["to"] = draw(_value("-8u", "8u", "1.5", "3"))
        flags["step"] = draw(_value("0.5", "0.5u"))
    elif command == "tran":
        flags["dt"] = draw(_value("10n"))
        flags["stop"] = draw(_value("200n"))
    elif command == "hyst":
        flags["source"] = source
        flags["range"] = draw(_value("8u"))
        flags["step"] = draw(_value("2u"))
        flags["resolution"] = draw(_maybe(_value("10n")))
        flags["node"] = node
        flags["threshold"] = draw(_maybe(_value("1.5")))
    elif command == "delay":
        flags["source"] = source
        flags["amp"] = draw(_value("8u", "2u"))
        flags["period"] = draw(_value("100n"))
        flags["dt"] = draw(_maybe(_value("1n")))
        flags["stop"] = draw(_maybe(_value("100n")))
        flags["vdd"] = draw(_maybe(_value("3")))
        flags["node"] = node
    argv = [command, *circuit]
    argv += [f"--{flag}={value}" for flag, value in flags.items() if value is not None]
    if command == "dc" and draw(st.booleans()):
        argv.append("--both")
    return argv


@pytest.fixture(scope="module")
def cli_circuits(tmp_path_factory):
    folder = tmp_path_factory.mktemp("decks")
    circuits = [(["--variant", "hysteresis"], "IIN", "OUT"),
                (["--variant", "plain"], "IIN", "OUT")]
    for name, text, source, node in (("probe", PROBE, "IIN", "a"), ("offset", OFFSET, "IIN", "a"),
                                     ("rc", RC_DECK, "V1", "out"),
                                     ("divider", DIVIDER, "V1", "mid"),
                                     ("diode", DIODE, "V1", "d")):
        path = folder / f"{name}.cir"
        path.write_text(text)
        circuits.append(([str(path)], source, node))
    return circuits


@pytest.mark.parametrize("command", ["op", "dc", "tran", "hyst", "delay", "analytic"])
def test_cli_never_raises(command, cli_circuits):
    # seeded, so tier-1 runs the same argv every time
    @settings(derandomize=True, deadline=None, max_examples=35, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_cli_argv(command, cli_circuits))
    def check(argv):
        code = run(argv)
        assert code in (0, 1, 2, 3), argv
        if command == "op" and code == 0:
            circuit = (build_comparator(ComparatorConfig(variant=ComparatorVariant(argv[2])))
                       if argv[1] == "--variant" else parse_netlist(Path(argv[1]).read_text()))
            verify_kcl(circuit, dc_solve(circuit))

    check()
