"""Command-line front end.

Subcommands: op, dc, tran, hyst, delay, gen, analytic. Circuit input
is either a netlist file or a generated comparator via --variant.
Reports print human-readable text plus key=value machine lines; curves
are emitted as CSV. Exit codes: 0 ok, 1 any other hystlab error
(convergence, measurement, ...), 2 usage or file error, 3 netlist error.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from functools import cache
from pathlib import Path

from .analysis import (dc_sweep, hysteresis_walk, measure_delay, source_trace,
                       trace_csv, transient)
from .audit import device_evals
from .comparator import (ComparatorConfig, ComparatorVariant, LatchOperatingPoint,
                         build_comparator)
from .analytics import RatioDirection, current_ratio, node_squares, transition_currents
from .errors import ConfigError, HystlabError, NetlistError
from .netlist import Netlist, PulseSpec, parse_netlist, parse_value
from .solver import dc_solve

_VARIANTS = [v.value for v in ComparatorVariant]


def _si(text: str) -> float:
    try:
        return parse_value(text)
    except NetlistError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _add_circuit_input(sub: argparse.ArgumentParser):
    sub.add_argument("netlist", nargs="?", help="netlist file")
    sub.add_argument("--variant", choices=_VARIANTS,
                     help="generate a comparator instead of reading a file")


@cache
def _parser() -> argparse.ArgumentParser:
    """The CLI's argparse tree, built once: parse_args does not change it."""
    p = argparse.ArgumentParser(
        prog="hystlab",
        description="desk-scale MOS circuit simulator and comparator workbench")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("op", help="DC operating point")
    _add_circuit_input(sp)

    sp = sub.add_parser("dc", help="swept-DC transfer curve as CSV")
    _add_circuit_input(sp)
    sp.add_argument("--source", required=True)
    sp.add_argument("--from", dest="start", type=_si, required=True)
    sp.add_argument("--to", dest="stop", type=_si, required=True)
    sp.add_argument("--step", type=_si, required=True)
    sp.add_argument("--both", action="store_true",
                    help="also emit the reverse sweep")

    sp = sub.add_parser("tran", help="transient waveform as CSV")
    _add_circuit_input(sp)
    sp.add_argument("--dt", type=_si, required=True,
                    help="row spacing and shortest step; steps grow to 16*dt")
    sp.add_argument("--stop", type=_si, required=True)

    sp = sub.add_parser("hyst", help="bidirectional sweep hysteresis report")
    _add_circuit_input(sp)
    sp.add_argument("--source", default="IIN")
    sp.add_argument("--range", dest="span", type=_si, required=True,
                    help="sweep from -range to +range")
    sp.add_argument("--step", type=_si, required=True)
    sp.add_argument("--resolution", type=_si,
                    help="transition refinement target, default max(1n, step/100)")
    sp.add_argument("--node", default="OUT")
    sp.add_argument("--threshold", type=_si, default=1.5)

    sp = sub.add_parser("delay", help="square-wave propagation delay report")
    _add_circuit_input(sp)
    sp.add_argument("--amp", type=_si, required=True,
                    help="stimulus toggles between -amp and +amp")
    sp.add_argument("--period", type=_si, required=True)
    sp.add_argument("--dt", type=_si,
                    help="row spacing and shortest step, default period/400; "
                         "steps grow to 16*dt")
    sp.add_argument("--stop", type=_si, help="default 2*period")
    sp.add_argument("--source", default="IIN")
    sp.add_argument("--node", default="OUT")
    sp.add_argument("--vdd", type=_si, default=3.0)

    sp = sub.add_parser("gen", help="print a generated comparator netlist")
    sp.add_argument("--variant", choices=_VARIANTS, required=True)

    sp = sub.add_parser("analytic", help="closed-form transition currents")
    for flag in ("--kn7", "--kn9", "--kp3", "--kp5", "--vth",
                 "--id1", "--id2", "--vc", "--vd"):
        sp.add_argument(flag, type=_si, required=True)
    sp.add_argument("--iref", type=_si, default=0.0)
    sp.add_argument("--iin", type=_si, default=0.0)
    for sp in sub.choices.values():  # last, so each usage line ends with it
        sp.add_argument("-o", "--output")
    return p


def _load_circuit(args) -> Netlist:
    has_file = getattr(args, "netlist", None) is not None
    has_variant = getattr(args, "variant", None) is not None
    if has_file == has_variant:
        raise ConfigError("give exactly one of: a netlist file, or --variant")
    if has_variant:
        cfg = ComparatorConfig(variant=ComparatorVariant(args.variant))
        return build_comparator(cfg)
    try:
        text = Path(args.netlist).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{args.netlist}: not UTF-8 text ({e})") from None
    return parse_netlist(text)


def _positive(flag: str, value: float | None) -> float | None:
    """Reject a nonpositive flag value as a usage error (exit 2)."""
    if value is not None and value <= 0.0:
        raise ConfigError(f"{flag} must be > 0, got {value:g}")
    return value


@contextmanager
def _output(args):
    """The -o file, opened for writing, or stdout."""
    if getattr(args, "output", None):
        with open(args.output, "w") as out:
            yield out
    else:
        yield sys.stdout


def _emit(args, lines: list[str]):
    with _output(args) as out:
        out.write("\n".join(lines) + "\n")


def _values(**values) -> list[str]:
    """The key=value machine lines, in order, each value as repr spells it."""
    return [f"{name}={value!r}" for name, value in values.items()]


def _cmd_op(args) -> int:
    net = _load_circuit(args)
    sol = dc_solve(net)
    lines = ["node voltages:"]
    for node, v in sol.node_voltages.items():
        if node != "0":
            lines.append(f"  V({node}) = {v:.9g} V")
    if sol.branch_currents:
        lines.append("source branch currents:")
        for name, i in sol.branch_currents.items():
            lines.append(f"  I({name}) = {i:.9g} A")
    evals = device_evals(net, sol)
    if evals:
        lines.append("devices:")
        lines.append(f"  {'name':<6} {'region':<10} {'id [A]':>14} {'gm [S]':>14} {'gds [S]':>14}")
        for name, ev in evals.items():
            lines.append(f"  {name:<6} {ev.region.value:<10} {ev.id:>14.6e} "
                         f"{ev.gm:>14.6e} {ev.gds:>14.6e}")
    _emit(args, lines + _values(iterations=sol.iterations))
    return 0


def _cmd_dc(args) -> int:
    _positive("--step", args.step)
    net = _load_circuit(args)
    up = dc_sweep(net, args.source, args.start, args.stop, args.step)
    down = dc_sweep(net, args.source, args.stop, args.start, args.step) if args.both else None
    with _output(args) as out:
        trace_csv(up, out)
        if down is not None:
            out.write("\n")
            trace_csv(down, out)
    return 0


def _cmd_tran(args) -> int:
    _positive("--dt", args.dt)
    _positive("--stop", args.stop)
    net = _load_circuit(args)
    wave = transient(net, args.dt, args.stop)
    with _output(args) as out:
        trace_csv(wave, out)
    return 0


def _cmd_hyst(args) -> int:
    _positive("--range", args.span)
    _positive("--step", args.step)
    resolution = _positive("--resolution", args.resolution)
    net = _load_circuit(args)
    if resolution is None:
        resolution = max(1e-9, args.step / 100.0)
    rep = hysteresis_walk(net, args.source, -args.span, args.span, args.step,
                          args.node, args.threshold, resolution)
    _emit(args, [
        f"hysteresis of {args.node} against {args.threshold:g} V "
        f"({args.source} swept +/-{args.span:g} A):",
        f"  up transition   {rep.i_t1 * 1e6:.6f} uA",
        f"  down transition {rep.i_t2 * 1e6:.6f} uA",
        f"  width           {rep.i_hy * 1e6:.6f} uA",
        *_values(i_t1=rep.i_t1, i_t2=rep.i_t2, i_hy=rep.i_hy, resolution=rep.resolution),
    ])
    return 0


def _cmd_delay(args) -> int:
    period = _positive("--period", args.period)
    _positive("--amp", args.amp)
    _positive("--dt", args.dt)
    _positive("--stop", args.stop)
    _positive("--vdd", args.vdd)
    net = _load_circuit(args)
    rise = period / 20.0
    pulse = PulseSpec(v1=-args.amp, v2=args.amp, delay=0.0, rise=rise,
                      fall=rise, width=period / 2.0 - rise, period=period)
    net = net.replaced_source(args.source, pulse)
    dt = args.dt if args.dt is not None else period / 400.0
    stop = args.stop if args.stop is not None else 2.0 * period
    wave = transient(net, dt, stop)
    times = wave.times()
    rep = measure_delay(times, source_trace(net, args.source, times),
                        wave.node(args.node), args.vdd)
    _emit(args, [
        f"propagation delay of {args.node} (+/-{args.amp:g} A square wave, "
        f"period {period:g} s):",
        f"  low-to-high {rep.t_plh * 1e9:.6f} ns",
        f"  high-to-low {rep.t_phl * 1e9:.6f} ns",
        f"  average     {rep.average * 1e9:.6f} ns",
        *_values(t_plh=rep.t_plh, t_phl=rep.t_phl, average=rep.average),
    ])
    return 0


def _cmd_gen(args) -> int:
    _emit(args, _load_circuit(args).to_text().splitlines())
    return 0


def _cmd_analytic(args) -> int:
    # K = kp/2*W/L, which MosModel and MosGeometry already keep > 0
    for flag in ("--kn7", "--kn9", "--kp3", "--kp5"):
        _positive(flag, getattr(args, flag[2:]))
    op = LatchOperatingPoint(
        k_n7=args.kn7, k_n9=args.kn9, k_p3=args.kp3, k_p5=args.kp5,
        v_th=args.vth, i_d1=args.id1, i_d2=args.id2, i_ref=args.iref,
        v_c=args.vc, v_d=args.vd)
    sq_c, sq_d = node_squares(op, args.iin)
    k_ratio = args.kn9 / args.kn7
    p = current_ratio(args.vc, args.vd, args.vth, k_ratio,
                      RatioDirection.LOW_TO_HIGH)
    p_prime = current_ratio(args.vc, args.vd, args.vth, k_ratio,
                            RatioDirection.HIGH_TO_LOW)
    tr = transition_currents(args.iref, args.id1, args.id2, p, p_prime)
    _emit(args, _values(sq_c=sq_c, sq_d=sq_d, p=p, p_prime=p_prime, i_a=tr.i_a,
                        i_b=tr.i_b, i_t1=tr.i_t1, i_t2=tr.i_t2, i_hy=tr.i_hy))
    return 0


_COMMANDS = {
    "op": _cmd_op,
    "dc": _cmd_dc,
    "tran": _cmd_tran,
    "hyst": _cmd_hyst,
    "delay": _cmd_delay,
    "gen": _cmd_gen,
    "analytic": _cmd_analytic,
}


def run(argv: list[str] | None = None) -> int:
    """Parse argv and execute; returns the process exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return 0 if (e.code or 0) == 0 else 2
    try:
        return _COMMANDS[args.command](args)
    except (HystlabError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        if isinstance(e, NetlistError):
            return 3
        return 2 if isinstance(e, (ConfigError, OSError)) else 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
