"""Seeded workloads of the hystlab benchmark.

Each workload turns a (seed, job index) pair into one user-level analysis,
runs it through hystlab's public API and checks the answer with an oracle
that does not share the code path under test. hystlab only ever sees the
generated circuits and stimuli; the seed stays in this file.

Why each workload exists, and which layer it loads, is written out in
README.md next to this file.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import random
from dataclasses import dataclass

import numpy as np

import hystlab as hl
import hystlab.cli


@dataclass(frozen=True)
class Job:
    index: int
    kind: str
    params: object


def _rng(workload: str, seed: int, k: int) -> random.Random:
    # string seeds hash through sha512, so draws do not depend on PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{k}")


class Band:
    """Both warm 321-point sweeps over +/-8 uA plus bisection to 1 nA."""

    name = "band"
    block = 4  # job 0 of every block is the stock build, driven through the CLI
    SPAN, STEP, REFINE = 8e-6, 50e-9, 1e-9
    CLI_ARGV = ("hyst", "--variant", "hysteresis", "--source", "IIN",
                "--range", "8u", "--step", "50n")
    GOLDEN = (3.1996093750000013e-06, -3.537109375000002e-06)  # CLI i_t1, i_t2

    def __init__(self, seed: int):
        self.seed = seed
        self.stock = hl.build_comparator(hl.ComparatorConfig())

    def job(self, k: int) -> Job:
        if k % self.block == 0:
            return Job(k, "stock", None)
        iref = _rng(self.name, self.seed, k).uniform(-2e-6, 2e-6)
        return Job(k, "iref_variant", self.stock.replaced_source("IREF", hl.DcSpec(iref)))

    def run(self, job: Job):
        if job.kind == "stock":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = hl.cli.run(list(self.CLI_ARGV))
            if code != 0:
                raise hl.HystlabError(f"hystlab hyst exited {code}: {err.getvalue().strip()}")
            return out.getvalue()
        net = job.params
        up = hl.dc_sweep(net, "IIN", -self.SPAN, self.SPAN, self.STEP)
        down = hl.dc_sweep(net, "IIN", self.SPAN, -self.SPAN, self.STEP)
        return hl.measure_hysteresis(up, down, "OUT", 1.5, self.REFINE, net)

    def check(self, job: Job, out) -> str | None:
        if job.kind == "stock":
            vals = dict(line.split("=", 1) for line in out.splitlines()
                        if "=" in line and " " not in line.split("=", 1)[0])
            got = (float(vals.get("i_t1", "nan")), float(vals.get("i_t2", "nan")))
            return None if got == self.GOLDEN else f"stock band {got} != golden {self.GOLDEN}"
        if not out.resolution <= self.REFINE:
            return f"bracket {out.resolution:.3e} A wider than {self.REFINE:g} A"
        if not out.i_t1 > out.i_t2:
            return f"i_t1={out.i_t1:.6e} not above i_t2={out.i_t2:.6e}"
        return None


def _rc_pulse_response(t: np.ndarray, tau: float, td: float, rise: float,
                       width: float, fall: float) -> np.ndarray:
    # a trapezoidal 0->1 V pulse is a sum of four ramps; an RC low-pass
    # answers the ramp s*u(s) with s - tau*(1 - exp(-s/tau))
    def ramp(t0: float) -> np.ndarray:
        s = np.clip(t - t0, 0.0, None)
        return s + tau * np.expm1(-s / tau)

    t_fall = td + rise + width
    return ((ramp(td) - ramp(td + rise)) / rise
            - (ramp(t_fall) - ramp(t_fall + fall)) / fall)


class RcTran:
    """The 5000-step RC deck: dt 1 ns to 5 us, seeded R, C and pulse timing."""

    name = "rc_tran"
    block = 1
    DT, TSTOP, TOL = 1e-9, 5e-6, 0.01

    def __init__(self, seed: int):
        self.seed = seed

    def job(self, k: int) -> Job:
        rng = _rng(self.name, self.seed, k)
        ohms = 1e3 * 2.0 ** rng.uniform(-0.5, 0.5)
        farads = 1e-9 * 2.0 ** rng.uniform(-0.5, 0.5)
        td = rng.uniform(0.0, 0.5e-6)
        rise, fall = rng.uniform(1e-12, 50e-9), rng.uniform(1e-12, 50e-9)
        width = rng.uniform(1e-6, 3e-6)
        deck = (f"rc lowpass\n"
                f"V1 in 0 PULSE(0 1 {td!r} {rise!r} {fall!r} {width!r} 0)\n"
                f"R1 in out {ohms!r}\n"
                f"C1 out 0 {farads!r}\n"
                f".end\n")
        return Job(k, "rc", (hl.parse_netlist(deck), ohms * farads, td, rise, width, fall))

    def run(self, job: Job):
        return hl.transient(job.params[0], self.DT, self.TSTOP)

    def check(self, job: Job, wave) -> str | None:
        _, tau, td, rise, width, fall = job.params
        t = wave.times()
        if len(t) != 5001:
            return f"{len(t)} samples, expected 5001"
        exact = _rc_pulse_response(t, tau, td, rise, width, fall)
        err = float(np.max(np.abs(wave.node("out") - exact)))
        return None if err < self.TOL else f"RC error {err:.3e} V over {self.TOL:g} V"


def delay_build() -> hl.Netlist:
    """The device-capacitance build of acceptance criteria 11-12."""
    nmos = dataclasses.replace(hl.NMOS_DEFAULT, lam=0.0, cgs=20e-15, cgd=20e-15)
    pmos = dataclasses.replace(hl.PMOS_DEFAULT, lam=0.0, cgs=20e-15, cgd=20e-15)
    sizing = hl.table_sizing(hl.ComparatorVariant.HYSTERESIS)
    for dev in ("M1", "M2", "M3", "M4"):
        g = sizing[dev]
        sizing[dev] = hl.MosGeometry(g.w * 6.0, g.l)
    sizing["M7"] = sizing["M10"] = hl.MosGeometry(0.36e-6, 0.18e-6)
    return hl.build_comparator(hl.ComparatorConfig(nmos=nmos, pmos=pmos, sizing=sizing,
                                                   i_ref=11.5e-6))


class Delay:
    """Square-wave delay bench: period 400 ns, dt 1 ns, 800 steps."""

    name = "delay"
    block = 4  # one job per block, at a seeded place, is the stock build
    PERIOD, DT, VDD = 400e-9, 1e-9, 3.0
    RERUN_TOL = 0.05

    def __init__(self, seed: int):
        self.seed = seed
        self.cap_build = delay_build()
        self.stock = hl.build_comparator(hl.ComparatorConfig())

    def job(self, k: int) -> Job:
        stock_slot = _rng(self.name, self.seed, -1 - k // self.block).randrange(self.block)
        rng = _rng(self.name, self.seed, k)
        if k % self.block == stock_slot:
            # outside the stock build's band, where its transient fails today
            return Job(k, "stock", (self.stock, 5e-6 * 10.0 ** rng.uniform(0.0, 1.0)))
        return Job(k, "cap_build", (self.cap_build, 1e-6 * 100.0 ** rng.uniform(0.0, 1.0)))

    def run(self, job: Job, dt: float | None = None):
        net, amp = job.params
        rise = self.PERIOD / 20.0
        pulse = hl.PulseSpec(v1=-amp, v2=amp, delay=0.0, rise=rise, fall=rise,
                             width=self.PERIOD / 2.0 - rise, period=self.PERIOD)
        bench = net.replaced_source("IIN", pulse)
        wave = hl.transient(bench, dt or self.DT, 2.0 * self.PERIOD)
        times = wave.times()
        return hl.measure_delay(times, hl.source_trace(bench, "IIN", times),
                                wave.node("OUT"), self.VDD)

    def check(self, job: Job, rep) -> str | None:
        if rep.t_plh > 0.0 and rep.t_phl > 0.0:
            return None
        return f"non-positive delay t_plh={rep.t_plh:.3e} t_phl={rep.t_phl:.3e}"

    def check_once(self, job: Job, rep) -> str | None:
        """The costly oracle, run on one passed job per run: dt/2 must agree."""
        fine = self.run(job, self.DT / 2.0)
        shift = abs(rep.average - fine.average) / fine.average
        if shift <= self.RERUN_TOL:
            return None
        return f"dt/2 re-run moved the delay by {shift:.2%}"


class McOp:
    """Monte Carlo mismatch of the stock build: one cold operating point per job."""

    name = "mc_op"
    block = 1
    SIGMA_W = 0.05  # relative W mismatch per device, one sigma
    IDENTITY_RTOL = 1e-9

    def __init__(self, seed: int):
        self.seed = seed
        self.sizing = hl.table_sizing(hl.ComparatorVariant.HYSTERESIS)

    def job(self, k: int) -> Job:
        rng = _rng(self.name, self.seed, k)
        sizing = {name: hl.MosGeometry(g.w * (1.0 + rng.gauss(0.0, self.SIGMA_W)), g.l)
                  for name, g in self.sizing.items()}
        iin = rng.uniform(-8e-6, 8e-6)
        return Job(k, "instance", hl.ComparatorConfig(sizing=sizing, i_in=hl.DcSpec(iin)))

    def run(self, job: Job):
        net = hl.build_comparator(job.params)
        sol = hl.dc_solve(net)
        try:
            hl.verify_kcl(net, sol)
            kcl_error = None
        except hl.HystlabError as e:
            kcl_error = str(e)
        op = hl.extract_operating_point(net, sol)
        hl.node_squares(op, job.params.i_in.value)
        k_ratio = op.k_n9 / op.k_n7
        p = hl.current_ratio(op.v_c, op.v_d, op.v_th, k_ratio, hl.RatioDirection.LOW_TO_HIGH)
        p_prime = hl.current_ratio(op.v_c, op.v_d, op.v_th, k_ratio,
                                   hl.RatioDirection.HIGH_TO_LOW)
        tr = hl.transition_currents(op.i_ref, op.i_d1, op.i_d2, p, p_prime)
        return kcl_error, op, p, p_prime, tr

    def check(self, job: Job, out) -> str | None:
        kcl_error, op, p, p_prime, tr = out
        if kcl_error is not None:
            return kcl_error
        width = abs(p_prime - p) * op.i_d2
        up = op.i_ref + op.i_d1 - p * op.i_d2
        down = op.i_ref - (p_prime * op.i_d2 - op.i_d1)
        for got, want in ((tr.i_hy, width), (tr.i_t1, up), (tr.i_t2, down)):
            if not abs(got - want) <= self.IDENTITY_RTOL * abs(want) + 1e-24:
                return f"transition identity broken: {got!r} vs {want!r}"
        return None


WORKLOADS = {w.name: w for w in (Band, RcTran, Delay, McOp)}
