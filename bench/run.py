"""hystlab benchmark: one closed-loop client per workload.

    python3 bench/run.py --workload band --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload band --seed 1 --trace 1
    python3 bench/run.py --smoke

Run it from the root of a checkout; it imports hystlab from ``src/`` there
and refuses to run without it.

``--trace 0`` times the set-up in fresh interpreters, then runs a fixed
number of the workload's seeded jobs one after another, checks every answer
and prints the end-to-end metrics. The number of jobs is the workload's
nominal rate times ``--seconds``, rounded up to whole blocks, so the same
seed and seconds always attempt the same jobs and fail the same ones.
``--trace 1`` runs a fixed, seeded list of jobs once untraced and twice
traced, fails if the two traced passes disagree on any count, and prints
per-layer metrics per job; the spans go to ``bench/out/``. ``--smoke`` runs every workload for a few jobs through
the traced path. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# 7x7 solves gain nothing from BLAS threads; pin them before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PROBES = 9
REFERENCE_SAMPLES = 9  # reference loops timed by each set-up probe
# fixed job lists, so every count of a traced run repeats for a seed
TRACE_JOBS = {"band": 4, "rc_tran": 4, "delay": 8, "mc_op": 500}
SMOKE_JOBS = {"band": 2, "rc_tran": 1, "delay": 4, "mc_op": 16}
TAIL_BEYOND = 10  # the tail percentile keeps this many completed jobs above it
# jobs per second of host time on the 2-core machine the benchmark was tuned
# on, in its slow minutes (x1.5-1.8 the reference loop's quiet time); a run
# attempts rate x --seconds jobs, in whole blocks, however fast the machine is
NOMINAL_JOBS_PER_S = {"band": 1.25, "rc_tran": 1.0, "delay": 1.75, "mc_op": 250.0}
# a run on a machine this many times slower than --seconds allows stops early,
# at a block boundary, and says so
OVERRUN = 2.0

END_TO_END_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_s_p50": "s",
                    "job_s_tail": "s", "pass_ratio": "ratio", "peak_rss_mb": "MB"}


def import_program():
    """Import hystlab from this checkout's src/ and return the workloads module."""
    if not (SRC / "hystlab" / "__init__.py").is_file():
        sys.exit(f"error: no hystlab package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import hystlab
    if Path(hystlab.__file__).resolve().parent != SRC / "hystlab":
        sys.exit(f"error: imported hystlab from {hystlab.__file__}, not from {SRC}")
    import workloads
    return workloads


def environment() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "loadavg_start": os.getloadavg(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


class Outcome:
    """One attempted job: when it started, host seconds, status and why it
    did not pass. The closed loop adds the whole attempt's time (input
    generation, job and check) as ``segment`` and the machine's
    ``slowness`` around it."""

    __slots__ = ("start", "seconds", "status", "detail", "segment", "slowness")

    def __init__(self, start: float, seconds: float, status: str, detail: str | None = None):
        self.start, self.seconds, self.status, self.detail = start, seconds, status, detail
        self.segment = seconds
        self.slowness = 1.0


def attempt(wl, job, tracer=None):
    """Run one job and check its answer; returns (Outcome, output).

    status is "passed", "raised" (a hystlab error: the job failed),
    "wrong" (the oracle rejected the answer) or "error" (any other
    exception, a defect). Only "passed" is completed work.
    """
    import hystlab
    t0 = time.perf_counter()
    try:
        out = tracer.job(job.index, lambda: wl.run(job)) if tracer else wl.run(job)
    except hystlab.HystlabError as e:
        return Outcome(t0, time.perf_counter() - t0, "raised", f"{type(e).__name__}: {e}"), None
    except Exception as e:  # a defect, counted as a wrong answer and reported
        traceback.print_exc(file=sys.stderr)
        return Outcome(t0, time.perf_counter() - t0, "error", f"{type(e).__name__}: {e}"), None
    seconds = time.perf_counter() - t0
    reason = wl.check(job, out)
    if reason is not None:
        return Outcome(t0, seconds, "wrong", reason), None
    return Outcome(t0, seconds, "passed"), out


def check_once(wl, first) -> str | None:
    """The workload's costly oracle, run on the first passed job only."""
    if first is None or not hasattr(wl, "check_once"):
        return None
    job, out, outcome = first
    reason = wl.check_once(job, out)
    if reason is not None:
        outcome.status, outcome.detail = "wrong", reason
    return reason


def print_failures(outcomes):
    reasons = Counter(f"[{o.status}] {o.detail}" for o in outcomes if o.status != "passed")
    for reason, n in reasons.most_common():
        print(f"  {n} x {reason}")


def is_correct(outcomes) -> bool:
    return not any(o.status in ("wrong", "error") for o in outcomes)


def result_line(correct: bool, outcomes, metrics: dict) -> str:
    failed = sum(o.status != "passed" for o in outcomes)
    return json.dumps({"correct": correct, "attempted": len(outcomes), "failed": failed,
                       "metrics": metrics})


# ---- end-to-end run -------------------------------------------------------

def probe_setup(workload: str, seed: int):
    """In a fresh interpreter: import hystlab and build the first block of
    jobs, then time the reference loop to gauge the machine's speed."""
    t0 = time.perf_counter()
    wl = import_program().WORKLOADS[workload](seed)
    for k in range(wl.block):
        wl.job(k)
    setup = time.perf_counter() - t0
    import reference
    samples = [reference.reference_seconds() for _ in range(REFERENCE_SAMPLES)]
    print(repr(setup), repr(statistics.median(samples) / reference.REFERENCE_S))


def setup_seconds(workload: str, seed: int) -> list[tuple[float, float]]:
    """(host seconds, slowness) of each set-up probe."""
    probes = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
        setup, slowness = proc.stdout.split()[-2:]
        probes.append((float(setup), float(slowness)))
    return probes


def job_count(wl, seconds: float) -> int:
    """Jobs a run attempts: the nominal rate times ``seconds``, in whole blocks."""
    blocks = math.ceil(NOMINAL_JOBS_PER_S[wl.name] * seconds / wl.block)
    return max(blocks, 1) * wl.block


def closed_loop(wl, n_jobs: int, seconds: float):
    """One client: each job starts when the previous one has been checked.

    Runs jobs 0 .. n_jobs-1, unless the machine is so slow that OVERRUN x
    ``seconds`` pass first; it then stops at the next block boundary. Between
    jobs the reference loop samples the machine's speed; every outcome gets
    the slowness measured around it.
    """
    import reference
    attempt(wl, wl.job(0))  # warm-up, not counted
    speed = reference.MachineSpeed()
    outcomes, first = [], None  # first: (job, output, outcome) for check_once
    start = time.perf_counter()
    k = 0
    while k < n_jobs and (k % wl.block or time.perf_counter() - start < OVERRUN * seconds):
        t0 = time.perf_counter()
        job = wl.job(k)
        k += 1
        outcome, out = attempt(wl, job)
        outcome.segment = time.perf_counter() - t0
        speed.after_job(outcome.segment)
        outcomes.append(outcome)
        if first is None and outcome.status == "passed":
            first = (job, out, outcome)
    for o in outcomes:
        o.slowness = speed.slowness(o.start, o.start + o.seconds)
    return outcomes, first, time.perf_counter() - start, speed.overall()


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(workload: str, seed: int, seconds: float):
    wl_mod = import_program()
    env = environment()
    probes = setup_seconds(workload, seed)
    wl = wl_mod.WORKLOADS[workload](seed)
    n_jobs = job_count(wl, seconds)
    outcomes, first, wall, slowness = closed_loop(wl, n_jobs, seconds)
    once = check_once(wl, first)

    passed = [o for o in outcomes if o.status == "passed"]
    if not passed:
        print_failures(outcomes)
        sys.exit("error: no job passed, so no job time can be reported")
    n, n_passed = len(outcomes), len(passed)
    host = [o.seconds for o in passed]
    scaled = [o.seconds / o.slowness for o in passed]
    # Not every tail job slows down with the machine: mc_op's 30 ms fallback
    # solves kept their host time while the reference loop slowed 1.9x, and
    # band's tail jobs slowed as much as the loop. Ten runs each spread by
    # at most 0.10 with the square root of the run's slowness, 0.18 with no
    # correction and 0.27 with the full one.
    host_tail, tail_pct = tail(host)
    values = {
        "setup_s": statistics.median(t / slow for t, slow in probes),
        "jobs_per_s": n_passed / sum(o.segment / o.slowness for o in outcomes),
        "job_s_p50": statistics.median(scaled),
        "job_s_tail": host_tail / slowness ** 0.5,
        "pass_ratio": n_passed / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    env["loadavg_end"] = os.getloadavg()

    print(f"workload {workload}, seed {seed}: closed loop, 1 client, {wall:.2f} s, "
          f"{n} of {n_jobs} jobs attempted; the machine ran x{slowness:.3f} the "
          f"reference loop's quiet time")
    if n < n_jobs:
        print(f"warning: stopped after {OVERRUN:g} x {seconds:g} s, so this run's "
              f"attempted and failed counts do not repeat", file=sys.stderr)
    print("env " + json.dumps(env))
    notes = {
        "setup_s": f"median of {SETUP_PROBES} fresh interpreters; host s: "
                   + ", ".join(f"{t:.4f}" for t, _ in probes),
        "jobs_per_s": f"{n_passed} passed jobs; host {n_passed / wall:.4g} 1/s "
                      f"over {wall:.3f} s of loop",
        "job_s_p50": f"median of {n_passed} completed jobs; host {statistics.median(host):.4g} s",
        "job_s_tail": f"p{tail_pct:.2f} of {n_passed} completed jobs; host {host_tail:.4g} s",
        "pass_ratio": f"fail_ratio = {(n - n_passed) / n!r} ({n - n_passed} of {n} attempted)",
        "peak_rss_mb": "peak resident memory of this process",
    }
    for name, value in values.items():
        print(f"{name} = {value!r} {END_TO_END_UNITS[name]}  ({notes[name]})")
    if once is not None:
        print(f"once-per-run oracle failed: {once}")
    print_failures(outcomes)
    metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    print(result_line(is_correct(outcomes), outcomes, metrics))


# ---- traced run -----------------------------------------------------------

class TracedRun:
    """A fixed job list, each job run untraced and then in two traced passes.

    The three runs of a job follow each other, so the overhead ratio
    compares times taken on the machine in the same state.
    """

    def __init__(self, wl, n_jobs: int):
        import tracing
        jobs = [wl.job(k) for k in range(n_jobs)]
        attempt(wl, jobs[0])  # warm-up, not counted
        self.tracers = (tracing.Tracer(), tracing.Tracer())
        self.outcomes, first, statuses = [], None, ([], [])
        for job in jobs:
            outcome, out = attempt(wl, job)
            self.outcomes.append(outcome)
            if first is None and outcome.status == "passed":
                first = (job, out, outcome)
            for tracer, traced in zip(self.tracers, statuses):
                with tracer:
                    traced.append(attempt(wl, job, tracer)[0].status)
        self.once = check_once(wl, first)
        self.untraced_s = sum(o.seconds for o in self.outcomes)
        self.summaries = [tracing.Summary(t) for t in self.tracers]
        self.mismatch = self._self_check([o.status for o in self.outcomes], statuses)
        self.metrics = self.summaries[0].per_job(self.untraced_s)

    def _self_check(self, untraced, traced) -> list[str]:
        problems = [f"pass {i + 1} statuses differ from the untraced pass"
                    for i, s in enumerate(traced) if s != untraced]
        first, second = (s.exact_counts() for s in self.summaries)
        for key in sorted(set(first) | set(second)):
            if first.get(key, 0) != second.get(key, 0):
                problems.append(f"{key}: {first.get(key, 0)} then {second.get(key, 0)}")
        return problems

    def report(self):
        import tracing
        summary = self.summaries[0]
        for metric, unit in tracing.PER_LAYER:
            head, stat = metric.rsplit(".", 1)
            value = self.metrics[metric]
            if stat in ("busy_s", "self_s", "us_per_call") and not summary.observed(head):
                print(f"{metric} = not observed")
            else:
                print(f"{metric} = {value!r} {unit}")
        print(f"per job over {summary.jobs} traced jobs; untraced jobs took "
              f"{self.untraced_s:.4f} s, traced pass 1 {summary.job_ns * 1e-9:.4f} s")
        for problem in self.mismatch:
            print(f"trace self-check: {problem}", file=sys.stderr)


def traced(workload: str, seed: int):
    wl_mod = import_program()
    import tracing
    env = environment()
    run = TracedRun(wl_mod.WORKLOADS[workload](seed), TRACE_JOBS[workload])
    env["loadavg_end"] = os.getloadavg()
    print(f"workload {workload}, seed {seed}: traced run of {TRACE_JOBS[workload]} jobs")
    print("env " + json.dumps(env))
    run.report()
    print_failures(run.outcomes)
    if run.mismatch:
        sys.exit("error: two traced passes of the same jobs disagree on exact counts")
    path = OUT / f"trace-{workload}-seed{seed}.json.gz"
    run.tracers[0].write(path, {"workload": workload, "seed": seed, "env": env,
                                "per_job": run.metrics})
    print(f"spans written to {path.relative_to(ROOT)}")
    units = dict(tracing.PER_LAYER)
    metrics = {m: {"value": v, "unit": units[m]} for m, v in run.metrics.items()}
    correct = is_correct(run.outcomes) and run.once is None
    print(result_line(correct, run.outcomes, metrics))


def smoke(seed: int):
    wl_mod = import_program()
    print("env " + json.dumps(environment()))
    outcomes, metrics, correct = [], {}, True
    for name, n_jobs in SMOKE_JOBS.items():
        run = TracedRun(wl_mod.WORKLOADS[name](seed), n_jobs)
        failed = sum(o.status != "passed" for o in run.outcomes)
        print(f"{name}: {n_jobs} jobs, {failed} failed, trace overhead "
              f"x{run.metrics['trace.overhead_ratio']:.2f}")
        print_failures(run.outcomes)
        for problem in run.mismatch:
            print(f"  trace self-check: {problem}")
        correct &= is_correct(run.outcomes) and run.once is None and not run.mismatch
        outcomes += run.outcomes
        metrics[f"{name}.fail_ratio"] = {"value": failed / n_jobs, "unit": "ratio"}
        metrics[f"{name}.solver.dc_solve.calls"] = {
            "value": run.metrics["solver.dc_solve.calls"], "unit": "count"}
    print(result_line(correct, outcomes, metrics))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("band", "rc_tran", "delay", "mc_op"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run every workload for a few jobs, traced and untraced")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.smoke:
        smoke(args.seed)
    elif args.workload is None:
        p.error("--workload is required unless --smoke is given")
    elif args.probe_setup:
        probe_setup(args.workload, args.seed)
    elif args.trace:
        traced(args.workload, args.seed)
    else:
        end_to_end(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    main()
