"""Per-layer tracing of hystlab from outside the package.

A Tracer replaces every binding of the traced entry points (the defining
module, each module that imported the name, and the package namespace)
with a wrapper that records a span: name, parent span, start, end, the job
it belongs to, whether it raised, and one counter taken from the result
(Newton iterations of a DC solve, steps of a transient). ``numpy.linalg.solve``
is wrapped the same way, as the ``linalg`` layer. Spans stay in memory and
are summarised, and written out, after the traced jobs end.

Only calls made while a job is open are recorded, so building inputs
between jobs never shows up in a layer.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

import hystlab as hl

# (layer, public name) of each traced entry point; a dotted name is a method
ENTRY_POINTS = (
    ("devices", "mos_eval"),
    ("netlist", "parse_netlist"),
    ("netlist", "Netlist.replaced_source"),
    ("solver", "dc_solve"),
    ("analysis", "dc_sweep"),
    ("analysis", "measure_hysteresis"),
    ("analysis", "transient"),
    ("analysis", "measure_delay"),
    ("comparator", "build_comparator"),
    ("comparator", "extract_operating_point"),
    ("analytics", "node_squares"),
    ("analytics", "current_ratio"),
    ("analytics", "transition_currents"),
    ("audit", "verify_kcl"),
    ("cli", "run"),
)
LINALG = "linalg.solve"
JOB = "job"

# a DC solve that needed more than this many iterations went past plain Newton
FALLBACK_ITERS = hl.SolverOptions().max_newton_iters

# (metric, unit) reported per job by the traced run
PER_LAYER = (
    ("devices.mos_eval.calls", "count"),
    ("devices.mos_eval.busy_s", "s"),
    ("devices.mos_eval.us_per_call", "us"),
    ("linalg.solve.calls", "count"),
    ("linalg.solve.busy_s", "s"),
    ("solver.dc_solve.calls", "count"),
    ("solver.dc_solve.busy_s", "s"),
    ("solver.dc_solve.self_s", "s"),
    ("solver.dc_solve.iters", "count"),
    ("solver.dc_solve.fallback_solves", "count"),
    ("solver.dc_solve.failed", "count"),
    ("netlist.parse_netlist.calls", "count"),
    ("netlist.parse_netlist.busy_s", "s"),
    ("netlist.replaced_source.calls", "count"),
    ("netlist.replaced_source.busy_s", "s"),
    ("analysis.dc_sweep.busy_s", "s"),
    ("analysis.dc_sweep.self_s", "s"),
    ("analysis.measure_hysteresis.busy_s", "s"),
    ("analysis.measure_hysteresis.self_s", "s"),
    ("analysis.transient.busy_s", "s"),
    ("analysis.transient.self_s", "s"),
    ("analysis.transient.steps", "count"),
    ("analysis.transient.failed", "count"),
    ("analysis.measure_delay.busy_s", "s"),
    ("comparator.build_comparator.busy_s", "s"),
    ("comparator.extract_operating_point.busy_s", "s"),
    ("audit.verify_kcl.calls", "count"),
    ("audit.verify_kcl.busy_s", "s"),
    ("analytics.busy_s", "s"),
    ("cli.run.busy_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

# span fields: name id, parent index (-1 for a job), start ns, end ns, job,
# raised, counter
FIELDS = ("name", "parent", "start_ns", "end_ns", "job", "raised", "counter")


def _iterations(sol) -> int:
    return sol.iterations


def _steps(wave) -> int:
    return len(wave.samples) - 1


COUNTERS = {"solver.dc_solve": _iterations, "analysis.transient": _steps}


class Tracer:
    """Wraps the traced bindings while installed; keeps spans in memory.

    It can be installed and removed many times; spans accumulate.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._job: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        sid = self._name_id(name)
        counter = COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if self._job is None:
                return fn(*args, **kwargs)
            span = [sid, stack[-1], 0, 0, self._job, False, 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[3] = clock()
                span[5] = True
                raise
            finally:
                stack.pop()
            span[3] = clock()
            if counter is not None:
                span[6] = counter(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "hystlab" or n.startswith("hystlab."))]
        for layer, public in ENTRY_POINTS:
            mod = importlib.import_module(f"hystlab.{layer}")
            if "." in public:
                cls_name, attr = public.split(".")
                owner = getattr(mod, cls_name)
                self._patch(owner, attr, self._wrap(owner.__dict__[attr], f"{layer}.{attr}"))
                continue
            fn = getattr(mod, public)
            wrapper = self._wrap(fn, f"{layer}.{public}")
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self._patch(m, attr, wrapper)
        self._patch(np.linalg, "solve", self._wrap(np.linalg.solve, LINALG))
        self._job_sid = self._name_id(JOB)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def job(self, index: int, fn):
        """Run fn() inside the span of job ``index`` and return its result."""
        span = [self._job_sid, -1, 0, 0, index, False, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._job = index
        span[2] = time.perf_counter_ns()
        try:
            return fn()
        finally:
            span[3] = time.perf_counter_ns()
            self._job = None
            self._stack.pop()

    def write(self, path, extra: dict):
        """Write every span as JSON, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(extra, names=self.names, fields=FIELDS, spans=self.spans)
        with gzip.open(path, "wt", compresslevel=1) as f:
            json.dump(doc, f, separators=(",", ":"))


class Summary:
    """Per-name totals over all spans of one traced pass."""

    def __init__(self, tracer: Tracer):
        names, spans = tracer.names, tracer.spans
        layer_of = [n.split(".")[0] for n in names]
        child_ns = [0] * len(spans)
        for span in spans:
            if span[1] >= 0:
                child_ns[span[1]] += span[3] - span[2]

        self.calls: dict[str, int] = defaultdict(int)
        self.busy_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.raised: dict[str, int] = defaultdict(int)
        self.counter: dict[str, int] = defaultdict(int)
        self.fallbacks = 0
        self.layer_busy_ns: dict[str, int] = defaultdict(int)
        self.jobs = 0
        self.job_ns = 0
        for i, (sid, parent, start, end, _job, raised, counter) in enumerate(spans):
            name, dur = names[sid], end - start
            if name == JOB:
                self.jobs += 1
                self.job_ns += dur
                continue
            self.calls[name] += 1
            self.self_ns[name] += dur - child_ns[i]
            self.raised[name] += raised
            self.counter[name] += counter
            if name == "solver.dc_solve" and counter > FALLBACK_ITERS:
                self.fallbacks += 1
            # busy time counts only the outermost span of a name, and of a layer
            outer_name = outer_layer = True
            p = parent
            while p >= 0:
                pname = names[spans[p][0]]
                outer_name &= pname != name
                outer_layer &= layer_of[spans[p][0]] != layer_of[sid]
                p = spans[p][1]
            if outer_name:
                self.busy_ns[name] += dur
            if outer_layer:
                self.layer_busy_ns[layer_of[sid]] += dur

    def exact_counts(self) -> dict[str, int]:
        """Integer totals that must repeat exactly between two traced passes."""
        counts = {f"{name}.calls": n for name, n in self.calls.items()}
        counts.update({
            "solver.dc_solve.iters": self.counter["solver.dc_solve"],
            "solver.dc_solve.fallback_solves": self.fallbacks,
            "solver.dc_solve.failed": self.raised["solver.dc_solve"],
            "analysis.transient.steps": self.counter["analysis.transient"],
            "analysis.transient.failed": self.raised["analysis.transient"],
        })
        return counts

    def observed(self, head: str) -> bool:
        """Whether a traced function, or any function of a layer, was entered."""
        if "." in head:
            return self.calls[head] > 0
        return any(n.split(".")[0] == head for n, c in self.calls.items() if c)

    def per_job(self, untraced_s: float) -> dict[str, float]:
        """Every PER_LAYER metric, divided by the number of traced jobs.

        A time of a function that was never entered reads 0.0 here; the
        report lines call it "not observed".
        """
        jobs = self.jobs
        out: dict[str, float] = {}
        counts = self.exact_counts()
        for metric, _unit in PER_LAYER:
            head, stat = metric.rsplit(".", 1)
            if metric == "trace.overhead_ratio":
                out[metric] = self.job_ns * 1e-9 / untraced_s
            elif stat == "busy_s" and "." not in head:  # a whole layer
                out[metric] = self.layer_busy_ns[head] * 1e-9 / jobs
            elif stat == "busy_s":
                out[metric] = self.busy_ns[head] * 1e-9 / jobs
            elif stat == "self_s":
                out[metric] = self.self_ns[head] * 1e-9 / jobs
            elif stat == "us_per_call":
                calls = self.calls[head]
                out[metric] = self.busy_ns[head] * 1e-3 / calls if calls else 0.0
            else:
                out[metric] = counts.get(metric, 0) / jobs
        return out
