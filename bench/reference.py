"""A fixed reference loop that measures how fast the machine runs right now.

The benchmark runs on shared machines whose speed drifts by tens of percent
within a minute, as other tenants load the cores and caches. Every
end-to-end time the benchmark reports is divided by a slowness factor: the
time of this loop, sampled between the jobs, over REFERENCE_S. The loop does
no hystlab work, so a faster hystlab shows in full, while a slower machine
mostly cancels out.

Its shape follows the work the benchmark times: frozen records, closures
that stamp into fresh small arrays, elementwise checks, a 7x7 solve and one
dict per step.
"""

from __future__ import annotations

import bisect
import statistics
import time
from dataclasses import dataclass

import numpy as np

# median time of one reference_loop() on the 2-core sandbox (Python 3.11.7,
# numpy 2.4.6) the benchmark was tuned on, in a quiet minute
REFERENCE_S = 0.0028

_N = 7
_EYE = np.eye(_N) * 1e-3


@dataclass(frozen=True)
class _Stamp:
    a: int
    b: int
    g: float
    i: float


def reference_loop() -> list[dict[str, float]]:
    x = np.linspace(0.0, 1.0, _N)
    out = []
    for step in range(40):
        stamps = tuple(_Stamp(k % _N, (k + 1) % _N, 1e-3 * (k + 1), 1e-6 * step)
                       for k in range(12))
        f, jac, scale = np.zeros(_N), np.zeros((_N, _N)), np.zeros(_N)

        def add(i, j, val):
            if i >= 0 and j >= 0:
                jac[i, j] += val

        for s in stamps:
            cur = s.g * (x[s.a] - x[s.b]) + s.i
            f[s.a] += cur
            f[s.b] -= cur
            add(s.a, s.a, s.g)
            add(s.a, s.b, -s.g)
            add(s.b, s.a, -s.g)
            add(s.b, s.b, s.g)
            scale[s.a] += abs(cur)
        jac += _EYE
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(jac))):
            raise ArithmeticError("reference loop left the finite range")
        dx = np.clip(np.linalg.solve(jac, -f), -0.5, 0.5)
        bool(np.all(np.abs(dx) <= 1e-6 + 1e-4 * np.abs(x + dx)))
        bool(np.any(np.abs(f) > 1e-12 + 1e-4 * scale))
        x = x + dx
        out.append({f"n{i}": float(x[i]) for i in range(_N)})
    return out


def reference_seconds() -> float:
    """Host time of one reference_loop()."""
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


class MachineSpeed:
    """Samples the reference loop between jobs, for about SHARE of the job time.

    slowness(start, end) is the median sample taken within WINDOW seconds of
    [start, end], over REFERENCE_S: above 1 when the machine runs slow.
    """

    SHARE = 0.1
    WINDOW = 2.0

    def __init__(self):
        self._times: list[float] = []    # midpoints, in perf_counter order
        self._seconds: list[float] = []
        self._job_s = 0.0
        self._sampled_s = 0.0
        self.sample()

    def sample(self):
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self._times.append(0.5 * (t0 + t1))
        self._seconds.append(t1 - t0)
        self._sampled_s += t1 - t0

    def after_job(self, job_seconds: float):
        self._job_s += job_seconds
        while self._sampled_s < self.SHARE * self._job_s:
            self.sample()

    def slowness(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self._times, start - self.WINDOW)
        hi = bisect.bisect_right(self._times, end + self.WINDOW)
        near = self._seconds[lo:hi] or self._seconds
        return statistics.median(near) / REFERENCE_S

    def overall(self) -> float:
        return statistics.median(self._seconds) / REFERENCE_S
