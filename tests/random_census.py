"""Census of the seeded random circuits of test_random_circuits.py.

    python tests/random_census.py 0 6000
    python tests/random_census.py 0 3000 --vdd 0

Solves ``random_circuit(seed)`` for each seed in [start, stop) with
dc_solve and audits each answer with verify_kcl. Prints one line per
circuit that raises or fails the audit, then the failure count and the
total Newton iterations of every run, failed solves included, counted by
a wrapper around solver._newton. ``--vdd`` replaces VDD's value, as a
random transient's DC point does with VDD at 0 V. It imports hystlab from
this checkout's src/. Pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hystlab import DcSpec, HystlabError, dc_solve, verify_kcl  # noqa: E402
from hystlab import solver  # noqa: E402
from test_random_circuits import random_circuit  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("start", type=int)
    parser.add_argument("stop", type=int)
    parser.add_argument("--vdd", type=float, help="VDD's value in volts")
    args = parser.parse_args(argv)

    iterations = 0
    newton = solver._newton

    def counted(*a, **kw):
        nonlocal iterations
        result = newton(*a, **kw)
        iterations += result[2]
        return result

    solver._newton = counted
    failures = 0
    for seed in range(args.start, args.stop):
        net = random_circuit(seed)
        if args.vdd is not None:
            net = net.replaced_source("VDD", DcSpec(args.vdd))
        try:
            verify_kcl(net, dc_solve(net))
        except HystlabError as exc:
            failures += 1
            print(f"seed {seed}: {type(exc).__name__}: {exc}")
    print(f"seeds {args.start}-{args.stop - 1}: {failures} failures, "
          f"{iterations} Newton iterations")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
