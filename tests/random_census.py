"""Census of the seeded random circuits of test_random_circuits.py.

    python tests/random_census.py 0 6000
    python tests/random_census.py 0 3000 --vdd 0
    python tests/random_census.py 0 3000 --tran

Solves ``random_circuit(seed)`` for each seed in [start, stop) with
dc_solve and audits each answer with verify_kcl. Prints one line per
circuit that raises or fails the audit, then a summary line: the total
Newton iterations of every run, failed solves included, counted by a
wrapper around solver._newton, and the failure count with a tally by
status, such as ``25 failures (23 stalled, 2 maxiter)``. A failure's
status is the Newton status its message names, else its error type.
``--vdd`` replaces VDD's value, as a random transient's DC point does
with VDD at 0 V. ``--tran`` runs each seed's random transient instead
(random_transient), which fails only by raising. It imports hystlab from
this checkout's src/. Pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import re
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hystlab import DcSpec, HystlabError, dc_solve, transient, verify_kcl  # noqa: E402
from hystlab import solver  # noqa: E402
from test_random_circuits import random_circuit, random_transient  # noqa: E402


def failure_status(exc: HystlabError) -> str:
    """The Newton status that ``exc``'s message names, else its type."""
    m = re.search(r"\((maxiter|stalled|singular|nonfinite)\)", str(exc))
    return m[1] if m else type(exc).__name__


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("start", type=int)
    parser.add_argument("stop", type=int)
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--vdd", type=float, help="VDD's value in volts")
    group.add_argument("--tran", action="store_true",
                       help="run each seed's random transient, 1 ns steps to 200 ns")
    args = parser.parse_args(argv)

    iterations = 0
    newton = solver._newton

    def counted(*a, **kw):
        nonlocal iterations
        result = newton(*a, **kw)
        iterations += result[2]
        return result

    solver._newton = counted
    failures = Counter()
    for seed in range(args.start, args.stop):
        net = random_transient(seed) if args.tran else random_circuit(seed)
        if args.vdd is not None:
            net = net.replaced_source("VDD", DcSpec(args.vdd))
        try:
            if args.tran:
                transient(net, 1e-9, 200e-9)
            else:
                verify_kcl(net, dc_solve(net))
        except HystlabError as exc:
            failures[failure_status(exc)] += 1
            print(f"seed {seed}: {type(exc).__name__}: {exc}")
    tally = ", ".join(f"{n} {status}" for status, n in failures.most_common())
    print(f"seeds {args.start}-{args.stop - 1}: {iterations} Newton iterations, "
          f"{failures.total()} failures" + (f" ({tally})" if tally else ""))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
