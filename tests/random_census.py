"""Census of the seeded random circuits of test_random_circuits.py.

    python tests/random_census.py 0 6000
    python tests/random_census.py 0 3000 --vdd 0
    python tests/random_census.py 0 3000 --tran
    python tests/random_census.py 0 3000 --hand
    python tests/random_census.py 0 3000 --linear

Solves ``random_circuit(seed)`` for each seed in [start, stop) with
dc_solve and audits each answer with verify_kcl. Prints one line per
circuit that raises or fails the audit, then a summary line: the total
Newton iterations of every run, failed solves included, counted by a
wrapper around solver._newton, and the failure count with a tally by
status, such as ``25 failures (23 stalled, 2 maxiter)``. Next to the
iterations it prints the calls of Plan.assemble and solver._solve, the
assemblies and solves, also counted by wrappers. A failure's
status is the Newton status its message names, else its error type.
``--vdd`` replaces VDD's value, as a random transient's DC point does
with VDD at 0 V. ``--tran`` runs each seed's random transient instead
(random_transient), which fails only by raising. ``--hand`` builds each
seed's hand_built deck instead, any fault of the deck itself included,
and tallies its failures by error type. ``--linear`` solves each seed's
random_linear circuit with dc_solve, audits it, then runs its transient,
1 ns steps to 200 ns. It imports hystlab from this
checkout's src/. Pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import random
import re
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hystlab import (Capacitor, DcSpec, HystlabError, ISource, MosGeometry,  # noqa: E402
                     Mosfet, Netlist, Resistor, VSource, dc_solve, transient, verify_kcl)
from hystlab import solver  # noqa: E402
from test_random_circuits import (MODELS, random_circuit, random_linear,  # noqa: E402
                                  random_transient)

_HAND_NODES = ("0", "a", "b", "c", "vdd")


def hand_built(seed: int) -> Netlist:
    """1-6 records drawn by random.Random(seed) over the nodes 0, a, b, c
    and vdd, each named with its type's letter and its index: an R of
    1 ohm to 10 Mohm or a C of 1 fF to 1 nF (log-uniform), a V within
    +/-5 V or an I within +/-100 uA DC, each between two distinct nodes,
    or a MOSFET of a default card, W = L = 1 um, its bulk on its source.
    Nothing keeps the deck sound: it may float nodes, drive current into
    them, or loop its V sources.
    """
    rng = random.Random(seed)
    elements = []
    for i in range(rng.randint(1, 6)):
        kind = rng.choice("RCVIM")
        name = f"{kind}{i}"
        if kind == "M":
            d, g, s = (rng.choice(_HAND_NODES) for _ in range(3))
            card = rng.choice(("nch", "pch"))
            elements.append(Mosfet(name, d, g, s, s, card, MODELS[card],
                                   MosGeometry(1e-6, 1e-6)))
            continue
        pos, neg = rng.sample(_HAND_NODES, 2)
        if kind == "R":
            elements.append(Resistor(name, pos, neg, 10.0 ** rng.uniform(0.0, 7.0)))
        elif kind == "C":
            elements.append(Capacitor(name, pos, neg, 10.0 ** rng.uniform(-15.0, -9.0)))
        elif kind == "V":
            elements.append(VSource(name, pos, neg, DcSpec(rng.uniform(-5.0, 5.0))))
        else:
            elements.append(ISource(name, pos, neg, DcSpec(rng.uniform(-100e-6, 100e-6))))
    return Netlist(f"hand-built deck {seed}", tuple(elements))


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
    group.add_argument("--hand", action="store_true",
                       help="solve each seed's hand_built deck; tally failures by type")
    group.add_argument("--linear", action="store_true",
                       help="solve and run the transient of each seed's random_linear circuit")
    args = parser.parse_args(argv)

    iterations = assemblies = solves = 0
    newton, assemble, solve = solver._newton, solver.Plan.assemble, solver._solve

    def counted(*a, **kw):
        nonlocal iterations
        result = newton(*a, **kw)
        iterations += result[2]
        return result

    def counted_assemble(*a, **kw):
        nonlocal assemblies
        assemblies += 1
        return assemble(*a, **kw)

    def counted_solve(*a):
        nonlocal solves
        solves += 1
        return solve(*a)

    solver._newton, solver.Plan.assemble, solver._solve = counted, counted_assemble, counted_solve
    failures = Counter()
    for seed in range(args.start, args.stop):
        try:
            if args.hand:
                net = hand_built(seed)
            elif args.linear:
                net = random_linear(seed)
            else:
                net = random_transient(seed) if args.tran else random_circuit(seed)
            if args.vdd is not None:
                net = net.replaced_source("VDD", DcSpec(args.vdd))
            if not args.tran:
                verify_kcl(net, dc_solve(net))
            if args.tran or args.linear:
                transient(net, 1e-9, 200e-9)
        except HystlabError as exc:
            failures[type(exc).__name__ if args.hand else failure_status(exc)] += 1
            print(f"seed {seed}: {type(exc).__name__}: {exc}")
    tally = ", ".join(f"{n} {status}" for status, n in failures.most_common())
    print(f"seeds {args.start}-{args.stop - 1}: {iterations} Newton iterations, "
          f"{assemblies} assemblies, {solves} solves, "
          f"{failures.total()} failures" + (f" ({tally})" if tally else ""))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
