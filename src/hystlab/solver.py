"""Nonlinear DC solution by modified nodal analysis.

Unknowns are the non-ground node voltages plus one branch current per
voltage source. The residual at a node is the sum of currents leaving
it. A plain Newton run is damped by a per-node voltage clamp, a
pseudo-transient step by its own tie, and a converged run returns its
last solved step. A plain Newton run on a circuit with MOSFETs ends
early, "stalled", once its steps stop contracting or it cycles through
the clamp (see _newton). Plain Newton runs from each guess with a
nonzero entry, then from zero (the cold restart); when plain
Newton fails from every start, pseudo-transient continuation integrates
from zero to the steady state (Kelley & Keyes, SIAM J. Numer. Anal. 35,
1998).
A sweep starts each point from a quadratic predictor through the points
before it (Plan.sweep; Allgower & Georg, Introduction to Numerical
Continuation Methods, 2003). A transient follows SPICE2 (Nagel, UCB
ERL-M520, 1975) in one loop with one length rule (Plan.steps): steps of
up to 16*dt are as long as the local truncation error allows, never
across a source corner, and a longer step that fails or errs too much is
redone at half its length. The quadratic through the time points before
a step predicts its end, which gives its error and starts a moving MOSFET
step. Each Newton step is solved by LAPACK gesv (_solve) inside one
floating-point error scope per solve run (_lapack_errors).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import islice
from math import inf, isfinite
from operator import add

import numpy as np
from numpy.linalg import _umath_linalg

from .devices import kfactor, mos_kernel, mos_sign
from .errors import ConvergenceError, MeasurementError
from .netlist import DcSpec, ISource, Mosfet, Netlist, Resistor, VSource


@dataclass(frozen=True)
class SolverOptions:
    """The solver's tolerances and limits; every analysis runs at OPTIONS."""

    abstol: float = 1e-12        # nodal current tolerance [A]
    reltol: float = 1e-4
    vntol: float = 1e-6          # voltage step / branch row tolerance [V]
    max_newton_iters: int = 100
    dv_clamp: float = 1.0        # max node-voltage move per plain Newton iteration [V]
    gmin_floor: float = 1e-12    # always-on shunt to ground [S]


OPTIONS = SolverOptions()
CMIN = 1e-15  # transient shunt capacitance from every node to ground [F]

# pseudo-transient continuation: backward Euler on 1 pF per node ties each
# node to its last accepted voltage by g = C/h [S]
_PTC_G_START = 1e-3     # h = 1 ns
_PTC_G_END = 1e-9       # below this, plain Newton finishes
_PTC_G_MAX = 1e6        # a step failing above this gives up
_PTC_STEP_ITERS = 10    # a step converging within these grows h 4x; else h shrinks 8x
_PTC_MAX_ITERS = 1200   # iterations of the whole solve

# a plain MOSFET Newton run is tested for a stall from this iteration on,
# and ends at this many steps no shorter than the unclamped step before
_STALL_FROM = 4
_STALL_STEPS = 5

# Plan.sweep starts a point from the quadratic through the last three
# points while each of them converged within _PREDICT_ITERS iterations
# and the three stimulus steps through them agree to _EVEN_STEPS relative
_PREDICT_ITERS = 3
_EVEN_STEPS = 1e-6

# a transient keeps each step's local truncation error, read off its
# distance from its predicted end, within _LTE_TOL [V] in steps of up to
# _MAX_STRETCH * dt (Plan.steps)
_LTE_TOL = 1e-4
_MAX_STRETCH = 16
_FILL_BLOCK = 2048  # rows inside long steps that _transient_rows fills at a time


@dataclass(frozen=True)
class Solution:
    node_voltages: dict[str, float]         # includes ground "0" at 0.0
    branch_currents: dict[str, float]       # per voltage source [A]
    iterations: int


@dataclass(slots=True)
class _Assembled:
    f: list[float]
    jac: np.ndarray
    scale: list[float]  # each row's convergence scale: node rows, then branch rows
    jac_finite: bool


def _companion_g(farads: float, dt: float) -> float:
    g = 2.0 * farads / dt
    if not isfinite(g):
        raise MeasurementError(
            f"capacitance {farads:g} F at dt={dt:g} s overflows its "
            f"companion conductance 2C/dt")
    return g


class Plan:
    """Stamp plan for one netlist: compiled once, loaded per Newton iteration.

    Each stamp is a tuple of unknown indices and flat Jacobian slots into
    the Python lists that assemble() fills. Ground maps to the spare
    trailing unknown ``n_unknowns``, and every Jacobian entry in its row
    or column to the spare trailing slot; assemble() drops both. A MOSFET
    whose source is ground stamps its drain row alone (residual, scale, gm
    and gds), and a companion with an end at ground its other end alone;
    every other stamp writes the spare row and slot rather than branch on
    ground. The writes skipped went only to the spare, so every kept sum
    keeps its bits. Source values come from ``specs``, indexed
    by ``source_slots[name]``. A plan never changes once compiled: sweep
    moves its source on its own copy of the values.

    With ``dt`` given, every capacitor, every MOSFET cgs/cgd and CMIN
    from each node to ground become trapezoidal companions, one per
    unordered node pair. A pair's capacitance is summed in element order
    (capacitors and MOSFET caps as the netlist lists them, then CMIN),
    pairs stay in the order and orientation in which they first appear,
    and a pair whose two ends are one node, such as a diode-connected
    gate-drain cap, carries no current and is dropped. ``caps`` holds one
    (p, q, g, end) per companion: its nodes, its conductance g = 2C/dt,
    fixed here, and the node end when the other end is ground, None when
    both ends are nodes. Only the equivalent current ``ieq`` changes from
    step to step. A step of another length runs on a plan compiled at that
    length from ``netlist`` (see steps).

    Summation order. The constant J is compiled here into the read-only
    ``jac``: resistors, voltage sources, companions, then gmin. Per
    assemble() call the MOSFETs, then the tie, go onto a copy of it. f and
    the convergence scales sum every element on every call, in the order
    assemble() states.
    """

    def __init__(self, netlist: Netlist, dt: float | None = None):
        self.netlist = netlist
        self.dt = dt
        self.node_names = netlist.nodes[1:]  # ground "0" leads nodes, if any
        nn = self.n_nodes = len(self.node_names)
        self.vsource_names = tuple(el.name for el in netlist.elements
                                   if type(el) is VSource)
        n = self.n_unknowns = nn + len(self.vsource_names)
        ni = {name: i for i, name in enumerate(self.node_names)}
        # each unknown by name, I(<source>) for a branch; a node wins a clash
        self.index = {f"I({v})": nn + j for j, v in enumerate(self.vsource_names)} | ni
        ni["0"] = n

        # slot[p][q]: row-major n x n, then one spare slot for ground's row and column
        slot = [[*range(p * n, p * n + n), n * n] for p in range(n)] + [[n * n] * (n + 1)]

        # the Jacobian's constant part, each slot summed in this order:
        # resistors and voltage-source incidences (no slot holds both),
        # then companions, then the gmin floor
        jac = [0.0] * (n * n + 1)

        def conductance(p: int, q: int, g: float) -> None:
            jac[slot[p][p]] += g
            jac[slot[p][q]] -= g
            jac[slot[q][p]] -= g
            jac[slot[q][q]] += g

        specs = []
        self.source_slots: dict[str, int] = {}
        resistors, isources, vsources, mosfets, caps = [], [], [], [], []
        b = nn
        for el in netlist.elements:
            kind = type(el)
            if kind is Mosfet:
                d, g, s = ni[el.d], ni[el.g], ni[el.s]
                m = el.model
                # s None marks a source at ground: its row and column are dropped
                mosfets.append((d, g, None if s == n else s, kfactor(m, el.geom), mos_sign(m),
                                m.vto, m.lam, slot[d][g], slot[d][d], slot[d][s],
                                slot[s][g], slot[s][d], slot[s][s]))
                if dt is not None:
                    if m.cgs > 0.0:
                        caps.append((g, s, m.cgs))
                    if m.cgd > 0.0:
                        caps.append((g, d, m.cgd))
            elif kind is Resistor:
                p, q, g = ni[el.pos], ni[el.neg], 1.0 / el.ohms
                resistors.append((p, q, g))
                conductance(p, q, g)
            elif kind is VSource:
                p, q = ni[el.pos], ni[el.neg]
                self.source_slots[el.name] = len(specs)
                vsources.append((p, q, b, len(specs)))
                jac[slot[p][b]] += 1.0
                jac[slot[q][b]] -= 1.0
                jac[slot[b][p]] += 1.0
                jac[slot[b][q]] -= 1.0
                specs.append(el.spec)
                b += 1
            elif kind is ISource:
                self.source_slots[el.name] = len(specs)
                isources.append((ni[el.pos], ni[el.neg], len(specs)))
                specs.append(el.spec)
            elif dt is not None and el.farads > 0.0:  # a capacitor, open in DC
                caps.append((ni[el.pos], ni[el.neg], el.farads))
        if dt is not None:
            caps.extend((i, n, CMIN) for i in range(nn))
        # one companion per unordered node pair, in first-seen order, its
        # capacitance summed in element order; a node-to-itself pair is dropped
        farads: dict[tuple[int, int], float] = {}
        for p, q, c in caps:
            if p != q:
                pair = (q, p) if (q, p) in farads else (p, q)
                farads[pair] = farads.get(pair, 0.0) + c
        self.specs = tuple(specs)
        self.resistors = tuple(resistors)
        self.isources = tuple(isources)
        self.vsources = tuple(vsources)
        self.mosfets = tuple(mosfets)
        self.caps = tuple((p, q, _companion_g(c, dt), p if q == n else q if p == n else None)
                          for (p, q), c in farads.items())
        for p, q, g, _ in self.caps:
            conductance(p, q, g)
        self.diag = tuple(range(0, nn * (n + 1), n + 1))  # slot[i][i] of each node
        for ii in self.diag:
            jac[ii] += OPTIONS.gmin_floor
        self._jac_list = jac
        self.jac = np.array(jac[:-1]).reshape(n, n)
        self.jac.flags.writeable = False
        self.jac_finite = _finite(jac[:-1])

    def source_values(self, time: float) -> list[float]:
        return [spec.value_at(time) for spec in self.specs]

    def vector_from_guess(self, guess: dict[str, float] | None) -> list[float]:
        """The unknowns named in ``guess``, zero elsewhere.

        Keys are those of ``index``: a node's name, or ``I(<source>)`` for
        a voltage source's branch current. A node wins over a branch of the
        same spelling. Other keys, such as ground "0", are ignored.
        """
        x = [0.0] * self.n_unknowns
        if guess:
            for name, v in guess.items():
                i = self.index.get(name)
                if i is not None:
                    x[i] = float(v)
        return x

    def assemble(self, x: list[float], e: list[float],
                 ieq: list[float] | tuple = (), tie: float = 0.0, x0=()) -> _Assembled:
        """Residual, Jacobian and convergence scales at x.

        ``e`` holds the source values (see source_values), ``ieq`` the
        companion currents of a transient step, and a nonzero ``tie`` is
        a conductance from every node to its voltage in ``x0``. f and the
        scales sum elements in a fixed order: resistors, current sources,
        voltage sources, MOSFETs, companions, the gmin shunt, then the
        tie. The constant J was compiled with the plan (resistors,
        voltage sources, companions, gmin); per call only the MOSFETs,
        then the tie, are stamped onto a copy of it. A plan with no
        MOSFET, assembled without a tie, returns the compiled read-only
        ``jac`` itself, whose finiteness was checked once (``jac_finite``).
        Otherwise ``jac_finite`` is read off J's n x n list, the spare slot
        dropped, before np.fromiter makes the array (_finite). Only the
        Jacobian leaves as an ndarray, the input of the linear solve.
        """
        n = self.n_unknowns
        xl = [*x, 0.0]
        f = [0.0] * (n + 1)
        # nodal current scales, then branch scales, then ground
        sc = [0.0] * (n + 1)

        for p, q, g in self.resistors:
            i = g * (xl[p] - xl[q])
            f[p] += i
            f[q] -= i
            i = abs(i)
            sc[p] += i
            sc[q] += i

        for p, q, j in self.isources:
            val = e[j]
            f[p] += val
            f[q] -= val
            val = abs(val)
            sc[p] += val
            sc[q] += val

        for p, q, b, j in self.vsources:
            i = xl[b]
            f[p] += i
            f[q] -= i
            i = abs(i)
            sc[p] += i
            sc[q] += i
            vp, vq, ej = xl[p], xl[q], e[j]
            f[b] = (vp - vq) - ej
            sc[b] = abs(vp) + abs(vq) + abs(ej)

        jac = self._jac_list.copy() if self.mosfets or tie else None
        for d, g, s, k, sign, vto, lam, dg, dd, ds, sg, sd, ss in self.mosfets:
            if s is None:  # source at ground: x - 0.0 is x, bit for bit
                i, gm, gds = mos_kernel(k, sign, vto, lam, xl[g], xl[d])
                f[d] += i
                jac[dg] += gm
                jac[dd] += gds
                sc[d] += abs(i)
                continue
            vs = xl[s]
            i, gm, gds = mos_kernel(k, sign, vto, lam, xl[g] - vs, xl[d] - vs)
            f[d] += i
            f[s] -= i
            jac[dg] += gm
            jac[dd] += gds
            jac[ds] -= gm + gds
            jac[sg] -= gm
            jac[sd] -= gds
            jac[ss] += gm + gds
            i = abs(i)
            sc[d] += i
            sc[s] += i

        for (p, q, g, end), c in zip(self.caps, ieq):
            gv = g * (xl[p] - xl[q])
            i = gv + c
            s = abs(gv) + abs(c)
            if end is None:
                f[p] += i
                f[q] -= i
                sc[p] += s
                sc[q] += s
            elif end == p:
                f[p] += i
                sc[p] += s
            else:
                f[q] -= i
                sc[q] += s

        # SPICE-style shunt on every node keeps floating gates solvable
        gmin = OPTIONS.gmin_floor
        for i in range(self.n_nodes):
            gx = gmin * xl[i]
            f[i] += gx
            sc[i] += abs(gx)
        if tie:
            for i, ii in enumerate(self.diag):
                gx = tie * (xl[i] - x0[i])
                f[i] += gx
                jac[ii] += tie
                sc[i] += abs(gx)

        f.pop()
        sc.pop()
        if jac is None:
            return _Assembled(f, self.jac, sc, self.jac_finite)
        jac.pop()
        return _Assembled(f, np.fromiter(jac, float, n * n).reshape(n, n), sc, _finite(jac))

    def ieq_from(self, x: list[float], i: list[float]) -> list[float]:
        """Equivalent currents -g*v - i of a step on this plan from x,
        where each companion's capacitor carries the current in ``i``."""
        xl = [*x, 0.0]
        return [-(g * (xl[p] - xl[q])) - c for (p, q, g, _), c in zip(self.caps, i)]

    def advance(self, x: list[float], ieq: list[float]) -> tuple[list[float], list[float]]:
        """(i, next ieq) at x, the end of a step whose equivalent currents
        were ``ieq``, in one pass: each capacitor's current i = g*v + ieq,
        and the equivalent current -g*v - i of a next step on this plan,
        the same bits as ieq_from(x, i)."""
        xl = [*x, 0.0]
        i, nxt = [], []
        for (p, q, g, _), c in zip(self.caps, ieq):
            gv = g * (xl[p] - xl[q])
            ic = gv + c
            i.append(ic)
            nxt.append(-gv - ic)
        return i, nxt

    @cached_property
    def bounds(self) -> tuple[float, float, float, float]:
        """(4*inverse_norm, *certificate): _newton's per-plan constants,
        the step bound's factor and the certificate's, computed on first
        read and cached with the plan. Only for a plan with no MOSFET."""
        return 4.0 * self.inverse_norm, *self.certificate

    @property
    def inverse_norm(self) -> float:
        """beta = ||J^-1||_inf of the compiled ``jac``, computed at each
        read; _newton reads it once per plan, through bounds.

        Only for a plan with no MOSFET: its plain Jacobian is ``jac`` at
        every x, source value and companion current (dt is fixed in the
        plan). inf when the inverse cannot bound a step (see _inverse_norm).
        """
        return _inverse_norm(self.jac)

    @property
    def certificate(self) -> tuple[float, float, float]:
        """(c_scale, c_step, c_x) of _newton's certificate, from ``jac``'s
        ||J||_inf, computed at each read; _newton reads it once per plan,
        through bounds. Only for a plan with no MOSFET.

        With u = 2**-53, gamma_k = k*u/(1 - k*u), K = 2*E + 4 for the E
        resistors, sources and companions, and rho = 2**(n-1):
            c_scale = 4*gamma_K
            c_step  = 2*(gamma_3n*(1 + 2*(n*n - n)*rho) + 2*gamma_K)*||J||_inf
            c_x     = 4*u*||J||_inf
        inf for a plan with a resistor from a node to itself, whose +g and
        -g cancel in J's sums, which the proof in _newton excludes.
        """
        n = self.n_unknowns
        if any(p == q for p, q, _ in self.resistors):
            return inf, inf, inf
        norm = float(np.abs(self.jac).sum(axis=1).max(initial=0.0))
        u = 2.0**-53

        def gamma(k: int) -> float:
            return k * u / (1.0 - k * u)

        sums = gamma(2 * (len(self.resistors) + len(self.isources) + len(self.vsources)
                          + len(self.caps)) + 4)
        rho = 2.0 ** (n - 1) if n <= 1024 else inf  # 2.0**1024 raises OverflowError
        lu = gamma(3 * n) * (1.0 + 2.0 * (n * n - n) * rho)
        return 4.0 * sums, 2.0 * (lu + 2.0 * sums) * norm, 4.0 * u * norm

    def sweep(self, name: str, values: list[float],
              before: list[float] | None = None) -> np.ndarray:
        """Node voltages with source ``name`` (as the netlist spells it)
        held at each of ``values`` in turn: len(values) x n_nodes, one row
        per value.

        Columns follow ``node_names``. Each point runs dc_solve's stages
        from one of two starts, each one a dc_solve guess can spell:
        - every unknown, branch currents included, of the quadratic through
          the last three points, one point on (_extrapolate, the points
          keyed by index: weights 1, -3 and 3), while each of them
          converged within _PREDICT_ITERS iterations and the three stimulus
          steps up to this point agree within _EVEN_STEPS relative. A point
          over _PREDICT_ITERS empties the fit, so its three points are
          always the three just before;
        - otherwise, as at a repeated value or after an uneven step such
          as dc_sweep's partial last one, the node voltages of the point
          before, branch currents from zero. For the first point that is
          ``before``, one row of node voltages as this returns them, as a
          list of floats; zero when it is None.
        Each value passes DcSpec's check and is held in a copy of
        source_values, so the plan is left as compiled. Raises
        ConvergenceError "sweep failed at <name>=<value>: ..." at the
        first point that does not solve. All points run inside one
        _lapack_errors() scope.
        """
        nn = self.n_nodes
        branches = [0.0] * (self.n_unknowns - nn)
        x = [0.0] * nn if before is None else before
        e = self.source_values(0.0)
        slot = self.source_slots[name]
        rows = array("d")
        # (index, x) of the last points, each solved within _PREDICT_ITERS
        fit: list[tuple[int, list[float]]] = []
        with _lapack_errors():
            for i, v in enumerate(values):
                e[slot] = DcSpec(v).value
                start = x[:nn] + branches
                if len(fit) == 3:
                    s0, s1, s2 = values[i - 3:i]
                    step = s2 - s1
                    if abs(s1 - s0 - step) + abs(v - s2 - step) < _EVEN_STEPS * abs(step):
                        start = _extrapolate(fit, i)
                try:
                    x, iters = _dc_point(self, e, (start,))
                except ConvergenceError as err:
                    raise ConvergenceError(f"sweep failed at {name}={v:.6g}: {err}",
                                           stage=err.stage, residual=err.residual) from None
                fit = [*fit[-2:], (i, x)] if iters <= _PREDICT_ITERS else []
                rows.extend(x[:nn])
        return np.frombuffer(rows).reshape(len(values), nn)

    def steps(self, start: Solution, n_steps: int) -> np.ndarray:
        """Node voltages at the DC point ``start`` and at each k*dt, k = 1
        to n_steps: (n_steps + 1) x n_nodes, one row per time.

        Columns follow ``node_names``. Integration starts from ``start``,
        where no capacitor current flows. Raises ConvergenceError at the
        first step of dt whose Newton run fails, naming its status, such as
        "(stalled)". All steps run inside one _lapack_errors() scope.

        One loop, one length rule. Every plan takes steps of h = m*dt that
        start and end on the k*dt grid, so dt is both the row spacing and
        the shortest step. A step runs on a plan compiled at h on first
        need and carries each capacitor's current i = g*v + ieq (advance):
        a step as long as the last takes the next ieq that advance gave,
        and only a change of length takes ieq_from(x, i) on the new plan,
        the same bits either way.

        m = 1, 2, 4, 8 or 16 (_MAX_STRETCH) follows SPICE2's rule: the
        local truncation error, h**3/2 times the largest |third divided
        difference| of the node voltages through the last four accepted
        points since the last corner, the new one included, may be at most
        _LTE_TOL. With p the step's prediction through the three points
        before it, k0, k1 and k2, x_new - p is exactly that difference
        times (k+m-k0)(k+m-k1)(k+m-k2), which the error divides out
        (Brayton, Gustavson & Hachtel, Proc. IEEE 60(1), 1972). A step
        that starts from p reads the error from it; any other sums each
        node's p as _extrapolate does in the one pass that reads the
        error, building no list of p. A step longer than dt whose error is
        above _LTE_TOL, inf for a failed Newton run, is redone at h/2 from
        the same accepted point; the next step is 2h when the error is
        below _LTE_TOL/8. A step of dt whose Newton run fails raises. A
        step longer than dt holds no
        source corner (corner_after of each source), not even at its end;
        the estimate starts afresh from the end of the step of dt that
        holds one, so the next three steps have length dt too. A row
        inside a longer step comes from the quadratic through the step's
        end, its start and the accepted point before its start, all three
        past the last corner, so a node tied to a source reads that
        source's straight line. The loop appends each accepted point, its
        k and its node voltages, to one record, and _transient_rows builds
        every row from that record after the loop, with the same bits as
        that sum in Python floats.

        Prediction, with MOSFETs only. While each of the last two steps
        moved some node by more than vntol + reltol*|x|, x its new
        voltage, a step starts from every unknown of the quadratic through
        the last three accepted points since the last corner, evaluated at
        the step's end at their actual spacing (_extrapolate), as SPICE2
        predicts each time point (Nagel, UCB ERL-M520, 1975); otherwise
        from the last accepted x. The gate keeps settled plateaus, where
        the trapezoidal companions ring with period 2 (ieq alternates while
        v holds), from extrapolating that ringing. Without MOSFETs every
        step starts from the last accepted x, and its prediction serves
        only its error: a predicted start would pass the step bound
        unsolved (see _newton).
        """
        nn, dt = self.n_nodes, self.dt
        vntol, reltol = OPTIONS.vntol, OPTIONS.reltol
        predict = bool(self.mosfets)
        x = self.vector_from_guess(start.node_voltages)
        x[nn:] = [start.branch_currents[name] for name in self.vsource_names]
        # k, then the node voltages, of each accepted point in turn
        record = array("d", [0, *x[:nn]])
        plans = {1: self}
        # the capacitor currents at x, none at the DC point, and the companion
        # currents of a next step as long as the last one, m_last*dt
        i, nxt, m_last = [0.0] * len(self.caps), None, 0
        # (k, x) of the last three accepted points since the last corner
        fit = [(0, x)]
        # the last steps in a row that moved, when predicting
        moving = 0
        k, m = 0, 1
        corner = self._corner_after(0.0)
        with _lapack_errors():
            while k < n_steps:
                while m > 1 and (k + m > n_steps or corner <= (k + m) * dt):
                    m //= 2
                plan = plans.get(m)
                if plan is None:
                    plan = plans[m] = Plan(self.netlist, m * dt)
                t = (k + m) * dt
                e = plan.source_values(t)
                ieq = nxt if m == m_last else plan.ieq_from(x, i)
                p = _extrapolate(fit, k + m) if moving > 1 and len(fit) == 3 else None
                x_new, a, _, status = _newton(plan, x if p is None else p, e=e, ieq=ieq)
                lte = inf
                if status == "ok" and len(fit) == 3:
                    (k0, x0), (k1, x1), (k2, x2) = fit
                    worst = 0.0
                    if p is None:
                        # no predicted start to reuse: each node's prediction,
                        # summed as _extrapolate sums it, inside the error's
                        # pass (a list or a generator of them cost an RC
                        # transient 5-6 % of its time)
                        w0, w1, w2 = _weights(k0 - k2, k1 - k2, 0, k + m - k2)
                        for u, p0, p1, p2 in zip(x_new[:nn], x0, x1, x2):
                            if (d := abs(u - (w0 * p0 + w1 * p1 + w2 * p2))) > worst:
                                worst = d
                    else:
                        for u, v in zip(x_new[:nn], p):
                            if (d := abs(u - v)) > worst:
                                worst = d
                    lte = m**3 * worst / (2 * (k + m - k0) * (k + m - k1) * (k + m - k2))
                if m > 1 and lte > _LTE_TOL:
                    m //= 2
                    continue
                if status != "ok":
                    raise _convergence_error(
                        plan, a, f"transient step failed at t={t:.6g} s ({status})",
                        f"transient t={t:.6g}")
                record.append(k + m)
                record.extend(x_new[:nn])
                if predict:
                    moving = moving + 1 if any(
                        abs(v - u) > vntol + reltol * abs(v)
                        for u, v in zip(x[:nn], x_new)) else 0
                i, nxt = plan.advance(x_new, ieq)
                k, x, m_last = k + m, x_new, m
                if corner <= t:
                    fit, m = [(k, x)], 1
                    corner = self._corner_after(t)
                else:
                    fit = [*fit[-2:], (k, x)]
                    if lte < _LTE_TOL / 8.0:
                        m = min(2 * m, _MAX_STRETCH)
        return _transient_rows(record, nn)

    def _corner_after(self, t: float) -> float:
        return min((spec.corner_after(t) for spec in self.specs), default=inf)


@cache
def _weights(t0: int, t1: int, t2: int, t: int) -> tuple[float, float, float]:
    """The weights of the points at integer times t0, t1 and t2 in the
    quadratic through them, evaluated at t (Lagrange). Each is an exact
    integer ratio rounded once. Callers pass times relative to one of the
    points, each within a few _MAX_STRETCH of it, so the cache stays small;
    _transient_rows runs the rule uncached (__wrapped__) on integer arrays."""
    return (((t - t1) * (t - t2)) / ((t0 - t1) * (t0 - t2)),
            ((t - t0) * (t - t2)) / ((t1 - t0) * (t1 - t2)),
            ((t - t0) * (t - t1)) / ((t2 - t0) * (t2 - t1)))


def _extrapolate(fit: list[tuple[int, list[float]]], k: int) -> list[float]:
    """Every unknown at k of the quadratic through the three (k, x) of
    ``fit``, at their actual spacing: w0*x0 + w1*x1 + w2*x2 summed left to
    right, the weights from _weights with times counted from the last
    point. A moving MOSFET transient step's start and the prediction its
    error reads (Plan.steps, whose other steps sum the same way in the
    error's pass), and Plan.sweep's start with points keyed by index."""
    (k0, x0), (k1, x1), (k2, x2) = fit
    w0, w1, w2 = _weights(k0 - k2, k1 - k2, 0, k - k2)
    return [w0 * p + w1 * q + w2 * r for p, q, r in zip(x0, x1, x2)]


def _transient_rows(record: array, nn: int) -> np.ndarray:
    """Plan.steps' rows at each k*dt from its ``record``: each accepted
    point's k, then its nn node voltages, in order. An accepted point's
    row is its node voltages. A row k+j inside a long step from k to k+m
    is the quadratic through rows k-a, k and k+m, k-a the accepted point
    before k (a long step's error needs two before it), summed as
    (w0*u + w1*v) + w2*w with the weights of _weights(-a, 0, m, j). Those
    weights come from its rule run on integer arrays, the same exact
    ratios rounded once, and each ufunc rounds as a Python float does, so
    a row has the bits of that sum in Python floats. _FILL_BLOCK rows are
    filled at a time, which keeps the temporaries small on a long run."""
    points = np.frombuffer(record).reshape(-1, nn + 1)
    ks = points[:, 0].astype(np.intp)
    out = np.empty((ks[-1] + 1, nn))
    out[ks] = points[:, 1:]
    accepted = np.zeros(len(out), bool)
    accepted[ks] = True
    inside = np.flatnonzero(~accepted)
    # the record index of the accepted point that starts each inside row's step
    start = np.repeat(np.arange(len(ks) - 1), np.diff(ks) - 1)
    for b in range(0, len(inside), _FILL_BLOCK):
        r, s = inside[b:b + _FILL_BLOCK], start[b:b + _FILL_BLOCK]
        kp, k, kn = ks.take(s - 1), ks.take(s), ks.take(s + 1)
        w0, w1, w2 = (w[:, None] for w in _weights.__wrapped__(kp - k, 0, kn - k, r - k))
        out[r] = ((w0 * out.take(kp, axis=0) + w1 * out.take(k, axis=0))
                  + w2 * out.take(kn, axis=0))
    return out


def _finite(values: list[float]) -> bool:
    """Every value is finite: one sum, which a NaN or an infinity makes
    non-finite, then value by value only when finite values overflow it."""
    return isfinite(sum(values)) or all(map(isfinite, values))


def _residual_ok(plan: Plan, a: _Assembled) -> bool:
    abstol, reltol, vntol = OPTIONS.abstol, OPTIONS.reltol, OPTIONS.vntol
    nn = plan.n_nodes
    f, scale = a.f, iter(a.scale)
    for fi, s in zip(f, islice(scale, nn)):
        if abs(fi) > abstol + reltol * s:
            return False
    for fi, s in zip(f[nn:], scale):
        if abs(fi) > vntol + reltol * s:
            return False
    return True


# above this ||J||*||J^-1|| the computed inverse is too rough to bound a step
_COND_LIMIT = 1e12


def _inverse_norm(jac: np.ndarray) -> float:
    """||J^-1||_inf, or inf when J is singular or too ill-conditioned."""
    try:
        beta = float(np.abs(np.linalg.inv(jac)).sum(axis=1).max(initial=0.0))
    except np.linalg.LinAlgError:
        return inf
    if not float(np.abs(jac).sum(axis=1).max(initial=0.0)) * beta <= _COND_LIMIT:
        return inf  # also catches a non-finite beta
    return beta


def _singular(err: str, flag: int):
    raise np.linalg.LinAlgError("Singular matrix")


def _lapack_errors() -> np.errstate:
    """np.linalg.solve's error policy around gesv: the invalid flag of a
    singular matrix raises LinAlgError; overflow, division and underflow
    pass. A new scope per call, as one errstate cannot be entered twice.
    """
    return np.errstate(call=_singular, invalid="call", over="ignore",
                       divide="ignore", under="ignore")


def _solve(jac: np.ndarray, rhs: list[float]) -> list[float]:
    """x with jac @ x = rhs, by the LAPACK gesv gufunc of np.linalg.solve.

    Same gufunc, same inputs, same bits. Call it inside _lapack_errors(),
    where a singular jac raises LinAlgError; outside, it returns NaN with a
    RuntimeWarning. np.linalg.solve checks its arguments and enters that
    scope on every call, which costs more than gesv on the solver's small
    systems, so dc_solve, Plan.sweep and Plan.steps enter it once per run.
    """
    return _umath_linalg.solve1(jac, rhs, signature="dd->d").tolist()


def _certified(plan: Plan, a: _Assembled, dx: list[float], x: list[float]) -> bool:
    """_newton's certificate: True when every row of the residual that
    assembling at x, the iterate that ``a`` assembled plus its solved step
    dx, would give provably passes the step bound and _residual_ok. Its
    lists are never empty: a plan with no unknowns is accepted before any
    solve."""
    four_beta, c_scale, c_step, c_x = plan.bounds
    bound = c_scale * max(a.scale) + c_step * max(map(abs, dx)) + c_x * max(map(abs, x))
    return bound <= OPTIONS.abstol and four_beta * bound <= OPTIONS.vntol


def _newton(plan: Plan, x0: list[float], g: float = 0.0, *, e: list[float],
            ieq: list[float] | tuple = ()):
    """Damped Newton loop. Returns (x, assembled, iterations, status).

    ``e`` holds the source values (Plan.source_values), ``ieq`` the
    companion currents of a transient step.

    status: "ok" | "maxiter" | "stalled" | "singular" | "nonfinite". x is
    a list of Python floats; the Jacobian is the only array, the input of
    _solve. Run it inside _lapack_errors(), as dc_solve and Plan.steps do,
    so that a singular J reads "singular".
    Each iteration checks f, J and dx for finiteness, each by one sum and,
    only when that sum is not finite, entry by entry (_finite), so finite
    entries whose sum overflows do not read "nonfinite". J's check comes
    with its assembly (Plan.assemble); a linear run's J, with no MOSFET and
    no tie, is the plan's compiled ``jac``, checked once at compile time.
    A linear run (no MOSFET, g = 0) reads 4*beta and the certificate's
    constants from one cached per-plan tuple (Plan.bounds).

    A run converges at an iterate x whose residual passes _residual_ok
    and whose Newton step dx is within vntol + reltol*|x|. It is accepted
    in one of three ways. On "ok" the returned assembled belongs to the
    residual-checked x, or, after a certificate, to the iterate before the
    returned one; callers read it only on failure.
    - Solved step: return x + dx, as SPICE does (Nagel, SPICE2, UCB
      ERL-M520, 1975), with no further assembly.
    - Step bound, on a plan with no MOSFET: with beta = ||J^-1||_inf
      (Plan.inverse_norm) the computed step is at most about
      beta*||f(x)||_inf (LU backward error; Higham, Accuracy and
      Stability of Numerical Algorithms, 2nd ed., 2002, ch. 9), so when
      4*beta*||f(x)||_inf <= vntol the step would pass. x itself is
      returned: no step is solved.
    - Certificate, on a plan with no MOSFET, when a solved step dx from x
      is not clamped and an iteration is left (_certified), tested before
      the step test, as both return x'. B bounds every row of the residual
      that assembling at x' = x + dx would give. If B <= abstol, so every
      row passes _residual_ok, and 4*beta*B <= vntol, x' is returned at
      once: the next iteration's step bound would return the same x'
      unsolved, one assembly later. Both tests read B where that
      iteration reads ||f(x')||_inf, and rounding is monotone. Proof of
      the bound: with A the exact sum of the plan's stamps and f(y) =
      A y + c, assembly computes f(y) + e(y); the compiled J is A + E; the
      solve gives (J + dJ) dx = -f(x) - e(x); and x' = x + dx + r. So
          f(x') = f(x) + A (dx + r) = -e(x) - (dJ + E) dx + A r,
      and the next assembly adds e(x'). Row by row (Higham, above):
      - |e(y)| <= gamma_K times the row's sum of |terms| at y (ch. 3): a
        term takes at most 2 roundings, and a row sums at most 2E + 1
        terms (Plan.certificate's K). That sum is the row's scale, and it
        grows from x to x' by at most ||A||_inf*||x' - x||_inf;
      - |dJ| <= gamma_3n |L||U| (Thm 9.4), and ||(|L||U|)||_inf <= (1 +
        2(n*n - n)*rho)*||J||_inf with rho <= 2**(n-1) under partial
        pivoting (Lemma 9.6);
      - |E| <= gamma_K |A|, and ||A||_inf is ||J||_inf to a factor 1 +
        O((K + n)*u): each slot of J sums stamps of one sign, a conductance
        g > 0 adding on the diagonal and subtracting off it, a source's
        +-1 in slots of its own. A resistor from a node to itself breaks
        this, so its plan is never certified;
      - |r| <= u*|x'|, so ||x' - x||_inf <= ||dx||_inf + u*||x'||_inf.
      Summed, every row of that residual is at most 2*gamma_K*max(scale
      at x) + (gamma_3n*(1 + 2*(n*n - n)*rho) + 2*gamma_K)*||J||*||dx|| +
      (1 + gamma_K)*u*||J||*||x'||, all norms inf-norms, up to factors of
      1 + O(K*u); B is twice it, which covers those factors and B's own
      rounding (Plan.certificate). Underflow, at most 2**-1074 per
      operation, lies far below either test's limit.

    A nonzero ``g`` makes the run one pseudo-transient step, every node
    tied to x0 by g, of at most _PTC_STEP_ITERS iterations. It returns
    its solved step; the step bound does not apply, as it assumes the
    plain system. The clamp damps plain runs only; a pseudo-transient
    step takes its full Newton step, its tie being its damping.

    Failing fast. A plain run (g = 0) on a plan with MOSFETs ends
    "stalled" when one of two signals fires at iteration _STALL_FROM or
    later:
    (a) its steps stop contracting (Deuflhard, Newton Methods for
        Nonlinear Problems, 2004, sec. 3.2): for the _STALL_STEPS-th time
        a step is at least as long, in max node |dx|, as an unclamped
        step just before it, a contraction factor theta >= 1. A clamped
        step never starts such a pair, so a cold run that climbs a 30 V
        rail 1 V per iteration is not stopped;
    (b) it cycles, through the clamp or not: a step that fails the vntol +
        reltol*|x| test lands within that tolerance, component by
        component, of the iterate two steps back.
    Before iteration _STALL_FROM a run is still finding its basin, and
    most runs have converged by then. Linear runs are exempt: each
    component moves monotonically toward the one solution, so they cannot
    stall. Pseudo-transient steps are exempt, being capped already.
    The signals are evidence, not proof. Rerun without them, 18 of the 69
    runs they end on the benchmark's mc_op seed 1 jobs 0-1999 reach
    maxiter, and 138 of the 179 on band seed 1 jobs 0-31. Each of the
    other 92 was ended by (a) and would converge within 100 iterations,
    on the answer that the solve's later stages give, to 2e-9 V.
    dc_solve treats "stalled" as "maxiter", and no later stage starts
    from an abandoned run's x, so on those workloads a stall changes how
    many iterations a solve takes, not its answer.
    """
    x = x0
    nn = plan.n_nodes
    clamp, vntol, reltol = OPTIONS.dv_clamp, OPTIONS.vntol, OPTIONS.reltol
    linear = not (plan.mosfets or g)
    max_iters = _PTC_STEP_ITERS if g else OPTIONS.max_newton_iters
    # the stall test watches plain MOSFET runs only (see the docstring)
    watch = not (linear or g)
    x_back, last, growing = x0, inf, 0
    iters = 0
    while iters < max_iters:
        iters += 1
        a = plan.assemble(x, e, ieq, g, x0)
        if not (a.jac_finite and _finite(a.f)):
            return x, a, iters, "nonfinite"
        if linear:
            bound = plan.bounds[0] * max(map(abs, a.f), default=0.0)
            if bound <= vntol and _residual_ok(plan, a):
                # the step from x provably passes: accept x unsolved
                return x, a, iters, "ok"
        try:
            dx = _solve(a.jac, [-v for v in a.f])
        except np.linalg.LinAlgError:
            return x, a, iters, "singular"
        if not _finite(dx):
            return x, a, iters, "nonfinite"
        longest = max(map(abs, dx[:nn]), default=0.0)
        if longest > clamp and not g:
            step = [min(max(d, -clamp), clamp) for d in dx[:nn]] + dx[nn:]
        else:
            step = dx
        x_next = list(map(add, x, step))
        # the certificate first: it and the step test both return x_next
        if linear and step is dx and iters < max_iters and _certified(plan, a, dx, x_next):
            # the next iteration's step bound provably accepts x_next unsolved
            return x_next, a, iters, "ok"
        for d, xd in zip(step, x_next):
            if not abs(d) <= vntol + reltol * abs(xd):
                step_ok = False
                break
        else:
            step_ok = True
        if step_ok and _residual_ok(plan, a):
            return x_next, a, iters, "ok"
        if watch and iters >= _STALL_FROM:
            if longest >= last:  # theta >= 1 after an unclamped step
                growing += 1
            if growing == _STALL_STEPS or not step_ok and all(
                    abs(xn - xb) <= vntol + reltol * abs(xn)
                    for xn, xb in zip(x_next, x_back)):
                return x, a, iters, "stalled"
        last = longest if longest < clamp else inf
        x_back, x = x, x_next
    a = plan.assemble(x, e, ieq, g, x0)
    return x, a, iters, "maxiter"


def _convergence_error(plan: Plan, a: _Assembled, what: str, stage: str):
    """ConvergenceError reading ``<what>: residual=...`` at the last assembly."""
    nn = plan.n_nodes
    # np.max keeps a NaN residual that Python's max could drop
    residual = float(np.max(np.abs(a.f[:nn]))) if nn else 0.0
    # a mismatch can sit in a voltage-source row alone
    branch = (f", branch residual={float(np.max(np.abs(a.f[nn:]))):.3e} V"
              if plan.vsource_names else "")
    return ConvergenceError(f"{what}: residual={residual:.3e} A{branch}",
                            stage=stage, residual=residual)


def _dc_point(plan: Plan, e: list[float], starts: tuple[list[float], ...]):
    """dc_solve's stages at source values ``e``: plain Newton from each of
    ``starts`` that has a nonzero entry, in order, then from zero (the
    cold start), then pseudo-transient continuation.

    Returns (x, iterations) from the first stage that converges. Raises
    ConvergenceError at the last pseudo-transient x and g when every stage
    fails; a pseudo-transient step that fails, singular or not, grows g
    8-fold. Run it inside _lapack_errors(), as dc_solve and Plan.sweep do.
    """
    zero = [0.0] * plan.n_unknowns
    total = 0
    # a stale guess can strand Newton on a branch of the solution set that
    # no longer exists; from zero it lands on a surviving one. A start of
    # zeros of either sign is that cold run, so it runs once, last.
    for start in (*filter(any, starts), zero):
        x, _, iters, status = _newton(plan, start, e=e)
        total += iters
        if status == "ok":
            return x, total

    x, g = zero, _PTC_G_START
    while total < _PTC_MAX_ITERS:
        plain = g < _PTC_G_END
        x_next, _, iters, status = _newton(plan, x, 0.0 if plain else g, e=e)
        total += iters
        if status == "ok" and plain:
            return x_next, total
        if status == "ok":
            x, g = x_next, g / 4.0
        elif g > _PTC_G_MAX:
            break
        else:
            g *= 8.0
    raise _convergence_error(
        plan, plan.assemble(x, e), f"no DC convergence (pseudo-transient, g={g:g} S)",
        "pseudo-transient")


def dc_solve(netlist: Netlist, initial_guess: dict[str, float] | None = None,
             second_guess: dict[str, float] | None = None) -> Solution:
    """DC operating point.

    ``initial_guess`` and ``second_guess`` name unknowns as Plan.index
    does, nodes by name and branch currents as ``I(<source>)``; the rest
    start at zero. The answer is the converged run's final solved Newton
    step. A solved point's voltages with its ``I(<source>)`` branch
    currents still reconverge in one iteration; without them, its branch
    rows fail the step test once.

    Each stage runs only when the one before it fails: plain Newton from
    each guess that has a nonzero entry, ``initial_guess`` then
    ``second_guess``; plain Newton from zero, the cold start, which a
    missing guess or one of zeros of either sign is; then pseudo-transient
    continuation (see _PTC_G_START) from zero, which past a fold follows
    the circuit's own dynamics to a surviving branch. Plain runs are
    damped by the voltage clamp; a pseudo-transient step is damped by its
    tie alone and takes its full Newton step. A plain run that ends "stalled"
    (see _newton: its steps stop contracting, or it cycles through the
    clamp, tested from iteration _STALL_FROM on; linear runs and
    pseudo-transient steps are exempt) moves on exactly as one that ends
    "maxiter". Every stage starts from a guess or from zero, never from
    a failed run's x, so failing fast changes the iteration count, not
    the answer. Raises ConvergenceError with the residual at its last
    accepted point when it gives up. Plan.sweep runs the same stages at
    each of a list of source values.
    """
    plan = Plan(netlist)
    starts = (plan.vector_from_guess(initial_guess), plan.vector_from_guess(second_guess))
    with _lapack_errors():
        x, total = _dc_point(plan, plan.source_values(0.0), starts)
    volts = dict(zip(("0", *plan.node_names), [0.0, *x]))
    branches = dict(zip(plan.vsource_names, x[plan.n_nodes:]))
    return Solution(volts, branches, total)
