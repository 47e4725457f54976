"""Fixed-step transient analysis by modified nodal analysis.

Unknowns are the non-reference node voltages plus one current per
voltage source.  Reactive elements become Norton companions at each
step (g is the companion conductance, u the branch voltage, i the
branch current, all oriented start to end):

    backward Euler   capacitor  g = C/dt      i' = g (u' - u)
                     inductor   g = dt/L      i' = i + g u'
    trapezoidal      capacitor  g = 2C/dt     i' = g (u' - u) - i
                     inductor   g = dt/(2L)   i' = i + g (u + u')

The system matrix G is constant for a fixed dt, so the whole step is
linear in the state z = (capacitor u and i, inductor u and i) and the
source values s_n.  ``compile_step`` compiles it once, by applying the
one-step assembly and update to unit vectors, into a ``CompiledStep``
holding the read-only maps of

    z_n = M z_{n-1} + N s_n        G x_n = Rz z_{n-1} + Rs s_n

``transient`` compiles, builds the state at t = 0 and writes the
record: the t = 0 column first, then the steps in fixed-size blocks.
Each block advances the state by a doubling scan (Hillis and Steele,
CACM 29(12), 1986): with the block's drives N s_n as rows under the
start state, pass k adds to every row the row 2^k above it times
M^(2^k), so after ceil(log2(n + 1)) passes row j holds the whole
recurrence up to step j.  The powers M^(2^k) are built once per run by
squaring.  Each block then computes the unknowns x (one LU solve
of G for the whole block, by ``numpy.linalg.solve``), the branch
currents, and the current-law audit, which pushes each block's branch
currents through the full incidence matrix.  If any node's residual
over the run exceeds ``solver_tol`` times the current scale, the run is
rejected rather than silently returned.  The record is frozen at the
end, so its waveforms share it instead of copying it.  The module needs
numpy only.

The matrices come from the network's boundary operator
(``topology.boundary``).  With A its incidence matrix without the
reference row, +1 at a branch's start node and -1 at its end, the
branch voltages are A^T v for node voltages v, a vector of branch
currents i injects -A i into the nodes, and

    G = [[A diag(g) A^T, A_x], [A_x^T, 0]]

where g holds the branch conductances and A_x the columns of the
branches whose current is an unknown (Ho, Ruehli and Brennan, IEEE
Trans. Circuits Syst. 1975).  ``compile_step`` and
``dc_operating_point`` build G with one assembler, ``_assemble``; they
differ only in the conductance each element gets, which ``_conductance``
states for both (at DC, inductors join the voltage sources as current
unknowns).

Trapezoidal integration is the default: it is second order and, for
lossless LC loops, preserves the stored energy exactly (in exact
arithmetic), which backward Euler visibly damps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Mapping, Sequence

import numpy as np

from .driver import SENSE_BRANCH, StimulusSpec, driver_network
from .elements import (Capacitor, CurrentSource, Element, Inductor, Resistor,
                       VoltageSource)
from .errors import SimulationError, require_memory
from .laser import LaserCircuit
from .metrics import fwhm
from .topology import (Branch, Network, boundary, connected_components,
                       cycle_rank)
from .waveform import Waveform

METHODS = ("trapezoidal", "backward-euler")

#: Conductance tied from floating capacitor nodes to ground in the
#: operating-point solve.
GMIN = 1e-12

#: Steps per block: sources, unknowns, branch currents and the
#: current-law audit are computed this many time points at a time.
_BLOCK = 4096

#: Element kinds, in the order of ``CompiledStep.index``.
_KINDS = (Resistor, Capacitor, Inductor, CurrentSource, VoltageSource)

_SINGULAR = ("singular system matrix; check for voltage-source loops "
             "or current-source cutsets")


def _conductance(el: Element, cfg: SimConfig | None) -> float | None:
    """The conductance of an element's branch in G: its companion
    conductance in the table above under ``cfg``'s method and dt, or at DC
    for ``cfg=None``, where a capacitor leaks ``GMIN``.  0.0 for a current
    source; None where the branch current is itself an unknown: a voltage
    source, and at DC an inductor."""
    if isinstance(el, Resistor):
        return 1.0 / el.ohms
    k = 2.0 if cfg is not None and cfg.method == "trapezoidal" else 1.0
    if isinstance(el, Capacitor):
        return GMIN if cfg is None else k * el.farads / cfg.dt
    if isinstance(el, Inductor):
        return None if cfg is None else cfg.dt / (k * el.henries)
    return None if isinstance(el, VoltageSource) else 0.0


@dataclass(frozen=True)
class SimConfig:
    """Grid and method for one transient run (t = 0, dt, ..., steps*dt)."""

    t_end: float
    dt: float
    method: str = "trapezoidal"
    solver_tol: float = 1e-9

    def __post_init__(self) -> None:
        if not self.dt > 0:
            raise SimulationError(f"dt must be > 0 s, got {self.dt}")
        if not self.t_end >= self.dt:
            raise SimulationError(
                f"t_end = {self.t_end!r} s must cover at least one step of {self.dt!r} s")
        steps = self.t_end / self.dt
        if not math.isfinite(steps):
            raise SimulationError(
                f"t_end = {self.t_end!r} s is too many steps of {self.dt!r} s to count")
        if abs(steps - round(steps)) > 1e-6:
            raise SimulationError(
                f"t_end = {self.t_end!r} s is {steps:.9g} steps of {self.dt!r} s; "
                "it must be a whole number of steps")
        if self.method not in METHODS:
            raise SimulationError(
                f"unknown method {self.method!r}; pick one of {METHODS}")
        if not 0 < self.solver_tol < 1:
            raise SimulationError(f"solver_tol must be in (0, 1), got {self.solver_tol}")

    @property
    def steps(self) -> int:
        return int(round(self.t_end / self.dt))


@dataclass(frozen=True)
class InitialCondition:
    """State at t = 0: node voltages and branch currents.

    Missing nodes start at 0 V; missing currents at 0 A; every given
    value must be finite.  Currents are meaningful for inductors (their
    state), capacitors under the trapezoidal rule (companion history)
    and voltage sources (recorded in the t = 0 output column only).
    """

    node_voltages: Mapping[str, float] = field(default_factory=dict)
    branch_currents: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class SimResult:
    """Transient solution on the grid ``times``.

    ``node_voltages`` has one waveform per node (the reference is all
    zeros); ``branch_currents`` one per branch, oriented start to end.
    ``max_kcl_residual`` is the worst nodal current imbalance over all
    solved steps, in amperes.
    """

    network: Network
    config: SimConfig
    node_voltages: dict[str, Waveform]
    branch_currents: dict[str, Waveform]
    max_kcl_residual: float
    current_scale: float

    @property
    def times(self) -> np.ndarray:
        first = next(iter(self.node_voltages.values()))
        return first.times()


def _solve(G: np.ndarray, rhs: np.ndarray,
           why: Callable[[], str]) -> np.ndarray:
    """Solve G x = rhs by LU (LAPACK gesv), turning singularity into a
    SimulationError with the message ``why()``.  G is never inverted:
    its condition reaches 8e11."""
    try:
        return np.linalg.solve(G, rhs)
    except np.linalg.LinAlgError as exc:
        raise SimulationError(f"{why()} ({exc})") from exc


def _checked_network(net: Network) -> None:
    if net.reference is None:
        raise SimulationError(
            "network has no reference node; construct it with reference=...")
    if not any(isinstance(br.element, (CurrentSource, VoltageSource))
               for br in net.branches):
        raise SimulationError("network has no sources; nothing to simulate")
    for br in net.branches:
        if br.element is None:
            raise SimulationError(f"branch {br.id!r} carries no element")
        if not isinstance(br.element, Element):
            raise SimulationError(f"branch {br.id!r}: unsupported element "
                                  f"{type(br.element).__name__}")
        if br.start == br.end:
            raise SimulationError(f"branch {br.id!r} is a self-loop")
    # Every node must reach the reference, otherwise the nodal matrix
    # is singular; name the offenders instead of failing in the LU.
    grounded = next(c for c in connected_components(net) if net.reference in c)
    floating = [n for n in net.nodes if n not in grounded]
    if floating:
        raise SimulationError(
            f"nodes {floating} have no path to reference {net.reference!r}")


def _assemble(net: Network, cfg: SimConfig | None
              ) -> tuple[dict[str, int], np.ndarray, np.ndarray, np.ndarray,
                         list[int]]:
    """Check ``net``, then build its modified-nodal matrix from its boundary
    operator, for the transient on ``cfg`` or, for ``cfg=None``, at DC.

    With A the incidence matrix without the reference row (+1 at a
    branch's start node, -1 at its end), g the ``_conductance`` of each
    branch (0.0 for None) and A_x the columns of the current unknowns, in
    branch order,

        G = [[A diag(g) A^T, A_x], [A_x^T, 0]]

    Returns the row map (the reference is -1), G, A, g and the branch
    indices of the current unknowns.  An element value whose conductance
    is not finite, or conductances whose sum at a node is not, is a
    SimulationError.
    """
    _checked_network(net)
    cond = [_conductance(br.element, cfg) for br in net.branches]
    g = np.array([gk or 0.0 for gk in cond])
    bad = np.flatnonzero(~np.isfinite(g))
    if bad.size:
        br = net.branches[bad[0]]
        raise SimulationError(
            f"branch {br.id!r}: {br.element!r} has conductance "
            f"{g[bad[0]]:g} S, which is not finite; the element value is "
            "out of range")
    keep = [k for k, label in enumerate(net.nodes) if label != net.reference]
    A = (-boundary(net).matrix[keep]).astype(np.float64)
    cur = [k for k, gk in enumerate(cond) if gk is None]
    A_x = A[:, cur]
    n_v = len(keep)
    G = np.zeros((n_v + A_x.shape[1],) * 2)
    with np.errstate(over="ignore"):
        G[:n_v, :n_v] = (A * g) @ A.T
    if not np.all(np.isfinite(G)):
        raise SimulationError(
            "the branch conductances at a node sum past the float range")
    G[:n_v, n_v:] = A_x
    G[n_v:, :n_v] = A_x.T
    row = {net.nodes[k]: r for r, k in enumerate(keep)}
    row[net.reference] = -1
    return row, G, A, g, cur


def _source_samples(br: Branch, times: np.ndarray) -> np.ndarray:
    """Read-only value of a source branch on the simulation grid (aligned
    waveforms verbatim, without a copy).  A waveform must span the grid
    to within half a step."""
    el = br.element
    value = el.amps if isinstance(el, CurrentSource) else el.volts
    if isinstance(value, Waveform):
        n = times.size
        dt = float(times[1] - times[0])
        if (value.t0 > times[0] + 0.5 * dt
                or value.t_end < times[-1] - 0.5 * dt):
            raise SimulationError(
                f"branch {br.id!r}: waveform source spans [{value.t0:g}, "
                f"{value.t_end:g}] s, short of the run [{times[0]:g}, "
                f"{times[-1]:g}] s")
        aligned = (len(value) >= n
                   and abs(value.t0 - times[0]) <= 1e-9 * dt
                   and abs(value.dt - dt) <= 1e-12 * dt)
        if aligned:
            return value.samples[:n]
        return value.value_at(times)
    return np.broadcast_to(float(value), times.shape)


@dataclass(frozen=True, eq=False)
class CompiledStep:
    """One step of a network's transient, compiled for a fixed dt and method.

    The state z holds the capacitor voltages, the capacitor currents,
    the inductor voltages and the inductor currents, each in branch
    order; the sources s the current sources, then the voltage sources,
    in branch order.  A step is

        z_n = M z_{n-1} + N s_n        G x_n = Rz z_{n-1} + Rs s_n

    where x holds the node voltages v (at ``row[node]``) and then the
    voltage-source currents.  A is the incidence matrix without the
    reference row, +1 at each branch's start node and -1 at its end, so
    A^T v are the branch voltages; g is each branch's conductance (0.0
    for a source), and G = [[A diag(g) A^T, A_x], [A_x^T, 0]] with A_x
    the voltage-source columns of A.  ``index[kind]`` lists the
    branches of each element kind, in the order resistor, capacitor,
    inductor, current source, voltage source.  The arrays are read-only.
    """

    row: Mapping[str, int]
    G: np.ndarray
    Rz: np.ndarray
    Rs: np.ndarray
    M: np.ndarray
    N: np.ndarray
    g: np.ndarray
    A: np.ndarray
    index: Mapping[type, np.ndarray]


def _span(net: Network, cfg: SimConfig, g: np.ndarray,
          index: Mapping[type, np.ndarray]) -> str:
    """The run's grid and method, and its smallest and largest companion
    conductance: where an overflow or a numerically singular G comes
    from."""
    rlc = np.concatenate([index[Resistor], index[Capacitor], index[Inductor]])
    lo, hi = rlc[np.argmin(np.abs(g[rlc]))], rlc[np.argmax(np.abs(g[rlc]))]
    return (f"at dt = {cfg.dt!r} s ({cfg.method}): companion conductances "
            f"span {g[lo]:.3g} S (branch {net.branches[lo].id!r}) to "
            f"{g[hi]:.3g} S (branch {net.branches[hi].id!r})")


def _overflow(what: str, net: Network, cfg: SimConfig, g: np.ndarray,
              index: Mapping[type, np.ndarray]) -> SimulationError:
    """The error for ``what`` overflowing, with the conductance span."""
    return SimulationError(f"{what} overflowed for these element values "
                           f"{_span(net, cfg, g, index)}")


def _singular(net: Network, cfg: SimConfig, g: np.ndarray,
              index: Mapping[type, np.ndarray]) -> str:
    """Why the transient's G is singular.  Every resistor, capacitor and
    inductor has a conductance, so G is singular in exact arithmetic
    only for a loop of voltage sources or for a node that only current
    sources join to the reference.  A network with neither has a G that
    is singular in floating point: the conductance span is named."""
    sources = [net.branches[k] for k in index[VoltageSource]]
    rest = [br for br in net.branches
            if not isinstance(br.element, CurrentSource)]
    if (cycle_rank(Network(net.nodes, sources))
            or len(connected_components(Network(net.nodes, rest))) > 1):
        return _SINGULAR
    return ("singular system matrix for these element values, with no "
            "voltage-source loop or current-source cutset, "
            + _span(net, cfg, g, index))


def compile_step(net: Network, cfg: SimConfig) -> CompiledStep:
    """Compile the step of ``net`` on the grid and method of ``cfg``.

    The step is linear in (z, s), so its response to unit vectors gives
    the maps of :class:`CompiledStep`.
    """
    trap = cfg.method == "trapezoidal"
    row, G, A, g, _ = _assemble(net, cfg)
    n_v = len(A)
    index = {kind: np.array([k for k, br in enumerate(net.branches)
                             if isinstance(br.element, kind)], dtype=np.intp)
             for kind in _KINDS}
    _, cap_idx, ind_idx, isrc_idx, vsrc_idx = index.values()
    cap_g, ind_g = g[cap_idx, None], g[ind_idx, None]
    n_c, n_l, n_i = len(cap_idx), len(ind_idx), len(isrc_idx)
    n_z = 2 * (n_c + n_l)

    def assemble(z: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Right-hand side for columns of state z and sources s."""
        cap_u, cap_i, ind_u, ind_i = np.split(z, [n_c, 2 * n_c, 2 * n_c + n_l])
        cap_hist = cap_g * cap_u + (cap_i if trap else 0.0)
        ind_hist = ind_i + (ind_g * ind_u if trap else 0.0)
        # independent sources, then companion histories
        nodes = (A[:, isrc_idx] @ -s[:n_i] + A[:, cap_idx] @ cap_hist
                 - A[:, ind_idx] @ ind_hist)
        return np.vstack([nodes, s[n_i:]])

    def advance(z: np.ndarray, x: np.ndarray) -> np.ndarray:
        """State after a step that solved x from state z (columns)."""
        cap_u, cap_i, ind_u, ind_i = np.split(z, [n_c, 2 * n_c, 2 * n_c + n_l])
        branch_u = A.T @ x[:n_v]
        new_cap_u = branch_u[cap_idx]
        new_cap_i = cap_g * (new_cap_u - cap_u) - (cap_i if trap else 0.0)
        new_ind_u = branch_u[ind_idx]
        new_ind_i = ind_i + ind_g * ((new_ind_u + ind_u) if trap else new_ind_u)
        return np.vstack([new_cap_u, new_cap_i, new_ind_u, new_ind_i])

    unit = np.eye(n_z + n_i + len(vsrc_idx))
    # A finite G can still give a map that is not finite (a 5e-324 F
    # capacitor beside a 1.7e308 ohm resistor); that is reported below.
    with np.errstate(over="ignore", invalid="ignore"):
        r_unit = assemble(unit[:n_z], unit[n_z:])
        z_unit = advance(unit[:n_z], _solve(
            G, r_unit, partial(_singular, net, cfg, g, index)))
    if not (np.all(np.isfinite(r_unit)) and np.all(np.isfinite(z_unit))):
        raise _overflow("the step map (M, N, Rz, Rs)", net, cfg, g, index)
    for array in (G, r_unit, z_unit, g, A, *index.values()):
        array.setflags(write=False)   # and so every slice taken below
    return CompiledStep(row, G, r_unit[:, :n_z], r_unit[:, n_z:], z_unit[:, :n_z],
                        z_unit[:, n_z:], g, A, index)


def transient(net: Network, cfg: SimConfig,
              initial: InitialCondition | None = None) -> SimResult:
    """Run the fixed-step transient analysis.

    ``initial`` defaults to the all-zero state.  Use
    :func:`dc_operating_point` first to start from steady state.
    """
    step = compile_step(net, cfg)
    A, g_br = step.A, step.g[:, None]
    n_v, n_z = len(A), len(step.M)
    # The supplied state: the reference node's row of -1 writes into the
    # spare last slot of v0, which must stay 0.
    initial = initial or InitialCondition()
    v0, i0 = np.zeros(n_v + 1), np.zeros(len(net.branches))
    for quantity, owner, owners, given, slot, state in (
            ("voltage", "node", "nodes", initial.node_voltages, step.row, v0),
            ("current", "branch", "branches", initial.branch_currents,
             {label: k for k, label in enumerate(net.branch_ids)}, i0)):
        unknown = set(given) - set(slot)
        if unknown:
            raise SimulationError(
                f"initial {quantity}s name unknown {owners} {sorted(unknown)}")
        for label, value in given.items():
            if not math.isfinite(float(value)):
                raise SimulationError(f"initial {quantity} of {owner} {label!r} "
                                      f"must be finite, got {value}")
            state[slot[label]] = float(value)
    if v0[-1]:
        raise SimulationError("reference node voltage must be 0")
    v0 = v0[:-1]

    steps = cfg.steps
    # node voltages but the reference's, branch currents and the time grid
    require_memory(8 * (steps + 1) * (len(net.nodes) + len(net.branches)),
                   f"the record of {steps:,} steps")
    times = cfg.dt * np.arange(steps + 1)
    res_idx, cap_idx, ind_idx, isrc_idx, vsrc_idx = step.index.values()
    sources = [_source_samples(net.branches[k], times)
               for k in (*isrc_idx, *vsrc_idx)]
    n_c, n_i = len(cap_idx), len(isrc_idx)
    # State layout: cap_u, cap_i, ind_u, ind_i.
    cap_i_rows = slice(n_c, 2 * n_c)
    ind_i_rows = slice(n_z - len(ind_idx), n_z)

    # The doubling scan, in row form (a state is a row z, a step z M^T + w):
    # powers[k] is (M^T)^(2^k), enough for a shift of a whole block.
    # M^(2^k) can overflow where M itself is finite (a 1e-300 H inductor
    # at dt = 0.1 ns); the block that meets it reports the overflow.
    powers = [step.M.T]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_BLOCK.bit_length() - 1):
            powers.append(powers[-1] @ powers[-1])

    # The t = 0 column is the supplied state: v0, the supplied currents,
    # g*u0 through each resistor and s(0) through each current source.
    with np.errstate(over="ignore", invalid="ignore"):
        u0 = A.T @ v0
        g_u0 = step.g * u0
    # Finite voltages can still differ by more than the float range.
    bad = np.flatnonzero(~np.isfinite(g_u0))
    if bad.size:
        raise SimulationError(f"initial voltages put {u0[bad[0]]:g} V across branch "
                              f"{net.branches[bad[0]].id!r}, past the float range")
    z = np.concatenate([u0[cap_idx], i0[cap_idx], u0[ind_idx], i0[ind_idx]])
    I_rec = np.empty((len(net.branches), steps + 1))
    V_rec = np.empty((n_v, steps + 1))
    V_rec[:, 0] = v0
    I_rec[:, 0] = i0
    I_rec[res_idx, 0] = g_u0[res_idx]
    I_rec[isrc_idx, 0] = [src[0] for src in sources[:n_i]]

    # The steps, in blocks.  The current-law audit does not judge t = 0,
    # which is supplied state and not a solution, but counts it towards
    # the scales.  Reactive branch currents come from cancelling companion
    # terms of magnitude g*|u|, so roundoff in the residual floats on
    # those intermediates, not on the (possibly tiny) net currents.
    # Each column of the full incidence sums to zero, so A with minus its
    # column sums appended is the full incidence (negated, reference last).
    D = np.vstack([A, -A.sum(axis=0)])
    max_resid = 0.0
    scale = float(np.max(np.abs(I_rec[:, 0])))
    g_u = float(np.max(step.g * np.abs(u0)))
    for lo in range(1, steps + 1, _BLOCK):
        hi = min(lo + _BLOCK, steps + 1)
        s = np.vstack([src[lo:hi] for src in sources])
        # Finite maps can still step into overflow (a 1e-300 H inductor
        # at dt = 0.1 ns); the block's record is checked instead.
        with np.errstate(over="ignore", invalid="ignore"):
            # The recurrence, one row of zs per step (zs[0] = z_{lo-1}).
            # After pass k, row j holds the drives of rows j - 2^(k+1) + 1
            # to j carried to step j.  Each pass reads the rows as they were
            # before it: the product is evaluated before the add, and must
            # never be written with out= into zs, whose two slices overlap.
            n = hi - lo
            zs = np.empty((n + 1, n_z))
            zs[0] = z
            zs[1:] = (step.N @ s).T
            for k in range(n.bit_length()):
                zs[1 << k:] += zs[:-(1 << k)] @ powers[k]
            z = zs[-1].copy()
            # The unknowns are solved from the assembled right-hand side,
            # not through a composed map from (z, s): terms that cancel at
            # a node (a bias current against its choke's current) then
            # cancel before the solve scales them by 1/g of a small
            # companion conductance, not after.
            x = _solve(step.G, step.Rz @ zs[:-1].T + step.Rs @ s,
                       partial(_singular, net, cfg, step.g, step.index))
            u = A.T @ x[:n_v]
            V_rec[:, lo:hi] = x[:n_v]
            I = I_rec[:, lo:hi]
            I[res_idx] = u[res_idx] * g_br[res_idx]
            I[cap_idx] = zs[1:, cap_i_rows].T
            I[ind_idx] = zs[1:, ind_i_rows].T
            I[isrc_idx] = s[:n_i]
            I[vsrc_idx] = x[n_v:]
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(I))):
            raise _overflow(f"the run in steps {lo} to {hi - 1}", net, cfg,
                            step.g, step.index)

        max_resid = max(max_resid, float(np.max(np.abs(D @ I))))
        scale = max(scale, float(np.max(np.abs(I))))
        g_u = max(g_u, float(np.max(g_br * np.abs(u))))

    audit_scale = max(scale, g_u)
    if max_resid > cfg.solver_tol * max(audit_scale, 1e-30):
        raise SimulationError(
            f"current-law residual {max_resid:.3e} A exceeds "
            f"{cfg.solver_tol:g} of the {audit_scale:.3e} A current scale; "
            "the system is too ill-conditioned for this dt")

    I_rec.setflags(write=False)
    V_rec.setflags(write=False)
    node_waves = {}
    for label, r in step.row.items():
        samples = V_rec[r] if r >= 0 else np.zeros(steps + 1)
        node_waves[label] = Waveform(0.0, cfg.dt, samples, "V")
    branch_waves = {br.id: Waveform(0.0, cfg.dt, I_rec[k], "A")
                    for k, br in enumerate(net.branches)}
    return SimResult(net, cfg, node_waves, branch_waves, max_resid, scale)


def dc_operating_point(net: Network) -> InitialCondition:
    """Steady state with sources held at their t = 0 values.

    Inductors become zero-volt sources (their DC current is an
    unknown); capacitors open up to a ``GMIN`` leak so isolated nodes
    stay solvable.  The result feeds :func:`transient` as its initial
    condition, including the source currents for the t = 0 record.
    """
    row, G, A, _, cur = _assemble(net, None)
    n_v = len(A)
    at_zero = {}
    for k, br in enumerate(net.branches):
        el = br.element
        if isinstance(el, (CurrentSource, VoltageSource)):
            value = el.amps if isinstance(el, CurrentSource) else el.volts
            if isinstance(value, Waveform) and not (
                    value.t0 <= 0.5 * value.dt and value.t_end >= -0.5 * value.dt):
                raise SimulationError(
                    f"branch {br.id!r}: waveform source spans [{value.t0:g}, "
                    f"{value.t_end:g}] s, which misses the operating point at t = 0")
            at_zero[k] = el.value_at(0.0)
    isrc = [k for k in at_zero if isinstance(net.branches[k].element, CurrentSource)]
    # Current sources drive their nodes; a voltage source's row holds its
    # value and an inductor's (a zero-volt source at DC) holds 0.
    rhs = np.concatenate([A[:, isrc] @ -np.array([at_zero[k] for k in isrc]),
                          [at_zero.get(k, 0.0) for k in cur]])

    x = _solve(G, rhs, lambda: "operating point is singular")
    if not np.all(np.isfinite(x)):
        raise SimulationError("operating point is singular")

    volts = {label: (float(x[r]) if r >= 0 else 0.0) for label, r in row.items()}
    currents = dict(zip((net.branches[k].id for k in cur), x[n_v:].tolist()))
    return InitialCondition(node_voltages=volts, branch_currents=currents)


def run_driver(spec: StimulusSpec, circ: LaserCircuit, cfg: SimConfig,
               **net_kwargs) -> SimResult:
    """Driver network on the config grid, started from its operating point."""
    net = driver_network(spec, circ, t_end=cfg.steps * cfg.dt, dt=cfg.dt,
                         **net_kwargs)
    return transient(net, cfg, dc_operating_point(net))


def sense_current(result: SimResult) -> Waveform:
    """Total injection current through the driver's sense branch."""
    try:
        return result.branch_currents[SENSE_BRANCH]
    except KeyError:
        raise SimulationError(
            f"result has no {SENSE_BRANCH!r} branch; not a driver run") from None


#: Stimulus fields a sweep may vary.
SWEEP_PARAMS = ("delay", "amplitude", "width")


@dataclass(frozen=True)
class SweepPoint:
    """Summary of one sweep run: peak injection and pulse geometry."""

    value: float
    peak: float
    t_peak: float
    fwhm: float
    t_mid: float  # midpoint of the half-maximum crossings


def drive_point(spec: StimulusSpec, sense: Waveform,
                value: float = math.nan) -> SweepPoint:
    """The pulse of a driver run's sense current, measured from the bias
    in the direction of the amplitude; ``value`` is the swept stimulus
    value (NaN outside a sweep).  Raises MetricsError if unmeasurable."""
    rest = sense.samples - spec.bias
    m = fwhm(sense.with_samples(rest if spec.amplitude > 0 else -rest))
    peak = float(sense.samples[np.argmax(np.abs(rest))])
    return SweepPoint(value=value, peak=peak, t_peak=m.t_peak, fwhm=m.fwhm,
                      t_mid=0.5 * (m.half_crossings[0] + m.half_crossings[1]))


def sweep_runs(spec: StimulusSpec, circ: LaserCircuit, param: str,
               values: Sequence[float], cfg: SimConfig,
               **net_kwargs) -> list[tuple[SweepPoint, Waveform]]:
    """Driver run per value of one stimulus field; summaries + currents.

    ``param`` is one of :data:`SWEEP_PARAMS`; results keep the order of
    ``values``.
    """
    if param not in SWEEP_PARAMS:
        raise SimulationError(
            f"unknown sweep parameter {param!r}; pick one of {SWEEP_PARAMS}")
    if not values:
        raise SimulationError("sweep needs at least one value")
    runs = []
    for v in values:
        point_spec = replace(spec, **{param: v})
        sense = sense_current(run_driver(point_spec, circ, cfg, **net_kwargs))
        # A copy of the sense row, so that the run's whole record is freed.
        sense = sense.with_samples(sense.samples.copy())
        runs.append((drive_point(point_spec, sense, v), sense))
    return runs


#: Samples per block of detector_filter's loop.
_FILTER_BLOCK = 8192


def detector_filter(wave: Waveform, rise_time: float) -> Waveform:
    """Single-pole response of a detector with the given 10-90 rise time.

    The pole is at tau = rise_time / ln 9 so that a step input crosses
    10% to 90% in exactly ``rise_time``.  The filter starts settled at
    the first sample (no spurious startup edge on a biased input).
    """
    if not rise_time > 0:
        raise SimulationError(f"rise time must be > 0 s, got {rise_time}")
    tau = rise_time / math.log(9.0)
    c = 1.0 - math.exp(-wave.dt / tau)
    # y[k] = c x[k] + (1 - c) y[k-1], in the operation order of the
    # transposed direct form (scipy.signal.lfilter), started settled.
    # The loop runs on Python floats, of which one block is alive at a time.
    a = 1.0 - c
    out = np.empty(len(wave))
    z = a * float(wave.samples[0])
    for lo in range(0, len(out), _FILTER_BLOCK):
        y = []
        for xk in wave.samples[lo:lo + _FILTER_BLOCK].tolist():
            yk = c * xk + z
            y.append(yk)
            z = a * yk
        out[lo:lo + len(y)] = y
    out.setflags(write=False)
    return wave.with_samples(out)
