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
Each block advances the state by a chunked scan (Blelloch 1990; Martin
and Cundy 2018, arXiv:1709.04057): over chunks of K = ``_CHUNK`` steps, one
matrix product with the block-Toeplitz map of M^0 ... M^(K-1) gives
every chunk's response from a zero start, a short loop carries the
state from chunk end to chunk end by M^K, and a second product with
M^1 ... M^K adds each chunk's start state.  The powers are built once
per run.  Each block then computes the unknowns x (one LU solve
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
differ only in the conductance each element gets (at DC, inductors join
the voltage sources as current unknowns).

Trapezoidal integration is the default: it is second order and, for
lossless LC loops, preserves the stored energy exactly (in exact
arithmetic), which backward Euler visibly damps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .driver import SENSE_BRANCH, StimulusSpec, driver_network
from .elements import (Capacitor, CurrentSource, Element, Inductor, Resistor,
                       VoltageSource)
from .errors import SimulationError
from .laser import LaserCircuit
from .metrics import fwhm
from .topology import Branch, Network, boundary, connected_components
from .waveform import Waveform

METHODS = ("trapezoidal", "backward-euler")

#: Conductance tied from floating capacitor nodes to ground in the
#: operating-point solve.
GMIN = 1e-12

#: Steps per block: sources, unknowns, branch currents and the
#: current-law audit are computed this many time points at a time.
_BLOCK = 4096

#: Steps per chunk of the scan that advances the state within a block.
_CHUNK = 16

#: Element kinds, in the order of ``CompiledStep.index``.
_KINDS = (Resistor, Capacitor, Inductor, CurrentSource, VoltageSource)

_SINGULAR = ("singular system matrix; check for voltage-source loops "
             "or current-source cutsets")


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

    Missing nodes start at 0 V; missing currents at 0 A.  Currents are
    meaningful for inductors (their state), capacitors under the
    trapezoidal rule (companion history) and voltage sources (recorded
    in the t = 0 output column only).
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


def _solve(G: np.ndarray, rhs: np.ndarray, message: str) -> np.ndarray:
    """Solve G x = rhs by LU (LAPACK gesv), turning singularity into a
    SimulationError.  G is never inverted: its condition reaches 8e11."""
    if not np.all(np.isfinite(G)):
        raise SimulationError(message)
    try:
        return np.linalg.solve(G, rhs)
    except np.linalg.LinAlgError as exc:
        raise SimulationError(f"{message} ({exc})") from exc


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


def _assemble(net: Network, conductance: Callable[[Element], float | None]
              ) -> tuple[dict[str, int], np.ndarray, np.ndarray, np.ndarray]:
    """Modified-nodal matrix of ``net`` from its boundary operator.

    ``conductance(element)`` is a branch's conductance, 0.0 for nothing
    (a current source), or None when the branch current is itself an
    unknown.  With A the incidence matrix without the reference row (+1
    at a branch's start node, -1 at its end), g the conductances (0.0
    for None) and A_x the columns of the current unknowns, in branch
    order,

        G = [[A diag(g) A^T, A_x], [A_x^T, 0]]

    Returns the row map (the reference is -1), G, A and g.
    """
    cond = [conductance(br.element) for br in net.branches]
    g = np.array([gk or 0.0 for gk in cond])
    keep = [k for k, label in enumerate(net.nodes) if label != net.reference]
    A = (-boundary(net).matrix[keep]).astype(np.float64)
    A_x = A[:, [k for k, gk in enumerate(cond) if gk is None]]
    n_v = len(keep)
    G = np.zeros((n_v + A_x.shape[1],) * 2)
    with np.errstate(invalid="ignore"):   # 0 * inf; _solve rejects the NaN
        G[:n_v, :n_v] = (A * g) @ A.T
    G[:n_v, n_v:] = A_x
    G[n_v:, :n_v] = A_x.T
    row = {net.nodes[k]: r for r, k in enumerate(keep)}
    row[net.reference] = -1
    return row, G, A, g


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


def compile_step(net: Network, cfg: SimConfig) -> CompiledStep:
    """Compile the step of ``net`` on the grid and method of ``cfg``.

    The step is linear in (z, s), so its response to unit vectors gives
    the maps of :class:`CompiledStep`.
    """
    _checked_network(net)
    trap = cfg.method == "trapezoidal"

    def companion(el: Element) -> float | None:
        if isinstance(el, Resistor):
            return 1.0 / el.ohms
        if isinstance(el, Capacitor):
            return (2.0 * el.farads / cfg.dt) if trap else (el.farads / cfg.dt)
        if isinstance(el, Inductor):
            return (cfg.dt / (2.0 * el.henries)) if trap else (cfg.dt / el.henries)
        return None if isinstance(el, VoltageSource) else 0.0

    row, G, A, g = _assemble(net, companion)
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
    r_unit = assemble(unit[:n_z], unit[n_z:])
    z_unit = advance(unit[:n_z], _solve(G, r_unit, _SINGULAR))
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
    initial = initial or InitialCondition()
    unknown_nodes = set(initial.node_voltages) - set(net.nodes)
    if unknown_nodes:
        raise SimulationError(f"initial voltages name unknown nodes {sorted(unknown_nodes)}")
    unknown_brs = set(initial.branch_currents) - set(net.branch_ids)
    if unknown_brs:
        raise SimulationError(f"initial currents name unknown branches {sorted(unknown_brs)}")

    steps = cfg.steps
    times = cfg.dt * np.arange(steps + 1)
    res_idx, cap_idx, ind_idx, isrc_idx, vsrc_idx = step.index.values()
    sources = [_source_samples(net.branches[k], times)
               for k in (*isrc_idx, *vsrc_idx)]
    A, g_br = step.A, step.g[:, None]
    n_v, n_z = len(A), len(step.M)
    n_c, n_i = len(cap_idx), len(isrc_idx)
    # State layout: cap_u, cap_i, ind_u, ind_i.
    cap_i_rows = slice(n_c, 2 * n_c)
    ind_i_rows = slice(n_z - len(ind_idx), n_z)

    # The chunked scan, in row form (a state is a row z, a step z M^T + w).
    # Over a chunk of K steps, a row of drives times ``toeplitz`` (block
    # (i, j) is M^(j-i) transposed, zero for i > j) is the response from
    # a zero start, and a start state times ``lift`` (block j is M^(j+1)
    # transposed) is the response to the start.
    K = _CHUNK
    powers = [np.eye(n_z)]
    for _ in range(K):
        powers.append(step.M @ powers[-1])
    toeplitz = np.zeros((K * n_z, K * n_z))
    for i in range(K):
        for j in range(i, K):
            toeplitz[i * n_z:(i + 1) * n_z, j * n_z:(j + 1) * n_z] = powers[j - i].T
    lift = np.hstack([p.T for p in powers[1:]])
    jump = np.ascontiguousarray(powers[K].T)

    # Initial state: the unknowns x and the state z at t = 0.
    v0 = np.zeros(n_v)
    for label, volt in initial.node_voltages.items():
        r = step.row[label]
        if r >= 0:
            v0[r] = float(volt)
        elif volt:
            raise SimulationError("reference node voltage must be 0")
    i0 = np.array([float(initial.branch_currents.get(br.id, 0.0))
                   for br in net.branches])
    x0 = np.concatenate([v0, i0[vsrc_idx]])
    u0 = A.T @ v0
    z = np.concatenate([u0[cap_idx], i0[cap_idx], u0[ind_idx], i0[ind_idx]])

    I_rec = np.zeros((len(net.branches), steps + 1))
    V_rec = np.zeros((n_v, steps + 1))

    # Record the t = 0 column from the supplied state, then the steps in
    # blocks.  The current-law audit does not judge t = 0, which is
    # supplied state and not a solution, but counts it towards the
    # scales.  Reactive branch currents come from cancelling companion
    # terms of magnitude g*|u|, so roundoff in the residual floats on
    # those intermediates, not on the (possibly tiny) net currents.
    D = boundary(net).matrix.astype(np.float64)
    max_resid = scale = g_u = 0.0
    for lo in (0, *range(1, steps + 1, _BLOCK)):
        hi = min(lo + _BLOCK, steps + 1) if lo else 1
        s = np.vstack([src[lo:hi] for src in sources])
        if lo:
            # The recurrence, one row of zs per step (zs[0] = z_{lo-1}),
            # a chunk at a time; the drive is padded with zeros to whole
            # chunks, which changes no step before the padding.
            n = hi - lo
            chunks = -(-n // K)
            drive = np.zeros((chunks * K, n_z))
            drive[:n] = (step.N @ s).T
            free = drive.reshape(chunks, K * n_z) @ toeplitz
            # Each chunk's start state is the previous start carried
            # across a whole chunk plus that chunk's zero-start end.
            starts = np.empty((chunks, n_z))
            starts[0] = z
            starts[1:] = free[:-1, (K - 1) * n_z:]
            rows = list(starts)
            buf = np.empty(n_z)
            for prev, cur in zip(rows, rows[1:]):
                np.dot(prev, jump, out=buf)
                cur += buf
            zs = np.empty((n + 1, n_z))
            zs[0] = z
            zs[1:] = (free + starts @ lift).reshape(chunks * K, n_z)[:n]
            z = zs[-1].copy()
            # The unknowns are solved from the assembled right-hand side,
            # not through a composed map from (z, s): terms that cancel at
            # a node (a bias current against its choke's current) then
            # cancel before the solve scales them by 1/g of a small
            # companion conductance, not after.
            x = _solve(step.G, step.Rz @ zs[:-1].T + step.Rs @ s, _SINGULAR)
            z_new = zs[1:].T
        else:
            x, z_new = x0[:, None], z[:, None]
        u = A.T @ x[:n_v]
        V_rec[:, lo:hi] = x[:n_v]
        I = I_rec[:, lo:hi]
        I[res_idx] = u[res_idx] * g_br[res_idx]
        I[cap_idx] = z_new[cap_i_rows]
        I[ind_idx] = z_new[ind_i_rows]
        I[isrc_idx] = s[:n_i]
        I[vsrc_idx] = x[n_v:]

        if lo:
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
    _checked_network(net)

    def static(el: Element) -> float | None:
        if isinstance(el, Resistor):
            return 1.0 / el.ohms
        if isinstance(el, Capacitor):
            return GMIN
        return None if isinstance(el, (Inductor, VoltageSource)) else 0.0

    row, G, A, _ = _assemble(net, static)
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
    cur = [k for k, br in enumerate(net.branches) if static(br.element) is None]
    # Current sources drive their nodes; a voltage source's row holds its
    # value and an inductor's (a zero-volt source at DC) holds 0.
    rhs = np.concatenate([A[:, isrc] @ -np.array([at_zero[k] for k in isrc]),
                          [at_zero.get(k, 0.0) for k in cur]])

    x = _solve(G, rhs, "operating point is singular")
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


def _sweep_point(spec: StimulusSpec, circ: LaserCircuit, cfg: SimConfig,
                 value: float, **net_kwargs) -> tuple[SweepPoint, Waveform]:
    result = run_driver(spec, circ, cfg, **net_kwargs)
    sense = sense_current(result)
    rest = sense.with_samples(sense.samples - spec.bias)
    m = fwhm(rest if spec.amplitude > 0
             else rest.with_samples(-rest.samples))
    peak = float(sense.samples[np.argmax(np.abs(sense.samples - spec.bias))])
    point = SweepPoint(value=value, peak=peak, t_peak=m.t_peak, fwhm=m.fwhm,
                       t_mid=0.5 * (m.half_crossings[0] + m.half_crossings[1]))
    # A copy of the sense row, so that the run's whole record is freed.
    return point, sense.with_samples(sense.samples.copy())


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
    return [_sweep_point(replace(spec, **{param: v}), circ, cfg, v, **net_kwargs)
            for v in values]


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
    a = 1.0 - c
    x = wave.samples.tolist()
    y = []
    z = a * x[0]
    for xk in x:
        yk = c * xk + z
        y.append(yk)
        z = a * yk
    return wave.with_samples(y)
