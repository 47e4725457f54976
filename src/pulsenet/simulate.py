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
source values s_n.  ``transient`` compiles it once, by applying the
one-step assembly and update to unit vectors, into

    z_n = M z_{n-1} + N s_n        G x_n = Rz z_{n-1} + Rs s_n

so each step of the recurrence costs one small matrix-vector product.
Everything full-length is computed in fixed-size blocks of steps and
written straight into the record: the source drive N s, the unknowns x
(one LU solve of G for the whole block, by ``numpy.linalg.solve``),
the branch currents, and the current-law audit, which pushes each
block's branch currents through the full incidence matrix.  If any
node's residual over the run exceeds ``solver_tol`` times the current
scale, the run is rejected rather than silently returned.  The record
is frozen at the end, so its waveforms share it instead of copying it.
The module needs numpy only.

Trapezoidal integration is the default: it is second order and, for
lossless LC loops, preserves the stored energy exactly (in exact
arithmetic), which backward Euler visibly damps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .driver import SENSE_BRANCH, StimulusSpec, driver_network
from .elements import (Capacitor, CurrentSource, Inductor, Resistor,
                       VoltageSource)
from .errors import SimulationError
from .laser import LaserCircuit
from .topology import Network, boundary, connected_components
from .waveform import Waveform

METHODS = ("trapezoidal", "backward-euler")

#: Conductance tied from floating capacitor nodes to ground in the
#: operating-point solve.
GMIN = 1e-12

#: Steps per block: sources, unknowns, branch currents and the
#: current-law audit are computed this many time points at a time.
_BLOCK = 4096


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
        if self.method not in METHODS:
            raise SimulationError(
                f"unknown method {self.method!r}; pick one of {METHODS}")
        if not 0 < self.solver_tol < 1:
            raise SimulationError(f"solver_tol must be in (0, 1), got {self.solver_tol}")

    @property
    def steps(self) -> int:
        return max(1, int(round(self.t_end / self.dt)))


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
        if br.start == br.end:
            raise SimulationError(f"branch {br.id!r} is a self-loop")
    # Every node must reach the reference, otherwise the nodal matrix
    # is singular; name the offenders instead of failing in the LU.
    grounded = next(c for c in connected_components(net) if net.reference in c)
    floating = [n for n in net.nodes if n not in grounded]
    if floating:
        raise SimulationError(
            f"nodes {floating} have no path to reference {net.reference!r}")


def _source_samples(value, times: np.ndarray) -> np.ndarray:
    """Read-only source value on the simulation grid (aligned waveforms
    verbatim, without a copy)."""
    if isinstance(value, Waveform):
        n = times.size
        dt = float(times[1] - times[0])
        aligned = (len(value) >= n
                   and abs(value.t0 - times[0]) <= 1e-9 * dt
                   and abs(value.dt - dt) <= 1e-12 * dt)
        if aligned:
            return value.samples[:n]
        return value.value_at(times)
    return np.broadcast_to(float(value), times.shape)


def transient(net: Network, cfg: SimConfig,
              initial: InitialCondition | None = None) -> SimResult:
    """Run the fixed-step transient analysis.

    ``initial`` defaults to the all-zero state.  Use
    :func:`dc_operating_point` first to start from steady state.
    """
    _checked_network(net)
    initial = initial or InitialCondition()
    unknown_nodes = set(initial.node_voltages) - set(net.nodes)
    if unknown_nodes:
        raise SimulationError(f"initial voltages name unknown nodes {sorted(unknown_nodes)}")
    unknown_brs = set(initial.branch_currents) - set(net.branch_ids)
    if unknown_brs:
        raise SimulationError(f"initial currents name unknown branches {sorted(unknown_brs)}")

    steps = cfg.steps
    dt = cfg.dt
    trap = cfg.method == "trapezoidal"
    times = dt * np.arange(steps + 1)

    row = {label: k for k, label in
           enumerate(n for n in net.nodes if n != net.reference)}
    row[net.reference] = -1
    n_v = len(net.nodes) - 1

    vsrc_ids = [br.id for br in net.branches if isinstance(br.element, VoltageSource)]
    vsrc_col = {bid: n_v + j for j, bid in enumerate(vsrc_ids)}
    n_x = n_v + len(vsrc_ids)

    pad = n_x  # scratch row/col catching reference-node stamps
    # Stamp into an (n_x+1)^2 scratch so reference rows land in the pad.
    Gp = np.zeros((n_x + 1, n_x + 1))

    def conduct(a: int, b: int, g: float) -> None:
        ia = a if a >= 0 else pad
        ib = b if b >= 0 else pad
        Gp[ia, ia] += g
        Gp[ib, ib] += g
        Gp[ia, ib] -= g
        Gp[ib, ia] -= g

    # Per-kind bookkeeping, all index arrays.
    res_idx: list[int] = []
    res_g: list[float] = []
    cap_idx: list[int] = []
    cap_g: list[float] = []
    ind_idx: list[int] = []
    ind_g: list[float] = []
    isrc_idx: list[int] = []
    isrc_vals: list[np.ndarray] = []
    vsrc_idx: list[int] = []
    vsrc_vals: list[np.ndarray] = []

    a_rows = np.empty(len(net.branches), dtype=np.intp)
    b_rows = np.empty(len(net.branches), dtype=np.intp)

    for k, br in enumerate(net.branches):
        a = row[br.start]
        b = row[br.end]
        a_rows[k] = a if a >= 0 else pad
        b_rows[k] = b if b >= 0 else pad
        el = br.element
        if isinstance(el, Resistor):
            g = 1.0 / el.ohms
            conduct(a, b, g)
            res_idx.append(k)
            res_g.append(g)
        elif isinstance(el, Capacitor):
            g = (2.0 * el.farads / dt) if trap else (el.farads / dt)
            conduct(a, b, g)
            cap_idx.append(k)
            cap_g.append(g)
        elif isinstance(el, Inductor):
            g = (dt / (2.0 * el.henries)) if trap else (dt / el.henries)
            conduct(a, b, g)
            ind_idx.append(k)
            ind_g.append(g)
        elif isinstance(el, CurrentSource):
            isrc_idx.append(k)
            isrc_vals.append(_source_samples(el.amps, times))
        elif isinstance(el, VoltageSource):
            j = vsrc_col[br.id]
            ia = a if a >= 0 else pad
            ib = b if b >= 0 else pad
            Gp[ia, j] += 1.0
            Gp[ib, j] -= 1.0
            Gp[j, ia] += 1.0
            Gp[j, ib] -= 1.0
            vsrc_idx.append(k)
            vsrc_vals.append(_source_samples(el.volts, times))
        else:
            raise SimulationError(
                f"branch {br.id!r}: unsupported element {type(el).__name__}")

    G = Gp[:n_x, :n_x]
    singular = ("singular system matrix; check for voltage-source loops "
                "or current-source cutsets")

    res_idx_a = np.asarray(res_idx, dtype=np.intp)
    res_g_a = np.asarray(res_g)[:, None]
    cap_idx_a = np.asarray(cap_idx, dtype=np.intp)
    cap_g_a = np.asarray(cap_g)[:, None]
    ind_idx_a = np.asarray(ind_idx, dtype=np.intp)
    ind_g_a = np.asarray(ind_g)[:, None]
    isrc_idx_a = np.asarray(isrc_idx, dtype=np.intp)
    vsrc_idx_a = np.asarray(vsrc_idx, dtype=np.intp)
    sources = isrc_vals + vsrc_vals
    n_c, n_l, n_i = len(cap_idx), len(ind_idx), len(isrc_idx)
    n_z = 2 * (n_c + n_l)
    # State layout: cap_u, cap_i, ind_u, ind_i.
    cap_i_rows = slice(n_c, 2 * n_c)
    ind_i_rows = slice(2 * n_c + n_l, n_z)

    def assemble(z: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Right-hand side for columns of state z and sources s."""
        cap_u, cap_i, ind_u, ind_i = np.split(z, [n_c, 2 * n_c, 2 * n_c + n_l])
        rhs = np.zeros((n_x + 1, z.shape[1]))
        # independent sources
        np.subtract.at(rhs, a_rows[isrc_idx_a], s[:n_i])
        np.add.at(rhs, b_rows[isrc_idx_a], s[:n_i])
        rhs[n_v:n_x] = s[n_i:]
        # companion histories
        cap_hist = cap_g_a * cap_u + (cap_i if trap else 0.0)
        np.add.at(rhs, a_rows[cap_idx_a], cap_hist)
        np.subtract.at(rhs, b_rows[cap_idx_a], cap_hist)
        ind_hist = ind_i + (ind_g_a * ind_u if trap else 0.0)
        np.subtract.at(rhs, a_rows[ind_idx_a], ind_hist)
        np.add.at(rhs, b_rows[ind_idx_a], ind_hist)
        return rhs[:n_x]

    def advance(z: np.ndarray, x: np.ndarray) -> np.ndarray:
        """State after a step that solved x from state z (columns)."""
        cap_u, cap_i, ind_u, ind_i = np.split(z, [n_c, 2 * n_c, 2 * n_c + n_l])
        x_pad = np.vstack([x, np.zeros((1, x.shape[1]))])
        branch_u = x_pad[a_rows] - x_pad[b_rows]
        new_cap_u = branch_u[cap_idx_a]
        new_cap_i = cap_g_a * (new_cap_u - cap_u) - (cap_i if trap else 0.0)
        new_ind_u = branch_u[ind_idx_a]
        new_ind_i = ind_i + ind_g_a * ((new_ind_u + ind_u) if trap else new_ind_u)
        return np.vstack([new_cap_u, new_cap_i, new_ind_u, new_ind_i])

    # The step is linear in (z, s).  Its response to unit vectors gives
    # rhs_n = Rz z_{n-1} + Rs s_n and the recurrence z_n = M z_{n-1} + N s_n.
    # The unknowns are solved from the assembled right-hand side, block
    # by block, rather than through a composed map from (z, s): terms
    # that cancel at a node (a bias current against its choke's current)
    # then cancel before the solve scales them by 1/g of a small
    # companion conductance, not after.
    unit = np.eye(n_z + len(sources))
    r_unit = assemble(unit[:n_z], unit[n_z:])
    z_unit = advance(unit[:n_z], _solve(G, r_unit, singular))
    Rz, Rs = r_unit[:, :n_z], r_unit[:, n_z:]
    Mt = np.ascontiguousarray(z_unit[:, :n_z].T)
    N = z_unit[:, n_z:]

    # Initial state.
    v0_pad = np.zeros(n_x + 1)
    for label, volt in initial.node_voltages.items():
        r = row[label]
        if r >= 0:
            v0_pad[r] = float(volt)
        elif volt:
            raise SimulationError("reference node voltage must be 0")
    init_i = {bid: float(val) for bid, val in initial.branch_currents.items()}

    branch_u = v0_pad[a_rows] - v0_pad[b_rows]
    z = np.concatenate([
        branch_u[cap_idx_a],
        [init_i.get(net.branches[k].id, 0.0) for k in cap_idx],
        branch_u[ind_idx_a],
        [init_i.get(net.branches[k].id, 0.0) for k in ind_idx]])

    n_br = len(net.branches)
    I_rec = np.zeros((n_br, steps + 1))
    V_rec = np.zeros((n_v, steps + 1))
    V_rec[:, 0] = v0_pad[:n_v]

    # t = 0 column from the supplied state.
    I_rec[res_idx_a, 0] = branch_u[res_idx_a] * res_g_a[:, 0]
    I_rec[cap_idx_a, 0] = z[cap_i_rows]
    I_rec[ind_idx_a, 0] = z[ind_i_rows]
    I_rec[isrc_idx_a, 0] = [src[0] for src in isrc_vals]
    I_rec[vsrc_idx_a, 0] = [init_i.get(net.branches[k].id, 0.0) for k in vsrc_idx]

    # Current-law audit, accumulated block by block.  t = 0 is supplied
    # state, not a solution, so its residual is not judged; it counts
    # towards the scales.  Reactive branch currents come from cancelling
    # companion terms of magnitude g*|u|, so roundoff in the residual
    # floats on those intermediates, not on the (possibly tiny) net
    # currents.
    D = boundary(net).matrix.astype(np.float64)
    g_br = np.zeros((n_br, 1))
    g_br[res_idx_a] = res_g_a
    g_br[cap_idx_a] = cap_g_a
    g_br[ind_idx_a] = ind_g_a
    max_resid = 0.0
    scale = float(np.max(np.abs(I_rec[:, 0])))
    g_u = float(np.max(g_br[:, 0] * np.abs(branch_u)))

    for lo in range(1, steps + 1, _BLOCK):
        hi = min(lo + _BLOCK, steps + 1)
        s = np.vstack([src[lo:hi] for src in sources])
        # The recurrence itself, one row of zs per step (zs[0] = z_{lo-1}).
        zs = np.empty((hi - lo + 1, n_z))
        zs[0] = z
        zs[1:] = (N @ s).T
        if n_z:
            rows = list(zs)
            buf = np.empty(n_z)
            prev = rows[0]
            for cur in rows[1:]:
                np.dot(prev, Mt, out=buf)
                cur += buf
                prev = cur
        z = zs[-1].copy()

        x_pad = np.zeros((n_x + 1, hi - lo))
        x_pad[:n_x] = _solve(G, Rz @ zs[:-1].T + Rs @ s, singular)
        u = x_pad[a_rows] - x_pad[b_rows]
        z_new = zs[1:].T
        V_rec[:, lo:hi] = x_pad[:n_v]
        I = I_rec[:, lo:hi]
        I[res_idx_a] = u[res_idx_a] * res_g_a
        I[cap_idx_a] = z_new[cap_i_rows]
        I[ind_idx_a] = z_new[ind_i_rows]
        I[isrc_idx_a] = s[:n_i]
        I[vsrc_idx_a] = x_pad[n_v:n_x]

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
    for label, r in row.items():
        samples = V_rec[r] if r >= 0 else np.zeros(steps + 1)
        node_waves[label] = Waveform(0.0, dt, samples, "V")
    branch_waves = {br.id: Waveform(0.0, dt, I_rec[k], "A")
                    for k, br in enumerate(net.branches)}
    return SimResult(net, cfg, node_waves, branch_waves, max_resid, scale)


def dc_operating_point(net: Network, t: float = 0.0) -> InitialCondition:
    """Steady state with sources held at their t = 0 values.

    Inductors become zero-volt sources (their DC current is an
    unknown); capacitors open up to a ``GMIN`` leak so isolated nodes
    stay solvable.  The result feeds :func:`transient` as its initial
    condition, including the source currents for the t = 0 record.
    """
    _checked_network(net)
    row = {label: k for k, label in
           enumerate(n for n in net.nodes if n != net.reference)}
    row[net.reference] = -1
    n_v = len(net.nodes) - 1
    cur_ids = [br.id for br in net.branches
               if isinstance(br.element, (VoltageSource, Inductor))]
    col = {bid: n_v + j for j, bid in enumerate(cur_ids)}
    n_x = n_v + len(cur_ids)
    pad = n_x

    Gp = np.zeros((n_x + 1, n_x + 1))
    rhs = np.zeros(n_x + 1)

    def conduct(a: int, b: int, g: float) -> None:
        ia = a if a >= 0 else pad
        ib = b if b >= 0 else pad
        Gp[ia, ia] += g
        Gp[ib, ib] += g
        Gp[ia, ib] -= g
        Gp[ib, ia] -= g

    for br in net.branches:
        a = row[br.start]
        b = row[br.end]
        ia = a if a >= 0 else pad
        ib = b if b >= 0 else pad
        el = br.element
        if isinstance(el, Resistor):
            conduct(a, b, 1.0 / el.ohms)
        elif isinstance(el, Capacitor):
            conduct(a, b, GMIN)
        elif isinstance(el, (Inductor, VoltageSource)):
            j = col[br.id]
            Gp[ia, j] += 1.0
            Gp[ib, j] -= 1.0
            Gp[j, ia] += 1.0
            Gp[j, ib] -= 1.0
            if isinstance(el, VoltageSource):
                rhs[j] = el.value_at(t)
        elif isinstance(el, CurrentSource):
            val = el.value_at(t)
            rhs[ia] -= val
            rhs[ib] += val
        else:
            raise SimulationError(
                f"branch {br.id!r}: unsupported element {type(el).__name__}")

    x = _solve(Gp[:n_x, :n_x], rhs[:n_x], "operating point is singular")
    if not np.all(np.isfinite(x)):
        raise SimulationError("operating point is singular")

    volts = {label: (float(x[r]) if r >= 0 else 0.0) for label, r in row.items()}
    currents = {bid: float(x[col[bid]]) for bid in cur_ids}
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
    from .metrics import fwhm  # local import avoids a cycle

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


def sweep(spec: StimulusSpec, circ: LaserCircuit, param: str,
          values: Sequence[float], cfg: SimConfig,
          **net_kwargs) -> list[SweepPoint]:
    """Like :func:`sweep_runs` but summaries only."""
    return [point for point, _ in
            sweep_runs(spec, circ, param, values, cfg, **net_kwargs)]


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
