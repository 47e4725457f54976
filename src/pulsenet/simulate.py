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

so each step of the recurrence costs one small matrix-vector product.
``transient`` compiles, builds the state at t = 0 and writes the
record: the t = 0 column first, then the steps in fixed-size blocks.
Each block computes the source drive N s, the unknowns x (one LU solve
of G for the whole block, by ``numpy.linalg.solve``), the branch
currents, and the current-law audit, which pushes each block's branch
currents through the full incidence matrix.  If any node's residual
over the run exceeds ``solver_tol`` times the current scale, the run is
rejected rather than silently returned.  The record is frozen at the
end, so its waveforms share it instead of copying it.  The module needs
numpy only.

``compile_step`` and ``dc_operating_point`` stamp G with one assembler,
``_assemble``; they differ only in the conductance each element gets
(at DC, inductors join the voltage sources as current unknowns).

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
              ) -> tuple[dict[str, int], np.ndarray, np.ndarray, np.ndarray,
                         np.ndarray]:
    """Modified-nodal matrix of ``net``, stamped in branch order.

    ``conductance(element)`` is what a branch stamps between its ends:
    a conductance, 0.0 for nothing (a current source), or None when the
    branch current is itself an unknown.  Those currents take the
    columns after the node voltages, in branch order.  Returns the row
    map (the reference is -1), G with one extra row and column that
    catch the reference-node stamps, each branch's start and end rows in
    that padded G, and each branch's conductance (0.0 for None).
    """
    g = [conductance(br.element) for br in net.branches]
    pad = len(net.nodes) - 1 + g.count(None)
    row = {label: k for k, label in
           enumerate(n for n in net.nodes if n != net.reference)}
    row[net.reference] = -1
    a_rows = np.array([row[br.start] for br in net.branches], dtype=np.intp)
    b_rows = np.array([row[br.end] for br in net.branches], dtype=np.intp)
    a_rows[a_rows < 0] = pad
    b_rows[b_rows < 0] = pad
    Gp = np.zeros((pad + 1, pad + 1))
    j = len(net.nodes) - 1
    for ia, ib, gk in zip(a_rows.tolist(), b_rows.tolist(), g):
        if gk is None:
            Gp[ia, j] += 1.0
            Gp[ib, j] -= 1.0
            Gp[j, ia] += 1.0
            Gp[j, ib] -= 1.0
            j += 1
        elif gk:
            Gp[ia, ia] += gk
            Gp[ib, ib] += gk
            Gp[ia, ib] -= gk
            Gp[ib, ia] -= gk
    return row, Gp, a_rows, b_rows, np.array([gk or 0.0 for gk in g])


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

    where x holds the node voltages (at ``row[node]``) and then the
    voltage-source currents.  ``a_rows`` and ``b_rows`` are each
    branch's start and end rows in x padded with one zero for the
    reference, ``g`` each branch's conductance in G (0.0 for a source)
    and ``index[kind]`` the branches of each element kind, in the order
    resistor, capacitor, inductor, current source, voltage source.
    The arrays are read-only.
    """

    row: Mapping[str, int]
    G: np.ndarray
    Rz: np.ndarray
    Rs: np.ndarray
    M: np.ndarray
    N: np.ndarray
    g: np.ndarray
    a_rows: np.ndarray
    b_rows: np.ndarray
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

    row, Gp, a_rows, b_rows, g = _assemble(net, companion)
    n_v = len(net.nodes) - 1
    n_x = len(Gp) - 1
    index = {kind: np.array([k for k, br in enumerate(net.branches)
                             if isinstance(br.element, kind)], dtype=np.intp)
             for kind in _KINDS}
    _, cap_idx, ind_idx, isrc_idx, vsrc_idx = index.values()
    cap_g, ind_g = g[cap_idx, None], g[ind_idx, None]
    n_c, n_l, n_i = len(cap_idx), len(ind_idx), len(isrc_idx)
    n_z = 2 * (n_c + n_l)
    G = Gp[:n_x, :n_x]

    def assemble(z: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Right-hand side for columns of state z and sources s."""
        cap_u, cap_i, ind_u, ind_i = np.split(z, [n_c, 2 * n_c, 2 * n_c + n_l])
        rhs = np.zeros((n_x + 1, z.shape[1]))
        # independent sources
        np.subtract.at(rhs, a_rows[isrc_idx], s[:n_i])
        np.add.at(rhs, b_rows[isrc_idx], s[:n_i])
        rhs[n_v:n_x] = s[n_i:]
        # companion histories
        cap_hist = cap_g * cap_u + (cap_i if trap else 0.0)
        np.add.at(rhs, a_rows[cap_idx], cap_hist)
        np.subtract.at(rhs, b_rows[cap_idx], cap_hist)
        ind_hist = ind_i + (ind_g * ind_u if trap else 0.0)
        np.subtract.at(rhs, a_rows[ind_idx], ind_hist)
        np.add.at(rhs, b_rows[ind_idx], ind_hist)
        return rhs[:n_x]

    def advance(z: np.ndarray, x: np.ndarray) -> np.ndarray:
        """State after a step that solved x from state z (columns)."""
        cap_u, cap_i, ind_u, ind_i = np.split(z, [n_c, 2 * n_c, 2 * n_c + n_l])
        x_pad = np.vstack([x, np.zeros((1, x.shape[1]))])
        branch_u = x_pad[a_rows] - x_pad[b_rows]
        new_cap_u = branch_u[cap_idx]
        new_cap_i = cap_g * (new_cap_u - cap_u) - (cap_i if trap else 0.0)
        new_ind_u = branch_u[ind_idx]
        new_ind_i = ind_i + ind_g * ((new_ind_u + ind_u) if trap else new_ind_u)
        return np.vstack([new_cap_u, new_cap_i, new_ind_u, new_ind_i])

    unit = np.eye(n_z + n_i + len(vsrc_idx))
    r_unit = assemble(unit[:n_z], unit[n_z:])
    z_unit = advance(unit[:n_z], _solve(G, r_unit, _SINGULAR))
    for array in (G, r_unit, z_unit, g, a_rows, b_rows, *index.values()):
        array.setflags(write=False)   # and so every slice taken below
    return CompiledStep(row, G, r_unit[:, :n_z], r_unit[:, n_z:], z_unit[:, :n_z],
                        z_unit[:, n_z:], g, a_rows, b_rows, index)


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
    a_rows, b_rows, g_br = step.a_rows, step.b_rows, step.g[:, None]
    n_v, n_x, n_z = len(net.nodes) - 1, len(step.G), len(step.M)
    n_c, n_i = len(cap_idx), len(isrc_idx)
    # State layout: cap_u, cap_i, ind_u, ind_i.
    cap_i_rows = slice(n_c, 2 * n_c)
    ind_i_rows = slice(n_z - len(ind_idx), n_z)
    Mt = np.ascontiguousarray(step.M.T)

    # Initial state: the padded unknowns x and the state z at t = 0.
    x0 = np.zeros(n_x + 1)
    for label, volt in initial.node_voltages.items():
        r = step.row[label]
        if r >= 0:
            x0[r] = float(volt)
        elif volt:
            raise SimulationError("reference node voltage must be 0")
    i0 = np.array([float(initial.branch_currents.get(br.id, 0.0))
                   for br in net.branches])
    x0[n_v:n_x] = i0[vsrc_idx]
    u0 = x0[a_rows] - x0[b_rows]
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
            # The recurrence itself, one row of zs per step (zs[0] = z_{lo-1}).
            zs = np.empty((hi - lo + 1, n_z))
            zs[0] = z
            zs[1:] = (step.N @ s).T
            rows = list(zs)
            buf = np.empty(n_z)
            for prev, cur in zip(rows, rows[1:]):
                np.dot(prev, Mt, out=buf)
                cur += buf
            z = zs[-1].copy()
            # The unknowns are solved from the assembled right-hand side,
            # not through a composed map from (z, s): terms that cancel at
            # a node (a bias current against its choke's current) then
            # cancel before the solve scales them by 1/g of a small
            # companion conductance, not after.
            x_pad = np.zeros((n_x + 1, hi - lo))
            x_pad[:n_x] = _solve(step.G, step.Rz @ zs[:-1].T + step.Rs @ s,
                                 _SINGULAR)
            z_new = zs[1:].T
        else:
            x_pad, z_new = x0[:, None], z[:, None]
        u = x_pad[a_rows] - x_pad[b_rows]
        V_rec[:, lo:hi] = x_pad[:n_v]
        I = I_rec[:, lo:hi]
        I[res_idx] = u[res_idx] * g_br[res_idx]
        I[cap_idx] = z_new[cap_i_rows]
        I[ind_idx] = z_new[ind_i_rows]
        I[isrc_idx] = s[:n_i]
        I[vsrc_idx] = x_pad[n_v:n_x]

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

    row, Gp, a_rows, b_rows, _ = _assemble(net, static)
    n_v = len(net.nodes) - 1
    n_x = len(Gp) - 1
    cur_ids = [br.id for br in net.branches if static(br.element) is None]
    rhs = np.zeros(n_x + 1)
    for br, ia, ib in zip(net.branches, a_rows, b_rows):
        el = br.element
        if isinstance(el, (CurrentSource, VoltageSource)):
            value = el.amps if isinstance(el, CurrentSource) else el.volts
            if isinstance(value, Waveform) and not (
                    value.t0 <= 0.5 * value.dt and value.t_end >= -0.5 * value.dt):
                raise SimulationError(
                    f"branch {br.id!r}: waveform source spans [{value.t0:g}, "
                    f"{value.t_end:g}] s, which misses the operating point at t = 0")
        if isinstance(el, VoltageSource):
            rhs[n_v + cur_ids.index(br.id)] = el.value_at(0.0)
        elif isinstance(el, CurrentSource):
            val = el.value_at(0.0)
            rhs[ia] -= val
            rhs[ib] += val

    x = _solve(Gp[:n_x, :n_x], rhs[:n_x], "operating point is singular")
    if not np.all(np.isfinite(x)):
        raise SimulationError("operating point is singular")

    volts = {label: (float(x[r]) if r >= 0 else 0.0) for label, r in row.items()}
    currents = dict(zip(cur_ids, x[n_v:n_x].tolist()))
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
