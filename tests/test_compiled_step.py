"""The compiled state-space step against a per-step MNA reference.

``reference_transient`` below is the straightforward stepper: each step
assembles the right-hand side from the sources and the companion
histories and solves the LU-factorized system.  ``transient`` must
reproduce every node voltage and branch current it records.
"""

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from pulsenet import (Branch, Capacitor, CurrentSource, InitialCondition,
                      Inductor, LaserCircuit, Network, OutputFilter, Resistor,
                      SimConfig, SimulationError, StimulusSpec,
                      VoltageSource, Waveform, boundary, compile_step,
                      dc_operating_point, driver_network, transient)

TABLE = dict(R=2.555, L=6.184e-12, C=0.3557e-9, R_spon=2.811e-3, R_o=-5.511e-3)
BIAS = 31e-3
METHODS = ("trapezoidal", "backward-euler")


def source_samples(value, times):
    if isinstance(value, Waveform):
        return value.value_at(times)
    return np.full(times.size, float(value))


def reference_transient(net, cfg, initial):
    """Node voltages and branch currents by one MNA solve per step."""
    dt = cfg.dt
    steps = cfg.steps
    trap = cfg.method == "trapezoidal"
    times = dt * np.arange(steps + 1)
    row = {label: k for k, label in
           enumerate(n for n in net.nodes if n != net.reference)}
    row[net.reference] = -1
    n_v = len(net.nodes) - 1
    vsrc = [k for k, br in enumerate(net.branches)
            if isinstance(br.element, VoltageSource)]
    n_x = n_v + len(vsrc)
    pad = n_x
    a_rows = np.array([row[br.start] if row[br.start] >= 0 else pad
                       for br in net.branches])
    b_rows = np.array([row[br.end] if row[br.end] >= 0 else pad
                       for br in net.branches])

    G = np.zeros((n_x + 1, n_x + 1))
    kind, g, src = {}, {}, {}
    for k, br in enumerate(net.branches):
        a, b, el = a_rows[k], b_rows[k], br.element
        if isinstance(el, (Resistor, Capacitor, Inductor)):
            if isinstance(el, Resistor):
                g[k] = 1.0 / el.ohms
            elif isinstance(el, Capacitor):
                g[k] = (2.0 if trap else 1.0) * el.farads / dt
            else:
                g[k] = dt / ((2.0 if trap else 1.0) * el.henries)
            kind[k] = type(el)
            G[[a, b], [a, b]] += g[k]
            G[[a, b], [b, a]] -= g[k]
        elif isinstance(el, CurrentSource):
            kind[k] = CurrentSource
            src[k] = source_samples(el.amps, times)
        else:
            j = n_v + vsrc.index(k)
            kind[k] = VoltageSource
            src[k] = source_samples(el.volts, times)
            G[[a, b, j, j], [j, j, a, b]] += [1.0, -1.0, 1.0, -1.0]
    lu = lu_factor(G[:n_x, :n_x])

    v = np.zeros(n_x + 1)
    for label, volt in initial.node_voltages.items():
        if row[label] >= 0:
            v[row[label]] = volt
    u = v[a_rows] - v[b_rows]
    i = np.array([initial.branch_currents.get(br.id, 0.0) for br in net.branches])
    for k, kd in kind.items():
        if kd is Resistor:
            i[k] = g[k] * u[k]
        elif kd is CurrentSource:
            i[k] = src[k][0]

    V = np.zeros((n_v, steps + 1))
    I = np.zeros((len(net.branches), steps + 1))
    V[:, 0] = v[:n_v]
    I[:, 0] = i
    for n in range(1, steps + 1):
        rhs = np.zeros(n_x + 1)
        for k, kd in kind.items():
            a, b = a_rows[k], b_rows[k]
            if kd is CurrentSource:
                rhs[a] -= src[k][n]
                rhs[b] += src[k][n]
            elif kd is VoltageSource:
                rhs[n_v + vsrc.index(k)] = src[k][n]
            elif kd is Capacitor:
                hist = g[k] * u[k] + (i[k] if trap else 0.0)
                rhs[a] += hist
                rhs[b] -= hist
            elif kd is Inductor:
                hist = i[k] + (g[k] * u[k] if trap else 0.0)
                rhs[a] -= hist
                rhs[b] += hist
        v[:n_x] = lu_solve(lu, rhs[:n_x])
        u_new = v[a_rows] - v[b_rows]
        for k, kd in kind.items():
            if kd is Resistor:
                i[k] = g[k] * u_new[k]
            elif kd is Capacitor:
                i[k] = g[k] * (u_new[k] - u[k]) - (i[k] if trap else 0.0)
            elif kd is Inductor:
                i[k] = i[k] + g[k] * ((u_new[k] + u[k]) if trap else u_new[k])
            elif kd is CurrentSource:
                i[k] = src[k][n]
            else:
                i[k] = v[n_v + vsrc.index(k)]
        u = u_new
        V[:, n] = v[:n_v]
        I[:, n] = i
    volts = {label: (V[r] if r >= 0 else np.zeros(steps + 1))
             for label, r in row.items()}
    return volts, dict(zip(net.branch_ids, I))


def assert_agrees(res, volts, currents, rtol=1e-12, current_scale=None):
    """Every node voltage within ``rtol`` of the largest node voltage and
    every branch current within ``rtol`` of ``current_scale`` (default:
    the run's own ``current_scale``)."""
    i_tol = rtol * (current_scale or res.current_scale)
    for bid, ref in currents.items():
        err = np.max(np.abs(res.branch_currents[bid].samples - ref))
        assert err <= i_tol, f"branch {bid}: {err:.3e} A > {i_tol:.3e} A"
    v_tol = rtol * max(np.max(np.abs(w)) for w in volts.values())
    for label, ref in volts.items():
        err = np.max(np.abs(res.node_voltages[label].samples - ref))
        assert err <= v_tol, f"node {label}: {err:.3e} V > {v_tol:.3e} V"


def both_runs(net, cfg, initial=None):
    initial = initial or InitialCondition()
    return (transient(net, cfg, initial),) + reference_transient(net, cfg, initial)


def audit_scale(res):
    """The current-law audit's scale: the current scale or the largest
    companion term g*|u| of a resistor, capacitor or inductor."""
    cfg = res.config
    k = 2.0 if cfg.method == "trapezoidal" else 1.0
    scale = res.current_scale
    for br in res.network.branches:
        el = br.element
        if isinstance(el, Resistor):
            g = 1.0 / el.ohms
        elif isinstance(el, Capacitor):
            g = k * el.farads / cfg.dt
        elif isinstance(el, Inductor):
            g = cfg.dt / (k * el.henries)
        else:
            continue
        u = (res.node_voltages[br.start].samples
             - res.node_voltages[br.end].samples)
        scale = max(scale, g * float(np.max(np.abs(u))))
    return scale


def spec(**overrides):
    base = dict(bias=BIAS, amplitude=10.5e-3, width=600e-12,
                delay=2e-9, edge=100e-12)
    base.update(overrides)
    return StimulusSpec(**base)


@pytest.mark.parametrize("method", METHODS)
def test_driver_without_tee_matches_reference(method):
    cfg = SimConfig(t_end=6e-9, dt=1e-12, method=method)
    net = driver_network(spec(), LaserCircuit(**TABLE), t_end=6e-9, dt=1e-12,
                         bias_tee=False)
    assert_agrees(*both_runs(net, cfg, dc_operating_point(net)))


TEE_VARIANTS = {
    "default": {},
    "filter+parasitic": dict(output_filter=OutputFilter(50.0, 1e-12),
                             parasitic_inductance=2e-9),
}


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("variant", sorted(TEE_VARIANTS))
def test_driver_with_tee_matches_reference(method, variant):
    # The bias tee's companion conductances span 4e11 (trapezoidal: 2e5 S
    # for the 100 nF capacitor, 5e-7 S for the 1 uH choke), so its
    # capacitor current and the voltages around the choke carry roundoff
    # far above 1e-12 of the current scale in either implementation:
    # behind the parasitic inductance the per-step reference's tee
    # capacitor current is 7.5e-10 A off an extended-precision run.  The
    # record is held to the current-law audit's own tolerance; the sense
    # current, the measured pulse, still agrees to 1e-12 of the current
    # scale.
    cfg = SimConfig(t_end=6e-9, dt=1e-12, method=method)
    net = driver_network(spec(), LaserCircuit(**TABLE), t_end=6e-9, dt=1e-12,
                         **TEE_VARIANTS[variant])
    res, volts, currents = both_runs(net, cfg, dc_operating_point(net))
    assert_agrees(res, volts, currents, cfg.solver_tol, audit_scale(res))
    err = np.max(np.abs(res.branch_currents["VSENSE"].samples
                        - currents["VSENSE"]))
    assert err <= 1e-12 * res.current_scale


def rlc_networks():
    """The circuits of the closed-form transient tests, with their starts."""
    rc = Network.from_branches([
        Branch("VS", "a", "0", VoltageSource(1.0)),
        Branch("R", "a", "b", Resistor(1e3)),
        Branch("C", "b", "0", Capacitor(1e-9)),
    ], reference="0")
    lc = Network.from_branches([
        Branch("L", "a", "0", Inductor(1.0)),
        Branch("C", "a", "0", Capacitor(1.0)),
        Branch("I0", "0", "a", CurrentSource(0.0)),
    ], reference="0")
    rlc = Network.from_branches([
        Branch("C", "a", "0", Capacitor(1e-9)),
        Branch("R", "a", "b", Resistor(5.0)),
        Branch("L", "b", "0", Inductor(1e-6)),
        Branch("I0", "0", "a", CurrentSource(0.0)),
    ], reference="0")
    lrc = Network.from_branches([
        Branch("VS", "a", "0", VoltageSource(5.0)),
        Branch("L", "a", "b", Inductor(1e-6)),
        Branch("R", "b", "0", Resistor(500.0)),
        Branch("C", "b", "0", Capacitor(1e-9)),
    ], reference="0")
    rc_start = InitialCondition(node_voltages={"a": 1.0},
                                branch_currents={"C": 1e-3, "VS": -1e-3})
    return {
        "rc-step": (rc, SimConfig(t_end=5.2e-6, dt=1e-9), rc_start),
        "rc-from-zero": (rc, SimConfig(t_end=1e-9, dt=1e-10), None),
        "lc-oscillator": (lc, SimConfig(t_end=20 * 2 * np.pi, dt=2 * np.pi / 40),
                          InitialCondition(node_voltages={"a": 1.0})),
        "rlc-ringdown": (rlc, SimConfig(t_end=20e-6, dt=10e-9),
                         InitialCondition(node_voltages={"a": 1.0})),
        "lrc-from-zero": (lrc, SimConfig(t_end=2e-6, dt=1e-9), None),
    }


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name", sorted(rlc_networks()))
def test_rlc_networks_match_reference(method, name):
    net, cfg, initial = rlc_networks()[name]
    assert_agrees(*both_runs(net, SimConfig(t_end=cfg.t_end, dt=cfg.dt,
                                            method=method), initial))


@pytest.mark.parametrize("method", METHODS)
def test_resistive_network_with_empty_state(method):
    # No reactive element: the compiled state has no components at all.
    ramp = Waveform(0.0, 1e-9, 1e-3 * np.arange(101), "A")
    net = Network.from_branches([
        Branch("I1", "0", "a", CurrentSource(ramp)),
        Branch("VS", "b", "0", VoltageSource(0.5)),
        Branch("R1", "a", "b", Resistor(50.0)),
        Branch("R2", "a", "0", Resistor(75.0)),
    ], reference="0")
    res, volts, currents = both_runs(net, SimConfig(t_end=100e-9, dt=1e-9,
                                                    method=method))
    assert_agrees(res, volts, currents)
    v_a = res.node_voltages["a"].samples
    expected = (ramp.samples + 0.5 / 50.0) / (1 / 50.0 + 1 / 75.0)
    assert np.max(np.abs(v_a[1:] - expected[1:])) <= 1e-12 * np.max(expected)


def test_long_pulse_train_passes_the_current_law_audit():
    # 100k steps at 250 MHz: many recording blocks and 24 pulses.
    cfg = SimConfig(t_end=100e-9, dt=1e-12)
    net = driver_network(spec(rate=250e6), LaserCircuit(**TABLE),
                         t_end=100e-9, dt=1e-12)
    res = transient(net, cfg, dc_operating_point(net))
    assert cfg.steps == 100_000
    I = np.vstack([res.branch_currents[br.id].samples for br in net.branches])
    resid = boundary(net).matrix.astype(float) @ I[:, 1:]
    assert np.abs(resid).max() <= cfg.solver_tol * res.current_scale
    assert res.max_kcl_residual <= cfg.solver_tol * res.current_scale


def test_current_law_audit_rejects_a_residual_above_its_tolerance():
    # Behind the parasitic inductance the residual is near 1e-10 A, far
    # above 1e-15 of the audit scale.
    cfg = SimConfig(t_end=1e-9, dt=1e-12, solver_tol=1e-15)
    net = driver_network(spec(), LaserCircuit(**TABLE), t_end=1e-9, dt=1e-12,
                         parasitic_inductance=2e-9,
                         output_filter=OutputFilter(50.0, 1e-12))
    with pytest.raises(SimulationError, match="current-law residual"):
        transient(net, cfg, dc_operating_point(net))


def state_labels(net, step):
    """Names of the state components: u and i of each capacitor, then of
    each inductor."""
    caps = [net.branches[k].id for k in step.index[Capacitor]]
    inds = [net.branches[k].id for k in step.index[Inductor]]
    return ([f"u:{b}" for b in caps] + [f"i:{b}" for b in caps]
            + [f"u:{b}" for b in inds] + [f"i:{b}" for b in inds])


def test_compiled_maps_are_read_only_and_describe_the_run():
    # The maps of the public object reproduce the recorded run: the
    # state recurrence and the solve of the unknowns, step for step.
    net, cfg, initial = rlc_networks()["lrc-from-zero"]
    step = compile_step(net, cfg)
    for name in ("G", "Rz", "Rs", "M", "N"):
        with pytest.raises(ValueError):
            getattr(step, name)[0, 0] = 1.0
    for array in (step.g, step.a_rows, step.b_rows, *step.index.values()):
        assert not array.flags.writeable
    res = transient(net, cfg, initial)
    v, i = res.node_voltages, res.branch_currents

    def record(label):
        kind, bid = label.split(":")
        br = net.branch(bid)
        return (v[br.start].samples - v[br.end].samples if kind == "u"
                else i[bid].samples)

    z = np.array([record(label) for label in state_labels(net, step)])
    s = np.full((1, cfg.steps + 1), 5.0)   # the one source, VS
    nodes = sorted((r, n) for n, r in step.row.items() if r >= 0)
    x = np.array([v[n].samples for _, n in nodes] + [i["VS"].samples])
    assert step.row[net.reference] == -1 and len(x) == len(step.G)
    z_scale = np.max(np.abs(z))
    assert np.max(np.abs(z[:, 1:] - step.M @ z[:, :-1] - step.N @ s[:, 1:])) \
        <= 1e-12 * z_scale
    rhs = step.Rz @ z[:, :-1] + step.Rs @ s[:, 1:]
    assert np.max(np.abs(step.G @ x[:, 1:] - rhs)) <= 1e-12 * np.max(np.abs(rhs))


@pytest.mark.parametrize("method", METHODS)
def test_step_matrix_carries_the_mapped_laser_poles(method):
    # Bilinear oracle.  Without the tee the only dynamics are the laser
    # fragment's series arm (L, R + R_spon + R_o) across C, with poles
    # at the roots of L C p^2 + R_series C p + 1.  The integration rule
    # maps each pole p to (1 + p dt/2)/(1 - p dt/2) (trapezoidal) or
    # 1/(1 - p dt) (backward Euler); those are the nonzero eigenvalues
    # of M.  The other half of the state is redundant (eigenvalue 0).
    circ = LaserCircuit(**TABLE)
    cfg = SimConfig(t_end=6e-9, dt=1e-12, method=method)
    net = driver_network(spec(), circ, t_end=6e-9, dt=1e-12, bias_tee=False)
    eig = np.linalg.eigvals(compile_step(net, cfg).M)
    p = np.roots([circ.L * circ.C, circ.series_resistance * circ.C, 1.0])
    h = cfg.dt
    mapped = ((1 + p * h / 2) / (1 - p * h / 2) if method == "trapezoidal"
              else 1 / (1 - p * h))
    nonzero = eig[np.abs(eig) > 1e-9]
    assert len(nonzero) == 2
    err = np.abs(np.sort_complex(nonzero) - np.sort_complex(mapped))
    assert np.max(err) <= 1e-12


@pytest.mark.parametrize("method", METHODS)
def test_tee_modes_on_the_unit_circle(method):
    # The tee puts a capacitor (CTEE) and a choke (LTEE) each in series
    # with an ideal current source.  CTEE's voltage integrates the
    # injected charge and never decays: eigenvalue +1 under both rules.
    # The trapezoidal rule also leaves LTEE's voltage undamped: it flips
    # sign every step, eigenvalue -1.  These are distinct eigenvalues,
    # not a Jordan block, and each eigenvector is that one voltage.
    cfg = SimConfig(t_end=6e-9, dt=1e-12, method=method)
    net = driver_network(spec(), LaserCircuit(**TABLE), t_end=6e-9, dt=1e-12)
    step = compile_step(net, cfg)
    labels = state_labels(net, step)
    w, vecs = np.linalg.eig(step.M)
    on_circle = np.flatnonzero(np.abs(np.abs(w) - 1.0) <= 1e-12)
    modes = {}
    for k in on_circle:
        assert abs(w[k].imag) <= 1e-12
        unit = np.zeros(len(w))
        unit[np.argmax(np.abs(vecs[:, k]))] = 1.0
        assert np.max(np.abs(np.abs(vecs[:, k]) - unit)) <= 1e-12
        modes[round(w[k].real)] = labels[np.argmax(unit)]
    expected = {1: "u:CTEE", -1: "u:LTEE"} if method == "trapezoidal" \
        else {1: "u:CTEE"}
    assert modes == expected
    assert np.max(np.abs(np.delete(w, on_circle))) < 1.0
