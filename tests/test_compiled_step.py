"""The compiled state-space step against a per-step MNA reference.

``reference_transient`` below is the straightforward stepper: each step
assembles the right-hand side from the sources and the companion
histories and solves the LU-factorized system.  ``transient`` must
reproduce every node voltage and branch current it records.
``reference_operating_point`` stamps the DC system branch by branch;
``dc_operating_point`` must reproduce its node voltages and currents.
"""

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from pulsenet import (Branch, Capacitor, CurrentSource, InitialCondition,
                      Inductor, LaserCircuit, Network, OutputFilter, Resistor,
                      SimConfig, SimulationError,
                      VoltageSource, Waveform, boundary, compile_step,
                      dc_operating_point, driver_network, transient)
from pulsenet.simulate import _BLOCK, GMIN
from conftest import ELEMENT_TABLE, pulse_spec

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


def reference_operating_point(net):
    """Operating point by a modified-nodal matrix stamped branch by
    branch, with a padding row and column that catch the reference
    node's stamps.  Inductors are zero-volt sources whose currents join
    the voltage sources' as unknowns, in branch order; capacitors leak
    ``GMIN``."""
    def static(el):
        if isinstance(el, Resistor):
            return 1.0 / el.ohms
        if isinstance(el, Capacitor):
            return GMIN
        return None if isinstance(el, (Inductor, VoltageSource)) else 0.0

    g = [static(br.element) for br in net.branches]
    n_v = len(net.nodes) - 1
    n_x = n_v + g.count(None)
    row = {label: k for k, label in
           enumerate(n for n in net.nodes if n != net.reference)}
    row[net.reference] = -1
    a_rows = [row[br.start] if row[br.start] >= 0 else n_x for br in net.branches]
    b_rows = [row[br.end] if row[br.end] >= 0 else n_x for br in net.branches]
    G = np.zeros((n_x + 1, n_x + 1))
    rhs = np.zeros(n_x + 1)
    cur_ids = []
    for br, a, b, gk in zip(net.branches, a_rows, b_rows, g):
        el = br.element
        if gk is None:
            j = n_v + len(cur_ids)
            cur_ids.append(br.id)
            G[a, j] += 1.0
            G[b, j] -= 1.0
            G[j, a] += 1.0
            G[j, b] -= 1.0
            if isinstance(el, VoltageSource):
                rhs[j] = source_samples(el.volts, np.zeros(1))[0]
        elif gk:
            G[a, a] += gk
            G[b, b] += gk
            G[a, b] -= gk
            G[b, a] -= gk
        elif isinstance(el, CurrentSource):
            val = source_samples(el.amps, np.zeros(1))[0]
            rhs[a] -= val
            rhs[b] += val
    x = np.linalg.solve(G[:n_x, :n_x], rhs[:n_x])
    volts = {label: (float(x[r]) if r >= 0 else 0.0) for label, r in row.items()}
    return InitialCondition(node_voltages=volts,
                            branch_currents=dict(zip(cur_ids, x[n_v:].tolist())))


def dense_network(seed):
    """Seeded random network on nodes n0 ... n5 and the reference 0.

    Every node has a resistor of 20 to 100 ohm to the reference, so the
    network always solves.  The hub n0 has a branch to every other node
    and two to four current sources into it; 12 more branches join
    random pairs of nodes.  The elements are resistors, some of them
    negative (-10 to -1 kohm, too weak to outweigh the resistors to the
    reference), capacitors, inductors, current sources and voltage
    sources.  Inductors and voltage sources are kept to a forest, since
    a loop of them makes the operating point singular.
    """
    rng = np.random.default_rng(seed)
    nodes = [f"n{k}" for k in range(6)]
    tree = {label: label for label in ["0", *nodes]}

    def root(label):
        while tree[label] != label:
            label = tree[label]
        return label

    def element(start, end):
        kind = rng.choice(["R", "-R", "C", "L", "I", "V"])
        if kind in ("L", "V"):
            if root(start) == root(end):
                kind = "R"
            else:
                tree[root(start)] = root(end)
        return {"R": lambda: Resistor(float(rng.uniform(20.0, 1e3))),
                "-R": lambda: Resistor(-float(rng.uniform(1e3, 1e4))),
                "C": lambda: Capacitor(float(rng.uniform(1e-12, 1e-11))),
                "L": lambda: Inductor(float(rng.uniform(1e-9, 1e-8))),
                "I": lambda: CurrentSource(float(rng.uniform(-1e-2, 1e-2))),
                "V": lambda: VoltageSource(float(rng.uniform(-2.0, 2.0))),
                }[kind]()

    branches = [Branch(f"RG{k}", label, "0", Resistor(float(rng.uniform(20.0, 100.0))))
                for k, label in enumerate(nodes)]
    branches += [Branch(f"H{k}", "n0", label, element("n0", label))
                 for k, label in enumerate(nodes[1:], start=1)]
    branches += [Branch(f"IH{k}", str(rng.choice(["0", *nodes[1:]])), "n0",
                        CurrentSource(float(rng.uniform(-1e-2, 1e-2))))
                 for k in range(int(rng.integers(2, 5)))]
    for k in range(12):
        start, end = rng.choice(["0", *nodes], size=2, replace=False).tolist()
        branches.append(Branch(f"B{k}", start, end, element(start, end)))
    return Network.from_branches(branches, reference="0")


DENSE_SEEDS = range(40)


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


@pytest.mark.parametrize("method", METHODS)
def test_driver_without_tee_matches_reference(method):
    cfg = SimConfig(t_end=6e-9, dt=1e-12, method=method)
    net = driver_network(pulse_spec(), LaserCircuit(**ELEMENT_TABLE),
                         t_end=6e-9, dt=1e-12, bias_tee=False)
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
    net = driver_network(pulse_spec(), LaserCircuit(**ELEMENT_TABLE),
                         t_end=6e-9, dt=1e-12, **TEE_VARIANTS[variant])
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


def reference_inputs():
    """The closed-form circuits, and dense networks (from zero, 300 steps),
    whose nodes join many branches and so sum many terms."""
    dense = {f"dense-{seed}": (dense_network(seed), SimConfig(t_end=3e-9, dt=1e-11),
                               None)
             for seed in DENSE_SEEDS[:4]}
    return {**rlc_networks(), **dense}


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name", sorted(reference_inputs()))
def test_rlc_networks_match_reference(method, name):
    net, cfg, initial = reference_inputs()[name]
    assert_agrees(*both_runs(net, SimConfig(t_end=cfg.t_end, dt=cfg.dt,
                                            method=method), initial))


@pytest.mark.parametrize("variant", ["without-tee", *sorted(TEE_VARIANTS)])
def test_operating_point_of_the_driver_is_the_stamped_one(variant):
    kwargs = dict(bias_tee=False) if variant == "without-tee" else TEE_VARIANTS[variant]
    net = driver_network(pulse_spec(), LaserCircuit(**ELEMENT_TABLE),
                         t_end=6e-9, dt=1e-12, **kwargs)
    got, ref = dc_operating_point(net), reference_operating_point(net)
    for field in ("node_voltages", "branch_currents"):
        a, b = getattr(got, field), getattr(ref, field)
        assert list(a) == list(b)
        assert np.array(list(a.values())).tobytes() == np.array(list(b.values())).tobytes()


def test_dense_networks_share_the_stamped_operating_point():
    # Products sum a node's terms in their own order, so hold each
    # value to 1e-12 of the largest node voltage or current.
    for seed in DENSE_SEEDS:
        net = dense_network(seed)
        got, ref = dc_operating_point(net), reference_operating_point(net)
        for field in ("node_voltages", "branch_currents"):
            a, b = getattr(got, field), getattr(ref, field)
            assert list(a) == list(b)
            a, b = np.array(list(a.values())), np.array(list(b.values()))
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), (seed, field)


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
    net = driver_network(pulse_spec(rate=250e6), LaserCircuit(**ELEMENT_TABLE),
                         t_end=100e-9, dt=1e-12)
    res = transient(net, cfg, dc_operating_point(net))
    assert cfg.steps == 100_000
    I = np.vstack([res.branch_currents[br.id].samples for br in net.branches])
    resid = boundary(net).astype(float) @ I[:, 1:]
    assert np.abs(resid).max() <= cfg.solver_tol * res.current_scale
    assert res.max_kcl_residual <= cfg.solver_tol * res.current_scale


def test_current_law_audit_rejects_a_residual_above_its_tolerance():
    # Behind the parasitic inductance the residual is near 1e-10 A, far
    # above 1e-15 of the audit scale.
    cfg = SimConfig(t_end=1e-9, dt=1e-12, solver_tol=1e-15)
    net = driver_network(pulse_spec(), LaserCircuit(**ELEMENT_TABLE),
                         t_end=1e-9, dt=1e-12, parasitic_inductance=2e-9,
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


def recorded_state(res, step):
    """The state z at every recorded time, read off the record of ``res``."""
    v, i = res.node_voltages, res.branch_currents
    rows = []
    for label in state_labels(res.network, step):
        kind, bid = label.split(":")
        br = res.network.branch(bid)
        rows.append(v[br.start].samples - v[br.end].samples if kind == "u"
                    else i[bid].samples)
    return np.array(rows).reshape(len(rows), res.config.steps + 1)


def test_compiled_maps_are_read_only_and_describe_the_run():
    # The maps of the public object reproduce the recorded run: the
    # state recurrence and the solve of the unknowns, step for step.
    net, cfg, initial = rlc_networks()["lrc-from-zero"]
    step = compile_step(net, cfg)
    for name in ("G", "Rz", "Rs", "M", "N"):
        with pytest.raises(ValueError):
            getattr(step, name)[0, 0] = 1.0
    for array in (step.g, step.A, *step.index.values()):
        assert not array.flags.writeable
    res = transient(net, cfg, initial)
    v, i = res.node_voltages, res.branch_currents
    z = recorded_state(res, step)
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
    circ = LaserCircuit(**ELEMENT_TABLE)
    cfg = SimConfig(t_end=6e-9, dt=1e-12, method=method)
    net = driver_network(pulse_spec(), circ, t_end=6e-9, dt=1e-12, bias_tee=False)
    eig = np.linalg.eigvals(compile_step(net, cfg).M)
    p = np.roots([circ.L * circ.C, circ.series_resistance * circ.C, 1.0])
    h = cfg.dt
    mapped = ((1 + p * h / 2) / (1 - p * h / 2) if method == "trapezoidal"
              else 1 / (1 - p * h))
    nonzero = eig[np.abs(eig) > 1e-9]
    assert len(nonzero) == 2
    err = np.abs(np.sort_complex(nonzero) - np.sort_complex(mapped))
    assert np.max(err) <= 1e-12


def test_transfer_is_the_bilinear_map_of_the_state_space_model():
    # Oracle: the RLC ring-down (C from a to ground, R from a to b, L
    # from b to ground, the source I0 into a) as a two-state model with
    # states v_C and i_L, mapped by scipy's bilinear transform.  The
    # compiled side's transfer from the source to the unknowns is
    # G^-1 (Rz z^-1 (I - M z^-1)^-1 N + Rs).
    signal = pytest.importorskip("scipy.signal")
    net, cfg, _ = rlc_networks()["rlc-ringdown"]
    R = net.branch("R").element.ohms
    L = net.branch("L").element.henries
    C = net.branch("C").element.farads
    a = np.array([[0.0, -1.0 / C], [1.0 / L, -R / L]])
    b = np.array([[1.0 / C], [0.0]])
    c = np.array([[1.0, 0.0], [1.0, -R]])   # v(a) = v_C, v(b) = v_C - R i_L
    ad, bd, cd, dd, _ = signal.cont2discrete((a, b, c, np.zeros((2, 1))),
                                             cfg.dt, method="bilinear")
    step = compile_step(net, cfg)
    rows = [step.row["a"], step.row["b"]]
    n_z = len(step.M)
    for z in np.exp(2j * np.pi * (np.arange(16) + 0.5) / 16):
        state = np.linalg.solve(np.eye(n_z) - step.M / z, step.N)
        got = np.linalg.solve(step.G, step.Rz @ state / z + step.Rs)[rows]
        want = cd @ np.linalg.solve(z * np.eye(2) - ad, bd) + dd
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("method", METHODS)
def test_tee_modes_on_the_unit_circle(method):
    # The tee puts a capacitor (CTEE) and a choke (LTEE) each in series
    # with an ideal current source.  CTEE's voltage integrates the
    # injected charge and never decays: eigenvalue +1 under both rules.
    # The trapezoidal rule also leaves LTEE's voltage undamped: it flips
    # sign every step, eigenvalue -1.  These are distinct eigenvalues,
    # not a Jordan block, and each eigenvector is that one voltage.
    cfg = SimConfig(t_end=6e-9, dt=1e-12, method=method)
    net = driver_network(pulse_spec(), LaserCircuit(**ELEMENT_TABLE),
                         t_end=6e-9, dt=1e-12)
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


def recurrence_record(res):
    """Node voltages and branch currents of the run of ``res`` by
    ``compile_step``'s maps, one explicit step z_n = M z_{n-1} + N s_n
    at a time from the state ``res`` records at t = 0.  The t = 0
    column, the supplied state, is taken from ``res``."""
    net, cfg = res.network, res.config
    step = compile_step(net, cfg)
    _, cap_idx, ind_idx, isrc_idx, vsrc_idx = step.index.values()
    times = cfg.dt * np.arange(cfg.steps + 1)
    s = np.array([source_samples(net.branches[k].element.amps, times)
                  for k in isrc_idx]
                 + [source_samples(net.branches[k].element.volts, times)
                    for k in vsrc_idx])
    z = recorded_state(res, step)
    for n in range(1, cfg.steps + 1):
        z[:, n] = step.M @ z[:, n - 1] + step.N @ s[:, n]
    n_v, n_c, n_z = len(step.row) - 1, len(cap_idx), len(step.M)
    x = np.zeros((len(step.G) + 1, times.size))
    x[:-1, 1:] = np.linalg.solve(step.G, step.Rz @ z[:, :-1] + step.Rs @ s[:, 1:])
    I = step.g[:, None] * (step.A.T @ x[:len(step.A)])
    I[cap_idx] = z[n_c:2 * n_c]
    I[ind_idx] = z[n_z - len(ind_idx):]
    I[isrc_idx] = s[:len(isrc_idx)]
    I[vsrc_idx] = x[n_v:-1]
    volts = {label: x[r] for label, r in step.row.items()}
    currents = dict(zip(net.branch_ids, I))
    for wave, record in ((res.node_voltages, volts),
                         (res.branch_currents, currents)):
        for key, samples in record.items():
            samples[0] = wave[key].samples[0]
    return volts, currents


def scan_edge_networks(steps):
    """The tee driver, a ringing RLC circuit and a resistive network
    with no state at all, each run for ``steps`` steps."""
    cfg = SimConfig(t_end=steps * 1e-12, dt=1e-12)
    tee = driver_network(pulse_spec(delay=0.0), LaserCircuit(**ELEMENT_TABLE),
                         t_end=cfg.t_end, dt=cfg.dt)
    rlc, _, rlc_start = rlc_networks()["rlc-ringdown"]
    ramp = Waveform(0.0, 1e-12, 1e-3 * np.arange(steps + 1), "A")
    resistive = Network.from_branches([
        Branch("I1", "0", "a", CurrentSource(ramp)),
        Branch("VS", "b", "0", VoltageSource(0.5)),
        Branch("R1", "a", "b", Resistor(50.0)),
        Branch("R2", "a", "0", Resistor(75.0)),
    ], reference="0")
    return {
        "tee-driver": (tee, cfg, dc_operating_point(tee)),
        "rlc-ringdown": (rlc, SimConfig(t_end=steps * 10e-9, dt=10e-9), rlc_start),
        "resistive": (resistive, cfg, None),
    }


@pytest.mark.parametrize("steps", [1, 2, 3, 4, 5, 255, 256, 257, _BLOCK - 1,
                                   _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name", ["tee-driver", "rlc-ringdown", "resistive"])
def test_scan_matches_the_one_step_recurrence(name, method, steps):
    # The scan doubles its shift each pass inside blocks of _BLOCK steps;
    # at and around powers of two, where a block gains a pass, and at
    # every block edge, the record is that of stepping the same maps one
    # step at a time.
    net, cfg, initial = scan_edge_networks(steps)[name]
    cfg = SimConfig(t_end=cfg.t_end, dt=cfg.dt, method=method)
    assert cfg.steps == steps
    res = transient(net, cfg, initial)
    assert_agrees(res, *recurrence_record(res))
