"""Companion-model transient analysis against closed-form circuits."""

import math

import numpy as np
import pytest

from pulsenet import (Branch, Capacitor, CurrentSource, InitialCondition,
                      Inductor, Network, Resistor, SimConfig, SimulationError,
                      VoltageSource, dc_operating_point, transient)


def rc_network(volts=1.0, ohms=1e3, farads=1e-9):
    return Network.from_branches([
        Branch("VS", "a", "0", VoltageSource(volts)),
        Branch("R", "a", "b", Resistor(ohms)),
        Branch("C", "b", "0", Capacitor(farads)),
    ], reference="0")


def lc_network(henries=1.0, farads=1.0):
    # The zero-ampere source only satisfies the at-least-one-source check.
    return Network.from_branches([
        Branch("L", "a", "0", Inductor(henries)),
        Branch("C", "a", "0", Capacitor(farads)),
        Branch("I0", "0", "a", CurrentSource(0.0)),
    ], reference="0")


def consistent_rc_start():
    """State at t = 0+ with the source already applied, cap uncharged."""
    return InitialCondition(node_voltages={"a": 1.0},
                            branch_currents={"C": 1e-3, "VS": -1e-3})


@pytest.mark.parametrize("method", ["backward-euler", "trapezoidal"])
def test_rc_step_tracks_the_exponential(method):
    tau = 1e3 * 1e-9
    dt = tau / 1000.0
    cfg = SimConfig(t_end=5.2 * tau, dt=dt, method=method)
    res = transient(rc_network(), cfg, consistent_rc_start())
    v = res.node_voltages["b"].samples
    i = res.branch_currents["R"].samples
    for mult in (1.0, 2.0, 5.0):
        k = int(round(mult * tau / dt))
        t = k * dt
        v_exact = 1.0 - math.exp(-t / tau)
        i_exact = math.exp(-t / tau) / 1e3
        assert abs(v[k] - v_exact) <= 1e-3 * v_exact
        # Current errors are judged against the full-scale V/R: near 5*tau
        # the point value has decayed by e^-5 and a point-relative bound
        # would amplify the same voltage error a hundredfold.
        assert abs(i[k] - i_exact) <= 1e-3 * 1e-3


def test_first_step_enforces_the_source_jump():
    cfg = SimConfig(t_end=1e-9, dt=1e-10)
    res = transient(rc_network(), cfg)
    v_a = res.node_voltages["a"].samples
    assert v_a[0] == 0.0          # supplied (zero) state
    assert v_a[1] == pytest.approx(1.0, rel=1e-12)


def test_result_waveforms_share_the_grid():
    cfg = SimConfig(t_end=1e-9, dt=1e-10)
    res = transient(rc_network(), cfg)
    waves = list(res.node_voltages.values()) + list(res.branch_currents.values())
    assert all(w.t0 == 0.0 and w.dt == cfg.dt and len(w) == cfg.steps + 1
               for w in waves)
    assert not np.any(res.node_voltages["0"].samples)
    assert res.max_kcl_residual <= cfg.solver_tol * res.current_scale
    assert res.times[-1] == pytest.approx(cfg.t_end, rel=1e-12)


def test_trapezoidal_conserves_oscillator_amplitude():
    # v'' = -v/LC with L = C = 1: period 2*pi.  The trapezoidal update
    # conserves C*v^2 + L*i^2 exactly, so the envelope can only drift
    # through roundoff.
    period = 2.0 * math.pi
    dt = period / 40.0
    cfg = SimConfig(t_end=1000.0 * period, dt=dt, method="trapezoidal")
    res = transient(lc_network(), cfg,
                    InitialCondition(node_voltages={"a": 1.0}))
    v = res.node_voltages["a"].samples
    i = res.branch_currents["L"].samples
    amp = np.sqrt(v * v + i * i)
    drift = (amp.max() - amp.min()) / amp[0]
    assert drift < 1e-9


def test_backward_euler_damps_the_oscillator():
    period = 2.0 * math.pi
    dt = period / 40.0
    cfg = SimConfig(t_end=10.0 * period, dt=dt, method="backward-euler")
    res = transient(lc_network(), cfg,
                    InitialCondition(node_voltages={"a": 1.0}))
    v = res.node_voltages["a"].samples
    i = res.branch_currents["L"].samples
    amp = np.sqrt(v * v + i * i)
    assert amp[-1] < 0.1 * amp[0]


def test_grid_refinement_orders():
    tau = 1e3 * 1e-9

    def error_at_tau(method, dt):
        cfg = SimConfig(t_end=1.1 * tau, dt=dt, method=method)
        res = transient(rc_network(), cfg, consistent_rc_start())
        k = int(round(tau / dt))
        return abs(res.node_voltages["b"].samples[k] - (1.0 - math.exp(-1.0)))

    dt = tau / 100.0
    be_ratio = error_at_tau("backward-euler", dt) / error_at_tau("backward-euler", dt / 2)
    tr_ratio = error_at_tau("trapezoidal", dt) / error_at_tau("trapezoidal", dt / 2)
    assert 1.8 <= be_ratio <= 2.2   # first order
    assert 3.6 <= tr_ratio <= 4.4   # second order


def test_record_is_shared_read_only():
    res = transient(rc_network(), SimConfig(t_end=1e-6, dt=1e-8))
    for wave in (res.node_voltages["b"], res.branch_currents["R"]):
        with pytest.raises(ValueError):
            wave.samples[1] = 0.0
        record = wave.samples.base
        assert record is not None and not record.flags.writeable
        with pytest.raises(ValueError):
            record[0, 1] = 0.0
    # Node voltages share one record, branch currents another.
    v, i = res.node_voltages, res.branch_currents
    assert v["a"].samples.base is v["b"].samples.base
    assert i["C"].samples.base is i["R"].samples.base


def test_operating_point_divider_and_source_current():
    net = Network.from_branches([
        Branch("VS", "a", "0", VoltageSource(10.0)),
        Branch("R1", "a", "b", Resistor(1e3)),
        Branch("R2", "b", "0", Resistor(1e3)),
    ], reference="0")
    op = dc_operating_point(net)
    assert op.node_voltages["a"] == pytest.approx(10.0, rel=1e-12)
    assert op.node_voltages["b"] == pytest.approx(5.0, rel=1e-12)
    assert op.branch_currents["VS"] == pytest.approx(-5e-3, rel=1e-12)


def test_operating_point_shorts_inductors_and_opens_capacitors():
    net = Network.from_branches([
        Branch("VS", "a", "0", VoltageSource(5.0)),
        Branch("L", "a", "b", Inductor(1e-6)),
        Branch("R", "b", "0", Resistor(500.0)),
        Branch("C", "b", "0", Capacitor(1e-9)),
    ], reference="0")
    op = dc_operating_point(net)
    assert op.node_voltages["b"] == pytest.approx(5.0, rel=1e-9)
    assert op.branch_currents["L"] == pytest.approx(0.01, rel=1e-9)


def test_operating_point_with_current_source():
    net = Network.from_branches([
        Branch("I1", "0", "a", CurrentSource(2e-3)),
        Branch("R", "a", "0", Resistor(250.0)),
    ], reference="0")
    op = dc_operating_point(net)
    assert op.node_voltages["a"] == pytest.approx(0.5, rel=1e-12)


def test_operating_point_reads_waveform_sources_at_zero():
    from pulsenet import Waveform
    dt = 1e-9

    def op(t0):
        wave = Waveform(t0, dt, np.linspace(2e-3, 4e-3, 11), "A")
        net = Network.from_branches([
            Branch("I1", "0", "a", CurrentSource(wave)),
            Branch("R", "a", "0", Resistor(250.0)),
        ], reference="0")
        return dc_operating_point(net).node_voltages["a"]

    assert op(0.0) == pytest.approx(0.5, rel=1e-12)
    # within half a sample step of t = 0: accepted
    assert op(0.4 * dt) == pytest.approx(0.5, rel=1e-12)
    assert op(-10.4 * dt) == pytest.approx(1.0, rel=1e-12)
    # a source that starts after t = 0 or ends before it is rejected
    for t0 in (0.6 * dt, -10.6 * dt, -20 * dt):
        with pytest.raises(SimulationError, match="branch 'I1'.*misses .*t = 0"):
            op(t0)


def test_starting_from_the_operating_point_stays_flat():
    net = Network.from_branches([
        Branch("VS", "a", "0", VoltageSource(5.0)),
        Branch("R", "a", "b", Resistor(1e3)),
        Branch("C", "b", "0", Capacitor(1e-9)),
    ], reference="0")
    cfg = SimConfig(t_end=1e-6, dt=1e-9)
    res = transient(net, cfg, dc_operating_point(net))
    v = res.node_voltages["b"].samples
    assert np.max(np.abs(v - v[0])) < 1e-6


def test_waveform_source_off_grid_is_interpolated():
    # A linear current ramp interpolates exactly, so a source sampled
    # on a twice-coarser grid must reproduce the aligned-source run.
    from pulsenet import Waveform
    dt = 1e-9
    t_end = 100e-9
    t_fine = dt * np.arange(101)
    t_coarse = 2 * dt * np.arange(51)
    ramp = lambda t: 1e3 * t

    def run(wave):
        net = Network.from_branches([
            Branch("I1", "0", "a", CurrentSource(wave)),
            Branch("R", "a", "0", Resistor(50.0)),
        ], reference="0")
        return transient(net, SimConfig(t_end=t_end, dt=dt))

    fine = run(Waveform(0.0, dt, ramp(t_fine), "A"))
    coarse = run(Waveform(0.0, 2 * dt, ramp(t_coarse), "A"))
    v1 = fine.node_voltages["a"].samples
    v2 = coarse.node_voltages["a"].samples
    assert np.max(np.abs(v1 - v2)) <= 1e-12 * np.max(np.abs(v1))


def test_waveform_source_must_span_the_run():
    from pulsenet import Waveform
    dt = 1e-9
    cfg = SimConfig(t_end=100e-9, dt=dt)

    def run(t0, t_end):
        wave = Waveform(t0, (t_end - t0) / 50, np.linspace(0.0, 1e-3, 51), "A")
        net = Network.from_branches([
            Branch("I1", "0", "a", CurrentSource(wave)),
            Branch("R", "a", "0", Resistor(50.0)),
        ], reference="0")
        return transient(net, cfg)

    # within half a step at either end: accepted
    assert run(0.4 * dt, 100e-9 - 0.4 * dt).config is cfg
    with pytest.raises(SimulationError, match="branch 'I1'.*short of the run"):
        run(0.0, 98e-9)
    with pytest.raises(SimulationError, match="branch 'I1'.*short of the run"):
        run(0.6 * dt, 100e-9)


def test_diagnostics_name_the_problem():
    cfg = SimConfig(t_end=1e-9, dt=1e-10)
    no_ref = Network.from_branches([
        Branch("VS", "a", "b", VoltageSource(1.0)),
        Branch("R", "a", "b", Resistor(1.0)),
    ])
    with pytest.raises(SimulationError, match="no reference node"):
        transient(no_ref, cfg)

    no_src = Network.from_branches([
        Branch("R1", "a", "0", Resistor(1.0)),
        Branch("R2", "a", "0", Resistor(1.0)),
    ], reference="0")
    with pytest.raises(SimulationError, match="no sources"):
        transient(no_src, cfg)

    loop = Network.from_branches([
        Branch("VS", "a", "0", VoltageSource(1.0)),
        Branch("RL", "b", "b", Resistor(1.0)),
        Branch("R", "a", "b", Resistor(1.0)),
    ], reference="0")
    with pytest.raises(SimulationError, match="self-loop"):
        transient(loop, cfg)

    floating = Network.from_branches([
        Branch("VS", "a", "0", VoltageSource(1.0)),
        Branch("R", "a", "0", Resistor(1.0)),
        Branch("RX", "c", "d", Resistor(1.0)),
    ], reference="0")
    with pytest.raises(SimulationError, match="no path to reference"):
        transient(floating, cfg)


def test_singular_systems_are_reported():
    cfg = SimConfig(t_end=1e-9, dt=1e-10)
    vs_loop = Network.from_branches([
        Branch("V1", "0", "a", VoltageSource(1.0)),
        Branch("V2", "0", "a", VoltageSource(2.0)),
    ], reference="0")
    with pytest.raises(SimulationError, match="singular system matrix"):
        transient(vs_loop, cfg)

    cutset = Network.from_branches([
        Branch("I1", "0", "a", CurrentSource(1.0)),
        Branch("I2", "a", "0", CurrentSource(2.0)),
    ], reference="0")
    with pytest.raises(SimulationError, match="singular"):
        transient(cutset, cfg)
    with pytest.raises(SimulationError, match="singular"):
        dc_operating_point(cutset)


def test_initial_condition_validation():
    cfg = SimConfig(t_end=1e-9, dt=1e-10)
    with pytest.raises(SimulationError, match="unknown nodes"):
        transient(rc_network(), cfg, InitialCondition(node_voltages={"zz": 1.0}))
    with pytest.raises(SimulationError, match="unknown branches"):
        transient(rc_network(), cfg, InitialCondition(branch_currents={"zz": 1.0}))
    with pytest.raises(SimulationError, match="reference node voltage"):
        transient(rc_network(), cfg, InitialCondition(node_voltages={"0": 1.0}))


def test_sim_config_validation():
    with pytest.raises(SimulationError, match="dt must be > 0"):
        SimConfig(t_end=1e-9, dt=0.0)
    with pytest.raises(SimulationError, match="must cover at least one step"):
        SimConfig(t_end=1e-12, dt=1e-9)
    with pytest.raises(SimulationError, match="unknown method"):
        SimConfig(t_end=1e-9, dt=1e-10, method="euler")
    with pytest.raises(SimulationError, match="solver_tol"):
        SimConfig(t_end=1e-9, dt=1e-10, solver_tol=0.0)
    assert SimConfig(t_end=1e-9, dt=1e-10).steps == 10


def test_t_end_must_be_a_whole_number_of_steps():
    with pytest.raises(SimulationError, match="1.05 steps.*whole number of steps"):
        SimConfig(t_end=1.05e-9, dt=1e-9)
    with pytest.raises(SimulationError, match="whole number of steps"):
        SimConfig(t_end=6e-9 + 0.5e-12, dt=1e-12)
    # t_end / dt overflows to infinity: no step count to round
    for t_end in (1e300, math.inf):
        with pytest.raises(SimulationError, match="too many steps"):
            SimConfig(t_end=t_end, dt=1e-12)
    # rounding of t_end / dt stays far inside the 1e-6 step tolerance
    tau = 1.0 / 3.0e9
    assert SimConfig(t_end=5.2 * tau, dt=tau / 1000).steps == 5200
