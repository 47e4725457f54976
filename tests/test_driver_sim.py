"""Full driver runs: pulse geometry, tuning sweeps, detector filtering."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from pulsenet import (Branch, Capacitor, CurrentSource, InitialCondition,
                      Inductor, LaserCircuit, Network, OutputFilter, Resistor,
                      SimConfig, SimulationError, SweepPoint, Waveform,
                      boundary, dc_operating_point, detector_filter,
                      driver_network, fwhm, run_driver, sense_current,
                      simulate, stimulus, sweep_runs, transient)
from conftest import BIAS, ELEMENT_TABLE, pulse_spec, traced_peak


def circuit():
    return LaserCircuit(**ELEMENT_TABLE)


def test_driver_pulse_peak_and_width():
    cfg = SimConfig(t_end=6e-9, dt=1e-12)
    res = run_driver(pulse_spec(), circuit(), cfg)
    m = fwhm(sense_current(res), baseline=BIAS)
    assert m.peak == pytest.approx(41.5e-3, rel=0.02)
    assert m.fwhm == pytest.approx(600e-12, rel=0.10)
    assert res.max_kcl_residual <= cfg.solver_tol * res.current_scale


def test_operating_point_carries_the_bias():
    net = driver_network(pulse_spec(), circuit(), t_end=6e-9, dt=1e-12)
    op = dc_operating_point(net)
    # All of the bias flows through the laser chain at DC (caps open).
    assert op.branch_currents["LTEE"] == pytest.approx(BIAS, rel=1e-9)
    assert op.branch_currents["LD_L"] == pytest.approx(BIAS, rel=1e-9)


def test_ideal_source_injection_identity():
    # Without tee dynamics the sense branch must carry exactly the sum
    # of the bias and the shaped perturbation, step for step.
    cfg = SimConfig(t_end=6e-9, dt=1e-12)
    res = run_driver(pulse_spec(), circuit(), cfg, bias_tee=False)
    w = sense_current(res)
    stim = stimulus(pulse_spec(), t_end=cfg.steps * cfg.dt, dt=cfg.dt)
    err = np.max(np.abs(w.samples - (BIAS + stim.samples)))
    assert err <= cfg.solver_tol * res.current_scale


def test_sense_current_measures_the_source_not_the_laser():
    # Each side of the bias tee is in series with an ideal current
    # source, so by the current law the sense branch carries bias +
    # stimulus whatever the laser does: the sense pulse measures the
    # source.  The laser's series arm sees a smaller, slower pulse.
    cfg = SimConfig(t_end=6e-9, dt=1e-12)
    res = run_driver(pulse_spec(), circuit(), cfg)
    stim = stimulus(pulse_spec(), t_end=cfg.steps * cfg.dt, dt=cfg.dt)
    err = np.max(np.abs(sense_current(res).samples - (BIAS + stim.samples)))
    assert err <= 1e-12 * BIAS
    arm = fwhm(res.branch_currents["LD_L"], baseline=BIAS)
    assert arm.peak - BIAS < 0.5 * pulse_spec().amplitude
    assert arm.fwhm > 1.5 * pulse_spec().width


def laser_arm(spec, cfg):
    return run_driver(spec, circuit(), cfg).branch_currents["LD_L"].samples


@pytest.mark.parametrize("method", ["trapezoidal", "backward-euler"])
def test_a_train_is_the_sum_of_its_pulses(method):
    # Superposition: the laser arm's response to a train, less the
    # bias-only run, is the sum of the responses to each of its pulses
    # run alone.  A Gaussian is nonzero from t = 0 on, so each pulse is
    # its own run (delay + k/rate at the default 100 kHz, where the next
    # pulse is exactly zero) rather than a shifted copy of the first.
    # Measured gap: 4.6e-17 A or less, against peaks of 4.5-5.1 mA.
    # 6000 steps: the state crosses a 4096-step block boundary
    cfg = SimConfig(t_end=12e-9, dt=2e-12, method=method)
    bias = laser_arm(pulse_spec(amplitude=0.0), cfg)
    for shape in ("trapezoid", "raised-cosine", "gaussian"):
        for rate in (250e6, 1 / 3e-9):
            spec = pulse_spec(shape=shape, rate=rate, delay=1e-9)
            train = laser_arm(spec, cfg) - bias
            pulses = sum(laser_arm(replace(spec, delay=spec.delay + k / rate,
                                           rate=100e3), cfg) - bias
                         for k in range(math.ceil(cfg.t_end * rate) + 1))
            gap = np.max(np.abs(train - pulses))
            assert gap <= 1e-12 * np.max(np.abs(train)), (shape, rate)


@pytest.mark.parametrize("method", ["trapezoidal", "backward-euler"])
def test_the_arm_is_the_stimulus_convolved_with_its_unit_sample_response(method):
    # h is the laser arm's response to a 1 A sample on IPULSE at step 1,
    # from the bias-only operating point; the shipped stimulus (zero at
    # t = 0) convolved with h is the driver run's arm current less its
    # operating point.  Measured gap: 4.3e-13 A, 8.7e-11 of the peak.
    cfg = SimConfig(t_end=6e-9, dt=1e-12, method=method)
    net = driver_network(pulse_spec(), circuit(), t_end=cfg.t_end, dt=cfg.dt)
    unit = np.zeros(cfg.steps + 1)
    unit[1] = 1.0
    sample = CurrentSource(Waveform(0.0, cfg.dt, unit, "A"))
    net_h = Network(net.nodes, [replace(br, element=sample) if br.id == "IPULSE"
                                else br for br in net.branches], net.reference)
    arm_h = transient(net_h, cfg, dc_operating_point(net_h)).branch_currents["LD_L"]
    h = arm_h.samples[1:] - arm_h.samples[0]
    arm = laser_arm(pulse_spec(), cfg)
    stim = stimulus(pulse_spec(), t_end=cfg.t_end, dt=cfg.dt).samples
    assert stim[0] == 0.0
    response = np.convolve(stim, h)[:cfg.steps + 1]
    assert np.max(np.abs((arm - arm[0]) - response)) <= 1e-9 * np.max(np.abs(arm - arm[0]))


def test_nodal_residuals_sum_to_zero():
    # Boundary columns sum to zero, so the nodal imbalances must cancel
    # across the network far below the individual residual level.
    cfg = SimConfig(t_end=6e-9, dt=2e-12)
    res = run_driver(pulse_spec(), circuit(), cfg)
    net = res.network
    I = np.vstack([res.branch_currents[br.id].samples for br in net.branches])
    D = boundary(net).matrix.astype(float)
    resid = D @ I[:, 1:]
    assert np.abs(resid).max() <= cfg.solver_tol * res.current_scale
    assert np.abs(resid.sum(axis=0)).max() <= 1e-15 * res.current_scale


def test_delay_sweep_shifts_the_peak_linearly():
    cfg = SimConfig(t_end=12e-9, dt=2e-12)
    points = [p for p, _ in sweep_runs(pulse_spec(delay=1e-9), circuit(),
                                       "delay", [1e-9, 9e-9], cfg)]
    dt = cfg.dt
    shift = points[1].t_peak - points[0].t_peak
    assert shift == pytest.approx(8e-9, abs=dt)
    # Mid-crossing times are steadier than the flat-top argmax.
    assert points[1].t_mid - points[0].t_mid == pytest.approx(8e-9, abs=dt)
    slope = shift / 8e-9
    assert slope == pytest.approx(1.0, abs=dt / 8e-9)


def test_amplitude_sweep_hits_both_tuned_peaks():
    cfg = SimConfig(t_end=6e-9, dt=1e-12)
    points = [p for p, _ in sweep_runs(pulse_spec(), circuit(), "amplitude",
                                       [10.5e-3, 8.2e-3], cfg)]
    assert points[0].peak == pytest.approx(41.5e-3, rel=0.02)
    assert points[1].peak == pytest.approx(39.2e-3, rel=0.02)
    assert points[0].value == 10.5e-3


def test_width_sweep_tracks_the_request():
    cfg = SimConfig(t_end=6e-9, dt=1e-12)
    points = [p for p, _ in sweep_runs(pulse_spec(), circuit(), "width",
                                       [400e-12, 600e-12], cfg)]
    assert points[0].fwhm == pytest.approx(400e-12, rel=0.10)
    assert points[1].fwhm == pytest.approx(600e-12, rel=0.10)


def test_single_value_sweep_matches_a_plain_run():
    cfg = SimConfig(t_end=6e-9, dt=2e-12)
    [(point, wave)] = sweep_runs(pulse_spec(), circuit(), "amplitude",
                                 [10.5e-3], cfg)
    direct = sense_current(run_driver(pulse_spec(), circuit(), cfg))
    assert np.array_equal(wave.samples, direct.samples)


def test_sweep_points_equal_single_runs():
    # Every point of a sweep is the plain run of its stimulus, bit for
    # bit: the waveform and the summary both.
    cfg = SimConfig(t_end=6e-9, dt=2e-12)
    grid = {"delay": [1.5e-9, 2e-9, 2.5e-9],
            "amplitude": [8.2e-3, 10.5e-3, 12e-3],
            "width": [400e-12, 500e-12, 600e-12]}
    for param, values in grid.items():
        runs = sweep_runs(pulse_spec(), circuit(), param, values, cfg)
        assert [point.value for point, _ in runs] == values
        for value, (point, wave) in zip(values, runs):
            spec = replace(pulse_spec(), **{param: value})
            direct = sense_current(run_driver(spec, circuit(), cfg))
            assert np.array_equal(wave.samples, direct.samples)
            # The point holds its own samples, not the run's whole record.
            assert wave.samples.base is None
            m = fwhm(direct.with_samples(direct.samples - BIAS))
            peak = direct.samples[np.argmax(np.abs(direct.samples - BIAS))]
            assert point == SweepPoint(
                value=value, peak=float(peak), t_peak=m.t_peak, fwhm=m.fwhm,
                t_mid=0.5 * (m.half_crossings[0] + m.half_crossings[1]))


def test_sweep_leaves_the_warning_filters_as_found(recwarn):
    # Two pulses 2.5 ns apart reach the same maximum, so fwhm warns
    # inside the sweep; the first check on the recorded warnings makes
    # sure it did.
    cfg = SimConfig(t_end=6e-9, dt=2e-12)
    before = list(warnings.filters)
    runs = sweep_runs(pulse_spec(rate=1 / 2.5e-9, delay=1e-9), circuit(),
                      "amplitude", [10.6e-3, 10.7e-3], cfg)
    assert warnings.filters == before
    assert any("separate places" in str(w.message) for w in recwarn)
    recwarn.clear()
    # A later fwhm on such a pulse still warns instead of raising.
    _, sense = runs[0]
    fwhm(sense.with_samples(sense.samples - BIAS))
    assert any("separate places" in str(w.message) for w in recwarn)


def test_sweep_argument_validation():
    cfg = SimConfig(t_end=6e-9, dt=1e-12)
    with pytest.raises(SimulationError, match="unknown sweep parameter"):
        sweep_runs(pulse_spec(), circuit(), "edge", [1e-12], cfg)
    with pytest.raises(SimulationError, match="at least one value"):
        sweep_runs(pulse_spec(), circuit(), "delay", [], cfg)


def test_grid_refinement_leaves_the_width_in_place():
    # Halving dt may move the reported FWHM by less than a step at most.
    for method in ("backward-euler", "trapezoidal"):
        widths = {}
        for dt in (2e-12, 1e-12):
            cfg = SimConfig(t_end=6e-9, dt=dt, method=method)
            res = run_driver(pulse_spec(), circuit(), cfg)
            widths[dt] = fwhm(sense_current(res), baseline=BIAS).fwhm
        assert abs(widths[2e-12] - widths[1e-12]) < 1e-12


def test_detector_filter_step_rise_time():
    from pulsenet import Waveform
    dt = 1e-12
    n = 6000
    step = Waveform(0.0, dt, np.concatenate([np.zeros(100), np.ones(n)]), "A")
    out = detector_filter(step, 500e-12)
    s = out.samples

    def crossing(level):
        k = int(np.argmax(s >= level))
        frac = (level - s[k - 1]) / (s[k] - s[k - 1])
        return (k - 1 + frac) * dt

    rise = crossing(0.9) - crossing(0.1)
    assert rise == pytest.approx(500e-12, abs=dt)


def test_detector_filter_broadens_into_the_measured_band():
    spec = pulse_spec(width=496e-12)
    cfg = SimConfig(t_end=6e-9, dt=1e-12)
    wave = sense_current(run_driver(spec, circuit(), cfg))
    out = detector_filter(wave, 500e-12)
    width = fwhm(out, baseline=BIAS).fwhm
    assert 500e-12 <= width <= 600e-12


def test_detector_filter_passthrough_limit():
    cfg = SimConfig(t_end=6e-9, dt=1e-12)
    wave = sense_current(run_driver(pulse_spec(), circuit(), cfg))
    out = detector_filter(wave, cfg.dt / 1000.0)
    err = np.max(np.abs(out.samples - wave.samples)) / np.max(np.abs(wave.samples))
    assert err <= 0.01
    with pytest.raises(SimulationError, match="rise time"):
        detector_filter(wave, 0.0)


@pytest.mark.parametrize("n", [6001, 100_000, 3 * simulate._FILTER_BLOCK + 7])
def test_detector_filter_matches_lfilter_bit_for_bit(n):
    signal = pytest.importorskip("scipy.signal")
    from pulsenet import Waveform
    rng = np.random.default_rng(n)
    wave = Waveform(0.0, 1e-12, rng.normal(31e-3, 5e-3, size=n), "A")
    rise = 500e-12
    out = detector_filter(wave, rise)
    c = 1.0 - math.exp(-wave.dt / (rise / math.log(9.0)))
    x = wave.samples
    ref, _ = signal.lfilter([c], [1.0, -(1.0 - c)], x, zi=[(1.0 - c) * x[0]])
    assert np.array_equal(out.samples, ref)
    assert (out.t0, out.dt, out.unit) == (wave.t0, wave.dt, wave.unit)


def test_detector_filter_holds_one_block_besides_its_output():
    wave = Waveform(0.0, 1e-12, np.random.default_rng(4).normal(
        31e-3, 5e-3, size=200_001), "A")
    detector_filter(wave, 500e-12)
    peak = traced_peak(detector_filter, wave, 500e-12)
    assert peak <= 2 * wave.samples.nbytes + 1_000_000


def test_backward_euler_dissipates_stored_energy():
    # Passive RLC ringdown: discrete stored energy must never grow.
    net = Network.from_branches([
        Branch("C", "a", "0", Capacitor(1e-9)),
        Branch("R", "a", "b", Resistor(5.0)),
        Branch("L", "b", "0", Inductor(1e-6)),
        Branch("I0", "0", "a", CurrentSource(0.0)),
    ], reference="0")
    cfg = SimConfig(t_end=20e-6, dt=10e-9, method="backward-euler")
    res = transient(net, cfg, InitialCondition(node_voltages={"a": 1.0}))
    v = res.node_voltages["a"].samples
    i = res.branch_currents["L"].samples
    energy = 0.5 * 1e-9 * v * v + 0.5 * 1e-6 * i * i
    assert np.all(np.diff(energy) <= 1e-15 * energy[0])


def test_output_filter_and_parasitic_branches():
    spec = pulse_spec()
    plain = driver_network(spec, circuit(), t_end=6e-9, dt=1e-12)
    assert "mon" not in plain.nodes
    filtered = driver_network(spec, circuit(), t_end=6e-9, dt=1e-12,
                              output_filter=OutputFilter(50.0, 1e-12))
    assert {"RFILT", "CFILT"} <= set(filtered.branch_ids)
    assert len(filtered.nodes) == len(plain.nodes) + 1
    with_par = driver_network(spec, circuit(), t_end=6e-9, dt=1e-12,
                              parasitic_inductance=2e-9)
    assert "LPAR" in with_par.branch_ids


def test_sense_current_requires_a_driver_result():
    net = Network.from_branches([
        Branch("VS", "a", "0", CurrentSource(1e-3)),
        Branch("R", "a", "0", Resistor(50.0)),
    ], reference="0")
    res = transient(net, SimConfig(t_end=1e-9, dt=1e-10))
    with pytest.raises(SimulationError, match="not a driver run"):
        sense_current(res)
