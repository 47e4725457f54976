"""Release gate: the eight headline checks at their stated tolerances.

One test per criterion; each prints a single "criterion N: PASS" line
on success (run with -v or -s to see them), and a failed criterion
shows up as that test's FAILED line.
"""

import math
import time

import numpy as np
import pytest

from pulsenet import (Branch, Capacitor, CurrentSource, InitialCondition,
                      Inductor, LaserCircuit, LaserPhysics, Network, Resistor,
                      SimConfig, VoltageSource, Waveform,
                      baseline_subtract, boundary, circuit_from_physics,
                      connected_components, cycle_space, delay_at_level,
                      detector_filter, fwhm, kcl_residual, kolmogorov_q,
                      ks_two_sample, physics_from_circuit, run_driver,
                      sense_current, sweep_runs, transient,
                      waveform_samples_for_cdf)
from pulsenet import cli
from pulsenet.waveform import read_waveform_csv, write_waveform_csv
from conftest import (BIAS, ELEMENT_TABLE, FWHM_PER_SIGMA, gaussian_wave,
                      pulse_spec, random_network, random_physics)


def test_criterion_1_topology_audit():
    start = time.perf_counter()
    rng = np.random.default_rng(20260813)
    for _ in range(1000):
        net = random_network(rng)
        assert np.all(boundary(net).sum(axis=0) == 0)
        basis = cycle_space(net)
        comps = connected_components(net)
        assert basis.dim == len(net.branches) - len(net.nodes) + len(comps)
        for vec in basis.vectors:
            residual = kcl_residual(net, dict(zip(net.branch_ids, vec)))
            assert all(v == 0 for v in residual.values())
    assert time.perf_counter() - start < 5.0
    print("criterion 1 (topology audit, 1000 random networks): PASS")


def test_criterion_2_equivalent_circuit_calibration():
    # Numeric inversion recovers the operating point behind the element
    # table at 300.1 K and 18.4 mA ...
    target = LaserCircuit(**ELEMENT_TABLE)
    phys = physics_from_circuit(target, temperature=300.1,
                                bias_current=18.4e-3, n_e=1.0, n_sat=5.0)
    assert phys.n_photon == pytest.approx(0.1002, rel=5e-3)
    assert phys.tau_photon == pytest.approx(0.2204e-12, rel=5e-3)
    assert phys.tau_spon == pytest.approx(1.000e-9, rel=5e-3)
    assert phys.beta == pytest.approx(1.00e-5, rel=5e-3)
    assert phys.delta_gain == pytest.approx(1.020e-2, rel=5e-3)

    # ... and the rounded operating point reproduces every element value
    # within 0.5%.
    rounded = LaserPhysics(temperature=300.1, bias_current=18.4e-3,
                           n_photon=0.1002, tau_photon=0.2204e-12,
                           tau_spon=1.000e-9, beta=1.004e-5, n_e=1.0,
                           n_sat=5.0, delta_gain=1.020e-2)
    derived = circuit_from_physics(rounded)
    for name, want in ELEMENT_TABLE.items():
        assert getattr(derived, name) == pytest.approx(want, rel=5e-3), name

    rng = np.random.default_rng(7)
    for _ in range(10000):
        p = random_physics(rng)
        back = physics_from_circuit(circuit_from_physics(p),
                                    temperature=p.temperature,
                                    bias_current=p.bias_current,
                                    n_e=p.n_e, n_sat=p.n_sat)
        for name in ("n_photon", "tau_photon", "tau_spon", "beta",
                     "delta_gain"):
            a, b = getattr(p, name), getattr(back, name)
            assert abs(a - b) <= 1e-12 * abs(a), name
    print("criterion 2 (circuit calibration and 10000 round trips): PASS")


def test_criterion_3_transient_correctness():
    start = time.perf_counter()
    # RC step response against the analytic exponential.
    tau = 1e3 * 1e-9
    rc = Network.from_branches([
        Branch("VS", "a", "0", VoltageSource(1.0)),
        Branch("R", "a", "b", Resistor(1e3)),
        Branch("C", "b", "0", Capacitor(1e-9)),
    ], reference="0")
    consistent = InitialCondition(node_voltages={"a": 1.0},
                                  branch_currents={"C": 1e-3, "VS": -1e-3})
    for method in ("trapezoidal", "backward-euler"):
        cfg = SimConfig(t_end=5.2 * tau, dt=tau / 1000.0, method=method)
        v = transient(rc, cfg, consistent).node_voltages["b"].samples
        for mult in (1.0, 2.0, 5.0):
            k = int(round(mult * tau / cfg.dt))
            exact = 1.0 - math.exp(-k * cfg.dt / tau)
            assert abs(v[k] - exact) <= 1e-3 * exact, (method, mult)

    # Trapezoidal LC amplitude drift over 1000 periods.
    period = 2.0 * math.pi
    lc = Network.from_branches([
        Branch("L", "a", "0", Inductor(1.0)),
        Branch("C", "a", "0", Capacitor(1.0)),
        Branch("I0", "0", "a", CurrentSource(0.0)),
    ], reference="0")
    cfg = SimConfig(t_end=1000.0 * period, dt=period / 40.0,
                    method="trapezoidal")
    res = transient(lc, cfg, InitialCondition(node_voltages={"a": 1.0}))
    amp = np.sqrt(res.node_voltages["a"].samples ** 2
                  + res.branch_currents["L"].samples ** 2)
    assert (amp.max() - amp.min()) / amp[0] < 1e-9

    # Per-step KCL residual on every shipped example run.
    circ = LaserCircuit(**ELEMENT_TABLE)
    cfg = SimConfig(t_end=6e-9, dt=1e-12)
    for amplitude in (10.5e-3, 8.2e-3):
        res = run_driver(pulse_spec(amplitude=amplitude), circ, cfg)
        assert res.max_kcl_residual <= cfg.solver_tol * res.current_scale
    assert time.perf_counter() - start < 30.0
    print("criterion 3 (transient correctness): PASS")


def test_criterion_4_driver_pulse_reproduction():
    circ = LaserCircuit(**ELEMENT_TABLE)
    cfg = SimConfig(t_end=6e-9, dt=1e-12)
    m = fwhm(sense_current(run_driver(pulse_spec(), circ, cfg)),
             baseline=BIAS)
    assert m.peak == pytest.approx(41.5e-3, rel=0.02)
    assert m.fwhm == pytest.approx(600e-12, rel=0.10)

    cfg12 = SimConfig(t_end=12e-9, dt=2e-12)
    delay_pts = [p for p, _ in sweep_runs(pulse_spec(delay=1e-9), circ,
                                          "delay", [1e-9, 9e-9], cfg12)]
    assert delay_pts[1].t_peak - delay_pts[0].t_peak == pytest.approx(
        8e-9, abs=cfg12.dt)

    amp_pts = [p for p, _ in sweep_runs(pulse_spec(), circ, "amplitude",
                                        [10.5e-3, 8.2e-3], cfg)]
    assert amp_pts[0].peak == pytest.approx(41.5e-3, rel=0.02)
    assert amp_pts[1].peak == pytest.approx(39.2e-3, rel=0.02)
    print("criterion 4 (41.5 mA / 600 ps pulse and sweeps): PASS")


def test_criterion_5_metrology():
    sigma = 254.8e-12
    for ratio in (20, 50):
        dt = sigma / ratio
        wave = gaussian_wave(sigma, dt)
        assert fwhm(wave).fwhm == pytest.approx(FWHM_PER_SIGMA * sigma,
                                                abs=dt)
    dt = 1e-12
    rect = Waveform(0.0, dt, np.concatenate(
        [np.zeros(40), np.ones(100), np.zeros(40)]), "A")
    assert fwhm(rect).fwhm == pytest.approx(100 * dt, abs=dt)

    dt = 7e-12
    a = gaussian_wave(150e-12, dt, center=2e-9, half_span=1.5e-9)
    b = gaussian_wave(150e-12, dt, center=2e-9 + 60e-12, half_span=1.5e-9)
    assert delay_at_level(a, b, 0.5) == pytest.approx(60e-12, abs=dt / 10)

    base = gaussian_wave(150e-12, 5e-12)
    m0 = fwhm(base)
    for c in (2.0, 0.25, 1024.0):
        m = fwhm(base.with_samples(c * base.samples))
        assert m.fwhm == m0.fwhm
        assert m.half_crossings == m0.half_crossings
    arb = fwhm(base.with_samples(3.7 * base.samples))
    assert arb.fwhm == pytest.approx(m0.fwhm, rel=1e-12)

    shift = 1.25e-9
    moved = Waveform(base.t0 + shift, base.dt, base.samples, base.unit)
    mm = fwhm(moved)
    assert mm.fwhm == m0.fwhm
    assert mm.half_crossings == (m0.half_crossings[0] + shift,
                                 m0.half_crossings[1] + shift)
    print("criterion 5 (metrology identities): PASS")


def test_criterion_6_ks_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = int(rng.integers(1, 51))
        n = int(rng.integers(1, 51))
        a = rng.integers(0, 12, size=m).astype(float)
        b = rng.integers(0, 12, size=n).astype(float)
        res = ks_two_sample(a, b)
        pooled = np.concatenate([a, b])
        num = max(abs(int(np.count_nonzero(a <= x)) * n
                      - int(np.count_nonzero(b <= x)) * m) for x in pooled)
        assert res.d_stat == num / (m * n)

    assert kolmogorov_q(1.0) == pytest.approx(0.2700, abs=5e-4)
    p = kolmogorov_q(0.0281 * math.sqrt(203.0))
    assert p == pytest.approx(0.997, abs=2e-3)

    rng = np.random.default_rng(20260813)
    rejections = sum(
        not ks_two_sample(rng.standard_normal(500),
                          rng.standard_normal(500)).same_distribution
        for _ in range(1000))
    assert 0.03 <= rejections / 1000 <= 0.08
    assert time.perf_counter() - start < 60.0
    print("criterion 6 (KS statistics suite): PASS")


def test_criterion_7_end_to_end_indistinguishability():
    circ = LaserCircuit(**ELEMENT_TABLE)
    cfg = SimConfig(t_end=6e-9, dt=1e-12)

    def state(amplitude):
        wave = sense_current(run_driver(pulse_spec(amplitude=amplitude),
                                        circ, cfg))
        return baseline_subtract(detector_filter(wave, 500e-12),
                                 (0.0, 1.5e-9))

    a, b = waveform_samples_for_cdf(state(10.5e-3), state(8.2e-3))
    res = ks_two_sample(a, b, alpha=0.05)
    assert res.p_value > 0.05
    assert res.same_distribution is True
    print("criterion 7 (two drive levels, one distribution): PASS")


def test_criterion_8_plumbing(tmp_path, capsys):
    # Waveform CSV round trip, bit exact.
    rng = np.random.default_rng(3)
    wave = Waveform(2.5e-10, 1e-12, rng.normal(size=257), "A")
    path = tmp_path / "w.csv"
    write_waveform_csv(path, wave)
    back = read_waveform_csv(path)
    assert (back.t0, back.dt, back.unit) == (wave.t0, wave.dt, "A")
    assert np.array_equal(back.samples, wave.samples)

    # Identical configs produce byte-identical artifacts.
    cfg = tmp_path / "small.cfg"
    cfg.write_text(
        "bias = 31mA\namplitude = 10.5mA\nwidth = 600ps\ndelay = 1ns\n"
        "edge = 100ps\nR = 2.555ohm\nL = 6.184pH\nC = 0.3557nF\n"
        "R_spon = 2.811mohm\nR_o = -5.511mohm\nt_end = 3ns\ndt = 2ps\n",
        encoding="ascii")
    runs = []
    for k in (1, 2):
        out = tmp_path / f"r{k}.csv"
        svg = tmp_path / f"r{k}.svg"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--plot", str(svg)]) == 0
        runs.append((out.read_bytes(), svg.read_bytes()))
    assert runs[0] == runs[1]

    # Malformed inputs: named diagnostics, documented exit codes.
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("witdh = 600ps\n", encoding="ascii")
    assert cli.main(["simulate", "--config", str(bad_cfg),
                     "--out", str(tmp_path / "x.csv")]) == 1
    assert "witdh" in capsys.readouterr().err
    assert cli.main([]) == 2

    jitter = tmp_path / "jitter.csv"
    jitter.write_text("0,0\n1e-9,1\n2.1e-9,2\n3e-9,3\n", encoding="ascii")
    assert cli.main(["metrics", str(jitter)]) == 1
    err = capsys.readouterr().err
    assert "non-uniform sampling at data row 3" in err
    capsys.readouterr()
    print("criterion 8 (round trips, determinism, diagnostics): PASS")
