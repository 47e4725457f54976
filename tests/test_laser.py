"""Equivalent-circuit calibration of the diode small-signal model."""

import math

import numpy as np
import pytest

from pulsenet import (LaserCircuit, LaserPhysics, ModelError, VoltageSource,
                      circuit_from_physics, cycle_space,
                      differential_resistance, equivalent_network,
                      physics_from_circuit)

# Calibration point: fixed junction conditions plus the operating point
# recovered by exact inversion of the published element values.
CAL_T = 300.1
CAL_ID = 18.4e-3
CAL_NE = 1.0
CAL_NSAT = 5.0

# Element values the calibration must reproduce.
TABLE = {"R": 2.555, "L": 6.184e-12, "C": 0.3557e-9,
         "R_spon": 2.811e-3, "R_o": -5.511e-3}

# Frozen inversion of TABLE at the calibration point (independent solve).
INVERTED = {"n_photon": 0.10017064630815575,
            "tau_photon": 2.2037331212070608e-13,
            "tau_spon": 9.998499356685772e-10,
            "beta": 1.0034386836983567e-05,
            "delta_gain": 0.010199499561548435}


def cal_physics(**overrides):
    params = dict(temperature=CAL_T, bias_current=CAL_ID, n_e=CAL_NE,
                  n_sat=CAL_NSAT, **INVERTED)
    params.update(overrides)
    return LaserPhysics(**params)


def test_differential_resistance_values():
    assert differential_resistance(300.0, 18.4e-3) == pytest.approx(2.810, abs=1e-3)
    assert differential_resistance(300.0, 31e-3) == pytest.approx(1.668, abs=1e-3)
    assert differential_resistance(CAL_T, CAL_ID) == pytest.approx(
        2.810936001317338, rel=1e-15)


def test_differential_resistance_scalings():
    rd = differential_resistance(300.0, 10e-3)
    assert differential_resistance(300.0, 20e-3) == rd / 2.0  # exact 1/I
    # strictly decreasing in current, linear in temperature
    grid = np.linspace(1e-3, 50e-3, 40)
    vals = [differential_resistance(300.0, i) for i in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    for t in (250.0, 300.0, 350.0):
        assert differential_resistance(t, 10e-3) / t == pytest.approx(
            differential_resistance(300.0, 10e-3) / 300.0, rel=1e-14)


def test_calibration_reproduces_published_elements():
    circ = circuit_from_physics(cal_physics())
    for name, want in TABLE.items():
        got = getattr(circ, name)
        assert abs(got - want) <= 0.005 * abs(want), (name, got, want)


def test_inversion_recovers_the_operating_point():
    circ = LaserCircuit(**TABLE)
    phys = physics_from_circuit(circ, temperature=CAL_T, bias_current=CAL_ID,
                                n_e=CAL_NE, n_sat=CAL_NSAT)
    for name, want in INVERTED.items():
        assert getattr(phys, name) == pytest.approx(want, rel=1e-13), name


def random_physics(rng):
    return LaserPhysics(
        temperature=float(rng.uniform(250.0, 400.0)),
        bias_current=float(10 ** rng.uniform(-3, -1)),
        n_photon=float(10 ** rng.uniform(-3, math.log10(50.0))),
        tau_photon=float(10 ** rng.uniform(-14, -11)),
        tau_spon=float(10 ** rng.uniform(-10, -8)),
        beta=float(10 ** rng.uniform(-7, -2)),
        n_e=float(10 ** rng.uniform(-1, 1)),
        n_sat=float(10 ** rng.uniform(math.log10(0.5), math.log10(50.0))),
        delta_gain=float(10 ** rng.uniform(-4, -1)),
    )


def test_round_trip_physics_circuit_physics():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        phys = random_physics(rng)
        circ = circuit_from_physics(phys)
        back = physics_from_circuit(circ, temperature=phys.temperature,
                                    bias_current=phys.bias_current,
                                    n_e=phys.n_e, n_sat=phys.n_sat)
        for name in ("n_photon", "tau_photon", "tau_spon", "beta", "delta_gain"):
            a, b = getattr(phys, name), getattr(back, name)
            assert abs(a - b) <= 1e-12 * abs(a), (name, a, b)


def test_r_decreases_monotonically_with_photon_number():
    base = cal_physics()
    values = [circuit_from_physics(cal_physics(n_photon=n)).R
              for n in np.logspace(-2, 2, 30)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 0.1 * circuit_from_physics(base).R


def test_beta_zero_gives_zero_spontaneous_resistance():
    circ = circuit_from_physics(cal_physics(beta=0.0))
    assert circ.R_spon == 0.0
    # the fragment still assembles, with the short realized as a 0 V source
    net = equivalent_network(circ)
    assert isinstance(net.branch("LD_RS").element, VoltageSource)


def test_sensitivities_match_analytic_partials():
    """Central differences against the closed-form derivatives."""
    phys = cal_physics()
    rd = differential_resistance(phys.temperature, phys.bias_current)
    np_ = phys.n_photon
    checks = [
        ("n_photon", "R", -rd / (np_ + 1.0) ** 2),
        ("n_photon", "L", -rd * phys.tau_photon / np_ ** 2),
        ("tau_photon", "L", rd / np_),
        ("tau_spon", "C", 1.0 / rd),
        ("beta", "R_spon", rd * phys.n_e / np_ ** 2),
        ("delta_gain", "R_o", -(rd / phys.n_sat) / (1.0 + np_ / phys.n_sat) ** 2),
        ("temperature", "C", -phys.tau_spon / (rd * phys.temperature)),
        ("bias_current", "R", -rd / (phys.bias_current * (np_ + 1.0))),
    ]
    for param, out, analytic in checks:
        x0 = getattr(phys, param)
        h = 1e-7 * x0
        hi = circuit_from_physics(cal_physics(**{param: x0 + h}))
        lo = circuit_from_physics(cal_physics(**{param: x0 - h}))
        numeric = (getattr(hi, out) - getattr(lo, out)) / (2.0 * h)
        assert numeric == pytest.approx(analytic, rel=1e-6), (param, out)


def test_physics_validation():
    with pytest.raises(ModelError, match="n_photon"):
        cal_physics(n_photon=0.0)
    with pytest.raises(ModelError, match="n_photon"):
        cal_physics(n_photon=5e-10)  # below the 1e-9 floor, never clamped
    with pytest.raises(ModelError, match="beta"):
        cal_physics(beta=1.0)
    with pytest.raises(ModelError, match="beta"):
        cal_physics(beta=-1e-6)
    with pytest.raises(ModelError, match="temperature"):
        cal_physics(temperature=0.0)
    with pytest.raises(ModelError, match="tau_photon"):
        cal_physics(tau_photon=-1e-13)
    with pytest.raises(ModelError, match="below threshold"):
        cal_physics(bias_current=10e-3, threshold_current=18.4e-3)
    # no threshold given: any positive bias is taken as valid
    assert cal_physics(bias_current=1e-3).bias_current == 1e-3


def test_inversion_rejects_non_physical_resistance():
    rd = differential_resistance(CAL_T, CAL_ID)
    at_boundary = LaserCircuit(**dict(TABLE, R=rd))
    with pytest.raises(ModelError, match="n_photon"):
        physics_from_circuit(at_boundary, temperature=CAL_T,
                             bias_current=CAL_ID, n_e=CAL_NE, n_sat=CAL_NSAT)
    too_large = LaserCircuit(**dict(TABLE, R=rd * 1.5))
    with pytest.raises(ModelError, match="inconsistent"):
        physics_from_circuit(too_large, temperature=CAL_T,
                             bias_current=CAL_ID, n_e=CAL_NE, n_sat=CAL_NSAT)


def test_circuit_validation():
    with pytest.raises(ModelError, match="R must be"):
        LaserCircuit(**dict(TABLE, R=-1.0))
    with pytest.raises(ModelError, match="R_o"):
        LaserCircuit(**dict(TABLE, R_o=+1e-3))
    with pytest.raises(ModelError, match="series resistance"):
        LaserCircuit(**dict(TABLE, R_o=-3.0))  # overwhelms R + R_spon
    assert LaserCircuit(**dict(TABLE, R_spon=0.0)).R_spon == 0.0


def test_equivalent_network_shape():
    circ = circuit_from_physics(cal_physics())
    net = equivalent_network(circ, anode="a", cathode="k")
    assert set(net.branch_ids) == {"LD_R", "LD_L", "LD_RS", "LD_RO", "LD_C"}
    internal = set(net.nodes) - {"a", "k"}
    assert internal == {"LD_n1", "LD_n2", "LD_n3"}
    assert cycle_space(net).dim == 1  # series chain against the parallel C
    assert circ.series_resistance == pytest.approx(2.552, abs=2e-3)
