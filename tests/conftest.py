"""Shared fixtures and builders for the test suite."""

import math
import tracemalloc

import numpy as np

from pulsenet import Branch, LaserPhysics, Network, StimulusSpec, Waveform

#: The published laser element values that the shipped configs use.
ELEMENT_TABLE = dict(R=2.555, L=6.184e-12, C=0.3557e-9,
                     R_spon=2.811e-3, R_o=-5.511e-3)
#: The shipped pulse configs' bias current.
BIAS = 31e-3
FWHM_PER_SIGMA = 2.3548200450309493  # 2*sqrt(2 ln 2)


def pulse_spec(**overrides):
    """The shipped 600 ps pulse on the bias, with fields overridden."""
    base = dict(bias=BIAS, amplitude=10.5e-3, width=600e-12,
                delay=2e-9, edge=100e-12)
    base.update(overrides)
    return StimulusSpec(**base)


def random_physics(rng):
    """Operating point drawn log-uniformly over the calibrated ranges."""
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


def random_network(rng, max_nodes=20, max_branches=40):
    """Random directed multigraph; self-loops and isolated nodes allowed."""
    n_nodes = int(rng.integers(2, max_nodes + 1))
    n_branches = int(rng.integers(1, max_branches + 1))
    nodes = [f"n{k}" for k in range(n_nodes)]
    branches = []
    for k in range(n_branches):
        start = nodes[int(rng.integers(n_nodes))]
        end = nodes[int(rng.integers(n_nodes))]
        branches.append(Branch(f"b{k}", start, end))
    return Network.from_branches(branches, extra_nodes=nodes)


def gaussian_wave(sigma, dt, center=None, t0=0.0, half_span=None,
                  amplitude=1.0, unit=""):
    """Sampled Gaussian pulse; the analytic FWHM is 2*sqrt(2 ln 2)*sigma."""
    if half_span is None:
        half_span = 6.0 * sigma
    if center is None:
        center = t0 + half_span
    n = int(round(2.0 * half_span / dt)) + 1
    t = t0 + dt * np.arange(n)
    return Waveform(t0, dt, amplitude * np.exp(-0.5 * ((t - center) / sigma) ** 2),
                    unit)


def triangle_wave(base, dt, center=None, t0=0.0, amplitude=1.0):
    """Symmetric triangle of the given base width (FWHM = base / 2)."""
    half_span = base
    if center is None:
        center = t0 + half_span
    n = int(round(2.0 * half_span / dt)) + 1
    t = t0 + dt * np.arange(n)
    s = amplitude * np.clip(1.0 - np.abs(t - center) / (0.5 * base), 0.0, None)
    return Waveform(t0, dt, s)


def traced_peak(fn, *args):
    """Bytes at the tracemalloc peak of one call of ``fn(*args)``."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
