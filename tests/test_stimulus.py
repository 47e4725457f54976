"""Shaped perturbation trains: geometry, placement, and resolution guards."""

import math
import tracemalloc

import numpy as np
import pytest

from pulsenet import SimulationError, StimulusSpec, TopologyError, fwhm, stimulus
from pulsenet.driver import MIN_SAMPLES_PER_FWHM, _shape_values


def spec600(**overrides):
    base = dict(bias=31e-3, amplitude=7.5e-3, width=600e-12,
                delay=1e-9, edge=100e-12, rate=100e3, shape="trapezoid")
    base.update(overrides)
    return StimulusSpec(**base)


def test_trapezoid_fwhm_matches_requested_width():
    dt = 1e-12
    wave = stimulus(spec600(), t_end=4e-9, dt=dt)
    assert fwhm(wave).fwhm == pytest.approx(600e-12, abs=dt)
    assert wave.samples.max() == pytest.approx(7.5e-3, rel=1e-12)


def test_train_spacing_follows_repetition_rate():
    spec = spec600()
    assert spec.pulse_center(1) - spec.pulse_center(0) == pytest.approx(1e-5, rel=1e-12)
    # Sample a window around each of the first two pulses and check that
    # the peaks land one repetition period apart on the grid.
    dt = 25e-12
    wave = stimulus(spec, t_end=10.5e-6, dt=dt)
    mid = wave.index_at(5e-6)
    first_peak = int(np.argmax(wave.samples[:mid]))
    second_peak = mid + int(np.argmax(wave.samples[mid:]))
    spacing = (second_peak - first_peak) * dt
    assert spacing == pytest.approx(1e-5, abs=dt)


def test_zero_amplitude_gives_all_zero_waveform():
    wave = stimulus(spec600(amplitude=0.0), t_end=4e-9, dt=1e-12)
    assert not np.any(wave.samples)


def test_gaussian_matches_closed_form():
    w = 600e-12
    spec = spec600(shape="gaussian", width=w, edge=0.0)
    dt = 2e-12
    wave = stimulus(spec, t_end=6e-9, dt=dt)
    t0 = spec.pulse_center(0)
    expected = 7.5e-3 * np.exp(-4.0 * math.log(2.0) * ((wave.times() - t0) / w) ** 2)
    assert np.max(np.abs(wave.samples - expected)) <= 1e-12 * 7.5e-3
    assert fwhm(wave).fwhm == pytest.approx(w, abs=dt)


def test_rectangle_when_edges_are_zero():
    spec = spec600(edge=0.0)
    dt = 1e-12
    wave = stimulus(spec, t_end=4e-9, dt=dt)
    inside = np.abs(wave.times() - spec.pulse_center(0)) <= 0.5 * spec.width
    assert np.array_equal(np.unique(wave.samples), np.array([0.0, 7.5e-3]))
    assert np.all(wave.samples[inside] == 7.5e-3)
    assert np.all(wave.samples[~inside] == 0.0)


def test_raised_cosine_support_and_half_points():
    spec = spec600(shape="raised-cosine")
    dt = 1e-12
    wave = stimulus(spec, t_end=4e-9, dt=dt)
    center = spec.pulse_center(0)
    outside = np.abs(wave.times() - center) > spec.width
    assert np.all(wave.samples[outside] == 0.0)
    assert wave.value_at(center) == pytest.approx(7.5e-3, rel=1e-12)
    # cos(pi/2) -> the half-maximum sits exactly half a width out.
    assert fwhm(wave).fwhm == pytest.approx(spec.width, abs=dt)


def test_zero_baseline_before_the_first_pulse():
    spec = spec600(delay=2e-9)
    wave = stimulus(spec, t_end=6e-9, dt=1e-12)
    before = wave.times() < spec.delay
    assert np.all(wave.samples[before] == 0.0)


def test_negative_amplitude_flips_the_pulse():
    up = stimulus(spec600(amplitude=7.5e-3), t_end=4e-9, dt=1e-12)
    down = stimulus(spec600(amplitude=-7.5e-3), t_end=4e-9, dt=1e-12)
    assert np.array_equal(down.samples, -up.samples)
    assert down.samples.min() == -up.samples.max()


def test_grid_offset_start():
    wave = stimulus(spec600(), t_end=4e-9, dt=1e-12, t0=2e-9)
    assert wave.t0 == 2e-9
    assert wave.times()[-1] == pytest.approx(4e-9, abs=1e-15)


def full_grid_stimulus(spec, t_end, dt, t0):
    """Every pulse evaluated on the whole grid and summed."""
    n = int(round((t_end - t0) / dt)) + 1
    t = t0 + dt * np.arange(n)
    out = np.zeros(n)
    first = math.floor((t[0] - spec.pulse_center(0)) * spec.rate) - 1
    last = math.ceil((t[-1] - spec.pulse_center(0)) * spec.rate) + 1
    for k in range(max(first, 0), last + 1):
        out += _shape_values(spec, t - spec.pulse_center(k))
    return spec.amplitude * out


@pytest.mark.parametrize("shape", ["trapezoid", "raised-cosine", "gaussian"])
def test_train_is_bit_identical_to_the_full_grid_sum(shape):
    # Pulses are evaluated on their support only; the grid starts and
    # ends inside a pulse as well as between pulses.
    dt = 5e-12
    for rate in (100e6, 333e6, 1e9):
        for delay in (0.0, 37e-12, 1.3e-9):
            for amplitude in (7.5e-3, -2e-3):
                spec = spec600(width=200e-12, edge=50e-12, rate=rate, delay=delay,
                               amplitude=amplitude, shape=shape)
                mid, period = spec.pulse_center, 1.0 / rate
                for t0 in (0.0, -0.77e-9, mid(0) + 0.1 * spec.extent,
                           mid(0) + 0.5 * period):
                    for stop in (mid(2) + 0.3 * spec.extent, mid(2) + 0.5 * period,
                                 mid(3) - 0.2 * spec.extent):
                        t_end = t0 + math.ceil((stop - t0) / dt) * dt
                        wave = stimulus(spec, t_end, dt, t0=t0)
                        ref = full_grid_stimulus(spec, t_end, dt, t0)
                        assert wave.samples.tobytes() == ref.tobytes(), \
                            (rate, delay, amplitude, t0, stop)


@pytest.mark.parametrize("seed", range(60))
def test_seeded_gaussian_train_is_bit_identical_to_the_full_grid_sum(seed):
    # A Gaussian is evaluated only within 17 widths of its center, past
    # which it is exactly 0.0; pulses packed up to their 4-width extent
    # overlap there.  The grid starts at 0, at -0.0 or off zero.
    rng = np.random.default_rng(seed)
    width = float(rng.uniform(50e-12, 2e-9))
    spec = spec600(shape="gaussian", width=width, edge=0.0,
                   rate=1.0 / (float(rng.uniform(4.2, 40.0)) * width),
                   delay=float(rng.uniform(0.0, 5.0)) * width,
                   amplitude=float(rng.uniform(-2e-2, 2e-2)))
    dt = width / float(rng.uniform(20.0, 60.0))
    t0 = (0.0, -0.0, float(rng.uniform(-30.0, 30.0)) * width)[seed % 3]
    t_end = t0 + dt * int(rng.integers(2, 20_000))
    wave = stimulus(spec, t_end, dt, t0=t0)
    assert wave.samples.tobytes() == full_grid_stimulus(spec, t_end, dt, t0).tobytes()


def test_resolution_guard():
    spec = spec600()
    # Exactly MIN_SAMPLES_PER_FWHM samples per width is acceptable.
    stimulus(spec, t_end=4e-9, dt=spec.width / MIN_SAMPLES_PER_FWHM)
    with pytest.raises(SimulationError, match="too coarse"):
        stimulus(spec, t_end=4e-9, dt=spec.width / (MIN_SAMPLES_PER_FWHM - 1))
    with pytest.raises(SimulationError, match="dt must be > 0"):
        stimulus(spec, t_end=4e-9, dt=0.0)
    with pytest.raises(SimulationError, match="fewer than two samples"):
        stimulus(spec, t_end=0.0, dt=1e-12)


def test_spec_validation():
    with pytest.raises(TopologyError, match="bias"):
        spec600(bias=0.0)
    with pytest.raises(TopologyError, match="amplitude must be finite"):
        spec600(amplitude=math.nan)
    with pytest.raises(TopologyError, match="width"):
        spec600(width=-1e-12)
    with pytest.raises(TopologyError, match="delay"):
        spec600(delay=-1e-12)
    with pytest.raises(TopologyError, match="rate"):
        spec600(rate=0.0)
    with pytest.raises(TopologyError, match="unknown pulse shape"):
        spec600(shape="sinc")
    with pytest.raises(TopologyError, match="too slow for width"):
        spec600(edge=600e-12)  # full edge 750 ps > 600 ps width
    with pytest.raises(TopologyError, match="does not fit in the"):
        spec600(width=1.2e-5, rate=100e3)
    for name in ("bias", "amplitude", "width", "delay", "edge", "rate"):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(TopologyError, match=f"^{name} must be finite, got "):
                spec600(**{name: value})


def test_stimulus_too_large_for_memory_fails_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(SimulationError, match=(
                r"^the stimulus on 1,000,000,000,001 samples needs "
                r"8,000,000,000,008 bytes, more than the [\d,]+ bytes of "
                r"physical memory$")):
            stimulus(spec600(), t_end=1e-3, dt=1e-15)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_stimulus_holds_its_train_and_one_pulse_slice():
    # The train is the one full-length array: each pulse's sample times
    # and shape are built for its own slice, and the train is scaled in
    # place and kept by Waveform, whose finiteness check builds no mask.
    # Besides it, the peak holds at most one pulse's temporaries: 5.2
    # slices measured (30 kB), six allowed.
    spec = spec600(rate=250e6)
    n, dt = 200_001, 1e-12
    piece = 8 * (math.ceil(spec.extent / dt) + 4)
    stimulus(spec, t_end=(n - 1) * dt, dt=dt)
    tracemalloc.start()
    try:
        wave = stimulus(spec, t_end=(n - 1) * dt, dt=dt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(wave) == n
    assert peak <= 8 * n + 6 * piece
