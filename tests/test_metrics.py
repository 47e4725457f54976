"""Pulse metrology: widths, delays, baselines, alignment."""

import math

import numpy as np
import pytest

from pulsenet import (MetricsError, Waveform, baseline_subtract, delay_at_level,
                      fwhm, normalize_align)
from conftest import gaussian_wave, triangle_wave

FWHM_PER_SIGMA = 2.3548200450309493  # 2*sqrt(2 ln 2)


@pytest.mark.parametrize("ratio", [20, 50])
def test_gaussian_width_identity(ratio):
    sigma = 254.8e-12
    dt = sigma / ratio
    wave = gaussian_wave(sigma, dt)
    assert fwhm(wave).fwhm == pytest.approx(FWHM_PER_SIGMA * sigma, abs=dt)


def test_rectangle_width():
    dt = 1e-12
    w = 100 * dt
    samples = np.concatenate([np.zeros(40), np.ones(100), np.zeros(40)])
    wave = Waveform(0.0, dt, samples, "A")
    assert fwhm(wave).fwhm == pytest.approx(w, abs=dt)


def test_triangle_width_is_half_the_base():
    base = 400e-12
    dt = 1e-12
    wave = triangle_wave(base, dt)
    assert fwhm(wave).fwhm == pytest.approx(base / 2.0, abs=dt)


def test_fwhm_error_shrinks_at_least_linearly():
    sigma = 254.8e-12
    exact = FWHM_PER_SIGMA * sigma

    def err(dt):
        return abs(fwhm(gaussian_wave(sigma, dt)).fwhm - exact)

    dt = sigma / 10.0
    assert err(dt / 2) <= 0.6 * err(dt)


def test_scale_invariance():
    wave = gaussian_wave(254.8e-12, 10e-12)
    ref = fwhm(wave)
    # Power-of-two scalings are exact in binary floating point, so the
    # result must be reproduced bit for bit.
    for c in (2.0, 0.5, 2.0 ** 13, 2.0 ** -20):
        m = fwhm(wave.with_samples(c * wave.samples))
        assert m.fwhm == ref.fwhm
        assert m.half_crossings == ref.half_crossings
    # Arbitrary positive scales round the samples, leaving sub-ulp play.
    for c in (3.7, math.pi * 1e6, 1.13e-7):
        m = fwhm(wave.with_samples(c * wave.samples))
        assert m.fwhm == pytest.approx(ref.fwhm, rel=1e-12)


def test_shift_equivariance():
    wave = gaussian_wave(254.8e-12, 10e-12, t0=0.0)
    ref = fwhm(wave)
    for shift in (3e-9, -7e-10, 1.234e-8):
        moved = Waveform(wave.t0 + shift, wave.dt, wave.samples, wave.unit)
        m = fwhm(moved)
        assert m.fwhm == ref.fwhm
        assert m.half_crossings[0] == ref.half_crossings[0] + shift
        assert m.half_crossings[1] == ref.half_crossings[1] + shift


def test_fwhm_requires_a_pulse_above_baseline():
    flat = Waveform(0.0, 1e-12, np.full(64, 31e-3), "A")
    with pytest.raises(MetricsError, match="does not rise above"):
        fwhm(flat, baseline=31e-3)


def test_clipped_pulses_are_rejected():
    dt = 1e-12
    rising = Waveform(0.0, dt, np.linspace(0.6, 1.0, 50), "A")
    with pytest.raises(MetricsError, match="before the peak"):
        fwhm(rising)
    falling = Waveform(0.0, dt, np.concatenate([np.linspace(0.0, 1.0, 50),
                                                np.full(10, 0.9)]), "A")
    with pytest.raises(MetricsError, match="after the peak"):
        fwhm(falling)


def test_equal_maxima_warn_and_use_the_earliest():
    dt = 1e-12
    s = np.zeros(200)
    s[50:60] = 1.0
    s[140:150] = 1.0
    wave = Waveform(0.0, dt, s, "A")
    with pytest.warns(UserWarning, match="separate places"):
        m = fwhm(wave)
    assert m.t_peak == 50 * dt


def test_baseline_subtract_constant_trace_is_exactly_zero():
    wave = Waveform(0.0, 1e-12, np.full(500, 31e-3), "A")
    out = baseline_subtract(wave, (0.0, 100e-12))
    assert not np.any(out.samples)


def test_baseline_subtract_keeps_the_pulse_height():
    sigma = 254.8e-12
    dt = 5e-12
    # Center the pulse ~10 sigma past the window so its tail cannot
    # contaminate the baseline estimate.
    pulse = gaussian_wave(sigma, dt, center=3e-9, amplitude=10.5e-3,
                          half_span=3e-9)
    offset = pulse.with_samples(pulse.samples + 31e-3)
    out = baseline_subtract(offset, (0.0, 500e-12))
    quiet = out.slice_time(0.0, 500e-12).samples
    assert abs(float(np.mean(quiet))) <= 1e-12 * 31e-3
    assert float(np.max(out.samples)) == pytest.approx(10.5e-3, rel=1e-9)


def test_baseline_window_validation():
    wave = Waveform(0.0, 1e-12, np.full(100, 1.0), "A")
    with pytest.raises(MetricsError, match="empty baseline window"):
        baseline_subtract(wave, (50e-12, 50e-12))
    with pytest.raises(MetricsError, match="outside the"):
        baseline_subtract(wave, (-1e-9, 50e-12))
    with pytest.raises(MetricsError, match="need >= 8"):
        baseline_subtract(wave, (0.0, 4e-12))


def test_baseline_window_over_the_pulse_warns():
    sigma = 100e-12
    dt = 5e-12
    pulse = gaussian_wave(sigma, dt, center=1.5e-9, half_span=1.5e-9)
    with pytest.warns(UserWarning, match="looks like it\ncontains signal|contains signal"):
        baseline_subtract(pulse, (1.3e-9, 1.7e-9))


def test_delay_of_a_waveform_against_itself_is_zero():
    wave = gaussian_wave(254.8e-12, 10e-12)
    assert delay_at_level(wave, wave, 0.5) == 0.0


def test_delay_integer_shift_is_exact():
    dt = 2.0 ** -40
    # Mid-edge crossing with a dyadic fraction, so every quantity in the
    # interpolation is exactly representable.
    s = np.concatenate([np.zeros(8), [0.25, 0.75], np.ones(6),
                        [0.75, 0.25], np.zeros(24)])
    first = Waveform(0.0, dt, s, "A")
    for k in (1, 5, 17):
        second = Waveform(0.0, dt, np.roll(s, k), "A")
        assert delay_at_level(first, second, 0.5) == k * dt

    # A crossing level equal to a sample value also interpolates exactly,
    # whatever the sample bits are.
    g = gaussian_wave(64 * dt, dt, t0=0.0).samples
    level = float(g[np.argmax(g) // 2])
    first = Waveform(0.0, dt, g, "A")
    second = Waveform(0.0, dt, np.roll(g, 9), "A")
    assert delay_at_level(first, second, level) == 9 * dt


def test_delay_recovers_a_sixty_picosecond_shift():
    sigma = 254.8e-12
    dt = 7e-12
    shift = 60e-12  # deliberately off-grid (60/7 is not an integer)
    first = gaussian_wave(sigma, dt, center=2e-9, half_span=2e-9)
    second = gaussian_wave(sigma, dt, center=2e-9 + shift, half_span=2e-9)
    got = delay_at_level(first, second, 0.5)
    assert got == pytest.approx(shift, abs=dt / 10.0)


def test_delay_is_antisymmetric():
    sigma = 254.8e-12
    dt = 7e-12
    a = gaussian_wave(sigma, dt, center=2e-9, half_span=2e-9)
    b = gaussian_wave(sigma, dt, center=2.4e-9, half_span=2e-9)
    assert delay_at_level(a, b, 0.5) == -delay_at_level(b, a, 0.5)


def test_delay_names_the_waveform_that_misses_the_level():
    low = gaussian_wave(100e-12, 5e-12, amplitude=0.3)
    high = gaussian_wave(100e-12, 5e-12, amplitude=1.0)
    with pytest.raises(MetricsError, match="second waveform never rises"):
        delay_at_level(high, low, 0.5)
    with pytest.raises(MetricsError, match="first waveform never rises"):
        delay_at_level(low, high, 0.5)


def test_normalize_align_identical_inputs():
    wave = gaussian_wave(254.8e-12, 10e-12)
    a, b = normalize_align(wave, wave)
    assert np.array_equal(a.samples, b.samples)
    assert float(np.max(a.samples)) == 1.0
    assert a.t0 == wave.t0 and a.dt == wave.dt


def test_normalize_align_integer_shift_and_doubling():
    wave = gaussian_wave(254.8e-12, 10e-12, t0=0.0)
    moved = Waveform(5 * wave.dt, wave.dt, 2.0 * wave.samples, wave.unit)
    a, b = normalize_align(wave, moved)
    assert np.array_equal(a.samples, b.samples)


def test_normalize_align_scaled_and_shifted_copy():
    # Peak times are sample times, so the constructed shift is a whole
    # number of steps; the doubled amplitude cancels exactly.
    sigma = 254.8e-12
    dt = 10e-12
    first = gaussian_wave(sigma, dt, center=2e-9, half_span=2e-9)
    second = gaussian_wave(sigma, dt, center=2e-9 + 13 * dt,
                           half_span=2e-9, amplitude=2.0)
    a, b = normalize_align(first, second)
    assert float(np.max(np.abs(a.samples - b.samples))) <= 1e-6


def test_normalize_align_same_step_offset_grids():
    # Peak times are grid times, so with equal dt the alignment shift is
    # always a whole number of samples; a fractional grid offset leaves
    # at most one sample of residual misalignment between the shapes.
    sigma = 254.8e-12
    dt = sigma / 400.0
    first = gaussian_wave(sigma, dt, center=2e-9, half_span=1.8e-9)
    second = gaussian_wave(sigma, dt, center=2e-9 + 7 * dt, half_span=1.8e-9,
                           t0=0.4 * dt, amplitude=2.0)
    a, b = normalize_align(first, second)
    assert fwhm(a).t_peak == fwhm(b).t_peak
    assert float(np.max(np.abs(a.samples - b.samples))) <= 0.7 * dt / sigma


def test_normalize_align_preserves_distinct_widths():
    sigma = 254.8e-12
    dt = 10e-12
    narrow = gaussian_wave(sigma, dt, center=3e-9, half_span=3e-9)
    wide = gaussian_wave(2 * sigma, dt, center=3.4e-9, half_span=3e-9)
    a, b = normalize_align(narrow, wide)
    ma, mb = fwhm(a), fwhm(b)
    assert ma.peak == 1.0 and mb.peak == 1.0
    assert ma.t_peak == mb.t_peak
    assert ma.fwhm == pytest.approx(FWHM_PER_SIGMA * sigma, abs=dt)
    assert mb.fwhm == pytest.approx(FWHM_PER_SIGMA * 2 * sigma, abs=dt)


def test_normalize_align_is_idempotent():
    sigma = 254.8e-12
    dt = 10e-12
    first = gaussian_wave(sigma, dt, center=2e-9, half_span=2e-9)
    second = gaussian_wave(sigma, dt, center=2e-9 + 13.37 * dt,
                           half_span=2e-9, amplitude=0.7)
    a, b = normalize_align(first, second)
    a2, b2 = normalize_align(a, b)
    assert np.array_equal(a2.samples, a.samples)
    assert np.array_equal(b2.samples, b.samples)
    assert (a2.t0, a2.dt) == (a.t0, a.dt)


def test_normalize_align_rejects_flat_and_disjoint_inputs():
    flat = Waveform(0.0, 1e-12, np.zeros(64), "A")
    pulse = gaussian_wave(100e-12, 5e-12)
    with pytest.raises(MetricsError, match="first waveform has no positive peak"):
        normalize_align(flat, pulse)
    with pytest.raises(MetricsError, match="second waveform has no positive peak"):
        normalize_align(pulse, flat)


def test_normalize_align_on_mismatched_grids():
    sigma = 254.8e-12
    first = gaussian_wave(sigma, 10e-12, center=2e-9, half_span=2e-9)
    second = gaussian_wave(sigma, 4e-12, center=2.2e-9, half_span=2e-9,
                           amplitude=3.0)
    a, b = normalize_align(first, second)
    assert a.dt == first.dt and b.dt == first.dt
    assert float(np.max(np.abs(a.samples - b.samples))) <= 1e-4
