"""Pulse metrology: widths, delays, baselines, alignment."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsenet import (MetricsError, Waveform, baseline_subtract, delay_at_level,
                      fwhm, normalize_align)
from conftest import FWHM_PER_SIGMA, gaussian_wave, triangle_wave


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
    decaying = Waveform(0.0, dt, np.concatenate([np.linspace(0.6, 1.0, 50),
                                                 np.linspace(0.9, 0.0, 10)]), "A")
    with pytest.raises(MetricsError, match="clipped at the start"):
        fwhm(decaying)
    falling = Waveform(0.0, dt, np.concatenate([np.linspace(0.0, 1.0, 50),
                                                np.full(10, 0.9)]), "A")
    with pytest.raises(MetricsError, match="after the peak"):
        fwhm(falling)


@pytest.mark.filterwarnings("error")
def test_crossing_between_samples_more_than_the_float_range_apart():
    # s[k + 1] - s[k] overflows; halving both samples first does not.
    wave = Waveform(0.0, 1.0, [-1.7e308, 1.7e308, -1.7e308])
    m = fwhm(wave)
    assert m.half_crossings == pytest.approx((0.75, 1.25), abs=1e-15)
    assert m.fwhm == pytest.approx(0.5, abs=1e-15)
    rising = Waveform(0.0, 1.0, [-1.7e308, 1.7e308])
    assert delay_at_level(Waveform(0.0, 1.0, [-1.0, 1.0]), rising, 0.0) == 0.0


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
    # a window at the end of the record is compared with the stretch before it
    late = gaussian_wave(sigma, dt, center=2.75e-9, half_span=1.5e-9)
    with pytest.warns(UserWarning, match="contains signal"):
        baseline_subtract(late, (2.5e-9, 3e-9))


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


def test_delay_names_a_level_that_is_not_finite():
    # A level that no waveform can cross is blamed on the level, not on
    # the second waveform.
    wave = gaussian_wave(100e-12, 5e-12)
    for level in (math.nan, math.inf, -math.inf):
        with pytest.raises(MetricsError,
                           match=f"^crossing level must be finite, got {level}$"):
            delay_at_level(wave, wave, level)


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
    # On different grids the second waveform is resampled onto the first.
    # Peaks at opposite ends leave one common sample:
    with pytest.raises(MetricsError, match="do not overlap after alignment"):
        normalize_align(Waveform(0.0, 1.0, [0.0, 1.0]),
                        Waveform(0.0, 2.0, [1.0, 0.0]))
    # and a 5e-324 peak read just off its own sample time interpolates to 0
    # (-2.0 - (1.3 - -3.3) is 1.2999999999999998, not 1.3).
    with pytest.raises(MetricsError, match="aligned overlap lost the pulse"):
        normalize_align(Waveform(-3.0, 1.0, [0.0, 1.0]),
                        Waveform(-1.7, 3.0, [0.0, 5e-324, 0.0]))


def test_normalize_align_on_mismatched_grids():
    sigma = 254.8e-12
    first = gaussian_wave(sigma, 10e-12, center=2e-9, half_span=2e-9)
    second = gaussian_wave(sigma, 4e-12, center=2.2e-9, half_span=2e-9,
                           amplitude=3.0)
    a, b = normalize_align(first, second)
    assert a.dt == first.dt and b.dt == first.dt
    assert float(np.max(np.abs(a.samples - b.samples))) <= 1e-4


def three_branch_align(first, second):
    """The equal-step path of ``normalize_align`` with a branch of its own
    for each sign of the fractional shift fq, as it was written before
    fq < 0 became fq > 0 from the sample below.  Returns the two outputs
    (or the MetricsError) and the raw fq."""
    w1, w2 = first, second
    tp1 = float(w1.times()[int(np.argmax(w1.samples))])
    tp2 = float(w2.times()[int(np.argmax(w2.samples))])
    shift = tp1 - tp2
    dt = w1.dt
    q = (w1.t0 - w2.t0 - shift) / dt
    kq = round(q)
    fq = raw = q - kq
    if abs(fq) < 1e-9:
        fq = 0.0
    n1, n2 = len(w1), len(w2)
    if fq == 0.0:
        i_min, i_max = -kq, n2 - 1 - kq
    elif fq > 0.0:
        i_min, i_max = -kq, n2 - 2 - kq
    else:
        i_min, i_max = 1 - kq, n2 - 1 - kq
    a = max(0, i_min)
    b = min(n1 - 1, i_max)
    if b - a + 1 < 2:
        return MetricsError("waveforms do not overlap after alignment"), raw
    s1 = w1.samples[a:b + 1]
    idx = np.arange(a + kq, b + kq + 1)
    if fq == 0.0:
        s2 = w2.samples[idx]
    elif fq > 0.0:
        s2 = (1.0 - fq) * w2.samples[idx] + fq * w2.samples[idx + 1]
    else:
        g = 1.0 + fq
        s2 = (1.0 - g) * w2.samples[idx - 1] + g * w2.samples[idx]
    t_start = w1.t0 + a * dt
    m1, m2 = float(np.max(s1)), float(np.max(s2))
    if not (m1 > 0 and m2 > 0):
        return MetricsError("aligned overlap lost the pulse of one waveform"), raw
    return (Waveform(t_start, w1.dt, s1 / m1, w1.unit),
            Waveform(t_start, w1.dt, s2 / m2, w2.unit)), raw


def aligned_bytes(out):
    if isinstance(out, MetricsError):
        return str(out).encode()
    return b"".join(np.float64(w.t0).tobytes() + np.float64(w.dt).tobytes()
                    + w.samples.tobytes() + w.unit.encode() for w in out)


def test_equal_steps_shift_by_whole_samples():
    """On equal steps both peak times are sample times, so the second
    pulse moves by exactly kq = argmax(w2) - argmax(w1) samples.  The
    three-branch oracle took the offset from the peak times instead, and
    its fractional part fq is the rounding of t0 + k*dt: start times from
    1e-5 s on, at 1 ps steps, make it non-zero, of either sign, and
    within a factor of ten of its 1e-9 snap; steps that differ in the
    13th digit take the same path.  Where the oracle snapped fq to 0 the
    outputs are byte for byte its own; elsewhere they are the samples
    themselves, kq apart, each over its own maximum.  Short pulses give
    overlaps of exactly two samples and of one (an error)."""
    rng = np.random.default_rng(20261019)
    seen = {"fq > 0": 0, "fq < 0": 0, "snapped": 0, "near the snap": 0,
            "two samples": 0, "error": 0}
    for _ in range(3000):
        dt = 1e-12
        t0 = float(rng.choice([0.0, 1e-9, 1e-6, 1e-5, 1e-4, 1e-2])) \
            * rng.uniform(0.5, 1.0)
        dt2 = dt * (1.0 + float(rng.choice([0.0, 3e-13, -3e-13])))
        w1 = Waveform(t0 + int(rng.integers(-4, 5)) * dt, dt,
                      rng.uniform(0.01, 1.0, int(rng.integers(2, 9))))
        w2 = Waveform(t0 + int(rng.integers(-4, 5)) * dt, dt2,
                      rng.uniform(0.01, 1.0, int(rng.integers(2, 9))))
        want, raw = three_branch_align(w1, w2)
        try:
            got = normalize_align(w1, w2)
        except MetricsError as exc:
            got = exc
        if abs(raw) >= 1e-9:
            kq = int(np.argmax(w2.samples)) - int(np.argmax(w1.samples))
            a, b = max(0, -kq), min(len(w1), len(w2) - kq)
            if b - a < 2:
                want = MetricsError("waveforms do not overlap after alignment")
            else:
                s1, s2 = w1.samples[a:b], w2.samples[a + kq:b + kq]
                want = (Waveform(w1.t0 + a * dt, dt, s1 / np.max(s1), w1.unit),
                        Waveform(w1.t0 + a * dt, dt, s2 / np.max(s2), w2.unit))
        assert aligned_bytes(got) == aligned_bytes(want), (w1, w2)
        if isinstance(got, MetricsError):
            seen["error"] += 1
        elif len(got[0]) == 2:
            seen["two samples"] += 1
        seen["snapped" if abs(raw) < 1e-9
             else "fq > 0" if raw > 0 else "fq < 0"] += 1
        seen["near the snap"] += 1e-10 < abs(raw) < 1e-8
    assert min(seen.values()) >= 100, seen


#: A pulse of random samples in [0, 1] around a single peak of 2, with a
#: zero at each end so that both half-maximum crossings exist.
_pulses = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60).flatmap(
    lambda body: st.integers(0, len(body) - 1).map(
        lambda k: np.array([0.0, *body[:k], 2.0, *body[k + 1:], 0.0])))


@settings(max_examples=300, deadline=None)
@given(samples=_pulses, t0=st.floats(-1e-6, 1e-6), dt=st.floats(1e-13, 1e-9),
       shift=st.floats(-1e-6, 1e-6))
def test_fwhm_does_not_change_under_a_time_shift(samples, t0, dt, shift):
    ref = fwhm(Waveform(t0, dt, samples))
    got = fwhm(Waveform(t0 + shift, dt, samples))
    assert got.fwhm == ref.fwhm
    assert got.peak == ref.peak
    # the times move with the shift, to the rounding of t0 + k*dt
    tol = 8 * np.finfo(float).eps * (abs(t0) + abs(shift) + len(samples) * dt)
    assert got.t_peak == pytest.approx(ref.t_peak + shift, rel=0, abs=tol)
    for a, b in zip(got.half_crossings, ref.half_crossings):
        assert a == pytest.approx(b + shift, rel=0, abs=tol)


@settings(max_examples=300, deadline=None)
@given(samples=_pulses, dt=st.floats(1e-13, 1e-9), scale=st.floats(1e-6, 1e6))
def test_fwhm_does_not_change_under_an_amplitude_scale(samples, dt, scale):
    ref = fwhm(Waveform(0.0, dt, samples))
    got = fwhm(Waveform(0.0, dt, scale * samples))
    assert got.peak == scale * ref.peak
    assert got.t_peak == ref.t_peak
    # the crossings are interpolated: each index moves by rounding only
    assert got.fwhm == pytest.approx(ref.fwhm, rel=0, abs=1e-12 * dt * len(samples))
