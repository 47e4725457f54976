"""Two-sample KS statistics: exact D, asymptotic p-values, pulse populations."""

import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsenet import kstest
from pulsenet import (LaserCircuit, SimConfig, StatsError, Waveform,
                      baseline_subtract, detector_filter, ecdf, kolmogorov_q,
                      ks_two_sample, run_driver, sense_current,
                      waveform_samples_for_cdf)
from conftest import ELEMENT_TABLE, FWHM_PER_SIGMA, gaussian_wave, pulse_spec


def q_long(lam, terms=2000):
    """Direct long-sum reference for the alternating Kolmogorov series."""
    total = sum((-1) ** (k - 1) * math.exp(-2.0 * (k * lam) ** 2)
                for k in range(1, terms + 1))
    return min(1.0, max(0.0, 2.0 * total))


def test_ecdf_step_values():
    F = ecdf([3.0, 1.0, 2.0])
    assert F.sorted_values.tolist() == [1.0, 2.0, 3.0]
    assert F.sorted_values.size == 3
    assert F(0.5) == 0.0
    assert F(2.0) == 2 / 3
    assert F(3.0) == 1.0
    assert F(100.0) == 1.0
    # The jump sits at the sample value itself (right-continuous, <=).
    assert F(1.0) == 1 / 3
    assert F(1.0 - 1e-9) == 0.0


def test_ecdf_accumulates_ties():
    G = ecdf([1.0, 1.0, 2.0])
    assert G(1.0) == 2 / 3
    assert G(1.5) == 2 / 3
    assert G(2.0) == 1.0


def test_ecdf_matches_counting_oracle():
    rng = np.random.default_rng(7)
    vals = np.concatenate([rng.normal(size=80),
                           rng.integers(-2, 3, size=80).astype(float)])
    F = ecdf(vals.tolist())
    queries = np.concatenate([rng.normal(scale=2.0, size=50),
                              rng.choice(vals, size=50)])
    for x in queries:
        assert F(x) == np.count_nonzero(vals <= x) / vals.size


def test_ecdf_rejects_bad_samples():
    with pytest.raises(StatsError, match="sample is empty"):
        ecdf([])
    with pytest.raises(StatsError, match="non-finite"):
        ecdf([1.0, float("nan")])


def test_ecdf_is_undefined_at_nan():
    F = ecdf([1.0, 2.0])
    for x in (math.nan, np.float64("nan"), np.array([0.5, math.nan]),
              [math.nan], np.full((2, 2), math.nan)):
        with pytest.raises(StatsError, match="undefined at NaN"):
            F(x)
    assert F(math.inf) == 1.0
    assert F(-math.inf) == 0.0
    assert F(np.array([-math.inf, 1.5, math.inf])).tolist() == [0.0, 0.5, 1.0]


def test_kolmogorov_q_reference_points():
    assert kolmogorov_q(0.0) == 1.0
    assert kolmogorov_q(1.0) == pytest.approx(0.2700, abs=5e-4)
    assert kolmogorov_q(1.0) == pytest.approx(0.26999967167735456, rel=1e-12)
    assert kolmogorov_q(0.4004) == pytest.approx(0.9973, abs=5e-4)
    # Tiny arguments sit on the Q -> 1 plateau.
    assert kolmogorov_q(0.005) == 1.0


def test_kolmogorov_q_monotone_unit_range():
    lams = np.linspace(0.0, 3.0, 301)
    qs = [kolmogorov_q(float(l)) for l in lams]
    assert all(0.0 <= q <= 1.0 for q in qs)
    for earlier, later in zip(qs, qs[1:]):
        assert later <= earlier + 2e-12


def test_kolmogorov_q_truncation_matches_long_sum():
    for lam in (0.05, 0.1, 0.2, 0.3, 0.5, 1.0, 2.0):
        assert kolmogorov_q(lam) == pytest.approx(q_long(lam), abs=5e-12)


def test_kolmogorov_q_rejects_bad_argument():
    for bad in (-1.0, float("nan"), math.inf, True, False, np.bool_(True),
                "1.0", None, 1j):
        with pytest.raises(StatsError, match="lambda must be"):
            kolmogorov_q(bad)


def test_kolmogorov_q_accepts_any_real():
    for lam in (np.int64(1), np.int32(1), np.uint8(1), np.float32(1.0),
                np.float64(1.0), Fraction(1), 1):
        assert kolmogorov_q(lam) == kolmogorov_q(1.0)
    assert kolmogorov_q(np.int64(0)) == 1.0
    # (k * lam)**2 would wrap around in int8
    assert kolmogorov_q(np.int8(12)) == kolmogorov_q(12.0) < 1e-100


def test_identical_samples_are_indistinguishable():
    rng = np.random.default_rng(3)
    a = rng.normal(size=57)
    res = ks_two_sample(a, a)
    assert res.d_stat == 0.0
    assert res.p_value == 1.0
    assert res.same_distribution is True
    assert res.effective_n == pytest.approx(57 / 2)
    assert res.alpha == 0.05


def test_disjoint_supports_separate_fully():
    a = np.linspace(0.0, 1.0, 40)
    b = np.linspace(5.0, 6.0, 25)
    res = ks_two_sample(a, b)
    assert res.d_stat == 1.0
    assert res.p_value < 1e-6
    assert res.same_distribution is False


def test_effective_n_and_decision_rule():
    rng = np.random.default_rng(19)
    a = rng.normal(size=10)
    b = rng.normal(0.3, 1.0, size=15)
    res = ks_two_sample(a, b, alpha=0.05)
    assert res.effective_n == pytest.approx(10 * 15 / 25)
    assert res.same_distribution == (res.p_value > 0.05)
    strict = ks_two_sample(a, b, alpha=0.999)
    assert strict.d_stat == res.d_stat
    assert strict.same_distribution == (strict.p_value > 0.999)


def test_small_deviation_on_long_records():
    # A 0.0281 sup-deviation between two 406-sample records is far from
    # significant: lambda ~ 0.4004 and the p-value stays near 0.997.
    lam = 0.0281 * math.sqrt(203.0)
    assert lam == pytest.approx(0.4004, abs=5e-5)
    p = kolmogorov_q(lam)
    assert p == pytest.approx(0.997, abs=2e-3)
    assert p == pytest.approx(0.997155355310604, rel=1e-12)


def test_merged_pass_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = int(rng.integers(1, 51))
        n = int(rng.integers(1, 51))
        # Small integer values force plenty of ties, including across
        # the two samples.
        a = rng.integers(0, 12, size=m).astype(float)
        b = rng.integers(0, 12, size=n).astype(float)
        res = ks_two_sample(a, b)
        pooled = np.concatenate([a, b])
        num = max(abs(int(np.count_nonzero(a <= x)) * n
                      - int(np.count_nonzero(b <= x)) * m)
                  for x in pooled)
        assert res.d_stat == num / (m * n)


def searchsorted_d(a, b):
    """Reference D: at every pooled value, binary searches count the
    values of each sorted sample at or below it."""
    xs, ys = np.sort(np.asarray(a, float)), np.sort(np.asarray(b, float))
    m, n = xs.size, ys.size
    pooled = np.concatenate([xs, ys])
    i = np.searchsorted(xs, pooled, side="right")
    j = np.searchsorted(ys, pooled, side="right")
    return int(np.max(np.abs(i * n - j * m))) / (m * n)


# Signed zeros, the smallest subnormals and normals, and a few repeated
# values, mixed with arbitrary finite floats: heavy ties within and
# across the samples, and -0.0 == 0.0 counted as one value.
_edge_values = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e-310, -1e-310,
                     2.2250738585072014e-308, 1.0, -1.0]),
    st.floats(allow_nan=False, allow_infinity=False))
_edge_samples = st.one_of(
    st.lists(_edge_values, min_size=1, max_size=60),
    st.lists(st.sampled_from([-0.0, 0.0, 5e-324]), min_size=1, max_size=60))


@settings(max_examples=500, deadline=None)
@given(a=_edge_samples, b=_edge_samples)
def test_merge_d_equals_the_searchsorted_d(a, b):
    d_stat = ks_two_sample(a, b).d_stat
    assert d_stat == searchsorted_d(a, b)
    assert ks_two_sample(b, a).d_stat == d_stat


def test_merge_d_on_unequal_sizes_and_constant_samples():
    rng = np.random.default_rng(31)
    big = rng.normal(size=5000)
    quantized = np.round(big * 4.0) / 4.0
    cases = [([0.0], big), ([-0.0], quantized), (big[:1], big),
             (np.full(7, 3.0), np.full(11, 3.0)), (np.full(7, 0.0), np.full(3, -0.0)),
             (np.full(4, 1.0), np.full(4, 2.0)), (quantized[:999], quantized),
             ([5e-324], [0.0, -0.0, 5e-324])]
    for a, b in cases:
        assert ks_two_sample(a, b).d_stat == searchsorted_d(a, b)
    assert ks_two_sample(np.full(7, 0.0), np.full(3, -0.0)).d_stat == 0.0
    assert ks_two_sample([5e-324], [0.0]).d_stat == 1.0


def test_ks_memory_peak_at_200k_per_side():
    """The statistic of two 200k samples allocates at most their two
    sorted copies and 1 MB at its peak, for continuous, 1/8-quantised and
    all-equal samples: a block that grew with its ties would hold the
    whole pool (numpy reports its buffers to tracemalloc)."""
    rng = np.random.default_rng(37)
    size = 200_000
    normal = rng.normal(size=(2, size))
    cases = [normal, np.round(normal * 8.0) / 8.0, np.ones((2, size))]
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        for a, b in cases:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            ks_two_sample(a, b)
            peak = tracemalloc.get_traced_memory()[1] - base
            assert peak <= 2 * 8 * size + 1e6
    finally:
        if not tracing:
            tracemalloc.stop()


# Small integer ranges plus both signed zeros: ties within and across
# the samples, and -0.0 == 0.0 counted as one value.
_tied = st.lists(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0]),
                 min_size=1, max_size=40)


@settings(max_examples=300, deadline=None)
@given(a=_tied, b=_tied)
def test_exact_d_and_ecdf_on_tied_samples(a, b):
    a, b = np.array(a), np.array(b)
    m, n = a.size, b.size
    pooled = np.concatenate([a, b])
    num = max(abs(int(np.count_nonzero(a <= x)) * n
                  - int(np.count_nonzero(b <= x)) * m)
              for x in pooled)
    d_stat = ks_two_sample(a, b).d_stat
    assert d_stat == num / (m * n)
    assert ks_two_sample(b, a).d_stat == d_stat

    F = ecdf(a)
    xs = np.unique(pooled)
    at_once = F(xs)
    assert isinstance(at_once, np.ndarray)
    one_by_one = [F(float(x)) for x in xs]
    assert all(type(v) is float for v in one_by_one)
    assert at_once.tolist() == one_by_one
    assert one_by_one == [np.count_nonzero(a <= x) / m for x in xs]


@settings(max_examples=300, deadline=None)
@given(a=st.one_of(_edge_samples, _tied), b=st.one_of(_edge_samples, _tied))
def test_merge_d_across_block_edges(a, b):
    # Blocks of 1 to 3 values per side put cuts between ties across the
    # samples and between -0.0 and 0.0, make runs longer than a block,
    # and let either sample run out first.
    for size in (1, 2, 3):
        with mock.patch.object(kstest, "_KS_BLOCK", size):
            d_stat = ks_two_sample(a, b).d_stat
            assert d_stat == searchsorted_d(a, b)
            assert ks_two_sample(b, a).d_stat == d_stat


def test_against_scipy_oracle():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(29)
    for k in range(200):
        m = int(rng.integers(1, 400))
        n = int(rng.integers(1, 400))
        if k % 2:  # quantized values: ties within and across the samples
            a = rng.integers(0, 20, size=m).astype(float)
            b = rng.integers(0, 20, size=n).astype(float)
        else:
            a = rng.normal(size=m)
            b = rng.normal(rng.uniform(-0.5, 0.5), 1.0, size=n)
        d_ref = stats.ks_2samp(a, b).statistic
        assert ks_two_sample(a, b).d_stat == pytest.approx(d_ref, rel=1e-12)
    for lam in np.linspace(0.0, 3.0, 301):
        assert kolmogorov_q(float(lam)) == pytest.approx(
            stats.kstwobign.sf(lam), abs=1e-10)


def test_d_is_a_rank_statistic():
    rng = np.random.default_rng(23)
    a = rng.normal(size=40)
    b = rng.normal(0.4, 1.3, size=35)
    base = ks_two_sample(a, b).d_stat
    for warp in (lambda x: 3.0 * x + 7.0, lambda x: x ** 3 + x, np.expm1):
        assert ks_two_sample(warp(a), warp(b)).d_stat == base


def test_p_value_monotone_in_d():
    rng = np.random.default_rng(5)
    a = rng.normal(size=60)
    b = rng.normal(size=60)
    results = [ks_two_sample(a, b + s) for s in np.linspace(0.0, 4.0, 17)]
    pairs = sorted((r.d_stat, r.p_value) for r in results)
    for (_, p1), (_, p2) in zip(pairs, pairs[1:]):
        assert p2 <= p1 + 2e-12


def test_null_rejection_rate():
    # Same continuous parent for both samples; the asymptotic formula
    # should reject near (slightly under) the nominal 5%.
    rng = np.random.default_rng(20260813)
    trials = 1000
    rejections = 0
    for _ in range(trials):
        a = rng.standard_normal(500)
        b = rng.standard_normal(500)
        if not ks_two_sample(a, b).same_distribution:
            rejections += 1
    assert 0.03 <= rejections / trials <= 0.08


def test_two_sample_validation_errors():
    with pytest.raises(StatsError, match="first sample is empty"):
        ks_two_sample([], [1.0])
    with pytest.raises(StatsError, match="second sample is empty"):
        ks_two_sample([1.0], [])
    with pytest.raises(StatsError, match="first sample contains non-finite"):
        ks_two_sample([float("inf")], [1.0])
    with pytest.raises(StatsError, match="alpha must be in"):
        ks_two_sample([1.0], [2.0], alpha=1.0)


def test_identical_pulse_populations():
    w = gaussian_wave(200e-12, 8e-12, amplitude=3.2e-3, unit="A")
    a, b = waveform_samples_for_cdf(w, w)
    res = ks_two_sample(a, b)
    assert res.d_stat == 0.0
    assert res.p_value == 1.0
    assert res.same_distribution is True


def test_scaled_copy_stays_close():
    sigma = 200e-12
    dt = FWHM_PER_SIGMA * sigma / 50
    base = gaussian_wave(sigma, dt)
    doubled = Waveform(base.t0, base.dt, 2.0 * base.samples, base.unit)
    a, b = waveform_samples_for_cdf(base, doubled)
    assert ks_two_sample(a, b).d_stat == 0.0
    # A sub-sample offset leaves residual misalignment after the
    # integer-shift alignment; the deviation stays at interpolation level.
    off = gaussian_wave(sigma, dt, center=6.0 * sigma + 0.4 * dt,
                        amplitude=1.8)
    a, b = waveform_samples_for_cdf(base, off)
    res = ks_two_sample(a, b)
    assert res.d_stat < 0.01
    assert res.same_distribution is True


def test_population_window_tracks_the_width():
    sigma = 100e-12
    dt = sigma / 20
    long_tails = gaussian_wave(sigma, dt, half_span=30 * sigma)
    a3, b3 = waveform_samples_for_cdf(long_tails, long_tails)
    a1, _ = waveform_samples_for_cdf(long_tails, long_tails, window_mult=1.0)
    width = FWHM_PER_SIGMA * sigma
    assert len(a3) == len(b3)
    assert len(a3) <= 2 * 3.0 * width / dt + 3
    assert len(a3) < long_tails.samples.size / 2
    assert len(a1) < len(a3)


def test_population_resolution_quantization():
    w = gaussian_wave(150e-12, 7.5e-12)
    coarse, _ = waveform_samples_for_cdf(w, w, resolution=0.25)
    assert set(np.unique(coarse)) <= {0.0, 0.25, 0.5, 0.75, 1.0}
    raw, _ = waveform_samples_for_cdf(w, w, resolution=0.0)
    assert np.unique(raw).size > np.unique(coarse).size
    with pytest.raises(StatsError, match="window_mult must be > 0"):
        waveform_samples_for_cdf(w, w, window_mult=0.0)
    with pytest.raises(StatsError, match="resolution must lie in"):
        waveform_samples_for_cdf(w, w, resolution=1.0)
    with pytest.raises(StatsError, match="resolution must lie in"):
        waveform_samples_for_cdf(w, w, resolution=-0.5)


def test_two_drive_levels_share_a_distribution():
    # Two runs differing only in perturbation amplitude, seen through
    # the same band-limited detector, must not be told apart.
    cfg = SimConfig(t_end=6e-9, dt=1e-12)

    def drive(amplitude):
        wave = sense_current(run_driver(pulse_spec(amplitude=amplitude),
                                        LaserCircuit(**ELEMENT_TABLE), cfg))
        smoothed = detector_filter(wave, 500e-12)
        return baseline_subtract(smoothed, (0.0, 1.5e-9))

    a, b = waveform_samples_for_cdf(drive(10.5e-3), drive(8.2e-3))
    res = ks_two_sample(a, b, alpha=0.05)
    assert res.p_value > 0.05
    assert res.same_distribution is True
