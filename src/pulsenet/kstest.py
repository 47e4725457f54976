"""Two-sample Kolmogorov-Smirnov indistinguishability test.

The statistic D = sup |F_a - F_b| is computed exactly, from one linear
merge of the two sorted samples: walking the pooled values in order,
a running sum that adds n for each value of the first sample and
subtracts m for each of the second is i*n - j*m, with i and j the
counts of values at or below the current one.  Read at the last
position of each run of equal values, so that ties accumulate first,
its largest magnitude over m*n is D, a ratio of integers with no
accumulated float error.  The p-value uses the asymptotic Kolmogorov
distribution

    Q(lambda) = 2 * sum_{k>=1} (-1)^(k-1) exp(-2 k^2 lambda^2)

with lambda = D * sqrt(m*n/(m+n)) and no small-sample continuity
correction.  Two waveforms are declared to come from the same
distribution exactly when p > alpha.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import StatsError
from .metrics import fwhm, normalize_align
from .waveform import Waveform


@dataclass(frozen=True, eq=False)
class EmpiricalCdf:
    """Right-continuous empirical distribution function over a sorted,
    read-only sample array."""

    sorted_values: np.ndarray
    n: int

    def __call__(self, x):
        """F(x) = (number of sample values <= x) / n: a float for a
        scalar ``x``, an array for an array of points.  A NaN point,
        where F is undefined, is a StatsError."""
        if np.isnan(x).any():
            raise StatsError(f"the CDF is undefined at NaN, got {x!r}")
        counts = np.searchsorted(self.sorted_values, x, side="right")
        if np.ndim(counts):
            return counts / self.n
        return int(counts) / self.n


def _sorted_samples(values, name: str) -> np.ndarray:
    vals = np.sort(np.asarray(values, dtype=np.float64).ravel())
    if not vals.size:
        raise StatsError(f"{name} sample is empty")
    if not np.isfinite(vals).all():
        raise StatsError(f"{name} sample contains non-finite values")
    vals.flags.writeable = False
    return vals


def ecdf(samples) -> EmpiricalCdf:
    """Empirical CDF of a non-empty finite sample (ties allowed)."""
    vals = _sorted_samples(samples, "the")
    return EmpiricalCdf(vals, vals.size)


def kolmogorov_q(lam: float) -> float:
    """Kolmogorov survival function Q(lambda), the limiting p-value.

    The alternating series is summed until a term drops below 1e-12
    (never fewer than 50 terms for small lambda, where convergence is
    slow).  Q(0) = 1 by its limit; below lambda = 0.01 the result is 1
    to double precision, returned directly.
    """
    if not (isinstance(lam, numbers.Real) and not isinstance(lam, bool)
            and math.isfinite(lam) and lam >= 0):
        raise StatsError(f"lambda must be a finite real >= 0, got {lam!r}")
    lam = float(lam)  # no fixed-width integer arithmetic below
    if lam < 0.01:
        return 1.0
    total = 0.0
    k = 1
    while True:
        term = math.exp(-2.0 * (k * lam) ** 2)
        total += term if k % 2 else -term
        if term < 1e-12 and (lam > 0.2 or k >= 50):
            break
        k += 1
    return min(1.0, max(0.0, 2.0 * total))


@dataclass(frozen=True)
class KsResult:
    """Outcome of a two-sample KS comparison.

    ``effective_n`` is m*n/(m+n); ``same_distribution`` holds exactly
    when ``p_value > alpha``.
    """

    d_stat: float
    p_value: float
    alpha: float
    effective_n: float
    same_distribution: bool


def ks_two_sample(a, b, alpha: float = 0.05) -> KsResult:
    """Exact-D two-sample KS test at significance level ``alpha``.

    Each sample is sorted, and a stable argsort of the two sorted runs
    laid end to end merges them in linear time.  Along the merge, the
    running sum of +n per first-sample value and -m per second-sample
    value is i*n - j*m, where i and j count the values of each sample
    up to that position.  Ties, within or across the samples (-0.0 and
    0.0 are one value), accumulate before the gap is measured: the sum
    is read only where a run of equal values ends, so quantized data is
    handled correctly.
    """
    if not 0 < alpha < 1:
        raise StatsError(f"alpha must be in (0, 1), got {alpha}")
    xs = _sorted_samples(a, "first")
    ys = _sorted_samples(b, "second")
    m, n = xs.size, ys.size
    pooled = np.concatenate([xs, ys])
    order = np.argsort(pooled, kind="stable")
    pooled = pooled[order]
    # +n where the value is the first sample's, -m where the second's;
    # |i*n - j*m| stays at or below m*n, exact in int64 for any sample
    # that fits in memory
    walk = (order < m).astype(np.int64)
    del order
    walk *= m + n
    walk -= m
    np.cumsum(walk, out=walk)
    # The sum after the last value is m*n - n*m = 0, so only the ends of
    # the runs before it are read.
    gaps = walk[:-1][pooled[1:] != pooled[:-1]]
    d_stat = int(np.max(np.abs(gaps, out=gaps), initial=0)) / (m * n)

    effective_n = m * n / (m + n)
    lam = d_stat * math.sqrt(effective_n)
    p = kolmogorov_q(lam)
    return KsResult(d_stat=d_stat, p_value=p, alpha=alpha,
                    effective_n=effective_n, same_distribution=p > alpha)


def waveform_samples_for_cdf(first: Waveform, second: Waveform,
                             window_mult: float = 3.0,
                             resolution: float = 1e-9
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude populations for a CDF comparison of two pulses.

    The waveforms are normalized and peak-aligned, then restricted to a
    window of ``window_mult`` times the larger FWHM on each side of the
    common peak; the sample values inside that window form the two
    populations.

    ``resolution`` rounds the normalized amplitudes to that grid (in
    units of the unit peak) before they are compared.  Any recorded
    amplitude is quantized by the instrument that captured it; making
    the resolution explicit keeps the comparison from resolving
    arithmetic dust many orders below the signal, which would otherwise
    show up as spurious distribution differences between two otherwise
    identical quiet stretches.  Pass 0 to disable.
    """
    if not window_mult > 0:
        raise StatsError(f"window_mult must be > 0, got {window_mult}")
    if not 0 <= resolution < 1:
        raise StatsError(f"resolution must lie in [0, 1), got {resolution}")
    w1, w2 = normalize_align(first, second)
    m1 = fwhm(w1)
    width = max(m1.fwhm, fwhm(w2).fwhm)
    lo = max(w1.t0, m1.t_peak - window_mult * width)
    hi = min(w1.t_end, m1.t_peak + window_mult * width)
    a = w1.slice_time(lo, hi).samples.copy()
    b = w2.slice_time(lo, hi).samples.copy()
    if resolution:
        a = np.round(a / resolution) * resolution
        b = np.round(b / resolution) * resolution
    return a, b
