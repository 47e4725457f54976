"""Two-sample Kolmogorov-Smirnov indistinguishability test.

The statistic D = sup |F_a - F_b| is computed exactly, from a merge of
the two sorted samples walked in blocks of a fixed size: walking the
pooled values in order, a running sum that adds n for each value of the
first sample and subtracts m for each of the second is i*n - j*m, with i
and j the counts of values at or below the current one.  Read at the
last position of each run of equal values, so that ties accumulate
first, its largest magnitude over m*n is D, a ratio of integers with no
accumulated float error.  A run longer than a block is one scalar step,
from two binary searches, so the walk holds the two sorted samples and
one block whatever the ties.  The p-value uses the asymptotic Kolmogorov
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


#: Values per sample in one block of the KS merge.
_KS_BLOCK = 8192


@dataclass(frozen=True, eq=False)
class EmpiricalCdf:
    """Right-continuous empirical distribution function over a sorted,
    read-only sample array."""

    sorted_values: np.ndarray

    def __call__(self, x):
        """F(x) = (number of sample values <= x) / n: a float for a
        scalar ``x``, an array for an array of points.  A NaN point,
        where F is undefined, is a StatsError."""
        if np.isnan(x).any():
            raise StatsError(f"the CDF is undefined at NaN, got {x!r}")
        counts = np.searchsorted(self.sorted_values, x, side="right")
        n = self.sorted_values.size
        return counts / n if np.ndim(counts) else int(counts) / n


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
    return EmpiricalCdf(vals)


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


def significance(alpha: float) -> float:
    """``alpha`` if it lies in (0, 1), else a StatsError."""
    if not 0 < alpha < 1:
        raise StatsError(f"alpha must be in (0, 1), got {alpha}")
    return alpha


def window_multiple(window_mult: float) -> float:
    """``window_mult`` if it is > 0, else a StatsError."""
    if not window_mult > 0:
        raise StatsError(f"window_mult must be > 0, got {window_mult}")
    return window_mult


def amplitude_resolution(resolution: float) -> float:
    """``resolution`` if it lies in [0, 1), else a StatsError."""
    if not 0 <= resolution < 1:
        raise StatsError(f"resolution must lie in [0, 1), got {resolution}")
    return resolution


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


def _ks_numerator(xs: np.ndarray, ys: np.ndarray) -> int:
    """max |i*n - j*m| over the ends of the runs of equal values of the
    two sorted samples, i and j counting each sample's values up to it.

    Each block takes the values of both samples below a cut at most
    ``_KS_BLOCK`` values ahead on either side, so it holds at most
    2 * ``_KS_BLOCK`` values and ends where a run ends.  When no value
    lies below the cut, the cut is the smallest value left, and its whole
    run is one step counted by binary search.  Once one sample is spent,
    |i*n - j*m| only falls towards 0, so the walk stops there.
    """
    m, n = xs.size, ys.size
    i = j = best = 0
    while i < m and j < n:
        cut = min(xs[i + _KS_BLOCK] if i + _KS_BLOCK < m else math.inf,
                  ys[j + _KS_BLOCK] if j + _KS_BLOCK < n else math.inf)
        i1, j1 = int(xs.searchsorted(cut)), int(ys.searchsorted(cut))
        if i1 == i and j1 == j:
            i1 = int(xs.searchsorted(cut, "right"))
            j1 = int(ys.searchsorted(cut, "right"))
            best = max(best, abs(i1 * n - j1 * m))
        else:
            block = np.concatenate((xs[i:i1], ys[j:j1]))
            order = np.argsort(block, kind="stable")
            block = block[order]
            # +n where the value is the first sample's, -m where the
            # second's, after the carry i*n - j*m; |i*n - j*m| stays at or
            # below m*n, exact in int64 for any sample that fits in memory.
            # (Bool arithmetic: np.where is slow on a mask this random.)
            walk = (order < i1 - i) * (n + m) - m
            walk[0] += i * n - j * m
            np.cumsum(walk, out=walk)
            # every later value is at or above the cut, so the block's
            # last value ends a run
            ends = walk[np.append(block[1:] != block[:-1], True)]
            best = max(best, int(np.max(np.abs(ends, out=ends))))
        i, j = i1, j1
    return best


def ks_two_sample(a, b, alpha: float = 0.05) -> KsResult:
    """Exact-D two-sample KS test at significance level ``alpha``.

    Each sample is sorted, and the two are merged one block at a time:
    a stable argsort of a block's values of both samples, laid end to
    end, merges them.  Along the merge, the running sum of +n per
    first-sample value and -m per second-sample value, carried from the
    blocks before, is i*n - j*m, where i and j count the values of each
    sample up to that position.  Ties, within or across the samples
    (-0.0 and 0.0 are one value), accumulate before the gap is measured:
    the sum is read only where a run of equal values ends, so quantized
    data is handled correctly.  A block never splits a run, and a run
    longer than a block is one scalar step, so the test holds the two
    sorted samples and at most 2 * ``_KS_BLOCK`` values besides.
    """
    significance(alpha)
    xs = _sorted_samples(a, "first")
    ys = _sorted_samples(b, "second")
    m, n = xs.size, ys.size
    d_stat = _ks_numerator(xs, ys) / (m * n)

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
    window_multiple(window_mult)
    amplitude_resolution(resolution)
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
