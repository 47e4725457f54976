"""Pulse-shape measurements on sampled waveforms.

A level crossing is bracketed by the samples on either side of it and
located by linear interpolation between them (``_crossing``).  Crossing
positions are computed in index space and only converted to seconds at
the end; that keeps the width purely a function of the sample values,
so rescaling the amplitude or shifting the time axis cannot perturb it
through floating-point re-association.

Every routine assumes one dominant positive pulse; violations raise
:class:`~pulsenet.errors.MetricsError` instead of returning garbage.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import MetricsError
from .waveform import Waveform


@dataclass(frozen=True)
class PulseMetrics:
    """Geometry of a single pulse.

    ``half_crossings`` holds the rising and falling half-maximum times;
    ``fwhm`` is their difference; ``t_peak`` the time of the maximum
    sample (the earliest, if the maximum is attained more than once).
    """

    peak: float
    t_peak: float
    fwhm: float
    half_crossings: tuple[float, float]


def fwhm(wave: Waveform, baseline: float = 0.0) -> PulseMetrics:
    """Full width at half maximum of the dominant pulse.

    The half level is ``baseline + (peak - baseline) / 2`` (so plain
    ``peak / 2`` for the usual baseline-subtracted input).  The crossings
    are the ones nearest the peak on either side, which makes the width
    immune to ringing or secondary bumps beyond the half-maximum points.
    """
    s = wave.samples
    peak = float(np.max(s))
    if not peak > baseline:
        raise MetricsError(
            f"peak {peak:g} does not rise above the baseline {baseline:g}")
    # A flat top's samples differ in their last bits; only samples
    # that leave the top between them make separate places.
    near = np.flatnonzero(s >= peak - 1e-9 * (peak - baseline))
    runs = int(np.count_nonzero(np.diff(near) > 1)) + 1
    if runs > 1:
        warnings.warn(
            f"waveform reaches its maximum (to 1e-9 of the pulse height) "
            f"in {runs} separate places; measuring the pulse that holds "
            "the highest sample, which need not be the earliest",
            stacklevel=2)
    i_pk = int(np.argmax(s))
    half = baseline + 0.5 * (peak - baseline)
    if float(np.min(s)) > half:
        raise MetricsError(
            f"no half-maximum crossing before the peak or after it: every "
            f"sample lies above the half level {half:g}; remove the DC "
            "level (subtract a baseline) first")

    # the brackets nearest the peak: the last sample at or below the half
    # level before it and the first one after it
    below = np.flatnonzero(s <= half)
    before, after = below[below < i_pk], below[below > i_pk]
    if not before.size:
        raise MetricsError("no half-maximum crossing before the peak "
                           "(pulse clipped at the start?)")
    rise_index = _crossing(s, int(before[-1]), half)
    if not after.size:
        raise MetricsError("no half-maximum crossing after the peak "
                           "(pulse clipped at the end?)")
    fall_index = _crossing(s, int(after[0]) - 1, half)

    t_rise = wave.t0 + wave.dt * rise_index
    t_fall = wave.t0 + wave.dt * fall_index
    return PulseMetrics(peak=peak, t_peak=wave.t0 + wave.dt * i_pk,
                        fwhm=wave.dt * (fall_index - rise_index),
                        half_crossings=(t_rise, t_fall))


def baseline_level(wave: Waveform, window: tuple[float, float]) -> float:
    """Mean over a quiet pre-pulse window: the level
    :func:`baseline_subtract` removes.

    The window is given in seconds and must lie inside the waveform
    span with at least 8 samples.  If the window fluctuates more than
    ten times as much (in variance) as the same-length stretch next to
    it, it very likely contains the pulse itself; the mean is still
    returned but a warning flags the suspect window.
    """
    t_start, t_stop = window
    if t_stop <= t_start:
        raise MetricsError(f"empty baseline window [{t_start:g}, {t_stop:g}] s")
    tol = 0.5 * wave.dt
    if t_start < wave.t0 - tol or t_stop > wave.t_end + tol:
        raise MetricsError(
            f"baseline window [{t_start:g}, {t_stop:g}] s outside the "
            f"waveform span [{wave.t0:g}, {wave.t_end:g}] s")
    quiet = wave.slice_time(t_start, t_stop)
    if len(quiet) < 8:
        raise MetricsError(
            f"baseline window holds only {len(quiet)} samples; need >= 8")
    # assumed-mean accumulation: exact for a constant window and one
    # rounding better than a direct mean for a nearly constant one
    base = float(quiet.samples[0])
    mean = base + float(np.mean(quiet.samples - base))

    span = t_stop - t_start
    adjacent = None
    if t_stop + span <= wave.t_end + tol:
        adjacent = wave.slice_time(t_stop, t_stop + span)
    elif t_start - span >= wave.t0 - tol:
        adjacent = wave.slice_time(t_start - span, t_start)
    if adjacent is not None:
        v_win = float(np.var(quiet.samples))
        v_adj = float(np.var(adjacent.samples))
        if v_win > 10.0 * v_adj:
            warnings.warn(
                f"baseline window variance {v_win:.3g} exceeds 10x the "
                f"adjacent stretch ({v_adj:.3g}); the window looks like it "
                "contains signal", stacklevel=2)
    return mean


def baseline_subtract(wave: Waveform, window: tuple[float, float]) -> Waveform:
    """Remove the mean over a quiet pre-pulse window from every sample
    (see :func:`baseline_level` for the window's requirements)."""
    return wave.with_samples(wave.samples - baseline_level(wave, window))


def _crossing(s: np.ndarray, k: int, level: float) -> float:
    """Index at which ``s`` crosses ``level`` between samples k and k + 1.

    Samples more than the float range apart are halved first, which is
    exact at their size, so their step does not overflow (as Python
    floats, the step that does is inf without a warning)."""
    lo, hi = float(s[k]), float(s[k + 1])
    step = hi - lo
    if math.isinf(step):
        return k + (0.5 * level - 0.5 * lo) / (0.5 * hi - 0.5 * lo)
    return k + (level - lo) / step


def _rising_crossing(wave: Waveform, level: float, which: str) -> float:
    s = wave.samples
    rising = np.flatnonzero((s[:-1] < level) & (level <= s[1:]))
    if not rising.size:
        raise MetricsError(
            f"{which} waveform never rises through level {level:g} "
            f"(range {s.min():g} to {s.max():g})")
    return wave.t0 + wave.dt * _crossing(s, int(rising[0]), level)


def crossing_level(level: float) -> float:
    """``level`` if it is finite, else a MetricsError naming it: no
    waveform crosses a level that is not a number."""
    if not math.isfinite(level):
        raise MetricsError(f"crossing level must be finite, got {level}")
    return level


def delay_at_level(first: Waveform, second: Waveform, level: float) -> float:
    """Offset between the first rising crossings of ``level``.

    Positive when ``second`` crosses later.  The level is in raw
    waveform units and must be finite; no normalization is applied here.
    """
    level = crossing_level(level)
    return _rising_crossing(second, level, "second") \
        - _rising_crossing(first, level, "first")


def normalize_align(first: Waveform, second: Waveform
                    ) -> tuple[Waveform, Waveform]:
    """Scale both pulses to unit peak and align the second peak time to
    the first.

    Both inputs must be baseline-subtracted with positive peaks.  On
    equal steps the second waveform is shifted by whole samples, since
    both peak times are sample times; on different grids it is resampled
    onto the first by linear interpolation.  Both outputs cover the
    overlapping span on the first waveform's grid.
    Each output is scaled by its own maximum over that span, so
    applying the function to its own output changes nothing.
    """
    for which, w in (("first", first), ("second", second)):
        if not float(np.max(w.samples)) > 0:
            raise MetricsError(f"{which} waveform has no positive peak")
    w1, w2 = first, second
    k1, k2 = int(np.argmax(w1.samples)), int(np.argmax(w2.samples))

    if abs(w1.dt - w2.dt) <= 1e-12 * w1.dt:
        # Both peak times are sample times, so the second waveform moves by
        # whole samples: output index i reads w2 at i + kq.
        kq = k2 - k1
        a = max(0, -kq)
        b = min(len(w1) - 1, len(w2) - 1 - kq)
        s2 = w2.samples[a + kq:b + kq + 1]
    else:
        # different grids: plain resampling of the second onto the first
        shift = (w1.t0 + w1.dt * k1) - (w2.t0 + w2.dt * k2)  # delay of the second
        lo_t = max(w1.t0, w2.t0 + shift)
        hi_t = min(w1.t_end, w2.t_end + shift)
        a = int(np.ceil((lo_t - w1.t0) / w1.dt - 1e-9))
        b = int(np.floor((hi_t - w1.t0) / w1.dt + 1e-9))
        tgrid = w1.t0 + w1.dt * np.arange(a, b + 1)
        s2 = w2.value_at(tgrid - shift)
    if b - a + 1 < 2:
        raise MetricsError("waveforms do not overlap after alignment")
    s1 = w1.samples[a:b + 1]
    t_start = w1.t0 + a * w1.dt

    m1 = float(np.max(s1))
    m2 = float(np.max(s2))
    if not (m1 > 0 and m2 > 0):
        raise MetricsError("aligned overlap lost the pulse of one waveform")
    return (Waveform(t_start, w1.dt, s1 / m1, w1.unit),
            Waveform(t_start, w1.dt, s2 / m2, w2.unit))
