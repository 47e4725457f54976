"""Uniformly sampled waveforms and their CSV persistence.

A Waveform is the common currency between the simulator, the pulse
metrology routines and the statistics layer: a read-only float64 vector
plus a start time and a fixed sample interval.  Files use a small
self-describing CSV dialect (``time_s,value`` rows, ``#`` comment
header) that round-trips bit exactly through ``%.17g`` formatting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import WaveformError

#: Relative spacing tolerance accepted when reading files produced
#: elsewhere; our own writer is exact.
DT_UNIFORMITY_RTOL = 1e-6


def _frozen(arr) -> bool:
    """True when no array in ``arr``'s ``.base`` chain is writable and
    the chain ends in an array owning its memory."""
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        arr = arr.base
    return arr is None


@dataclass(frozen=True)
class Waveform:
    """Uniformly sampled real signal.

    Parameters
    ----------
    t0 : float
        Time of the first sample, seconds.
    dt : float
        Sample interval, seconds, strictly positive.
    samples : array_like
        Sample values; copied into a read-only float64 array, unless
        they already are a 1-D float64 array that nothing can write
        (read-only down its whole ``.base`` chain), which is kept.
    unit : str
        Unit tag for the values, e.g. ``"A"`` or ``"V"``.  Purely
        informational; empty string means dimensionless.
    """

    t0: float
    dt: float
    samples: np.ndarray
    unit: str = ""

    def __post_init__(self) -> None:
        arr = self.samples
        if not (type(arr) is np.ndarray and arr.dtype == np.float64
                and arr.ndim == 1 and _frozen(arr)):
            arr = np.array(arr, dtype=np.float64, copy=True)
        if arr.ndim != 1:
            raise WaveformError("samples must be one-dimensional")
        if arr.size < 2:
            raise WaveformError("a waveform needs at least two samples")
        if not np.all(np.isfinite(arr)):
            raise WaveformError("samples must be finite")
        dt = float(self.dt)
        t0 = float(self.t0)
        if not (math.isfinite(dt) and dt > 0.0):
            raise WaveformError(f"dt must be a positive real, got {self.dt!r}")
        if not math.isfinite(t0):
            raise WaveformError("t0 must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "t0", t0)

    def __len__(self) -> int:
        return int(self.samples.size)

    def __iter__(self) -> Iterator[float]:
        return iter(self.samples)

    @property
    def t_end(self) -> float:
        """Time of the last sample."""
        return self.t0 + (len(self) - 1) * self.dt

    def times(self) -> np.ndarray:
        """Sample times as ``t0 + k*dt``, the same formula the writer uses."""
        return self.t0 + self.dt * np.arange(len(self), dtype=np.float64)

    def value_at(self, t) -> float | np.ndarray:
        """Linear interpolation at time(s) ``t``; clamps outside the span."""
        out = np.interp(t, self.times(), self.samples)
        return float(out) if np.isscalar(t) else out

    def with_samples(self, samples, unit: str | None = None) -> "Waveform":
        """Same grid, new sample values (and optionally a new unit)."""
        return Waveform(self.t0, self.dt, samples,
                        self.unit if unit is None else unit)

    def index_at(self, t: float) -> int:
        """Index of the sample nearest to time ``t`` (clamped to range)."""
        k = int(round((float(t) - self.t0) / self.dt))
        return min(max(k, 0), len(self) - 1)

    def slice_time(self, t_start: float, t_stop: float) -> "Waveform":
        """Sub-waveform covering ``[t_start, t_stop]`` (nearest samples)."""
        a = self.index_at(t_start)
        b = self.index_at(t_stop)
        if b - a + 1 < 2:
            raise WaveformError(
                f"window [{t_start:g}, {t_stop:g}] s covers fewer than two samples")
        return Waveform(self.t0 + a * self.dt, self.dt,
                        self.samples[a:b + 1], self.unit)


def write_waveform_csv(path, wave: Waveform) -> None:
    """Write ``wave`` to ``path`` in the pulsenet waveform CSV dialect.

    The header records the unit and the exact ``dt`` so that reading the
    file back reconstructs the object bit for bit.
    """
    lines = ["# pulsenet waveform v1"]
    if wave.unit:
        lines.append(f"# unit = {wave.unit}")
    lines.append(f"# dt = {wave.dt:.17g}")
    lines.append("time_s,value")
    rows = np.column_stack((wave.times(), wave.samples))
    body = ("%.17g,%.17g\n" * len(wave)) % tuple(rows.ravel().tolist())
    Path(path).write_text("\n".join(lines) + "\n" + body, encoding="ascii")


def read_waveform_csv(path) -> Waveform:
    """Parse a waveform CSV file written by us or by compatible tools.

    Accepts ``#`` comment lines (a ``# dt = ...`` comment, when present,
    supplies the exact sample interval), an optional ``time_s,value``
    header row, then one ``time,value`` pair per line.  Rows must be
    uniformly spaced to within ``DT_UNIFORMITY_RTOL``; the first
    offending row is named in the error.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise WaveformError(f"cannot read waveform file {path}: {exc}") from exc

    unit = ""
    dt_header: float | None = None
    times: list[float] = []
    values: list[float] = []
    linenos: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if "=" in body:
                key, _, val = body.partition("=")
                key = key.strip().lower()
                val = val.strip()
                if key == "unit":
                    unit = val
                elif key == "dt":
                    try:
                        dt_header = float(val)
                    except ValueError:
                        raise WaveformError(
                            f"{path}:{lineno}: bad dt header {val!r}") from None
            continue
        if line.lower().replace(" ", "") == "time_s,value":
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise WaveformError(
                f"{path}:{lineno}: expected 'time,value', got {raw!r}")
        try:
            t = float(parts[0])
            v = float(parts[1])
        except ValueError:
            raise WaveformError(
                f"{path}:{lineno}: non-numeric field in {raw!r}") from None
        if not (math.isfinite(t) and math.isfinite(v)):
            raise WaveformError(f"{path}:{lineno}: non-finite field in {raw!r}")
        times.append(t)
        values.append(v)
        linenos.append(lineno)

    if len(times) < 2:
        raise WaveformError(f"{path}: waveform needs at least two data rows")

    t_arr = np.asarray(times)
    if dt_header is not None:
        dt = dt_header
    else:
        dt = (t_arr[-1] - t_arr[0]) / (len(t_arr) - 1)
    if not (math.isfinite(dt) and dt > 0.0):
        raise WaveformError(f"{path}: non-increasing time column")

    # Uniformity check against the nominal grid, reporting the first bad row.
    grid = t_arr[0] + dt * np.arange(len(t_arr))
    bad = np.flatnonzero(np.abs(t_arr - grid) > DT_UNIFORMITY_RTOL * dt)
    if bad.size:
        k = int(bad[0])
        raise WaveformError(
            f"{path}:{linenos[k]}: non-uniform sampling at data row {k + 1} "
            f"(t={times[k]:.17g}, expected {grid[k]:.17g})")

    return Waveform(float(t_arr[0]), float(dt), values, unit)
