"""Uniformly sampled waveforms and their CSV persistence.

A Waveform is the common currency between the simulator, the pulse
metrology routines and the statistics layer: a read-only float64 vector
plus a start time and a fixed sample interval.  Files use a small
self-describing CSV dialect (``time_s,value`` rows, ``#`` comment
header) that round-trips bit exactly through ``%.17g`` formatting.

Comment lines, blank lines and ``time_s,value`` header rows may stand
only before the first data row; ``# unit = ...`` and ``# dt = ...``
comments there set the unit and the exact sample interval.  From the
first data row on, every line is either empty or one ``time,value``
pair of finite numbers, which numpy's text parser reads in one call.
Rejected there, each naming ``path:line``: a comment line, a header
row, a line of only spaces or tabs, a trailing ``# note``, a row with
other than two fields, and a field that is not a finite number
(``nan``, ``inf``, ``1_0``, an empty field).  Spaces and tabs around a
field are allowed, and so are CRLF line endings.
"""

from __future__ import annotations

import itertools
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


#: The bulk parse of the data rows: comma-separated float64 fields and
#: no comment character, so a ``#`` after the first data row is an
#: error rather than something skipped.
_ROWS = dict(delimiter=",", comments=None, ndmin=2, dtype=np.float64)


def _is_header(line: str) -> bool:
    return line.lower().replace(" ", "") == "time_s,value"


def _load_rows(lines) -> np.ndarray | None:
    """``lines`` as an (n, 2) array, or None when numpy's parser rejects
    a line or the rows do not hold two fields.  Empty lines are skipped."""
    try:
        rows = np.loadtxt(lines, **_ROWS)
    except ValueError:
        return None
    return rows if rows.shape[1] == 2 else None


def _rows_ok(lines) -> bool:
    """True when ``lines`` parse as rows of finite numbers or are all empty."""
    if not any(lines):
        return True
    rows = _load_rows(lines)
    return rows is not None and bool(np.isfinite(rows).all())


def _data_lines(path: Path, first: int) -> list[str]:
    """The file's lines from line ``first`` on, split as the parse split them."""
    return path.read_text(encoding="utf-8").split("\n")[first - 1:]


def _bad_row(path: Path, first: int) -> WaveformError:
    """The error for the first line from ``first`` on that the bulk parse
    rejects or reads as non-finite.

    The line is found by bisection with the bulk parse itself as the
    judge, so this pass cannot accept what the parse rejected."""
    lines = _data_lines(path, first)
    lo, hi = 0, len(lines)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _rows_ok(lines[lo:mid]):
            lo = mid
        else:
            hi = mid
    raw = lines[lo]
    line = raw.strip()
    if _load_rows([raw]) is not None:
        what = f"non-finite field in {raw!r}"
    elif not line:
        what = f"whitespace-only line {raw!r} after the first data row"
    elif line.startswith("#"):
        what = f"comment {raw!r} after the first data row"
    elif _is_header(line):
        what = f"header {raw!r} after the first data row"
    elif len(line.split(",")) != 2:
        what = f"expected 'time,value', got {raw!r}"
    else:
        what = f"non-numeric field in {raw!r}"
    return WaveformError(f"{path}:{first + lo}: {what}")


def read_waveform_csv(path) -> Waveform:
    """Parse a waveform CSV file written by us or by compatible tools.

    The dialect, and what it rejects, is described in the module
    docstring.  Rows must be uniformly spaced to within
    ``DT_UNIFORMITY_RTOL``.  Every rejected file names its first
    offending line.
    """
    path = Path(path)
    try:
        return _read(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise WaveformError(f"cannot read waveform file {path}: {exc}") from exc


def _read(path: Path) -> Waveform:
    unit = ""
    dt_header: float | None = None
    with path.open(encoding="utf-8") as fh:
        # Python reads the leading lines up to the first data row; numpy
        # parses that row and every one after it.
        for first, raw in enumerate(fh, start=1):
            line = raw.strip()
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
                                f"{path}:{first}: bad dt header {val!r}") from None
            elif line and not _is_header(line):
                rows = _load_rows(itertools.chain([raw], fh))
                break
        else:
            raise WaveformError(f"{path}: waveform needs at least two data rows")

    if rows is None or not np.isfinite(rows).all():
        raise _bad_row(path, first)
    if len(rows) < 2:
        raise WaveformError(f"{path}: waveform needs at least two data rows")

    t_arr = rows[:, 0]
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
        lineno = first + [i for i, s in enumerate(_data_lines(path, first)) if s][k]
        raise WaveformError(
            f"{path}:{lineno}: non-uniform sampling at data row {k + 1} "
            f"(t={t_arr[k]:.17g}, expected {grid[k]:.17g})")

    return Waveform(float(t_arr[0]), float(dt), rows[:, 1], unit)
