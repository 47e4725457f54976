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

The writer's contract: every field's bytes equal ``'%.17g' % x``, so
files are the same whichever path formats them.  ``write_rows_csv``
(which also writes the CLI's ``summary.csv`` and ``--emit-cdf`` files)
builds and formats one block of 2048 rows at a time with a numpy
kernel, so a write holds about 2 MB besides its input, whatever the
file's length.  Per value the kernel finds the exact decimal exponent
e, rounds |x| * 10**(16 - e) to the 17-digit integer D from a
double-double product (Dekker 1971) with the powers of ten as (hi, lo)
pairs from exact integers, and lays D out by the ``%g`` rules: fixed
notation for exponents -4 to 16, ``d.ddde±XX`` otherwise, trailing
zeros and a bare point dropped, ``-0`` for -0.0.  A rounding tie is
decided to even where 10**(16 - e) is a double.  The kernel leaves a
whole block to ``%`` when the block holds a value that is neither zero
nor within 1e-280 <= |x| < 1e280 (subnormals, the ends of the range,
inf, nan), or one whose scaled fraction lies within 1e-9 of 1/2 while
10**(16 - e) is not a double; the product is within 1e-14 of exact
there.  Its tables are built on the first write, not at import.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
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

    def rows(a: int, b: int) -> np.ndarray:
        # Waveform.times()'s formula on the block's own indices.
        times = wave.t0 + wave.dt * np.arange(a, b, dtype=np.float64)
        return np.column_stack((times, wave.samples[a:b]))

    write_rows_csv(path, lines, len(wave), rows)


def write_rows_csv(path, header, n_rows: int, rows) -> None:
    """Write the ``header`` lines, then ``n_rows`` rows of floats as their
    fields in ``%.17g``, comma-separated, one per line.

    ``rows(a, b)`` gives rows a to b - 1 as a 2-D float array; it is
    called once per block of at most ``_BLOCK_ROWS`` rows, so a file
    never holds more than one block in memory.  Every field's bytes
    equal ``'%.17g' % x``; the module docstring says how the rows are
    formatted.
    """
    head = "".join(line + "\n" for line in header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(head)
        for a in range(0, n_rows, _BLOCK_ROWS):
            block = np.asarray(rows(a, min(a + _BLOCK_ROWS, n_rows)),
                               dtype=np.float64)
            out = _kernel_rows(block)
            fh.write(_percent_rows(block) if out is None else out)


#: Rows built and formatted per call of the kernel (and per write).  The
#: kernel's temporaries take about 480 B per value, 2 MB for a block of
#: two columns; smaller blocks write 100k rows more slowly.
_BLOCK_ROWS = 2048

#: The kernel formats zero and every |x| in [1e-280, 1e280); there the
#: powers of ten, their splits and every partial product stay normal.
_KERNEL_MIN, _KERNEL_MAX = 1e-280, 1e280

#: A block goes to ``%`` when the fraction of some x * 10**p lies this
#: close to 1/2 and 10**p is not a double.  The double-double product
#: is within 1e-14 of x * 10**p.
_TIE_MARGIN = 1e-9

#: Exponents k of the table of 10**k: 10**e for the exponent check
#: (e in [-281, 280]) and 10**p for the scaling (p = 16 - e).
_POW_MIN, _POW_MAX = -281, 297

#: Veltkamp's splitter 2**27 + 1: x*S - (x*S - x) keeps x's top 26 bits.
_SPLIT = 134217729.0

#: Byte slots of one field: sign, the "0.000" of a fixed field below 1,
#: 17 digits with a point slot after each of the first 16, then "e+ddd"
#: and the separator.  A field is the slots that its mask keeps.
_SIGN, _LEAD, _DIGIT, _EXP, _SEP = 0, 1, 6, 39, 44
_SLOTS = 45
_TEMPLATE = b"-0.000" + b"0." * 16 + b"0" + b"e+000" + b","

#: Layouts: fixed notation for the exponent X = -4 ... 16 (layout X + 4),
#: then d.ddde±XX and d.ddde±XXX.
_FIXED_LAYOUTS = 21


@functools.cache
def _tables() -> SimpleNamespace:
    """The kernel's tables, built on first use from exact integers.

    ``hi`` and ``lo``: 10**k rounded and 10**k - hi rounded, at index
    k - _POW_MIN, and ``hi_top`` + ``hi_bottom``, hi split by _SPLIT.
    ``digits``: the ASCII of 0000 ... 9999, one uint32 each.  ``last``
    at j * 10000 + g (``group_rows`` holds the j * 10000): see below.
    ``exponents``: the ASCII of 000 ... 309.  ``masks`` at
    [layout * 17 + sig - 1, slot]: the slot is kept.  ``template``: the
    bytes of _TEMPLATE.
    """
    hi, lo = [], []
    for k in range(_POW_MIN, _POW_MAX + 1):
        h = float(f"1e{k}")   # correctly rounded, as every float() is
        # 10**k - h as one ratio of integers; int / int rounds correctly.
        num, den = h.as_integer_ratio()
        ten_num, ten_den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        lo.append((ten_num * den - num * ten_den) / (ten_den * den))
        hi.append(h)
    hi = np.array(hi)
    t = hi * _SPLIT
    hi_top = t - (t - hi)

    # The digits of 0000 ... 9999, thousands first.
    groups = np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, -1).T
    digits = np.ascontiguousarray(groups + ord("0")).view(np.uint32).ravel()
    # Digits 4j+1 ... 4j+4 of D (after its first) are group j = 0 ... 3;
    # ``last`` is where group g's last nonzero digit stands in D when g
    # is group j, counted from 0 at D's first digit, and 0 for g = 0000.
    z = groups == 0
    trailing = z[:, 3] * (1 + z[:, 2] * (1 + z[:, 1] * (1 + z[:, 0] * 1)))
    last = np.where(trailing == 4, 0, np.arange(4)[:, None] * 4 + 4 - trailing)

    layout = np.arange(_FIXED_LAYOUTS + 2)[:, None, None]
    x = layout - 4
    fixed = layout < _FIXED_LAYOUTS
    sig = np.arange(1, 18)[None, :, None]
    slot = np.arange(_SLOTS)[None, None, :]
    d = (slot - _DIGIT) // 2          # the digit at or before the slot
    in_digits = (slot >= _DIGIT) & (slot < _EXP)
    at_digit = in_digits & ((slot - _DIGIT) % 2 == 0)
    at_point = in_digits & ((slot - _DIGIT) % 2 == 1)
    shown = np.where(fixed & (x >= 0), np.maximum(sig, x + 1), sig)
    mask = ((at_digit & (d < shown))
            | (at_point & (sig > d + 1) & np.where(fixed, x == d, d == 0))
            | (fixed & (x < 0) & (slot >= _LEAD) & (slot < _LEAD + 1 - x))
            | (~fixed & (slot >= _EXP) & (slot < _SEP)
               & ((slot != _EXP + 2) | (layout == _FIXED_LAYOUTS + 1)))
            | (slot == _SEP))
    return SimpleNamespace(
        hi=hi, lo=np.array(lo), hi_top=hi_top, hi_bottom=hi - hi_top,
        digits=digits, last=last.astype(np.uint8).ravel(),
        group_rows=np.arange(4) * 10000,
        exponents=groups[:310, 1:] + np.uint8(ord("0")),
        masks=mask.reshape(-1, _SLOTS),
        template=np.frombuffer(_TEMPLATE, dtype=np.uint8))


def _kernel_rows(block: np.ndarray) -> np.ndarray | None:
    """``block``'s rows as the bytes (uint8) of ``%.17g`` CSV lines, or
    None when a value lies outside the kernel's range or next to a
    rounding tie that the kernel cannot decide.

    Per value: the decimal exponent e, D = round(|x| * 10**(16 - e)) in
    [1e16, 1e17] from a double-double product (Dekker 1971), the digits
    of D, and the field laid out by the ``%g`` rules in fixed byte
    slots, of which one ``np.compress`` keeps the field's own."""
    tab = _tables()
    x = block.ravel()
    a = np.abs(x)
    zero = a == 0.0
    if not np.all(((a >= _KERNEL_MIN) & (a < _KERNEL_MAX)) | zero):
        return None
    a[zero] = 1.0
    hi, lo = tab.hi, tab.lo

    # e = floor(log10 a), made exact by comparing a with 10**e and
    # 10**(e+1) as (hi, lo): log10 may round across an integer.  ie and
    # ip index 10**e and 10**p, p = 16 - e, in the tables.
    ie = np.floor(np.log10(a)).astype(np.int64) - _POW_MIN
    h = hi[ie]
    ie -= (a < h) | ((a == h) & (lo[ie] > 0.0))
    h = hi[ie + 1]
    ie += (a > h) | ((a == h) & (lo[ie + 1] <= 0.0))
    ip = 16 - 2 * _POW_MIN - ie

    # y = a * 10**p in [1e16, 1e17) as prod + c: prod is the rounded
    # product (an integer, as y > 2**53) and c the rest.
    prod = a * hi[ip]
    t = a * _SPLIT
    a_top = t - (t - a)
    a_bottom = a - a_top
    h_top, h_bottom = tab.hi_top[ip], tab.hi_bottom[ip]
    c = ((((a_top * h_top - prod) + a_top * h_bottom) + a_bottom * h_top)
         + a_bottom * h_bottom) + a * lo[ip]
    whole = np.floor(c)
    frac = c - whole
    # Where 10**p is a double (lo = 0), c is exact and so is a tie,
    # which rounds to even as ``%`` does.
    if np.any((np.abs(frac - 0.5) < _TIE_MARGIN) & (lo[ip] != 0.0)):
        return None
    D = prod.astype(np.int64) + whole.astype(np.int64)
    D += (frac > 0.5) | ((frac == 0.5) & (D & 1 == 1))
    carry = D == 10 ** 17
    D[carry] = 10 ** 16
    X = ie + _POW_MIN + carry     # the exponent of the field
    D[zero] = 0
    X[zero] = 0

    # The 17 digits: the first, then four 4-digit groups by table, and
    # sig, the count of digits up to the last nonzero one.  (The
    # remainders are taken by subtraction: int64 % is slow.)
    first = D // 10 ** 16
    rest = D - first * 10 ** 16
    top = rest // 10 ** 8
    bottom = rest - top * 10 ** 8
    groups = np.empty((len(D), 4), dtype=np.int64)
    groups[:, 0] = top // 10 ** 4
    groups[:, 1] = top - groups[:, 0] * 10 ** 4
    groups[:, 2] = bottom // 10 ** 4
    groups[:, 3] = bottom - groups[:, 2] * 10 ** 4
    last = tab.last.take(groups + tab.group_rows)
    sig = 1 + np.maximum(np.maximum(last[:, 0], last[:, 1]),
                         np.maximum(last[:, 2], last[:, 3]))

    ax = np.abs(X)
    layout = np.where((X >= -4) & (X <= 16), X + 4,
                      _FIXED_LAYOUTS + (ax >= 100))
    mask = tab.masks.take(layout * 17 + sig - 1, axis=0)
    mask[:, _SIGN] = np.signbit(x)

    buf = np.empty((len(x), _SLOTS), dtype=np.uint8)
    buf[:] = tab.template
    buf[:, _DIGIT] = first + ord("0")
    buf[:, _DIGIT + 2:_EXP:2] = tab.digits[groups].view(np.uint8)
    buf[:, _EXP + 1] = np.where(X < 0, ord("-"), ord("+"))
    buf[:, _EXP + 2:_SEP] = tab.exponents.take(ax, axis=0)
    buf = buf.reshape(block.shape + (_SLOTS,))
    buf[:, -1, _SEP] = ord("\n")
    return np.compress(mask.ravel(), buf.ravel())


def _percent_rows(block: np.ndarray) -> bytes:
    """``block``'s rows formatted by ``%``, value by value."""
    rows, cols = block.shape
    line = ",".join(["%.17g"] * cols) + "\n"
    return ((line * rows) % tuple(block.ravel().tolist())).encode("ascii")


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

    # Uniformity check against the nominal grid t0 + k*dt, reporting the
    # first bad row.  The deviations are built in the grid's own array,
    # which is freed before Waveform copies the sample column.
    dev = np.arange(len(t_arr), dtype=np.float64)
    dev *= dt
    dev += t_arr[0]
    dev -= t_arr
    np.abs(dev, out=dev)
    bad = np.flatnonzero(dev > DT_UNIFORMITY_RTOL * dt)
    if bad.size:
        k = int(bad[0])
        lineno = first + [i for i, s in enumerate(_data_lines(path, first)) if s][k]
        raise WaveformError(
            f"{path}:{lineno}: non-uniform sampling at data row {k + 1} "
            f"(t={t_arr[k]:.17g}, expected {t_arr[0] + dt * k:.17g})")
    del dev

    return Waveform(float(t_arr[0]), float(dt), rows[:, 1], unit)
