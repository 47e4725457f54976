"""The bulk waveform-CSV reader against a per-line reference parser.

``reference_read`` below is the straightforward reader: it walks the
file one line at a time, skips blank lines, comments and header rows
wherever they stand, and converts each field with ``float``.
``read_waveform_csv`` must return the same waveform for every file the
writer produces, and on hand-made files either the reference's outcome
or a ``WaveformError`` naming ``path:line``.
"""

import math
import re
import string
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsenet import Waveform, WaveformError, read_waveform_csv, write_waveform_csv
from pulsenet.waveform import DT_UNIFORMITY_RTOL


def reference_read(path) -> Waveform:
    """Waveform of a CSV file parsed line by line in Python."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    unit = ""
    dt_header = None
    times, values, linenos = [], [], []
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
                        dt_header = math.nan
                    if not (math.isfinite(dt_header) and dt_header > 0.0):
                        raise WaveformError(
                            f"{path}:{lineno}: bad dt header {val!r}")
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
    dt = dt_header if dt_header is not None else \
        (t_arr[-1] - t_arr[0]) / (len(t_arr) - 1)
    if not (math.isfinite(dt) and dt > 0.0):
        raise WaveformError(f"{path}: non-increasing time column")
    grid = t_arr[0] + dt * np.arange(len(t_arr))
    bad = np.flatnonzero(np.abs(t_arr - grid) > DT_UNIFORMITY_RTOL * dt)
    if bad.size:
        k = int(bad[0])
        raise WaveformError(
            f"{path}:{linenos[k]}: non-uniform sampling at data row {k + 1} "
            f"(t={times[k]:.17g}, expected {grid[k]:.17g})")
    return Waveform(float(t_arr[0]), float(dt), values, unit)


def assert_same_wave(a: Waveform, b: Waveform) -> None:
    assert (a.t0, a.dt, a.unit) == (b.t0, b.dt, b.unit)
    assert a.samples.tobytes() == b.samples.tobytes()


_extremes = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                             -1e-310, 1.7e308, -1.7e308, 1.7976931348623157e308])
_samples = st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                              _extremes),
                    min_size=2, max_size=60)
_units = st.one_of(st.just(""), st.text(string.ascii_letters + string.digits + "/^",
                                        min_size=1, max_size=6))


@settings(max_examples=300, deadline=None)
@given(samples=_samples,
       t0=st.floats(min_value=-1e300, max_value=1e300),
       dt=st.floats(min_value=5e-324, max_value=1e300, exclude_min=False),
       unit=_units)
def test_round_trip_matches_the_reference(tmp_path_factory, samples, t0, dt, unit):
    wave = Waveform(t0, dt, samples, unit)
    path = tmp_path_factory.mktemp("rt") / "wave.csv"
    write_waveform_csv(path, wave)
    back = read_waveform_csv(path)
    assert_same_wave(back, wave)
    assert_same_wave(back, reference_read(path))


# file text, (line, message) of the rejection or None, and the reference's
# outcome: "same", "accepts" (the bulk reader rejects what the reference
# read) or "rejects" (both reject, the reference at another line)
EDGE_FILES = {
    "crlf": ("# pulsenet waveform v1\r\n# unit = A\r\n# dt = 1\r\n"
             "time_s,value\r\n0,1\r\n1,2\r\n2,3\r\n", None, "same"),
    "crlf-nan": ("time_s,value\r\n0,1\r\n1,nan\r\n2,3\r\n",
                 (3, "non-finite field in '1,nan'"), "same"),
    "blank-lines-in-body": ("time_s,value\n0,1\n\n1,2\n\n\n2,3\n", None, "same"),
    "blank-lines-before-a-bad-row": ("0,1\n\n1,1\n\n2.5,1\n3,1\n",
                                     (5, "non-uniform sampling at data row 3"),
                                     "same"),
    "empty-lines-before-a-bad-row": ("time_s,value\n0,1\n\n\n\n\n\n\n1,x\n",
                                     (9, "non-numeric field in '1,x'"), "same"),
    "whitespace-line-in-body": ("time_s,value\n0,1\n  \n1,2\n2,3\n",
                                (3, "whitespace-only line '  '"), "accepts"),
    "unit-line-in-body": ("# unit = A\ntime_s,value\n0,1\n# unit = V\n1,2\n2,3\n",
                          (4, "comment '# unit = V' after the first data row"),
                          "accepts"),
    "dt-line-in-body": ("# dt = 1\ntime_s,value\n0,1\n# dt = 2\n1,2\n2,3\n",
                        (4, "comment '# dt = 2' after the first data row"),
                        "rejects"),
    "trailing-note": ("time_s,value\n0,1\n1,2 # note\n2,3\n",
                      (3, "non-numeric field in '1,2 # note'"), "same"),
    "repeated-header-in-body": ("time_s,value\n0,1\n1,2\ntime_s,value\n2,3\n",
                                (4, "header 'time_s,value' after the first data row"),
                                "accepts"),
    "repeated-header-on-top": ("time_s,value\nTime_s, Value\n0,1\n1,2\n", None, "same"),
    "underscore": ("time_s,value\n0,1\n1,1_0\n2,3\n",
                   (3, "non-numeric field in '1,1_0'"), "accepts"),
    "empty-field": ("time_s,value\n0,1\n1,\n2,3\n",
                    (3, "non-numeric field in '1,'"), "same"),
    "three-fields": ("time_s,value\n0,1\n1,2,3\n2,3\n",
                     (3, "expected 'time,value', got '1,2,3'"), "same"),
    "three-columns": ("1,2,3\n4,5,6\n",
                      (1, "expected 'time,value', got '1,2,3'"), "same"),
    "one-column": ("1\n2\n3\n", (1, "expected 'time,value', got '1'"), "same"),
    "nan": ("time_s,value\n0,1\n1,nan\n2,3\n",
            (3, "non-finite field in '1,nan'"), "same"),
    "inf": ("time_s,value\n0,1\n1,inf\n2,3\n",
            (3, "non-finite field in '1,inf'"), "same"),
    "nan-before-text": ("0,1\n1,nan\n2,abc\n",
                        (2, "non-finite field in '1,nan'"), "same"),
    "tabs-and-spaces": ("time_s,value\n0 ,\t1\n\t1,  2 \n 2\t, 3\t\n", None, "same"),
    "dt-nan": ("# dt = nan\n0,1\n1,2\n", (1, "bad dt header 'nan'"), "same"),
    "dt-inf": ("# dt = inf\n0,1\n1,2\n", (1, "bad dt header 'inf'"), "same"),
    "dt-zero": ("# dt = 0\n0,1\n1,2\n", (1, "bad dt header '0'"), "same"),
    "dt-negative": ("# unit = A\n# dt = -1e-12\n0,1\n1,2\n",
                    (2, "bad dt header '-1e-12'"), "same"),
}


@pytest.mark.parametrize("name", EDGE_FILES)
def test_edge_files(tmp_path, name):
    text, rejection, reference = EDGE_FILES[name]
    path = tmp_path / f"{name}.csv"
    path.write_bytes(text.encode("ascii"))
    if rejection is None:
        assert_same_wave(read_waveform_csv(path), reference_read(path))
        return
    line, message = rejection
    pattern = rf"{re.escape(name)}\.csv:{line}: {re.escape(message)}"
    with pytest.raises(WaveformError, match=pattern) as caught:
        read_waveform_csv(path)
    if reference == "accepts":
        reference_read(path)
        return
    with pytest.raises(WaveformError) as ref:
        reference_read(path)
    if reference == "same":
        assert str(ref.value) == str(caught.value)


def test_undecodable_file_is_a_read_error(tmp_path):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"0,1\n1,\xff\n")
    with pytest.raises(WaveformError, match="cannot read waveform file"):
        read_waveform_csv(path)


@pytest.mark.parametrize("bad, message", [
    ("nan", "non-finite field"),
    ("x", "non-numeric field"),
    ("# unit = V", "comment '# unit = V' after the first data row"),
])
def test_bad_row_deep_in_a_long_file_is_named(tmp_path, bad, message):
    lines = ["# dt = 1", "time_s,value"]
    lines += [f"{k},{k % 7}" + ("\n" if k % 5 == 0 else "") for k in range(3000)]
    lines[2 + 2345] = bad if bad.startswith("#") else f"2345,{bad}"
    # 2345 data rows above it, every fifth followed by an empty line
    line = 2 + 2345 + 2345 // 5 + 1
    path = tmp_path / "long.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(WaveformError, match=rf"long\.csv:{line}: {re.escape(message)}"):
        read_waveform_csv(path)
