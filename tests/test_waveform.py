"""Waveform container and its CSV dialect."""

import numpy as np
import pytest

from pulsenet import Waveform, WaveformError, read_waveform_csv, write_waveform_csv


def test_basic_properties():
    w = Waveform(1e-9, 2e-12, [0.0, 1.0, 4.0, 1.0], "A")
    assert len(w) == 4
    assert w.t_end == pytest.approx(1e-9 + 3 * 2e-12, rel=1e-15)
    assert np.array_equal(w.times(), 1e-9 + 2e-12 * np.arange(4))
    assert list(w) == [0.0, 1.0, 4.0, 1.0]


def test_samples_are_read_only_and_copied():
    src = np.array([0.0, 1.0, 2.0])
    w = Waveform(0.0, 1.0, src)
    src[0] = 99.0
    assert w.samples[0] == 0.0
    with pytest.raises(ValueError):
        w.samples[0] = 5.0

    # A read-only view of a writable array can still change: copied.
    view = src[:]
    view.setflags(write=False)
    assert not np.shares_memory(Waveform(0.0, 1.0, view).samples, src)

    # An array that nothing can write is kept as it is, slices too.
    frozen = np.array([0.0, 1.0, 2.0])
    frozen.setflags(write=False)
    assert Waveform(0.0, 1.0, frozen).samples is frozen
    part = Waveform(0.0, 1.0, frozen).slice_time(1.0, 2.0)
    assert np.shares_memory(part.samples, frozen)


def test_validation():
    with pytest.raises(WaveformError, match="two samples"):
        Waveform(0.0, 1.0, [1.0])
    with pytest.raises(WaveformError, match="dt"):
        Waveform(0.0, 0.0, [1.0, 2.0])
    with pytest.raises(WaveformError, match="dt"):
        Waveform(0.0, -1e-12, [1.0, 2.0])
    with pytest.raises(WaveformError, match="finite"):
        Waveform(0.0, 1.0, [1.0, np.nan])
    with pytest.raises(WaveformError, match="one-dimensional"):
        Waveform(0.0, 1.0, [[1.0, 2.0]])


def test_value_at_interpolates_and_clamps():
    w = Waveform(0.0, 1.0, [0.0, 2.0, 4.0])
    assert w.value_at(0.5) == 1.0
    assert w.value_at(-5.0) == 0.0
    assert w.value_at(99.0) == 4.0
    out = w.value_at(np.array([0.25, 1.75]))
    assert np.allclose(out, [0.5, 3.5])


def test_slice_time_keeps_grid():
    w = Waveform(0.0, 1e-12, np.arange(10, dtype=float))
    cut = w.slice_time(2e-12, 5e-12)
    assert cut.t0 == 2e-12
    assert np.array_equal(cut.samples, [2.0, 3.0, 4.0, 5.0])
    with pytest.raises(WaveformError, match="fewer than two"):
        w.slice_time(3e-12, 3.1e-12)


def test_csv_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    w = Waveform(3.7e-9, 0.8137e-12, rng.standard_normal(257) * 1e-3, "A")
    path = tmp_path / "wave.csv"
    write_waveform_csv(path, w)
    back = read_waveform_csv(path)
    assert back.t0 == w.t0
    assert back.dt == w.dt
    assert back.unit == "A"
    assert np.array_equal(back.samples, w.samples)
    # and the file itself is reproducible byte for byte
    write_waveform_csv(tmp_path / "again.csv", back)
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def per_row_csv(wave):
    """The waveform file as formatted one row at a time."""
    lines = ["# pulsenet waveform v1"]
    if wave.unit:
        lines.append(f"# unit = {wave.unit}")
    lines.append(f"# dt = {wave.dt:.17g}")
    lines.append("time_s,value")
    times = wave.times()
    lines.extend(f"{times[k]:.17g},{wave.samples[k]:.17g}"
                 for k in range(len(wave)))
    return ("\n".join(lines) + "\n").encode("ascii")


@pytest.mark.parametrize("unit", ["A", ""])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_csv_writer_matches_the_per_row_formatter(tmp_path, seed, unit):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 600))
    samples = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    special = [-0.0, 0.0, 5e-324, -2.2e-310, 1e308, -1e308, 1.0, -1.0]
    samples[rng.choice(n, size=len(special), replace=False)] = special
    w = Waveform(float(rng.uniform(-1e-6, 1e-6)), float(rng.uniform(1e-13, 1e-9)),
                 samples, unit)
    path = tmp_path / "wave.csv"
    write_waveform_csv(path, w)
    assert path.read_bytes() == per_row_csv(w)
    assert np.signbit(read_waveform_csv(path).samples).tolist() == \
        np.signbit(samples).tolist()


def test_reader_accepts_headerless_files(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("0.0,1.0\n1.0,2.0\n2.0,3.0\n")
    w = read_waveform_csv(path)
    assert w.dt == 1.0
    assert w.unit == ""
    assert np.array_equal(w.samples, [1.0, 2.0, 3.0])


def test_dt_header_overrides_the_time_column_estimate(tmp_path):
    path = tmp_path / "hdr.csv"
    dt = 2.0 ** -41  # not representable in decimal text of the time column
    times = dt * np.arange(5)
    rows = "\n".join(f"{t:.17g},1.0" for t in times)
    path.write_text(f"# dt = {dt:.17g}\n{rows}\n")
    assert read_waveform_csv(path).dt == dt


def test_non_uniform_row_is_named(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# pulsenet waveform v1\n"
                    "time_s,value\n"
                    "0.0,1.0\n"
                    "1.0,1.0\n"
                    "2.5,1.0\n"  # should be 2.0
                    "3.0,1.0\n")
    with pytest.raises(WaveformError, match=r"bad\.csv:5: non-uniform sampling at data row 3"):
        read_waveform_csv(path)


def test_reader_diagnostics(tmp_path):
    missing = tmp_path / "nope.csv"
    with pytest.raises(WaveformError, match="cannot read"):
        read_waveform_csv(missing)

    short = tmp_path / "short.csv"
    short.write_text("0.0,1.0\n")
    with pytest.raises(WaveformError, match="at least two data rows"):
        read_waveform_csv(short)

    malformed = tmp_path / "malformed.csv"
    malformed.write_text("0.0,1.0\n1.0\n")
    with pytest.raises(WaveformError, match=r"malformed\.csv:2"):
        read_waveform_csv(malformed)

    textual = tmp_path / "textual.csv"
    textual.write_text("0.0,1.0\n1.0,abc\n")
    with pytest.raises(WaveformError, match="non-numeric"):
        read_waveform_csv(textual)

    inf = tmp_path / "inf.csv"
    inf.write_text("0.0,1.0\n1.0,inf\n")
    with pytest.raises(WaveformError, match="non-finite"):
        read_waveform_csv(inf)

    backwards = tmp_path / "backwards.csv"
    backwards.write_text("2.0,1.0\n1.0,1.0\n0.0,1.0\n")
    with pytest.raises(WaveformError, match="non-increasing"):
        read_waveform_csv(backwards)
