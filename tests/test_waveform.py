"""Waveform container and its CSV dialect."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pulsenet import Waveform, WaveformError, read_waveform_csv, write_waveform_csv
from pulsenet import waveform
from conftest import traced_peak


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
    with pytest.raises(WaveformError, match="t0 must be finite"):
        Waveform(np.inf, 1.0, [1.0, 2.0])


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


def per_row_lines(rows):
    """The rows of a 2-D array as CSV lines, formatted one value at a time."""
    return "".join(",".join(f"{x:.17g}" for x in row) + "\n"
                   for row in np.asarray(rows).tolist()).encode("ascii")


def per_row_csv(wave):
    """The waveform file as formatted one row at a time."""
    lines = ["# pulsenet waveform v1"]
    if wave.unit:
        lines.append(f"# unit = {wave.unit}")
    lines.append(f"# dt = {wave.dt:.17g}")
    lines.append("time_s,value")
    head = "".join(line + "\n" for line in lines).encode("ascii")
    return head + per_row_lines(np.column_stack((wave.times(), wave.samples)))


def kernel_lines(rows):
    """``rows`` formatted by the writer's kernel, one block at a time,
    and the number of blocks it left to ``%``."""
    parts, declined = [], 0
    for a in range(0, len(rows), waveform._BLOCK_ROWS):
        block = rows[a:a + waveform._BLOCK_ROWS]
        out = waveform._kernel_rows(block)
        declined += out is None
        parts.append(per_row_lines(block) if out is None else out.tobytes())
    return b"".join(parts), declined


#: Values at the edges of the 17-digit layouts: the fixed/exponent
#: switch at 1e-4 and 1e17, 2**53, and a carry to the next power of ten.
BOUNDARY = [9.9999999999999995e-5, 1e-4, 2.0 ** 53, 1e16,
            99999999999999999.0, 1e17, -0.0, 0.0, 5e-324, -2.2e-310,
            1.7e308, -1.7e308, 1.0 + 2.0 ** -17, 3 * 2.0 ** -24]


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


@settings(max_examples=300, deadline=None)
@given(samples=st.lists(st.floats(allow_nan=False, allow_infinity=False)
                        | st.sampled_from(BOUNDARY), min_size=2, max_size=40),
       t0=st.floats(-1e-3, 1e-3), dt=st.floats(1e-15, 1e-3))
@example(samples=BOUNDARY, t0=0.0, dt=1e-12)
def test_writer_matches_the_per_row_formatter_on_any_finite_doubles(
        tmp_path_factory, samples, t0, dt):
    w = Waveform(t0, dt, samples, "V")
    path = tmp_path_factory.mktemp("prop") / "wave.csv"
    write_waveform_csv(path, w)
    assert path.read_bytes() == per_row_csv(w)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(1e-280, 1e280, exclude_max=True)
                | st.sampled_from([0.0, -0.0]), min_size=2, max_size=40)
       .map(lambda v: np.array(v[:len(v) // 2 * 2]).reshape(-1, 2)),
       st.sampled_from([1.0, -1.0]))
def test_kernel_formats_its_range_by_the_per_row_rules(rows, sign):
    out = waveform._kernel_rows(sign * rows)
    # None only beside a rounding tie that needs 10**p as a double-double
    assert out is None or out.tobytes() == per_row_lines(sign * rows)


def test_kernel_matches_the_per_row_formatter_on_random_bit_patterns():
    rng = np.random.default_rng(2024)
    bits = rng.integers(0, 2 ** 64, size=1_200_000, dtype=np.uint64)
    values = bits.view(np.float64)
    size = np.abs(values)
    inside = values[(size >= waveform._KERNEL_MIN) & (size < waveform._KERNEL_MAX)]
    assert len(inside) > 1_000_000
    rows = inside[:len(inside) // 2 * 2].reshape(-1, 2)
    text, declined = kernel_lines(rows)
    assert text == per_row_lines(rows)
    assert declined <= 1
    # The kernel declines the rest (subnormals, the ends of the range,
    # inf and nan), which leaves their blocks to %.
    rest = values[~((size >= waveform._KERNEL_MIN) & (size < waveform._KERNEL_MAX))]
    rows = rest[:len(rest) // 2 * 2].reshape(-1, 2)
    assert all(waveform._kernel_rows(rows[a:a + 100]) is None
               for a in range(0, len(rows), 100))


def test_kernel_matches_the_per_row_formatter_on_powers_of_ten(tmp_path):
    powers = np.array([float(f"1e{k}") for k in range(-320, 309)])
    values = np.concatenate([powers, np.nextafter(powers, 0.0),
                             np.nextafter(powers, np.inf), -powers])
    size = np.abs(values)
    inside = values[(size >= waveform._KERNEL_MIN) & (size < waveform._KERNEL_MAX)]
    text, declined = kernel_lines(inside.reshape(-1, 2))
    assert declined == 0
    assert text == per_row_lines(inside.reshape(-1, 2))
    w = Waveform(0.0, 1e-12, values, "A")
    write_waveform_csv(tmp_path / "powers.csv", w)
    assert (tmp_path / "powers.csv").read_bytes() == per_row_csv(w)


def test_all_zero_waveform_is_written_by_the_kernel(tmp_path):
    w = Waveform(0.0, 1e-12, np.r_[np.zeros(5), -np.zeros(5)])
    rows = np.column_stack((w.times(), w.samples))
    assert waveform._kernel_rows(rows).tobytes() == per_row_lines(rows)
    write_waveform_csv(tmp_path / "zero.csv", w)
    assert (tmp_path / "zero.csv").read_bytes() == per_row_csv(w)
    assert b"\n0,0\n" in per_row_csv(w) and b",-0\n" in per_row_csv(w)


@pytest.mark.parametrize("value", [5e-324, 1e280, -1e-281, 3 * 2.0 ** -24])
def test_block_outside_the_kernel_is_formatted_by_percent(tmp_path, value):
    """A subnormal, a value beyond the range, or a rounding tie where
    10**p is a double-double sends its whole block to ``%``; the blocks
    around it still go through the kernel."""
    n = 2 * waveform._BLOCK_ROWS + 10
    samples = np.linspace(-1.0, 1.0, n) * 1e-3
    samples[waveform._BLOCK_ROWS + 3] = value
    w = Waveform(0.0, 1e-12, samples, "A")
    rows = np.column_stack((w.times(), w.samples))
    blocks = [rows[a:a + waveform._BLOCK_ROWS]
              for a in range(0, n, waveform._BLOCK_ROWS)]
    assert [waveform._kernel_rows(b) is None for b in blocks] == [False, True, False]
    write_waveform_csv(tmp_path / "mixed.csv", w)
    assert (tmp_path / "mixed.csv").read_bytes() == per_row_csv(w)


@pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (3, 7)])
def test_writer_matches_the_per_row_formatter_across_block_edges(
        tmp_path, blocks, extra):
    """Files of B - 1, B, B + 1 and 3B + 7 rows (B = _BLOCK_ROWS), with
    the BOUNDARY values across every block edge and the file's ends: in
    the kernel's range at every other edge, all of them (so the blocks
    go to ``%``) at the rest."""
    n = blocks * waveform._BLOCK_ROWS + extra
    samples = np.linspace(-1.0, 1.0, n) * 1e-3
    inside = [x for x in BOUNDARY
              if x == 0.0 or waveform._KERNEL_MIN <= abs(x) < waveform._KERNEL_MAX]
    edges = [*range(0, n, waveform._BLOCK_ROWS), n]
    for j, edge in enumerate(edges):
        values = inside if j % 2 == 0 else BOUNDARY
        a = min(max(edge - len(values) // 2, 0), n - len(values))
        samples[a:a + len(values)] = values
    w = Waveform(-3.7e-9, 0.8137e-12, samples, "A")
    path = tmp_path / "edges.csv"
    write_waveform_csv(path, w)
    assert path.read_bytes() == per_row_csv(w)


def test_writer_memory_does_not_grow_with_the_record(tmp_path):
    """The writer holds one block of rows, never the whole file's."""
    rng = np.random.default_rng(8)
    write_waveform_csv(tmp_path / "warm.csv", Waveform(0.0, 1e-12, [0.0, 1.0]))
    for n in (200_001, 2_000_001):
        w = Waveform(1e-9, 1e-12, rng.normal(31e-3, 5e-3, size=n), "A")
        assert traced_peak(write_waveform_csv, tmp_path / "w.csv", w) <= 2_500_000


def test_reader_memory_is_the_rows_and_one_copy_of_the_samples(tmp_path):
    rng = np.random.default_rng(9)
    path = tmp_path / "w.csv"
    write_waveform_csv(path, Waveform(1e-9, 1e-12,
                                      rng.normal(31e-3, 5e-3, size=200_001), "A"))
    read_waveform_csv(path)
    assert traced_peak(read_waveform_csv, path) <= 6_400_000


def test_exact_ties_round_to_even_in_the_kernel():
    # 1 + 2**-17 is 1.00000762939453125: its 17-digit rounding is a tie,
    # decided exactly since 10**16 is a double.
    rows = np.array([[1.0 + 2.0 ** -17, -(1.0 + 3 * 2.0 ** -17)]])
    assert waveform._kernel_rows(rows).tobytes() == \
        b"1.0000076293945312,-1.0000228881835938\n"
    assert per_row_lines(rows) == b"1.0000076293945312,-1.0000228881835938\n"


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

    headers_only = tmp_path / "headers.csv"
    headers_only.write_text("# pulsenet waveform v1\n# dt = 1e-12\ntime_s,value\n")
    with pytest.raises(WaveformError, match="headers.csv: waveform needs at "
                                            "least two data rows"):
        read_waveform_csv(headers_only)

    bad_dt = tmp_path / "bad_dt.csv"
    bad_dt.write_text("# pulsenet waveform v1\n# dt = abc\n0.0,1.0\n1.0,1.0\n")
    with pytest.raises(WaveformError, match=r"bad_dt\.csv:2: bad dt header 'abc'"):
        read_waveform_csv(bad_dt)

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
