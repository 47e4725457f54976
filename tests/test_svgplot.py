"""SVG emission: byte stability, structure, escaping, tick positions."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pulsenet import PulsenetError
from pulsenet.svgplot import Series, _ticks, line_plot, write_plot


def two_series():
    x = np.linspace(0.0, 6.0, 40)
    return [Series("drive [mA]", x, np.sin(x)),
            Series("probe [mA]", x, np.cos(x))]


def test_identical_inputs_render_identical_bytes(tmp_path):
    a = line_plot(two_series(), title="run", x_label="t", y_label="I")
    b = line_plot(two_series(), title="run", x_label="t", y_label="I")
    assert a == b
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    write_plot(p1, two_series(), title="run")
    write_plot(p2, two_series(), title="run")
    assert p1.read_bytes() == p2.read_bytes()


def test_document_structure():
    doc = line_plot(two_series(), title="pulse", x_label="time", y_label="I")
    assert doc.startswith("<svg ")
    assert doc.rstrip().endswith("</svg>")
    assert doc.count("<polyline ") == 2
    assert 'viewBox="0 0 840 520"' in doc
    # One legend label per series, plus the title and both axis labels.
    assert "drive [mA]" in doc
    assert "probe [mA]" in doc
    assert "pulse" in doc


def test_label_escaping():
    x = np.array([0.0, 1.0])
    doc = line_plot([Series("a<b & c>d", x, x)], title="x<y>")
    assert "a&lt;b &amp; c&gt;d" in doc
    assert "x&lt;y&gt;" in doc
    assert "<y>" not in doc


def test_flat_series_still_renders():
    x = np.array([0.0, 1.0, 2.0])
    doc = line_plot([Series("flat", x, np.zeros(3))])
    assert doc.count("<polyline ") == 1


def test_an_x_span_near_the_float_range_keeps_finite_coordinates():
    # px_w * (x - x_lo) overflows past an x span of about 2.4e305; the
    # share of the span must be taken before it is scaled to pixels.
    doc = line_plot([Series("wide", np.array([0.0, 1e307]), np.array([0.0, 1.0]))])
    assert "inf" not in doc
    assert '<polyline points="72,444.727 816,59.2727"' in doc


def test_series_validation():
    with pytest.raises(PulsenetError, match="nothing to plot"):
        line_plot([])
    with pytest.raises(PulsenetError, match="matching 1-d x/y"):
        Series("bad", np.array([1.0]), np.array([1.0]))
    with pytest.raises(PulsenetError, match="matching 1-d x/y"):
        Series("bad", np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))


def test_non_ascii_label_is_written_as_utf8(tmp_path):
    import xml.etree.ElementTree as ET

    x = np.linspace(0.0, 1.0, 5)
    path = tmp_path / "micro.svg"
    write_plot(path, [Series("I [µA]", x, x)], title="µ-scale", y_label="I [µA]")
    root = ET.fromstring(path.read_bytes())
    texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
    assert texts.count("I [µA]") == 2
    assert "µ-scale" in texts


@st.composite
def splittable_ranges(draw):
    """Finite lo < hi whose span is at least a millionth of their
    magnitude, with a normal double for its sixth: a span the doubles
    split into distinct ticks."""
    lo = draw(st.floats(-1e300, 1e300))
    hi = lo + draw(st.floats(1e-300, 1e300))
    assume(hi - lo >= 1e-6 * max(abs(lo), abs(hi)))
    return lo, hi


@settings(max_examples=300, deadline=None)
@given(splittable_ranges())
def test_ticks_are_consecutive_multiples_of_a_round_step(bounds):
    lo, hi = bounds
    ticks = _ticks(lo, hi)
    # the least of 1, 2, 2.5, 5 and 10 times a power of ten that is at
    # least a sixth of the span
    raw = (hi - lo) / 6
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(m * mag for m in (1.0, 2.0, 2.5, 5.0, 10.0) if m * mag >= raw)
    assert 3 <= len(ticks) <= 7
    assert all(a < b for a, b in zip(ticks, ticks[1:]))
    first = round(ticks[0] / step)
    assert ticks == [k * step for k in range(first, first + len(ticks))]
    assert ticks[0] >= lo - 1e-9 * step
    assert ticks[-1] <= hi + 1e-9 * step


def test_ascii_plot_bytes_are_its_ascii_text(tmp_path):
    path = tmp_path / "plot.svg"
    write_plot(path, two_series(), title="run", x_label="t", y_label="I")
    doc = line_plot(two_series(), title="run", x_label="t", y_label="I")
    assert path.read_bytes() == doc.encode("ascii")
