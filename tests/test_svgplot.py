"""SVG emission: byte stability, structure, escaping."""

import numpy as np
import pytest

from pulsenet import PulsenetError
from pulsenet.svgplot import Series, line_plot, write_plot


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


def test_ascii_plot_bytes_are_its_ascii_text(tmp_path):
    path = tmp_path / "plot.svg"
    write_plot(path, two_series(), title="run", x_label="t", y_label="I")
    doc = line_plot(two_series(), title="run", x_label="t", y_label="I")
    assert path.read_bytes() == doc.encode("ascii")
