"""Minimal deterministic SVG line plots.

Direct text emission with fixed canvas geometry and ``%.6g`` number
formatting: identical inputs always produce byte-identical files, which
the artifact tests rely on.  No plotting library, no timestamps, no
randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import PulsenetError

WIDTH = 840
HEIGHT = 520
MARGIN_L = 72
MARGIN_R = 24
MARGIN_T = 40
MARGIN_B = 56

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


@dataclass(frozen=True)
class Series:
    label: str
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if x.ndim != 1 or x.shape != y.shape or x.size < 2:
            raise PulsenetError("series needs matching 1-d x/y with >= 2 points")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


def _fmt(v: float) -> str:
    out = f"{v:.6g}"
    return "0" if out == "-0" else out


def _ticks(lo: float, hi: float) -> list[float]:
    """About six round tick positions covering [lo, hi], for lo < hi."""
    raw = (hi - lo) / 6
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw:
            break
    return [k * step for k in range(math.ceil(lo / step),
                                    math.floor(hi / step + 1e-9) + 1)]


def _axis_ticks(name: str, lo: float, hi: float) -> list[float]:
    """The ticks of the ``name`` axis over [lo, hi].  A range whose sixth,
    the least tick step, is not a finite positive double (NaN or infinite
    data, an empty range, a span past the float range), or whose ticks
    the doubles cannot tell apart, is a PulsenetError."""
    if not 0.0 < (hi - lo) / 6 < math.inf:
        raise PulsenetError(f"cannot draw the {name} axis over [{lo!r}, {hi!r}]: "
                            "its width / 6 is not a finite positive double")
    ticks = _ticks(lo, hi)
    if any(b <= a for a, b in zip(ticks, ticks[1:])):
        raise PulsenetError(f"cannot draw the {name} axis over [{lo!r}, {hi!r}]: "
                            "its ticks round to equal doubles")
    return ticks


def line_plot(series: Sequence[Series], title: str = "",
              x_label: str = "", y_label: str = "") -> str:
    """Render labeled series as a complete SVG document string."""
    if not series:
        raise PulsenetError("nothing to plot")
    # numpy's min and max, unlike Python's, pass on a NaN of any series.
    x_lo = float(np.min([np.min(s.x) for s in series]))
    x_hi = float(np.max([np.max(s.x) for s in series]))
    y_lo = float(np.min([np.min(s.y) for s in series]))
    y_hi = float(np.max([np.max(s.y) for s in series]))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_lo -= 1.0
        y_hi += 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    x_ticks = _axis_ticks("x", x_lo, x_hi)
    y_ticks = _axis_ticks("y", y_lo, y_hi)

    px_w = WIDTH - MARGIN_L - MARGIN_R
    px_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x: float) -> float:
        return MARGIN_L + px_w * ((x - x_lo) / (x_hi - x_lo))

    def sy(y: float) -> float:
        return MARGIN_T + px_h * (1.0 - (y - y_lo) / (y_hi - y_lo))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}" '
        f'width="{WIDTH}" height="{HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{px_w}" height="{px_h}" '
        'fill="none" stroke="#333333" stroke-width="1"/>',
    ]
    if title:
        out.append(f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
                   f'font-family="monospace" font-size="15">{_escape(title)}</text>')

    for tx in x_ticks:
        px = sx(tx)
        out.append(f'<line x1="{_fmt(px)}" y1="{MARGIN_T + px_h}" '
                   f'x2="{_fmt(px)}" y2="{MARGIN_T + px_h + 5}" '
                   'stroke="#333333" stroke-width="1"/>')
        out.append(f'<text x="{_fmt(px)}" y="{MARGIN_T + px_h + 20}" '
                   'text-anchor="middle" font-family="monospace" '
                   f'font-size="11">{_fmt(tx)}</text>')
    for ty in y_ticks:
        py = sy(ty)
        out.append(f'<line x1="{MARGIN_L - 5}" y1="{_fmt(py)}" '
                   f'x2="{MARGIN_L}" y2="{_fmt(py)}" '
                   'stroke="#333333" stroke-width="1"/>')
        out.append(f'<text x="{MARGIN_L - 9}" y="{_fmt(py + 4)}" '
                   'text-anchor="end" font-family="monospace" '
                   f'font-size="11">{_fmt(ty)}</text>')
    if x_label:
        out.append(f'<text x="{MARGIN_L + px_w // 2}" y="{HEIGHT - 14}" '
                   'text-anchor="middle" font-family="monospace" '
                   f'font-size="12">{_escape(x_label)}</text>')
    if y_label:
        cy = MARGIN_T + px_h // 2
        out.append(f'<text x="18" y="{cy}" text-anchor="middle" '
                   f'font-family="monospace" font-size="12" '
                   f'transform="rotate(-90 18 {cy})">{_escape(y_label)}</text>')

    for k, s in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        points = " ".join(f"{_fmt(sx(float(xi)))},{_fmt(sy(float(yi)))}"
                          for xi, yi in zip(s.x, s.y))
        out.append(f'<polyline points="{points}" fill="none" '
                   f'stroke="{color}" stroke-width="1.5"/>')
        ly = MARGIN_T + 16 + 16 * k
        lx = WIDTH - MARGIN_R - 150
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{lx + 28}" y="{ly}" font-family="monospace" '
                   f'font-size="11">{_escape(s.label)}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def write_plot(path, series: Sequence[Series], title: str = "",
               x_label: str = "", y_label: str = "") -> None:
    """Write the SVG of :func:`line_plot` to ``path`` as UTF-8, so that
    labels may carry units such as µA."""
    Path(path).write_text(line_plot(series, title, x_label, y_label),
                          encoding="utf-8")
