"""Output checks computed apart from pulsenet.

Every check here recomputes its expectation with numpy, scipy or the
standard library, never with a pulsenet function, and raises
:class:`CheckFailed` when the program's output disagrees.  A failed
check marks its operation as failed; it never changes a reported figure.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

import numpy as np
from scipy import stats

#: Exact SI values (2019 redefinition).  pulsenet's own charge constant
#: is rounded to 1.602177e-19 C, which moves R_d by 2.1e-7 relative;
#: ``LASER_RTOL`` sits above that and below any formula error.
BOLTZMANN_K = 1.380649e-23
ELEMENTARY_Q = 1.602176634e-19
LASER_RTOL = 1e-6

PEAK_RTOL = 0.02
FWHM_RTOL = 0.10
KS_D_RTOL = 1e-12
KS_P_ATOL = 1e-9
SHAPE_RTOL = 1e-9


class CheckFailed(Exception):
    """A program output disagrees with its independent computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(got: float, want: float, rtol: float, what: str,
          atol: float = 0.0) -> None:
    require(abs(got - want) <= max(rtol * abs(want), atol),
            f"{what}: got {got!r}, expected {want!r} (rtol {rtol:g})")


# --- laser ------------------------------------------------------------------

def laser_elements(T, I_d, n_photon, tau_photon, tau_spon, beta, n_e, n_sat,
                   delta) -> dict[str, float]:
    """Closed-form small-signal element values at an operating point."""
    rd = 2.0 * BOLTZMANN_K * T / (ELEMENTARY_Q * I_d)
    return {
        "R_d": rd,
        "R": rd / (n_photon + 1.0),
        "L": rd * tau_photon / n_photon,
        "C": tau_spon / rd,
        "R_spon": beta * rd * n_e / n_photon ** 2,
        "R_o": -(rd * delta / n_sat) / (1.0 + n_photon / n_sat) ** 2,
    }


def check_laser(printed: dict[str, float], physics: dict[str, float]) -> None:
    want = laser_elements(**physics)
    for name, value in want.items():
        require(name in printed, f"laser-params printed no {name}")
        close(printed[name], value, LASER_RTOL, f"laser-params {name}")


# --- topology ---------------------------------------------------------------

def incidence(nodes: list[str], edges: list[tuple[str, str]]) -> np.ndarray:
    """Node-by-branch matrix: +1 at the end node, -1 at the start node."""
    index = {label: k for k, label in enumerate(nodes)}
    mat = np.zeros((len(nodes), len(edges)), dtype=np.int64)
    for j, (start, end) in enumerate(edges):
        mat[index[end], j] += 1
        mat[index[start], j] -= 1
    return mat


def check_cycle_basis(bnd: np.ndarray, vectors) -> None:
    """dim = B - rank(boundary), boundary @ V = 0 in integers, rank V = dim."""
    n_branches = bnd.shape[1]
    dim = n_branches - (int(np.linalg.matrix_rank(bnd)) if bnd.size else 0)
    V = np.asarray(vectors, dtype=np.int64).reshape(-1, n_branches)
    require(V.shape[0] == dim,
            f"cycle basis has {V.shape[0]} vectors, kernel dimension is {dim}")
    if dim == 0:
        return
    require(not np.any(bnd @ V.T),
            "a cycle basis vector is outside the kernel of the boundary")
    require(int(np.linalg.matrix_rank(V.astype(np.float64))) == dim,
            "cycle basis vectors are linearly dependent")


# --- KS statistics ----------------------------------------------------------

def ks_reference(a, b) -> tuple[float, float, float]:
    """(D and p-value of ``scipy.stats.ks_2samp``, ``kstwobign.sf(lambda)``)."""
    ref = stats.ks_2samp(a, b, method="asymp")
    m, n = len(a), len(b)
    lam = float(ref.statistic) * math.sqrt(m * n / (m + n))
    return float(ref.statistic), float(ref.pvalue), float(stats.kstwobign.sf(lam))


def check_ks(ref: tuple[float, float, float], d_stat: float, p_value: float,
             same: bool, alpha: float, check_verdict: bool) -> None:
    """Compare a KS result with :func:`ks_reference` of the same samples."""
    d_ref, p_scipy, p_kolmogorov = ref
    close(d_stat, d_ref, KS_D_RTOL, "KS D against ks_2samp", atol=1e-300)
    close(p_value, p_kolmogorov, 0.0, "KS p-value against kstwobign.sf",
          atol=KS_P_ATOL)
    if check_verdict:
        require(same == (p_scipy > alpha),
                f"KS verdict {same} disagrees with ks_2samp p = {p_scipy:g}")


def check_ecdf(samples: np.ndarray, probes: np.ndarray, values) -> None:
    """``values``, an ECDF at ``probes``, must equal count(samples <= x) / n."""
    ordered = np.sort(samples)
    counts = np.searchsorted(ordered, probes, side="right")
    for x, count, got in zip(probes, counts, values, strict=True):
        require(got == count / ordered.size,
                f"ecdf({x!r}) = {got!r}, expected {count}/{ordered.size}")


def check_cdf_file(text: str, d_stat: float) -> None:
    """Printed D (9 significant digits) equals max |F_a - F_b| of the file."""
    rows = text.strip().splitlines()
    require(rows[0] == "x,F_a,F_b", f"unexpected CDF header {rows[0]!r}")
    data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    require(bool(np.all(np.diff(data[:, 0]) > 0)), "CDF x column not increasing")
    require(data[-1, 1] == 1.0 and data[-1, 2] == 1.0,
            "CDF does not reach 1 at the largest value")
    d_file = float(np.max(np.abs(data[:, 1] - data[:, 2])))
    close(d_stat, d_file, 5e-9, "kstest d_stat against the emitted CDF",
          atol=1e-12)


# --- waveforms and pulses ---------------------------------------------------

def parse_waveform_csv(text: str) -> tuple[float, np.ndarray, np.ndarray]:
    """(dt from the header, times, values) of a pulsenet waveform CSV.

    Each data row must reproduce its own text when its floats are
    formatted again with 17 significant digits: the bit-exact round trip.
    """
    dt = None
    times, values = [], []
    for line in text.splitlines():
        if line.startswith("# dt = "):
            dt = float(line[7:])
        elif line and line[0] not in "#t":
            t_txt, v_txt = line.split(",")
            t, v = float(t_txt), float(v_txt)
            require(f"{t:.17g}" == t_txt and f"{v:.17g}" == v_txt,
                    f"CSV row {line!r} does not round-trip at 17 digits")
            times.append(t)
            values.append(v)
    require(dt is not None, "CSV has no dt header")
    return dt, np.array(times), np.array(values)


def fwhm_of(samples: np.ndarray, dt: float) -> tuple[float, int]:
    """(FWHM, index of the first maximum) by linear interpolation of the
    half-maximum crossings on both sides of the maximum."""
    i_pk = int(np.argmax(samples))
    half = 0.5 * samples[i_pk]
    lo = i_pk
    while samples[lo] > half:
        lo -= 1
        require(lo >= 0, "pulse has no rising half-maximum crossing")
    hi = i_pk
    while samples[hi] > half:
        hi += 1
        require(hi < samples.size, "pulse has no falling half-maximum crossing")
    rise = lo + (half - samples[lo]) / (samples[lo + 1] - samples[lo])
    fall = hi - (half - samples[hi]) / (samples[hi - 1] - samples[hi])
    return (fall - rise) * dt, i_pk


def check_pulse(samples: np.ndarray, dt: float, bias: float, amplitude: float,
                width: float, what: str) -> int:
    """Peak = bias + amplitude within 2%, FWHM = width within 10%.

    Returns the index of the peak sample."""
    close(float(np.max(samples)), bias + amplitude, PEAK_RTOL, f"{what} peak")
    width_got, i_pk = fwhm_of(samples - bias, dt)
    close(width_got, width, FWHM_RTOL, f"{what} FWHM")
    return i_pk


def check_same_shape(reference: np.ndarray, other: np.ndarray,
                     what: str) -> None:
    scale = float(np.max(np.abs(reference)))
    err = float(np.max(np.abs(reference - other)))
    require(err <= SHAPE_RTOL * scale,
            f"{what}: normalized waveforms differ by {err:g} of {scale:g}")


def kcl_max_residual(nodes, edges, currents: np.ndarray) -> tuple[float, float]:
    """(max |incidence @ I| over solved steps, max |I|) for branch currents
    ``currents`` of shape (branches, samples)."""
    resid = incidence(list(nodes), list(edges)).astype(np.float64) @ currents[:, 1:]
    return float(np.max(np.abs(resid))), float(np.max(np.abs(currents)))


def check_kcl(nodes, edges, currents: np.ndarray, solver_tol: float) -> None:
    resid, scale = kcl_max_residual(nodes, edges, currents)
    require(resid <= solver_tol * scale,
            f"KCL residual {resid:g} A exceeds {solver_tol:g} x {scale:g} A")


def check_svg(text: str) -> None:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise CheckFailed(f"SVG does not parse as XML: {exc}") from None
    require(root.tag.endswith("svg"), f"SVG root element is {root.tag!r}")
