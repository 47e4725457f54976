"""Pre-biased laser driver: stimulus synthesis and network assembly.

The driver keeps the diode biased above threshold with a DC current
source and couples a shaped sub-nanosecond perturbation on top of it
through a bias tee (series coupling capacitor for the pulse path,
series inductor feeding the DC path).  A zero-volt source between the
tee summing node and the diode acts as an ammeter for the total
injection current, which by the current law is the sample-wise sum of
the bias and the coupled perturbation.

Sign convention: positive ``amplitude`` raises the injection current
above the bias (the branch current of the perturbation source itself,
read toward ground, is its negative).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import elements
from .errors import SimulationError, TopologyError, require_memory
from .laser import LaserCircuit, equivalent_branches
from .topology import Branch, Network
from .waveform import Waveform

GROUND = "0"
BIAS_NODE = "bias"        # DC feed, before the tee inductor
PULSE_NODE = "pulse"      # perturbation port, before the coupling cap
TEE_NODE = "tee"          # summing node of the bias tee
DRIVE_NODE = "drive"      # diode anode side of the sense branch
MONITOR_NODE = "mon"      # diode cathode when an output filter is present

BIAS_BRANCH = "IBIAS"
TEE_INDUCTOR = "LTEE"
PULSE_BRANCH = "IPULSE"
TEE_CAPACITOR = "CTEE"
SENSE_BRANCH = "VSENSE"   # zero-volt ammeter carrying the total injection
PARASITIC_BRANCH = "LPAR"
FILTER_RESISTOR = "RFILT"
FILTER_CAPACITOR = "CFILT"

PULSE_SHAPES = ("trapezoid", "gaussian", "raised-cosine")

#: Minimum samples across the pulse width for a trustworthy transient.
MIN_SAMPLES_PER_FWHM = 20


@dataclass(frozen=True)
class StimulusSpec:
    """Shaped current perturbation riding on a DC bias.

    Attributes
    ----------
    bias : float
        DC bias current, A, > 0.
    amplitude : float
        Signed pulse excursion, A, added on top of the bias.
    width : float
        Full width at half maximum of the pulse, s.
    delay : float
        Time at which the first pulse's support begins, s, >= 0.
    edge : float
        10-90 rise/fall time of the trapezoid edges, s (ignored by the
        other shapes).  The full edge duration is ``edge / 0.8``.
    rate : float
        Pulse repetition rate, Hz; subsequent pulses follow every
        ``1/rate`` seconds.
    shape : str
        One of ``"trapezoid"``, ``"gaussian"``, ``"raised-cosine"``.
    """

    bias: float
    amplitude: float
    width: float
    delay: float = 0.0
    edge: float = 100e-12
    rate: float = 100e3
    shape: str = "trapezoid"

    def __post_init__(self) -> None:
        for name in ("bias", "amplitude", "width", "delay", "edge", "rate"):
            if not math.isfinite(getattr(self, name)):
                raise TopologyError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.bias > 0:
            raise TopologyError(f"bias must be > 0 A, got {self.bias}")
        if not self.width > 0:
            raise TopologyError(f"width must be > 0 s, got {self.width}")
        if not self.delay >= 0:
            raise TopologyError(f"delay must be >= 0 s, got {self.delay}")
        if not self.edge >= 0:
            raise TopologyError(f"edge must be >= 0 s, got {self.edge}")
        if not self.rate > 0:
            raise TopologyError(f"rate must be > 0 Hz, got {self.rate}")
        if self.shape not in PULSE_SHAPES:
            raise TopologyError(
                f"unknown pulse shape {self.shape!r}; pick one of {PULSE_SHAPES}")
        if self.shape == "trapezoid" and self.full_edge > self.width:
            raise TopologyError(
                f"trapezoid edge {self.edge:g} s too slow for width {self.width:g} s "
                f"(full edge {self.full_edge:g} s must not exceed the width)")
        if not self.extent < 1.0 / self.rate:
            raise TopologyError(
                f"pulse extent {self.extent:g} s does not fit in the "
                f"repetition period {1.0 / self.rate:g} s")

    @property
    def full_edge(self) -> float:
        """Full (0-100) edge duration implied by the 10-90 edge time."""
        return self.edge / 0.8

    @property
    def extent(self) -> float:
        """Nominal support of one pulse (for placement and rate checks).

        trapezoid: flat top plus both edges; raised-cosine: twice the
        width; gaussian: four widths (amplitude < 2e-5 of peak outside).
        """
        if self.shape == "trapezoid":
            return (self.width - self.full_edge) + 2.0 * self.full_edge
        if self.shape == "raised-cosine":
            return 2.0 * self.width
        return 4.0 * self.width

    def pulse_center(self, k: int = 0) -> float:
        """Center time of the k-th pulse."""
        return self.delay + 0.5 * self.extent + k / self.rate


def _shape_values(spec: StimulusSpec, u: np.ndarray) -> np.ndarray:
    """Unit-peak pulse shape evaluated at offsets ``u`` from the center."""
    w = spec.width
    if spec.shape == "gaussian":
        return np.exp(-4.0 * math.log(2.0) * (u / w) ** 2)
    if spec.shape == "raised-cosine":
        out = 0.5 * (1.0 + np.cos(math.pi * u / w))
        return np.where(np.abs(u) <= w, out, 0.0)
    fe = spec.full_edge
    top = w - fe
    if fe == 0.0:
        return np.where(np.abs(u) <= 0.5 * top, 1.0, 0.0)
    half = 0.5 * (top + 2.0 * fe)
    rise = np.clip((u + half) / fe, 0.0, 1.0)
    fall = np.clip((half - u) / fe, 0.0, 1.0)
    return rise + fall - 1.0


def stimulus(spec: StimulusSpec, t_end: float, dt: float,
             t0: float = 0.0) -> Waveform:
    """Sample the perturbation train on the grid ``t0, t0+dt, ..., t_end``.

    Raises if the grid cannot resolve the pulse
    (fewer than ``MIN_SAMPLES_PER_FWHM`` samples per width).
    """
    if not dt > 0:
        raise SimulationError(f"dt must be > 0 s, got {dt}")
    if dt * MIN_SAMPLES_PER_FWHM > spec.width:
        raise SimulationError(
            f"dt = {dt:g} s is too coarse for a {spec.width:g} s pulse; "
            f"need at least {MIN_SAMPLES_PER_FWHM} samples per width")
    n = int(round((t_end - t0) / dt)) + 1
    if n < 2:
        raise SimulationError(f"grid [{t0:g}, {t_end:g}] s holds fewer than two samples")
    require_memory(8 * n, f"the stimulus on {n:,} samples")
    # The train is the one array built; the sample times t0 + k·dt are
    # formed for each pulse's own slice of k.  The first is t0 + 0·dt,
    # which reads a t0 of -0.0 as 0.0.
    start = t0 + dt * 0
    out = np.zeros(n)
    first = math.floor((start - spec.pulse_center(0)) * spec.rate) - 1
    last = math.ceil((t0 + dt * (n - 1) - spec.pulse_center(0)) * spec.rate) + 1
    # A pulse is 0.0 farther than ``reach`` from its center: past half its
    # extent, or for a Gaussian past 17 widths, where exp(-4 ln2 (u/w)^2)
    # underflows (it does from 16.39 widths on).  Each is evaluated on
    # that index range, one sample wider on each side than the rounding
    # needs.
    reach = 17.0 * spec.width if spec.shape == "gaussian" else 0.5 * spec.extent
    for k in range(max(first, 0), last + 1):
        center = spec.pulse_center(k)
        lo = max(math.floor((center - reach - t0) / dt) - 1, 0)
        hi = min(math.ceil((center + reach - t0) / dt) + 2, n)
        if lo < hi:
            out[lo:hi] += _shape_values(spec, t0 + dt * np.arange(lo, hi) - center)
    out *= spec.amplitude
    out.setflags(write=False)
    return Waveform(start, dt, out, "A")


@dataclass(frozen=True)
class BiasTee:
    """Coupling capacitor and DC-feed inductor of the bias tee."""

    coupling_farads: float = 100e-9
    shunt_henries: float = 1e-6

    def __post_init__(self) -> None:
        if not self.coupling_farads > 0:
            raise TopologyError("coupling capacitance must be > 0 F")
        if not self.shunt_henries > 0:
            raise TopologyError("shunt inductance must be > 0 H")


@dataclass(frozen=True)
class OutputFilter:
    """Parallel RC from the diode cathode to ground (monitor stage)."""

    ohms: float
    farads: float

    def __post_init__(self) -> None:
        if not self.ohms > 0:
            raise TopologyError("filter resistance must be > 0 ohm")
        if not self.farads > 0:
            raise TopologyError("filter capacitance must be > 0 F")


def driver_network(spec: StimulusSpec, circ: LaserCircuit, *,
                   t_end: float, dt: float,
                   bias_tee: bool = True,
                   tee: BiasTee = BiasTee(),
                   output_filter: OutputFilter | None = None,
                   parasitic_inductance: float = 0.0) -> Network:
    """Assemble the full driver network on the grid ``[0, t_end]``.

    With ``bias_tee=False`` both sources feed the summing node directly
    (an idealization useful for checking the current-law identity
    without tee dynamics).  ``parasitic_inductance`` adds a series
    inductor between the sense branch and the diode anode.
    """
    pulse_wave = stimulus(spec, t_end, dt)
    branches: list[Branch] = []
    if bias_tee:
        branches += [
            Branch(BIAS_BRANCH, GROUND, BIAS_NODE,
                   elements.CurrentSource(spec.bias)),
            Branch(TEE_INDUCTOR, BIAS_NODE, TEE_NODE,
                   elements.Inductor(tee.shunt_henries)),
            Branch(PULSE_BRANCH, GROUND, PULSE_NODE,
                   elements.CurrentSource(pulse_wave)),
            Branch(TEE_CAPACITOR, PULSE_NODE, TEE_NODE,
                   elements.Capacitor(tee.coupling_farads)),
        ]
    else:
        branches += [
            Branch(BIAS_BRANCH, GROUND, TEE_NODE,
                   elements.CurrentSource(spec.bias)),
            Branch(PULSE_BRANCH, GROUND, TEE_NODE,
                   elements.CurrentSource(pulse_wave)),
        ]
    branches.append(Branch(SENSE_BRANCH, TEE_NODE, DRIVE_NODE,
                           elements.VoltageSource(0.0)))
    anode = DRIVE_NODE
    if parasitic_inductance:
        if not parasitic_inductance > 0:
            raise TopologyError("parasitic inductance must be > 0 H")
        anode = "anode"
        branches.append(Branch(PARASITIC_BRANCH, DRIVE_NODE, anode,
                               elements.Inductor(parasitic_inductance)))
    cathode = MONITOR_NODE if output_filter is not None else GROUND
    branches += equivalent_branches(circ, anode, cathode)
    if output_filter is not None:
        branches += [
            Branch(FILTER_RESISTOR, MONITOR_NODE, GROUND,
                   elements.Resistor(output_filter.ohms)),
            Branch(FILTER_CAPACITOR, MONITOR_NODE, GROUND,
                   elements.Capacitor(output_filter.farads)),
        ]
    return Network.from_branches(branches, reference=GROUND)
