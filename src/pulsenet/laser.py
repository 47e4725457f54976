"""Small-signal equivalent circuit of a directly modulated laser diode.

Around a bias point above threshold the diode's rate equations
linearize to a five-element network between anode and cathode:

    series:   R  --  L  --  R_spon  --  R_o
    parallel: C  (anode to cathode)

with element values tied to the physical operating point through the
differential junction resistance R_d = (2 k T / q) / I_d:

    R       = R_d / (n_photon + 1)
    L       = R_d * tau_photon / n_photon
    C       = tau_spon / R_d
    R_spon  = beta * R_d * n_e / n_photon**2
    R_o     = -(R_d * delta_gain / n_sat) / (1 + n_photon / n_sat)**2

R_o models gain compression and is negative by construction (power
flows out of the electrical port into the optical field).  The map is
invertible in closed form for fixed (T, I_d, n_e, n_sat), which is what
``physics_from_circuit`` implements; it is the calibration path from a
measured impedance fit back to rate-equation quantities.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ModelError
from .topology import Branch, Network
from . import elements

#: Boltzmann constant, J/K.
BOLTZMANN_K = 1.380649e-23
#: Elementary charge, C.
ELEMENTARY_Q = 1.602177e-19

#: Photon numbers below this have no meaningful small-signal circuit
#: (effectively below-threshold operation); rejected, never clamped.
MIN_PHOTON_NUMBER = 1e-9


@dataclass(frozen=True)
class LaserPhysics:
    """Rate-equation operating point of the diode.

    Attributes
    ----------
    temperature : float
        Junction temperature, K.
    bias_current : float
        DC bias current, A; must sit above ``threshold_current``.
    n_photon : float
        Normalized photon number at the bias point.
    tau_photon : float
        Photon lifetime, s.
    tau_spon : float
        Spontaneous (carrier) lifetime, s.
    beta : float
        Spontaneous-emission coupling fraction, in [0, 1).
    n_e : float
        Normalized carrier number, > 0.
    n_sat : float
        Gain-compression saturation photon number, > 0.
    delta_gain : float
        Dimensionless gain-compression strength, >= 0.
    threshold_current : float or None
        Threshold current, A.  ``None`` means "operate exactly at the
        given bias", i.e. the bias is taken as at/above threshold and
        only ``bias_current > 0`` is enforced.
    """

    temperature: float
    bias_current: float
    n_photon: float
    tau_photon: float
    tau_spon: float
    beta: float
    n_e: float
    n_sat: float
    delta_gain: float
    threshold_current: float | None = None

    def __post_init__(self) -> None:
        if not self.temperature > 0:
            raise ModelError(f"temperature must be > 0 K, got {self.temperature}")
        if not self.bias_current > 0:
            raise ModelError(f"bias current must be > 0 A, got {self.bias_current}")
        if self.threshold_current is not None:
            if not self.threshold_current > 0:
                raise ModelError("threshold current must be > 0 A")
            if self.bias_current < self.threshold_current:
                raise ModelError(
                    f"bias {self.bias_current} A is below threshold "
                    f"{self.threshold_current} A; the small-signal circuit "
                    "only exists above threshold")
        if not self.n_photon >= MIN_PHOTON_NUMBER:
            raise ModelError(
                f"n_photon must be >= {MIN_PHOTON_NUMBER:g}, got {self.n_photon}")
        for name in ("tau_photon", "tau_spon", "n_e", "n_sat"):
            if not getattr(self, name) > 0:
                raise ModelError(f"{name} must be > 0, got {getattr(self, name)}")
        if not 0 <= self.beta < 1:
            raise ModelError(f"beta must lie in [0, 1), got {self.beta}")
        if not self.delta_gain >= 0:
            raise ModelError(f"delta_gain must be >= 0, got {self.delta_gain}")


@dataclass(frozen=True)
class LaserCircuit:
    """Equivalent-circuit element values (SI units: ohm, H, F)."""

    R: float
    L: float
    C: float
    R_spon: float
    R_o: float

    def __post_init__(self) -> None:
        for name in ("R", "L", "C"):
            if not getattr(self, name) > 0:
                raise ModelError(f"{name} must be > 0, got {getattr(self, name)}")
        if not self.R_spon >= 0:
            raise ModelError(f"R_spon must be >= 0, got {self.R_spon}")
        if not self.R_o <= 0:
            raise ModelError(f"R_o must be <= 0, got {self.R_o}")
        if not self.series_resistance > 0:
            raise ModelError(
                f"series resistance R + R_spon + R_o = {self.series_resistance:g} "
                "ohm must stay positive; |R_o| this large is unstable")

    @property
    def series_resistance(self) -> float:
        """DC resistance of the series arm: R + R_spon + R_o."""
        return self.R + self.R_spon + self.R_o


def differential_resistance(temperature: float, current: float) -> float:
    """Differential junction resistance R_d = (2 k T / q) / I.

    The factor 2 reflects the recombination-dominated ideality of the
    lasing junction.
    """
    if not temperature > 0:
        raise ModelError(f"temperature must be > 0 K, got {temperature}")
    if not current > 0:
        raise ModelError(f"current must be > 0 A, got {current}")
    return (2.0 * BOLTZMANN_K * temperature / ELEMENTARY_Q) / current


def circuit_from_physics(phys: LaserPhysics) -> LaserCircuit:
    """Element values at the operating point ``phys`` (exact formulas above)."""
    rd = differential_resistance(phys.temperature, phys.bias_current)
    np_ = phys.n_photon
    return LaserCircuit(
        R=rd / (np_ + 1.0),
        L=rd * phys.tau_photon / np_,
        C=phys.tau_spon / rd,
        R_spon=phys.beta * rd * phys.n_e / np_**2,
        R_o=-(rd * phys.delta_gain / phys.n_sat) / (1.0 + np_ / phys.n_sat) ** 2,
    )


def physics_from_circuit(circ: LaserCircuit, temperature: float,
                         bias_current: float, n_e: float, n_sat: float,
                         threshold_current: float | None = None) -> LaserPhysics:
    """Invert :func:`circuit_from_physics` for fixed (T, I_d, n_e, n_sat).

    Each element value pins one unknown:

        n_photon   = R_d / R - 1
        tau_photon = L * n_photon / R_d
        tau_spon   = C * R_d
        beta       = R_spon * n_photon**2 / (R_d * n_e)
        delta_gain = -R_o * n_sat * (1 + n_photon / n_sat)**2 / R_d
    """
    rd = differential_resistance(temperature, bias_current)
    n_photon = rd / circ.R - 1.0
    if not n_photon >= MIN_PHOTON_NUMBER:
        raise ModelError(
            f"R = {circ.R} ohm implies n_photon = {n_photon:.6g}; the values "
            f"are inconsistent with R_d = {rd:.6g} ohm at this bias point")
    return LaserPhysics(
        temperature=temperature,
        bias_current=bias_current,
        n_photon=n_photon,
        tau_photon=circ.L * n_photon / rd,
        tau_spon=circ.C * rd,
        beta=circ.R_spon * n_photon**2 / (rd * n_e),
        n_e=n_e,
        n_sat=n_sat,
        delta_gain=-circ.R_o * n_sat * (1.0 + n_photon / n_sat) ** 2 / rd,
        threshold_current=threshold_current,
    )


def equivalent_branches(circ: LaserCircuit, anode: str,
                        cathode: str) -> tuple[Branch, ...]:
    """Branches of the five-element diode network between two nodes.

    Internal nodes are named ``LD_n1 .. LD_n3``; branch ids ``LD_R``,
    ``LD_L``, ``LD_RS``, ``LD_RO`` (the series arm, anode to cathode)
    and ``LD_C`` in parallel.
    """

    # beta = 0 or delta_gain = 0 makes R_spon or R_o an exact short;
    # realize shorts as 0 V sources so the series-chain topology (and
    # its branch count) stays the same.
    def series_r(ohms: float) -> elements.Element:
        if ohms == 0.0:
            return elements.VoltageSource(0.0)
        return elements.Resistor(ohms)

    return (
        Branch("LD_R", anode, "LD_n1", elements.Resistor(circ.R)),
        Branch("LD_L", "LD_n1", "LD_n2", elements.Inductor(circ.L)),
        Branch("LD_RS", "LD_n2", "LD_n3", series_r(circ.R_spon)),
        Branch("LD_RO", "LD_n3", cathode, series_r(circ.R_o)),
        Branch("LD_C", anode, cathode, elements.Capacitor(circ.C)),
    )


def equivalent_network(circ: LaserCircuit) -> Network:
    """Stand-alone diode network between nodes ``anode`` and ``cathode``
    (the reference); its cycle space has dimension one (the series arm
    against the parallel capacitor)."""
    return Network.from_branches(equivalent_branches(circ, "anode", "cathode"),
                                 reference="cathode")

