"""Circuit elements carried as branch payloads.

Linear, time-invariant two-terminal elements only.  Source values are
either a constant float or a :class:`~pulsenet.waveform.Waveform`
sampled on (at least) the simulation grid.  Sign conventions follow the
branch direction: positive resistor/inductor/capacitor current flows
from ``start`` to ``end``; a current source drives its value from
``start`` to ``end`` through itself; a voltage source holds
``v(start) - v(end)`` at its value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import TopologyError
from .waveform import Waveform

SourceValue = float | Waveform


def _check_positive(name: str, value: float) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
        raise TopologyError(f"{name} must be a positive finite number, got {value!r}")


@dataclass(frozen=True)
class Resistor:
    """Ohmic element.  ``ohms`` may be negative, as the dynamic resistances
    of active-device equivalents are, but never zero: a short is a
    zero-volt source, not a resistor."""

    ohms: float

    def __post_init__(self) -> None:
        if not (isinstance(self.ohms, (int, float)) and math.isfinite(self.ohms)
                and self.ohms != 0.0):
            raise TopologyError(
                f"resistance must be finite and non-zero, got {self.ohms!r}")


@dataclass(frozen=True)
class Inductor:
    henries: float

    def __post_init__(self) -> None:
        _check_positive("inductance", self.henries)


@dataclass(frozen=True)
class Capacitor:
    farads: float

    def __post_init__(self) -> None:
        _check_positive("capacitance", self.farads)


@dataclass(frozen=True)
class CurrentSource:
    """Independent current source; ``amps`` may be a waveform."""

    amps: SourceValue

    def __post_init__(self) -> None:
        _check_source("current", self.amps)


@dataclass(frozen=True)
class VoltageSource:
    """Independent voltage source; ``volts`` may be a waveform."""

    volts: SourceValue

    def __post_init__(self) -> None:
        _check_source("voltage", self.volts)


Element = Resistor | Inductor | Capacitor | CurrentSource | VoltageSource


def _check_source(name: str, value: SourceValue) -> None:
    if isinstance(value, Waveform):
        return
    if not (isinstance(value, (int, float)) and math.isfinite(value)):
        raise TopologyError(f"{name} source value must be a finite number "
                            f"or a Waveform, got {value!r}")
