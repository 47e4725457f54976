"""Unit-aware quantity parsing and flat key=value run configuration.

Config files are plain text: one ``key = value`` per line, ``#`` starts
a comment, blank lines ignored.  Every dimensioned value must carry its
unit (``31mA``, ``600ps``, ``2.555ohm``); bare numbers are accepted
only for dimensionless keys.  Unknown keys are rejected by name: a
typo must never silently fall back to a default.
"""

from __future__ import annotations

import inspect
import math
import re
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from pathlib import Path
from typing import Any, Iterator, Mapping

from .driver import (PULSE_SHAPES, BiasTee, OutputFilter, StimulusSpec,
                     driver_network)
from .errors import ConfigError
from .laser import LaserCircuit, LaserPhysics, circuit_from_physics
from .simulate import METHODS, SWEEP_PARAMS, SimConfig

SI_PREFIXES = {
    "f": -15, "p": -12, "n": -9, "u": -6, "µ": -6,
    "m": -3, "k": 3, "M": 6, "G": 9,
}

#: Recognized base units, longest first so suffix matching is greedy.
UNITS = ("ohm", "Ω", "Hz", "s", "A", "V", "F", "H", "K")

_NUMBER_RE = re.compile(r"([+-]?(?:\d+\.?\d*|\.\d+))(?:[eE][+-]?\d+)?")


def parse_quantity(text: str) -> tuple[float, str]:
    """Parse ``<number><si-prefix?><unit?>`` into (value, base unit).

    The number is parsed as an exact decimal and scaled by the prefix
    before the single conversion to float.  The returned unit is the
    base unit name ("s", "A", "V", "ohm", "F", "H", "Hz", "K") or ""
    for a bare number.
    """
    raw = text.strip()
    match = _NUMBER_RE.match(raw)
    if not match:
        raise ConfigError(f"no number at the start of {text!r}")
    tail = raw[match.end():].strip()
    unit, shift = "", 0
    if tail:
        unit = next((u for u in UNITS if tail.endswith(u)), None)
        if unit is None:
            raise ConfigError(
                f"unknown unit {tail!r} at position {len(raw) - len(tail)} in {text!r}")
        prefix = tail[:-len(unit)]
        if prefix:
            if prefix not in SI_PREFIXES:
                raise ConfigError(
                    f"unknown prefix {prefix!r} at position "
                    f"{len(raw) - len(tail)} in {text!r}")
            shift = SI_PREFIXES[prefix]
    try:
        # Moves the exponent exactly; scaleb would round to the
        # context's 28 digits, a second rounding before float().
        sign, digits, exp = Decimal(match.group()).as_tuple()
        value = Decimal((sign, digits, exp + shift))
        number = float(value)
        in_range = not (math.isinf(number) or (number == 0.0 and value))
    except InvalidOperation:
        # The exponent leaves decimal's range (about 1e18), far past
        # float's: float() reads the text as 0 or as inf, and only a
        # zero significand is in range.
        number, in_range = float(match.group()), not float(match.group(1))
    if not in_range:
        raise ConfigError(f"{raw!r} is outside the float range "
                          f"(it would read as {number:g})")
    return number, "ohm" if unit == "Ω" else unit


def quantity(text: str, unit: str, what: str) -> float:
    """``text`` as a number in ``unit``: a base unit name, or "" for a
    dimensionless number.  Config keys, sweep values and command line
    flags are all read here; each message starts with ``what``."""
    try:
        value, got = parse_quantity(text)
    except ConfigError as exc:
        raise ConfigError(f"{what}: {exc}") from None
    if got == unit:
        return value
    if unit == "":
        raise ConfigError(f"{what} is dimensionless but got unit {got!r}")
    if got == "":
        raise ConfigError(f"{what} needs a unit in {unit!r} "
                          f"(bare numbers are rejected), got {text!r}")
    raise ConfigError(f"{what} expects {unit!r}, got {got!r} in {text!r}")


def default_of(fn, name: str) -> Any:
    """The default of ``fn``'s parameter ``name``.  A config key or a
    command line flag that feeds a library parameter takes its default
    from here, so the library is its one home."""
    return inspect.signature(fn).parameters[name].default


@dataclass(frozen=True)
class Key:
    """Schema entry for one config key.

    ``unit`` is a base unit name for dimensioned quantities, "" for
    dimensionless numbers, "enum" (with ``choices``), "bool", or "str".
    """

    unit: str
    required: bool = False
    default: Any = None
    choices: tuple[str, ...] = ()


def _parse_value(key: str, spec: Key, text: str, where: str) -> Any:
    if spec.unit == "str":
        return text
    if spec.unit == "bool":
        low = text.lower()
        if low in ("true", "yes", "on", "1"):
            return True
        if low in ("false", "no", "off", "0"):
            return False
        raise ConfigError(f"{where}: {key} expects true/false, got {text!r}")
    if spec.unit == "enum":
        if text not in spec.choices:
            raise ConfigError(
                f"{where}: {key} must be one of {spec.choices}, got {text!r}")
        return text
    return quantity(text, spec.unit, f"{where}: {key}")


def _stripped_lines(text: str, source: str) -> Iterator[tuple[str, str, str]]:
    """Each line of ``text`` that holds more than a ``#`` comment, as
    (``source:lineno``, the line without its comment, the raw line)."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield f"{source}:{lineno}", line, raw


def parse_config_text(text: str, schema: Mapping[str, Key],
                      source: str = "<config>") -> dict[str, Any]:
    """Parse and validate config text against ``schema``."""
    out: dict[str, Any] = {}
    for where, line, raw in _stripped_lines(text, source):
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in schema:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        if not val:
            raise ConfigError(f"{where}: empty value for {key!r}")
        out[key] = _parse_value(key, schema[key], val, where)

    missing = [k for k, spec in schema.items() if spec.required and k not in out]
    if missing:
        raise ConfigError(f"{source}: missing required keys {missing}")
    for k, spec in schema.items():
        if k not in out and spec.default is not None:
            out[k] = spec.default
    return out


def load_config(path, schema: Mapping[str, Key]) -> dict[str, Any]:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, schema, str(path))


# --- schemas ---------------------------------------------------------------

# The laser is given by one of two routes, as circuit element values or
# as the physical operating point.  ``required`` marks what a route
# needs; the circuit keys are LaserCircuit's fields, and the physics
# keys come in the order of LaserPhysics's fields.
_LASER_CIRCUIT: dict[str, Key] = {
    "R": Key("ohm", required=True),
    "L": Key("H", required=True),
    "C": Key("F", required=True),
    "R_spon": Key("ohm", required=True),
    "R_o": Key("ohm", required=True),
}

LASER_PHYSICS_KEYS: dict[str, Key] = {
    "T": Key("K", default=300.0),
    "I_d": Key("A", required=True),
    "n_photon": Key("", required=True),
    "tau_photon": Key("s", required=True),
    "tau_spon": Key("s", required=True),
    "beta": Key("", required=True),
    "n_e": Key("", required=True),
    "n_sat": Key("", required=True),
    "delta": Key("", required=True),
    "threshold": Key("A"),
}

#: ``laser-params --invert``: the circuit, and the part of the
#: operating point that the circuit values do not determine.
LASER_CIRCUIT_KEYS: dict[str, Key] = {
    **{k: LASER_PHYSICS_KEYS[k] for k in ("T", "I_d", "n_e", "n_sat")},
    **_LASER_CIRCUIT,
    "threshold": LASER_PHYSICS_KEYS["threshold"],
}

_STIMULUS_KEYS: dict[str, Key] = {
    "bias": Key("A", required=True),
    "amplitude": Key("A", required=True),
    "width": Key("s", required=True),
    "delay": Key("s", default=default_of(StimulusSpec, "delay")),
    "edge": Key("s", default=default_of(StimulusSpec, "edge")),
    "rate": Key("Hz", default=default_of(StimulusSpec, "rate")),
    "shape": Key("enum", default=default_of(StimulusSpec, "shape"),
                 choices=PULSE_SHAPES),
}

_SIM_KEYS: dict[str, Key] = {
    "t_end": Key("s", required=True),
    "dt": Key("s", required=True),
    "method": Key("enum", default=default_of(SimConfig, "method"),
                  choices=METHODS),
    "solver_tol": Key("", default=default_of(SimConfig, "solver_tol")),
}

_DRIVER_KEYS: dict[str, Key] = {
    "bias_tee": Key("bool", default=default_of(driver_network, "bias_tee")),
    "tee_coupling": Key("F", default=default_of(BiasTee, "coupling_farads")),
    "tee_shunt": Key("H", default=default_of(BiasTee, "shunt_henries")),
    "parasitic_L": Key("H", default=default_of(driver_network,
                                                "parasitic_inductance")),
    "filter_R": Key("ohm"),
    "filter_C": Key("F"),
}

SIMULATE_KEYS: dict[str, Key] = {
    **_STIMULUS_KEYS, **_SIM_KEYS, **_DRIVER_KEYS,
    # Either laser route, every key optional and without a default
    # (laser_physics_from supplies T's).
    **{k: Key(key.unit) for k, key in {**_LASER_CIRCUIT,
                                       **LASER_PHYSICS_KEYS}.items()},
}

SWEEP_KEYS: dict[str, Key] = {
    **SIMULATE_KEYS,
    "sweep_param": Key("enum", required=True, choices=SWEEP_PARAMS),
    "sweep_values": Key("str", required=True),
}


# --- builders: parsed dict -> domain objects --------------------------------

def stimulus_spec_from(cfg: Mapping[str, Any]):
    return StimulusSpec(**{k: cfg[k] for k in _STIMULUS_KEYS})


def laser_physics_from(cfg: Mapping[str, Any]):
    return LaserPhysics(*(cfg[k] if key.required else cfg.get(k, key.default)
                          for k, key in LASER_PHYSICS_KEYS.items()))


def laser_circuit_from(cfg: Mapping[str, Any], source: str = "<config>"):
    """Laser element values from either config route (circuit or physics).
    A key of the route not taken is an error, not ignored."""
    has_circuit = "R" in cfg
    has_physics = "n_photon" in cfg
    routes = (f"circuit values ({', '.join(_LASER_CIRCUIT)}) or the "
              "physical operating point (n_photon, ...)")
    if not (has_circuit or has_physics):
        raise ConfigError(f"{source}: no laser given; provide {routes}")
    route, table, other = (
        ("circuit", _LASER_CIRCUIT, LASER_PHYSICS_KEYS) if has_circuit
        else ("physics", LASER_PHYSICS_KEYS, _LASER_CIRCUIT))
    stray = [k for k in other if k in cfg]
    if stray:
        raise ConfigError(f"{source}: give either {routes}, not both; the "
                          f"{route} route is given, so remove {stray}")
    missing = [k for k, key in table.items() if key.required and k not in cfg]
    if missing:
        raise ConfigError(f"{source}: {route} route missing keys {missing}")
    if has_circuit:
        return LaserCircuit(**{k: cfg[k] for k in _LASER_CIRCUIT})
    return circuit_from_physics(laser_physics_from(cfg))


def sim_config_from(cfg: Mapping[str, Any]):
    return SimConfig(**{k: cfg[k] for k in _SIM_KEYS})


def driver_kwargs_from(cfg: Mapping[str, Any], source: str = "<config>") -> dict:
    kwargs: dict[str, Any] = {
        "bias_tee": cfg["bias_tee"],
        "tee": BiasTee(coupling_farads=cfg["tee_coupling"],
                       shunt_henries=cfg["tee_shunt"]),
        "parasitic_inductance": cfg["parasitic_L"],
    }
    has_r = "filter_R" in cfg
    has_c = "filter_C" in cfg
    if has_r != has_c:
        raise ConfigError(
            f"{source}: filter_R and filter_C must be given together")
    if has_r:
        kwargs["output_filter"] = OutputFilter(ohms=cfg["filter_R"],
                                               farads=cfg["filter_C"])
    return kwargs


def sweep_values_from(cfg: Mapping[str, Any], source: str = "<config>"
                      ) -> list[float]:
    """Comma-separated quantity list for the swept stimulus field."""
    unit = _STIMULUS_KEYS[cfg["sweep_param"]].unit
    return [quantity(item.strip(), unit, f"{source}: sweep_values")
            for item in cfg["sweep_values"].split(",")]
