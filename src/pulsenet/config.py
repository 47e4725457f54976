"""Unit-aware quantity parsing and flat key=value run configuration.

Config files are plain text: one ``key = value`` per line, ``#`` starts
a comment, blank lines ignored.  Every dimensioned value must carry its
unit (``31mA``, ``600ps``, ``2.555ohm``); bare numbers are accepted
only for dimensionless keys.  Unknown keys are rejected by name: a
typo must never silently fall back to a default.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from pathlib import Path
from typing import Any, Mapping

from .driver import PULSE_SHAPES, BiasTee, OutputFilter, StimulusSpec
from .errors import ConfigError
from .laser import LaserCircuit, LaserPhysics, circuit_from_physics
from .simulate import METHODS, SWEEP_PARAMS, SimConfig

SI_PREFIXES = {
    "f": -15, "p": -12, "n": -9, "u": -6, "µ": -6,
    "m": -3, "k": 3, "M": 6, "G": 9,
}

#: Recognized base units, longest first so suffix matching is greedy.
UNITS = ("ohm", "Ω", "Hz", "s", "A", "V", "F", "H", "K")

_NUMBER_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")


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
    try:
        value = Decimal(match.group())
    except InvalidOperation:  # pragma: no cover - regex should prevent this
        raise ConfigError(f"unreadable number {match.group()!r}") from None
    if not tail:
        return float(value), ""

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
        value = value.scaleb(SI_PREFIXES[prefix])
    if unit == "Ω":
        unit = "ohm"
    return float(value), unit


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
    value, unit = parse_quantity(text)
    if spec.unit == "":
        if unit:
            raise ConfigError(
                f"{where}: {key} is dimensionless but got unit {unit!r}")
        return value
    if unit == "":
        raise ConfigError(
            f"{where}: {key} needs a unit in {spec.unit!r} "
            f"(bare numbers are rejected), got {text!r}")
    if unit != spec.unit:
        raise ConfigError(
            f"{where}: {key} expects {spec.unit!r}, got {unit!r} in {text!r}")
    return value


def parse_config_text(text: str, schema: Mapping[str, Key],
                      source: str = "<config>") -> dict[str, Any]:
    """Parse and validate config text against ``schema``."""
    out: dict[str, Any] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{source}:{lineno}"
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

LASER_CIRCUIT_KEYS: dict[str, Key] = {
    "T": Key("K", default=300.0),
    "I_d": Key("A", required=True),
    "n_e": Key("", required=True),
    "n_sat": Key("", required=True),
    "R": Key("ohm", required=True),
    "L": Key("H", required=True),
    "C": Key("F", required=True),
    "R_spon": Key("ohm", required=True),
    "R_o": Key("ohm", required=True),
    "threshold": Key("A"),
}

_STIMULUS_KEYS: dict[str, Key] = {
    "bias": Key("A", required=True),
    "amplitude": Key("A", required=True),
    "width": Key("s", required=True),
    "delay": Key("s", default=0.0),
    "edge": Key("s", default=100e-12),
    "rate": Key("Hz", default=100e3),
    "shape": Key("enum", default="trapezoid", choices=PULSE_SHAPES),
}

_SIM_KEYS: dict[str, Key] = {
    "t_end": Key("s", required=True),
    "dt": Key("s", required=True),
    "method": Key("enum", default="trapezoidal", choices=METHODS),
    "solver_tol": Key("", default=1e-9),
}

_DRIVER_KEYS: dict[str, Key] = {
    "bias_tee": Key("bool", default=True),
    "tee_coupling": Key("F", default=100e-9),
    "tee_shunt": Key("H", default=1e-6),
    "parasitic_L": Key("H", default=0.0),
    "filter_R": Key("ohm"),
    "filter_C": Key("F"),
}

# The laser can be given either as circuit element values or as the
# physical operating point; exactly one group must be present.
_LASER_CIRCUIT_GROUP: dict[str, Key] = {
    "R": Key("ohm"), "L": Key("H"), "C": Key("F"),
    "R_spon": Key("ohm"), "R_o": Key("ohm"),
}
_LASER_PHYSICS_GROUP: dict[str, Key] = {
    "T": Key("K"), "I_d": Key("A"), "n_photon": Key(""),
    "tau_photon": Key("s"), "tau_spon": Key("s"), "beta": Key(""),
    "n_e": Key(""), "n_sat": Key(""), "delta": Key(""),
    "threshold": Key("A"),
}

SIMULATE_KEYS: dict[str, Key] = {
    **_STIMULUS_KEYS, **_SIM_KEYS, **_DRIVER_KEYS,
    **_LASER_CIRCUIT_GROUP, **_LASER_PHYSICS_GROUP,
}

SWEEP_KEYS: dict[str, Key] = {
    **SIMULATE_KEYS,
    "sweep_param": Key("enum", required=True, choices=SWEEP_PARAMS),
    "sweep_values": Key("str", required=True),
}


# --- builders: parsed dict -> domain objects --------------------------------

def stimulus_spec_from(cfg: Mapping[str, Any]):
    return StimulusSpec(bias=cfg["bias"], amplitude=cfg["amplitude"],
                        width=cfg["width"], delay=cfg["delay"],
                        edge=cfg["edge"], rate=cfg["rate"], shape=cfg["shape"])


def laser_physics_from(cfg: Mapping[str, Any]):
    return LaserPhysics(temperature=cfg.get("T", 300.0),
                        bias_current=cfg["I_d"],
                        n_photon=cfg["n_photon"],
                        tau_photon=cfg["tau_photon"],
                        tau_spon=cfg["tau_spon"],
                        beta=cfg["beta"],
                        n_e=cfg["n_e"],
                        n_sat=cfg["n_sat"],
                        delta_gain=cfg["delta"],
                        threshold_current=cfg.get("threshold"))


def laser_circuit_from(cfg: Mapping[str, Any], source: str = "<config>"):
    """Laser element values from either config route (circuit or physics)."""
    has_circuit = "R" in cfg
    has_physics = "n_photon" in cfg
    if has_circuit and has_physics:
        raise ConfigError(
            f"{source}: give either circuit values (R, L, C, R_spon, R_o) "
            "or the physical operating point (n_photon, ...), not both")
    if has_circuit:
        missing = [k for k in ("L", "C", "R_spon", "R_o") if k not in cfg]
        if missing:
            raise ConfigError(f"{source}: circuit route missing keys {missing}")
        return LaserCircuit(R=cfg["R"], L=cfg["L"], C=cfg["C"],
                            R_spon=cfg["R_spon"], R_o=cfg["R_o"])
    if has_physics:
        missing = [k for k in ("I_d", "tau_photon", "tau_spon", "beta",
                               "n_e", "n_sat", "delta") if k not in cfg]
        if missing:
            raise ConfigError(f"{source}: physics route missing keys {missing}")
        return circuit_from_physics(laser_physics_from(cfg))
    raise ConfigError(
        f"{source}: no laser given; provide circuit values (R, L, C, "
        "R_spon, R_o) or the physical operating point (n_photon, ...)")


def sim_config_from(cfg: Mapping[str, Any]):
    return SimConfig(t_end=cfg["t_end"], dt=cfg["dt"],
                     method=cfg["method"], solver_tol=cfg["solver_tol"])


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
    unit_by_param = {"amplitude": "A", "width": "s", "delay": "s"}
    want = unit_by_param[cfg["sweep_param"]]
    values: list[float] = []
    for item in cfg["sweep_values"].split(","):
        item = item.strip()
        if not item:
            continue
        value, unit = parse_quantity(item)
        if unit != want:
            raise ConfigError(
                f"{source}: sweep value {item!r} needs unit {want!r}")
        values.append(value)
    if not values:
        raise ConfigError(f"{source}: sweep_values is empty")
    return values
