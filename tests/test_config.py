"""Quantity parsing and config schema validation."""

import math
from decimal import Context, Decimal, localcontext
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pulsenet import (ConfigError, LaserCircuit, SimConfig, StimulusSpec,
                      driver_network)
from pulsenet.config import (Key, LASER_PHYSICS_KEYS, SI_PREFIXES,
                             SIMULATE_KEYS, SWEEP_KEYS, UNITS,
                             driver_kwargs_from, laser_circuit_from,
                             load_config, parse_config_text, parse_quantity,
                             sim_config_from, stimulus_spec_from,
                             sweep_values_from)
from pulsenet.netlist import emit_netlist

CONFIGS = Path(__file__).parent.parent / "configs"

CIRCUIT = dict(R=2.555, L=6.184e-12, C=0.3557e-9,
               R_spon=2.811e-3, R_o=-5.511e-3)


@pytest.mark.parametrize("text,value,unit", [
    ("496ps", 4.96e-10, "s"),
    ("0s", 0.0, "s"),
    ("2.346V", 2.346, "V"),
    ("31mA", 31e-3, "A"),
    ("600ps", 600e-12, "s"),
    ("2.555ohm", 2.555, "ohm"),
    ("-5.511mohm", -5.511e-3, "ohm"),
    ("6.184pH", 6.184e-12, "H"),
    ("0.3557nF", 0.3557e-9, "F"),
    ("100kHz", 100e3, "Hz"),
    ("300.1K", 300.1, "K"),
    ("1e-9s", 1e-9, "s"),
    ("1.5", 1.5, ""),
    ("-2", -2.0, ""),
])
def test_parse_quantity_table(text, value, unit):
    got_value, got_unit = parse_quantity(text)
    assert got_value == value
    assert got_unit == unit


@st.composite
def quantities(draw):
    """(text, number, SI exponent, unit) of a quantity as configs write it."""
    digits = draw(st.text("0123456789", min_size=1, max_size=40))
    point = draw(st.none() | st.integers(0, len(digits)))
    number = draw(st.sampled_from(["", "+", "-"])) + (
        digits if point is None else f"{digits[:point]}.{digits[point:]}")
    if draw(st.booleans()):
        number += draw(st.sampled_from("eE")) + str(draw(st.integers(-330, 330)))
    prefix = draw(st.sampled_from(["", *SI_PREFIXES]))
    unit = draw(st.sampled_from(UNITS)) if prefix or draw(st.booleans()) else ""
    return number + prefix + unit, number, SI_PREFIXES.get(prefix, 0), unit


@settings(max_examples=500, deadline=None)
@given(quantities())
# 28 digits would round this to 2**53 + 1, a tie, before float() does.
@example(("9007199254740.99300000000000000001kA",
          "9007199254740.99300000000000000001", 3, "A"))
# Either side of the largest float and of half the smallest subnormal.
@example(("179.76931348623158e306", "179.76931348623158e306", 0, ""))
@example(("179.76931348623159e306", "179.76931348623159e306", 0, ""))
@example(("2.4703282292062328e-309fF", "2.4703282292062328e-309", -15, "F"))
@example(("-2.4703282292062327e-309fF", "-2.4703282292062327e-309", -15, "F"))
def test_parse_quantity_agrees_with_decimal_arithmetic(quantity):
    """The value is the exact decimal rounded once to a float; a decimal
    that rounds to infinity, or a non-zero one that rounds to zero, is
    an error."""
    text, number, shift, unit = quantity
    with localcontext(Context(prec=100)):
        exact = float(Decimal(number).scaleb(shift))
    if math.isinf(exact) or (exact == 0.0 and Decimal(number)):
        with pytest.raises(ConfigError, match="is outside the float range"):
            parse_quantity(text)
    else:
        assert parse_quantity(text) == (exact, "ohm" if unit == "Ω" else unit)


def test_parse_quantity_aliases():
    assert parse_quantity("3.3uA") == (3.3e-6, "A")
    assert parse_quantity("3.3µA") == (3.3e-6, "A")
    assert parse_quantity("2.555Ω") == (2.555, "ohm")
    assert parse_quantity(" 5ns ") == (5e-9, "s")


def test_parse_quantity_errors_carry_positions():
    with pytest.raises(ConfigError, match="no number at the start"):
        parse_quantity("fast")
    with pytest.raises(ConfigError, match="unknown unit 'x' at position 1"):
        parse_quantity("5x")
    # A bare prefix is not a unit; "1m" could mean mA or mohm.
    with pytest.raises(ConfigError, match="unknown unit 'm'"):
        parse_quantity("1m")
    with pytest.raises(ConfigError, match="unknown prefix 'x' at position 4"):
        parse_quantity("12.5xF")


def test_quantities_outside_the_float_range_are_errors():
    for text, reads_as in (("1e999ps", "inf"), ("-1e999mA", "-inf"),
                           ("1e-999ps", "0"), ("-1e-330", "-0"),
                           # exponents past decimal's range, after the
                           # prefix and before it
                           ("1e999999999999999999ks", "inf"),
                           ("-1e-999999999999999999fs", "-0"),
                           ("1e99999999999999999999999999", "inf"),
                           ("1e-99999999999999999999999999", "0")):
        with pytest.raises(ConfigError, match=rf"^'{text}' is outside the "
                                              rf"float range \(it would read as {reads_as}\)$"):
            parse_quantity(text)
    # Zero and the subnormals are floats.
    assert parse_quantity("0e-999ps") == (0.0, "s")
    assert parse_quantity("0e999999999999999999ks") == (0.0, "s")
    assert parse_quantity("0e99999999999999999999999999") == (0.0, "")
    assert parse_quantity("5e-324") == (5e-324, "")
    # In a config file the error names the file, the line and the key.
    text = (CONFIGS / "pulse600.cfg").read_text(encoding="ascii")
    for key, old, new in (("delay", "2ns", "1e999ps"), ("bias", "31mA", "1e999mA"),
                          ("dt", "1ps", "1e-999ps")):
        changed = text.replace(f"{key} = {old}", f"{key} = {new}")
        lineno = 1 + changed[:changed.index(f"{key} = {new}")].count("\n")
        with pytest.raises(ConfigError, match=rf"^pulse600\.cfg:{lineno}: {key}: "
                                              rf"'{new}' is outside the float range"):
            parse_config_text(changed, SIMULATE_KEYS, "pulse600.cfg")
    with pytest.raises(ConfigError, match=r"^f\.cfg: sweep_values: '1e999ps' is "
                                          r"outside the float range"):
        sweep_values_from({"sweep_param": "delay",
                           "sweep_values": "1ns, 1e999ps"}, "f.cfg")


SCHEMA = {
    "span": Key("s", required=True),
    "gain": Key(""),
    "mode": Key("enum", choices=("fast", "slow"), default="slow"),
    "on": Key("bool", default=False),
    "label": Key("str"),
}


def test_parse_config_text_happy_path():
    text = """
    # a comment line
    span = 5ns   # trailing comment
    on = yes
    """
    out = parse_config_text(text, SCHEMA)
    assert out == {"span": 5e-9, "on": True, "mode": "slow"}


def test_parse_config_text_rejections():
    with pytest.raises(ConfigError, match=r"unknown key 'spam'"):
        parse_config_text("spam = 1", SCHEMA)
    with pytest.raises(ConfigError, match=r":3: duplicate key 'span'"):
        parse_config_text("\nspan = 5ns\nspan = 6ns", SCHEMA, "f.cfg")
    with pytest.raises(ConfigError, match="missing required keys"):
        parse_config_text("gain = 2", SCHEMA)
    with pytest.raises(ConfigError, match="empty value for 'span'"):
        parse_config_text("span =", SCHEMA)
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config_text("span 5ns", SCHEMA)
    with pytest.raises(ConfigError, match="dimensionless but got unit 'V'"):
        parse_config_text("span = 1ns\ngain = 2V", SCHEMA)
    with pytest.raises(ConfigError, match="bare numbers are rejected"):
        parse_config_text("span = 5", SCHEMA)
    with pytest.raises(ConfigError, match="expects 's', got 'A'"):
        parse_config_text("span = 5mA", SCHEMA)
    with pytest.raises(ConfigError, match="must be one of"):
        parse_config_text("span = 1ns\nmode = turbo", SCHEMA)
    with pytest.raises(ConfigError, match="expects true/false"):
        parse_config_text("span = 1ns\non = maybe", SCHEMA)


def test_shipped_simulate_config_parses():
    cfg = load_config(str(CONFIGS / "pulse600.cfg"), SIMULATE_KEYS)
    assert cfg["bias"] == 31e-3
    assert cfg["amplitude"] == 10.5e-3
    assert cfg["width"] == 600e-12
    assert cfg["R"] == 2.555
    assert cfg["L"] == 6.184e-12
    assert cfg["t_end"] == 6e-9
    assert cfg["dt"] == 1e-12
    assert cfg["method"] == "trapezoidal"
    # Defaults fill in what the file leaves out.
    assert cfg["shape"] == "trapezoid"
    assert cfg["bias_tee"] is True
    text = (CONFIGS / "pulse600.cfg").read_text(encoding="ascii")
    cfg = parse_config_text(text + "bias_tee = false\n", SIMULATE_KEYS)
    assert driver_kwargs_from(cfg)["bias_tee"] is False


def test_shipped_physics_config_parses():
    cfg = load_config(str(CONFIGS / "laser_calibration.cfg"), LASER_PHYSICS_KEYS)
    assert cfg["T"] == 300.1
    assert cfg["I_d"] == 18.4e-3
    assert cfg["tau_photon"] == 0.2204e-12
    assert cfg["beta"] == 1.004e-5


def test_laser_route_detection():
    circuit = laser_circuit_from(CIRCUIT)
    assert circuit == LaserCircuit(**CIRCUIT)

    physics = dict(T=300.1, I_d=18.4e-3, n_photon=0.1002,
                   tau_photon=0.2204e-12, tau_spon=1.000e-9, beta=1.004e-5,
                   n_e=1.0, n_sat=5.0, delta=1.020e-2)
    derived = laser_circuit_from(physics)
    assert derived.R == pytest.approx(2.555, rel=5e-3)
    assert derived.L == pytest.approx(6.184e-12, rel=5e-3)

    with pytest.raises(ConfigError, match="not both"):
        laser_circuit_from({**CIRCUIT, **physics})
    with pytest.raises(ConfigError, match="no laser given"):
        laser_circuit_from({"bias": 31e-3})
    with pytest.raises(ConfigError, match=r"circuit route missing keys \['R_o'\]"):
        partial = dict(CIRCUIT)
        del partial["R_o"]
        laser_circuit_from(partial)
    with pytest.raises(ConfigError, match=r"physics route missing keys \['delta'\]"):
        partial = dict(physics)
        del partial["delta"]
        laser_circuit_from(partial)
    # T is optional on the physics route and defaults to 300 K.
    del physics["T"]
    assert laser_circuit_from(physics) == laser_circuit_from({**physics, "T": 300.0})
    assert laser_circuit_from(physics) != laser_circuit_from({**physics, "T": 310.0})


def test_optional_keys_take_the_library_defaults(tmp_path):
    required = {"bias": "31mA", "amplitude": "10.5mA", "width": "600ps",
                "t_end": "2ns", "dt": "1ps"}
    assert set(required) == {k for k, key in SIMULATE_KEYS.items()
                             if key.required}
    cfg = parse_config_text("".join(f"{k} = {v}\n" for k, v in required.items()),
                            SIMULATE_KEYS)
    spec = stimulus_spec_from(cfg)
    assert spec == StimulusSpec(31e-3, 10.5e-3, 600e-12)
    assert sim_config_from(cfg) == SimConfig(2e-9, 1e-12)
    circ = LaserCircuit(**CIRCUIT)
    # The pulse source is a waveform, so the two networks are compared
    # as netlist text and waveform sidecar bytes.
    sides = []
    for name, kwargs in (("config", driver_kwargs_from(cfg)), ("library", {})):
        out = tmp_path / name
        out.mkdir()
        net = driver_network(spec, circ, t_end=2e-9, dt=1e-12, **kwargs)
        sides.append((emit_netlist(net, out),
                      {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
    assert sides[0] == sides[1]


def test_driver_kwargs_filter_pairing():
    base = {"bias_tee": True, "tee_coupling": 100e-9,
            "tee_shunt": 1e-6, "parasitic_L": 0.0}
    kwargs = driver_kwargs_from(base)
    assert "output_filter" not in kwargs
    assert kwargs["parasitic_inductance"] == 0.0

    both = driver_kwargs_from({**base, "filter_R": 50.0, "filter_C": 1e-12})
    assert both["output_filter"].ohms == 50.0

    with pytest.raises(ConfigError, match="given together"):
        driver_kwargs_from({**base, "filter_R": 50.0})


def test_sweep_values_parse_with_units():
    cfg = parse_config_text(
        "sweep_param = amplitude\nsweep_values = 10.5mA, 8.2mA",
        {k: SWEEP_KEYS[k] for k in ("sweep_param", "sweep_values")})
    assert sweep_values_from(cfg) == [10.5e-3, 8.2e-3]

    widths = {"sweep_param": "width", "sweep_values": "400ps,600ps"}
    assert sweep_values_from(widths) == [400e-12, 600e-12]

    with pytest.raises(ConfigError, match="sweep_values expects 'A', got 's' "
                                          "in '10ns'"):
        sweep_values_from({"sweep_param": "amplitude",
                           "sweep_values": "10ns"})
    with pytest.raises(ConfigError, match="sweep_values: no number at the start "
                                          "of ''"):
        sweep_values_from({"sweep_param": "delay", "sweep_values": " , "})


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(str(CONFIGS / "no_such_file.cfg"), SIMULATE_KEYS)
