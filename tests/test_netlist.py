"""Netlist text format: parsing, emission, and the golden driver net."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsenet import (Branch, Capacitor, CurrentSource, Inductor, NetlistError,
                      LaserCircuit, Network, Resistor, SimConfig,
                      SimulationError, StimulusSpec, VoltageSource, Waveform,
                      compile_step, driver_network, emit_netlist,
                      parse_netlist, read_netlist, sense_current, transient,
                      dc_operating_point, write_netlist, write_waveform_csv)

DATA = Path(__file__).parent / "data"


def test_parse_minimal_netlist():
    net = parse_netlist("""
        # a comment
        VS 0 a V 1
        R1 a b R 0.5ohm
        R2 b 0 R 0.5
    """)
    assert net.reference == "0"
    assert isinstance(net.branch("VS").element, VoltageSource)
    assert net.branch("R1").element.ohms == 0.5
    assert net.branch("R2").element.ohms == 0.5  # bare SI value


def test_gnd_alias_and_reference_override():
    net = parse_netlist("I1 gnd a I 1mA\nR1 a gnd R 50")
    assert net.reference == "gnd"
    net = parse_netlist("I1 x y I 1mA\nR1 y x R 50", reference="x")
    assert net.reference == "x"


def test_unit_suffixes_scale():
    net = parse_netlist("L1 0 a L 1uH\nC1 a 0 C 100nF\nR1 a 0 R 2.555ohm")
    assert net.branch("L1").element.henries == 1e-6
    assert net.branch("C1").element.farads == 1e-7
    assert net.branch("R1").element.ohms == 2.555


def test_negative_resistance_is_allowed_here():
    net = parse_netlist("RO 0 a R -5.511mohm\nVS a 0 V 0")
    assert net.branch("RO").element.ohms == -5.511e-3


def test_parse_diagnostics_carry_source_and_line():
    with pytest.raises(NetlistError, match=r"<netlist>:2: expected 'id start"):
        parse_netlist("R1 a b R 1\nR2 a b 1")
    with pytest.raises(NetlistError, match=r":1: unknown element kind 'Q'"):
        parse_netlist("Q1 a b Q 1")
    with pytest.raises(NetlistError, match="expected 'ohm'"):
        parse_netlist("R1 a b R 1V")
    with pytest.raises(NetlistError, match="no branches"):
        parse_netlist("# nothing here\n")
    with pytest.raises(NetlistError, match="empty file reference"):
        parse_netlist("I1 0 a I file:")


def test_emit_parse_round_trip(tmp_path):
    net = parse_netlist("""
        VS 0 a V 1.25
        R1 a b R 0.5
        L1 b c L 1uH
        C1 c 0 C 10nF
        I1 0 c I 2mA
    """)
    path = tmp_path / "net.net"
    write_netlist(net, path)
    back = read_netlist(path)
    assert back.nodes == net.nodes
    assert back.branch_ids == net.branch_ids
    for bid in net.branch_ids:
        a, b = net.branch(bid), back.branch(bid)
        assert (a.start, a.end) == (b.start, b.end)
        assert type(a.element) is type(b.element)
        assert value_bytes(a.element) == value_bytes(b.element)


def value_bytes(el):
    """The element's value as the bytes of a float64 (so -0.0 != 0.0)."""
    name = {Resistor: "ohms", Inductor: "henries", Capacitor: "farads",
            CurrentSource: "amps", VoltageSource: "volts"}[type(el)]
    return np.float64(getattr(el, name)).tobytes()


def compiled_G(net):
    """Bytes of the compiled G, or the error when extreme values make the
    step non-finite (a RuntimeWarning is an error in this suite)."""
    try:
        return compile_step(net, SimConfig(t_end=1e-9, dt=1e-12)).G.tobytes()
    except (SimulationError, RuntimeWarning) as exc:
        return repr(exc)


_extremes = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                             -1e-310, 1.7e308, -1.7e308, 1.7976931348623157e308])
_finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False), _extremes)
_positive = _finite.map(abs).filter(lambda v: v > 0)


@settings(max_examples=300, deadline=None)
@given(ohms=_finite.filter(lambda v: v != 0), henries=_positive,
       farads=_positive, amps=_finite, volts=_finite)
def test_emitted_values_parse_back_bit_for_bit(ohms, henries, farads, amps, volts):
    net = Network.from_branches([
        Branch("VS", "0", "a", VoltageSource(volts)),
        Branch("R1", "a", "b", Resistor(ohms, allow_negative=True)),
        Branch("L1", "b", "c", Inductor(henries)),
        Branch("C1", "c", "0", Capacitor(farads)),
        Branch("I1", "0", "c", CurrentSource(amps)),
    ], reference="0")
    back = parse_netlist(emit_netlist(net))
    assert back.branch_ids == net.branch_ids
    for a, b in zip(net.branches, back.branches):
        assert type(a.element) is type(b.element)
        assert value_bytes(a.element) == value_bytes(b.element), a.id
    assert compiled_G(back) == compiled_G(net)


def test_waveform_sources_round_trip_through_sidecars(tmp_path):
    from pulsenet import Branch, Network
    wave = Waveform(0.0, 1e-12, np.array([0.0, 1e-3, 2e-3, 1e-3, 0.0]), "A")
    net = Network.from_branches([
        Branch("ISRC", "0", "a", CurrentSource(wave)),
        Branch("R1", "a", "0", Resistor(50.0)),
    ], reference="0")
    path = tmp_path / "drive.net"
    write_netlist(net, path)
    assert (tmp_path / "ISRC.csv").exists()
    back = read_netlist(path)
    got = back.branch("ISRC").element.amps
    assert isinstance(got, Waveform)
    assert got.dt == wave.dt
    assert np.array_equal(got.samples, wave.samples)


def test_emit_without_waveform_dir_refuses_waveform_sources():
    from pulsenet import Branch, Network
    wave = Waveform(0.0, 1e-12, [0.0, 1.0], "A")
    net = Network.from_branches([
        Branch("ISRC", "0", "a", CurrentSource(wave)),
        Branch("R1", "a", "0", Resistor(50.0)),
    ], reference="0")
    with pytest.raises(NetlistError, match="sidecar"):
        emit_netlist(net)


def test_file_reference_resolves_relative_to_the_netlist(tmp_path):
    sub = tmp_path / "nets"
    sub.mkdir()
    wave = Waveform(0.0, 1e-12, [0.0, 1e-3, 0.0, 0.0], "A")
    write_waveform_csv(sub / "pulse.csv", wave)
    (sub / "a.net").write_text("I1 0 a I file:pulse.csv\nR1 a 0 R 50\n")
    net = read_netlist(sub / "a.net")
    assert np.array_equal(net.branch("I1").element.amps.samples, wave.samples)


def golden_network():
    spec = StimulusSpec(bias=31e-3, amplitude=10.5e-3, width=600e-12,
                        delay=1e-9, edge=100e-12)
    circ = LaserCircuit(R=2.555, L=6.184e-12, C=0.3557e-9,
                        R_spon=2.811e-3, R_o=-5.511e-3)
    return driver_network(spec, circ, t_end=4e-9, dt=20e-12)


def test_golden_netlist_matches_the_assembled_driver():
    """The checked-in netlist must stay equivalent to driver_network."""
    built = golden_network()
    parsed = read_netlist(DATA / "driver_golden.net")
    assert parsed.nodes == built.nodes
    assert parsed.branch_ids == built.branch_ids
    for bid in built.branch_ids:
        a, b = built.branch(bid), parsed.branch(bid)
        assert (a.start, a.end) == (b.start, b.end), bid
        assert type(a.element) is type(b.element), bid
    pulse_a = built.branch("IPULSE").element.amps
    pulse_b = parsed.branch("IPULSE").element.amps
    assert np.array_equal(pulse_a.samples, pulse_b.samples)


def test_golden_netlist_simulates_identically_to_the_builder():
    built = golden_network()
    parsed = read_netlist(DATA / "driver_golden.net")
    cfg = SimConfig(t_end=4e-9, dt=20e-12)
    ours = sense_current(transient(built, cfg, dc_operating_point(built)))
    theirs = sense_current(transient(parsed, cfg, dc_operating_point(parsed)))
    assert np.array_equal(ours.samples, theirs.samples)
