"""The loud failures that no other test reaches: one table per module.

Each row builds a bad input and names the error class and the whole
message it must raise.  The last two tests are the two outcomes that
are not errors: a pulse whose metrics are unavailable still runs and
exits 0, and a series with one x value still plots.
"""

import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pulsenet import (BiasTee, Branch, Capacitor, CurrentSource, Inductor,
                      LaserCircuit, ModelError, NetlistError, Network,
                      OutputFilter, Resistor, SimConfig, SimulationError,
                      TopologyError, boundary, cli, dc_operating_point,
                      differential_resistance, driver_network, emit_netlist,
                      parse_netlist, transient)
from pulsenet.svgplot import Series, line_plot
from conftest import pulse_spec, random_physics

CIRCUIT = LaserCircuit(R=2.555, L=6.184e-12, C=0.3557e-9, R_spon=2.811e-3,
                       R_o=-5.511e-3)
PHYSICS = random_physics(np.random.default_rng(0))
CONFIGS = Path(__file__).parent.parent / "configs"


def raises(cls, message, build):
    with pytest.raises(cls) as excinfo:
        build()
    assert str(excinfo.value) == message


def _sourced(*branches):
    """A grounded network driven by a 1 A source into node ``a``."""
    return Network.from_branches(
        [Branch("I1", "0", "a", CurrentSource(1.0)), *branches], reference="0")


@pytest.mark.parametrize("build, message", [
    (lambda: pulse_spec(edge=-1e-12), "edge must be >= 0 s, got -1e-12"),
    (lambda: BiasTee(coupling_farads=0.0), "coupling capacitance must be > 0 F"),
    (lambda: BiasTee(shunt_henries=-1e-6), "shunt inductance must be > 0 H"),
    (lambda: OutputFilter(0.0, 1e-12), "filter resistance must be > 0 ohm"),
    (lambda: OutputFilter(50.0, 0.0), "filter capacitance must be > 0 F"),
    (lambda: driver_network(pulse_spec(), CIRCUIT, t_end=1e-9, dt=1e-12,
                            parasitic_inductance=-1e-10),
     "parasitic inductance must be > 0 H"),
], ids=["edge", "coupling", "shunt", "filter-ohms", "filter-farads", "parasitic"])
def test_driver_errors(build, message):
    raises(TopologyError, message, build)


@pytest.mark.parametrize("build, message", [
    (lambda: Capacitor(0.0), "capacitance must be a positive finite number, got 0.0"),
    (lambda: Inductor(float("inf")),
     "inductance must be a positive finite number, got inf"),
    (lambda: Resistor(0.0, allow_negative=True),
     "resistance must be finite and non-zero, got 0.0"),
    (lambda: CurrentSource(float("nan")),
     "current source value must be a finite number or a Waveform, got nan"),
    (lambda: CurrentSource("1A"),
     "current source value must be a finite number or a Waveform, got '1A'"),
], ids=["capacitance", "inductance", "negative-resistance", "nan-source",
        "text-source"])
def test_elements_errors(build, message):
    raises(TopologyError, message, build)


@pytest.mark.parametrize("build, message", [
    (lambda: replace(PHYSICS, bias_current=0.0),
     "bias current must be > 0 A, got 0.0"),
    (lambda: replace(PHYSICS, threshold_current=-1e-3),
     "threshold current must be > 0 A"),
    (lambda: replace(PHYSICS, delta_gain=-0.5),
     "delta_gain must be >= 0, got -0.5"),
    (lambda: LaserCircuit(R=2.555, L=6.184e-12, C=0.3557e-9, R_spon=-1.0,
                          R_o=-5.511e-3),
     "R_spon must be >= 0, got -1.0"),
    (lambda: differential_resistance(0.0, 20e-3), "temperature must be > 0 K, got 0.0"),
    (lambda: differential_resistance(300.0, -1e-3), "current must be > 0 A, got -0.001"),
], ids=["bias", "threshold", "delta-gain", "r-spon", "temperature", "current"])
def test_laser_errors(build, message):
    raises(ModelError, message, build)


def _triangle():
    return Network.from_branches([Branch("e1", "a", "b"), Branch("e2", "b", "c"),
                                  Branch("e3", "c", "a")])


@pytest.mark.parametrize("build, message", [
    (lambda: Branch("b1", "", "x"), "branch 'b1': node labels must be non-empty"),
    (lambda: Network(("a", "a"), ()), "duplicate node labels"),
    (lambda: _triangle().branch("e9"), "unknown branch 'e9'"),
    (lambda: boundary(_triangle()).column("e9"), "unknown branch 'e9'"),
], ids=["empty-node", "duplicate-node", "branch", "column"])
def test_topology_errors(build, message):
    raises(TopologyError, message, build)


@pytest.mark.parametrize("build, message", [
    (lambda: parse_netlist("R1 a 0 R 1qohm\n"),
     "<netlist>:1: unknown prefix 'q' at position 1 in '1qohm'"),
    (lambda: emit_netlist(Network.from_branches([Branch("X1", "a", "0", "1k")])),
     "branch 'X1': cannot emit element str"),
], ids=["quantity", "element"])
def test_netlist_errors(build, message):
    raises(NetlistError, message, build)


@pytest.mark.parametrize("build, message", [
    (lambda: transient(_sourced(Branch("R1", "a", "0", Resistor(1.0)),
                                Branch("X1", "a", "0")), SimConfig(1e-9, 1e-12)),
     "branch 'X1' carries no element"),
    (lambda: transient(_sourced(Branch("X1", "a", "0", "1k")), SimConfig(1e-9, 1e-12)),
     "branch 'X1': unsupported element str"),
    # 1e300 A into 1e300 ohm: the solve of a finite G gives 1e600 V.
    (lambda: dc_operating_point(Network.from_branches(
        [Branch("I1", "0", "a", CurrentSource(1e300)),
         Branch("R1", "a", "0", Resistor(1e300))], reference="0")),
     "operating point is singular"),
], ids=["no-element", "unsupported", "dc-overflow"])
def test_simulate_errors(build, message):
    raises(SimulationError, message, build)


def test_cli_prints_that_pulse_metrics_are_unavailable(tmp_path, capsys):
    # A pulse that starts at 5.5 ns has not fallen back to half its
    # maximum by the 6 ns end of the run: the run is written, exit 0.
    text = (CONFIGS / "pulse600.cfg").read_text(encoding="utf-8")
    cfg = tmp_path / "late.cfg"
    cfg.write_text(text.replace("delay = 2ns", "delay = 5.5ns"), encoding="utf-8")
    assert cli.main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "late.csv")]) == 0
    out = capsys.readouterr().out
    assert re.search(r"^pulse metrics unavailable: no half-maximum crossing "
                     r"after the peak", out, re.MULTILINE)
    assert "fwhm" not in out


def test_svgplot_widens_a_single_x_value_by_one():
    doc = line_plot([Series("s", np.full(3, 2.0), np.array([0.0, 1.0, 2.0]))])
    labels = re.findall(r'font-size="11">([^<]*)<', doc)
    assert labels[:6] == ["2", "2.2", "2.4", "2.6", "2.8", "3"]
