"""The loud failures that no other test reaches: one table per module.

Each row builds a bad input and names the error class and the whole
message it must raise.  The plot whose ticks round together runs in a
child process, under a timeout and a memory limit, so that a tick search
that never ends fails there.  Beside the resistor rows, one test pins
the side of the rule that is not an error: a negative resistance.  The
command line refuses a config line that it would otherwise ignore: a
laser key of the route not taken and an empty sweep item.  The
last two tests are the two other outcomes that are not errors: a pulse
whose metrics are unavailable still runs and exits 0, and a series with
one x value still plots.
"""

import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pulsenet import (BiasTee, Branch, Capacitor, CurrentSource, Inductor,
                      LaserCircuit, ModelError, NetlistError, Network,
                      OutputFilter, PulsenetError, Resistor, SimConfig,
                      SimulationError, TopologyError, cli,
                      dc_operating_point, differential_resistance,
                      driver_network, emit_netlist, parse_netlist, transient)
from pulsenet.svgplot import Series, line_plot
from conftest import package_env, pulse_spec, random_physics

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
    (lambda: Resistor(-0.0), "resistance must be finite and non-zero, got -0.0"),
    (lambda: Resistor(0.0), "resistance must be finite and non-zero, got 0.0"),
    (lambda: Resistor("1k"), "resistance must be finite and non-zero, got '1k'"),
    (lambda: CurrentSource(float("nan")),
     "current source value must be a finite number or a Waveform, got nan"),
    (lambda: CurrentSource("1A"),
     "current source value must be a finite number or a Waveform, got '1A'"),
], ids=["capacitance", "inductance", "negative-resistance", "zero-resistance",
        "text-resistance", "nan-source", "text-source"])
def test_elements_errors(build, message):
    raises(TopologyError, message, build)


def test_resistor_keeps_a_negative_value():
    assert Resistor(-5.0).ohms == -5.0


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
], ids=["empty-node", "duplicate-node", "branch"])
def test_topology_errors(build, message):
    raises(TopologyError, message, build)


@pytest.mark.parametrize("build, message", [
    (lambda: parse_netlist("R1 a 0 R 1qohm\n"),
     "<netlist>:1: unknown prefix 'q' at position 1 in '1qohm'"),
    (lambda: parse_netlist("I1 0 a I 1mA\nR1 a 0 R 0\n"),
     "<netlist>:2: resistance must be finite and non-zero, got 0.0"),
    (lambda: parse_netlist("I1 0 a I 1mA\nC1 a 0 C -1nF\n"),
     "<netlist>:2: capacitance must be a positive finite number, got -1e-09"),
    (lambda: emit_netlist(Network.from_branches([Branch("X1", "a", "0", "1k")])),
     "branch 'X1': cannot emit element str"),
], ids=["quantity", "zero-resistance", "negative-capacitance", "element"])
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


def _plot(x, *ys):
    """Plot one series per y over the same x; with no y, one of 0, 1, ..."""
    x = np.array(x, dtype=float)
    return line_plot([Series(f"s{k}", x, np.array(y, dtype=float))
                      for k, y in enumerate(ys or [np.arange(x.size)])])


NAN, INF = float("nan"), float("inf")
EMPTY = "its width / 6 is not a finite positive double"


@pytest.mark.parametrize("build, message", [
    # One x value, or a flat y, widened by 1 where 1 is below the spacing.
    (lambda: _plot([1e17, 1e17]),
     f"cannot draw the x axis over [1e+17, 1e+17]: {EMPTY}"),
    (lambda: _plot([1e300, 1e300]),
     f"cannot draw the x axis over [1e+300, 1e+300]: {EMPTY}"),
    (lambda: _plot([0.0, 1.0], [1e17, 1e17]),
     f"cannot draw the y axis over [1e+17, 1e+17]: {EMPTY}"),
    (lambda: _plot([0.0, NAN]),
     f"cannot draw the x axis over [nan, nan]: {EMPTY}"),
    (lambda: _plot([0.0, 1.0], [0.0, 1.0], [0.0, NAN]),
     f"cannot draw the y axis over [nan, nan]: {EMPTY}"),
    (lambda: _plot([0.0, 1.0], [0.0, INF]),
     f"cannot draw the y axis over [-inf, inf]: {EMPTY}"),
    (lambda: _plot([-1.7e308, 1.7e308]),
     f"cannot draw the x axis over [-1.7e+308, 1.7e+308]: {EMPTY}"),
    (lambda: _plot([0.0, 5e-324]),
     f"cannot draw the x axis over [0.0, 5e-324]: {EMPTY}"),
], ids=["x-flat-1e17", "x-flat-1e300", "y-flat-1e17", "x-nan",
        "y-nan-in-second-series", "y-inf", "x-past-float-range",
        "x-subnormal-span"])
def test_svgplot_errors(build, message):
    raises(PulsenetError, message, build)


#: Plots x = [1e17, 1e17 + 16], whose tick step of 5 is below the spacing
#: of the doubles there, under an address-space limit 256 MB above what
#: the interpreter holds: a tick list that grows without end fails there.
TICKS_BELOW_SPACING = """
import resource
import numpy as np
from pulsenet import PulsenetError
from pulsenet.svgplot import Series, line_plot
with open("/proc/self/status") as status:
    kb = next(int(line.split()[1]) for line in status if line.startswith("VmSize:"))
limit = kb * 1024 + 256 * 2**20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
try:
    line_plot([Series("s", np.array([1e17, 1e17 + 16]), np.array([0.0, 1.0]))])
except PulsenetError as exc:
    print(exc)
"""


def test_svgplot_rejects_ticks_that_round_together():
    run = subprocess.run([sys.executable, "-c", TICKS_BELOW_SPACING],
                         env=package_env(), capture_output=True, text=True,
                         timeout=60)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == ("cannot draw the x axis over [1e+17, 1.0000000000000002e+17]: "
                          "its ticks round to equal doubles\n")


CIRCUIT_KEYS = ("R", "L", "C", "R_spon", "R_o")
ROUTES = ("give either circuit values (R, L, C, R_spon, R_o) or the physical "
          "operating point (n_photon, ...)")


@pytest.mark.parametrize("command, shipped, drop, add, message", [
    ("simulate", "pulse600.cfg", (), "tau_spon = 5ns\n",
     f"{ROUTES}, not both; the circuit route is given, so remove ['tau_spon']"),
    ("sweep", "sweep_amplitude.cfg", CIRCUIT_KEYS,
     (CONFIGS / "laser_calibration.cfg").read_text(encoding="utf-8")
     + "C = 1F\nR_o = -1ohm\n",
     f"{ROUTES}, not both; the physics route is given, so remove ['C', 'R_o']"),
    ("sweep", "sweep_amplitude.cfg", ("sweep_values",),
     "sweep_values = 10.5mA,,8.2mA\n",
     "sweep_values: no number at the start of ''"),
], ids=["physics-key-beside-circuit", "circuit-keys-beside-physics",
        "empty-sweep-item"])
def test_cli_refuses_config_lines_it_would_ignore(command, shipped, drop, add,
                                                  message, tmp_path, capsys):
    lines = (CONFIGS / shipped).read_text(encoding="utf-8").splitlines()
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("\n".join(line for line in lines
                             if line.split("=")[0].strip() not in drop)
                   + "\n" + add, encoding="utf-8")
    out = ["--out", str(tmp_path / "x.csv")] if command == "simulate" \
        else ["--out-dir", str(tmp_path / "runs")]
    assert cli.main([command, "--config", str(cfg), *out]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["bad.cfg"]


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
