"""Pulsed laser driver simulation and pulse metrology.

The package models a current-driven laser diode as a small linear
network, runs transient simulations of sub-nanosecond drive pulses, and
measures the resulting pulse shapes, including a two-sample test for
whether two pulse records are statistically distinguishable.
"""

from .elements import (Capacitor, CurrentSource, Inductor, Resistor,
                       VoltageSource)
from .errors import (ConfigError, MetricsError, ModelError, NetlistError,
                     PulsenetError, SimulationError, StatsError,
                     TopologyError, WaveformError)
from .kstest import (EmpiricalCdf, KsResult, ecdf, kolmogorov_q,
                     ks_two_sample, waveform_samples_for_cdf)
from .laser import (LaserCircuit, LaserPhysics, circuit_from_physics,
                    differential_resistance, equivalent_network,
                    physics_from_circuit)
from .metrics import (PulseMetrics, baseline_subtract, delay_at_level, fwhm,
                      normalize_align)
from .netlist import emit_netlist, parse_netlist, read_netlist, write_netlist
from .driver import (BiasTee, OutputFilter, StimulusSpec, driver_network,
                     stimulus)
from .simulate import (CompiledStep, InitialCondition, SimConfig, SimResult,
                       SweepPoint, compile_step, dc_operating_point,
                       detector_filter, run_driver, sense_current, sweep_runs,
                       transient)
from .topology import (Branch, CycleBasis, Network, boundary,
                       connected_components, cycle_rank, cycle_space,
                       in_cycle_space, kcl_residual)
from .waveform import Waveform, read_waveform_csv, write_waveform_csv

__version__ = "0.1.0"

__all__ = [
    "Branch", "BiasTee", "Capacitor", "CompiledStep", "CurrentSource",
    "CycleBasis", "EmpiricalCdf", "InitialCondition", "Inductor", "KsResult",
    "LaserCircuit", "LaserPhysics", "Network", "OutputFilter",
    "PulseMetrics", "Resistor", "SimConfig", "SimResult", "StimulusSpec",
    "SweepPoint", "VoltageSource", "Waveform",
    "ConfigError", "MetricsError", "ModelError", "NetlistError",
    "PulsenetError", "SimulationError", "StatsError", "TopologyError",
    "WaveformError",
    "baseline_subtract", "boundary", "circuit_from_physics", "compile_step",
    "connected_components", "cycle_rank", "cycle_space",
    "dc_operating_point", "delay_at_level", "detector_filter",
    "differential_resistance", "driver_network", "ecdf", "emit_netlist",
    "equivalent_network", "fwhm", "in_cycle_space", "kcl_residual",
    "kolmogorov_q", "ks_two_sample", "normalize_align", "parse_netlist",
    "physics_from_circuit", "read_netlist", "read_waveform_csv",
    "run_driver", "sense_current", "stimulus", "sweep_runs", "transient",
    "waveform_samples_for_cdf", "write_netlist", "write_waveform_csv",
]
