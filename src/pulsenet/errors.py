"""Exception hierarchy shared by every pulsenet module.

All domain failures derive from PulsenetError so callers (and the CLI)
can distinguish "your input or model is bad" from genuine bugs.
"""

import os


class PulsenetError(Exception):
    """Base class for all pulsenet domain errors."""


class TopologyError(PulsenetError):
    """Malformed network: unknown nodes, duplicate branch ids, bad shapes."""


class WaveformError(PulsenetError):
    """Malformed waveform data or waveform file."""


class NetlistError(PulsenetError):
    """Unparseable or inconsistent netlist text."""


class ModelError(PulsenetError):
    """Laser model parameters outside their physical domain."""


class SimulationError(PulsenetError):
    """Transient analysis cannot be set up or did not meet its tolerances."""


class MetricsError(PulsenetError):
    """Pulse shape does not admit the requested measurement."""


class StatsError(PulsenetError):
    """Invalid input to the distribution-comparison routines."""


class ConfigError(PulsenetError):
    """Bad key, unit, or value in a run-configuration file."""


def require_memory(nbytes: int, what: str) -> None:
    """SimulationError if ``what`` needs more than the physical memory
    (unchecked where ``os.sysconf`` cannot tell its size)."""
    if "SC_PHYS_PAGES" in getattr(os, "sysconf_names", {}):
        available = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if nbytes > available:
            raise SimulationError(f"{what} needs {nbytes:,} bytes, more than "
                                  f"the {available:,} bytes of physical memory")
