"""Print the tracemalloc peak of the layers whose memory grows with a record.

Each layer is called once to warm up, then once under ``tracemalloc``;
its peak, output included, is printed in MB and as a multiple of its
input's bytes.  For ``transient``, which runs the shipped 600 ps driver
(``configs/pulse600.cfg``) for N - 1 steps from its operating point,
that is the bytes of the record it allocates: n samples for each node
but the reference and for each branch but a current source, whose
current is the drive the run reads.  ``dc_operating_point`` runs on the
same driver, and its input is the n samples of the driver's pulse
source.  The input is the record's n float64 samples for
``write_waveform_csv``, ``read_waveform_csv`` (of the file the writer
made) and ``detector_filter``, and the two populations of n samples
each for ``ks_two_sample``.  These are the memory figures that
CHANGES.md and ROADMAP.md cite.

    python tools/layer_memory.py [N]      # N samples per record, default 200001
"""

from __future__ import annotations

import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pulsenet import CurrentSource, config, kstest, simulate, waveform  # noqa: E402


def traced_peak(fn, *args) -> int:
    """Bytes at the tracemalloc peak of one call of ``fn(*args)``."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main(argv: list[str]) -> int:
    n = int(argv[0]) if argv else 200_001
    rng = np.random.default_rng(1)
    wave = waveform.Waveform(0.0, 1e-12, rng.normal(31e-3, 5e-3, size=n), "A")
    other = rng.normal(31e-3, 5e-3, size=n)
    cfg = config.load_config(ROOT / "configs" / "pulse600.cfg",
                             config.SIMULATE_KEYS)
    sim = config.sim_config_from({**cfg, "t_end": (n - 1) * cfg["dt"]})
    net = simulate.driver_network(config.stimulus_spec_from(cfg),
                                  config.laser_circuit_from(cfg),
                                  t_end=sim.steps * sim.dt, dt=sim.dt)
    recorded = (len(net.nodes) - 1 + sum(
        not isinstance(br.element, CurrentSource) for br in net.branches)) * n
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "wave.csv"
        layers = [
            ("transient", simulate.transient,
             (net, sim, simulate.dc_operating_point(net)), recorded),
            ("operating_point", simulate.dc_operating_point, (net,), n),
            ("write_waveform_csv", waveform.write_waveform_csv, (path, wave), n),
            ("read_waveform_csv", waveform.read_waveform_csv, (path,), n),
            ("detector_filter", simulate.detector_filter, (wave, 500e-12), n),
            ("ks_two_sample", kstest.ks_two_sample, (wave.samples, other), 2 * n),
        ]
        print(f"{'layer':<20}{'samples':>10}{'peak_MB':>10}{'x_input':>10}")
        for name, fn, args, samples in layers:
            fn(*args)
            peak = traced_peak(fn, *args)
            print(f"{name:<20}{samples:>10}{peak / 1e6:>10.2f}"
                  f"{peak / (8 * samples):>10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
