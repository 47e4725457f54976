"""Print the tracemalloc peak of the layers whose memory grows with a record.

Each layer is called once to warm up, then once under ``tracemalloc``;
its peak, output included, is printed in MB and as a multiple of its
input's bytes.  The input is the record's n float64 samples for
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

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pulsenet import kstest, simulate, waveform  # noqa: E402


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
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "wave.csv"
        layers = [
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
