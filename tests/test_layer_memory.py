"""The layer memory report that CHANGES.md and ROADMAP.md cite."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).parent.parent / "tools" / "layer_memory.py"


def test_reports_each_layer_peak_and_its_multiple_of_the_input():
    out = subprocess.run([sys.executable, str(TOOL), "3001"],
                         capture_output=True, text=True, check=True).stdout
    head, *lines = out.splitlines()
    assert head.split() == ["layer", "samples", "peak_MB", "x_input"]
    rows = [line.split() for line in lines]
    assert [r[0] for r in rows] == ["write_waveform_csv", "read_waveform_csv",
                                    "detector_filter", "ks_two_sample"]
    assert [int(r[1]) for r in rows] == [3001, 3001, 3001, 6002]
    for _, samples, peak_mb, ratio in rows:
        # both columns are rounded to two decimals
        input_bytes = 8 * int(samples)
        assert float(peak_mb) > 0.0
        assert abs(float(ratio) - float(peak_mb) * 1e6 / input_bytes) \
            <= 0.005 + 0.005e6 / input_bytes
