"""Print a digest of the command line on the shipped configs.

The README's commands run one after another, each in a fresh
interpreter, in a temporary directory that holds a copy of
``configs/``, so every path they are given or print is relative.  Three
more run on inputs written beside ``configs/``: one checks the cycles
of a netlist with a negative resistance, one removes the baseline of a
pulse sampled from before t = 0 over a window at negative times, and
one simulates a 250 MHz train of Gaussian pulses for 20 ns.
Then eight commands that must fail run on bad flags and bad inputs: an
unknown probe, a zero detector rise time, a missing waveform, a netlist
with an unknown element kind, a config with an unknown key, a netlist
whose source reads a missing waveform file, a baseline window with a
bare number and a crossing level that is not a number.  For each command the digest
has its exit code and the SHA-256 of its stdout, of its stderr and of
each file it wrote or changed.  Two checkouts whose command line behaves the same byte for
byte, error messages included, print the same digest:

    python tools/cli_digest.py [ROOT]     # ROOT: a checkout, default this one
    diff <(python tools/cli_digest.py OTHER) <(python tools/cli_digest.py)
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = (
    ("laser-params", "--config", "configs/laser_calibration.cfg"),
    ("laser-params", "--config", "configs/laser_calibration_invert.cfg", "--invert"),
    ("netcheck", "configs/triangle.net", "--cycles"),
    ("netcheck", "negative_r.net", "--cycles"),
    ("simulate", "--config", "configs/pulse600.cfg", "--out", "pulse600.csv",
     "--probe", "v:tee", "--probe", "i:LD_L", "--plot", "pulse600.svg",
     "--emit-netlist", "pulse600.net"),
    ("simulate", "--config", "configs/pulse600_lowamp.cfg", "--out", "lowamp.csv",
     "--detector-rise", "500ps"),
    ("sweep", "--config", "configs/sweep_amplitude.cfg", "--out-dir", "runs"),
    ("metrics", "pulse600.csv", "--baseline", "0s", "1ns"),
    ("compare", "runs/run_000.csv", "runs/run_001.csv", "--level", "0.004",
     "--baseline", "0s", "1ns", "--out-prefix", "norm"),
    ("kstest", "runs/run_000.csv", "runs/run_001.csv", "--alpha", "0.05",
     "--baseline", "0s", "1ns", "--detector-rise", "500ps", "--emit-cdf", "cdf.csv"),
    ("metrics", "pretrigger.csv", "--baseline", "-2ns", "-1ns"),
    ("simulate", "--config", "gaussian.cfg", "--out", "gaussian.csv"),
    ("simulate", "--config", "configs/pulse600.cfg", "--out", "probe.csv",
     "--probe", "v:NOPE"),
    ("simulate", "--config", "configs/pulse600.cfg", "--out", "rise.csv",
     "--detector-rise", "0s"),
    ("kstest", "missing.csv", "runs/run_000.csv"),
    ("netcheck", "unknown_kind.net"),
    ("simulate", "--config", "unknown_key.cfg", "--out", "key.csv"),
    ("netcheck", "missing_wave.net"),
    ("metrics", "pulse600.csv", "--baseline", "0", "1ns"),
    ("compare", "pulse600.csv", "pulse600.csv", "--level", "nan"),
)

#: The inputs that are not shipped, written beside ``configs/``: a
#: netlist with a negative resistance, a 7.5 mA triangle pulse on a
#: 31 mA pedestal sampled every 0.1 ns from -5 ns, as an oscilloscope
#: exports it, the shipped laser driven by a 250 MHz train of 600 ps
#: Gaussian pulses for 20 ns, and the bad inputs of the failing commands.
INPUTS = {
    "negative_r.net": ("VS 0 a V 1\nR1 a b R 2.555ohm\nRO b 0 R -5.511mohm\n"
                       "C1 a 0 C 0.3557nF\n"),
    "pretrigger.csv": "time_s,value\n" + "".join(
        f"{k}e-10,{0.031 + 0.0075 * max(1 - abs(k - 10) / 5, 0):.17g}\n"
        for k in range(-50, 31)),
    "gaussian.cfg": ("bias = 31mA\namplitude = 10.5mA\nwidth = 600ps\n"
                     "delay = 2ns\nshape = gaussian\nrate = 250MHz\n"
                     "R = 2.555ohm\nL = 6.184pH\nC = 0.3557nF\n"
                     "R_spon = 2.811mohm\nR_o = -5.511mohm\n"
                     "t_end = 20ns\ndt = 1ps\n"),
    "unknown_kind.net": "VS 0 a V 1\nQ1 a 0 Q 1\n",
    "unknown_key.cfg": "colour = blue\n",
    "missing_wave.net": "I1 0 a I file:nope.csv\nR1 a 0 R 1\n",
}

#: Runs ``pulsenet.cli.main`` on the arguments, as the entry point does.
RUNNER = "import sys; from pulsenet.cli import main; sys.exit(main(sys.argv[1:]))"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files(work: Path) -> dict[str, str]:
    """SHA-256 of every file under ``work`` but the configs, by relative path."""
    return {path.relative_to(work).as_posix(): _sha(path.read_bytes())
            for path in sorted(work.rglob("*"))
            if path.is_file() and path.parts[len(work.parts)] != "configs"}


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(Path(root, "src").resolve())}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(Path(root, "configs"), work / "configs")
        for name, text in INPUTS.items():
            (work / name).write_text(text, encoding="utf-8")
        before = _files(work)
        for command in COMMANDS:
            run = subprocess.run([sys.executable, "-c", RUNNER, *command],
                                 cwd=work, env=env, capture_output=True)
            after = _files(work)
            print(" ".join(command))
            print(f"  exit    {run.returncode}")
            print(f"  stdout  {_sha(run.stdout)}")
            print(f"  stderr  {_sha(run.stderr)}")
            for name, digest in after.items():
                if before.get(name) != digest:
                    print(f"  {name}  {digest}")
            before = after
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
