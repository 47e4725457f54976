"""The digest of the shipped-config commands, and of the commands that
must fail, that CHANGES.md compares."""

import hashlib
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).parent.parent / "tools" / "cli_digest.py"

EMPTY = hashlib.sha256(b"").hexdigest()

#: The stderr of the Gaussian train's ``simulate``, whose five pulses
#: peak alike.
GAUSSIAN_WARNING = hashlib.sha256(
    b"warning: waveform reaches its maximum (to 1e-9 of the pulse height) in 5 "
    b"separate places; measuring the pulse that holds the highest sample, which "
    b"need not be the earliest\n").hexdigest()


def test_digest_names_each_command_its_exit_its_streams_and_its_files():
    out = subprocess.run([sys.executable, str(TOOL)], capture_output=True,
                         text=True, check=True).stdout
    blocks = {}
    for line in out.splitlines():
        if line.startswith("  "):
            key, digest = line.split()
            blocks[command][key] = digest
        else:
            command = line
            blocks[command] = {}
    assert [c.split()[0] for c in blocks] == [
        "laser-params", "laser-params", "netcheck", "netcheck", "simulate", "simulate",
        "sweep", "metrics", "compare", "kstest", "metrics", "simulate",
        "simulate", "simulate", "kstest", "netcheck", "simulate", "netcheck",
        "metrics", "compare"]
    # the Gaussian train's five equal pulses are the one warning
    assert [rows["stderr"] for rows in list(blocks.values())[:12]] \
        == [EMPTY] * 11 + [GAUSSIAN_WARNING]
    written = []
    for rows in list(blocks.values())[:12]:
        assert rows.pop("exit") == "0"
        del rows["stderr"]
        assert len(rows.pop("stdout")) == 64
        written.append(sorted(rows))
    assert written == [
        [], [], [], [],
        ["IPULSE.csv", "pulse600.csv", "pulse600.net", "pulse600.svg",
         "pulse600_i_LD_L.csv", "pulse600_v_tee.csv"],
        ["lowamp.csv"],
        ["runs/run_000.csv", "runs/run_001.csv", "runs/summary.csv"],
        [],
        ["norm_a.csv", "norm_b.csv"],
        ["cdf.csv"],
        [],
        ["gaussian.csv"]]
    # the failing commands: exit 1, an error on stderr, no file written
    for rows in list(blocks.values())[12:]:
        assert rows.pop("exit") == "1"
        assert rows.pop("stderr") != EMPTY
        assert rows.pop("stdout") == EMPTY
        assert rows == {}
