"""The digest of the shipped-config commands, and of the commands that
must fail, that CHANGES.md compares."""

import hashlib
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).parent.parent / "tools" / "cli_digest.py"

EMPTY = hashlib.sha256(b"").hexdigest()


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
        "sweep", "metrics", "compare", "kstest", "metrics",
        "simulate", "simulate", "kstest", "netcheck", "simulate", "netcheck",
        "metrics", "compare"]
    written = []
    for rows in list(blocks.values())[:11]:
        assert rows.pop("exit") == "0"
        assert rows.pop("stderr") == EMPTY
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
        []]
    # the failing commands: exit 1, an error on stderr, no file written
    for rows in list(blocks.values())[11:]:
        assert rows.pop("exit") == "1"
        assert rows.pop("stderr") != EMPTY
        assert rows.pop("stdout") == EMPTY
        assert rows == {}
