"""End-to-end command line runs against the shipped configs."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pulsenet
from pulsenet import cli
from pulsenet.waveform import read_waveform_csv, write_waveform_csv
from conftest import gaussian_wave

CONFIGS = Path(__file__).parent.parent / "configs"
FWHM_PER_SIGMA = 2.3548200450309493


def kv(out):
    """Key-value rows printed by the CLI (keys padded with >= 2 spaces)."""
    rows = {}
    for line in out.strip().splitlines():
        parts = re.split(r"\s{2,}", line.strip(), maxsplit=1)
        if len(parts) == 2:
            rows[parts[0]] = parts[1]
    return rows


def first_number(text):
    return float(text.split()[0])


def test_laser_params_forward(capsys):
    assert cli.main(["laser-params", "--config",
                     str(CONFIGS / "laser_calibration.cfg")]) == 0
    rows = kv(capsys.readouterr().out)
    assert first_number(rows["R_d"]) == pytest.approx(2.810936001317338, rel=1e-6)
    assert first_number(rows["R"]) == pytest.approx(2.555, rel=5e-3)
    assert first_number(rows["L"]) == pytest.approx(6.184e-12, rel=5e-3)
    assert first_number(rows["C"]) == pytest.approx(0.3557e-9, rel=5e-3)
    assert first_number(rows["R_spon"]) == pytest.approx(2.811e-3, rel=5e-3)
    assert first_number(rows["R_o"]) == pytest.approx(-5.511e-3, rel=5e-3)
    assert first_number(rows["series resistance"]) == pytest.approx(2.5522, rel=1e-3)


def test_laser_params_invert(capsys):
    assert cli.main(["laser-params", "--config",
                     str(CONFIGS / "laser_calibration_invert.cfg"), "--invert"]) == 0
    rows = kv(capsys.readouterr().out)
    assert first_number(rows["n_photon"]) == pytest.approx(0.10017064630815575,
                                                           rel=1e-6)
    assert first_number(rows["tau_photon"]) == pytest.approx(2.2037331212070608e-13,
                                                             rel=1e-6)
    assert first_number(rows["tau_spon"]) == pytest.approx(9.998499356685772e-10,
                                                           rel=1e-6)
    assert first_number(rows["beta"]) == pytest.approx(1.0034386836983567e-05,
                                                       rel=1e-6)
    assert first_number(rows["delta"]) == pytest.approx(0.010199499561548435,
                                                        rel=1e-6)


def test_netcheck_reports_cycle_rank(capsys):
    assert cli.main(["netcheck", str(CONFIGS / "triangle.net"), "--cycles"]) == 0
    out = capsys.readouterr().out
    rows = kv(out)
    assert rows["cycle rank"] == "1"
    assert rows["connected components"] == "1"
    assert rows["boundary columns sum to zero"] == "yes"
    assert rows["basis satisfies the current law"] == "yes"
    cycle_line = next(l for l in out.splitlines() if l.startswith("cycle 1:"))
    for bid in ("VS", "R1", "R2"):
        assert bid in cycle_line


def test_simulate_run_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "pulse.csv"
    svg = tmp_path / "pulse.svg"
    net_file = tmp_path / "driver.net"
    rc = cli.main(["simulate", "--config", str(CONFIGS / "pulse600.cfg"),
                   "--out", str(out), "--plot", str(svg),
                   "--emit-netlist", str(net_file), "--probe", "v:tee"])
    assert rc == 0
    rows = kv(capsys.readouterr().out)
    assert first_number(rows["peak current"]) == pytest.approx(41.5e-3, rel=0.02)
    assert first_number(rows["fwhm"]) == pytest.approx(600e-12, rel=0.10)

    wave = read_waveform_csv(out)
    assert len(wave) == 6001
    assert wave.unit == "A"
    assert svg.read_text(encoding="ascii").startswith("<svg")
    assert "IBIAS" in net_file.read_text(encoding="ascii")
    probe_file = tmp_path / "pulse_v_tee.csv"
    assert probe_file.exists()
    assert len(read_waveform_csv(probe_file)) == 6001


def test_identical_runs_are_byte_identical(tmp_path, capsys):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("""
bias = 31mA
amplitude = 10.5mA
width = 600ps
delay = 1ns
edge = 100ps
R = 2.555ohm
L = 6.184pH
C = 0.3557nF
R_spon = 2.811mohm
R_o = -5.511mohm
t_end = 3ns
dt = 2ps
""", encoding="ascii")
    artifacts = []
    for k in (1, 2):
        out = tmp_path / f"run{k}.csv"
        svg = tmp_path / f"run{k}.svg"
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(out), "--plot", str(svg)]) == 0
        artifacts.append((out.read_bytes(), svg.read_bytes()))
    capsys.readouterr()
    assert artifacts[0][0] == artifacts[1][0]
    assert artifacts[0][1] == artifacts[1][1]


def test_sweep_run_writes_summary(tmp_path, capsys):
    out_dir = tmp_path / "runs"
    rc = cli.main(["sweep", "--config", str(CONFIGS / "sweep_amplitude.cfg"),
                   "--out-dir", str(out_dir)])
    assert rc == 0
    capsys.readouterr()
    lines = (out_dir / "summary.csv").read_text(encoding="ascii").splitlines()
    assert lines[0] == "value,peak,t_peak,fwhm,t_mid"
    assert len(lines) == 3
    peaks = [float(line.split(",")[1]) for line in lines[1:]]
    assert peaks[0] == pytest.approx(41.5e-3, rel=0.02)
    assert peaks[1] == pytest.approx(39.2e-3, rel=0.02)
    assert (out_dir / "run_000.csv").exists()
    assert (out_dir / "run_001.csv").exists()


def test_metrics_of_a_saved_waveform(tmp_path, capsys):
    sigma = 150e-12
    wave = gaussian_wave(sigma, 5e-12, center=3e-9, half_span=2e-9,
                         t0=0.0, amplitude=7.5e-3, unit="A")
    pedestal = wave.with_samples(wave.samples + 31e-3)
    path = tmp_path / "pulse.csv"
    write_waveform_csv(path, pedestal)

    rc = cli.main(["metrics", str(path), "--baseline", "0s", "1ns"])
    assert rc == 0
    rows = kv(capsys.readouterr().out)
    assert first_number(rows["baseline removed"]) == pytest.approx(31e-3, rel=1e-6)
    assert first_number(rows["peak"]) == pytest.approx(7.5e-3, rel=1e-6)
    assert first_number(rows["fwhm"]) == pytest.approx(FWHM_PER_SIGMA * sigma,
                                                       abs=5e-12)
    assert rows["unit"] == "A"


def test_baseline_removed_is_the_level_subtracted(tmp_path, capsys):
    # A pedestal whose plain np.mean over the 201-sample window is not
    # exactly 31 mA: the printed level must be the one subtracted.
    wave = gaussian_wave(150e-12, 5e-12, center=3e-9, half_span=2e-9,
                         amplitude=7.5e-3, unit="A")
    pedestal = wave.with_samples(wave.samples + 31e-3)
    window = pedestal.samples[:201]
    assert np.all(window == 31e-3)

    subtracted, removed = cli._apply_baseline(pedestal, ["0s", "1ns"])
    assert np.all(window - subtracted.samples[:201] == removed)

    path = tmp_path / "pulse.csv"
    write_waveform_csv(path, pedestal)
    assert cli.main(["metrics", str(path), "--baseline", "0s", "1ns"]) == 0
    assert kv(capsys.readouterr().out)["baseline removed"] == f"{removed:.9g}"


def package_env():
    """Environment for a fresh interpreter that imports this pulsenet."""
    src = str(Path(pulsenet.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


@pytest.mark.parametrize("module", ["pulsenet", "pulsenet.cli"])
def test_import_loads_no_scipy(module):
    code = (f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=package_env(),
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_compare_reports_the_shift(tmp_path, capsys):
    sigma = 150e-12
    dt = 2e-12
    a = gaussian_wave(sigma, dt, center=2e-9, half_span=1.5e-9)
    b = gaussian_wave(sigma, dt, center=2e-9 + 60e-12, half_span=1.5e-9)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_waveform_csv(pa, a)
    write_waveform_csv(pb, b)

    prefix = str(tmp_path / "norm")
    rc = cli.main(["compare", str(pa), str(pb), "--level", "0.5",
                   "--out-prefix", prefix])
    assert rc == 0
    rows = kv(capsys.readouterr().out)
    assert first_number(rows["delay at level"]) == pytest.approx(60e-12, abs=dt)
    na = read_waveform_csv(prefix + "_a.csv")
    nb = read_waveform_csv(prefix + "_b.csv")
    assert na.samples.max() == 1.0
    assert nb.samples.max() == 1.0


def test_kstest_identical_inputs(tmp_path, capsys):
    wave = gaussian_wave(150e-12, 5e-12)
    path = tmp_path / "w.csv"
    write_waveform_csv(path, wave)
    cdf_path = tmp_path / "cdf.csv"

    rc = cli.main(["kstest", str(path), str(path), "--emit-cdf", str(cdf_path)])
    assert rc == 0
    rows = kv(capsys.readouterr().out)
    assert rows["d_stat"] == "0"
    assert rows["p_value"] == "1"
    assert rows["same_distribution"] == "true"
    assert rows["n_first"] == rows["n_second"]

    lines = cdf_path.read_text(encoding="ascii").splitlines()
    assert lines[0] == "x,F_a,F_b"
    last = lines[-1].split(",")
    assert float(last[1]) == 1.0
    assert float(last[2]) == 1.0
    for line in lines[1:]:
        _, fa, fb = line.split(",")
        assert fa == fb


def test_kstest_distinct_shapes_still_exit_zero(tmp_path, capsys):
    # The decision is a result, not a failure: exit stays 0.
    dt = 5e-12
    narrow = gaussian_wave(100e-12, dt, half_span=1.8e-9)
    wide = gaussian_wave(300e-12, dt, half_span=1.8e-9)
    pa, pb = tmp_path / "n.csv", tmp_path / "w.csv"
    write_waveform_csv(pa, narrow)
    write_waveform_csv(pb, wide)

    rc = cli.main(["kstest", str(pa), str(pb)])
    assert rc == 0
    rows = kv(capsys.readouterr().out)
    assert rows["same_distribution"] == "false"
    assert float(rows["p_value"]) < 0.05


def test_biased_pulse_names_the_baseline(tmp_path, capsys):
    # A pulse still riding on its bias never falls to half its peak;
    # the error says so instead of blaming a clipped record.
    wave = gaussian_wave(150e-12, 5e-12, center=3e-9, half_span=2e-9,
                         amplitude=7.5e-3, unit="A")
    path = tmp_path / "biased.csv"
    write_waveform_csv(path, wave.with_samples(wave.samples + 31e-3))

    assert cli.main(["metrics", str(path)]) == 1
    assert "baseline" in capsys.readouterr().err
    assert cli.main(["kstest", str(path), str(path)]) == 1
    assert "baseline" in capsys.readouterr().err


def test_domain_errors_exit_one(tmp_path, capsys):
    assert cli.main(["simulate", "--config", str(CONFIGS / "missing.cfg"),
                     "--out", str(tmp_path / "x.csv")]) == 1
    assert "cannot read config" in capsys.readouterr().err

    bad = tmp_path / "bad.cfg"
    bad.write_text("witdh = 600ps\n", encoding="ascii")
    assert cli.main(["simulate", "--config", str(bad),
                     "--out", str(tmp_path / "x.csv")]) == 1
    assert "witdh" in capsys.readouterr().err

    assert cli.main(["netcheck", str(tmp_path / "missing.net")]) == 1
    assert "error:" in capsys.readouterr().err

    assert cli.main(["kstest", str(tmp_path / "nope.csv"),
                     str(tmp_path / "nope.csv")]) == 1
    capsys.readouterr()


def test_uncountable_step_count_is_an_error_not_a_traceback(tmp_path):
    # t_end / dt overflows to infinity; SimConfig rejects it before any
    # step is counted.
    text = (CONFIGS / "pulse600.cfg").read_text(encoding="ascii")
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(text.replace("t_end = 6ns", "t_end = 1e300s"),
                   encoding="ascii")
    assert "1e300s" in cfg.read_text(encoding="ascii")
    proc = subprocess.run(
        [sys.executable, "-m", "pulsenet.cli", "simulate", "--config",
         str(cfg), "--out", str(tmp_path / "x.csv")],
        env=package_env(), capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "too many steps" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["simulate", "laser-params", "netcheck"])
def test_file_that_is_not_utf8_is_an_error_not_a_traceback(tmp_path, command):
    # A Latin-1 "µ" (byte 0xb5) is not valid UTF-8.
    bad = tmp_path / "bad.in"
    bad.write_bytes(b"width = 600\xb5s\n")
    args = {"simulate": ["--config", str(bad), "--out", str(tmp_path / "x.csv")],
            "laser-params": ["--config", str(bad)],
            "netcheck": [str(bad)]}[command]
    proc = subprocess.run([sys.executable, "-m", "pulsenet.cli", command, *args],
                          env=package_env(), capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "cannot read" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_usage_errors_exit_two(tmp_path, capsys):
    assert cli.main([]) == 2
    assert cli.main(["frobnicate"]) == 2
    assert cli.main(["simulate", "--config", str(CONFIGS / "pulse600.cfg")]) == 2
    capsys.readouterr()
