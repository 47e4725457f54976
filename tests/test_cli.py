"""End-to-end command line runs against the shipped configs."""

import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pulsenet
from pulsenet import cli
from pulsenet.waveform import read_waveform_csv, write_waveform_csv
from conftest import FWHM_PER_SIGMA, gaussian_wave

CONFIGS = Path(__file__).parent.parent / "configs"


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
                   "--emit-netlist", str(net_file), "--probe", "v:tee",
                   "--probe", "i:LD_L"])
    assert rc == 0
    rows = kv(capsys.readouterr().out)
    assert first_number(rows["peak current"]) == pytest.approx(41.5e-3, rel=0.02)
    assert first_number(rows["fwhm"]) == pytest.approx(600e-12, rel=0.10)

    wave = read_waveform_csv(out)
    assert len(wave) == 6001
    assert wave.unit == "A"
    assert svg.read_text(encoding="ascii").startswith("<svg")
    assert "IBIAS" in net_file.read_text(encoding="ascii")
    for name in ("pulse_v_tee.csv", "pulse_i_LD_L.csv"):
        assert len(read_waveform_csv(tmp_path / name)) == 6001


SMALL_CONFIG = """
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
"""


def test_identical_runs_are_byte_identical(tmp_path, capsys):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_CONFIG, encoding="ascii")
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


def test_detector_rise_filters_what_is_compared(tmp_path, capsys):
    # simulate --detector-rise writes the filtered sense current, and
    # kstest --detector-rise tests the filtered inputs: both equal the
    # filter applied to the unfiltered files (the CSVs round-trip exactly).
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_CONFIG, encoding="ascii")
    raw, filtered = tmp_path / "raw.csv", tmp_path / "filtered.csv"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(raw)]) == 0
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(filtered),
                     "--detector-rise", "50ps"]) == 0
    expected = pulsenet.detector_filter(read_waveform_csv(raw), 50e-12)
    assert np.array_equal(read_waveform_csv(filtered).samples, expected.samples)

    for name, sigma in (("narrow", 100e-12), ("wide", 150e-12)):
        wave = gaussian_wave(sigma, 5e-12)
        write_waveform_csv(tmp_path / f"{name}.csv", wave)
        write_waveform_csv(tmp_path / f"{name}_f.csv",
                           pulsenet.detector_filter(wave, 50e-12))
    capsys.readouterr()
    assert cli.main(["kstest", str(tmp_path / "narrow.csv"), str(tmp_path / "wide.csv"),
                     "--detector-rise", "50ps"]) == 0
    direct = capsys.readouterr().out
    assert cli.main(["kstest", str(tmp_path / "narrow_f.csv"),
                     str(tmp_path / "wide_f.csv")]) == 0
    assert capsys.readouterr().out == direct
    assert kv(direct)["same_distribution"] == "false"


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
    """Importing loads no scipy and builds none of the CSV writer's
    tables: both would be paid by every command, writing or not."""
    code = (f"import sys, {module}, pulsenet.waveform as w; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
            "w._tables.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], env=package_env(),
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "[] 0"


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


def test_compare_writes_a_non_ascii_unit(tmp_path, capsys):
    # The reader takes UTF-8, so the writer must give it back: a unit
    # read from a file is written into the aligned copies.
    wave = gaussian_wave(150e-12, 2e-12, center=2e-9, half_span=1.5e-9)
    path = tmp_path / "mu.csv"
    write_waveform_csv(path, wave.with_samples(wave.samples, unit="µA"))
    prefix = str(tmp_path / "out")
    assert cli.main(["compare", str(path), str(path), "--level", "0.5",
                     "--out-prefix", prefix]) == 0
    capsys.readouterr()
    assert read_waveform_csv(prefix + "_a.csv").unit == "µA"


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


@pytest.mark.filterwarnings("error")
def test_metrics_of_samples_more_than_the_float_range_apart(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    write_waveform_csv(path, pulsenet.Waveform(0.0, 1.0,
                                               [-1.7e308, 1.7e308, -1.7e308]))
    assert cli.main(["metrics", str(path)]) == 0
    out, err = capsys.readouterr()
    rows = kv(out)
    assert (rows["fwhm"], rows["half crossings"]) == ("0.5 s", "0.75 s, 1.25 s")
    assert err == ""


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
    # compare still measures the delay, and says which widths it cannot
    assert cli.main(["compare", str(path), str(path), "--level", "0.035"]) == 0
    rows = kv(capsys.readouterr().out)
    assert first_number(rows["delay at level"]) == 0.0
    for name in ("first", "second"):
        assert rows[name] == ("fwhm unmeasurable against a zero baseline "
                              "(use --baseline)")
    # --baseline removes the bias from both inputs of compare and kstest
    assert cli.main(["compare", str(path), str(path), "--level", "0.004",
                     "--baseline", "0s", "1ns"]) == 0
    rows = kv(capsys.readouterr().out)
    assert first_number(rows["delay at level"]) == 0.0
    assert rows["first"] == rows["second"]
    assert first_number(rows["first"].split("fwhm ")[1]) == pytest.approx(
        FWHM_PER_SIGMA * 150e-12, abs=5e-12)
    assert cli.main(["kstest", str(path), str(path), "--baseline", "0s", "1ns"]) == 0
    rows = kv(capsys.readouterr().out)
    assert (rows["d_stat"], rows["same_distribution"]) == ("0", "true")


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


def test_unreadable_quantity_flag_is_named(tmp_path, capsys):
    path = tmp_path / "w.csv"
    write_waveform_csv(path, gaussian_wave(150e-12, 5e-12))
    why = "'1e999s' is outside the float range (it would read as inf)"
    for flag, argv in (
            ("--baseline", ["metrics", str(path), "--baseline", "1e999s", "1ns"]),
            ("--detector-rise", ["kstest", str(path), str(path),
                                 "--detector-rise", "1e999s"]),
            ("--detector-rise", ["simulate", "--config", str(CONFIGS / "pulse600.cfg"),
                                 "--out", str(tmp_path / "x.csv"),
                                 "--detector-rise", "1e999s"])):
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"error: {flag}: {why}\n"
    assert cli.main(["metrics", str(path), "--baseline", "0s", "1V"]) == 1
    assert capsys.readouterr().err == (
        "error: --baseline needs a quantity in 's', got '1V'\n")


def count_transients(monkeypatch):
    """Record each ``simulate.transient`` call, which still runs."""
    calls = []
    real = pulsenet.simulate.transient

    def transient(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pulsenet.simulate, "transient", transient)
    return calls


def test_simulate_reads_its_flags_before_the_run(tmp_path, capsys, monkeypatch):
    calls = count_transients(monkeypatch)
    out = tmp_path / "x.csv"
    for rise, err in (
            ("1e999s", "error: --detector-rise: '1e999s' is outside the float "
                       "range (it would read as inf)\n"),
            ("0s", "error: rise time must be > 0 s, got 0.0\n")):
        assert cli.main(["simulate", "--config", str(CONFIGS / "pulse600.cfg"),
                         "--out", str(out), "--detector-rise", rise]) == 1
        assert capsys.readouterr().err == err
    assert calls == []
    assert not out.exists()


def test_simulate_writes_nothing_for_an_unknown_probe(tmp_path, capsys,
                                                      monkeypatch):
    # Probe names are checked against the network before the run.
    calls = count_transients(monkeypatch)
    for probe, err in (("i:NOPE", "error: unknown probe branch 'NOPE'\n"),
                       ("v:NOPE", "error: unknown probe node 'NOPE'\n")):
        assert cli.main(["simulate", "--config", str(CONFIGS / "pulse600.cfg"),
                         "--out", str(tmp_path / "x.csv"), "--probe", probe,
                         "--emit-netlist", str(tmp_path / "n.net")]) == 1
        captured = capsys.readouterr()
        assert captured.err == err
        assert captured.out == ""
    assert calls == []
    assert list(tmp_path.iterdir()) == []
    # and the counter does see a run's one transient
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_CONFIG, encoding="ascii")
    assert cli.main(["simulate", "--config", str(cfg), "--out",
                     str(tmp_path / "x.csv"), "--probe", "v:tee"]) == 0
    assert len(calls) == 1


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


@pytest.mark.parametrize("old, new, message", [
    ("delay = 2ns", "delay = 1e999ps",
     r"huge\.cfg:\d+: delay: '1e999ps' is outside the float range"),
    # past decimal's own exponent range once the prefix moves it
    ("t_end = 6ns", "t_end = 1e999999999999999999ks",
     r"huge\.cfg:\d+: t_end: '1e999999999999999999ks' is outside the float "
     r"range \(it would read as inf\)"),
    ("t_end = 6ns\ndt = 1ps", "t_end = 1ms\ndt = 1fs",
     r"the stimulus on 1,000,000,000,001 samples needs [\d,]+ bytes, more "
     r"than the [\d,]+ bytes of physical memory"),
])
def test_run_past_float_or_memory_range_is_one_error_line(tmp_path, capsys,
                                                          old, new, message):
    """Exit 1 with one ``error:`` line, in well under a second and without
    a large allocation, rather than a traceback from the allocator."""
    text = (CONFIGS / "pulse600.cfg").read_text(encoding="ascii")
    assert old in text
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(text.replace(old, new), encoding="ascii")
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = cli.main(["simulate", "--config", str(cfg),
                         "--out", str(tmp_path / "x.csv")])
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 1
    assert re.fullmatch(rf"error: [^\n]*{message}[^\n]*\n", err), err
    assert elapsed < 1.0
    assert peak < 10_000_000
    assert not (tmp_path / "x.csv").exists()


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
