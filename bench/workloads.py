"""The three workloads: seeded inputs, one round of operations, checks.

A round always attempts the same operations, so the share of failed
operations does not depend on the seed or on the run length.  Only the
program's own calls are timed; the checks run outside the timed spans.
In-process rounds make all their program calls first and check the
outputs afterwards, so that the peak resident set read in between is
the program's and not the checks'.
"""

from __future__ import annotations

import io
import math
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
import warnings
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass, field, replace
from decimal import Decimal
from pathlib import Path

import numpy as np

import oracles
from oracles import CheckFailed, close, require

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The shipped 600 ps driver (configs/pulse600.cfg) that the seeded
#: inputs vary around.
LASER_LINES = """\
R = 2.555ohm
L = 6.184pH
C = 0.3557nF
R_spon = 2.811mohm
R_o = -5.511mohm
"""
BIAS = 31e-3


class ProgramFailed(Exception):
    """The program did not produce an output: a non-zero exit code."""


@dataclass
class Op:
    """Outcome of one operation: a program error, a wrong output, or neither."""

    name: str
    error: str | None = None
    wrong: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None or self.wrong is not None


@dataclass
class Round:
    ops: list[Op] = field(default_factory=list)
    #: wall time of the program's calls, per part of the round
    parts: dict[str, float] = field(default_factory=dict)
    #: wall time of each CLI command (cli_pipeline only)
    commands: list[float] = field(default_factory=list)
    #: largest resident set of a CLI child process, KiB
    child_rss_kb: int = 0
    #: work done, per part of the round (points, samples, networks)
    units: dict[str, int] = field(default_factory=dict)
    #: peak resident set of this process after the round's program calls
    #: and before its checks, KiB (in-process workloads)
    rss_kb: int = 0
    #: sweep only, traced runs: the same points one by one with no pool
    serial_s: float = 0.0

    @property
    def seconds(self) -> float:
        return sum(self.parts.values())

    def timed(self, part: str, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.parts[part] = self.parts.get(part, 0.0) + (
                time.perf_counter() - start)

    @contextmanager
    def op(self, name: str):
        """Record one operation; a raised error or failed check fails it."""
        from pulsenet import PulsenetError

        result = Op(name)
        self.ops.append(result)
        try:
            yield result
        except CheckFailed as exc:
            result.wrong = str(exc)
        except (ProgramFailed, PulsenetError) as exc:
            result.error = f"{type(exc).__name__}: {exc}"
        except Exception as exc:  # an operation boundary: report, go on
            traceback.print_exc(file=sys.stderr)
            result.error = f"{type(exc).__name__}: {exc}"
        if result.failed:
            print(f"[{name}] {result.error or result.wrong}", file=sys.stderr)


def attempt(fn, *args, **kwargs):
    """``(result, None)``, or ``(None, exception)`` if the call raised; the
    exception is raised again inside its operation, when it is checked."""
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # re-raised inside its operation
        return None, exc


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _qty(value: float, scale: float, unit: str, digits: int) -> tuple[str, float]:
    """Config text for ``value`` in units of ``scale`` and the float the
    exact decimal parse of that text gives."""
    text = f"{value / scale:.{digits}f}"
    return f"{text}{unit}", float(Decimal(text) * Decimal(repr(scale)))


def child_env() -> dict[str, str]:
    """This process's environment with ``src/`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="ascii")
    return path


def _sim_config_text(amplitude: str, width: str, delay: str, t_end: str,
                     extra: str = "", shape: str = "trapezoid") -> str:
    return (f"bias = 31mA\namplitude = {amplitude}\nwidth = {width}\n"
            f"delay = {delay}\nedge = 100ps\nshape = {shape}\n{LASER_LINES}"
            f"t_end = {t_end}\ndt = 1ps\nmethod = trapezoidal\n{extra}")


#: Pulse shape of the sweep part's seeded points.  About one
#: seeded trapezoid in six reaches its maximum sample in two separate
#: places, and ``fwhm`` then warns.  The pool's concurrent
#: ``warnings.catch_warnings`` in ``simulate._factorize`` leaves the
#: process-wide filter at "error" in about one ``sweep_runs`` call in
#: five, and that warning then fails the point: on some seeds, in some
#: runs.  Such a count cannot be compared between runs, so the seeded
#: points use a raised cosine, which has one maximum and never warns,
#: and the leaked filter is counted instead (``Round.units``).
SWEEP_SHAPE = "raised-cosine"
#: Shipped trapezoid sweep run by the ``sweep`` CLI command, as is.
SHIPPED_SWEEP = ROOT / "configs" / "sweep_amplitude.cfg"


def _cfg_quantity(text: str, key: str, unit: str, scale: str) -> list[float]:
    """Values of ``key`` in a config text, each ``<decimal><unit>``, as the
    floats of their exact decimal values."""
    for line in text.splitlines():
        name, sep, value = line.partition("=")
        if sep and name.strip() == key:
            items = [v.strip() for v in value.split("#")[0].split(",")]
            require(all(v.endswith(unit) for v in items),
                    f"{key} in the shipped sweep is not in {unit}")
            return [float(Decimal(v[:-len(unit)]) * Decimal(scale))
                    for v in items]
    raise CheckFailed(f"the shipped sweep has no {key}")


class Workload:
    name = ""
    #: cli_pipeline only: run the commands through ``pulsenet.cli.main``
    #: in this process instead of fresh interpreters (traced runs).
    in_process = False

    def __init__(self, seed: int | np.random.SeedSequence, quick: bool,
                 tmp: Path) -> None:
        self.rng = np.random.default_rng(seed)
        self.quick = quick
        self.tmp = tmp

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, tracer=None) -> Round:
        raise NotImplementedError

    def summary(self, rounds: list[Round]) -> list[tuple[str, float, str]]:
        """The workload's own end-to-end figures, for the printed report."""
        return []


# --- cli_pipeline -----------------------------------------------------------

def _kv(stdout: str) -> dict[str, str]:
    """``key  value`` rows printed by the CLI (two or more spaces apart)."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("  ")
        if sep and key and not key.startswith(" "):
            out[key.strip()] = value.strip()
    return out


def _first_float(text: str) -> float:
    return float(text.split()[0])


class CliPipeline(Workload):
    """The seven shipped commands, each in a fresh interpreter.

    In a traced run the same commands run in-process through
    ``pulsenet.cli.main`` so that spans can be recorded around the layer
    calls; the import cost is then measured by the ``cli.import`` probe.
    """

    name = "cli_pipeline"

    def setup(self) -> None:
        import pulsenet  # noqa: F401  (setup cost is measured with it)

        rng = self.rng
        self.env = child_env()
        inputs = self.tmp / "inputs"
        inputs.mkdir()

        lines = ["n_e = 1", "n_sat = 5"]
        self.physics = {"n_e": 1.0, "n_sat": 5.0}
        for key, lo, hi, scale, unit, digits in (
                ("T", 290.0, 310.0, 1.0, "K", 3),
                ("I_d", 15e-3, 22e-3, 1e-3, "mA", 4),
                ("n_photon", 0.08, 0.12, 1.0, "", 5),
                ("tau_photon", 0.18e-12, 0.26e-12, 1e-12, "ps", 5),
                ("tau_spon", 0.8e-9, 1.2e-9, 1e-9, "ns", 4),
                ("beta", 0.8e-5, 1.2e-5, 1e-5, "e-5", 4),
                ("delta", 0.8e-2, 1.2e-2, 1e-2, "e-2", 4)):
            text, self.physics[key] = _qty(rng.uniform(lo, hi), scale, unit,
                                           digits)
            lines.append(f"{key} = {text}")
        self.laser_cfg = _write(inputs / "laser.cfg", "\n".join(lines) + "\n")

        net_src = (ROOT / "configs" / "triangle.net").read_text(encoding="ascii")
        self.netlist = _write(inputs / "triangle.net", net_src)
        self.net_ids, self.net_nodes, self.net_edges = [], [], []
        for line in net_src.splitlines():
            if line.strip() and not line.lstrip().startswith("#"):
                bid, start, end = line.split()[:3]
                self.net_ids.append(bid)
                self.net_edges.append((start, end))
                for node in (start, end):
                    if node not in self.net_nodes:
                        self.net_nodes.append(node)

        amp_t, self.amplitude = _qty(rng.uniform(9e-3, 12e-3), 1e-3, "mA", 3)
        width_t, self.width = _qty(rng.uniform(550e-12, 650e-12), 1e-12, "ps", 0)
        delay_t, _ = _qty(rng.uniform(1.6e-9, 2.4e-9), 1e-12, "ps", 0)
        self.pulse_cfg = _write(inputs / "pulse.cfg", _sim_config_text(
            amp_t, width_t, delay_t, "6ns"))
        sweep_text = SHIPPED_SWEEP.read_text(encoding="ascii")
        self.sweep_cfg = _write(inputs / "sweep.cfg", sweep_text)
        self.sweep_amplitudes = _cfg_quantity(sweep_text, "sweep_values",
                                              "mA", "1e-3")
        [self.sweep_width] = _cfg_quantity(sweep_text, "width", "ps", "1e-12")
        require("sweep_param = amplitude" in sweep_text,
                "the shipped sweep no longer sweeps the amplitude")
        self.round_no = 0

    # One entry per command: (name, argv, check).
    def _commands(self, out: Path):
        sim = out / "sim.csv"
        runs = out / "sweep"
        r0, r1 = runs / "run_000.csv", runs / "run_001.csv"
        level = f"{self._compare_level()!r}"
        return [
            ("laser-params", ["laser-params", "--config", str(self.laser_cfg)],
             self._check_laser),
            ("netcheck", ["netcheck", str(self.netlist), "--cycles"],
             self._check_netcheck),
            ("simulate", ["simulate", "--config", str(self.pulse_cfg),
                          "--out", str(sim), "--probe", "v:tee",
                          "--plot", str(out / "sim.svg")],
             lambda o: self._check_simulate(o, out)),
            ("sweep", ["sweep", "--config", str(self.sweep_cfg),
                       "--out-dir", str(runs)],
             lambda o: self._check_sweep(o, runs)),
            ("metrics", ["metrics", str(sim), "--baseline", "0s", "1ns"],
             lambda o: self._check_metrics(o, sim)),
            ("compare", ["compare", str(r0), str(r1), "--level", level,
                         "--baseline", "0s", "1ns"],
             lambda o: self._check_compare(o, r0, r1)),
            ("kstest", ["kstest", str(r0), str(r1), "--baseline", "0s", "1ns",
                        "--detector-rise", "500ps",
                        "--emit-cdf", str(out / "cdf.csv")],
             lambda o: self._check_kstest(o, out / "cdf.csv")),
        ]

    def run_round(self, tracer=None) -> Round:
        rnd = Round()
        self.round_no += 1
        out = self.tmp / f"round{self.round_no}"
        out.mkdir()
        for name, argv, check in self._commands(out):
            with rnd.op(name):
                if self.in_process:
                    code, stdout, seconds = self._in_process(argv)
                else:
                    code, stdout, seconds = self._spawn(argv, out, rnd)
                rnd.parts["commands"] = rnd.parts.get("commands", 0.0) + seconds
                rnd.commands.append(seconds)
                if code != 0:
                    raise ProgramFailed(f"exit code {code}")
                check(stdout)
        shutil.rmtree(out)
        return rnd

    def _spawn(self, argv, cwd: Path, rnd: Round) -> tuple[int, str, float]:
        out_path = cwd / "stdout.txt"
        with open(out_path, "wb") as out, open(cwd / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "pulsenet.cli", *argv],
                cwd=cwd, env=self.env, stdout=out, stderr=err)
            # wait4 gives this child's own peak resident set.
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        rnd.child_rss_kb = max(rnd.child_rss_kb, usage.ru_maxrss)
        return proc.returncode, out_path.read_text(encoding="utf-8"), seconds

    @staticmethod
    def _in_process(argv) -> tuple[int, str, float]:
        from pulsenet import cli

        buf = io.StringIO()
        start = time.perf_counter()
        # Each command starts from the warning filters of a fresh
        # interpreter, as it does when spawned.
        with redirect_stdout(buf), warnings.catch_warnings():
            code = cli.main(argv)
        return code, buf.getvalue(), time.perf_counter() - start

    def _check_laser(self, stdout: str) -> None:
        kv = _kv(stdout)
        printed = {k: _first_float(kv[k]) for k in
                   ("R_d", "R", "L", "C", "R_spon", "R_o") if k in kv}
        oracles.check_laser(printed, self.physics)

    def _check_netcheck(self, stdout: str) -> None:
        vectors = []
        for line in stdout.splitlines():
            if not line.startswith("cycle "):
                continue
            head, _, terms = line.partition(": ")
            if not head[6:].isdigit():
                continue
            vec = [0] * len(self.net_ids)
            for term in terms.split():
                sign = 1 if term[0] == "+" else -1
                body = term[1:]
                j = next(j for j, bid in enumerate(self.net_ids)
                         if body.endswith(bid)
                         and (body[:-len(bid)] or "1").isdigit())
                vec[j] = sign * int(body[:-len(self.net_ids[j])] or "1")
            vectors.append(vec)
        kv = _kv(stdout)
        require(int(kv["cycle rank"]) == len(vectors),
                "netcheck cycle rank differs from the cycles it printed")
        oracles.check_cycle_basis(
            oracles.incidence(self.net_nodes, self.net_edges), vectors)

    def _check_simulate(self, stdout: str, out: Path) -> None:
        dt, _, sense = oracles.parse_waveform_csv(
            (out / "sim.csv").read_text(encoding="ascii"))
        oracles.check_pulse(sense, dt, BIAS, self.amplitude, self.width,
                            "simulate")
        oracles.parse_waveform_csv(
            (out / "sim_v_tee.csv").read_text(encoding="ascii"))
        oracles.check_svg((out / "sim.svg").read_text(encoding="ascii"))
        kv = _kv(stdout)
        close(_first_float(kv["peak current"]), float(np.max(sense)), 1e-8,
              "simulate printed peak")
        resid = _first_float(kv["max KCL residual"])
        # max |sense| is a lower bound on the run's current scale.
        require(resid <= 1e-9 * float(np.max(np.abs(sense))),
                f"KCL residual {resid:g} A over the solver tolerance")

    def _compare_level(self) -> float:
        return 0.4 * min(self.sweep_amplitudes)

    def _check_sweep(self, stdout: str, runs: Path) -> None:
        for k, amplitude in enumerate(self.sweep_amplitudes):
            dt, _, sense = oracles.parse_waveform_csv(
                (runs / f"run_{k:03d}.csv").read_text(encoding="ascii"))
            oracles.check_pulse(sense, dt, BIAS, amplitude, self.sweep_width,
                                f"sweep run {k}")
        rows = (runs / "summary.csv").read_text(encoding="ascii").split()
        n = len(self.sweep_amplitudes)
        require(len(rows) == n + 1,
                f"summary.csv has {len(rows)} lines, not {n + 1}")
        for row, amplitude in zip(rows[1:], self.sweep_amplitudes):
            close(float(row.split(",")[0]), amplitude, 0.0, "summary.csv value")

    @staticmethod
    def _baselined(path: Path) -> tuple[float, np.ndarray]:
        dt, _, wave = oracles.parse_waveform_csv(path.read_text(encoding="ascii"))
        quiet = wave[:int(round(1e-9 / dt)) + 1]
        return dt, wave - float(np.mean(quiet))

    def _check_metrics(self, stdout: str, sim: Path) -> None:
        dt, wave = self._baselined(sim)
        width, _ = oracles.fwhm_of(wave, dt)
        close(_first_float(_kv(stdout)["fwhm"]), width, 1e-6, "metrics fwhm")

    def _check_compare(self, stdout: str, first: Path, second: Path) -> None:
        level = self._compare_level()
        crossings = []
        for path in (first, second):
            dt, wave = self._baselined(path)
            k = int(np.flatnonzero((wave[:-1] < level) & (level <= wave[1:]))[0])
            crossings.append(dt * (k + (level - wave[k]) / (wave[k + 1] - wave[k])))
        close(_first_float(_kv(stdout)["delay at level"]),
              crossings[1] - crossings[0], 1e-6, "compare delay", atol=1e-15)

    def _check_kstest(self, stdout: str, cdf: Path) -> None:
        kv = _kv(stdout)
        d_stat = float(kv["d_stat"])
        oracles.check_cdf_file(cdf.read_text(encoding="ascii"), d_stat)
        from scipy.stats import kstwobign

        lam = d_stat * math.sqrt(float(kv["effective_n"]))
        close(float(kv["p_value"]), float(kstwobign.sf(lam)), 0.0,
              "kstest p-value", atol=1e-7)
        require((kv["same_distribution"] == "true")
                == (float(kv["p_value"]) > float(kv["alpha"])),
                "kstest verdict disagrees with its p-value")

    def summary(self, rounds):
        cmds = [c for r in rounds for c in r.commands]
        return [("cli_command_s", float(np.median(cmds)), f"s (n={len(cmds)})"),
                ("cli_pipeline_s", float(np.median([r.seconds for r in rounds])),
                 f"s (n={len(rounds)})")]


# --- simulate: sweep part ---------------------------------------------------

class Sweep(Workload):
    """``sweep_runs`` with default settings over all three sweep fields."""

    POINTS = 3

    def setup(self) -> None:
        import pulsenet  # noqa: F401

        rng = self.rng
        amp = [_qty(rng.uniform(8e-3, 13e-3), 1e-3, "mA", 3)[1]
               for _ in range(self.POINTS)]
        d0 = _qty(rng.uniform(1.6e-9, 2.0e-9), 1e-12, "ps", 1)[1]
        self.delay_step = _qty(rng.uniform(50e-12, 300e-12), 1e-12, "ps", 1)[1]
        delay = [d0 + k * self.delay_step for k in range(self.POINTS)]
        width = [_qty(rng.uniform(500e-12, 700e-12), 1e-12, "ps", 0)[1]
                 for _ in range(self.POINTS)]
        self.points = {"amplitude": amp, "delay": delay, "width": width}
        self.config = _write(self.tmp / "driver.cfg", _sim_config_text(
            "10.5mA", "600ps", "2ns", "6ns", shape=SWEEP_SHAPE))

    def _load(self, rnd: Round):
        from pulsenet import config as cfgmod

        def load():
            cfg = cfgmod.load_config(self.config, cfgmod.SIMULATE_KEYS)
            return (cfgmod.stimulus_spec_from(cfg), cfgmod.laser_circuit_from(cfg),
                    cfgmod.sim_config_from(cfg), cfgmod.driver_kwargs_from(cfg))

        return rnd.timed("sweep", load)

    def run_round(self, tracer=None) -> Round:
        from pulsenet import simulate

        rnd = Round()
        spec, circ, sim_cfg, net_kwargs = self._load(rnd)
        calls = {}
        leaks = 0
        for param, values in self.points.items():
            # Each call starts from this process's own warning filters, as
            # a sweep in a fresh interpreter would; a call that leaves them
            # changed is counted.
            with warnings.catch_warnings():
                before = list(warnings.filters)
                calls[param] = attempt(rnd.timed, "sweep", simulate.sweep_runs,
                                       spec, circ, param, values, sim_cfg,
                                       **net_kwargs)
                leaks += warnings.filters != before
        rnd.rss_kb = peak_rss_kb()
        rnd.units["points"] = sum(len(v) for v in self.points.values())
        rnd.units["filter_leaks"] = leaks
        if tracer is not None:
            # The same points one by one, with no pool, and untraced: the
            # pool's cost is the gap between this and the sweep_runs spans.
            with tracer.paused():
                start = time.perf_counter()
                for param, values in self.points.items():
                    for v in values:
                        simulate.run_driver(replace(spec, **{param: v}), circ,
                                            sim_cfg, **net_kwargs)
                rnd.serial_s = time.perf_counter() - start

        for param, values in self.points.items():
            runs, exc = calls[param]
            mids, shape0 = [], None
            for k, value in enumerate(values):
                name = f"{param}={value:.6g}"
                with rnd.op(name):
                    if exc is not None:
                        raise exc
                    point, sense = runs[k]
                    s = replace(spec, **{param: value})
                    samples = sense.samples
                    i_pk = oracles.check_pulse(samples, sense.dt, s.bias,
                                               s.amplitude, s.width, name)
                    width, _ = oracles.fwhm_of(samples - s.bias, sense.dt)
                    close(point.fwhm, width, 1e-9, f"{name} SweepPoint.fwhm")
                    close(point.peak, float(samples[i_pk]), 0.0,
                          f"{name} SweepPoint.peak")
                    if param == "amplitude":
                        shape = (samples - s.bias) / s.amplitude
                        shape0 = shape if shape0 is None else shape0
                        oracles.check_same_shape(shape0, shape, name)
                    mids.append(point.t_mid)
                    if param == "delay" and len(mids) > 1:
                        close(mids[-1] - mids[-2], self.delay_step, 0.0,
                              f"{name} delay shift", atol=sense.dt)
        return rnd

    def summary(self, rounds):
        seconds = sum(r.parts["sweep"] for r in rounds)
        points = sum(r.units["points"] for r in rounds)
        calls = len(rounds) * len(self.points)
        return [("sweep_points_per_s", points / seconds,
                 f"points/s ({points} points)"),
                ("sweep_filter_leaks", sum(r.units["filter_leaks"] for r in rounds),
                 f"of {calls} sweep_runs calls left the warning filters changed")]


# --- simulate: pulse-train part ---------------------------------------------

class PulseTrain(Workload):
    """One long multi-pulse run, FWHM per pulse, CSV write and read-back."""

    RATE = 250e6

    def setup(self) -> None:
        import pulsenet  # noqa: F401

        rng = self.rng
        self.t_end = 20e-9 if self.quick else 100e-9
        amp_t, self.amplitude = _qty(rng.uniform(9e-3, 12e-3), 1e-3, "mA", 3)
        width_t, self.width = _qty(rng.uniform(550e-12, 650e-12), 1e-12, "ps", 0)
        delay_t, self.delay = _qty(rng.uniform(1.2e-9, 2.8e-9), 1e-12, "ps", 0)
        self.config = _write(self.tmp / "train.cfg", _sim_config_text(
            amp_t, width_t, delay_t, f"{self.t_end * 1e9:.0f}ns",
            "rate = 250MHz\n"))
        # Pulse k is measured on [start - 1 ns, start + 3 ns]; with the
        # delay in [1.2, 2.8] ns the same number of windows always fits.
        self.pulses = int(round(self.t_end * self.RATE)) - 1
        self.csv = self.tmp / "train.csv"

    def run_round(self, tracer=None) -> Round:
        from pulsenet import config as cfgmod
        from pulsenet import metrics, simulate, waveform

        rnd = Round()

        def run():
            cfg = rnd.timed("train", cfgmod.load_config, self.config,
                            cfgmod.SIMULATE_KEYS)
            spec, circ, sim_cfg, net_kwargs = rnd.timed("train", lambda: (
                cfgmod.stimulus_spec_from(cfg), cfgmod.laser_circuit_from(cfg),
                cfgmod.sim_config_from(cfg), cfgmod.driver_kwargs_from(cfg)))
            result = rnd.timed("train", simulate.run_driver, spec, circ, sim_cfg,
                               **net_kwargs)
            return result, simulate.sense_current(result), sim_cfg.solver_tol

        ran, run_exc = attempt(run)
        # The run's result stays alive until its checks, as it does in the
        # simulate command while the CSV is written.
        result, sense, solver_tol = ran or (None, None, None)

        def measure(start: float):
            seg = sense.slice_time(start - 1e-9, start + 3e-9)
            base = rnd.timed("train", metrics.baseline_subtract, seg,
                             (start - 1e-9, start - 0.2e-9))
            return rnd.timed("train", metrics.fwhm, base)

        def round_trip():
            rnd.timed("train", waveform.write_waveform_csv, self.csv, sense)
            return rnd.timed("train", waveform.read_waveform_csv, self.csv)

        starts = [self.delay + k / self.RATE for k in range(self.pulses)]
        no_run = (None, ProgramFailed("no waveform: the run failed"))
        measured = [attempt(measure, t) if sense is not None else no_run
                    for t in starts]
        back, csv_exc = attempt(round_trip) if sense is not None else no_run
        rnd.rss_kb = peak_rss_kb()

        with rnd.op("run_driver"):
            if run_exc is not None:
                raise run_exc
            net = result.network
            currents = np.vstack([result.branch_currents[b.id].samples
                                  for b in net.branches])
            oracles.check_kcl(net.nodes, [(b.start, b.end) for b in net.branches],
                              currents, solver_tol)
            del currents
        del result

        prev_mid = None
        for k, (start, (m, exc)) in enumerate(zip(starts, measured)):
            with rnd.op(f"pulse {k}"):
                if exc is not None:
                    raise exc
                a = int(round((start - 1e-9) / sense.dt))
                raw = sense.samples[a:a + int(round(4e-9 / sense.dt)) + 1]
                oracles.check_pulse(raw, sense.dt, BIAS, self.amplitude,
                                    self.width, f"pulse {k}")
                width, _ = oracles.fwhm_of(raw - BIAS, sense.dt)
                close(m.fwhm, width, 1e-6, f"pulse {k} fwhm")
                mid = 0.5 * sum(m.half_crossings)
                if prev_mid is not None:
                    close(mid - prev_mid, 1.0 / self.RATE, 0.0,
                          f"pulse {k} spacing", atol=sense.dt)
                prev_mid = mid

        with rnd.op("csv round trip"):
            if csv_exc is not None:
                raise csv_exc
            require(back.t0 == sense.t0 and back.dt == sense.dt
                    and np.array_equal(back.samples, sense.samples),
                    "waveform CSV read-back differs from what was written")
            _, _, parsed = oracles.parse_waveform_csv(
                self.csv.read_text(encoding="ascii"))
            require(np.array_equal(parsed, sense.samples),
                    "waveform CSV text differs from the written samples")
        self.csv.unlink(missing_ok=True)
        return rnd

    def summary(self, rounds):
        return [("train_s", float(np.median([r.parts["train"] for r in rounds])),
                 f"s (n={len(rounds)})")]


# --- simulate ---------------------------------------------------------------

class Simulate(Workload):
    """The ``simulate`` layer used two ways in one round: the sweep part
    (many short transients through the default pool), then the
    pulse-train part (one long transient whose recorded history sets the
    peak memory).  Each part draws its inputs from its own stream of the
    seed."""

    name = "simulate"

    def __init__(self, seed: int, quick: bool, tmp: Path) -> None:
        super().__init__(seed, quick, tmp)
        sweep_seed, train_seed = np.random.SeedSequence(seed).spawn(2)
        self.sweep = Sweep(sweep_seed, quick, tmp)
        self.train = PulseTrain(train_seed, quick, tmp)

    def setup(self) -> None:
        self.sweep.setup()
        self.train.setup()

    def run_round(self, tracer=None) -> Round:
        rnd = self.sweep.run_round(tracer)
        train = self.train.run_round(tracer)
        rnd.ops += train.ops
        rnd.parts.update(train.parts)
        # The train's peak, read after its calls and before its checks.
        rnd.rss_kb = train.rss_kb
        return rnd

    def summary(self, rounds):
        return self.sweep.summary(rounds) + self.train.summary(rounds)


# --- analysis ---------------------------------------------------------------

def random_network(rng, max_nodes: int = 20, max_branches: int = 40):
    """Criterion-1 family: random directed multigraph, self-loops and
    isolated nodes allowed."""
    from pulsenet import Branch, Network

    n_nodes = int(rng.integers(2, max_nodes + 1))
    n_branches = int(rng.integers(1, max_branches + 1))
    nodes = [f"n{k}" for k in range(n_nodes)]
    branches = [Branch(f"b{k}", nodes[int(rng.integers(n_nodes))],
                       nodes[int(rng.integers(n_nodes))])
                for k in range(n_branches)]
    return Network.from_branches(branches, extra_nodes=nodes)


class Analysis(Workload):
    """KS statistics on large populations and cycle bases of many networks."""

    name = "analysis"
    ALPHA = 0.05

    def setup(self) -> None:
        import pulsenet  # noqa: F401

        rng = self.rng
        n = 2_000 if self.quick else 200_000
        self.n_networks = 50 if self.quick else 1000
        a, b = rng.normal(size=n), rng.normal(size=n)
        shifted = rng.normal(loc=0.05, size=n)
        ties_a = np.round(rng.normal(size=n) * 8.0) / 8.0
        ties_b = np.round(rng.normal(size=n) * 8.0) / 8.0
        self.pairs = {"same": (a, b), "shifted": (a, shifted),
                      "ties": (ties_a, ties_b)}
        self.probes = {key: np.concatenate([pair[0][:16], pair[1][:16],
                                            rng.normal(size=32)])
                       for key, pair in self.pairs.items()}
        self.networks = [random_network(rng) for _ in range(self.n_networks)]
        # Expectations that depend on the inputs alone, computed on first
        # use (outside the timed calls) and kept for later rounds.
        self._ks_refs: dict = {}
        self._incidence: dict = {}

    def run_round(self, tracer=None) -> Round:
        from pulsenet import kstest, topology

        rnd = Round()

        def ks(key, a, b):
            """The KS result, and each side's ECDF at the probes (an ECDF
            holds its whole sample, so it is read here and let go)."""
            res = rnd.timed("ks", kstest.ks_two_sample, a, b, self.ALPHA)
            values = []
            for x in (a, b):
                cdf = rnd.timed("ks", kstest.ecdf, x)
                values.append([cdf(float(v)) for v in self.probes[key]])
            return res, values

        def audit(net):
            """The cycle basis, and how many of its vectors the KCL audit
            finds a non-zero residual for (counted as each one returns)."""
            basis = rnd.timed("cycles", topology.cycle_space, net)
            nonzero = 0
            for vec in basis.vectors:
                resid = rnd.timed("cycles", topology.kcl_residual, net,
                                  dict(zip(net.branch_ids, vec)))
                nonzero += any(v != 0 for v in resid.values())
            return basis, nonzero

        ks_calls = {key: attempt(ks, key, a, b)
                    for key, (a, b) in self.pairs.items()}
        audits = [attempt(audit, net) for net in self.networks]
        rnd.rss_kb = peak_rss_kb()

        for key, (a, b) in self.pairs.items():
            out, exc = ks_calls[key]
            with rnd.op(f"ks {key}"):
                if exc is not None:
                    raise exc
                res, values = out
                if key not in self._ks_refs:
                    self._ks_refs[key] = oracles.ks_reference(a, b)
                oracles.check_ks(self._ks_refs[key], res.d_stat, res.p_value,
                                 res.same_distribution, self.ALPHA,
                                 check_verdict=(key == "shifted"))
                for x, at_probes in zip((a, b), values):
                    oracles.check_ecdf(x, self.probes[key], at_probes)
        for k, (net, (out, exc)) in enumerate(zip(self.networks, audits)):
            with rnd.op(f"network {k}"):
                if exc is not None:
                    raise exc
                basis, nonzero = out
                require(nonzero == 0,
                        f"network {k}: audit finds a non-zero residual")
                if k not in self._incidence:
                    self._incidence[k] = oracles.incidence(
                        list(net.nodes), [(br.start, br.end) for br in net.branches])
                oracles.check_cycle_basis(self._incidence[k], basis.vectors)
        rnd.units["samples"] = sum(len(a) + len(b) for a, b in self.pairs.values())
        rnd.units["networks"] = self.n_networks
        return rnd

    def summary(self, rounds):
        ks = sum(r.parts["ks"] for r in rounds)
        cyc = sum(r.parts["cycles"] for r in rounds)
        samples = sum(r.units["samples"] for r in rounds)
        nets = sum(r.units["networks"] for r in rounds)
        return [("ks_samples_per_s", samples / ks, f"samples/s ({samples} samples)"),
                ("cycle_networks_per_s", nets / cyc, f"networks/s ({nets} networks)")]


WORKLOADS = {cls.name: cls for cls in (CliPipeline, Simulate, Analysis)}
