"""pulsenet benchmark: one workload per invocation, one JSON line out.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload simulate --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics, measured with no tracing.
``--trace 1`` is the separate traced run: it measures half its rounds
untraced and half traced, reports the per-layer metrics and the tracing
overhead, and writes its spans to ``.bench_out/``.  ``--quick`` runs one
round at reduced size.  The last line of standard output is the JSON
result; the lines before it are a readable report.

The package is run from ``src/`` (it is not installed), with no
environment change: the sweep pool runs at its default size.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: Fresh-interpreter set-ups measured per run; setup_s is their median.
SETUP_PROBES = 5
#: Fresh-interpreter import probes in a traced run.
IMPORT_PROBES = 3

PER_LAYER_SELF = (
    ("config.load_config_s", "config.load_config"),
    ("driver.driver_network_s", "driver.driver_network"),
    ("simulate.dc_operating_point_s", "simulate.dc_operating_point"),
    ("simulate.transient_s", "simulate.transient"),
    ("simulate.detector_filter_s", "simulate.detector_filter"),
    ("metrics.fwhm_s", "metrics.fwhm"),
    ("metrics.baseline_subtract_s", "metrics.baseline_subtract"),
    ("kstest.ks_two_sample_s", "kstest.ks_two_sample"),
    ("kstest.ecdf_s", "kstest.ecdf"),
    ("kstest.waveform_samples_for_cdf_s", "kstest.waveform_samples_for_cdf"),
    ("topology.cycle_space_s", "topology.cycle_space"),
    ("topology.kcl_residual_s", "topology.kcl_residual"),
    ("waveform.write_csv_s", "waveform.write_waveform_csv"),
    ("waveform.read_csv_s", "waveform.read_waveform_csv"),
    ("svgplot.write_plot_s", "svgplot.write_plot"),
)
PER_LAYER_COUNTS = ("simulate.steps", "kstest.samples", "topology.networks",
                    "waveform.rows")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("cli_pipeline", "simulate", "analysis"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="one round at reduced size (self-check)")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)  # child of the setup_s measurement
    return p.parse_args(argv)


def median(values) -> float:
    return float(statistics.median(values))


def mean_round(rounds) -> float:
    """Timed seconds per round over the whole run.

    The machine's speed drifts in phases of 10-20 s; a median over a few
    rounds lands on one phase, while the run's total blends them, which
    makes runs agree far better."""
    return sum(r.seconds for r in rounds) / len(rounds)


def measure_setup(args) -> float:
    """Median time from starting a fresh interpreter to the moment its
    inputs are ready (import pulsenet plus input generation)."""
    times = []
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    if args.quick:
        cmd.append("--quick")
    for _ in range(1 if args.quick else SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed ({proc.returncode})")
    return median(times)


def measure_import() -> tuple[float, float]:
    """(import pulsenet, its share spent in scipy modules), in seconds,
    each the median over fresh interpreters; the scipy share is the sum of
    the self times ``-X importtime`` gives for scipy modules."""
    code = ("import time; t = time.perf_counter(); import pulsenet; "
            "print(time.perf_counter() - t)")
    from workloads import child_env

    total, scipy = [], []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              env=child_env(), capture_output=True, text=True,
                              check=True)
        total.append(float(proc.stdout.split()[-1]))
        micros = 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, _, name = line[12:].split("|")
            if name.strip().split(".")[0] == "scipy":
                micros += int(self_us)
        scipy.append(micros * 1e-6)
    return median(total), median(scipy)


def start_on_cpu(k: int) -> None:
    """Move this process to CPU ``k`` (mod the CPUs it may use), then let
    it run on all of them again.

    The CPUs of a shared virtual machine run at different speeds, and
    which one is faster changes over minutes.  A single-threaded round
    stays on the CPU it starts on, so a whole run could land on the slow
    one or the fast one.  Only the starting CPU is chosen: threads and
    child processes may use every CPU during the round."""
    if not hasattr(os, "sched_setaffinity"):
        return
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) > 1:
        os.sched_setaffinity(0, {cpus[k % len(cpus)]})
        os.sched_setaffinity(0, cpus)


def run_rounds(workload, seconds: float, rounds_max: int | None, tracer=None):
    """Whole rounds until the next one would end after ``seconds``; round
    ``k`` starts on CPU ``k``, in turn."""
    rounds, walls = [], []
    start = time.perf_counter()
    while True:
        start_on_cpu(len(rounds))
        t0 = time.perf_counter()
        rounds.append(workload.run_round(tracer))
        walls.append(time.perf_counter() - t0)
        if rounds_max is not None and len(rounds) >= rounds_max:
            return rounds
        if time.perf_counter() - start + median(walls) > seconds:
            return rounds


def report(lines) -> None:
    width = max(len(name) for name, _, _ in lines)
    for name, value, unit in lines:
        print(f"{name.ljust(width)}  {value:.6g} {unit}")


def end_to_end(args, workload):
    setup_s = measure_setup(args)
    workload.setup()
    rounds = run_rounds(workload, args.seconds, 1 if args.quick else None)
    if args.workload == "cli_pipeline":
        rss_kb = max(r.child_rss_kb for r in rounds)
    else:
        # Read after the first round's program calls, before its checks.
        rss_kb = rounds[0].rss_kb
    metrics = {
        "round_s": (mean_round(rounds), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }
    report([(k, v, u) for k, (v, u) in metrics.items()]
           + workload.summary(rounds)
           + [("rounds", len(rounds), "(s each: " + " ".join(
               f"{r.seconds:.3f}" for r in rounds) + ")")])
    return rounds, metrics


def traced(args, workload):
    from tracing import Tracer

    import_s, import_scipy_s = measure_import()
    # Both halves run the same way, so that their difference is the
    # tracing overhead alone.
    workload.in_process = True
    workload.setup()
    half = args.seconds / 2.0
    rounds_max = 1 if args.quick else None
    plain = run_rounds(workload, half, rounds_max)
    tracer = Tracer()
    tracer.install()
    try:
        traced_rounds = run_rounds(workload, half, rounds_max, tracer)
    finally:
        tracer.uninstall()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.json")

    n = len(traced_rounds)
    self_t = tracer.self_times()
    metrics = {"cli.import_s": (import_s, "s"),
               "cli.import_scipy_s": (import_scipy_s, "s")}
    for key, span in PER_LAYER_SELF:
        metrics[key] = (self_t.get(span, 0.0) / n, "s")
    # Inclusive wall time: the pool's cost is the gap between these two.
    metrics["simulate.sweep_runs_s"] = (
        tracer.wall_times().get("simulate.sweep_runs", 0.0) / n, "s")
    metrics["simulate.run_driver_serial_s"] = (
        sum(r.serial_s for r in traced_rounds) / n, "s")
    metrics["simulate.filter_leaks"] = (
        sum(r.units.get("filter_leaks", 0) for r in traced_rounds) / n, "count")
    for key in PER_LAYER_COUNTS:
        metrics[key] = (tracer.counts.get(key, 0) / n, "count")
    steps = tracer.counts.get("simulate.steps", 0)
    metrics["simulate.transient_us_per_step"] = (
        self_t.get("simulate.transient", 0.0) / steps * 1e6 if steps else 0.0,
        "us")
    metrics["trace.overhead_s"] = (
        mean_round(traced_rounds) - mean_round(plain), "s")
    metrics["trace.spans"] = (len(tracer.spans) / n, "count")
    report([(k, v, u) for k, (v, u) in metrics.items()])
    return plain + traced_rounds, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pulsenet" / "__init__.py").is_file():
        print(f"error: no pulsenet source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = tmp_root / f"{args.workload}-{os.getpid()}"
    tmp.mkdir()
    try:
        workload = WORKLOADS[args.workload](args.seed, args.quick, tmp)
        if args.setup_probe:
            workload.setup()
            print("ready", flush=True)
            return 0
        run = traced if args.trace else end_to_end
        rounds, metrics = run(args, workload)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    ops = [op for r in rounds for op in r.ops]
    result = {
        "correct": not any(op.wrong for op in ops),
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
