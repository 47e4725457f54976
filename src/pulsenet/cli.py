"""Command line front end.

Subcommands map onto the library layers: ``laser-params`` (equivalent
circuit), ``netcheck`` (topology audit), ``simulate`` / ``sweep``
(transient runs), ``metrics`` / ``compare`` (pulse measurement) and
``kstest`` (waveform indistinguishability).  Exit codes: 0 on success,
1 for any domain failure (bad values, unmeasurable pulses, singular
networks, unreadable files), 2 for command line usage errors.
"""

from __future__ import annotations

import argparse
import re
import sys
import warnings
from dataclasses import asdict, astuple, fields
from functools import partial
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import driver, kstest, laser, metrics, netlist, simulate, svgplot, topology
from .errors import PulsenetError
from .waveform import (Waveform, read_waveform_csv, write_rows_csv,
                       write_waveform_csv)


def _print_kv(rows: list[tuple[str, str]]) -> None:
    width = max(len(k) for k, _ in rows)
    for key, value in rows:
        print(f"{key.ljust(width)}  {value}")


# --- laser-params ------------------------------------------------------------

def _cmd_laser_params(args) -> int:
    if args.invert:
        cfg = cfgmod.load_config(args.config, cfgmod.LASER_CIRCUIT_KEYS)
        circ = laser.LaserCircuit(**{f.name: cfg[f.name]
                                     for f in fields(laser.LaserCircuit)})
        phys = laser.physics_from_circuit(
            circ, temperature=cfg["T"], bias_current=cfg["I_d"],
            n_e=cfg["n_e"], n_sat=cfg["n_sat"],
            threshold_current=cfg.get("threshold"))
        # the physics keys that the circuit does not give, with their units
        _print_kv([(k, f"{v:.9g} {spec.unit}".rstrip())
                   for (k, spec), v in zip(cfgmod.LASER_PHYSICS_KEYS.items(),
                                           astuple(phys))
                   if k not in cfgmod.LASER_CIRCUIT_KEYS])
        return 0

    cfg = cfgmod.load_config(args.config, cfgmod.LASER_PHYSICS_KEYS)
    phys = cfgmod.laser_physics_from(cfg)
    circ = laser.circuit_from_physics(phys)
    rd = laser.differential_resistance(phys.temperature, phys.bias_current)
    keys = cfgmod.LASER_CIRCUIT_KEYS
    _print_kv([
        ("R_d", f"{rd:.9g} ohm"),
        *((k, f"{v:.9g} {keys[k].unit}") for k, v in asdict(circ).items()),
        ("series resistance", f"{circ.series_resistance:.9g} ohm"),
    ])
    return 0


# --- netcheck ----------------------------------------------------------------

def _cmd_netcheck(args) -> int:
    net = netlist.read_netlist(args.netlist)
    comps = topology.connected_components(net)
    basis = topology.cycle_space(net)
    col_ok = bool(np.all(topology.boundary(net).sum(axis=0) == 0))
    in_kernel = all(topology.in_cycle_space(net, vec) for vec in basis.vectors)

    print(f"netlist: {args.netlist}")
    _print_kv([
        ("nodes", f"{len(net.nodes)} (reference: {net.reference})"),
        ("branches", str(len(net.branches))),
        ("connected components", str(len(comps))),
        ("cycle rank", str(basis.dim)),
        ("boundary columns sum to zero", "yes" if col_ok else "NO"),
        ("basis satisfies the current law", "yes" if in_kernel else "NO"),
    ])
    if args.cycles:
        for k, vec in enumerate(basis.vectors, start=1):
            terms = [f"{'+' if c > 0 else '-'}{abs(c) if abs(c) != 1 else ''}{bid}"
                     for bid, c in zip(net.branch_ids, vec) if c != 0]
            print(f"cycle {k}: {' '.join(terms)}")
    if not (col_ok and in_kernel):
        raise topology.TopologyError("boundary/cycle audit failed")
    return 0


# --- simulate ----------------------------------------------------------------

def _safe_name(probe: str) -> str:
    return probe.replace(":", "_").replace("/", "_")


def _probe_target(net: topology.Network, probe: str) -> tuple[str, str]:
    """The record (``node_voltages`` or ``branch_currents``) and the name
    that ``probe`` reads, checked against the network before the run."""
    if probe.startswith("v:"):
        kind, name, known = "node", probe[2:], net.nodes
    else:
        kind, name, known = "branch", probe.removeprefix("i:"), net.branch_ids
    if name not in known:
        raise simulate.SimulationError(f"unknown probe {kind} {name!r}")
    return ("node_voltages" if kind == "node" else "branch_currents"), name


def _run_from_config(path, schema):
    cfg = cfgmod.load_config(path, schema)
    spec = cfgmod.stimulus_spec_from(cfg)
    circ = cfgmod.laser_circuit_from(cfg, source=str(path))
    sim_cfg = cfgmod.sim_config_from(cfg)
    net_kwargs = cfgmod.driver_kwargs_from(cfg, source=str(path))
    return cfg, spec, circ, sim_cfg, net_kwargs


def _cmd_simulate(args) -> int:
    _, spec, circ, sim_cfg, net_kwargs = _run_from_config(args.config,
                                                          cfgmod.SIMULATE_KEYS)
    # The probes are checked before the run, and every output is made
    # before the first file is written.
    net = driver.driver_network(spec, circ, t_end=sim_cfg.steps * sim_cfg.dt,
                                dt=sim_cfg.dt, **net_kwargs)
    targets = [_probe_target(net, probe) for probe in args.probe]
    result = simulate.transient(net, sim_cfg, simulate.dc_operating_point(net))
    sense = simulate.sense_current(result)
    if args.detector_rise is not None:
        sense = simulate.detector_filter(sense, args.detector_rise)
    probes = [getattr(result, record)[name] for record, name in targets]

    if args.emit_netlist:
        netlist.write_netlist(result.network, args.emit_netlist)
        print(f"wrote {args.emit_netlist}")
    write_waveform_csv(args.out, sense)
    print(f"wrote {args.out} ({len(sense)} samples, dt = {sense.dt:.9g} s)")
    out = Path(args.out)
    for probe, wave in zip(args.probe, probes):
        dest = out.with_name(f"{out.stem}_{_safe_name(probe)}{out.suffix}")
        write_waveform_csv(dest, wave)
        print(f"wrote {dest}")
    if args.plot:
        series = [svgplot.Series("drive current [mA]",
                                 sense.times() * 1e9, sense.samples * 1e3)]
        svgplot.write_plot(args.plot, series, title="transient run",
                           x_label="time [ns]", y_label="current [mA]")
        print(f"wrote {args.plot}")

    try:
        point = simulate.drive_point(spec, sense)
    except metrics.MetricsError as exc:
        print(f"pulse metrics unavailable: {exc}")
    else:
        _print_kv([
            ("peak current", f"{point.peak:.9g} A at {point.t_peak:.9g} s"),
            ("fwhm", f"{point.fwhm:.9g} s"),
            ("max KCL residual", f"{result.max_kcl_residual:.3g} A"),
        ])
    return 0


# --- sweep -------------------------------------------------------------------

def _cmd_sweep(args) -> int:
    cfg, spec, circ, sim_cfg, net_kwargs = _run_from_config(args.config,
                                                            cfgmod.SWEEP_KEYS)
    param = cfg["sweep_param"]
    values = cfgmod.sweep_values_from(cfg, source=str(args.config))

    runs = simulate.sweep_runs(spec, circ, param, values, sim_cfg, **net_kwargs)

    columns = [f.name for f in fields(simulate.SweepPoint)]
    print("  ".join(f"{name:>14}" for name in [param, *columns[1:]]))
    for point, _ in runs:
        print("  ".join(f"{v:>14.9g}" for v in astuple(point)))

    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for k, (_, sense) in enumerate(runs):
            write_waveform_csv(out_dir / f"run_{k:03d}.csv", sense)
        summary = np.array([astuple(p) for p, _ in runs], dtype=np.float64)
        write_rows_csv(out_dir / "summary.csv", [",".join(columns)],
                       len(summary), lambda a, b: summary[a:b])
        print(f"wrote {len(runs)} runs to {out_dir}")
    return 0


# --- metrics -----------------------------------------------------------------

def _cmd_metrics(args) -> int:
    wave = read_waveform_csv(args.waveform)
    removed = 0.0
    if args.baseline:
        removed = metrics.baseline_level(wave, args.baseline)
        wave = wave.with_samples(wave.samples - removed)
    m = metrics.fwhm(wave)
    rows = [
        ("samples", str(len(wave))),
        ("dt", f"{wave.dt:.9g} s"),
        ("baseline removed", f"{removed:.9g}"),
        ("peak", f"{m.peak:.9g} at {m.t_peak:.9g} s"),
        ("fwhm", f"{m.fwhm:.9g} s"),
        ("half crossings", f"{m.half_crossings[0]:.9g} s, "
                           f"{m.half_crossings[1]:.9g} s"),
    ]
    if wave.unit:
        rows.insert(2, ("unit", wave.unit))
    _print_kv(rows)
    return 0


# --- compare -----------------------------------------------------------------

def _read_pair(args) -> tuple[Waveform, Waveform]:
    """Read ``first`` and ``second``, then remove the --baseline level of
    each."""
    waves = [read_waveform_csv(args.first), read_waveform_csv(args.second)]
    if args.baseline:
        waves = [metrics.baseline_subtract(w, args.baseline) for w in waves]
    return waves[0], waves[1]


def _cmd_compare(args) -> int:
    first, second = _read_pair(args)
    delay = metrics.delay_at_level(first, second, args.level)
    rows = [("delay at level", f"{delay:.9g} s (positive: second later)")]
    for name, wave in (("first", first), ("second", second)):
        try:
            m = metrics.fwhm(wave)
        except metrics.MetricsError:
            rows.append((name, "fwhm unmeasurable against a zero baseline "
                               "(use --baseline)"))
        else:
            rows.append((name, f"peak {m.peak:.9g} at {m.t_peak:.9g} s, "
                               f"fwhm {m.fwhm:.9g} s"))
    _print_kv(rows)
    if args.out_prefix:
        a, b = metrics.normalize_align(first, second)
        write_waveform_csv(f"{args.out_prefix}_a.csv", a)
        write_waveform_csv(f"{args.out_prefix}_b.csv", b)
        print(f"wrote {args.out_prefix}_a.csv and {args.out_prefix}_b.csv")
    return 0


# --- kstest ------------------------------------------------------------------

def _cmd_kstest(args) -> int:
    first, second = _read_pair(args)
    if args.detector_rise is not None:
        first = simulate.detector_filter(first, args.detector_rise)
        second = simulate.detector_filter(second, args.detector_rise)
    sa, sb = kstest.waveform_samples_for_cdf(first, second,
                                             window_mult=args.window_mult,
                                             resolution=args.resolution)
    res = kstest.ks_two_sample(sa, sb, alpha=args.alpha)
    _print_kv([
        ("n_first", str(len(sa))),
        ("n_second", str(len(sb))),
        ("effective_n", f"{res.effective_n:.9g}"),
        ("d_stat", f"{res.d_stat:.9g}"),
        ("p_value", f"{res.p_value:.9g}"),
        ("alpha", f"{res.alpha:.9g}"),
        ("same_distribution", "true" if res.same_distribution else "false"),
    ])
    if args.emit_cdf:
        cdf_a = kstest.ecdf(sa)
        cdf_b = kstest.ecdf(sb)
        # + 0.0 turns a -0.0 into 0.0, which prints as 0
        xs = np.unique(np.concatenate([sa, sb])) + 0.0
        write_rows_csv(args.emit_cdf, ["x,F_a,F_b"], len(xs),
                       lambda a, b: np.column_stack(
                           (xs[a:b], cdf_a(xs[a:b]), cdf_b(xs[a:b]))))
        print(f"wrote {args.emit_cdf}")
    return 0


# --- parser ------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reads a token of "-" and a digit, such as ``-4ns`` or ``-.5ns``,
    as a value, not an option: no pulsenet option starts with a digit."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def _rise_time(text: str) -> float:
    rise = cfgmod.quantity(text, "s", "--detector-rise")
    if not rise > 0:
        raise simulate.SimulationError(f"rise time must be > 0 s, got {rise}")
    return rise


def _checked_float(check):
    """An argparse type: the text as a float, as ``type=float`` reads it,
    then ``check`` of it, whose error names the value."""
    def read(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid float value: {text!r}") from None
        return check(value)
    return read


def build_parser() -> argparse.ArgumentParser:
    """The command line.  Every flag but ``--config`` and ``--probe`` is
    read here, before a command reads any input."""
    parser = _Parser(
        prog="pulsenet",
        description="pulsed laser driver simulation and pulse metrology")
    sub = parser.add_subparsers(dest="command", required=True)
    baseline = argparse.ArgumentParser(add_help=False)
    baseline.add_argument("--baseline", nargs=2, metavar=("START", "STOP"),
                          type=partial(cfgmod.quantity, unit="s", what="--baseline"),
                          help="quiet window (e.g. 0s 1ns or -2ns -1ns) whose "
                               "mean is removed from each input first")
    rise = argparse.ArgumentParser(add_help=False)
    rise.add_argument("--detector-rise", metavar="QTY", type=_rise_time,
                      help="apply the detector response of this 10-90 rise "
                           "time, e.g. 500ps")

    p = sub.add_parser("laser-params",
                       help="equivalent-circuit values from the operating "
                            "point (or the inverse with --invert)")
    p.add_argument("--config", required=True)
    p.add_argument("--invert", action="store_true",
                   help="config gives R, L, C, R_spon, R_o; recover the "
                        "operating point")
    p.set_defaults(func=_cmd_laser_params)

    p = sub.add_parser("netcheck", help="audit a netlist's topology")
    p.add_argument("netlist")
    p.add_argument("--cycles", action="store_true",
                   help="print the integer cycle basis")
    p.set_defaults(func=_cmd_netcheck)

    p = sub.add_parser("simulate", parents=[rise],
                       help="transient run of the driver network")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="drive-current CSV")
    p.add_argument("--probe", action="append", default=[],
                   metavar="NAME", help="extra output: branch id or v:NODE "
                                        "(repeatable)")
    p.add_argument("--plot", help="write an SVG of the drive current")
    p.add_argument("--emit-netlist", metavar="FILE",
                   help="write the assembled network as a netlist")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="repeat a run over one stimulus field")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", help="write per-run CSVs and summary.csv")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("metrics", parents=[baseline],
                       help="pulse measurements of one waveform")
    p.add_argument("waveform")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("compare", parents=[baseline],
                       help="delay and shape of two waveforms")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--level", required=True,
                   type=_checked_float(metrics.crossing_level),
                   help="crossing level in waveform units")
    p.add_argument("--out-prefix",
                   help="write normalized, aligned copies as PREFIX_a/b.csv")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("kstest", parents=[baseline, rise],
                       help="two-sample distribution test on pulse windows")
    p.add_argument("first")
    p.add_argument("second")
    ks, cdf = kstest.ks_two_sample, kstest.waveform_samples_for_cdf
    p.add_argument("--alpha", type=_checked_float(kstest.significance),
                   default=cfgmod.default_of(ks, "alpha"))
    p.add_argument("--window-mult", type=_checked_float(kstest.window_multiple),
                   default=cfgmod.default_of(cdf, "window_mult"),
                   help="half-width of the compared window in units of the "
                        "larger fwhm")
    p.add_argument("--resolution", type=_checked_float(kstest.amplitude_resolution),
                   default=cfgmod.default_of(cdf, "resolution"),
                   help="amplitude quantization of the normalized samples "
                        "(0 disables)")
    p.add_argument("--emit-cdf", metavar="FILE",
                   help="write both empirical step functions as x,F_a,F_b")
    p.set_defaults(func=_cmd_kstest)
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """A warning as one line, without the source path or line it came from."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            args = build_parser().parse_args(argv)
            return args.func(args)
        except SystemExit as exc:  # argparse prints its own message
            return exc.code if isinstance(exc.code, int) else 2
        except (PulsenetError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
