"""Self-checks of the benchmark itself.

    python3 bench/selfcheck.py

1. Every workload runs once at reduced size (``--quick``), untraced and
   traced, and must end with no failed operation.
2. Every output check accepts the program's real output and rejects the
   same output made deliberately wrong (a KS D off by one count, a cycle
   vector outside the kernel, ...), which shows the checks able to fail.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import oracles  # noqa: E402
from oracles import CheckFailed  # noqa: E402

FAILURES: list[str] = []


def expect(label: str, ok: bool) -> None:
    print(f"{'ok  ' if ok else 'FAIL'}  {label}")
    if not ok:
        FAILURES.append(label)


def rejects(label: str, fn, *args, **kwargs) -> None:
    try:
        fn(*args, **kwargs)
    except CheckFailed:
        expect(f"rejects {label}", True)
    else:
        expect(f"rejects {label}", False)


def accepts(label: str, fn, *args, **kwargs) -> None:
    try:
        fn(*args, **kwargs)
    except CheckFailed as exc:
        expect(f"accepts {label} ({exc})", False)
    else:
        expect(f"accepts {label}", True)


def quick_runs() -> None:
    for workload in ("cli_pipeline", "simulate", "analysis"):
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", "7", "--quick", "--trace", trace],
                cwd=ROOT, capture_output=True, text=True)
            ok = proc.returncode == 0
            if ok:
                res = json.loads(proc.stdout.strip().splitlines()[-1])
                ok = res["correct"] and res["failed"] == 0 and res["attempted"] > 0
            else:
                sys.stderr.write(proc.stderr[-2000:])
            expect(f"quick {workload} --trace {trace}", ok)


def oracle_checks() -> None:
    import pulsenet as pn

    rng = np.random.default_rng(11)

    # KS statistic, p-value and verdict.
    a, b = rng.normal(size=2000), rng.normal(loc=0.2, size=2000)
    res = pn.ks_two_sample(a, b)
    ref = oracles.ks_reference(a, b)
    args = (ref, res.d_stat, res.p_value, res.same_distribution, 0.05, True)
    accepts("KS result", oracles.check_ks, *args)
    rejects("a KS D off by one count", oracles.check_ks, ref,
            res.d_stat + 1 / (a.size * b.size), *args[2:])
    rejects("a KS p-value off by 1e-8", oracles.check_ks, ref, res.d_stat,
            res.p_value + 1e-8, *args[3:])
    rejects("a flipped KS verdict", oracles.check_ks, *args[:3],
            not res.same_distribution, 0.05, True)

    cdf = pn.ecdf(a)
    probes = np.concatenate([a[:8], rng.normal(size=8)])
    values = [cdf(float(x)) for x in probes]
    accepts("ecdf", oracles.check_ecdf, a, probes, values)
    rejects("an ecdf one count high", oracles.check_ecdf, a, probes,
            [v + 1 / a.size for v in values])

    # Cycle basis.
    net = pn.Network.from_branches([
        pn.Branch("a", "0", "1"), pn.Branch("b", "1", "2"),
        pn.Branch("c", "2", "0"), pn.Branch("d", "1", "0"),
        pn.Branch("e", "2", "2")])
    bnd = oracles.incidence(list(net.nodes),
                            [(br.start, br.end) for br in net.branches])
    vectors = [list(v) for v in pn.cycle_space(net).vectors]
    accepts("cycle basis", oracles.check_cycle_basis, bnd, vectors)
    outside = [v[:] for v in vectors]
    j = next(k for k, c in enumerate(outside[0]) if c and net.branches[k].id != "e")
    outside[0][j] = -outside[0][j]
    rejects("a cycle vector outside the kernel", oracles.check_cycle_basis,
            bnd, outside)
    rejects("a basis one vector short", oracles.check_cycle_basis, bnd,
            vectors[:-1])
    rejects("a dependent basis", oracles.check_cycle_basis, bnd,
            [vectors[0]] * len(vectors))

    # Laser element values.
    phys = dict(T=300.1, I_d=18.4e-3, n_photon=0.1002, tau_photon=0.2204e-12,
                tau_spon=1e-9, beta=1.004e-5, n_e=1.0, n_sat=5.0, delta=1.02e-2)
    circ = pn.circuit_from_physics(pn.LaserPhysics(
        temperature=300.1, bias_current=18.4e-3, n_photon=0.1002,
        tau_photon=0.2204e-12, tau_spon=1e-9, beta=1.004e-5, n_e=1.0,
        n_sat=5.0, delta_gain=1.02e-2))
    printed = {"R_d": pn.differential_resistance(300.1, 18.4e-3), "R": circ.R,
               "L": circ.L, "C": circ.C, "R_spon": circ.R_spon, "R_o": circ.R_o}
    accepts("laser elements", oracles.check_laser, printed, phys)
    rejects("an R off by 2e-6", oracles.check_laser,
            {**printed, "R": printed["R"] * (1 + 2e-6)}, phys)

    # Pulse, shape and current law on a real run.
    spec = pn.StimulusSpec(bias=31e-3, amplitude=10.5e-3, width=600e-12,
                           delay=2e-9)
    cfg = pn.SimConfig(t_end=6e-9, dt=1e-12)
    shipped = pn.LaserCircuit(R=2.555, L=6.184e-12, C=0.3557e-9,
                              R_spon=2.811e-3, R_o=-5.511e-3)
    result = pn.run_driver(spec, shipped, cfg)
    sense = pn.sense_current(result).samples
    accepts("pulse", oracles.check_pulse, sense, 1e-12, 31e-3, 10.5e-3,
            600e-12, "pulse")
    rejects("a peak 3% high", oracles.check_pulse, sense * 1.03, 1e-12,
            31e-3, 10.5e-3, 600e-12, "pulse")
    rejects("a width 12% off", oracles.check_pulse, sense, 1e-12, 31e-3,
            10.5e-3, 600e-12 * 1.12, "pulse")
    shape = (sense - 31e-3) / 10.5e-3
    bent = shape.copy()
    bent[2500] += 1e-6
    accepts("a linear-scaling shape", oracles.check_same_shape, shape,
            shape.copy(), "shape")
    rejects("a shape off by 1e-6", oracles.check_same_shape, shape, bent,
            "shape")
    net = result.network
    edges = [(br.start, br.end) for br in net.branches]
    currents = np.vstack([result.branch_currents[br.id].samples
                          for br in net.branches])
    accepts("KCL", oracles.check_kcl, net.nodes, edges, currents, 1e-9)
    leak = currents.copy()
    leak[0, 3000] += 1e-9
    rejects("a 1 nA current-law leak", oracles.check_kcl, net.nodes, edges,
            leak, 1e-9)

    # Files.
    good = "# dt = 1e-12\ntime_s,value\n0,0.031\n9.9999999999999998e-13,0.031\n"
    accepts("a 17-digit CSV", oracles.parse_waveform_csv, good)
    rejects("a CSV row that does not round-trip", oracles.parse_waveform_csv,
            good.replace("0,0.031\n", "0,0.0310\n", 1))
    cdf_text = "x,F_a,F_b\n0,0.5,0.25\n1,1,1\n"
    accepts("a CDF file", oracles.check_cdf_file, cdf_text, 0.25)
    rejects("a D not in the CDF file", oracles.check_cdf_file, cdf_text, 0.3)
    svg = '<svg xmlns="http://www.w3.org/2000/svg"><path d="M0 0"/></svg>'
    accepts("an SVG", oracles.check_svg, svg)
    rejects("a truncated SVG", oracles.check_svg, svg[:-6])
    expect("fwhm_of of a sampled Gaussian",
           math.isclose(oracles.fwhm_of(np.exp(-0.5 * np.linspace(-8, 8, 1601) ** 2),
                                        0.01)[0],
                        2 * math.sqrt(2 * math.log(2)), rel_tol=1e-4))


if __name__ == "__main__":
    oracle_checks()
    quick_runs()
    print(f"{len(FAILURES)} failed" if FAILURES else "all self-checks hold")
    sys.exit(1 if FAILURES else 0)
