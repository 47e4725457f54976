"""Companion-model transient analysis against closed-form circuits."""

import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from pulsenet import (Branch, Capacitor, CurrentSource, InitialCondition,
                      Inductor, Network, Resistor, SimConfig, SimulationError,
                      VoltageSource, compile_step, dc_operating_point, transient)


def rc_network(volts=1.0, ohms=1e3, farads=1e-9):
    return Network.from_branches([
        Branch("VS", "a", "0", VoltageSource(volts)),
        Branch("R", "a", "b", Resistor(ohms)),
        Branch("C", "b", "0", Capacitor(farads)),
    ], reference="0")


def lc_network(henries=1.0, farads=1.0):
    # The zero-ampere source only satisfies the at-least-one-source check.
    return Network.from_branches([
        Branch("L", "a", "0", Inductor(henries)),
        Branch("C", "a", "0", Capacitor(farads)),
        Branch("I0", "0", "a", CurrentSource(0.0)),
    ], reference="0")


def consistent_rc_start():
    """State at t = 0+ with the source already applied, cap uncharged."""
    return InitialCondition(node_voltages={"a": 1.0},
                            branch_currents={"C": 1e-3, "VS": -1e-3})


@pytest.mark.parametrize("method", ["backward-euler", "trapezoidal"])
def test_rc_step_tracks_the_exponential(method):
    tau = 1e3 * 1e-9
    dt = tau / 1000.0
    cfg = SimConfig(t_end=5.2 * tau, dt=dt, method=method)
    res = transient(rc_network(), cfg, consistent_rc_start())
    v = res.node_voltages["b"].samples
    i = res.branch_currents["R"].samples
    for mult in (1.0, 2.0, 5.0):
        k = int(round(mult * tau / dt))
        t = k * dt
        v_exact = 1.0 - math.exp(-t / tau)
        i_exact = math.exp(-t / tau) / 1e3
        assert abs(v[k] - v_exact) <= 1e-3 * v_exact
        # Current errors are judged against the full-scale V/R: near 5*tau
        # the point value has decayed by e^-5 and a point-relative bound
        # would amplify the same voltage error a hundredfold.
        assert abs(i[k] - i_exact) <= 1e-3 * 1e-3


def test_first_step_enforces_the_source_jump():
    cfg = SimConfig(t_end=1e-9, dt=1e-10)
    res = transient(rc_network(), cfg)
    v_a = res.node_voltages["a"].samples
    assert v_a[0] == 0.0          # supplied (zero) state
    assert v_a[1] == pytest.approx(1.0, rel=1e-12)


def test_result_waveforms_share_the_grid():
    cfg = SimConfig(t_end=1e-9, dt=1e-10)
    res = transient(rc_network(), cfg)
    waves = list(res.node_voltages.values()) + list(res.branch_currents.values())
    assert all(w.t0 == 0.0 and w.dt == cfg.dt and len(w) == cfg.steps + 1
               for w in waves)
    assert not np.any(res.node_voltages["0"].samples)
    assert res.max_kcl_residual <= cfg.solver_tol * res.current_scale
    assert res.node_voltages["0"].t_end == pytest.approx(cfg.t_end, rel=1e-12)


def test_trapezoidal_conserves_oscillator_amplitude():
    # v'' = -v/LC with L = C = 1: period 2*pi.  The trapezoidal update
    # conserves C*v^2 + L*i^2 exactly, so the envelope can only drift
    # through roundoff.
    period = 2.0 * math.pi
    dt = period / 40.0
    cfg = SimConfig(t_end=1000.0 * period, dt=dt, method="trapezoidal")
    res = transient(lc_network(), cfg,
                    InitialCondition(node_voltages={"a": 1.0}))
    v = res.node_voltages["a"].samples
    i = res.branch_currents["L"].samples
    amp = np.sqrt(v * v + i * i)
    drift = (amp.max() - amp.min()) / amp[0]
    assert drift < 1e-9


def test_backward_euler_damps_the_oscillator():
    period = 2.0 * math.pi
    dt = period / 40.0
    cfg = SimConfig(t_end=10.0 * period, dt=dt, method="backward-euler")
    res = transient(lc_network(), cfg,
                    InitialCondition(node_voltages={"a": 1.0}))
    v = res.node_voltages["a"].samples
    i = res.branch_currents["L"].samples
    amp = np.sqrt(v * v + i * i)
    assert amp[-1] < 0.1 * amp[0]


def test_grid_refinement_orders():
    tau = 1e3 * 1e-9

    def error_at_tau(method, dt):
        cfg = SimConfig(t_end=1.1 * tau, dt=dt, method=method)
        res = transient(rc_network(), cfg, consistent_rc_start())
        k = int(round(tau / dt))
        return abs(res.node_voltages["b"].samples[k] - (1.0 - math.exp(-1.0)))

    dt = tau / 100.0
    be_ratio = error_at_tau("backward-euler", dt) / error_at_tau("backward-euler", dt / 2)
    tr_ratio = error_at_tau("trapezoidal", dt) / error_at_tau("trapezoidal", dt / 2)
    assert 1.8 <= be_ratio <= 2.2   # first order
    assert 3.6 <= tr_ratio <= 4.4   # second order


def test_record_is_shared_read_only():
    res = transient(rc_network(), SimConfig(t_end=1e-6, dt=1e-8))
    for wave in (res.node_voltages["b"], res.branch_currents["R"]):
        with pytest.raises(ValueError):
            wave.samples[1] = 0.0
        record = wave.samples.base
        assert record is not None and not record.flags.writeable
        with pytest.raises(ValueError):
            record[0, 1] = 0.0
    # Node voltages share one record, branch currents another.
    v, i = res.node_voltages, res.branch_currents
    assert v["a"].samples.base is v["b"].samples.base
    assert i["C"].samples.base is i["R"].samples.base


def test_operating_point_divider_and_source_current():
    net = Network.from_branches([
        Branch("VS", "a", "0", VoltageSource(10.0)),
        Branch("R1", "a", "b", Resistor(1e3)),
        Branch("R2", "b", "0", Resistor(1e3)),
    ], reference="0")
    op = dc_operating_point(net)
    assert op.node_voltages["a"] == pytest.approx(10.0, rel=1e-12)
    assert op.node_voltages["b"] == pytest.approx(5.0, rel=1e-12)
    assert op.branch_currents["VS"] == pytest.approx(-5e-3, rel=1e-12)


def test_operating_point_shorts_inductors_and_opens_capacitors():
    net = Network.from_branches([
        Branch("VS", "a", "0", VoltageSource(5.0)),
        Branch("L", "a", "b", Inductor(1e-6)),
        Branch("R", "b", "0", Resistor(500.0)),
        Branch("C", "b", "0", Capacitor(1e-9)),
    ], reference="0")
    op = dc_operating_point(net)
    assert op.node_voltages["b"] == pytest.approx(5.0, rel=1e-9)
    assert op.branch_currents["L"] == pytest.approx(0.01, rel=1e-9)


def test_operating_point_with_current_source():
    net = Network.from_branches([
        Branch("I1", "0", "a", CurrentSource(2e-3)),
        Branch("R", "a", "0", Resistor(250.0)),
    ], reference="0")
    op = dc_operating_point(net)
    assert op.node_voltages["a"] == pytest.approx(0.5, rel=1e-12)


def test_operating_point_reads_waveform_sources_at_zero():
    from pulsenet import Waveform
    dt = 1e-9

    def op(t0):
        wave = Waveform(t0, dt, np.linspace(2e-3, 4e-3, 11), "A")
        net = Network.from_branches([
            Branch("I1", "0", "a", CurrentSource(wave)),
            Branch("R", "a", "0", Resistor(250.0)),
        ], reference="0")
        return dc_operating_point(net).node_voltages["a"]

    assert op(0.0) == pytest.approx(0.5, rel=1e-12)
    # within half a sample step of t = 0: accepted
    assert op(0.4 * dt) == pytest.approx(0.5, rel=1e-12)
    assert op(-10.4 * dt) == pytest.approx(1.0, rel=1e-12)
    # a source that starts after t = 0 or ends before it is rejected
    for t0 in (0.6 * dt, -10.6 * dt, -20 * dt):
        with pytest.raises(SimulationError, match="branch 'I1'.*misses .*t = 0"):
            op(t0)


def test_starting_from_the_operating_point_stays_flat():
    net = Network.from_branches([
        Branch("VS", "a", "0", VoltageSource(5.0)),
        Branch("R", "a", "b", Resistor(1e3)),
        Branch("C", "b", "0", Capacitor(1e-9)),
    ], reference="0")
    cfg = SimConfig(t_end=1e-6, dt=1e-9)
    res = transient(net, cfg, dc_operating_point(net))
    v = res.node_voltages["b"].samples
    assert np.max(np.abs(v - v[0])) < 1e-6


def test_waveform_source_off_grid_is_interpolated():
    # A linear current ramp interpolates exactly, so a source sampled
    # on a twice-coarser grid must reproduce the aligned-source run.
    from pulsenet import Waveform
    dt = 1e-9
    t_end = 100e-9
    t_fine = dt * np.arange(101)
    t_coarse = 2 * dt * np.arange(51)
    ramp = lambda t: 1e3 * t

    def run(wave):
        net = Network.from_branches([
            Branch("I1", "0", "a", CurrentSource(wave)),
            Branch("R", "a", "0", Resistor(50.0)),
        ], reference="0")
        return transient(net, SimConfig(t_end=t_end, dt=dt))

    fine = run(Waveform(0.0, dt, ramp(t_fine), "A"))
    coarse = run(Waveform(0.0, 2 * dt, ramp(t_coarse), "A"))
    v1 = fine.node_voltages["a"].samples
    v2 = coarse.node_voltages["a"].samples
    assert np.max(np.abs(v1 - v2)) <= 1e-12 * np.max(np.abs(v1))


def test_waveform_source_must_span_the_run():
    from pulsenet import Waveform
    dt = 1e-9
    cfg = SimConfig(t_end=100e-9, dt=dt)

    def run(t0, t_end):
        wave = Waveform(t0, (t_end - t0) / 50, np.linspace(0.0, 1e-3, 51), "A")
        net = Network.from_branches([
            Branch("I1", "0", "a", CurrentSource(wave)),
            Branch("R", "a", "0", Resistor(50.0)),
        ], reference="0")
        return transient(net, cfg)

    # within half a step at either end: accepted
    assert run(0.4 * dt, 100e-9 - 0.4 * dt).config is cfg
    with pytest.raises(SimulationError, match="branch 'I1'.*short of the run"):
        run(0.0, 98e-9)
    with pytest.raises(SimulationError, match="branch 'I1'.*short of the run"):
        run(0.6 * dt, 100e-9)


def test_diagnostics_name_the_problem():
    cfg = SimConfig(t_end=1e-9, dt=1e-10)
    no_ref = Network.from_branches([
        Branch("VS", "a", "b", VoltageSource(1.0)),
        Branch("R", "a", "b", Resistor(1.0)),
    ])
    with pytest.raises(SimulationError, match="no reference node"):
        transient(no_ref, cfg)

    no_src = Network.from_branches([
        Branch("R1", "a", "0", Resistor(1.0)),
        Branch("R2", "a", "0", Resistor(1.0)),
    ], reference="0")
    with pytest.raises(SimulationError, match="no sources"):
        transient(no_src, cfg)

    loop = Network.from_branches([
        Branch("VS", "a", "0", VoltageSource(1.0)),
        Branch("RL", "b", "b", Resistor(1.0)),
        Branch("R", "a", "b", Resistor(1.0)),
    ], reference="0")
    with pytest.raises(SimulationError, match="self-loop"):
        transient(loop, cfg)

    floating = Network.from_branches([
        Branch("VS", "a", "0", VoltageSource(1.0)),
        Branch("R", "a", "0", Resistor(1.0)),
        Branch("RX", "c", "d", Resistor(1.0)),
    ], reference="0")
    with pytest.raises(SimulationError, match="no path to reference"):
        transient(floating, cfg)


SOURCE_LOOP_OR_CUTSET = (r"^singular system matrix; check for voltage-source "
                         r"loops or current-source cutsets \(")


def test_singular_systems_are_reported():
    cfg = SimConfig(t_end=1e-9, dt=1e-10)
    vs_loop = Network.from_branches([
        Branch("V1", "0", "a", VoltageSource(1.0)),
        Branch("V2", "0", "a", VoltageSource(2.0)),
    ], reference="0")
    # A loop of three sources, with a resistor across one of them.
    vs_triangle = Network.from_branches([
        Branch("V1", "a", "0", VoltageSource(1.0)),
        Branch("R", "a", "b", Resistor(1.0)),
        Branch("V2", "a", "b", VoltageSource(1.0)),
        Branch("V3", "b", "0", VoltageSource(1.0)),
    ], reference="0")
    cutset = Network.from_branches([
        Branch("I1", "0", "a", CurrentSource(1.0)),
        Branch("I2", "a", "0", CurrentSource(2.0)),
    ], reference="0")
    # Node b hangs off a grounded RC only through current sources.
    cut_node = Network.from_branches([
        Branch("R", "a", "0", Resistor(1.0)),
        Branch("C", "a", "0", Capacitor(1e-9)),
        Branch("I", "a", "b", CurrentSource(1e-3)),
        Branch("I2", "b", "a", CurrentSource(1e-3)),
    ], reference="0")
    for net in (vs_loop, vs_triangle, cutset, cut_node):
        with pytest.raises(SimulationError, match=SOURCE_LOOP_OR_CUTSET):
            transient(net, cfg)
    with pytest.raises(SimulationError, match="operating point is singular"):
        dc_operating_point(cutset)


def vrlci_network(ohms, henries, farads):
    return Network.from_branches([
        Branch("V", "a", "0", VoltageSource(1.0)),
        Branch("R", "a", "b", Resistor(ohms)),
        Branch("L", "b", "c", Inductor(henries)),
        Branch("C", "c", "0", Capacitor(farads)),
        Branch("I", "0", "c", CurrentSource(1e-3)),
    ], reference="0")


def test_overflowing_step_map_is_reported_by_compile_step():
    # G is finite, but the unit responses of the step are not.
    net = vrlci_network(1.7e308, 1.0, 5e-324)
    cfg = SimConfig(t_end=1e-9, dt=1e-10)
    with pytest.raises(SimulationError,
                       match=r"step map \(M, N, Rz, Rs\) overflowed for these "
                             r"element values.*branch 'C'.*branch 'L'"):
        compile_step(net, cfg)
    with pytest.raises(SimulationError, match="overflowed"):
        transient(net, cfg)


EDGE_VALUES = (5e-324, 1e-300, 1e-9, 1.0, 1e300, 1.7e308)


@pytest.mark.parametrize("method", ["trapezoidal", "backward-euler"])
def test_edge_element_values_fail_loudly_or_run(method):
    """Every V-R-L-C-I network of the edge values either gives finite
    step maps or a SimulationError, without a warning, and its run ends
    in a record or a SimulationError."""
    cfg = SimConfig(t_end=1e-9, dt=1e-10, method=method)
    overflowed = 0
    for ohms, henries, farads in itertools.product(EDGE_VALUES, repeat=3):
        net = vrlci_network(ohms, henries, farads)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                step = compile_step(net, cfg)
            except SimulationError as exc:
                overflowed += "overflowed" in str(exc)
                continue
            for name in ("M", "N", "Rz", "Rs"):
                assert np.all(np.isfinite(getattr(step, name))), name
            try:
                transient(net, cfg)
            except SimulationError:
                pass
    assert overflowed > 0


def test_run_that_steps_into_overflow_is_reported():
    # The maps are finite (dt/2L = 5e289 S), but the state they step is
    # not: the run names the overflow and the extreme conductances.
    net = vrlci_network(1.0, 1e-300, 1.0)
    cfg = SimConfig(t_end=1e-9, dt=1e-10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        step = compile_step(net, cfg)
        assert all(np.all(np.isfinite(getattr(step, name)))
                   for name in ("M", "N", "Rz", "Rs"))
        with pytest.raises(SimulationError,
                           match=r"the run in steps 1 to 10 overflowed for "
                                 r"these element values.*branch 'L'"):
            transient(net, cfg)


@pytest.mark.parametrize("method", ["trapezoidal", "backward-euler"])
def test_non_finite_conductance_names_its_branch(method):
    """An element value whose conductance is not finite is named, with
    its branch, and is never blamed on a source loop or cutset."""
    dt = 1e-10
    cfg = SimConfig(t_end=1e-9, dt=dt, method=method)
    k = 2.0 if method == "trapezoidal" else 1.0
    named = 0
    for ohms, henries, farads in itertools.product(EDGE_VALUES, repeat=3):
        with np.errstate(over="ignore", divide="ignore"):
            g = {"R": 1.0 / np.float64(ohms),
                 "L": dt / (k * np.float64(henries)),
                 "C": k * np.float64(farads) / dt}
        infinite = [name for name, value in g.items() if not np.isfinite(value)]
        if not infinite:
            continue
        with pytest.raises(SimulationError) as info:
            transient(vrlci_network(ohms, henries, farads), cfg)
        message = str(info.value)
        assert "voltage-source loops" not in message
        assert message.startswith(f"branch {infinite[0]!r}: ")
        assert "conductance inf S, which is not finite" in message
        named += 1
    assert named == 116

    # Finite conductances (1.7e308 S each) whose sum at a node is not.
    parallel = Network.from_branches([
        Branch("VS", "a", "0", VoltageSource(1.0)),
        Branch("R1", "a", "0", Resistor(6e-309)),
        Branch("R2", "a", "0", Resistor(6e-309)),
    ], reference="0")
    for run in (dc_operating_point, lambda net: transient(net, cfg)):
        with pytest.raises(SimulationError, match="the branch conductances at "
                                                  "a node sum past the float range"):
            run(parallel)


#: The V-R-L-C-I edge combinations whose conductances are finite but
#: about 1e590 apart, so that the LU of G meets an exact zero pivot.
NUMERICALLY_SINGULAR = (
    *((ohms, 1e-300, farads) for ohms in (1e300, 1.7e308)
      for farads in (5e-324, 1e-300, 1e-9, 1.0)),
    (1e300, 1.0, 5e-324), (1e300, 1.0, 1e-300))


@pytest.mark.parametrize("method", ["trapezoidal", "backward-euler"])
@pytest.mark.parametrize("ohms, henries, farads", NUMERICALLY_SINGULAR)
def test_numerically_singular_matrix_names_the_conductance_span(
        method, ohms, henries, farads):
    """A G that is singular only in floating point is not blamed on a
    source loop or cutset, which the network does not have."""
    cfg = SimConfig(t_end=1e-9, dt=1e-10, method=method)
    with pytest.raises(SimulationError) as info:
        transient(vrlci_network(ohms, henries, farads), cfg)
    message = str(info.value)
    assert message.startswith(
        "singular system matrix for these element values, with no "
        "voltage-source loop or current-source cutset, at dt = 1e-10 s "
        f"({method}): companion conductances span ")
    assert "check for voltage-source loops" not in message


def test_initial_condition_validation():
    cfg = SimConfig(t_end=1e-9, dt=1e-10)
    with pytest.raises(SimulationError, match="unknown nodes"):
        transient(rc_network(), cfg, InitialCondition(node_voltages={"zz": 1.0}))
    with pytest.raises(SimulationError, match="unknown branches"):
        transient(rc_network(), cfg, InitialCondition(branch_currents={"zz": 1.0}))
    with pytest.raises(SimulationError, match="reference node voltage"):
        transient(rc_network(), cfg, InitialCondition(node_voltages={"0": 1.0}))


def test_non_finite_initial_state_is_named():
    """A supplied voltage or current that is not finite is named by its
    node or branch, not blamed on the element values."""
    cfg = SimConfig(t_end=1e-9, dt=1e-10)
    for initial, message in (
            (InitialCondition(node_voltages={"b": math.nan}),
             "initial voltage of node 'b' must be finite, got nan"),
            (InitialCondition(node_voltages={"a": 1.0, "0": -math.inf}),
             "initial voltage of node '0' must be finite, got -inf"),
            (InitialCondition(branch_currents={"C": math.inf}),
             "initial current of branch 'C' must be finite, got inf"),
            (InitialCondition(branch_currents={"R": 0.0, "VS": math.nan}),
             "initial current of branch 'VS' must be finite, got nan")):
        with pytest.raises(SimulationError, match=f"^{re.escape(message)}$"):
            transient(rc_network(), cfg, initial)
    # Finite voltages can still put more than the float range across a
    # branch.
    with pytest.raises(SimulationError, match=re.escape(
            "initial voltages put inf V across branch 'R', past the float range")):
        transient(rc_network(), cfg,
                  InitialCondition(node_voltages={"a": 1e308, "b": -1e308}))


def test_first_column_is_the_supplied_state():
    """At t = 0 the record holds the supplied voltages and currents, g*u
    through each resistor and s(0) through each current source, whatever
    currents are supplied for those two."""
    net = Network.from_branches([
        Branch("VS", "a", "0", VoltageSource(1.0)),
        Branch("R", "a", "b", Resistor(4.0)),
        Branch("L", "b", "c", Inductor(1e-9)),
        Branch("C", "c", "0", Capacitor(1e-12)),
        Branch("I", "0", "c", CurrentSource(0.25)),
    ], reference="0")
    initial = InitialCondition(
        node_voltages={"a": 1.0, "b": 0.5, "c": -0.75},
        branch_currents={"VS": -0.125, "R": 9.0, "L": 0.375, "C": 0.625, "I": 9.0})
    res = transient(net, SimConfig(t_end=1e-12, dt=1e-13), initial)
    assert {k: w.samples[0] for k, w in res.node_voltages.items()} == {
        "a": 1.0, "b": 0.5, "c": -0.75, "0": 0.0}
    assert {k: w.samples[0] for k, w in res.branch_currents.items()} == {
        "VS": -0.125, "R": 0.125, "L": 0.375, "C": 0.625, "I": 0.25}
    assert res.current_scale >= 0.625


def test_run_too_large_for_memory_fails_before_allocating():
    # 1e12 steps: 3 nodes less the reference, 3 branches and the time
    # grid, 8 bytes each per time point.
    cfg = SimConfig(t_end=1e-3, dt=1e-15)
    tracemalloc.start()
    try:
        with pytest.raises(SimulationError, match=(
                r"^the record of 1,000,000,000,000 steps needs "
                r"48,000,000,000,048 bytes, more than the [\d,]+ bytes of "
                r"physical memory$")):
            transient(rc_network(), cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_sim_config_validation():
    with pytest.raises(SimulationError, match="dt must be > 0"):
        SimConfig(t_end=1e-9, dt=0.0)
    with pytest.raises(SimulationError, match="must cover at least one step"):
        SimConfig(t_end=1e-12, dt=1e-9)
    with pytest.raises(SimulationError, match="unknown method"):
        SimConfig(t_end=1e-9, dt=1e-10, method="euler")
    with pytest.raises(SimulationError, match="solver_tol"):
        SimConfig(t_end=1e-9, dt=1e-10, solver_tol=0.0)
    assert SimConfig(t_end=1e-9, dt=1e-10).steps == 10


def test_t_end_must_be_a_whole_number_of_steps():
    with pytest.raises(SimulationError, match="1.05 steps.*whole number of steps"):
        SimConfig(t_end=1.05e-9, dt=1e-9)
    with pytest.raises(SimulationError, match="whole number of steps"):
        SimConfig(t_end=6e-9 + 0.5e-12, dt=1e-12)
    # t_end / dt overflows to infinity: no step count to round
    for t_end in (1e300, math.inf):
        with pytest.raises(SimulationError, match="too many steps"):
            SimConfig(t_end=t_end, dt=1e-12)
    # rounding of t_end / dt stays far inside the 1e-6 step tolerance
    tau = 1.0 / 3.0e9
    assert SimConfig(t_end=5.2 * tau, dt=tau / 1000).steps == 5200
