import functools
import gc
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

import neckpinch
from neckpinch import flow
from neckpinch.curvature import jet, sectional_curvatures, sectional_rows, trace_invariants
from neckpinch.flow import (
    STOP_AMIN,
    STOP_HALVINGS,
    STOP_TMAX,
    SUMMARY_DTYPE,
    MAX_STEP_HALVINGS,
    FlowConfig,
    InsufficientSamplesError,
    NoSingularityDetected,
    StepRejected,
    Trajectory,
    _flow_rhs,
    _etd_table,
    _phi_functions,
    _power_table,
    estimate_singular_time,
    evolve,
    rk4_step,
    summarize_state,
    summary_block,
    tangential_speed,
)
from neckpinch.grid import (
    DegenerateFiberError,
    GaugeDegeneracyError,
    NonFiniteFieldError,
    PeriodicGrid,
    _jet_symbol,
    metric_state,
    z_jet,
)
from neckpinch.presets import get_preset, sphere

from conftest import make_trajectory
from reference import classical_rk4_step, dz_stencil, homogeneous_ode_oracle


# --- right-hand sides --------------------------------------------------------


def rhs(state):
    """_flow_rhs at a MetricState of uniform phi: the radii rates (3, n) and
    dt log lambda."""
    phi = float(state.phi[0])
    return _flow_rhs(jet_of(stacked(state), phi), phi)[:2]


def jet_of(x, phi=1.0):
    """The arclength jet of the radii x, stacked (3, n), under the uniform
    gauge phi, from their rfft, as evolve holds it; phi = 1 gives the z-jet."""
    return z_jet(np.fft.rfft(x), x.shape[-1], phi)


@pytest.mark.parametrize("r", [1.0, 2.0])
def test_round_state_derivatives(r):
    st = metric_state(PeriodicGrid(32), 0.0, 1.0, r, r, r)
    dx, dlog_lam = rhs(st)
    assert np.allclose(dx, -2.0 / r, rtol=1e-14)
    assert dlog_lam == 0.0 and type(dlog_lam) is float


def test_triaxial_hand_slopes():
    # (a, b, c) = (1, 2, 3): da = -2*1*(1-25)/36 = 4/3, db = -2*2*(16-64)/36
    # = 16/3, dc = -2*3*(81-9)/36 = -12
    st = metric_state(PeriodicGrid(32), 0.0, 1.0, 1.0, 2.0, 3.0)
    (da, db, dc), dlog_lam = rhs(st)
    assert np.allclose(da, 4.0 / 3.0, rtol=1e-14)
    assert np.allclose(db, 16.0 / 3.0, rtol=1e-14)
    assert np.allclose(dc, -12.0, rtol=1e-14)
    assert dlog_lam == 0.0


def test_biaxial_rhs_symmetry_bitwise():
    g = PeriodicGrid(64)
    b = np.cos(g.z) + 2.5
    st = metric_state(g, 0.0, 1.0, np.cos(g.z) + 1.5, b, b)
    (_, db, dc), _ = rhs(st)
    assert np.array_equal(db, dc)


# --- the constant-speed gauge --------------------------------------------------


def speed(phi, x):
    """tangential_speed of the radii x under the uniform gauge phi, and q."""
    _, xpp = jet(phi, x)
    q = (xpp / x).sum(axis=0)
    return (*tangential_speed(phi, q), q)


def test_tangential_speed_is_zero_on_z_constant_data():
    g = PeriodicGrid(32)
    w, c, q = speed(1.7, np.full((3, g.n), 2.0))
    assert w is None and c == 0.0 and not q.any()


def test_tangential_speed_is_mean_free_and_integrates_its_density():
    # dz W = phi (c - q) at the order of the stencil: the spectral W is
    # differentiated by the 4th-order D1, so the defect falls by 16 per halving
    errors = []
    phi = 1.3
    for n in (32, 64, 128):
        g = PeriodicGrid(n)
        z = g.z
        x = np.stack((np.cos(z) + 1.5, np.cos(z) + 2.5, 0.5 * np.sin(2 * z) + 3.5))
        w, c, q = speed(phi, x)
        assert abs(np.mean(w)) <= 1e-15 * np.max(np.abs(w))
        density = phi * (c - q)
        assert abs(np.sum(density)) <= 1e-13 * np.sum(np.abs(density))
        errors.append(np.max(np.abs(dz_stencil(w, g.dz) - density)))
    for e0, e1 in zip(errors, errors[1:]):
        assert np.log2(e0 / e1) >= 3.5


@pytest.fixture(scope="module")
def fig_a_64_run():
    traj, _ = evolve(get_preset("fig-a").build(PeriodicGrid(64)), FlowConfig())
    assert traj.stop_reason == STOP_AMIN
    return traj


def test_neck_stays_on_its_node_and_w_vanishes_there(fig_a_64_run):
    traj, n = fig_a_64_run, 64
    assert np.all(traj.series("a_min_idx") == n // 2)
    last = traj.snapshots[-1]
    w, _, _ = speed(float(last.phi[0]), stacked(last))
    assert abs(w[n // 2]) <= 1e-12 * np.max(np.abs(w))
    # the gauge keeps its shape: phi = lambda(t) * phi0, here uniform
    assert np.ptp(last.phi) == 0.0


def test_nonuniform_gauge_keeps_its_shape():
    # phi0 from a samples profile is resampled to equal arclength at t = 0;
    # from there phi stays lambda(t) * phi_bar, uniform in z
    g = PeriodicGrid(32)
    phi0 = 2.0 * (1.0 + 0.3 * np.sin(g.z))
    st = metric_state(g, 0.0, phi0, np.cos(g.z) + 1.5, np.cos(g.z) + 2.5, np.cos(g.z) + 3.5)
    traj, _ = evolve(st, FlowConfig(t_max=0.05))
    assert traj.stop_reason == STOP_TMAX
    for snap in traj.snapshots:
        assert np.ptp(snap.phi) == 0.0
    assert traj.snapshots[0].phi[0] == pytest.approx(2.0, rel=1e-15)
    assert traj.snapshots[-1].phi[0] != traj.snapshots[0].phi[0]


def test_nonuniform_gauge_is_resampled_to_equal_arclength():
    # s(z) = z + 0.3 (1 - cos z) is the exact arclength of phi0 = 1 + 0.3 sin z,
    # whose trig interpolant is exact, as is that of a = cos z + 1.5
    g = PeriodicGrid(32)
    phi0 = 1.0 + 0.3 * np.sin(g.z)
    st = metric_state(g, 0.0, phi0, np.cos(g.z) + 1.5, np.cos(g.z) + 2.5, 2.0 + np.sin(2 * g.z))
    traj, _ = evolve(st, FlowConfig(t_max=1e-6))
    first = traj.snapshots[0]
    nodes = np.array(
        [brentq(lambda z, s=s: z + 0.3 * (1.0 - np.cos(z)) - s, -1.0, 7.0, xtol=1e-15)
         for s in g.z]
    )
    # the same total length, now in equal cells
    assert np.ptp(first.phi) == 0.0
    assert first.phi[0] * 2.0 * np.pi == pytest.approx(np.sum(phi0) * g.dz, rel=1e-14)
    np.testing.assert_allclose(first.a, np.cos(nodes) + 1.5, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(first.b, np.cos(nodes) + 2.5, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(first.c, 2.0 + np.sin(2 * nodes), rtol=0.0, atol=1e-13)
    assert first.t == 0.0


def test_gauge_without_equal_arclength_nodes_is_an_error():
    # a spike in phi0 makes its trig interpolant negative between the nodes,
    # so the arclength is not monotone
    g = PeriodicGrid(32)
    phi0 = np.ones(g.n)
    phi0[5] = 50.0
    st = metric_state(g, 0.0, phi0, 1.0, 2.0, 3.0)
    with pytest.raises(GaugeDegeneracyError, match="equal-arclength"):
        evolve(st, FlowConfig(t_max=1e-3))


def test_neck_resolution_is_the_final_neck_width_in_cells(fig_a_64_run):
    traj = fig_a_64_run
    last = traj.snapshots[-1]
    a = last.a
    k = int(np.argmin(a))
    hand = a[k] / (last.phi[k] * last.grid.dz)
    assert traj.run_stats.neck_resolution == pytest.approx(hand, rel=1e-14)
    assert a[k] == traj.samples[-1].a_min


# --- stepping ----------------------------------------------------------------


def stacked(state):
    """The radii (a, b, c) of a MetricState stacked (3, n)."""
    return np.stack((state.a, state.b, state.c))


def spectral_step(u, log_lam, dt, phi_bar, n):
    """rk4_step from the rfft u of the radii on n points, first evaluating its
    first stage as evolve does: (u1, jet of u1, log lambda1)."""
    phi = np.exp(log_lam) * phi_bar
    k1, c1, _ = _flow_rhs(z_jet(u, n, phi), phi)
    return rk4_step(u, log_lam, dt, (np.fft.rfft(k1), c1), phi_bar, n)


def step(state, dt):
    """rk4_step from a MetricState of uniform phi, taken as phi_bar (log
    lambda = 0): the stepped radii (3, n) and log lambda."""
    u, phi_bar = np.fft.rfft(stacked(state)), float(state.phi[0])
    _, zj, log_lam = spectral_step(u, 0.0, dt, phi_bar, state.grid.n)
    return zj[0], log_lam


def fixed_steps(state, dt, steps):
    """The MetricStates of `steps` rk4_steps of size dt from a state of
    uniform phi, the state itself first."""
    grid = state.grid
    u, log_lam, phi_bar, t = np.fft.rfft(stacked(state)), 0.0, float(state.phi[0]), state.t
    states = [state]
    for _ in range(steps):
        u, zj, log_lam = spectral_step(u, log_lam, dt, phi_bar, grid.n)
        t += dt
        states.append(metric_state(grid, t, np.exp(log_lam) * phi_bar, *zj[0]))
    return states


def test_rk4_step_sphere_one_step():
    st = metric_state(PeriodicGrid(32), 0.0, 1.0, 2.0, 2.0, 2.0)
    dt = 1e-4
    out, log_lam = step(st, dt)
    assert out.shape == (3, 32)
    assert log_lam == 0.0 and type(log_lam) is float
    # exact solution a^2 = 4 - 4t; RK4's one-step defect is far below fp noise
    assert np.max(np.abs(out[0] ** 2 - (4.0 - 4.0 * dt))) <= 1e-13


def test_rk4_preserves_biaxial_closure():
    g = PeriodicGrid(64)
    b = np.cos(g.z) + 2.5
    st = metric_state(g, 0.0, 1.0, np.cos(g.z) + 1.5, b, b)
    out, _ = step(st, 1e-4)
    assert np.max(np.abs(out[1] - out[2])) == 0.0


def test_rk4_rejects_positivity_loss():
    st = metric_state(PeriodicGrid(32), 0.0, 1.0, 0.5, 0.5, 0.5)
    with pytest.raises(StepRejected):
        step(st, 0.2)  # an internal stage drives a through zero


def test_rk4_rejects_nonpositive_dt():
    st = metric_state(PeriodicGrid(32), 0.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        step(st, 0.0)


def test_rk4_step_equals_classical_rk4_on_z_constant_data():
    # every mode but k = 0 is zero, and there L = 0: ETDRK4 is classical RK4
    x0, dz = np.stack([np.full(32, r) for r in (1.0, 2.0, 3.0)]), PeriodicGrid(32).dz
    _, zj, log_lam = spectral_step(np.fft.rfft(x0), 0.2, 1e-2, 1.3, 32)
    x = zj[0]
    ref_x, ref_log_lam = classical_rk4_step(x0, 0.2, 1e-2, 1.3, dz)
    assert np.max(np.abs(x - ref_x) / ref_x) <= 1e-14
    assert log_lam == ref_log_lam == 0.2


def test_rk4_step_is_classical_rk4_in_the_limit_of_small_steps():
    # on z-dependent data the two 4th-order schemes differ by O(dt^5) a step
    st = get_preset("fig-a").build(PeriodicGrid(32))
    x, dz = stacked(st), st.grid.dz
    gaps = []
    for dt in (4e-4, 2e-4):
        _, zj, log_lam = spectral_step(np.fft.rfft(x), 0.0, dt, 1.0, st.grid.n)
        ours = zj[0]
        ref, ref_log_lam = classical_rk4_step(x, 0.0, dt, 1.0, dz)
        gaps.append(np.max(np.abs(ours - ref)))
        assert abs(log_lam - ref_log_lam) <= 1e-9 * dt
    assert gaps[0] <= 1e-9
    assert np.log2(gaps[0] / gaps[1]) >= 4.5


def contour_phi(z):
    """(phi_1, phi_2, phi_3)(z) stacked (3, z.size) as Kassam & Trefethen
    compute them: phi_k(z) is the mean of phi_k over a circle about z, whose
    points stay clear of the cancellation near 0."""
    circle = z[:, np.newaxis] + np.exp(1j * np.pi * (np.arange(64) + 0.5) / 32)
    e = np.exp(circle)
    return np.stack([
        np.mean((e - 1.0) / circle, axis=1).real,
        np.mean((e - 1.0 - circle) / circle**2, axis=1).real,
        np.mean((e - 1.0 - circle - circle**2 / 2) / circle**3, axis=1).real,
    ])


def test_phi_functions_match_the_contour_integral():
    z = -np.concatenate(([0.0, 1e-12, 0.5, 0.999999, 1.0, 1.000001], np.logspace(-8, 3, 200)))
    e, ours = _phi_functions(1.0, z, _power_table(z))
    assert e.tolist() == np.exp(z).tolist()
    np.testing.assert_allclose(ours, contour_phi(z), rtol=1e-12)
    assert ours[:, 0].tolist() == [1.0, 0.5, 1.0 / 6.0]


@pytest.mark.parametrize("n", [64, 256])
def test_phi_functions_on_the_grid_table(n):
    # rk4_step's path: the cached powers of the stacked diffusion symbol
    # [sigma/2, sigma] on the grids of the fig-a workloads, at steps
    # h = dt/(lambda phi_bar)^2 whose h sigma lie on both sides of
    # |h sigma| = 1, where the Taylor series hands over to the recurrence
    sigma, powers = _etd_table(n)
    m = sigma.size // 2
    assert sigma[m:].tolist() == _jet_symbol(n)[2].real.tolist()
    sides = set()
    for h in (1e-6, 1e-4, 3e-3, 2e-2, 0.3):
        z = h * sigma
        sides |= set(np.abs(z) < 1.0)
        e, ours = _phi_functions(h, sigma, powers)
        assert e.tolist() == np.exp(z).tolist()
        np.testing.assert_allclose(ours, contour_phi(z), rtol=1e-12)
        # sigma = 0 at k = 0 in both halves
        assert ours[:, 0].tolist() == ours[:, m].tolist() == [1.0, 0.5, 1.0 / 6.0]
    assert sides == {True, False}


def test_step_rule_on_the_sphere():
    # dt = (cfl / 18) r^(-4/5) r0^(-1/5), at most cfl / (4 r)
    cfl = 0.1
    st = sphere(2.0).build(PeriodicGrid(32))
    traj, _ = evolve(st, FlowConfig(cfl_safety=cfl, a_min_stop=0.01))
    # on the round sphere r = max |k1 / x| = 2 / a^2 before each step
    r = 2.0 / traj.series("a_min")[:-1] ** 2
    rule = np.minimum(cfl / 18.0 * r**-0.8 * r[0] ** -0.2, cfl / (4.0 * r))
    np.testing.assert_allclose(traj.series("dt")[1:], rule, rtol=1e-13)
    # the bound takes over only near the pinch, once r > 4.5^5 r0
    capped = rule == cfl / (4.0 * r)
    assert 0 < np.sum(capped) < len(r) // 2
    assert np.all(r[capped] >= 4.5**5 * r[0] * (1.0 - 1e-12))


def test_step_rule_is_invariant_under_parabolic_rescaling():
    # radius 2 -> 4 scales time and every step by 4: the same step count
    runs = [
        evolve(sphere(r).build(PeriodicGrid(32)), FlowConfig(a_min_stop=0.01 * r))[0]
        for r in (2.0, 4.0)
    ]
    assert runs[0].run_stats.steps == runs[1].run_stats.steps
    np.testing.assert_allclose(runs[1].series("dt"), 4.0 * runs[0].series("dt"), rtol=1e-12)


def test_step_rule_halving_cfl_moves_t_within_the_time_budget():
    # 3.3e-8 is a tenth of fig-a's Richardson error bar over n = 128..512; the
    # time error does not depend on n (1.9e-8 at n = 64, 2.0e-8 at n = 256)
    st = get_preset("fig-a").build(PeriodicGrid(64))
    runs = [evolve(st, FlowConfig(cfl_safety=cfl)) for cfl in (0.2, 0.1)]
    (coarse, coarse_report), (fine, fine_report) = runs
    assert abs(coarse_report.t_estimate - fine_report.t_estimate) <= 3.3e-8
    assert fine.run_stats.steps == pytest.approx(2 * coarse.run_stats.steps, rel=0.02)


def test_step_count_does_not_grow_with_n():
    # the diffusion is exact, so dt follows the flow's rate, not dz^2
    steps = [
        evolve(get_preset("fig-a").build(PeriodicGrid(n)), FlowConfig())[0].run_stats.steps
        for n in (64, 128)
    ]
    assert steps[1] == pytest.approx(steps[0], rel=0.1)


# --- summaries ---------------------------------------------------------------


def reference_sample(t, dt, zj, phi):
    """The summary of one state from its z-jet zj and uniform gauge phi,
    reduction by reduction."""
    x, xp, xpp = zj[0], zj[1] / phi, zj[2] / (phi * phi)
    a, b, c = x
    scal, rm_norm_sq = trace_invariants(sectional_rows(x, xp, xpp)[0])

    def lowest(v):
        i = int(np.argmin(v))
        return float(v[i]), i

    def highest(v):
        i = int(np.argmax(v))
        return float(v[i]), i

    def ecc(x, y):
        return np.abs(x - y) / np.minimum(x, y)

    sup = [highest(np.abs(row)) for row in xp]
    pairs = [
        ("a_min", "a_min_idx", lowest(a)),
        ("c_max", "c_max_idx", highest(c)),
        ("ord_ba_min", "ord_ba_idx", lowest(b - a)),
        ("ord_cb_min", "ord_cb_idx", lowest(c - b)),
        ("ratio_max", "ratio_max_idx", highest(c / a)),
        ("ecc_bc", "ecc_bc_idx", highest(ecc(b, c))),
        ("ecc_ac", "ecc_ac_idx", highest(ecc(a, c))),
        ("s_min", "s_min_idx", lowest(scal)),
        ("sup_ap", "sup_ap_idx", sup[0]),
        ("sup_bp", "sup_bp_idx", sup[1]),
        ("sup_cp", "sup_cp_idx", sup[2]),
    ]
    fields = {
        "t": t,
        "dt": dt,
        "b_min": lowest(b)[0],
        "rm_max": highest(np.sqrt(rm_norm_sq))[0],
    }
    for value_name, index_name, (value, idx) in pairs:
        fields[value_name], fields[index_name] = value, idx
    return tuple(fields[name] for name in SUMMARY_DTYPE.names)


def bits(sample):
    # repr is the shortest round trip, so equal strings mean equal bits
    return [repr(v) for v in sample]


def column_bits(traj, name):
    return traj.series(name).tobytes()


@functools.cache
def fig_a_states(n):
    """fig-a on n points and its first 31 steps of size 1e-3."""
    st = get_preset("fig-a").build(PeriodicGrid(n))
    return fixed_steps(st, 1e-3, 31)


# evolve's block on n points holds summary_block(n) states: 8 at n = 256 and
# 32 at n = 64
BLOCK_CASES = [(64, 1), (64, 3), (256, summary_block(256)), (64, summary_block(64))]


@pytest.mark.parametrize("n, size", BLOCK_CASES, ids=[str(size) for _, size in BLOCK_CASES])
def test_block_summary_bitwise_equals_state_by_state(n, size):
    states = fig_a_states(n)[-size:]
    ts, dts = [s.t for s in states], [1e-3 * (k + 1) for k in range(size)]
    # summarize_state reads each state's arclength jet; the reference takes
    # the z-jet and its gauge, and applies the chain rule itself
    phis = [float(s.phi[0]) for s in states]
    zjs = [jet_of(stacked(s)) for s in states]
    jets = np.stack([jet_of(stacked(s), phi) for s, phi in zip(states, phis)])
    records = summarize_state(ts, dts, jets)
    assert records.dtype == SUMMARY_DTYPE and records.shape == (size,)
    for k, sample in enumerate(zip(ts, dts, zjs, phis)):
        assert bits(records[k].tolist()) == bits(reference_sample(*sample))


def test_summary_block_fills_its_byte_budget():
    assert [summary_block(n) for n in (64, 128, 256, 1 << 20)] == [32, 16, 8, 1]


def test_block_summary_raises_for_an_unresolvable_state():
    jets = np.stack([jet_of(stacked(s), float(s.phi[0])) for s in fig_a_states(64)[:3]])
    jets[2, 0, 1, 5] = 1e-9
    with pytest.raises(DegenerateFiberError, match="1.000e-09"):
        summarize_state([0.0, 0.1, 0.2], [0.0] * 3, jets)


# --- evolve ------------------------------------------------------------------


RK4_STEP = flow.rk4_step


def _reject_after(monkeypatch, steps, rejections=math.inf):
    """Make the step attempts after the first `steps` fail, the next
    `rejections` of them (all by default); returns the dt of every attempt."""
    attempts = []

    def rk4_step(x, log_lam, dt, *args):
        attempts.append(dt)
        if steps < len(attempts) <= steps + rejections:
            raise StepRejected("forced")
        return RK4_STEP(x, log_lam, dt, *args)

    monkeypatch.setattr(flow, "rk4_step", rk4_step)
    return attempts


@pytest.mark.parametrize(
    "stop, flow_kwargs",
    [
        (STOP_AMIN, {"a_min_stop": 0.3}),
        (STOP_TMAX, {"t_max": 0.8}),
        (STOP_HALVINGS, {}),
    ],
)
def test_evolve_strided_blocks_keep_first_last_and_snapshots(monkeypatch, stop, flow_kwargs):
    def run(st, monitor_stride):
        if stop == STOP_HALVINGS:
            _reject_after(monkeypatch, 200)
        cfg = FlowConfig(monitor_stride=monitor_stride, **flow_kwargs)
        traj, _ = evolve(st, cfg)
        assert traj.stop_reason == stop
        return traj

    for n in (64, 256):
        st = get_preset("fig-a").build(PeriodicGrid(n))
        every = run(st, 1)
        strided = run(st, 3)
        steps = len(every.samples) - 1
        # full blocks of summary_block(n) states, then a partial one
        assert len(strided.samples) > summary_block(n)
        assert len(strided.samples) % summary_block(n) != 0
        assert steps % 3 != 0  # the last state is recorded although off the stride
        for name in SUMMARY_DTYPE.names:
            column = every.series(name)
            expected = np.append(column[::3], column[-1:])
            assert column_bits(strided, name) == expected.tobytes()
        # the snapshots are the first state and the final one
        for traj in (every, strided):
            assert traj.snapshots[0] is st
            assert [s.t for s in traj.snapshots] == [0.0, every.ts[-1].item()]
            assert traj.snapshots[1].a.min() == traj.samples[-1].a_min


def test_evolve_sphere_tracks_exact_solution():
    st = metric_state(PeriodicGrid(32), 0.0, 1.0, 2.0, 2.0, 2.0)
    traj, report = evolve(st, FlowConfig(cfl_safety=0.1, a_min_stop=0.05))
    assert traj.stop_reason == STOP_AMIN
    ts = traj.ts
    am2 = traj.series("a_min") ** 2
    assert np.max(np.abs(am2 - (4.0 - 4.0 * ts)) / (4.0 - 4.0 * ts)) <= 1e-4
    assert report is not None and report.t_estimate == pytest.approx(1.0, abs=1e-6)
    # strictly decreasing and (weakly) concave sequence
    assert np.all(np.diff(am2) < 0)


def test_evolve_sphere_dt_convergence_order():
    # global a_min^2 error is O(dt^4); halving the cfl factor halves every dt
    errs = []
    for cfl in (0.4, 0.2, 0.1):
        st = metric_state(PeriodicGrid(64), 0.0, 1.0, 2.0, 2.0, 2.0)
        traj, _ = evolve(st, FlowConfig(cfl_safety=cfl, a_min_stop=0.05))
        ts = traj.ts
        errs.append(float(np.max(np.abs(traj.series("a_min") ** 2 - (4.0 - 4.0 * ts)))))
    for e0, e1 in zip(errs, errs[1:]):
        order = np.log2(e0 / e1)
        assert abs(order - 4.0) <= 0.5


def test_trajectory_times_strictly_increasing_and_finite():
    st = metric_state(PeriodicGrid(32), 0.0, 1.0, 2.0, 2.0, 2.0)
    traj, _ = evolve(st, FlowConfig(a_min_stop=0.5))
    assert not traj.samples.flags.writeable
    assert np.shares_memory(traj.ts, traj.samples)
    assert np.all(np.diff(traj.ts) > 0.0)
    for name in ("a_min", "c_max", "s_min", "rm_max"):
        assert np.all(np.isfinite(traj.series(name)))


def test_evolve_respects_t_max():
    st = metric_state(PeriodicGrid(32), 0.0, 1.0, 2.0, 2.0, 2.0)
    traj, report = evolve(st, FlowConfig(t_max=1e-6))
    assert traj.stop_reason == STOP_TMAX
    assert traj.samples[-1].t == pytest.approx(1e-6, abs=1e-12)
    assert traj.samples[-1].a_min == pytest.approx(2.0, abs=1e-5)
    assert report is None  # nothing shrank, no fit possible


def test_evolve_halves_rejected_steps(monkeypatch):
    # the fourth step is rejected twice and accepted at a quarter of its dt
    attempts = _reject_after(monkeypatch, 3, rejections=2)
    st = metric_state(PeriodicGrid(32), 0.0, 1.0, 0.5, 0.5, 0.5)
    traj, _ = evolve(st, FlowConfig(a_min_stop=0.35))
    assert traj.stop_reason == STOP_AMIN
    assert traj.samples[-1].a_min < 0.35
    assert traj.run_stats.rejected == 2
    assert attempts[4:6] == [attempts[3] / 2.0, attempts[3] / 4.0]
    assert traj.samples[4].dt == attempts[5]


def test_evolve_names_exhausted_halvings(monkeypatch):
    # finite data whose step is rejected at every halving
    attempts = _reject_after(monkeypatch, 0)
    st = metric_state(PeriodicGrid(16), 0.0, 1.0, 2.0, 2.0, 2.0)
    traj, report = evolve(st, FlowConfig())
    assert traj.stop_reason == STOP_HALVINGS == "step_halvings_exhausted"
    assert attempts == [attempts[0] / 2.0**k for k in range(MAX_STEP_HALVINGS + 1)]
    assert len(traj.samples) == 1
    assert len(traj.snapshots) == 1 and traj.snapshots[0] is st
    assert report is None
    assert asdict(traj.run_stats) == {
        "steps": 0,
        "rejected": MAX_STEP_HALVINGS + 1,
        "neck_resolution": 2.0 / st.grid.dz,
    }


def test_evolve_counts_steps():
    st = metric_state(PeriodicGrid(32), 0.0, 1.0, 2.0, 2.0, 2.0)
    traj, _ = evolve(st, FlowConfig(a_min_stop=0.5))
    stats = traj.run_stats
    assert stats.steps == len(traj.samples) - 1 > 0
    assert stats.rejected == 0


def test_evolve_stops_when_the_first_stage_is_not_finite(monkeypatch):
    # dt does not enter k1, so a first stage that fails is not halved
    calls = []
    real = flow._flow_rhs

    def flow_rhs(*args):
        calls.append(len(calls))
        if len(calls) > 4 * 3:
            raise StepRejected("non-finite flow derivatives")
        return real(*args)

    monkeypatch.setattr(flow, "_flow_rhs", flow_rhs)
    st = metric_state(PeriodicGrid(16), 0.0, 1.0, 2.0, 2.0, 2.0)
    traj, _ = evolve(st, FlowConfig())
    assert traj.stop_reason == STOP_HALVINGS
    assert traj.run_stats.steps == 3
    assert traj.run_stats.rejected == MAX_STEP_HALVINGS + 1
    assert len(traj.samples) == 4


def test_evolve_steps_a_stationary_state_to_t_max(monkeypatch):
    # r = 0 would divide by zero in the rate rule; a state that does not move
    # takes one step to the time cap
    monkeypatch.setattr(flow, "_flow_rhs", lambda zj, phi: (np.zeros_like(zj[0]), 0.0, None))
    st = metric_state(PeriodicGrid(16), 0.0, 1.0, 2.0, 2.0, 2.0)
    traj, _ = evolve(st, FlowConfig(t_max=5.0))
    assert traj.stop_reason == STOP_TMAX
    assert traj.run_stats.steps == 1
    assert traj.ts.tolist() == [0.0, 5.0]


def test_trajectory_rows_and_columns():
    block = np.zeros(3, SUMMARY_DTYPE)
    for k, name in enumerate(SUMMARY_DTYPE.names):
        block[name] = [3 * k, 3 * k + 1, 3 * k + 2]
    grid = PeriodicGrid(32)
    traj = Trajectory(grid=grid, samples=block)
    samples = traj.samples
    assert isinstance(samples, np.recarray) and samples.dtype == SUMMARY_DTYPE
    assert len(samples) == 3
    assert samples[-1].tolist() == block[2].tolist()
    assert samples[-2].a_min == block[1]["a_min"]
    np.testing.assert_array_equal(traj.series("sup_cp_idx"), block["sup_cp_idx"])
    assert traj.series("a_min_idx").dtype == np.intp
    # a series is a view of the samples, and neither can be written
    assert np.shares_memory(traj.series("t"), samples)
    assert np.shares_memory(traj.ts, samples)
    with pytest.raises(ValueError, match="read-only"):
        traj.ts[0] = -1.0
    with pytest.raises(ValueError, match="read-only"):
        traj.series("a_min")[1] = -1.0
    with pytest.raises(ValueError, match="read-only"):
        samples[0].t = -1.0
    assert traj.samples[0].t == 0.0
    with pytest.raises(IndexError):
        traj.samples[3]
    with pytest.raises(ValueError, match="SUMMARY_DTYPE"):
        Trajectory(grid=grid, samples=block[["t", "dt"]])
    with pytest.raises(ValueError, match="SUMMARY_DTYPE"):
        Trajectory(grid=grid, samples=block.reshape(3, 1))


def test_trajectory_bytes_per_sample():
    # A record holds 15 float64 values and 11 integer indices, 208 bytes;
    # a sample object per state took about 680.
    # fig-a n=128 takes 485 steps at the default cfl 0.2, 1,220 at 0.08.
    st = get_preset("fig-a").build(PeriodicGrid(128))
    cfg = FlowConfig(cfl_safety=0.08)
    # A short run first, so the first-call FFT and stencil caches of this
    # grid are not counted against the samples whatever ran before.
    evolve(st, FlowConfig(t_max=1e-3))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traj, report = evolve(st, cfg)
        traj.snapshots.clear()
        del report
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(traj.samples) > 1000
    assert held / len(traj.samples) < 300


@pytest.mark.parametrize(
    "log_lam, error", [(710.0, NonFiniteFieldError), (-746.0, GaugeDegeneracyError)]
)
def test_evolve_rejects_overflowed_or_underflowed_gauge(monkeypatch, log_lam, error):
    # exp(710) overflows and exp(-746) underflows to 0 although the stepped
    # log lambda itself is finite
    def rk4_step(*args):
        u1, zj1, _ = RK4_STEP(*args)
        return u1, zj1, log_lam

    monkeypatch.setattr(flow, "rk4_step", rk4_step)
    st = metric_state(PeriodicGrid(16), 0.0, 1.0, 2.0, 2.0, 2.0)
    with pytest.raises(error):
        evolve(st, FlowConfig())


def test_evolve_ordering_slack_on_neck_data():
    st = get_preset("fig-a").build(PeriodicGrid(64))
    traj, _ = evolve(st, FlowConfig(t_max=0.05))
    assert traj.series("ord_ba_min").min() >= -1e-8
    assert traj.series("ord_cb_min").min() >= -1e-8


def test_evolve_biaxial_closure_whole_run():
    g = PeriodicGrid(48)
    st = get_preset("biaxial").build(g)
    traj, _ = evolve(st, FlowConfig(t_max=0.05))
    assert traj.run_stats.steps > 0
    # ecc_bc is max |b - c| / min(b, c) of each recorded sample
    assert traj.series("ecc_bc").max() <= 1e-10


def test_ricci_flow_residual_shrinks_under_refinement():
    # dt g + 2 Ric - L_V g -> 0 on the diagonal, checked at the middle state
    # triple of 20 fixed steps; the gauge's field V = (W/phi) dz adds the Lie
    # derivative 2x W x' to each radius squared and 2 phi dz W to phi^2
    def residual(n, dt):
        states = fixed_steps(get_preset("fig-a").build(PeriodicGrid(n)), dt, 20)
        mid = len(states) // 2
        s0, s1, s2 = states[mid - 1 : mid + 2]
        span = s2.t - s0.t
        curv = sectional_curvatures(s1)
        phi, dz, x = float(s1.phi[0]), s1.grid.dz, stacked(s1)
        w, _, _ = speed(phi, x)
        lies = 2.0 * x * w * jet(phi, x)[0]
        worst = 0.0
        for name, ric, lie in zip("abc", (curv.ric11, curv.ric22, curv.ric33), lies):
            g2_dot = (getattr(s2, name) ** 2 - getattr(s0, name) ** 2) / span
            worst = max(worst, float(np.max(np.abs(g2_dot + 2.0 * ric - lie))))
        phi2_dot = (s2.phi**2 - s0.phi**2) / span
        lie = 2.0 * phi * dz_stencil(w, dz)
        worst = max(
            worst, float(np.max(np.abs(phi2_dot + 2.0 * phi**2 * curv.ric00 - lie)))
        )
        return worst

    coarse = residual(48, 4e-4)
    fine = residual(96, 2e-4)
    assert fine < coarse
    assert np.log2(coarse / fine) >= 1.0


# --- singular-time estimation -------------------------------------------------


def test_estimate_exact_linear_series():
    ts = np.linspace(0.0, 0.9, 60)
    traj = make_trajectory(ts, np.sqrt(4.0 - 4.0 * ts))
    rep = estimate_singular_time(traj)
    assert rep.t_estimate == pytest.approx(1.0, abs=1e-12)
    assert rep.fit_residual <= 1e-12
    assert rep.t_estimate > ts[-1]


def test_estimate_quadratic_series_matches_polyfit_oracle():
    T = 1.0
    ts = np.linspace(0.0, 0.98, 300)
    am2 = 2.0 * (T - ts) + 0.1 * (T - ts) ** 2
    traj = make_trajectory(ts, np.sqrt(am2))
    rep = estimate_singular_time(traj)
    # independent oracle: same window, direct polyfit root
    a_min = np.sqrt(am2)
    window = a_min <= 10.0 * a_min[-1]
    slope, intercept = np.polyfit(ts[window], am2[window], 1)
    assert rep.t_estimate == pytest.approx(-intercept / slope, rel=1e-12)
    assert rep.t_estimate == pytest.approx(T, rel=0.02)


def test_estimate_rejects_increasing_series():
    ts = np.linspace(0.0, 1.0, 50)
    traj = make_trajectory(ts, 1.0 + ts)
    with pytest.raises(NoSingularityDetected):
        estimate_singular_time(traj)


def test_estimate_rejects_insufficient_samples():
    ts = np.linspace(0.0, 1.0, 5)
    traj = make_trajectory(ts, 2.0 - ts)
    with pytest.raises(InsufficientSamplesError):
        estimate_singular_time(traj)


# --- homogeneous ODE oracle ----------------------------------------------------


def test_import_leaves_scipy_integrate_unloaded():
    # scipy is a test dependency: importing the package loads no scipy module
    env = {**os.environ, "PYTHONPATH": str(Path(neckpinch.__file__).parents[1])}
    code = (
        "import sys, neckpinch; "
        "print(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "False"


def test_oracle_sphere_exact():
    sol = homogeneous_ode_oracle(2.0, 2.0, 2.0, 0.9)
    ts = np.linspace(0.0, 0.9, 40)
    vals = sol.sol(ts)
    assert np.max(np.abs(vals[0] ** 2 - (4.0 - 4.0 * ts))) <= 1e-8


def test_oracle_biaxial_stays_biaxial():
    sol = homogeneous_ode_oracle(1.0, 2.0, 2.0, 0.5)
    ts = np.linspace(0.0, 0.5, 20)
    vals = sol.sol(ts)
    assert np.max(np.abs(vals[1] - vals[2])) <= 1e-12


def test_oracle_initial_slopes_match_hand_values():
    sol = homogeneous_ode_oracle(1.0, 2.0, 3.0, 0.1)
    h = 1e-7
    slopes = (sol.sol(h) - sol.sol(0.0)) / h
    assert slopes[0] == pytest.approx(4.0 / 3.0, abs=1e-5)
    assert slopes[1] == pytest.approx(16.0 / 3.0, abs=1e-5)
    assert slopes[2] == pytest.approx(-12.0, abs=1e-4)


def test_oracle_rejects_nonpositive_radii():
    from neckpinch.grid import DegenerateFiberError

    with pytest.raises(DegenerateFiberError):
        homogeneous_ode_oracle(0.0, 1.0, 1.0, 0.1)
