import ctypes
import functools
import gc
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

import neckpinch
from neckpinch import flow
from neckpinch.curvature import sectional_curvatures, sectional_rows, trace_invariants
from neckpinch.flow import (
    STOP_AMIN,
    STOP_HALVINGS,
    STOP_TMAX,
    SUMMARY_DTYPE,
    MAX_STEP_HALVINGS,
    MIN_FIT_SAMPLES,
    FlowConfig,
    StepRejected,
    Trajectory,
    _final_decade,
    _flow_rhs,
    _gauge_scale,
    _line_fit,
    _point_rhs,
    _point_step,
    estimate_singular_time,
    evolve,
    rk4_step,
    summarize_state,
    summary_block,
    tangential_speed,
)
from neckpinch.grid import (
    DataError,
    MetricState,
    PeriodicGrid,
    arclength_jet,
    z_jet,
)
from neckpinch.presets import Preset, Profile, cos, equal_arclength, get_preset, sin, sphere

from conftest import make_trajectory
from reference import classical_rk4_step, dz_stencil, homogeneous_ode_oracle


# --- right-hand sides --------------------------------------------------------


def rhs(state):
    """_flow_rhs at a MetricState of uniform phi: the radii rates (3, n) and
    dt log lambda."""
    return _flow_rhs(arclength_jet(state), state.phi)[:2]


def jet_of(x, phi=1.0):
    """The arclength jet of the radii x, stacked (3, n), under the uniform
    gauge phi, from their rfft, as evolve holds it; phi = 1 gives the z-jet."""
    return z_jet(np.fft.rfft(x), phi)


@pytest.mark.parametrize("r", [1.0, 2.0])
def test_round_state_derivatives(r):
    st = MetricState(PeriodicGrid(32), 0.0, 1.0, (r, r, r))
    dx, dlog_lam = rhs(st)
    assert np.allclose(dx, -2.0 / r, rtol=1e-14)
    assert dlog_lam == 0.0 and type(dlog_lam) is float


def test_triaxial_hand_slopes():
    # (a, b, c) = (1, 2, 3): da = -2*1*(1-25)/36 = 4/3, db = -2*2*(16-64)/36
    # = 16/3, dc = -2*3*(81-9)/36 = -12
    st = MetricState(PeriodicGrid(32), 0.0, 1.0, (1.0, 2.0, 3.0))
    (da, db, dc), dlog_lam = rhs(st)
    assert np.allclose(da, 4.0 / 3.0, rtol=1e-14)
    assert np.allclose(db, 16.0 / 3.0, rtol=1e-14)
    assert np.allclose(dc, -12.0, rtol=1e-14)
    assert dlog_lam == 0.0


def test_biaxial_rhs_symmetry_bitwise():
    g = PeriodicGrid(64)
    b = np.cos(g.z) + 2.5
    st = MetricState(g, 0.0, 1.0, (np.cos(g.z) + 1.5, b, b))
    (_, db, dc), _ = rhs(st)
    assert np.array_equal(db, dc)


# --- the constant-speed gauge --------------------------------------------------


def speed(phi, zj):
    """tangential_speed under the uniform gauge phi from the arclength jet zj
    of the radii, and q."""
    q = (zj[2] / zj[0]).sum(axis=0)
    return (*tangential_speed(phi, q), q)


def test_tangential_speed_is_zero_on_z_constant_data():
    # W is the transform's exact zeros, on a power of two n and off one
    for n in (32, 40):
        w, c, q = speed(1.7, jet_of(np.full((3, n), 2.0), 1.7))
        assert w.shape == (n,) and not w.any() and c == 0.0 and not q.any()


def test_tangential_speed_is_mean_free_and_integrates_its_density():
    # dz W = phi (c - q) at the order of the stencil: the spectral W is
    # differentiated by the 4th-order D1, so the defect falls by 16 per halving
    errors = []
    phi = 1.3
    for n in (32, 64, 128):
        g = PeriodicGrid(n)
        z = g.z
        x = np.stack((np.cos(z) + 1.5, np.cos(z) + 2.5, 0.5 * np.sin(2 * z) + 3.5))
        w, c, q = speed(phi, jet_of(x, phi))
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
    w, _, _ = speed(last.phi, arclength_jet(last))
    assert abs(w[n // 2]) <= 1e-12 * np.max(np.abs(w))
    # the gauge keeps its shape: phi = lambda(t) * phi0, here one number
    assert type(last.phi) is float


def wavy_gauge(phi0, c0=cos(1.0, 3.5)):
    """A preset whose gauge phi0 enters as samples, with the radii
    cos z + 1.5, cos z + 2.5 and c0."""
    return Preset("wavy-gauge", Profile(kind="samples", samples=tuple(phi0)), cos(1.0, 1.5),
                  cos(1.0, 2.5), c0)


def exact_nodes(g, mean=1.0, amplitude=0.3, frequency=1):
    """The equal-arclength nodes of phi0 = mean + amplitude sin(frequency z),
    amplitude < mean, on the grid g: the roots of its arclength s(z) =
    mean z + amplitude (1 - cos(frequency z)) / frequency = mean z_j."""
    def residual(z, z_j):
        return mean * (z - z_j) + amplitude * (1.0 - np.cos(frequency * z)) / frequency

    return np.array([brentq(residual, -1.0, 7.0, args=(z_j,), xtol=1e-15) for z_j in g.z])


def test_nonuniform_gauge_keeps_its_shape():
    # phi0 from a samples profile is resampled to equal arclength when the
    # preset is built; from there phi stays lambda(t) * phi_bar, one number
    g = PeriodicGrid(32)
    state = wavy_gauge(2.0 * (1.0 + 0.3 * np.sin(g.z))).build(g)
    traj, _ = evolve(state, FlowConfig(t_max=0.05))
    assert traj.stop_reason == STOP_TMAX
    assert all(type(snap.phi) is float for snap in traj.snapshots)
    assert traj.snapshots[0].phi == pytest.approx(2.0, rel=1e-15)
    assert traj.snapshots[-1].phi != traj.snapshots[0].phi


def test_nonuniform_gauge_is_resampled_to_equal_arclength():
    # s(z) = z + 0.3 (1 - cos z) is the exact arclength of phi0 = 1 + 0.3 sin z,
    # whose trig interpolant is exact, as is that of a = cos z + 1.5
    g = PeriodicGrid(32)
    phi0 = 1.0 + 0.3 * np.sin(g.z)
    first = wavy_gauge(phi0, c0=sin(1.0, 2.0, frequency=2)).build(g)
    nodes = exact_nodes(g)
    # the same total length, now in equal cells
    assert first.phi * 2.0 * np.pi == pytest.approx(np.sum(phi0) * g.dz, rel=1e-14)
    np.testing.assert_allclose(first.a, np.cos(nodes) + 1.5, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(first.b, np.cos(nodes) + 2.5, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(first.c, 2.0 + np.sin(2 * nodes), rtol=0.0, atol=1e-13)
    assert first.t == 0.0


@pytest.mark.parametrize(
    "n, amplitude, frequency",
    [(32, 4.9, 1), (64, 4.9, 1), (128, 4.9, 1), (32, 4.75, 2), (64, 4.75, 2), (128, 4.75, 2),
     (32, 4.5, 7)],
)
def test_equal_arclength_resolves_a_gauge_near_zero(n, amplitude, frequency):
    # phi0 = 5 + amplitude sin(frequency z) falls to 0.1-0.5, where a plain
    # Newton step on the increasing arclength overshoots the node; the
    # bracket keeps it, and the nodes are the exact ones
    g = PeriodicGrid(n)
    first = wavy_gauge(5.0 + amplitude * np.sin(frequency * g.z)).build(g)
    nodes = exact_nodes(g, 5.0, amplitude, frequency)
    assert first.phi == pytest.approx(5.0, rel=1e-15)
    for got, offset in zip(first.x, (1.5, 2.5, 3.5)):
        np.testing.assert_allclose(got, np.cos(nodes) + offset, rtol=0.0, atol=1e-13)


def test_equal_arclength_takes_linear_memory():
    # Horner's rule in e^{iz} evaluates the interpolants in O(n) memory a
    # row: no n x (n/2 + 1) matrix, which at n = 1024 peaks at 24 MB
    g = PeriodicGrid(1024)
    phi0 = 1.0 + 0.3 * np.sin(g.z)
    x = np.stack((np.cos(g.z) + 1.5, np.cos(g.z) + 2.5, 2.0 + np.sin(2 * g.z)))
    tracemalloc.start()
    try:
        phi_bar, (a, b, c) = equal_arclength(g, phi0, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    nodes = exact_nodes(g)
    assert phi_bar == pytest.approx(1.0, rel=1e-15)
    for got, want in zip((a, b, c), (np.cos(nodes) + 1.5, np.cos(nodes) + 2.5,
                                     2.0 + np.sin(2 * nodes))):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)


def test_gauge_without_equal_arclength_nodes_is_an_error():
    # a spike in phi0 makes its trig interpolant negative between the nodes,
    # so the arclength is not monotone
    g = PeriodicGrid(32)
    phi0 = np.ones(g.n)
    phi0[5] = 50.0
    with pytest.raises(DataError, match="no equal-arclength nodes for phi"):
        wavy_gauge(phi0).build(g)


def test_neck_resolution_is_the_final_neck_width_in_cells(fig_a_64_run):
    traj = fig_a_64_run
    last = traj.snapshots[-1]
    a = last.a
    k = int(np.argmin(a))
    hand = a[k] / (last.phi * last.grid.dz)
    assert traj.run_stats.neck_resolution == pytest.approx(hand, rel=1e-14)
    assert a[k] == traj.samples[-1].a_min


# --- stepping ----------------------------------------------------------------


def stacked(state):
    """The radii (a, b, c) of a MetricState stacked (3, n)."""
    return np.stack((state.a, state.b, state.c))


def spectral_step(u, log_lam, dt, phi_bar):
    """rk4_step from the rfft u of the radii, first evaluating its first
    stage as evolve does: (u1, jet of u1, log lambda1, est)."""
    phi = np.exp(log_lam) * phi_bar
    k1, c1, _ = _flow_rhs(z_jet(u, phi), phi)
    (zj1, u1, log_lam1, _), est = rk4_step(u, log_lam, dt, (np.fft.rfft(k1), c1), phi_bar)
    return u1, zj1, log_lam1, est


def step(state, dt):
    """rk4_step from a MetricState of uniform phi, taken as phi_bar (log
    lambda = 0): the stepped radii (3, n) and log lambda."""
    u, phi_bar = np.fft.rfft(stacked(state)), state.phi
    _, zj, log_lam, _ = spectral_step(u, 0.0, dt, phi_bar)
    return zj[0], log_lam


def fixed_steps(state, dt, steps):
    """The MetricStates of `steps` rk4_steps of size dt from a state of
    uniform phi, the state itself first."""
    grid = state.grid
    u, log_lam, phi_bar, t = np.fft.rfft(stacked(state)), 0.0, state.phi, state.t
    states = [state]
    for _ in range(steps):
        u, zj, log_lam, _ = spectral_step(u, log_lam, dt, phi_bar)
        t += dt
        states.append(MetricState(grid, t, np.exp(log_lam) * phi_bar, zj[0]))
    return states


def test_rk4_step_returns_the_state_evolve_keeps():
    # (jet, u, log lambda, phi) with phi1 = lambda1 phi_bar and the jet of u1
    # under phi1, bit for bit what evolve would build from u1 and log lambda1
    st = get_preset("fig-a").build(PeriodicGrid(32))
    u, log_lam, phi_bar = np.fft.rfft(st.x), 0.1, 1.3
    phi = _gauge_scale(log_lam) * phi_bar
    k1, c1, _ = _flow_rhs(z_jet(u, phi), phi)
    (zj1, u1, log_lam1, phi1), est = rk4_step(u, log_lam, 1e-3, (np.fft.rfft(k1), c1), phi_bar)
    assert log_lam1 != log_lam and type(phi1) is float and type(est) is float
    assert phi1 == _gauge_scale(log_lam1) * phi_bar
    assert zj1.tobytes() == z_jet(u1, phi1).tobytes()


def test_rk4_step_sphere_one_step():
    st = MetricState(PeriodicGrid(32), 0.0, 1.0, (2.0, 2.0, 2.0))
    dt = 1e-4
    out, log_lam = step(st, dt)
    assert out.shape == (3, 32)
    assert log_lam == 0.0 and type(log_lam) is float
    # exact solution a^2 = 4 - 4t; RK4's one-step defect is far below fp noise
    assert np.max(np.abs(out[0] ** 2 - (4.0 - 4.0 * dt))) <= 1e-13


def test_rk4_preserves_biaxial_closure():
    g = PeriodicGrid(64)
    b = np.cos(g.z) + 2.5
    st = MetricState(g, 0.0, 1.0, (np.cos(g.z) + 1.5, b, b))
    out, _ = step(st, 1e-4)
    assert np.max(np.abs(out[1] - out[2])) == 0.0


def test_rk4_rejects_positivity_loss():
    st = MetricState(PeriodicGrid(32), 0.0, 1.0, (0.5, 0.5, 0.5))
    with pytest.raises(StepRejected):
        step(st, 0.2)  # an internal stage drives a through zero


def test_rk4_rejects_nonpositive_dt():
    # a dt that underflowed to 0 is a rejected step, which evolve halves to
    # exhaustion
    st = MetricState(PeriodicGrid(32), 0.0, 1.0, (1.0, 1.0, 1.0))
    with pytest.raises(StepRejected):
        step(st, 0.0)


def test_rk4_step_equals_classical_rk4_on_z_constant_data():
    # every mode but k = 0 is zero, and there L = 0: the integrating factor
    # is 1 and the step is classical RK4
    x0, dz = np.stack([np.full(32, r) for r in (1.0, 2.0, 3.0)]), PeriodicGrid(32).dz
    _, zj, log_lam, _ = spectral_step(np.fft.rfft(x0), 0.2, 1e-2, 1.3)
    x = zj[0]
    ref_x, ref_log_lam = classical_rk4_step(x0, 0.2, 1e-2, 1.3, dz)
    assert np.max(np.abs(x - ref_x) / ref_x) <= 1e-14
    assert log_lam == ref_log_lam == 0.2


Z_CONSTANT_RADII = [(2.0, 2.0, 2.0), (1.0, 2.0, 2.0), (1.0, 1.5, 2.0)]


def z_constant(x, n=8):
    """The radii x, three numbers, constant along z on n points, stacked (3, n)."""
    return np.repeat(np.array(x, dtype=float)[:, np.newaxis], n, axis=1)


def point_steps(radii, steps=60, dt=2e-3):
    """_point_step `steps` times from the z-constant radii, three floats, as
    evolve steps them: (x, est) after the last step."""
    x = tuple(radii)
    for _ in range(steps):
        x, est = _point_step(x, dt, _point_rhs(x))
    return x, est


@functools.cache
def z_constant_steps(radii, n, steps=60, dt=2e-3):
    """rk4_step `steps` times from the z-constant radii on n points under
    phi_bar = 1.3: (u, jet, log lambda, est) after the last step."""
    u, log_lam = np.fft.rfft(z_constant(radii, n)), 0.0
    for _ in range(steps):
        u, zj, log_lam, est = spectral_step(u, log_lam, dt, 1.3)
    return u, zj, log_lam, est


@pytest.mark.parametrize("n", [32, 64, 256])
@pytest.mark.parametrize("radii", Z_CONSTANT_RADII, ids=["sphere", "biaxial", "triaxial"])
def test_rk4_step_on_one_point_is_bitwise_the_grid_step(radii, n):
    # evolve steps z-constant data as three floats; on a power of two the
    # grid's transforms scale the mean mode by n exactly and add nothing to
    # it, so the point kernel's operations give the grid's bits
    x1, est1 = point_steps(radii)
    u, zj, log_lam, est = z_constant_steps(radii, n)
    assert all(type(v) is float for v in x1)
    # the error estimate's irfft divides that mode by n exactly
    assert type(est) is type(est1) is float and est == est1 > 0.0
    assert (u[:, 0] / n).real.tobytes() == np.array(x1).tobytes()
    assert not u.imag.any() and not u[:, 1:].any()
    assert zj[0].tobytes() == z_constant(x1, n).tobytes()
    assert not zj[1:].any()
    # q = 0 on z-constant data, so the gauge rate c is 0 and lambda stays 1,
    # whatever phi_bar: the point kernel carries no gauge
    assert log_lam == 0.0


@pytest.mark.parametrize("x", [(2.0, 2.0, 2.0), (1.0, 1.5, 2.0), (3.0, 4.0, 5.0)])
def test_point_rhs_is_bitwise_the_grid_rhs(x):
    # at (3, 4, 5) a^4 = (c^2 - b^2)^2, so dt a is 0.0 - 0.0; the grid's
    # x'' + x' (...) may be -0.0 there, and adding 0.0 maps both to +0.0
    dx, c, w = _flow_rhs(jet_of(z_constant(x)), 1.0)
    assert (dx + 0.0).tobytes() == z_constant(_point_rhs(x)).tobytes()
    assert c == 0.0 and not w.any()


@pytest.mark.parametrize(
    "x", [(1.0, 0.0, 1.0), (1e200, 1.0, 1.0), (1e-110, 1e-110, 1e-110)],
    ids=["zero", "overflow", "underflow"],
)
def test_point_rhs_rejects_as_the_grid_rhs(x):
    with np.errstate(all="ignore"), pytest.raises(StepRejected) as grid:
        _flow_rhs(jet_of(z_constant(x)), 1.0)
    with pytest.raises(StepRejected, match=f"^{grid.value}$"):
        _point_rhs(x)


@pytest.mark.parametrize("dt", [0.065, 0.2, 0.0])
def test_point_step_rejects_as_the_grid_step(dt):
    # the round sphere r = 0.5 under too long a step: the result leaves the
    # positive cone at dt = 0.065, a stage at 0.2; dt = 0 is an error
    x = (0.5, 0.5, 0.5)
    with pytest.raises((StepRejected, ValueError)) as grid:
        spectral_step(np.fft.rfft(z_constant(x)), 0.0, dt, 1.0)
    with pytest.raises(grid.type, match=f"^{grid.value}$"):
        _point_step(x, dt, _point_rhs(x))


def test_rk4_step_is_classical_rk4_in_the_limit_of_small_steps():
    # on z-dependent data the two 4th-order schemes differ by O(dt^5) a step
    st = get_preset("fig-a").build(PeriodicGrid(32))
    x, dz = stacked(st), st.grid.dz
    gaps = []
    for dt in (4e-4, 2e-4):
        _, zj, log_lam, _ = spectral_step(np.fft.rfft(x), 0.0, dt, 1.0)
        ours = zj[0]
        ref, ref_log_lam = classical_rk4_step(x, 0.0, dt, 1.0, dz)
        gaps.append(np.max(np.abs(ours - ref)))
        assert abs(log_lam - ref_log_lam) <= 1e-9 * dt
    assert gaps[0] <= 1e-9
    assert np.log2(gaps[0] / gaps[1]) >= 4.5


@pytest.mark.parametrize("phi0", [1e-100, 1e-150])
def test_tiny_gauge_pinches_constant_radii_at_r2_over_4(phi0):
    # z-constant data step on the point kernel, which reads no gauge: the
    # run is bitwise the phi0 = 1 run, whose T misses r^2/4 by the default
    # step's time error, 2.8e-10
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runs = [evolve(MetricState(PeriodicGrid(32), 0.0, phi, (1.0, 1.0, 1.0)), FlowConfig())
                for phi in (phi0, 1.0)]
    (traj, report), (unit, unit_report) = runs
    assert traj.stop_reason == STOP_AMIN
    assert traj.samples.tobytes() == unit.samples.tobytes()
    assert report.t_estimate == unit_report.t_estimate
    assert abs(report.t_estimate - 0.25) <= 1e-9


def test_rk4_step_error_estimate_is_third_order():
    # x1 - x~1 is the RK4 step less a second-order trapezoid: O(dt^3) a step
    # (3.0045 and 3.0023 measured on the one-point sphere r = 2)
    x = (2.0, 2.0, 2.0)
    ests = [_point_step(x, dt, _point_rhs(x))[1] for dt in (5e-3, 2.5e-3, 1.25e-3)]
    for e0, e1 in zip(ests, ests[1:]):
        assert abs(np.log2(e0 / e1) - 3.0) <= 0.05


def test_step_rule_on_the_sphere():
    # the first dt is cfl / (18 r0); the controller then sets dt, at most
    # cfl / (4 r), and RunStats.capped counts the steps that bound set
    cfl = 0.1
    st = sphere(2.0).build(PeriodicGrid(32))
    traj, _ = evolve(st, FlowConfig(cfl_safety=cfl, a_min_stop=0.01))
    # on the round sphere r = max |k1 / x| = 2 / a^2 before each step
    a_min, dt = traj.series("a_min")[:-1], traj.series("dt")[1:]
    r = 2.0 / a_min**2
    cap = cfl / (4.0 * r)
    assert dt[0] == pytest.approx(cfl / (18.0 * r[0]), rel=1e-13)
    assert np.all(dt <= cap * (1.0 + 1e-13))
    # the bound takes over only near the pinch: the run's last steps, with
    # a_min below 1.25% of its initial 2
    capped = np.flatnonzero(dt >= cap * (1.0 - 1e-13))
    assert traj.run_stats.capped == len(capped) > 0
    assert capped.tolist() == list(range(len(dt) - len(capped), len(dt)))
    assert np.all(a_min[capped] <= 0.025)


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
    # time error does not depend on n (3.7e-9 at n = 64, 4.0e-9 at n = 256)
    st = get_preset("fig-a").build(PeriodicGrid(64))
    runs = [evolve(st, FlowConfig(cfl_safety=cfl)) for cfl in (0.2, 0.1)]
    (coarse, coarse_report), (fine, fine_report) = runs
    assert abs(coarse_report.t_estimate - fine_report.t_estimate) <= 3.3e-8
    assert fine.run_stats.steps == pytest.approx(2 * coarse.run_stats.steps, rel=0.02)


def test_small_gauge_fig_a_reaches_t_max_in_few_steps():
    # under phi0 = 1e-9 the arclength derivatives are 1e18 times the z ones:
    # the first dt, cfl / (18 r0), is 5.6e-21, and the profile flattens in
    # an initial layer; dt must grow as the layer decays (177 steps to
    # t = 0.05), not keep the memory of r0
    st = get_preset("fig-a").build(PeriodicGrid(64))
    tiny = MetricState(st.grid, 0.0, 1e-9, (st.a, st.b, st.c))
    traj, _ = evolve(tiny, FlowConfig(t_max=0.05))
    assert traj.stop_reason == STOP_TMAX
    assert traj.run_stats.steps < 1000


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
    phis = [s.phi for s in states]
    zjs = [jet_of(stacked(s)) for s in states]
    jets = np.stack([jet_of(stacked(s), phi) for s, phi in zip(states, phis)])
    records = summarize_state(ts, dts, jets)
    assert records.dtype == SUMMARY_DTYPE and records.shape == (size,)
    for k, sample in enumerate(zip(ts, dts, zjs, phis)):
        assert bits(records[k].tolist()) == bits(reference_sample(*sample))


def test_summary_block_fills_its_byte_budget():
    # n = 1 is evolve's one point for z-constant data, which takes the block
    # of n = 8
    assert [summary_block(n) for n in (1, 64, 128, 256, 1 << 20)] == [256, 32, 16, 8, 1]


def test_block_summary_raises_for_an_unresolvable_state():
    jets = np.stack([jet_of(stacked(s), s.phi) for s in fig_a_states(64)[:3]])
    jets[2, 0, 1, 5] = 1e-9
    with pytest.raises(DataError, match="fiber radius 1.000e-09 below resolvable floor"):
        summarize_state([0.0, 0.1, 0.2], [0.0] * 3, jets)


# --- evolve ------------------------------------------------------------------


#: flow's steps and right-hand sides as imported, before any test patches them.
ORIGINAL = {f.__name__: f for f in (rk4_step, _point_step, _flow_rhs, _point_rhs)}

# evolve's two kernels: the step and the right-hand side a test patches on
# each, the position of dt among the step's arguments, and data that take it.
KERNELS = {
    "point": ("_point_step", "_point_rhs", 1, sphere(2.0).build(PeriodicGrid(16))),
    "grid": ("rk4_step", "_flow_rhs", 2, get_preset("fig-a").build(PeriodicGrid(16))),
}


def _reject_after(monkeypatch, steps, rejections=math.inf, kernel="grid"):
    """Make the attempts of the kernel's step after the first `steps` fail,
    the next `rejections` of them (all by default); returns the dt of every
    attempt."""
    name, _, dt_arg, _ = KERNELS[kernel]
    real = ORIGINAL[name]
    attempts = []

    def step(*args):
        attempts.append(args[dt_arg])
        if steps < len(attempts) <= steps + rejections:
            raise StepRejected("forced")
        return real(*args)

    monkeypatch.setattr(flow, name, step)
    return attempts


def _initial_neck_resolution(st):
    """a_min / (phi dz) of st's radii after the rfft and jet evolve takes."""
    return float(jet_of(stacked(st), st.phi)[0, 0].min() / (st.phi * st.grid.dz))


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


def test_evolve_above_n_1024_summarizes_one_state_a_call():
    # a block of 1: every record flushes at once, so the flushes after the
    # initial record and after the loop find nothing pending
    assert summary_block(2048) == 1
    traj, _ = evolve(get_preset("fig-a").build(PeriodicGrid(2048)), FlowConfig(a_min_stop=0.3))
    assert traj.stop_reason == STOP_AMIN
    assert len(traj.samples) == traj.run_stats.steps + 1


def test_evolve_strided_blocks_of_one_state_equal_the_default_block(monkeypatch):
    st = get_preset("fig-a").build(PeriodicGrid(64))
    cfg = FlowConfig(monitor_stride=3)
    default, _ = evolve(st, cfg)
    monkeypatch.setattr(flow, "SUMMARY_BLOCK_BYTES", 1)
    assert summary_block(64) == 1
    single, _ = evolve(st, cfg)
    assert single.run_stats.steps % 3 != 0  # the final record is off the stride
    assert single.samples.tobytes() == default.samples.tobytes()


@pytest.mark.parametrize(
    "state, cfg",
    [
        (sphere(2.0).build(PeriodicGrid(8)), FlowConfig(cfl_safety=0.05, a_min_stop=0.01)),
        (get_preset("fig-a").build(PeriodicGrid(8)), FlowConfig()),
    ],
    ids=["sphere", "fig-a"],
)
def test_evolve_grows_its_records_by_a_whole_block(state, cfg):
    # blocks of summary_block(8) = 256 states, on the grid or on one point:
    # the samples are more than one block, and a record buffer that grew by
    # doubling from 128 once lost them at n = 8
    traj, _ = evolve(state, cfg)
    assert traj.stop_reason == STOP_AMIN
    assert len(traj.samples) == traj.run_stats.steps + 1 > 256


def _count_fft_calls(monkeypatch):
    """Count the calls of every pocketfft kernel from here on: the gufuncs
    that grid.rfft and grid.irfft call, and every np.fft transform too, as
    both look the kernels up in their module at each call."""
    from numpy.fft import _pocketfft_umath as kernels

    calls = []
    for name in ("fft", "ifft", "rfft_n_even", "rfft_n_odd", "irfft"):
        def counted(*args, _kernel=getattr(kernels, name), **kwargs):
            calls.append(_kernel)
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(kernels, name, counted)
    return calls


def test_evolve_takes_no_transform_on_z_constant_data(monkeypatch):
    calls = _count_fft_calls(monkeypatch)
    for radii in Z_CONSTANT_RADII:
        traj, _ = evolve(MetricState(PeriodicGrid(64), 0.0, 1.0, radii), FlowConfig())
        assert traj.stop_reason == STOP_AMIN
    assert calls == []
    evolve(get_preset("fig-a").build(PeriodicGrid(64)), FlowConfig())
    assert len(calls) > 0


# Operation counts, which do not drift with the host's speed. A grid step
# takes 4 right-hand sides and 17 transform calls, each a pocketfft kernel
# called through grid.rfft or grid.irfft: the first stage's W pair and rfft,
# three more stages of one jet irfft, a W pair and an rfft each, the new
# state's jet and the error estimate's irfft; a run adds the initial radii's
# rfft and jet. z-constant data step on the point kernel, 4 of its
# right-hand sides a step and no transform.
COUNT_CASES = {
    "fig-a-64": (get_preset("fig-a"), 64, FlowConfig(), 341, "grid", (17, 2)),
    "fig-a-256": (get_preset("fig-a"), 256, FlowConfig(), 342, "grid", (17, 2)),
    "sphere-64": (
        sphere(2.0), 64, FlowConfig(cfl_safety=0.05, a_min_stop=0.01), 878, "point", (0, 0)
    ),
}


@pytest.mark.parametrize("case", COUNT_CASES)
def test_evolve_operation_counts(monkeypatch, case):
    preset, n, cfg, steps, kernel, (ffts_per_step, ffts_at_start) = COUNT_CASES[case]
    ffts = _count_fft_calls(monkeypatch)
    calls = dict.fromkeys(ORIGINAL, 0)
    for name in calls:
        def counted(*args, _name=name, _real=ORIGINAL[name]):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(flow, name, counted)
    traj, _ = evolve(preset.build(PeriodicGrid(n)), cfg)
    assert traj.stop_reason == STOP_AMIN
    assert (traj.run_stats.steps, traj.run_stats.rejected) == (steps, 0)
    assert len(ffts) == ffts_per_step * steps + ffts_at_start
    step_name, rhs_name, _, _ = KERNELS[kernel]
    assert calls == {**dict.fromkeys(calls, 0), step_name: steps, rhs_name: 4 * steps}


def test_evolve_strided_z_constant_run_to_t_max():
    st = MetricState(PeriodicGrid(64), 0.0, 1.0, (1.0, 1.5, 2.0))
    every, _ = evolve(st, FlowConfig(t_max=0.2))
    traj, _ = evolve(st, FlowConfig(t_max=0.2, monitor_stride=3))
    assert traj.stop_reason == STOP_TMAX and traj.run_stats.steps % 3 != 0
    first, last = traj.samples[0], traj.samples[-1]
    assert (first.t, first.dt, first.a_min, first.b_min, first.c_max) == (0.0, 0.0, 1.0, 1.5, 2.0)
    assert last.tolist() == every.samples[-1].tolist() and last.t == 0.2
    assert len(traj.samples) == traj.run_stats.steps // 3 + 2
    # the final snapshot is the one point broadcast to the grid
    final = traj.snapshots[-1]
    assert final.t == last.t
    for row, value in zip((final.a, final.b, final.c), (last.a_min, last.b_min, last.c_max)):
        assert row.shape == (64,) and np.all(row == value)
    resummarized = summarize_state([last.t], [last.dt], arclength_jet(final)[np.newaxis])
    assert bits(resummarized[0].tolist()) == bits(last.tolist())


def test_evolve_sphere_tracks_exact_solution():
    st = MetricState(PeriodicGrid(32), 0.0, 1.0, (2.0, 2.0, 2.0))
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
        st = MetricState(PeriodicGrid(64), 0.0, 1.0, (2.0, 2.0, 2.0))
        traj, _ = evolve(st, FlowConfig(cfl_safety=cfl, a_min_stop=0.05))
        ts = traj.ts
        errs.append(float(np.max(np.abs(traj.series("a_min") ** 2 - (4.0 - 4.0 * ts)))))
    for e0, e1 in zip(errs, errs[1:]):
        order = np.log2(e0 / e1)
        assert abs(order - 4.0) <= 0.5


def test_evolve_fig_a_dt_convergence_order():
    # the sphere's order test above runs on one point, where L = 0; on fig-a
    # the integrating factor damps every mode but k = 0 and Nyquist, and T's
    # time error still falls like dt^4 (4.32 measured)
    st, ts = get_preset("fig-a").build(PeriodicGrid(64)), []
    for cfl in (0.8, 0.4, 0.2):
        traj, report = evolve(st, FlowConfig(cfl_safety=cfl))
        assert traj.stop_reason == STOP_AMIN and traj.run_stats.rejected == 0
        ts.append(report.t_estimate)
    assert np.log2((ts[0] - ts[1]) / (ts[1] - ts[2])) >= 3.5


def test_trajectory_times_strictly_increasing_and_finite():
    st = MetricState(PeriodicGrid(32), 0.0, 1.0, (2.0, 2.0, 2.0))
    traj, _ = evolve(st, FlowConfig(a_min_stop=0.5))
    assert not traj.samples.flags.writeable
    assert np.shares_memory(traj.ts, traj.samples)
    assert np.all(np.diff(traj.ts) > 0.0)
    for name in ("a_min", "c_max", "s_min", "rm_max"):
        assert np.all(np.isfinite(traj.series(name)))


def test_evolve_respects_t_max():
    st = MetricState(PeriodicGrid(32), 0.0, 1.0, (2.0, 2.0, 2.0))
    traj, report = evolve(st, FlowConfig(t_max=1e-6))
    assert traj.stop_reason == STOP_TMAX
    assert traj.samples[-1].t == pytest.approx(1e-6, abs=1e-12)
    assert traj.samples[-1].a_min == pytest.approx(2.0, abs=1e-5)
    assert report is None  # nothing shrank, no fit possible


def test_evolve_halves_rejected_steps(monkeypatch):
    # on either kernel the fourth step is rejected twice and accepted at a
    # quarter of its dt
    cases = {"point": MetricState(PeriodicGrid(32), 0.0, 1.0, (0.5, 0.5, 0.5)),
             "grid": KERNELS["grid"][3]}
    for kernel, st in cases.items():
        with monkeypatch.context() as patch:
            attempts = _reject_after(patch, 3, rejections=2, kernel=kernel)
            traj, _ = evolve(st, FlowConfig(a_min_stop=0.35))
        assert traj.stop_reason == STOP_AMIN
        assert traj.samples[-1].a_min < 0.35
        assert traj.run_stats.rejected == 2
        assert attempts[4:6] == [attempts[3] / 2.0, attempts[3] / 4.0]
        assert traj.samples[4].dt == attempts[5]


def test_evolve_names_exhausted_halvings(monkeypatch):
    # finite data whose step is rejected at every halving, on either kernel
    for kernel, (*_, st) in KERNELS.items():
        with monkeypatch.context() as patch:
            attempts = _reject_after(patch, 0, kernel=kernel)
            traj, report = evolve(st, FlowConfig())
        assert traj.stop_reason == STOP_HALVINGS == "step_halvings_exhausted"
        assert attempts == [attempts[0] / 2.0**k for k in range(MAX_STEP_HALVINGS + 1)]
        assert len(traj.samples) == 1
        assert len(traj.snapshots) == 1 and traj.snapshots[0] is st
        assert report is None
        assert asdict(traj.run_stats) == {
            "steps": 0,
            "rejected": MAX_STEP_HALVINGS + 1,
            "capped": 0,
            "neck_resolution": _initial_neck_resolution(st),
        }
    assert _initial_neck_resolution(KERNELS["point"][3]) == 2.0 / PeriodicGrid(16).dz


def test_evolve_rejects_overflowing_grid_stages_without_a_warning(monkeypatch):
    # Every stage after the first is scaled into overflow, so each of the
    # 21 attempts of the first step is rejected by the finiteness check;
    # NumPy's RuntimeWarning on the way there would be an error here, under
    # the suite's filterwarnings, as it would print on a run's stderr.
    calls = []

    def flow_rhs(zj, phi):
        calls.append(None)
        return _flow_rhs(zj if len(calls) == 1 else zj * 1e200, phi)

    monkeypatch.setattr(flow, "_flow_rhs", flow_rhs)
    traj, _ = evolve(get_preset("fig-a").build(PeriodicGrid(32)), FlowConfig())
    assert traj.stop_reason == STOP_HALVINGS
    assert traj.run_stats.rejected == MAX_STEP_HALVINGS + 1 == 21
    assert traj.run_stats.steps == 0


def test_evolve_counts_steps():
    st = MetricState(PeriodicGrid(32), 0.0, 1.0, (2.0, 2.0, 2.0))
    traj, _ = evolve(st, FlowConfig(a_min_stop=0.5))
    stats = traj.run_stats
    assert stats.steps == len(traj.samples) - 1 > 0
    assert stats.rejected == 0


def test_evolve_stops_when_the_first_stage_is_not_finite(monkeypatch):
    # dt does not enter k1, so a first stage that fails is not halved, on
    # either kernel
    for _, rhs_name, _, st in KERNELS.values():
        calls = []
        real = ORIGINAL[rhs_name]

        def flow_rhs(*args):
            calls.append(len(calls))
            if len(calls) > 4 * 3:
                raise StepRejected("non-finite flow derivatives")
            return real(*args)

        with monkeypatch.context() as patch:
            patch.setattr(flow, rhs_name, flow_rhs)
            traj, _ = evolve(st, FlowConfig())
        assert traj.stop_reason == STOP_HALVINGS
        assert traj.run_stats.steps == 3
        assert traj.run_stats.rejected == MAX_STEP_HALVINGS + 1
        assert len(traj.samples) == 4


def test_evolve_steps_a_stationary_state_to_t_max(monkeypatch):
    # r = 0 would divide by zero in the first dt, cfl / (18 r); a state whose
    # right-hand side is 0 takes one step to the time cap, on either kernel
    zero_rhs = {
        "_point_rhs": lambda x: (0.0, 0.0, 0.0),
        "_flow_rhs": lambda zj, phi: (np.zeros_like(zj[0]), 0.0, np.zeros_like(zj[0, 0])),
    }
    for _, rhs_name, _, st in KERNELS.values():
        with monkeypatch.context() as patch:
            patch.setattr(flow, rhs_name, zero_rhs[rhs_name])
            traj, _ = evolve(st, FlowConfig(t_max=5.0))
        assert traj.stop_reason == STOP_TMAX
        assert traj.run_stats.steps == 1
        assert traj.ts.tolist() == [0.0, 5.0]


def test_trajectory_rows_and_columns():
    block = np.zeros(3, SUMMARY_DTYPE)
    for k, name in enumerate(SUMMARY_DTYPE.names):
        block[name] = [3 * k, 3 * k + 1, 3 * k + 2]
    grid = PeriodicGrid(32)
    initial = MetricState(grid, 0.0, 1.0, (1.0, 1.0, 1.0))
    traj = Trajectory(block, [initial])
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
        Trajectory(block[["t", "dt"]], [initial])
    with pytest.raises(ValueError, match="SUMMARY_DTYPE"):
        Trajectory(block.reshape(3, 1), [initial])
    # every trajectory carries its initial state
    with pytest.raises(ValueError, match="initial state"):
        Trajectory(block, [])
    with pytest.raises(TypeError, match="snapshots"):
        Trajectory(samples=block)


class _MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks", "uordblks",
        "fordblks", "keepcost")]


def _heap_bytes(capfd):
    """Bytes in use in malloc blocks, mmapped ones included, and in pymalloc
    blocks; None where glibc's mallinfo2 or pymalloc's statistics are absent."""
    try:
        mallinfo2 = ctypes.CDLL(None).mallinfo2
    except (AttributeError, OSError):
        return None
    mallinfo2.restype = _MallInfo2
    sys._debugmallocstats()  # prints pymalloc's statistics to the C stderr
    match = re.search(r"# bytes in allocated blocks\s*=\s*([\d,]+)", capfd.readouterr().err)
    if match is None:
        return None
    pymalloc = int(match[1].replace(",", ""))
    info = mallinfo2()
    return info.uordblks + info.hblkhd + pymalloc


def _bytes_held_by(run, capfd):
    """run()'s result and the bytes it allocated and still holds.

    Where _heap_bytes reads the heap, the difference of its readings: a malloc
    block's header, an mmapped block's page rounding and numpy's cache of
    freed small buffers count too, so on the run below it reads 214 bytes a
    sample against tracemalloc's 210, but it traces no allocation and takes
    about a seventh of the time. Elsewhere tracemalloc's difference."""
    gc.collect()
    before = _heap_bytes(capfd)
    if before is not None:
        result = run()
        gc.collect()
        return result, _heap_bytes(capfd) - before
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run()
        gc.collect()
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_trajectory_bytes_per_sample(capfd):
    # A record holds 15 float64 values and 11 integer indices, 208 bytes;
    # a sample object per state took about 680.
    # fig-a n=128 takes 342 steps at the default cfl 0.2, 1,159 at 0.06.
    st = get_preset("fig-a").build(PeriodicGrid(128))
    cfg = FlowConfig(cfl_safety=0.06)
    # A short run first, so the first-call FFT and stencil caches of this
    # grid are not counted against the samples whatever ran before.
    evolve(st, FlowConfig(t_max=1e-3))

    def run():
        traj, _ = evolve(st, cfg)
        traj.snapshots.clear()
        return traj

    traj, held = _bytes_held_by(run, capfd)
    assert len(traj.samples) > 1000
    assert held / len(traj.samples) < 300


@pytest.mark.parametrize(
    "log_lam, message", [(710.0, "overflowed"), (-746.0, "underflowed")]
)
def test_evolve_rejects_overflowed_or_underflowed_gauge(monkeypatch, log_lam, message):
    # exp(710) overflows and exp(-746) underflows to 0 although log lambda
    # itself is finite; rk4_step raises for such a lambda, and evolve passes
    # the error on
    # (the point kernel carries no lambda: z-constant data keep lambda = 1)
    def rk4_step(u0, _, *args):
        return ORIGINAL["rk4_step"](u0, log_lam, *args)

    monkeypatch.setattr(flow, "rk4_step", rk4_step)
    with pytest.raises(DataError, match=message):
        evolve(KERNELS["grid"][3], FlowConfig())


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
        phi, dz, x = s1.phi, s1.grid.dz, stacked(s1)
        zj = arclength_jet(s1)
        w, _, _ = speed(phi, zj)
        lies = 2.0 * x * w * zj[1]
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


def _exact_line_fit(x, y):
    """The least-squares line of the float data in exact rational arithmetic."""
    xs, ys = [Fraction(v) for v in x.tolist()], [Fraction(v) for v in y.tolist()]
    x_bar, y_bar = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = sum((u - x_bar) * (v - y_bar) for u, v in zip(xs, ys)) / sum(
        (u - x_bar) ** 2 for u in xs
    )
    return float(slope), float(y_bar - slope * x_bar)


def test_line_fit_matches_exact_fit_and_polyfit_root_on_a_neck_window():
    # neck-fine's fit window: 45 samples within 2.3e-5 of each other, where
    # the uncentered normal equations have a condition number of 6.5e10.
    # np.polyfit's slope and intercept are both 7.7e-12 off the exact fit
    # here, in step, so its root is right to roundoff.
    T = 0.8533315
    ts = np.linspace(0.853307, 0.853330, 45)
    tau = T - ts
    y = 4.0 * tau * (1.0 - 1.0 / (2.0 * np.log(1.0 / tau)))
    slope, intercept = _line_fit(ts, y)
    exact_slope, exact_intercept = _exact_line_fit(ts, y)
    assert slope == pytest.approx(exact_slope, rel=1e-14)
    assert intercept == pytest.approx(exact_intercept, rel=1e-14)
    oracle_slope, oracle_intercept = np.polyfit(ts, y, 1)
    assert -intercept / slope == pytest.approx(-oracle_intercept / oracle_slope, rel=1e-14)
    assert slope == pytest.approx(oracle_slope, rel=1e-10)
    assert intercept == pytest.approx(oracle_intercept, rel=1e-10)


def test_line_fit_matches_polyfit_on_a_log_log_series():
    # The Type I trend: log((T-t) max|Rm|) against log(T-t).
    x = np.log(np.geomspace(1e-2, 1e-5, 60))
    y = -0.49 + 0.02 * x + 1e-3 * np.sin(3.0 * x)
    slope, intercept = _line_fit(x, y)
    oracle_slope, oracle_intercept = np.polyfit(x, y, 1)
    assert slope == pytest.approx(oracle_slope, rel=1e-12)
    assert intercept == pytest.approx(oracle_intercept, rel=1e-12)
    exact_slope, exact_intercept = _exact_line_fit(x, y)
    assert slope == pytest.approx(exact_slope, rel=1e-14)
    assert intercept == pytest.approx(exact_intercept, rel=1e-14)


def test_line_fit_is_exact_on_a_line():
    x = np.linspace(0.1, 0.9, 45)
    slope, intercept = _line_fit(x, 0.7 - 1.3 * x)
    assert slope == pytest.approx(-1.3, abs=1e-15)
    assert intercept == pytest.approx(0.7, abs=1e-15)


def test_estimate_rejects_increasing_series():
    ts = np.linspace(0.0, 1.0, 50)
    traj = make_trajectory(ts, 1.0 + ts)
    assert estimate_singular_time(traj) is None


def test_estimate_rejects_insufficient_samples():
    ts = np.linspace(0.0, 1.0, 5)
    traj = make_trajectory(ts, 2.0 - ts)
    assert estimate_singular_time(traj) is None


@pytest.mark.parametrize("count", [MIN_FIT_SAMPLES - 1, MIN_FIT_SAMPLES])
def test_estimate_needs_min_fit_samples_in_the_final_decade(count):
    # a_min^2 = 4 (1 - t) on the count samples of the final decade; three
    # early samples at a_min = 3 lie outside it. The fit needs MIN_FIT_SAMPLES
    inside = 0.9 + 0.01 * np.arange(count)
    ts = np.concatenate(([0.0, 0.1, 0.2], inside))
    a_min = np.concatenate(([3.0] * 3, np.sqrt(4.0 * (1.0 - inside))))
    assert np.count_nonzero(_final_decade(a_min)) == count
    report = estimate_singular_time(make_trajectory(ts, a_min))
    if count < MIN_FIT_SAMPLES:
        assert report is None
    else:
        assert report.fit_window == (inside[0], inside[-1])
        assert report.t_estimate == pytest.approx(1.0, abs=1e-12)


# --- homogeneous ODE oracle ----------------------------------------------------


def test_import_leaves_scipy_integrate_unloaded():
    # scipy is a test dependency, and the package imports only numpy: in a
    # fresh interpreter, importing neckpinch and its CLI loads no scipy module
    # and no top-level module outside the standard library but those two
    env = {**os.environ, "PYTHONPATH": str(Path(neckpinch.__file__).parents[1])}
    code = (
        "import sys; before = set(sys.modules); import neckpinch, neckpinch.cli; "
        "print(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)); "
        "new = {m.partition('.')[0] for m in set(sys.modules) - before}; "
        "print(sorted(new - sys.stdlib_module_names))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.split("\n")[:2] == ["False", "['neckpinch', 'numpy']"]


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
    with pytest.raises(DataError, match="initial radii must be positive"):
        homogeneous_ode_oracle(0.0, 1.0, 1.0, 0.1)
