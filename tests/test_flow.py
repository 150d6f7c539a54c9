import gc
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import neckpinch
from neckpinch import flow
from neckpinch.curvature import jet, sectional_curvatures
from neckpinch.flow import (
    STOP_AMIN,
    STOP_HALVINGS,
    STOP_TMAX,
    SUMMARY_BLOCK,
    INDEX_FIELDS,
    MAX_STEP_HALVINGS,
    VALUE_FIELDS,
    FlowConfig,
    InsufficientSamplesError,
    NoSingularityDetected,
    StepRejected,
    SummarySample,
    Trajectory,
    _flow_rhs,
    _step_limits,
    estimate_singular_time,
    evolve,
    rk4_step,
    summarize_state,
    tangential_speed,
)
from neckpinch.grid import (
    DegenerateFiberError,
    GaugeDegeneracyError,
    NonFiniteFieldError,
    PeriodicGrid,
    dz_values,
    metric_state,
)
from neckpinch.presets import get_preset

from conftest import make_trajectory
from reference import homogeneous_ode_oracle, s_derivative


# --- right-hand sides --------------------------------------------------------


def rhs(state):
    """_flow_rhs at a MetricState: the radii rates (3, n) and dt log lambda."""
    phi = state.phi
    return _flow_rhs(stacked(state), phi, phi / phi.sum(), state.grid.dz)


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


def speed(phi, x, dz):
    """tangential_speed of the radii x under the gauge phi, and q."""
    _, xpp = jet(phi, x, dz)
    q = (xpp / x).sum(axis=0)
    return (*tangential_speed(phi, q, phi / phi.sum()), q)


def test_tangential_speed_is_zero_on_z_constant_data():
    g = PeriodicGrid(32)
    w, c, q = speed(np.full(g.n, 1.7), np.full((3, g.n), 2.0), g.dz)
    assert w is None and c == 0.0 and not q.any()


def test_tangential_speed_is_mean_free_and_integrates_its_density():
    # dz W = phi (c - q) at the order of the stencil: the spectral W is
    # differentiated by the 4th-order D1, so the defect falls by 16 per halving
    errors = []
    for n in (32, 64, 128):
        g = PeriodicGrid(n)
        z = g.z
        phi = 1.0 + 0.3 * np.sin(z)
        x = np.stack((np.cos(z) + 1.5, np.cos(z) + 2.5, 0.5 * np.sin(2 * z) + 3.5))
        w, c, q = speed(phi, x, g.dz)
        assert abs(np.mean(w)) <= 1e-15 * np.max(np.abs(w))
        density = phi * (c - q)
        assert abs(np.sum(density)) <= 1e-13 * np.sum(np.abs(density))
        errors.append(np.max(np.abs(dz_values(w, g.dz) - density)))
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
    w, _, _ = speed(last.phi, stacked(last), last.grid.dz)
    assert abs(w[n // 2]) <= 1e-12 * np.max(np.abs(w))
    # the gauge keeps its shape: phi = lambda(t) * phi0, here uniform
    assert np.ptp(last.phi) == 0.0


def test_nonuniform_gauge_keeps_its_shape():
    # phi0 from a samples profile: phi stays lambda(t) * phi0
    g = PeriodicGrid(32)
    phi0 = 1.0 + 0.3 * np.sin(g.z)
    st = metric_state(g, 0.0, phi0, np.cos(g.z) + 1.5, np.cos(g.z) + 2.5, np.cos(g.z) + 3.5)
    traj, _ = evolve(st, FlowConfig(t_max=0.05, snapshot_stride=10))
    assert traj.stop_reason == STOP_TMAX
    ratio = traj.snapshots[-1].phi / phi0
    assert ratio[0] != 1.0
    assert np.ptp(ratio) <= 1e-15 * ratio[0]


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


def step(state, dt):
    """rk4_step from a MetricState, its phi taken as phi0 (log lambda = 0)."""
    phi = state.phi
    return rk4_step(stacked(state), 0.0, dt, phi, phi / phi.sum(), state.grid.dz)


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


def test_adaptive_dt_diffusion_branch():
    g = PeriodicGrid(256)
    diffusion, reaction = _step_limits(1.0, 10.0, g.dz)
    assert diffusion < reaction
    assert diffusion == pytest.approx(g.dz**2)
    # series.csv prints dt with repr
    assert type(diffusion) is float and type(reaction) is float


def test_adaptive_dt_reaction_branch():
    diffusion, reaction = _step_limits(1.0, 0.01, PeriodicGrid(32).dz)
    assert reaction < diffusion
    assert reaction == pytest.approx(1.25e-5)
    assert type(reaction) is float


def test_adaptive_dt_quarters_when_dz_halves():
    coarse, _ = _step_limits(1.0, 9.0, PeriodicGrid(64).dz)
    fine, _ = _step_limits(1.0, 9.0, PeriodicGrid(128).dz)
    assert coarse / fine == pytest.approx(4.0)


# --- summaries ---------------------------------------------------------------


def reference_sample(state, dt):
    """The summary of one state from the MetricState arrays, reduction by reduction."""
    a, b, c = state.a, state.b, state.c
    curv = sectional_curvatures(state)

    def lowest(v):
        i = int(np.argmin(v))
        return float(v[i]), i

    def highest(v):
        i = int(np.argmax(v))
        return float(v[i]), i

    def ecc(x, y):
        return np.abs(x - y) / np.minimum(x, y)

    sup = [
        highest(np.abs(s_derivative(f, state.phi, state.grid.dz)))
        for f in (state.a, state.b, state.c)
    ]
    pairs = [
        ("a_min", "a_min_idx", lowest(a)),
        ("c_max", "c_max_idx", highest(c)),
        ("ord_ba_min", "ord_ba_idx", lowest(b - a)),
        ("ord_cb_min", "ord_cb_idx", lowest(c - b)),
        ("ratio_max", "ratio_max_idx", highest(c / a)),
        ("ecc_bc", "ecc_bc_idx", highest(ecc(b, c))),
        ("ecc_ac", "ecc_ac_idx", highest(ecc(a, c))),
        ("s_min", "s_min_idx", lowest(curv.scal)),
        ("rm_max", "rm_max_idx", highest(np.sqrt(curv.rm_norm_sq))),
        ("sup_ap", "sup_ap_idx", sup[0]),
        ("sup_bp", "sup_bp_idx", sup[1]),
        ("sup_cp", "sup_cp_idx", sup[2]),
    ]
    fields = {"t": state.t, "dt": dt, "b_min": lowest(b)[0]}
    for value_name, index_name, (value, idx) in pairs:
        fields[value_name], fields[index_name] = value, idx
    return SummarySample(**fields)


def bits(sample):
    # repr is the shortest round trip, so equal strings mean equal bits
    return [repr(v) for v in sample]


def column_bits(traj, name):
    return traj.series(name).tobytes()


@pytest.fixture(scope="module")
def fig_a_states():
    st = get_preset("fig-a").build(PeriodicGrid(64))
    traj, _ = evolve(st, FlowConfig(t_max=0.3, snapshot_stride=7))
    assert len(traj.snapshots) >= 8
    return traj.snapshots[:8]


@pytest.mark.parametrize("size", [1, 3, SUMMARY_BLOCK])
def test_block_summary_bitwise_equals_state_by_state(fig_a_states, size):
    states = fig_a_states[-size:]
    dts = [1e-3 * (k + 1) for k in range(size)]
    traj = Trajectory(grid=states[0].grid)
    traj.extend(
        *summarize_state(
            [s.t for s in states],
            dts,
            np.stack([np.stack((s.a, s.b, s.c)) for s in states]),
            np.stack([s.phi for s in states]),
            states[0].grid.dz,
        )
    )
    assert len(traj.samples) == size
    for k, (state, dt) in enumerate(zip(states, dts)):
        assert bits(traj.samples[k]) == bits(reference_sample(state, dt))


def test_block_summary_raises_for_an_unresolvable_state(fig_a_states):
    x = np.stack([np.stack((s.a, s.b, s.c)) for s in fig_a_states[:3]])
    phi = np.stack([s.phi for s in fig_a_states[:3]])
    x[2, 1, 5] = 1e-9
    with pytest.raises(DegenerateFiberError, match="1.000e-09"):
        summarize_state([0.0, 0.1, 0.2], [0.0] * 3, x, phi, fig_a_states[0].grid.dz)


# --- evolve ------------------------------------------------------------------


RK4_STEP = flow.rk4_step


def _reject_after(monkeypatch, steps):
    """Make every step attempt after the first `steps` fail."""
    attempts = []

    def rk4_step(x, log_lam, dt, *args):
        attempts.append(dt)
        if len(attempts) > steps:
            raise StepRejected("forced")
        return RK4_STEP(x, log_lam, dt, *args)

    monkeypatch.setattr(flow, "rk4_step", rk4_step)


@pytest.mark.parametrize(
    "stop, flow_kwargs",
    [
        (STOP_AMIN, {"a_min_stop": 0.25}),
        (STOP_TMAX, {"t_max": 0.07}),
        (STOP_HALVINGS, {}),
    ],
)
def test_evolve_strided_blocks_keep_first_last_and_snapshots(monkeypatch, stop, flow_kwargs):
    st = get_preset("fig-a").build(PeriodicGrid(32))

    def run(monitor_stride):
        if stop == STOP_HALVINGS:
            _reject_after(monkeypatch, 38)
        cfg = FlowConfig(monitor_stride=monitor_stride, snapshot_stride=5, **flow_kwargs)
        traj, _ = evolve(st, cfg)
        assert traj.stop_reason == stop
        return traj

    every = run(1)
    strided = run(3)
    steps = len(every.samples) - 1
    assert len(strided.samples) % SUMMARY_BLOCK != 0
    assert steps % 3 != 0  # the last state is recorded although off the stride
    for name in VALUE_FIELDS + INDEX_FIELDS:
        column = every.series(name)
        expected = np.append(column[::3], column[-1:])
        assert column_bits(strided, name) == expected.tobytes()
    snapshot_ts = every.ts[::5].tolist()
    if steps % 5:
        snapshot_ts.append(every.ts[-1].item())
    for traj in (every, strided):
        assert traj.snapshots[0] is st
        assert [s.t for s in traj.snapshots] == snapshot_ts


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


def test_evolve_halves_rejected_steps():
    st = metric_state(PeriodicGrid(32), 0.0, 1.0, 0.5, 0.5, 0.5)
    traj, _ = evolve(st, FlowConfig(fixed_dt=0.2, a_min_stop=0.35))
    assert traj.stop_reason == STOP_AMIN
    assert traj.samples[-1].a_min < 0.35


def test_evolve_names_exhausted_halvings():
    # finite data whose step stays too large after every halving
    st = metric_state(PeriodicGrid(16), 0.0, 1.0, 2.0, 2.0, 2.0)
    traj, report = evolve(st, FlowConfig(fixed_dt=1e9))
    assert traj.stop_reason == STOP_HALVINGS == "step_halvings_exhausted"
    assert len(traj.samples) == 1
    assert traj.snapshots[-1] is st
    assert report is None
    assert traj.run_stats.as_dict() == {
        "steps": 0,
        "rejected": MAX_STEP_HALVINGS + 1,
        "diffusion_limited": 0,
        "neck_resolution": 2.0 / st.grid.dz,
    }


def test_evolve_counts_steps_and_diffusion_limited_steps():
    st = metric_state(PeriodicGrid(32), 0.0, 1.0, 2.0, 2.0, 2.0)
    traj, _ = evolve(st, FlowConfig(a_min_stop=0.5))
    stats = traj.run_stats
    assert stats.steps == len(traj.samples) - 1 > 0
    assert stats.rejected == 0
    # phi stays 1 on z-constant data, so the diffusion limit before a step
    # is dz^2 and the reaction limit a_min^2 / 8
    a_min = traj.series("a_min")[:-1]
    dz = st.grid.dz
    assert stats.diffusion_limited == int(np.sum(dz * dz <= a_min * a_min / 8.0))
    assert 0 < stats.diffusion_limited < stats.steps


def test_trajectory_rows_and_columns():
    traj = Trajectory(grid=PeriodicGrid(32))
    values = np.arange(2.0 * len(VALUE_FIELDS)).reshape(len(VALUE_FIELDS), 2)
    indices = np.arange(2 * len(INDEX_FIELDS)).reshape(len(INDEX_FIELDS), 2)
    traj.extend(values, indices)
    traj.extend(values[:, :1], indices[:, :1])
    last = traj.samples[-1]
    assert len(traj.samples) == 3
    assert isinstance(last, SummarySample)
    assert tuple(last) == (*values[:, 0].tolist(), *indices[:, 0].tolist())
    assert type(last.t) is float and type(last.a_min_idx) is int
    np.testing.assert_array_equal(traj.series("sup_cp_idx"), indices[-1, [0, 1, 0]])
    traj.ts[0] = -1.0  # a column is a new array
    assert traj.samples[0].t == 0.0
    with pytest.raises(IndexError):
        traj.samples[3]
    with pytest.raises(ValueError, match="mismatched"):
        traj.extend(values, indices[:, :1])


def test_trajectory_bytes_per_sample():
    # The columns hold 15 float64 values and 12 integer indices per sample,
    # 216 bytes; a sample object per state took about 680.
    st = get_preset("fig-a").build(PeriodicGrid(128))
    cfg = FlowConfig(snapshot_stride=10**6)
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
        x1, _ = RK4_STEP(*args)
        return x1, log_lam

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
    for snap in traj.snapshots:
        assert np.max(np.abs(snap.b - snap.c)) <= 1e-10


def test_ricci_flow_residual_shrinks_under_refinement():
    # dt g + 2 Ric - L_V g -> 0 on the diagonal, checked at the middle
    # snapshot triple; the gauge's field V = (W/phi) dz adds the Lie
    # derivative 2x W x' to each radius squared and 2 phi dz W to phi^2
    def residual(n, dt):
        st = get_preset("fig-a").build(PeriodicGrid(n))
        cfg = FlowConfig(fixed_dt=dt, t_max=20 * dt, snapshot_stride=1)
        traj, _ = evolve(st, cfg)
        mid = len(traj.snapshots) // 2
        s0, s1, s2 = traj.snapshots[mid - 1 : mid + 2]
        span = s2.t - s0.t
        curv = sectional_curvatures(s1)
        phi, dz, x = s1.phi, s1.grid.dz, stacked(s1)
        w, _, _ = speed(phi, x, dz)
        lies = 2.0 * x * w * jet(phi, x, dz)[0]
        worst = 0.0
        for name, ric, lie in zip("abc", (curv.ric11, curv.ric22, curv.ric33), lies):
            g2_dot = (getattr(s2, name) ** 2 - getattr(s0, name) ** 2) / span
            worst = max(worst, float(np.max(np.abs(g2_dot + 2.0 * ric - lie))))
        phi2_dot = (s2.phi**2 - s0.phi**2) / span
        lie = 2.0 * phi * dz_values(w, dz)
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
