import numpy as np
import pytest

from neckpinch.curvature import sectional_curvatures
from neckpinch.flow import (
    STOP_AMIN,
    STOP_HALVINGS,
    STOP_TMAX,
    FlowConfig,
    InsufficientSamplesError,
    NoSingularityDetected,
    StepRejected,
    adaptive_dt,
    estimate_singular_time,
    evolve,
    homogeneous_ode_oracle,
    rk4_step,
    time_derivatives,
)
from neckpinch.grid import PeriodicGrid, metric_state
from neckpinch.presets import get_preset

from conftest import make_trajectory


# --- right-hand sides --------------------------------------------------------


@pytest.mark.parametrize("r", [1.0, 2.0])
def test_round_state_derivatives(r):
    st = metric_state(PeriodicGrid(32), 0.0, 1.0, r, r, r)
    da, db, dc, dlogphi = time_derivatives(st)
    for d in (da, db, dc):
        assert np.allclose(d.values, -2.0 / r, rtol=1e-14)
    assert np.all(dlogphi.values == 0.0)


def test_triaxial_hand_slopes():
    # (a, b, c) = (1, 2, 3): da = -2*1*(1-25)/36 = 4/3, db = -2*2*(16-64)/36
    # = 16/3, dc = -2*3*(81-9)/36 = -12
    st = metric_state(PeriodicGrid(32), 0.0, 1.0, 1.0, 2.0, 3.0)
    da, db, dc, dlogphi = time_derivatives(st)
    assert np.allclose(da.values, 4.0 / 3.0, rtol=1e-14)
    assert np.allclose(db.values, 16.0 / 3.0, rtol=1e-14)
    assert np.allclose(dc.values, -12.0, rtol=1e-14)
    assert np.all(dlogphi.values == 0.0)


def test_biaxial_rhs_symmetry_bitwise():
    g = PeriodicGrid(64)
    b = np.cos(g.z) + 2.5
    st = metric_state(g, 0.0, 1.0, np.cos(g.z) + 1.5, b, b)
    _, db, dc, _ = time_derivatives(st)
    assert np.array_equal(db.values, dc.values)


# --- stepping ----------------------------------------------------------------


def test_rk4_step_sphere_one_step():
    st = metric_state(PeriodicGrid(32), 0.0, 1.0, 2.0, 2.0, 2.0)
    dt = 1e-4
    out = rk4_step(st, dt)
    assert out.t == pytest.approx(dt)
    # exact solution a^2 = 4 - 4t; RK4's one-step defect is far below fp noise
    assert np.max(np.abs(out.a.values**2 - (4.0 - 4.0 * dt))) <= 1e-13


def test_rk4_preserves_biaxial_closure():
    g = PeriodicGrid(64)
    b = np.cos(g.z) + 2.5
    st = metric_state(g, 0.0, 1.0, np.cos(g.z) + 1.5, b, b)
    out = rk4_step(st, 1e-4)
    assert np.max(np.abs(out.b.values - out.c.values)) == 0.0


def test_rk4_rejects_positivity_loss():
    st = metric_state(PeriodicGrid(32), 0.0, 1.0, 0.5, 0.5, 0.5)
    with pytest.raises(StepRejected):
        rk4_step(st, 0.2)  # an internal stage drives a through zero


def test_rk4_rejects_nonpositive_dt():
    st = metric_state(PeriodicGrid(32), 0.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        rk4_step(st, 0.0)


def test_adaptive_dt_diffusion_branch():
    g = PeriodicGrid(256)
    st = metric_state(g, 0.0, 1.0, 10.0, 10.0, 10.0)
    cfg = FlowConfig(cfl_safety=0.2)
    assert adaptive_dt(st, cfg) == pytest.approx(0.2 * g.dz**2)


def test_adaptive_dt_reaction_branch():
    g = PeriodicGrid(32)
    st = metric_state(g, 0.0, 1.0, 0.01, 0.01, 0.01)
    cfg = FlowConfig(cfl_safety=0.3)
    assert adaptive_dt(st, cfg) == pytest.approx(0.3 * 1.25e-5)


def test_adaptive_dt_quarters_when_dz_halves():
    cfg = FlowConfig(cfl_safety=0.2)
    dt_coarse = adaptive_dt(metric_state(PeriodicGrid(64), 0.0, 1.0, 9, 9, 9), cfg)
    dt_fine = adaptive_dt(metric_state(PeriodicGrid(128), 0.0, 1.0, 9, 9, 9), cfg)
    assert dt_coarse / dt_fine == pytest.approx(4.0)


# --- evolve ------------------------------------------------------------------


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


def test_evolve_ordering_slack_on_neck_data():
    st = get_preset("fig-a").build(PeriodicGrid(64))
    traj, _ = evolve(st, FlowConfig(t_max=0.05))
    for s in traj.samples:
        assert s.ord_ba_min >= -1e-8
        assert s.ord_cb_min >= -1e-8


def test_evolve_biaxial_closure_whole_run():
    g = PeriodicGrid(48)
    st = get_preset("biaxial").build(g)
    traj, _ = evolve(st, FlowConfig(t_max=0.05))
    for snap in traj.snapshots:
        assert np.max(np.abs(snap.b.values - snap.c.values)) <= 1e-10


def test_ricci_flow_residual_shrinks_under_refinement():
    # dt g + 2 Ric -> 0 on the diagonal, checked at the middle snapshot triple
    def residual(n, dt):
        st = get_preset("fig-a").build(PeriodicGrid(n))
        cfg = FlowConfig(fixed_dt=dt, t_max=20 * dt, snapshot_stride=1)
        traj, _ = evolve(st, cfg)
        mid = len(traj.snapshots) // 2
        s0, s1, s2 = traj.snapshots[mid - 1 : mid + 2]
        span = s2.t - s0.t
        curv = sectional_curvatures(s1)
        worst = 0.0
        for name, ric in (("a", curv.ric11), ("b", curv.ric22), ("c", curv.ric33)):
            g2_dot = (getattr(s2, name).values ** 2 - getattr(s0, name).values ** 2) / span
            worst = max(worst, float(np.max(np.abs(g2_dot + 2.0 * ric.values))))
        phi2_dot = (s2.phi.values**2 - s0.phi.values**2) / span
        worst = max(
            worst, float(np.max(np.abs(phi2_dot + 2.0 * s1.phi.values**2 * curv.ric00.values)))
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
