import math

import numpy as np
import pytest

from neckpinch.config import ConfigError, config_from_dict
from neckpinch.flow import FlowConfig, evolve
from neckpinch.grid import PeriodicGrid, dz_values, metric_state
from neckpinch.monitors import (
    DERIV_BOUND_A,
    DERIV_BOUND_B,
    DERIV_BOUND_C,
    MONITORS,
    amin_bound_monitor,
    cmax_bound_monitor,
    concavity_check,
    constants,
    derivative_bound_monitor,
    eccentricity_monitor,
    evolution_residual,
    ordering_monitor,
    ratio_monitor,
    run_monitors,
    scalar_min_monitor,
    tolerance,
    type1_classifier,
)
from neckpinch.presets import biaxial, get_preset

from conftest import make_trajectory
from reference import scalar_curvature


@pytest.fixture(scope="module")
def sphere_run():
    st = metric_state(PeriodicGrid(48), 0.0, 1.0, 2.0, 2.0, 2.0)
    return evolve(st, FlowConfig(cfl_safety=0.1, a_min_stop=1e-2))


# --- theorem constants ---------------------------------------------------------


def test_constants_at_one():
    c = constants(1.0)
    assert c.lambda0 == pytest.approx(3.0)
    assert c.d_lower == pytest.approx(2.0)
    assert c.frak_c == pytest.approx(3.0550504633038935, rel=1e-14)


def test_constants_lambda0_saturates():
    assert constants(1.5).lambda0 == pytest.approx(3.0)  # 4(2.25) - 5.0625 = 3.9375 > 3


def test_constants_near_two():
    assert constants(1.9).lambda0 == pytest.approx(1.4079, abs=1e-10)


def test_constants_rejects_below_one():
    with pytest.raises(ValueError):
        constants(0.99)


def test_constants_properties_on_unit_interval():
    for lam in np.linspace(1.0, 1.999, 40):
        c = constants(float(lam))
        assert 0.0 < c.lambda0 <= 3.0
        assert c.d_lower > 0.0


def test_derivative_bound_constants_to_twelve_digits():
    assert abs(DERIV_BOUND_A - 280.0 * math.sqrt(3.0) / 9.0) <= 1e-12 * DERIV_BOUND_A
    assert abs(DERIV_BOUND_B - 4.0 * math.sqrt(57.0) / 3.0) <= 1e-12 * DERIV_BOUND_B
    assert abs(DERIV_BOUND_C - 10.0 * math.sqrt(93.0) / 9.0) <= 1e-12 * DERIV_BOUND_C
    assert DERIV_BOUND_A == pytest.approx(53.88602512436507, rel=1e-14)
    assert DERIV_BOUND_B == pytest.approx(10.066445913694333, rel=1e-14)
    assert DERIV_BOUND_C == pytest.approx(10.715167512214395, rel=1e-14)


# --- ordering -------------------------------------------------------------------


def test_ordering_sphere_margin_zero(sphere_run):
    traj, _ = sphere_run
    rep = ordering_monitor(traj)
    assert rep.passed is True
    assert rep.worst_margin == pytest.approx(0.0, abs=1e-15)


def test_ordering_adversarial_precondition():
    ts = np.linspace(0, 1, 30)
    traj = make_trajectory(ts, 2.0 - ts, ord_ba=-0.5)
    rep = ordering_monitor(traj)
    assert rep.passed is None
    assert "precondition" in rep.notes


def test_ordering_detects_violation():
    ts = np.linspace(0, 1, 30)
    ord_ba = np.linspace(0.5, -0.2, 30)  # ordered initially, crosses later
    traj = make_trajectory(ts, 2.0 - ts, ord_ba=ord_ba, ord_cb=1.0)
    rep = ordering_monitor(traj)
    assert rep.passed is False
    assert rep.worst_margin == pytest.approx(-0.2)
    assert rep.worst_location[0] == pytest.approx(1.0)


# --- eccentricity ----------------------------------------------------------------


def test_eccentricity_sphere_identically_zero(sphere_run):
    traj, _ = sphere_run
    rep = eccentricity_monitor(traj)
    assert rep.passed is True
    assert rep.worst_margin == pytest.approx(0.0, abs=1e-15)


def test_eccentricity_biaxial_first_quantity_zero():
    st = biaxial(1.0, 1.5).build(PeriodicGrid(48))
    traj, _ = evolve(st, FlowConfig(t_max=0.02))
    assert np.all(traj.series("ecc_bc") == 0.0)
    assert eccentricity_monitor(traj).passed is True


def test_eccentricity_detects_growth():
    ts = np.linspace(0, 1, 30)
    ecc = np.full(30, 0.1)
    ecc[-1] = 0.5  # a jump well above any discretization slack
    traj = make_trajectory(ts, 2.0 - ts, ecc_bc=ecc)
    rep = eccentricity_monitor(traj)
    assert rep.passed is False
    assert rep.worst_margin == pytest.approx(-0.4)


# --- ratio ------------------------------------------------------------------------


def test_ratio_round_reduces_to_identity(sphere_run):
    traj, _ = sphere_run
    rep = ratio_monitor(traj)
    assert rep.passed is True
    assert rep.worst_margin == pytest.approx(0.0, abs=1e-12)


def test_ratio_refined_envelope_is_slack_at_start():
    # lam = 1.5: envelope(0) = e^1.25 * 1.25 + 1 = 5.3629... >= lam^2 = 2.25
    lam = 1.5
    envelope0 = math.exp(lam**2 - 1.0) * (lam**2 - 1.0) + 1.0
    assert envelope0 == pytest.approx(5.362928696827302, rel=1e-14)
    assert envelope0 >= lam**2
    ts = np.linspace(0, 0.5, 30)
    traj = make_trajectory(ts, 2.0 - ts, ratio_max=lam, c_max=3.0, ord_cb=0.1, ord_ba=0.1)
    rep = ratio_monitor(traj)
    assert rep.passed is True
    assert f"lam={lam:.6g}" in rep.notes


def test_ratio_detects_violation():
    ts = np.linspace(0, 1, 30)
    traj = make_trajectory(
        ts, 2.0 - ts, ratio_max=np.linspace(1.5, 2.5, 30), c_max=3.0, ord_ba=0.1, ord_cb=0.1
    )
    rep = ratio_monitor(traj)
    assert rep.passed is False
    assert rep.worst_margin <= -1.0
    assert "plain_margin=-1.000e+00" in rep.notes


# --- amin two-sided bounds ----------------------------------------------------------


def test_amin_sphere_upper_bound_tight(sphere_run):
    traj, report = sphere_run
    rep = amin_bound_monitor(traj, report)
    assert rep.passed is True
    # equality case: 4(T - t) - a_min^2 = 0 up to fit error, and the lower
    # bound 2(T - t) stays strictly inside
    assert abs(rep.worst_margin) <= 1e-6
    assert "lower_margin" in rep.notes


def test_amin_requires_report():
    ts = np.linspace(0, 1, 30)
    traj = make_trajectory(ts, 2.0 - ts)
    rep = amin_bound_monitor(traj, None)
    assert rep.passed is None


def test_amin_detects_too_fast_pinch():
    # a_min^2 = 6(T - t) decays at rate 6 > 4: violates the upper bound
    T = 1.0
    ts = np.linspace(0.0, 0.99, 120)
    traj = make_trajectory(ts, np.sqrt(6.0 * (T - ts)))
    from neckpinch.flow import estimate_singular_time

    report = estimate_singular_time(traj)
    rep = amin_bound_monitor(traj, report)
    assert rep.passed is False


# --- cmax -----------------------------------------------------------------------------


def test_cmax_sphere_equality(sphere_run):
    traj, _ = sphere_run
    rep = cmax_bound_monitor(traj)
    assert rep.passed is True
    assert abs(rep.worst_margin) <= 1e-6 or rep.worst_margin > 0
    assert "stop_margin" in rep.notes


def test_cmax_detects_slow_decay():
    # c_max^2 = c0^2 - 2t decays slower than the required rate 4
    ts = np.linspace(0.0, 1.0, 60)
    c = np.sqrt(9.0 - 2.0 * ts)
    traj = make_trajectory(ts, 2.0 - ts, c_max=c, ord_ba=0.1, ord_cb=0.1, ratio_max=1.5)
    rep = cmax_bound_monitor(traj)
    assert rep.passed is False


# --- derivative bounds -----------------------------------------------------------------


def test_derivative_bounds_z_constant_data():
    st = biaxial(1.0, 1.5).build(PeriodicGrid(48))
    traj, _ = evolve(st, FlowConfig(t_max=0.02))
    rep = derivative_bound_monitor(traj)
    assert rep.passed is True
    # all sups are identically zero, so the binding margin is the smallest
    # universal constant
    assert rep.worst_margin == pytest.approx(DERIV_BOUND_B, rel=1e-12)


def test_derivative_bounds_not_claimed_for_large_ratio():
    st = get_preset("fig-a").build(PeriodicGrid(48))
    traj, _ = evolve(st, FlowConfig(t_max=0.01))
    rep = derivative_bound_monitor(traj)
    assert rep.passed is None
    assert ">= 2" in rep.notes


def test_derivative_bounds_mild_preset_passes():
    st = get_preset("mild").build(PeriodicGrid(64))
    traj, _ = evolve(st, FlowConfig(t_max=0.05))
    rep = derivative_bound_monitor(traj)
    assert rep.passed is True


# --- scalar curvature minimum -------------------------------------------------------------


def test_scalar_min_sphere(sphere_run):
    traj, _ = sphere_run
    rep = scalar_min_monitor(traj)
    assert rep.passed is True
    assert rep.worst_margin == pytest.approx(1.5, rel=1e-10)  # S = 6/r^2 at r = 2


def test_scalar_min_large_flat_radii_stay_nonnegative():
    # torus-like data: huge z-constant radii give a small positive S that the
    # flow keeps nonnegative
    st = metric_state(PeriodicGrid(32), 0.0, 1.0, 10.0, 11.0, 12.0)
    s0 = scalar_curvature(st)
    assert 0.0 < s0.min() < 0.1
    traj, _ = evolve(st, FlowConfig(t_max=0.5))
    rep = scalar_min_monitor(traj)
    assert rep.passed is True


def test_scalar_min_precondition_violated():
    ts = np.linspace(0, 1, 25)
    traj = make_trajectory(ts, 2.0 - ts, s_min=-1.0)
    rep = scalar_min_monitor(traj)
    assert rep.passed is None


def test_scalar_min_detects_sign_loss():
    ts = np.linspace(0, 1, 25)
    traj = make_trajectory(ts, 2.0 - ts, s_min=np.linspace(1.0, -0.5, 25))
    rep = scalar_min_monitor(traj)
    assert rep.passed is False


# --- Type I classification ------------------------------------------------------------------


def test_type1_sphere_band_is_two(sphere_run):
    traj, report = sphere_run
    rep = type1_classifier(traj, report)
    assert rep.classification == "TypeI"
    assert rep.ratio_band[0] == pytest.approx(2.0, abs=1e-3)
    assert rep.ratio_band[1] == pytest.approx(2.0, abs=1e-3)
    # (T-t)|Rm| = sqrt(6)/4 on the shrinking sphere
    assert rep.sup_tml_rm == pytest.approx(math.sqrt(6.0) / 4.0, rel=1e-3)
    assert abs(rep.trend_slope) <= 0.01


def _pinch_series(T=1.0, n=400):
    u = np.logspace(0, -4, n)  # T - t from 1 down to 1e-4
    ts = T - u
    return ts, 2.0 * np.sqrt(u), u


def test_type1_synthetic_type_two_is_inconclusive():
    ts, a_min, u = _pinch_series()
    traj = make_trajectory(ts, a_min, rm_max=u**-1.5)
    from neckpinch.flow import estimate_singular_time

    report = estimate_singular_time(traj)
    rep = type1_classifier(traj, report)
    assert rep.classification == "Inconclusive"
    assert rep.trend_slope == pytest.approx(-0.5, abs=0.02)


def test_type1_synthetic_type_one():
    ts, a_min, u = _pinch_series()
    traj = make_trajectory(ts, a_min, rm_max=0.375 / u)
    from neckpinch.flow import estimate_singular_time

    report = estimate_singular_time(traj)
    rep = type1_classifier(traj, report)
    assert rep.classification == "TypeI"
    assert abs(rep.trend_slope) <= 0.01


def test_type1_without_report_is_inconclusive():
    ts = np.linspace(0, 1, 30)
    traj = make_trajectory(ts, 2.0 - ts)
    rep = type1_classifier(traj, None)
    assert rep.classification == "Inconclusive"


# --- concavity evidence -----------------------------------------------------------------------


def test_concavity_linear_series_passes():
    ts = np.linspace(0.0, 0.9, 200)
    traj = make_trajectory(ts, np.sqrt(4.0 - 4.0 * ts))
    rep = concavity_check(traj)
    assert rep.passed is True
    assert rep.worst_margin == pytest.approx(0.0, abs=1e-12)


def test_concavity_convex_series_fails():
    T = 1.0
    ts = np.linspace(0.0, 0.9, 1000)
    traj = make_trajectory(ts, T - ts)  # a_min^2 = (T-t)^2 is convex
    rep = concavity_check(traj)
    assert rep.passed is False


def test_concavity_needs_enough_samples():
    ts = np.linspace(0.0, 0.5, 10)
    traj = make_trajectory(ts, 2.0 - ts)
    rep = concavity_check(traj)
    assert rep.passed is None


def test_concavity_sphere(sphere_run):
    traj, _ = sphere_run
    assert concavity_check(traj).passed is True


# --- curvature-evolution residuals --------------------------------------------------------------


@pytest.mark.parametrize("which", ["k01", "k02", "k03"])
def test_evolution_residual_vanishes_on_homogeneous_data(which):
    # z-constant data keeps K_0i = 0 on both sides of the evolution equation
    st = metric_state(PeriodicGrid(32), 0.0, 1.0, 1.0, 2.0, 3.0)
    traj, _ = evolve(st, FlowConfig(t_max=5e-3, fixed_dt=5e-4, snapshot_stride=1))
    rep = evolution_residual(traj, which)
    assert rep.passed is True
    assert abs(rep.worst_margin) <= 1e-12


def test_evolution_residual_round_sphere(sphere_run):
    traj, _ = sphere_run
    rep = evolution_residual(traj, "k01")
    assert abs(rep.worst_margin) <= 1e-12


def test_evolution_residual_needs_snapshots():
    ts = np.linspace(0, 1, 30)
    traj = make_trajectory(ts, 2.0 - ts)
    rep = evolution_residual(traj, "k01")
    assert rep.passed is None


# --- maximum-principle model problem --------------------------------------------------------------


def test_heat_equation_sup_is_nonincreasing():
    # model problem behind the monitor semantics: under u_t = u'' on the
    # circle, the spatial sup never rises and the inf never falls
    g = PeriodicGrid(64)
    u = np.sin(g.z) + 0.3 * np.sin(3 * g.z) + 0.1
    dt = 0.2 * g.dz**2
    sup0, inf0 = u.max(), u.min()
    prev_sup = sup0
    for _ in range(400):
        u = u + dt * dz_values(dz_values(u, g.dz), g.dz)
        assert u.max() <= prev_sup + 1e-12
        assert u.max() <= sup0 + 1e-12
        assert u.min() >= inf0 - 1e-12
        prev_sup = u.max()


# --- dispatch -----------------------------------------------------------------------------------


def test_run_monitors_dispatch(sphere_run):
    traj, report = sphere_run
    reports = run_monitors(traj, report)
    assert set(reports) == {
        "ordering",
        "eccentricity",
        "ratio",
        "amin_bound",
        "cmax_bound",
        "derivative_bound",
        "scalar_min",
        "concavity",
    }
    assert all(rep.passed is not False for rep in reports.values())


def test_run_monitors_rejects_unknown(sphere_run):
    traj, report = sphere_run
    with pytest.raises(ValueError, match="unknown monitor 'no_such_monitor'"):
        run_monitors(traj, report, names=("no_such_monitor",))
    with pytest.raises(ConfigError, match="unknown monitor 'no_such_monitor'"):
        config_from_dict({"monitors_enabled": ["no_such_monitor"]})


@pytest.mark.parametrize("name", list(MONITORS))
def test_every_registered_monitor_is_configurable_and_runs(sphere_run, name):
    traj, report = sphere_run
    assert config_from_dict({"monitors_enabled": [name]}).monitors_enabled == (name,)
    reports = run_monitors(traj, report, [name])
    assert list(reports) == [name]
    assert reports[name].name == name
    assert reports[name].passed is True


def test_monitors_are_deterministic(sphere_run):
    traj, report = sphere_run
    a = ordering_monitor(traj)
    b = ordering_monitor(traj)
    assert a == b


def test_tolerance_scales_with_refinement():
    ts = np.linspace(0, 1, 30)
    coarse = make_trajectory(ts, 2.0 - ts, grid_n=32)
    fine = make_trajectory(ts, 2.0 - ts, grid_n=64)
    assert tolerance(fine) < tolerance(coarse)
