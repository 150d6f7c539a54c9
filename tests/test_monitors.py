import gc
import math
import weakref

import numpy as np
import pytest

from neckpinch.config import config_from_dict
from neckpinch import monitors
from neckpinch.flow import FlowConfig, SingularityReport, _flow_rhs, evolve, tangential_speed
from neckpinch.grid import DataError, MetricState, PeriodicGrid, arclength_jet, z_jet
from neckpinch.monitors import (
    DERIV_BOUND_A,
    DERIV_BOUND_B,
    DERIV_BOUND_C,
    MESH_SLACK,
    MONITORS,
    _k0i_evolution_rhs,
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
from reference import dz_stencil, scalar_curvature


@pytest.fixture(scope="module")
def sphere_run():
    st = MetricState(PeriodicGrid(48), 0.0, 1.0, (2.0, 2.0, 2.0))
    return evolve(st, FlowConfig(cfl_safety=0.1, a_min_stop=1e-2))


# --- theorem constants ---------------------------------------------------------


def test_constants_at_one():
    c = constants(1.0)
    assert c["lambda0"] == pytest.approx(3.0)
    assert c["d_lower"] == pytest.approx(2.0)
    assert c["frak_c"] == pytest.approx(3.0550504633038935, rel=1e-14)


def test_constants_lambda0_saturates():
    assert constants(1.5)["lambda0"] == pytest.approx(3.0)  # 4(2.25) - 5.0625 = 3.9375 > 3


def test_constants_near_two():
    assert constants(1.9)["lambda0"] == pytest.approx(1.4079, abs=1e-10)
    # lambda0 = 4 lam^2 - lam^4 reaches 0 at lam = 2: no constants are claimed from there
    assert constants(2.0) is None
    assert constants(12.0) is None


def test_constants_rejects_below_one():
    with pytest.raises(ValueError):
        constants(0.99)


def test_constants_properties_on_unit_interval():
    for lam in np.linspace(1.0, 1.999, 40):
        c = constants(float(lam))
        assert 0.0 < c["lambda0"] <= 3.0
        assert c["d_lower"] > 0.0


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
    rep = ordering_monitor(traj, None)
    assert rep.passed is True
    assert rep.worst_margin == pytest.approx(0.0, abs=1e-15)


def test_ordering_adversarial_precondition():
    ts = np.linspace(0, 1, 30)
    traj = make_trajectory(ts, 2.0 - ts, ord_ba=-0.5)
    rep = ordering_monitor(traj, None)
    assert rep.passed is None
    assert "precondition" in rep.notes


def test_ordering_detects_violation():
    ts = np.linspace(0, 1, 30)
    ord_ba = np.linspace(0.5, -0.2, 30)  # ordered initially, crosses later
    traj = make_trajectory(ts, 2.0 - ts, ord_ba=ord_ba, ord_cb=1.0)
    rep = ordering_monitor(traj, None)
    assert rep.passed is False
    assert rep.worst_margin == pytest.approx(-0.2)
    assert rep.worst_location[0] == pytest.approx(1.0)


# --- eccentricity ----------------------------------------------------------------


def test_eccentricity_sphere_identically_zero(sphere_run):
    traj, _ = sphere_run
    rep = eccentricity_monitor(traj, None)
    assert rep.passed is True
    assert rep.worst_margin == pytest.approx(0.0, abs=1e-15)


def test_eccentricity_biaxial_first_quantity_zero():
    st = biaxial(1.0, 1.5).build(PeriodicGrid(48))
    traj, _ = evolve(st, FlowConfig(t_max=0.02))
    assert np.all(traj.samples["ecc_bc"] == 0.0)
    assert eccentricity_monitor(traj, None).passed is True


def test_eccentricity_detects_growth():
    ts = np.linspace(0, 1, 30)
    ecc = np.full(30, 0.1)
    ecc[-1] = 0.5  # a jump well above any discretization slack
    traj = make_trajectory(ts, 2.0 - ts, ecc_bc=ecc)
    rep = eccentricity_monitor(traj, None)
    assert rep.passed is False
    assert rep.worst_margin == pytest.approx(-0.4)


# --- ratio ------------------------------------------------------------------------


def test_ratio_round_reduces_to_identity(sphere_run):
    traj, _ = sphere_run
    rep = ratio_monitor(traj, None)
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
    rep = ratio_monitor(traj, None)
    assert rep.passed is True
    assert f"lam={lam:.6g}" in rep.notes


def test_ratio_detects_violation():
    ts = np.linspace(0, 1, 30)
    traj = make_trajectory(
        ts, 2.0 - ts, ratio_max=np.linspace(1.5, 2.5, 30), c_max=3.0, ord_ba=0.1, ord_cb=0.1
    )
    rep = ratio_monitor(traj, None)
    assert rep.passed is False
    assert rep.worst_margin <= -1.0
    assert "plain_margin=-1.000e+00" in rep.notes


def test_ratio_reports_where_the_refined_envelope_is_worst():
    # lam = 1.5, c_max(0) = 2: the plain margin is 0 throughout, while the
    # envelope e^1.25 * 1.25 * (1 - t)^2 + 1 - 2.25 falls to -1.25 at t = 1
    ts = np.linspace(0, 1, 30)
    traj = make_trajectory(ts, 2.0 - ts, ratio_max=1.5, c_max=2.0, ord_ba=0.1, ord_cb=0.1)
    rep = ratio_monitor(traj, None)
    assert rep.passed is False
    assert rep.worst_margin == pytest.approx(-1.25)
    assert rep.worst_location == (1.0, 0)


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


def test_amin_lower_bound_needs_nonnegative_initial_scalar_curvature():
    # lam = 1.2 < 2, but initial min S = -tol/2 < 0: neither the lower bound
    # a_min^2 >= D(T-t) nor min S >= 0 is claimed, even within the tolerance
    ts = np.linspace(0.0, 0.99, 120)
    a_min = np.sqrt(4.0 * (1.0 - ts))
    tol = tolerance(make_trajectory(ts, a_min))
    traj = make_trajectory(ts, a_min, ratio_max=1.2, s_min=-tol / 2.0)
    from neckpinch.flow import estimate_singular_time

    rep = amin_bound_monitor(traj, estimate_singular_time(traj))
    assert "lower_bound=n/a" in rep.notes
    assert "lower_margin" not in rep.notes
    assert scalar_min_monitor(traj, None).passed is None


def test_amin_slope_only_violation_is_the_worst_margin():
    # T = 5: a_min^2 = 16, 12.5, 12 keeps 4(T - t) - a_min^2 >= 3.5 and the
    # lower bound 2(T - t) well inside, but falls at rate 5 > 4 over [1, 1.1]
    ts = np.array([0.0, 1.0, 1.1])
    traj = make_trajectory(ts, np.sqrt([16.0, 12.5, 12.0]))
    report = SingularityReport(t_estimate=5.0, fit_window=(0.0, 1.1), fit_residual=0.0)
    rep = amin_bound_monitor(traj, report)
    assert rep.passed is False
    assert rep.worst_margin == pytest.approx(-1.0)
    assert rep.worst_location == (pytest.approx(1.1), 0)
    assert "lower_margin" in rep.notes


def test_amin_single_sample_keeps_an_infinite_slope_margin():
    traj = make_trajectory([0.0], [2.0])
    report = SingularityReport(t_estimate=1.0, fit_window=(0.0, 0.0), fit_residual=0.0)
    rep = amin_bound_monitor(traj, report)
    assert "slope_margin=inf " in rep.notes
    assert rep.worst_margin == pytest.approx(0.0) and rep.worst_location == (0.0, 0)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 4: at n = 34 fig-b's necks at z = pi/2 and 3 pi/2 sit half a "
    "cell off the nodes, and a_min read at the nodes fails the slope margin",
)
def test_fig_b_off_node_necks_keep_the_amin_bound():
    traj, report = evolve(get_preset("fig-b").build(PeriodicGrid(34)), FlowConfig())
    assert amin_bound_monitor(traj, report).passed is True


def test_amin_and_concavity_need_ordered_data():
    # a_min^2 = 6.25 (1 - t)^2 starts above 4T and is convex: both bounds fail
    # on ordered data, and neither is claimed once b < a at t = 0, where a_min
    # need not be the pinching radius
    ts = np.linspace(0.0, 0.99, 120)
    report = SingularityReport(t_estimate=1.0, fit_window=(0.0, 0.99), fit_residual=0.0)
    for ord_ba, passed in ((0.0, False), (-0.5, None)):
        traj = make_trajectory(ts, 2.5 * (1.0 - ts), ord_ba=ord_ba)
        for rep in (amin_bound_monitor(traj, report),
                    concavity_check(traj, report)):
            assert rep.passed is passed
            assert ("not ordered" in rep.notes) is (passed is None)


# --- cmax -----------------------------------------------------------------------------


def test_cmax_sphere_equality(sphere_run):
    traj, _ = sphere_run
    rep = cmax_bound_monitor(traj, None)
    assert rep.passed is True
    assert abs(rep.worst_margin) <= 1e-6 or rep.worst_margin > 0
    assert rep.notes.startswith("bound_margin_past_first=") and " bound_margin=" in rep.notes
    assert "slope_margin=" in rep.notes


def test_cmax_detects_slow_decay():
    # c_max^2 = c0^2 - 2t decays slower than the required rate 4
    ts = np.linspace(0.0, 1.0, 60)
    c = np.sqrt(9.0 - 2.0 * ts)
    traj = make_trajectory(ts, 2.0 - ts, c_max=c, ord_ba=0.1, ord_cb=0.1, ratio_max=1.5)
    rep = cmax_bound_monitor(traj, None)
    assert rep.passed is False


def test_cmax_slope_only_violation_is_the_worst_margin():
    # c_max^2 = 16, 8, 7.7 stays below 16 - 4t and stops before t = 4, but
    # falls at rate 3 < 4 over [1, 1.1]
    ts = np.array([0.0, 1.0, 1.1])
    c = np.sqrt([16.0, 8.0, 7.7])
    traj = make_trajectory(ts, 2.0 - ts, c_max=c, ord_ba=0.1, ord_cb=0.1)
    rep = cmax_bound_monitor(traj, None)
    assert rep.passed is False
    assert rep.worst_margin == pytest.approx(-1.0)
    assert rep.worst_location == (pytest.approx(1.1), 0)


def test_cmax_margins_count_time_from_the_first_sample():
    # On a clock that starts at t0 = -1 the margins read t - t0: bound 0 at
    # the first sample and slope 4 (anchored at t = 0 the bound read 4).
    ts = np.array([-1.0, 0.0, 0.5])
    traj = make_trajectory(ts, 2.0 - ts, c_max=np.sqrt([16.0, 8.0, 4.0]))
    rep = cmax_bound_monitor(traj, None)
    assert rep.passed is True
    assert rep.notes.startswith(
        "bound_margin_past_first=4.000e+00 bound_margin=0.000e+00 slope_margin=4.000e+00 tol="
    )
    assert rep.worst_margin == 0.0 and rep.worst_location == (-1.0, 0)


def test_cmax_run_past_its_latest_stop_fails_on_the_bound():
    # c_max(0)^2 / 4 = 1 after t0 = 0.5 bounds the stop time by 1.5. A run to
    # t = 2.5 with c_max^2 > 0 must also break the slope bound (worst -3.75
    # over [1.5, 2.5]); its worst margin is the bound margin at the last
    # sample, 4 - 4 * 2 - c_max^2 = -4.25, with no separate stop margin
    ts = np.array([0.5, 1.0, 1.5, 2.5])
    c = np.sqrt([4.0, 2.0, 0.5, 0.25])
    traj = make_trajectory(ts, 2.0 - ts, c_max=c, ord_ba=0.1, ord_cb=0.1)
    rep = cmax_bound_monitor(traj, None)
    assert rep.passed is False
    assert rep.worst_margin == pytest.approx(-4.25)
    assert rep.worst_location == (2.5, 0)


def test_round_sphere_started_late_passes_the_cmax_and_ratio_bounds():
    # evolve accepts any starting t; anchored at t = 0 instead of the first
    # sample, a start at t0 = 0.5 read bound_margin -4 t0 = -2.000
    st = MetricState(PeriodicGrid(32), 0.5, 1.0, (2.0, 2.0, 2.0))
    traj, report = evolve(st, FlowConfig())
    for name, rep in run_monitors(traj, report, ["cmax_bound", "ratio"]).items():
        assert rep.passed is True, (name, rep.notes)
        assert rep.worst_location[0] >= 0.5


def test_ratio_and_cmax_note_their_smallest_margin_past_the_first_sample():
    # both bounds are anchored at the first sample, so their worst margin
    # reads 0 on every run; past it, fig-a keeps a positive margin
    traj, report = evolve(get_preset("fig-a").build(PeriodicGrid(64)), FlowConfig())
    reps = run_monitors(traj, report, ["ratio", "cmax_bound"])
    for name, key in [("ratio", "plain_margin"), ("cmax_bound", "bound_margin")]:
        notes = dict(token.split("=") for token in reps[name].notes.split())
        assert reps[name].worst_margin == 0.0 and float(notes[key]) == 0.0
        assert float(notes[f"{key}_past_first"]) > 0.0


def test_cmax_single_sample_keeps_an_infinite_slope_margin():
    traj = make_trajectory([0.0], [2.0], c_max=3.0)
    rep = cmax_bound_monitor(traj, None)
    assert rep.notes.startswith(
        "bound_margin_past_first=n/a bound_margin=0.000e+00 slope_margin=inf tol="
    )
    assert rep.worst_margin == 0.0 and rep.worst_location == (0.0, 0)


# --- derivative bounds -----------------------------------------------------------------


def test_derivative_bounds_z_constant_data():
    st = biaxial(1.0, 1.5).build(PeriodicGrid(48))
    traj, _ = evolve(st, FlowConfig(t_max=0.02))
    rep = derivative_bound_monitor(traj, None)
    assert rep.passed is True
    # all sups are identically zero, so the binding margin is the smallest
    # universal constant
    assert rep.worst_margin == pytest.approx(DERIV_BOUND_B, rel=1e-12)


def test_derivative_bounds_not_claimed_for_large_ratio():
    st = get_preset("fig-a").build(PeriodicGrid(48))
    traj, _ = evolve(st, FlowConfig(t_max=0.01))
    rep = derivative_bound_monitor(traj, None)
    assert rep.passed is None
    assert ">= 2" in rep.notes


def test_derivative_bounds_mild_preset_passes():
    st = get_preset("mild").build(PeriodicGrid(64))
    traj, _ = evolve(st, FlowConfig(t_max=0.05))
    rep = derivative_bound_monitor(traj, None)
    assert rep.passed is True


# --- scalar curvature minimum -------------------------------------------------------------


def test_scalar_min_sphere(sphere_run):
    traj, _ = sphere_run
    rep = scalar_min_monitor(traj, None)
    assert rep.passed is True
    assert rep.worst_margin == pytest.approx(1.5, rel=1e-10)  # S = 6/r^2 at r = 2


def test_scalar_min_large_flat_radii_stay_nonnegative():
    # torus-like data: huge z-constant radii give a small positive S that the
    # flow keeps nonnegative
    st = MetricState(PeriodicGrid(32), 0.0, 1.0, (10.0, 11.0, 12.0))
    s0 = scalar_curvature(st)
    assert 0.0 < s0.min() < 0.1
    traj, _ = evolve(st, FlowConfig(t_max=0.5))
    rep = scalar_min_monitor(traj, None)
    assert rep.passed is True


def test_scalar_min_precondition_violated():
    ts = np.linspace(0, 1, 25)
    traj = make_trajectory(ts, 2.0 - ts, s_min=-1.0)
    rep = scalar_min_monitor(traj, None)
    assert rep.passed is None


def test_scalar_min_detects_sign_loss():
    ts = np.linspace(0, 1, 25)
    traj = make_trajectory(ts, 2.0 - ts, s_min=np.linspace(1.0, -0.5, 25))
    rep = scalar_min_monitor(traj, None)
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
    rep = concavity_check(traj, None)
    assert rep.passed is True
    assert rep.worst_margin == pytest.approx(0.0, abs=1e-12)


def test_concavity_convex_series_fails():
    T = 1.0
    ts = np.linspace(0.0, 0.9, 1000)
    traj = make_trajectory(ts, T - ts)  # a_min^2 = (T-t)^2 is convex
    rep = concavity_check(traj, None)
    assert rep.passed is False


def test_concavity_needs_enough_samples():
    ts = np.linspace(0.0, 0.5, 10)
    traj = make_trajectory(ts, 2.0 - ts)
    rep = concavity_check(traj, None)
    assert rep.passed is None


def test_concavity_sphere(sphere_run):
    traj, _ = sphere_run
    assert concavity_check(traj, None).passed is True


# --- curvature-evolution residuals --------------------------------------------------------------


@pytest.mark.parametrize("which", ["k01", "k02", "k03"])
def test_evolution_residual_vanishes_on_homogeneous_data(which):
    # z-constant data keeps K_0i = 0 on both sides of the evolution equation
    st = MetricState(PeriodicGrid(32), 0.0, 1.0, (1.0, 2.0, 3.0))
    traj, _ = evolve(st, FlowConfig(t_max=5e-3))
    rep = evolution_residual(traj, None, which)
    assert rep.passed is True
    assert abs(rep.worst_margin) <= 1e-12


@pytest.mark.parametrize("preset", ["fig-a", "fig-b"])
@pytest.mark.parametrize("which", ["k01", "k02", "k03"])
def test_evolution_residual_converges_at_the_stencil_order(preset, which):
    # dt K_0i from the flow's right-hand side is semi-discrete, like the
    # evolution RHS, so the defect is the 4th-order spatial error alone
    residuals = []
    for n in (64, 128, 256):
        traj, _ = evolve(get_preset(preset).build(PeriodicGrid(n)), FlowConfig(t_max=0.0))
        rep = evolution_residual(traj, None, which)
        assert rep.passed is True
        residuals.append(-rep.worst_margin)
    for coarse, fine in zip(residuals, residuals[1:]):
        assert math.log2(coarse / fine) >= 3.5


def test_evolution_residual_round_sphere(sphere_run):
    traj, _ = sphere_run
    rep = evolution_residual(traj, None, "k01")
    assert abs(rep.worst_margin) <= 1e-12


def test_evolution_residual_rejects_an_unknown_row():
    ts = np.linspace(0, 1, 30)
    traj = make_trajectory(ts, 2.0 - ts)
    with pytest.raises(ValueError, match="k04"):
        evolution_residual(traj, None, "k04")


def residual_alone(traj, row):
    """One evolution residual evaluated apart from _k0i_defects: its own jet,
    _flow_rhs computing its own W, and W computed again for the evolution
    RHS. (-defect, index)."""
    state = traj.snapshots[0]
    phi = state.phi
    zj = arclength_jet(state)
    dx, c, _ = _flow_rhs(zj, phi)
    x, xpp = zj[0], zj[2]
    dxpp = z_jet(np.fft.rfft(dx), phi)[2]
    dk_dt = (xpp * dx / x - dxpp + 2.0 * c * xpp) / x
    k = -xpp / x
    w, _ = tangential_speed(phi, -(k[0] + k[1] + k[2]))
    defect = np.abs(dk_dt - _k0i_evolution_rhs(zj, phi, w))[row]
    idx = int(np.argmax(defect))
    return -float(defect[idx]), idx


@pytest.mark.parametrize("preset", ["fig-a", "fig-b"])
def test_evolution_residuals_evaluate_once_each(monkeypatch, preset):
    traj, _ = evolve(get_preset(preset).build(PeriodicGrid(64)), FlowConfig(t_max=0.0))
    calls = []

    def flow_rhs(*args):
        calls.append(len(calls))
        return _flow_rhs(*args)

    monkeypatch.setattr(monitors, "_flow_rhs", flow_rhs)
    names = ["evolution_residual_k01", "evolution_residual_k02", "evolution_residual_k03"]
    reports = run_monitors(traj, None, names)
    # each monitor evaluates all three rows once and keeps its own
    assert len(calls) == 3
    for row, name in enumerate(names):
        margin, idx = residual_alone(traj, row)
        assert repr(reports[name].worst_margin) == repr(margin)
        assert reports[name].worst_location == (0.0, idx)


def test_residual_monitors_keep_no_reference_to_a_finished_run():
    traj, _ = evolve(get_preset("fig-b").build(PeriodicGrid(64)), FlowConfig())
    names = ["evolution_residual_k01", "evolution_residual_k02", "evolution_residual_k03"]
    reports = run_monitors(traj, None, names)
    assert all(rep.passed for rep in reports.values())
    ref = weakref.ref(traj)
    del traj
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("preset", ["fig-a", "fig-c"])
def test_k0i_evolution_rhs_follows_the_partner_table(preset):
    # the equation is written once for a row and its partners: swapping the
    # radii b and c swaps the K_02 and K_03 rows and leaves K_01 as it was
    st = get_preset(preset).build(PeriodicGrid(64))
    phi = st.phi
    zj = arclength_jet(st)
    q = zj[2] / zj[0]
    w, _ = tangential_speed(phi, q[0] + q[1] + q[2])
    rhs = _k0i_evolution_rhs(zj, phi, w)
    swapped = _k0i_evolution_rhs(zj[:, [0, 2, 1]], phi, w)
    assert rhs.shape == (3, 64)
    scale = np.abs(rhs).max()
    assert np.abs(swapped - rhs[[0, 2, 1]]).max() <= 1e-13 * scale
    assert np.abs(rhs[1] - rhs[2]).max() > 1e-3 * scale


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
        u = u + dt * dz_stencil(dz_stencil(u, g.dz), g.dz)
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
    with pytest.raises(DataError, match="unknown monitor 'no_such_monitor'"):
        config_from_dict({"monitors_enabled": ["no_such_monitor"]})


@pytest.mark.parametrize("name", list(MONITORS))
def test_every_registered_monitor_is_configurable_and_runs(sphere_run, name):
    traj, report = sphere_run
    assert config_from_dict({"monitors_enabled": [name]}).monitors_enabled == (name,)
    reports = run_monitors(traj, report, [name])
    assert list(reports) == [name]
    assert reports[name].passed is True


def test_monitors_are_deterministic(sphere_run):
    traj, report = sphere_run
    a = ordering_monitor(traj, None)
    b = ordering_monitor(traj, None)
    assert a == b


def test_tolerance_scales_with_refinement():
    ts = np.linspace(0, 1, 30)
    coarse = make_trajectory(ts, 2.0 - ts, grid_n=32)
    fine = make_trajectory(ts, 2.0 - ts, grid_n=64)
    assert tolerance(fine) < tolerance(coarse)


def test_tolerance_is_a_grid_term_independent_of_the_step():
    g = PeriodicGrid(32)
    grid_tol = g.dz**4 + MESH_SLACK * g.dz**2
    for cfl in (0.2, 0.1):
        st = MetricState(g, 0.0, 1.0, (2.0, 2.0, 2.0))
        traj, _ = evolve(st, FlowConfig(cfl_safety=cfl, a_min_stop=1.0))
        assert tolerance(traj) == pytest.approx(grid_tol, rel=1e-15)
    # the cell is the arclength cell phi_bar dz of the first snapshot
    traj, _ = evolve(MetricState(g, 0.0, 2.0, (2.0, 2.0, 2.0)), FlowConfig(a_min_stop=1.0))
    assert tolerance(traj) == pytest.approx(g.dz**4 + MESH_SLACK * (2.0 * g.dz) ** 2, rel=1e-15)


def test_tolerance_reads_the_first_snapshot():
    # dz and phi_bar both come from snapshots[0], whatever a later one holds
    traj = make_trajectory(np.linspace(0.0, 1.0, 5), np.linspace(1.0, 0.5, 5))
    first = MetricState(PeriodicGrid(48), 0.0, 0.7, (1.0, 2.0, 3.0))
    traj.snapshots[:] = [first, MetricState(PeriodicGrid(96), 1.0, 5.0, (1.0, 1.0, 1.0))]
    dz = first.grid.dz
    mesh = first.phi * dz
    assert tolerance(traj) == dz**4 + MESH_SLACK * mesh * mesh
