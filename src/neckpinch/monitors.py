"""Runtime assertion of the theorem bounds along a completed trajectory.

Each monitor is a pure function of trajectory data: it checks one proved
bound (ordering preservation, eccentricity decay, ratio bounds, the two-sided
pinch-rate estimates, derivative bounds, scalar-curvature positivity), records
the worst signed margin together with where it occurred, and never aborts a
run. Tolerances follow the step sizes, tol = kappa * (dz^4 + mean dt), so
refining the grid and the time step tightens every assertion. They do not
measure the discretization error: a scheme that takes longer steps gets a
wider tolerance even where its error is smaller. A violated bound is
reported, not raised: it is the interesting output. Monitors read the
trajectory's series, and MONITORS maps every monitor name to its function
for run_monitors and the config check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature import jet, radii, sectional_curvatures
from .flow import SingularityReport, Trajectory, tangential_speed
from .grid import STENCIL_ORDER, MetricState

# Universal first-derivative bounds for ordered data with max(c/a) < 2:
# sup|a'| <= 280 sqrt(3)/9, sup|b'| <= 4 sqrt(57)/3, sup|c'| <= 10 sqrt(93)/9
# (each competes against the initial sup).
DERIV_BOUND_A = 280.0 * math.sqrt(3.0) / 9.0
DERIV_BOUND_B = 4.0 * math.sqrt(57.0) / 3.0
DERIV_BOUND_C = 10.0 * math.sqrt(93.0) / 9.0

#: Ordering is considered satisfied at t=0 down to this slack.
_PRECONDITION_SLACK = 1e-12

#: Type I test: the largest |slope| of log((T-t) max|Rm|) against log(T-t)
#: over the final decade that still counts as trend-free.
TYPE1_SLOPE_THRESHOLD = 0.1
#: Relative slack on both edges of the a_min/sqrt(T-t) pinch-rate band.
TYPE1_BAND_SLACK = 0.2
#: Uniform time samples of a_min^2 whose second differences concavity_check tests.
CONCAVITY_POINTS = 21


@dataclass(frozen=True)
class MonitorReport:
    name: str
    passed: bool | None
    worst_margin: float | None
    worst_location: tuple[float, int | None] | None
    notes: str = ""

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "worst_margin": self.worst_margin,
            "worst_location": list(self.worst_location)
            if self.worst_location is not None
            else None,
            "notes": self.notes,
        }


@dataclass(frozen=True)
class TheoremConstants:
    """Explicit constants controlled by lam = initial max of c/a."""

    lam: float
    lambda0: float
    d_lower: float
    frak_c: float
    deriv_bounds: tuple[float, float, float]

    def as_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "lambda0": self.lambda0,
            "d_lower": self.d_lower,
            "frak_c": self.frak_c,
            "deriv_bounds": list(self.deriv_bounds),
        }


@dataclass(frozen=True)
class TypeIReport:
    sup_tml_rm: float
    ratio_band: tuple[float, float]
    classification: str
    trend_slope: float | None = None


def constants(lam: float) -> TheoremConstants:
    """lambda0 = min(3, 4 lam^2 - lam^4), D = (2/3) lambda0 / lam^(14/3),
    frak_c = sqrt(16/3 + 4 lam^2)."""
    if lam < 1.0:
        raise ValueError("lam must be >= 1")
    lambda0 = min(3.0, 4.0 * lam**2 - lam**4)
    d_lower = (2.0 / 3.0) * lambda0 / lam ** (14.0 / 3.0)
    frak_c = math.sqrt(16.0 / 3.0 + 4.0 * lam**2)
    return TheoremConstants(
        lam=lam,
        lambda0=lambda0,
        d_lower=d_lower,
        frak_c=frak_c,
        deriv_bounds=(DERIV_BOUND_A, DERIV_BOUND_B, DERIV_BOUND_C),
    )


def tolerance(traj: Trajectory, kappa: float = 1.0) -> float:
    """Step-size slack: kappa * (dz^4 + mean dt), 4 the stencil order."""
    return kappa * (traj.grid.dz**STENCIL_ORDER + traj.dt_mean)


def _not_applicable(name: str, why: str) -> MonitorReport:
    return MonitorReport(
        name=name,
        passed=None,
        worst_margin=None,
        worst_location=None,
        notes=f"precondition-violated: {why}",
    )


def _first(traj: Trajectory, name: str) -> float:
    # A Python float, as the first sample's fields were: its callers square
    # it with float powers, and libm's pow and NumPy's squaring round about
    # 1 value in 1000 differently.
    return traj.series(name)[0].item()


def _first_min(columns: list[np.ndarray]) -> tuple[float, int, int]:
    """(value, sample, column) of the smallest entry of equal-length columns,
    scanned sample by sample and, within a sample, in column order: the first
    occurrence wins, as in a running strict minimum."""
    flat = np.stack(columns, axis=1).ravel()
    k = int(np.argmin(flat))
    sample, column = divmod(k, len(columns))
    return flat[k].item(), sample, column


def _initially_ordered(traj: Trajectory) -> bool:
    return (
        min(_first(traj, "ord_ba_min"), _first(traj, "ord_cb_min")) >= -_PRECONDITION_SLACK
    )


def ordering_monitor(traj: Trajectory, kappa: float = 1.0) -> MonitorReport:
    """a <= b <= c is preserved: the worst of min(b-a) and min(c-b) over the run."""
    name = "ordering"
    if not _initially_ordered(traj):
        return _not_applicable(name, "initial data is not ordered a <= b <= c")
    tol = tolerance(traj, kappa)
    worst, k, col = _first_min([traj.series("ord_ba_min"), traj.series("ord_cb_min")])
    idx = traj.series(("ord_ba_idx", "ord_cb_idx")[col])[k]
    where = (traj.ts[k].item(), int(idx))
    return MonitorReport(
        name=name,
        passed=worst >= -tol,
        worst_margin=worst,
        worst_location=where,
        notes=f"tol={tol:.3e}",
    )


def eccentricity_monitor(traj: Trajectory, kappa: float = 1.0) -> MonitorReport:
    """sup|b-c|/min(b,c) and sup|a-c|/min(a,c) are nonincreasing in time."""
    name = "eccentricity"
    if not _initially_ordered(traj):
        return _not_applicable(name, "initial data is not ordered a <= b <= c")
    if traj.ts.size < 2:
        return _not_applicable(name, "need at least two samples")
    tol = tolerance(traj, kappa)
    attrs = ("ecc_bc", "ecc_ac")
    drops = [col[:-1] - col[1:] for col in map(traj.series, attrs)]
    worst, k, col = _first_min(drops)
    idx = traj.series(f"{attrs[col]}_idx")[k + 1]
    where = (traj.ts[k + 1].item(), int(idx))
    return MonitorReport(
        name=name,
        passed=worst >= -tol,
        worst_margin=worst,
        worst_location=where,
        notes=f"tol={tol:.3e}",
    )


def ratio_monitor(traj: Trajectory, kappa: float = 1.0) -> MonitorReport:
    """max(c/a) stays below its t=0 value lam, and below the refined envelope
    (c/a)^2 <= e^(lam^2-1)(lam^2-1)(1 - 4t/c_max(0)^2)^2 + 1."""
    name = "ratio"
    if not _initially_ordered(traj):
        return _not_applicable(name, "initial data is not ordered a <= b <= c")
    tol = tolerance(traj, kappa)
    lam = _first(traj, "ratio_max")
    c0_sq = _first(traj, "c_max") ** 2
    ratio = traj.series("ratio_max")

    plain, k, _ = _first_min([lam - ratio])
    where = (traj.ts[k].item(), int(traj.series("ratio_max_idx")[k]))
    # Float powers of Python floats, as libm rounds them (see _first).
    growth = math.exp(lam**2 - 1.0) * (lam**2 - 1.0)
    refined = min(
        growth * (1.0 - 4.0 * t / c0_sq) ** 2 + 1.0 - r**2
        for t, r in zip(traj.ts.tolist(), ratio.tolist())
    )
    worst = min(plain, refined)
    return MonitorReport(
        name=name,
        passed=plain >= -tol and refined >= -tol,
        worst_margin=worst,
        worst_location=where,
        notes=f"lam={lam:.6g} plain_margin={plain:.3e} refined_margin={refined:.3e} tol={tol:.3e}",
    )


def amin_bound_monitor(
    traj: Trajectory, report: SingularityReport | None, kappa: float = 1.0
) -> MonitorReport:
    """a_min^2 <= 4(T-t), d(a_min^2)/dt >= -4, and, when max(c/a) < 2 with
    nonnegative initial scalar curvature, a_min^2 >= D(T-t)."""
    name = "amin_bound"
    if report is None:
        return _not_applicable(name, "no singularity detected")
    tol = tolerance(traj, kappa)
    T = report.t_estimate
    ts = traj.ts
    amin_sq = traj.series("a_min") ** 2

    upper = 4.0 * (T - ts) - amin_sq
    k_up = int(np.argmin(upper))
    upper_margin = float(upper[k_up])
    a_min_idx = traj.series("a_min_idx")
    where = (float(ts[k_up]), int(a_min_idx[k_up]))

    slopes = np.diff(amin_sq) / np.diff(ts)
    slope_margin = float(np.min(slopes + 4.0)) if slopes.size else math.inf

    lam = _first(traj, "ratio_max")
    s_min0 = _first(traj, "s_min")
    lower_margin = None
    if lam < 2.0 and s_min0 >= -tol:
        d_lower = constants(max(lam, 1.0)).d_lower
        lower = amin_sq - d_lower * (T - ts)
        k_lo = int(np.argmin(lower))
        lower_margin = float(lower[k_lo])
        if lower_margin < upper_margin:
            where = (float(ts[k_lo]), int(a_min_idx[k_lo]))

    margins = [upper_margin] + ([lower_margin] if lower_margin is not None else [])
    worst = min(margins)
    passed = worst >= -tol and slope_margin >= -tol
    notes = (
        f"T={T:.6g} upper_margin={upper_margin:.3e} slope_margin={slope_margin:.3e} "
        + (f"lower_margin={lower_margin:.3e} " if lower_margin is not None else "lower_bound=n/a ")
        + f"tol={tol:.3e}"
    )
    return MonitorReport(
        name=name, passed=passed, worst_margin=worst, worst_location=where, notes=notes
    )


def cmax_bound_monitor(traj: Trajectory, kappa: float = 1.0) -> MonitorReport:
    """c_max^2 <= c_max(0)^2 - 4t, d(c_max^2)/dt <= -4, and the stop time
    cannot exceed c_max(0)^2 / 4."""
    name = "cmax_bound"
    if not _initially_ordered(traj):
        return _not_applicable(name, "initial data is not ordered a <= b <= c")
    tol = tolerance(traj, kappa)
    ts = traj.ts
    cmax_sq = traj.series("c_max") ** 2
    c0_sq = cmax_sq[0]

    bound = c0_sq - 4.0 * ts - cmax_sq
    k = int(np.argmin(bound))
    bound_margin = float(bound[k])
    where = (float(ts[k]), int(traj.series("c_max_idx")[k]))

    slopes = np.diff(cmax_sq) / np.diff(ts)
    slope_margin = float(np.min(-4.0 - slopes)) if slopes.size else math.inf

    stop_margin = c0_sq / 4.0 - float(ts[-1])

    worst = min(bound_margin, stop_margin)
    passed = worst >= -tol and slope_margin >= -tol
    return MonitorReport(
        name=name,
        passed=passed,
        worst_margin=worst,
        worst_location=where,
        notes=(
            f"bound_margin={bound_margin:.3e} slope_margin={slope_margin:.3e} "
            f"stop_margin={stop_margin:.3e} tol={tol:.3e}"
        ),
    )


def derivative_bound_monitor(traj: Trajectory, kappa: float = 1.0) -> MonitorReport:
    """sup|x'| never exceeds max(universal bound, initial sup) for x in a,b,c.

    Only claimed for ordered data with max(c/a) < 2.
    """
    name = "derivative_bound"
    if not _initially_ordered(traj):
        return _not_applicable(name, "initial data is not ordered a <= b <= c")
    lam = _first(traj, "ratio_max")
    if lam >= 2.0:
        return _not_applicable(name, f"max(c/a) = {lam:.4g} >= 2; bound not claimed")
    tol = tolerance(traj, kappa)
    attrs = ("sup_ap", "sup_bp", "sup_cp")
    universal = (DERIV_BOUND_A, DERIV_BOUND_B, DERIV_BOUND_C)
    margins = [
        max(bound, _first(traj, attr)) - traj.series(attr)
        for attr, bound in zip(attrs, universal)
    ]
    worst, k, col = _first_min(margins)
    where = (traj.ts[k].item(), int(traj.series(f"{attrs[col]}_idx")[k]))
    return MonitorReport(
        name=name,
        passed=worst >= -tol,
        worst_margin=worst,
        worst_location=where,
        notes=f"lam={lam:.6g} tol={tol:.3e}",
    )


def scalar_min_monitor(traj: Trajectory, kappa: float = 1.0) -> MonitorReport:
    """min_z S stays nonnegative whenever it starts nonnegative."""
    name = "scalar_min"
    tol = tolerance(traj, kappa)
    s0 = _first(traj, "s_min")
    if s0 < -tol:
        return _not_applicable(name, f"initial min S = {s0:.4g} < 0")
    worst, k, _ = _first_min([traj.series("s_min")])
    where = (traj.ts[k].item(), int(traj.series("s_min_idx")[k]))
    return MonitorReport(
        name=name,
        passed=worst >= -tol,
        worst_margin=worst,
        worst_location=where,
        notes=f"tol={tol:.3e}",
    )


def type1_classifier(traj: Trajectory, report: SingularityReport | None) -> TypeIReport:
    """Type I test: (T-t) max|Rm| stays trend-free over the final decade and
    a_min/sqrt(T-t) sits inside the two-sided pinch-rate band.

    The band's upper edge is 2 (1 + slack) from a_min^2 <= 4(T-t); the lower
    edge is sqrt(D) (1 - slack) when the lower-bound regime applies
    (max(c/a) < 2 and initial min S >= 0), otherwise just positivity.
    """
    if report is None:
        return TypeIReport(
            sup_tml_rm=math.nan,
            ratio_band=(math.nan, math.nan),
            classification="Inconclusive",
        )
    T = report.t_estimate
    ts = traj.ts
    a_min = traj.series("a_min")
    rm_max = traj.series("rm_max")

    before = ts < T
    y = (T - ts[before]) * rm_max[before]
    sup_tml = float(np.max(y)) if y.size else math.nan

    decade = before & (a_min <= 10.0 * a_min[-1])
    t_d = ts[decade]
    if t_d.size < 3:
        return TypeIReport(
            sup_tml_rm=sup_tml,
            ratio_band=(math.nan, math.nan),
            classification="Inconclusive",
        )
    ratio = a_min[decade] / np.sqrt(T - t_d)
    band = (float(np.min(ratio)), float(np.max(ratio)))

    y_d = (T - t_d) * rm_max[decade]
    slope = float(np.polyfit(np.log(T - t_d), np.log(y_d), 1)[0])

    lam = _first(traj, "ratio_max")
    s_min0 = _first(traj, "s_min")
    lower_edge = 0.0
    if lam < 2.0 and s_min0 >= 0.0:
        d_lower = constants(max(lam, 1.0)).d_lower
        if d_lower > 0.0:
            lower_edge = math.sqrt(d_lower) * (1.0 - TYPE1_BAND_SLACK)
    upper_edge = 2.0 * (1.0 + TYPE1_BAND_SLACK)

    band_ok = band[0] >= lower_edge and band[1] <= upper_edge
    trend_free = abs(slope) <= TYPE1_SLOPE_THRESHOLD
    classification = (
        "TypeI" if (math.isfinite(sup_tml) and trend_free and band_ok) else "Inconclusive"
    )
    return TypeIReport(
        sup_tml_rm=sup_tml,
        ratio_band=band,
        classification=classification,
        trend_slope=slope,
    )


def concavity_check(traj: Trajectory, kappa: float = 1.0) -> MonitorReport:
    """Second differences of a_min^2 on a uniform time resampling stay <= 0.

    Evidence only: concavity of the pinch profile is observed, not proved.
    """
    name = "concavity"
    if traj.ts.size < 20:
        return _not_applicable(name, "need at least 20 samples")
    tol = tolerance(traj, kappa)
    ts = traj.ts
    y = traj.series("a_min") ** 2
    t_u = np.linspace(ts[0], ts[-1], CONCAVITY_POINTS)
    y_u = np.interp(t_u, ts, y)
    d2 = y_u[2:] - 2.0 * y_u[1:-1] + y_u[:-2]
    k = int(np.argmax(d2))
    return MonitorReport(
        name=name,
        passed=float(d2[k]) <= tol,
        worst_margin=float(-d2[k]),
        worst_location=(float(t_u[k + 1]), None),
        notes=f"max_second_difference={float(d2[k]):.3e} tol={tol:.3e}",
    )


# ---------------------------------------------------------------------------
# Curvature-evolution residuals


def _k0i_evolution_rhs(state: MetricState, which: str) -> np.ndarray:
    """Right-hand side of the evolution equation for K_0i at one state.

    Written once for K_01 in the variables (x; y, z) = (a; b, c); the other two
    follow by relabeling x to b or c (the same symmetry the flow system has).
    The flow's tangential field V = (W/phi) dz moves the grid along the
    manifold, so K at fixed z also gains the Lie derivative V(K) = W K', with
    W computed from this state (see flow.tangential_speed).
    """
    rows = {"k01": (0, 1, 2), "k02": (1, 0, 2), "k03": (2, 0, 1)}
    if which not in rows:
        raise ValueError(f"which must be one of k01, k02, k03, got {which!r}")
    i, j, l = rows[which]
    dz = state.grid.dz
    phi = state.phi
    r = radii(state)
    rp, rpp = jet(phi, r, dz)
    k0 = -rpp / r
    a, b, c = r
    ap, bp, cp = rp
    x, y, z = r[i], r[j], r[l]
    xp, yp, zp = rp[i], rp[j], rp[l]
    k_self, k_y, k_z = k0[i], k0[j], k0[l]

    kp, kpp = jet(phi, k_self, dz)
    laplacian = kpp + (ap / a + bp / b + cp / c) * kp

    x2, y2, z2 = x * x, y * y, z * z
    rhs = (
        laplacian
        + 2.0 * k_self**2
        - 2.0
        * k_self
        * (yp**2 / y2 + zp**2 / z2 + (2.0 * x2**2 + 2.0 * (y2 - z2) ** 2) / (x * y * z) ** 2)
        + 2.0
        * k_y
        * (2.0 * x2 / (y2 * z2) + 2.0 * y2 / (x2 * z2) - 2.0 * z2 / (x2 * y2) - xp * yp / (x * y))
        + 2.0
        * k_z
        * (2.0 * x2 / (y2 * z2) + 2.0 * z2 / (x2 * y2) - 2.0 * y2 / (x2 * z2) - xp * zp / (x * z))
        + 2.0
        * (xp / x)
        * (
            -(yp**3) / y**3
            - zp**3 / z**3
            + 6.0 * x * xp / (y2 * z2)
            + 4.0 * y * yp / (x2 * z2)
            + 4.0 * z * zp / (x2 * y2)
            - 2.0 * xp * z2 / (x**3 * y2)
            - 2.0 * xp * y2 / (x**3 * z2)
            + 4.0 * xp / x**3
            - 12.0 * x2 * yp / (y**3 * z2)
            - 12.0 * x2 * zp / (y2 * z**3)
            - 4.0 * y2 * zp / (x2 * z**3)
            - 4.0 * z2 * yp / (x2 * y**3)
        )
        + 4.0 * x2 * (3.0 * yp**2 / (y**4 * z2) + 4.0 * yp * zp / (y**3 * z**3) + 3.0 * zp**2 / (y2 * z**4))
        - (4.0 / x)
        * (
            zp**2 / (x * y2)
            + yp**2 / (x * z2)
            + 3.0 * yp**2 * z2 / (x * y**4)
            + 3.0 * y2 * zp**2 / (x * z**4)
            - 4.0 * z * zp * yp / (x * y**3)
            - 4.0 * y * yp * zp / (x * z**3)
        )
    )
    q = rpp / r
    w, _ = tangential_speed(phi, q[0] + q[1] + q[2], phi / phi.sum())
    if w is not None:
        rhs += w * kp
    return rhs


def k0i_evolution_residual(traj: Trajectory, which: str = "k01") -> tuple[float, float, int]:
    """Max-norm defect between the time-differenced K_0i and its evolution RHS.

    Uses the middle consecutive snapshot triple; the time derivative is the
    three-point non-uniform central difference. Returns (residual, t, index).
    """
    if len(traj.snapshots) < 3:
        raise ValueError("need at least 3 snapshots for the residual check")
    mid = len(traj.snapshots) // 2
    s0, s1, s2 = traj.snapshots[mid - 1 : mid + 2]

    def k_field(state):
        return getattr(sectional_curvatures(state), which)

    h0 = s1.t - s0.t
    h1 = s2.t - s1.t
    k0, k1, k2 = k_field(s0), k_field(s1), k_field(s2)
    dk_dt = (h0**2 * k2 + (h1**2 - h0**2) * k1 - h1**2 * k0) / (h0 * h1 * (h0 + h1))

    rhs = _k0i_evolution_rhs(s1, which)
    defect = np.abs(dk_dt - rhs)
    idx = int(np.argmax(defect))
    return float(defect[idx]), float(s1.t), idx


def evolution_residual(traj: Trajectory, which: str = "k01") -> MonitorReport:
    """Report the K_0i evolution-equation residual at the middle snapshot triple.

    Convergence under simultaneous (dt, dz) refinement is asserted by comparing
    two trajectories' reports; a single report records the magnitude.
    """
    name = f"evolution_residual_{which}"
    try:
        residual, t_mid, idx = k0i_evolution_residual(traj, which)
    except ValueError as exc:
        return _not_applicable(name, str(exc))
    return MonitorReport(
        name=name,
        passed=math.isfinite(residual),
        worst_margin=-residual,
        worst_location=(t_mid, idx),
        notes=f"residual_max={residual:.6e}",
    )


#: Every monitor by name, each called as fn(traj, report, kappa).
MONITORS = {
    "ordering": lambda traj, report, kappa: ordering_monitor(traj, kappa),
    "eccentricity": lambda traj, report, kappa: eccentricity_monitor(traj, kappa),
    "ratio": lambda traj, report, kappa: ratio_monitor(traj, kappa),
    "amin_bound": amin_bound_monitor,
    "cmax_bound": lambda traj, report, kappa: cmax_bound_monitor(traj, kappa),
    "derivative_bound": lambda traj, report, kappa: derivative_bound_monitor(traj, kappa),
    "scalar_min": lambda traj, report, kappa: scalar_min_monitor(traj, kappa),
    "concavity": lambda traj, report, kappa: concavity_check(traj, kappa),
    "evolution_residual_k01": lambda traj, report, kappa: evolution_residual(traj, "k01"),
    "evolution_residual_k02": lambda traj, report, kappa: evolution_residual(traj, "k02"),
    "evolution_residual_k03": lambda traj, report, kappa: evolution_residual(traj, "k03"),
}

#: Monitors that run against a finished trajectory by default: all but the
#: K_0i evolution residuals, which record a discretization defect rather
#: than check a bound.
DEFAULT_MONITORS = tuple(name for name in MONITORS if not name.startswith("evolution_residual"))


def run_monitors(
    traj: Trajectory,
    report: SingularityReport | None,
    names: tuple[str, ...] | list[str] = DEFAULT_MONITORS,
    kappa: float = 1.0,
) -> dict[str, MonitorReport]:
    """Evaluate the named monitors of MONITORS; unknown names raise."""
    out = {}
    for name in names:
        if name not in MONITORS:
            raise ValueError(f"unknown monitor {name!r}")
        out[name] = MONITORS[name](traj, report, kappa)
    return out
