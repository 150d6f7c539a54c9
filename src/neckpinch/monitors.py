"""Runtime assertion of the theorem bounds along a completed trajectory.

Each monitor is a pure function of trajectory data: it checks one proved
bound (ordering preservation, eccentricity decay, ratio bounds, the two-sided
pinch-rate estimates, the c_max bounds, derivative bounds, scalar-curvature
positivity) and never aborts a run. A violated bound is reported, not raised:
it is the interesting output. Every bound monitor reports through one rule,
_report: its worst margin is the smallest of all the margins it checks, slope
margins included, located where it occurred, and it passes when that margin
is >= -tol. All but scalar_min claim their bound only for data ordered
a <= b <= c at the first sample (a_min is the pinching radius only then)
and report precondition-violated otherwise. The K_0i evolution residuals,
each a row of one evaluation at the first snapshot, record a
discretization defect and type1_classifier gives a verdict, so both keep
their own rules.

Every monitor has one signature, fn(traj, report) -> MonitorReport: the
trajectory and the singular-time fit (None when no singularity was detected).
MONITORS maps every monitor name to its function for run_monitors and the
config check. The slack a margin may fall below zero by is the trajectory's
own, tol = tolerance(traj) = dz^4 + MESH_SLACK * (phi_bar dz)^2 from its first
snapshot, which _report reads, so refining the grid tightens every assertion.
The tolerance depends on the grid alone: no setting scales it, and the step
size, which the flow chooses for accuracy, does not widen it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .curvature import Y, Z
from .flow import SingularityReport, Trajectory, _final_decade, _flow_rhs, _line_fit
from .grid import STENCIL_ORDER, MetricState, arclength_jet, rfft, z_jet

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
#: The tolerance's coefficient on the squared arclength cell (phi_bar dz)^2:
#: a margin may fall below zero by this share of the grid's O(cell^2) error.
MESH_SLACK = 0.04


#: The singular-time fit every monitor receives; None when no singularity
#: was detected.
Fit = SingularityReport | None


@dataclass(frozen=True)
class MonitorReport:
    passed: bool | None
    worst_margin: float | None
    worst_location: tuple[float, int | None] | None
    notes: str = ""


@dataclass(frozen=True)
class TypeIReport:
    sup_tml_rm: float
    ratio_band: tuple[float, float] = (math.nan, math.nan)
    classification: str = "Inconclusive"
    trend_slope: float | None = None


def constants(lam: float) -> dict | None:
    """The explicit constants controlled by lam = initial max of c/a, as
    summary.json's theorem_constants: lambda0 = min(3, 4 lam^2 - lam^4),
    D = (2/3) lambda0 / lam^(14/3) (d_lower), frak_c = sqrt(16/3 + 4 lam^2)
    and the three universal derivative bounds. None for lam >= 2: the paper
    claims them only for 1 <= lam < 2, and from lam = 2 on lambda0 and D
    are not positive."""
    if lam < 1.0:
        raise ValueError("lam must be >= 1")
    if lam >= 2.0:
        return None
    lambda0 = min(3.0, 4.0 * lam**2 - lam**4)
    return {
        "lambda": lam,
        "lambda0": lambda0,
        "d_lower": (2.0 / 3.0) * lambda0 / lam ** (14.0 / 3.0),
        "frak_c": math.sqrt(16.0 / 3.0 + 4.0 * lam**2),
        "deriv_bounds": [DERIV_BOUND_A, DERIV_BOUND_B, DERIV_BOUND_C],
    }


def tolerance(traj: Trajectory) -> float:
    """Grid slack dz^4 + MESH_SLACK * (phi_bar dz)^2, 4 the stencil order and
    phi_bar dz the arclength cell of the first snapshot."""
    first = traj.snapshots[0]
    mesh = first.phi * first.grid.dz
    return first.grid.dz**STENCIL_ORDER + MESH_SLACK * mesh * mesh


def _not_applicable(why: str) -> MonitorReport:
    return MonitorReport(
        passed=None, worst_margin=None, worst_location=None, notes=f"precondition-violated: {why}"
    )


_UNORDERED = _not_applicable("initial data is not ordered a <= b <= c")

#: A named margin of _report: (margin, location), or None for a bound not claimed.
Margin = tuple[float, tuple[float, int | None] | None] | None


def _report(traj: Trajectory, margins: dict[str, Margin], notes: str = "") -> MonitorReport:
    """The report of a bound monitor on traj from its named margins.

    The worst margin is the first smallest of the claimed ones, and the bound
    passes when it is >= -tol, tol = tolerance(traj). The notes are `notes`,
    then every named margin when there is more than one (a bound not claimed
    reads n/a), then tol.
    """
    tol = tolerance(traj)
    worst, where = min((m for m in margins.values() if m is not None), key=lambda m: m[0])
    if len(margins) > 1:
        for name, m in margins.items():
            notes += f"{name}=n/a " if m is None else f"{name}={m[0]:.3e} "
    return MonitorReport(worst >= -tol, worst, where, f"{notes}tol={tol:.3e}")


def _past_first(name: str, margin: np.ndarray) -> str:
    """The note `{name}_past_first=`, the smallest of a margin column over
    samples 1 onward, or n/a for one sample: a bound anchored at the first
    sample reads 0 there, whatever the run."""
    value = "n/a" if margin.size < 2 else f"{margin[1:].min():.3e}"
    return f"{name}_past_first={value} "


def _first(traj: Trajectory, name: str) -> float:
    # A Python float, as the first sample's fields were: its callers square
    # it with float powers, and libm's pow and NumPy's squaring round about
    # 1 value in 1000 differently.
    return traj.samples[name][0].item()


def _worst(
    traj: Trajectory, columns: list[np.ndarray], index_fields: list[str], shift: int = 0
) -> tuple[float, tuple[float, int]]:
    """The smallest entry of equal-length margin columns and its (t, grid index).

    Scanned sample by sample and, within a sample, in column order: the first
    occurrence wins, as in a running strict minimum. Column j's grid index is
    the field index_fields[j]; location is read `shift` samples after the
    margin's own sample (a drop between samples k and k+1 sits at k+1).
    """
    flat = np.stack(columns, axis=1).ravel()
    k = int(np.argmin(flat))
    sample, column = divmod(k, len(columns))
    sample += shift
    record = traj.samples[sample]
    where = (record["t"].item(), int(record[index_fields[column]]))
    return flat[k].item(), where


def _slope_margin(traj: Trajectory, y: np.ndarray, floor: float, index_field: str) -> Margin:
    """Margin of dy/dt >= floor over consecutive samples, located at the later
    sample of its interval; (inf, None) for a single sample."""
    ts = traj.samples["t"]
    if ts.size < 2:
        return math.inf, None
    slopes = np.diff(y) / np.diff(ts)
    return _worst(traj, [slopes - floor], [index_field], shift=1)


def _initially_ordered(traj: Trajectory) -> bool:
    return (
        min(_first(traj, "ord_ba_min"), _first(traj, "ord_cb_min")) >= -_PRECONDITION_SLACK
    )


def _lower_bound_constant(traj: Trajectory) -> float | None:
    """D of the lower pinch-rate bound a_min^2 >= D(T-t), or None outside its
    regime: max(c/a) < 2 with initial min S >= 0."""
    lam = _first(traj, "ratio_max")
    if lam < 2.0 and _first(traj, "s_min") >= 0.0:
        return constants(max(lam, 1.0))["d_lower"]
    return None


def ordering_monitor(traj: Trajectory, report: Fit) -> MonitorReport:
    """a <= b <= c is preserved: the worst of min(b-a) and min(c-b) over the run."""
    if not _initially_ordered(traj):
        return _UNORDERED
    columns = [traj.samples["ord_ba_min"], traj.samples["ord_cb_min"]]
    return _report(traj, {"ordering": _worst(traj, columns, ["ord_ba_idx", "ord_cb_idx"])})


def eccentricity_monitor(traj: Trajectory, report: Fit) -> MonitorReport:
    """sup|b-c|/min(b,c) and sup|a-c|/min(a,c) are nonincreasing in time."""
    if not _initially_ordered(traj):
        return _UNORDERED
    if len(traj.samples) < 2:
        return _not_applicable("need at least two samples")
    attrs = ("ecc_bc", "ecc_ac")
    drops = [traj.samples[attr][:-1] - traj.samples[attr][1:] for attr in attrs]
    worst = _worst(traj, drops, [f"{attr}_idx" for attr in attrs], shift=1)
    return _report(traj, {"drop": worst})


def ratio_monitor(traj: Trajectory, report: Fit) -> MonitorReport:
    """max(c/a) stays below its first value lam, and below the refined envelope
    (c/a)^2 <= e^(lam^2-1)(lam^2-1)(1 - 4(t-t0)/c_max(0)^2)^2 + 1, t0 the first t."""
    if not _initially_ordered(traj):
        return _UNORDERED
    lam = _first(traj, "ratio_max")
    c0_sq = _first(traj, "c_max") ** 2
    ts, ratio = traj.samples["t"], traj.samples["ratio_max"]
    # Float powers of Python floats, as libm rounds them (see _first). Past
    # lam ~ 26.7, e^(lam^2-1) overflows: the envelope is +inf.
    try:
        growth = math.exp(lam**2 - 1.0) * (lam**2 - 1.0)
    except OverflowError:
        growth = math.inf
    envelope = [
        growth * (1.0 - 4.0 * t / c0_sq) ** 2 + 1.0 - r**2
        for t, r in zip((ts - ts[0]).tolist(), ratio.tolist())
    ]
    plain = lam - ratio
    margins = {
        "plain_margin": _worst(traj, [plain], ["ratio_max_idx"]),
        "refined_margin": _worst(traj, [np.array(envelope)], ["ratio_max_idx"]),
    }
    return _report(traj, margins, f"lam={lam:.6g} {_past_first('plain_margin', plain)}")


def amin_bound_monitor(traj: Trajectory, report: Fit) -> MonitorReport:
    """a_min^2 <= 4(T-t), d(a_min^2)/dt >= -4, and, when max(c/a) < 2 with
    nonnegative initial scalar curvature, a_min^2 >= D(T-t)."""
    if not _initially_ordered(traj):
        return _UNORDERED
    if report is None:
        return _not_applicable("no singularity detected")
    T = report.t_estimate
    ts = traj.samples["t"]
    amin_sq = traj.samples["a_min"] ** 2
    d_lower = _lower_bound_constant(traj)
    margins = {
        "upper_margin": _worst(traj, [4.0 * (T - ts) - amin_sq], ["a_min_idx"]),
        "slope_margin": _slope_margin(traj, amin_sq, -4.0, "a_min_idx"),
    }
    if d_lower is None:
        margins["lower_bound"] = None
    else:
        margins["lower_margin"] = _worst(traj, [amin_sq - d_lower * (T - ts)], ["a_min_idx"])
    return _report(traj, margins, f"T={T:.6g} ")


def cmax_bound_monitor(traj: Trajectory, report: Fit) -> MonitorReport:
    """c_max^2 <= c_max(0)^2 - 4(t-t0) and d(c_max^2)/dt <= -4, t0 the first
    sample's t. The bound implies the stop time T <= t0 + c_max(0)^2 / 4."""
    if not _initially_ordered(traj):
        return _UNORDERED
    ts = traj.samples["t"] - traj.samples["t"][0]
    cmax_sq = traj.samples["c_max"] ** 2
    c0_sq = cmax_sq[0].item()
    bound = c0_sq - 4.0 * ts - cmax_sq
    margins = {
        "bound_margin": _worst(traj, [bound], ["c_max_idx"]),
        "slope_margin": _slope_margin(traj, -cmax_sq, 4.0, "c_max_idx"),
    }
    return _report(traj, margins, _past_first("bound_margin", bound))


def derivative_bound_monitor(traj: Trajectory, report: Fit) -> MonitorReport:
    """sup|x'| never exceeds max(universal bound, initial sup) for x in a,b,c.

    Only claimed for ordered data with max(c/a) < 2.
    """
    if not _initially_ordered(traj):
        return _UNORDERED
    lam = _first(traj, "ratio_max")
    if lam >= 2.0:
        return _not_applicable(f"max(c/a) = {lam:.4g} >= 2; bound not claimed")
    attrs = ("sup_ap", "sup_bp", "sup_cp")
    universal = (DERIV_BOUND_A, DERIV_BOUND_B, DERIV_BOUND_C)
    margins = [
        max(bound, _first(traj, attr)) - traj.samples[attr]
        for attr, bound in zip(attrs, universal)
    ]
    fields = [f"{attr}_idx" for attr in attrs]
    return _report(traj, {"sup": _worst(traj, margins, fields)}, f"lam={lam:.6g} ")


def scalar_min_monitor(traj: Trajectory, report: Fit) -> MonitorReport:
    """min_z S stays nonnegative whenever it starts nonnegative."""
    s0 = _first(traj, "s_min")
    if s0 < 0.0:
        return _not_applicable(f"initial min S = {s0:.4g} < 0")
    return _report(traj, {"s_min": _worst(traj, [traj.samples["s_min"]], ["s_min_idx"])})


def type1_classifier(traj: Trajectory, report: Fit) -> TypeIReport:
    """Type I test: (T-t) max|Rm| stays trend-free over the final decade (its
    log-log slope, from the centered closed form of flow._line_fit) and
    a_min/sqrt(T-t) sits inside the two-sided pinch-rate band.

    The band's upper edge is 2 (1 + slack) from a_min^2 <= 4(T-t); the lower
    edge is sqrt(D) (1 - slack) when the lower-bound regime applies
    (max(c/a) < 2 and initial min S >= 0), otherwise just positivity.
    """
    if report is None:
        return TypeIReport(sup_tml_rm=math.nan)
    T = report.t_estimate
    ts, a_min, rm_max = (traj.samples[name] for name in ("t", "a_min", "rm_max"))

    before = ts < T
    y = (T - ts[before]) * rm_max[before]
    sup_tml = float(np.max(y)) if y.size else math.nan

    decade = before & _final_decade(a_min)
    t_d = ts[decade]
    if t_d.size < 3:
        return TypeIReport(sup_tml_rm=sup_tml)
    ratio = a_min[decade] / np.sqrt(T - t_d)
    band = (float(np.min(ratio)), float(np.max(ratio)))

    y_d = (T - t_d) * rm_max[decade]
    slope = _line_fit(np.log(T - t_d), np.log(y_d))[0]

    d_lower = _lower_bound_constant(traj)
    lower_edge = 0.0
    if d_lower is not None:
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


def concavity_check(traj: Trajectory, report: Fit) -> MonitorReport:
    """Second differences of a_min^2 on a uniform time resampling stay <= 0.

    Evidence only: concavity of the pinch profile is observed, not proved.
    """
    if not _initially_ordered(traj):
        return _UNORDERED
    if len(traj.samples) < 20:
        return _not_applicable("need at least 20 samples")
    ts = traj.samples["t"]
    y = traj.samples["a_min"] ** 2
    t_u = np.linspace(ts[0], ts[-1], CONCAVITY_POINTS)
    y_u = np.interp(t_u, ts, y)
    d2 = y_u[2:] - 2.0 * y_u[1:-1] + y_u[:-2]
    k = int(np.argmax(d2))
    margin = (float(-d2[k]), (float(t_u[k + 1]), None))
    return _report(traj, {"concavity": margin}, f"max_second_difference={float(d2[k]):.3e} ")


# ---------------------------------------------------------------------------
# Curvature-evolution residuals

def _k0i_evolution_rhs(zj: np.ndarray, phi: float, w: np.ndarray) -> np.ndarray:
    """Right-hand sides of the evolution equations of (K_01, K_02, K_03),
    stacked (3, n), at one state of uniform phi, from the arclength jet
    zj = (x, x', x'') of its radii, stacked (3, 3, n), and the tangential
    speed w of that state (see flow.tangential_speed).

    Written once for a radius row x and its partner rows (y, z) =
    (curvature.Y, curvature.Z), in the variables K = -x''/x, r = x'/x,
    p = x^2/(yz)^2 and u = 1/x^2; a partner's values are rows of the same
    stacks, r_y = r[Y] and p_y = p[Y] = y^2/(xz)^2. One evaluation gives all
    three rows, and one jet of the three K rows gives K' and K''. The
    flow's tangential field V = (W/phi) dz moves the grid along the manifold,
    so K at fixed z also gains the Lie derivative V(K) = W K'.
    """
    x, xp, xpp = zj
    k, r, sq = -xpp / x, xp / x, x * x
    u, p = 1.0 / sq, sq / (sq[Y] * sq[Z])
    ry, rz, py, pz = r[Y], r[Z], p[Y], p[Z]

    _, kp, kpp = z_jet(rfft(k), phi)
    return (
        kpp
        + (r[0] + r[1] + r[2]) * kp
        + 2.0 * k * k
        - 2.0 * k * (ry * ry + rz * rz + 2.0 * (p + py + pz) - 4.0 * u)
        + 2.0 * k[Y] * (2.0 * (p + py - pz) - r * ry)
        + 2.0 * k[Z] * (2.0 * (p + pz - py) - r * rz)
        + 2.0
        * r
        * (
            4.0 * r * u
            - ry**3
            - rz**3
            + (6.0 * r - 12.0 * (ry + rz)) * p
            + (4.0 * (ry - rz) - 2.0 * r) * py
            + (4.0 * (rz - ry) - 2.0 * r) * pz
        )
        + 4.0 * p * (3.0 * ry * ry + 4.0 * ry * rz + 3.0 * rz * rz)
        - 4.0 * py * (ry * ry + 3.0 * rz * rz - 4.0 * ry * rz)
        - 4.0 * pz * (rz * rz + 3.0 * ry * ry - 4.0 * ry * rz)
        + w * kp
    )


def _k0i_defects(state: MetricState) -> np.ndarray:
    """|dt K_0i - its evolution RHS| stacked (3, n), all three rows from one
    evaluation at one state.

    dt K_0i comes from the flow's own time derivative: with (dx, c, W) =
    flow._flow_rhs and K = -x''/x, the chain rule gives dt K = (x'' dx / x -
    dx'' + 2 c x'') / x, where the 2 c x'' is the drift of phi = lambda
    phi_bar in the arclength derivative. Both sides read the radii and their
    primes from the state's grid.arclength_jet and share that one W.
    """
    phi = state.phi
    x, _, xpp = zj = arclength_jet(state)
    dx, c, w = _flow_rhs(zj, phi)
    dxpp = z_jet(rfft(dx), phi)[2]
    dk_dt = (xpp * dx / x - dxpp + 2.0 * c * xpp) / x
    return np.abs(dk_dt - _k0i_evolution_rhs(zj, phi, w))


def evolution_residual(traj: Trajectory, report: Fit, which: str = "k01") -> MonitorReport:
    """Max-norm defect between dt K_0i and its evolution RHS at the first
    snapshot (see _k0i_defects), for K_0i the row `which` of (k01, k02, k03).
    Each call evaluates all three rows and reads its own; nothing is kept.

    Both sides are semi-discrete, so the defect is the spatial error alone
    and falls at the stencil order under dz halving. The margin is minus the
    defect: a single report records its magnitude, and convergence is
    asserted by comparing two grids' reports.
    """
    rows = ("k01", "k02", "k03")
    if which not in rows:
        raise ValueError(f"which must be one of k01, k02, k03, got {which!r}")
    state = traj.snapshots[0]
    defect = _k0i_defects(state)[rows.index(which)]
    idx = int(np.argmax(defect))
    residual = float(defect[idx])
    return MonitorReport(
        passed=math.isfinite(residual),
        worst_margin=-residual,
        worst_location=(float(state.t), idx),
        notes=f"residual_max={residual:.6e}",
    )


#: Every monitor by name, each called as fn(traj, report).
MONITORS = {
    "ordering": ordering_monitor,
    "eccentricity": eccentricity_monitor,
    "ratio": ratio_monitor,
    "amin_bound": amin_bound_monitor,
    "cmax_bound": cmax_bound_monitor,
    "derivative_bound": derivative_bound_monitor,
    "scalar_min": scalar_min_monitor,
    "concavity": concavity_check,
    "evolution_residual_k01": partial(evolution_residual, which="k01"),
    "evolution_residual_k02": partial(evolution_residual, which="k02"),
    "evolution_residual_k03": partial(evolution_residual, which="k03"),
}

#: Monitors that run against a finished trajectory by default: all but the
#: K_0i evolution residuals, which record a discretization defect rather
#: than check a bound.
DEFAULT_MONITORS = tuple(name for name in MONITORS if not name.startswith("evolution_residual"))


def run_monitors(
    traj: Trajectory,
    report: Fit,
    names: tuple[str, ...] | list[str] = DEFAULT_MONITORS,
) -> dict[str, MonitorReport]:
    """Evaluate the named monitors of MONITORS; unknown names raise."""
    out = {}
    for name in names:
        if name not in MONITORS:
            raise ValueError(f"unknown monitor {name!r}")
        out[name] = MONITORS[name](traj, report)
    return out
