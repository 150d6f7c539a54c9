"""Time evolution of the metric profiles under Ricci flow.

The flow is Ricci flow plus the Lie derivative along a tangential vector
field V = (W/phi) dz (DeTurck's freedom), with W chosen so that the gauge
keeps its shape: the radii satisfy

    dt a = a'' + a'(b'/b + c'/c) - 2a (a^4 - (b^2-c^2)^2) / (abc)^2 + W a'

(and its b, c relabelings) with dz W = phi (c - q), q = a''/a + b''/b + c''/c
and c = int phi q dz / int phi dz. The gauge then obeys dt log(phi) = c(t),
uniform in z, so phi = lambda(t) phi0(z) for all time and the state is the
radii plus the one scalar log(lambda), with dt log(lambda) = c. With phi0 = 1
this is the constant-speed (tangential redistribution) parametrization of
curve-shortening flow: the grid points keep equal arclength spacing, so a
neck keeps its grid points while it narrows. W is the mean-free periodic
antiderivative, one rfft/irfft per stage, and vanishes identically on
z-constant data, where the transform is skipped. Primes are arclength
derivatives taken by the chain rule on the fixed z-grid. Stepping is
classical explicit RK4 on (a, b, c) and log(lambda). The time step tracks
both the explicit-diffusion limit (lambda min phi0 dz)^2 on the arclength
mesh and the reaction timescale of the shrinking minimum radius, whose
square cannot decrease faster than rate 4.

Between steps, evolve holds the radii as one (3, n) array and log(lambda)
as a Python float, with t and dt as Python floats; a MetricState is built
only for the snapshots and the final state. The per-sample summaries are
computed SUMMARY_BLOCK states at a time on stacked arrays and kept as
columns of one float table and one index table.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from .grid import (
    GaugeDegeneracyError,
    MetricState,
    NonFiniteFieldError,
    PeriodicGrid,
    metric_state,
)
from .curvature import (
    MIN_RADIUS,
    check_resolvable,
    jet,
    radii,
    sectional_rows,
    trace_invariants,
)

STOP_AMIN = "a_min_reached"
STOP_TMAX = "t_max_reached"
STOP_HALVINGS = "step_halvings_exhausted"

#: Attempts to halve dt after a rejected step before giving up.
MAX_STEP_HALVINGS = 20

#: States summarized per summarize_state call in evolve. Measured per state on
#: fig-a n=256 states, one core of a 2-vCPU Xeon: 280 us alone, 120 us in
#: blocks of 8, 130 us in blocks of 16 or 64, where the stacked arrays
#: outgrow the cache.
SUMMARY_BLOCK = 8

#: Samples the singular-time fit needs inside the final decade of a_min.
MIN_FIT_SAMPLES = 10


class StepRejected(RuntimeError):
    """A step left the positive cone; the caller should halve dt and retry."""


class NoSingularityDetected(RuntimeError):
    """The minimum-radius series does not extrapolate to a finite-time zero."""


class InsufficientSamplesError(RuntimeError):
    """Too few trajectory samples in the fitting window."""


@dataclass(frozen=True)
class FlowConfig:
    cfl_safety: float = 0.2
    a_min_stop: float = 1e-3
    t_max: float = math.inf
    snapshot_stride: int = 100
    monitor_stride: int = 1
    # Explicit step override for refinement studies; None means adaptive.
    fixed_dt: float | None = None

    def __post_init__(self):
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ValueError("cfl_safety must lie in (0, 1]")
        if not self.a_min_stop > MIN_RADIUS:
            # A state below the floor cannot be summarized, and the run's last
            # state lies below a_min_stop.
            raise ValueError(
                f"a_min_stop must exceed the resolvable radius floor {MIN_RADIUS:.0e}, "
                f"got {self.a_min_stop!r}"
            )
        strides = (self.snapshot_stride, self.monitor_stride)
        if any(isinstance(s, bool) or not isinstance(s, int) for s in strides):
            raise ValueError(f"strides must be integers, got {strides!r}")
        if min(strides) < 1:
            raise ValueError("strides must be >= 1")
        if math.isnan(self.t_max):
            raise ValueError("t_max must be a number, got NaN")
        if self.fixed_dt is not None and not math.isfinite(self.fixed_dt):
            raise ValueError(f"fixed_dt must be finite, got {self.fixed_dt!r}")
        if self.fixed_dt is not None and self.fixed_dt <= 0.0:
            raise ValueError("fixed_dt must be positive when set")


class SummarySample(NamedTuple):
    """Scalar reductions of one state, with the grid index attaining each.

    A row of a Trajectory, built on demand from its columns: the value
    fields first, then the index fields.
    """

    t: float
    dt: float
    a_min: float
    b_min: float
    ord_ba_min: float
    ord_cb_min: float
    s_min: float
    c_max: float
    ratio_max: float
    ecc_bc: float
    ecc_ac: float
    rm_max: float
    sup_ap: float
    sup_bp: float
    sup_cp: float
    a_min_idx: int
    ord_ba_idx: int
    ord_cb_idx: int
    s_min_idx: int
    c_max_idx: int
    ratio_max_idx: int
    ecc_bc_idx: int
    ecc_ac_idx: int
    rm_max_idx: int
    sup_ap_idx: int
    sup_bp_idx: int
    sup_cp_idx: int


#: Rows of a Trajectory's float table and of its index table, in order.
VALUE_FIELDS = SummarySample._fields[:15]
INDEX_FIELDS = SummarySample._fields[15:]
_COLUMN = {name: (0, k) for k, name in enumerate(VALUE_FIELDS)} | {
    name: (1, k) for k, name in enumerate(INDEX_FIELDS)
}


@dataclass
class RunStats:
    """Counters of one evolve call.

    steps: accepted steps. rejected: step attempts rejected and retried with
    halved dt (an exhausted run adds MAX_STEP_HALVINGS + 1). diffusion_limited:
    accepted steps whose adaptive dt came from the explicit-diffusion limit
    rather than the reaction limit. neck_resolution: a / (phi dz) at the
    argmin of a in the final state, the neck's width in arclength grid
    cells; None until a run sets it.
    """

    steps: int = 0
    rejected: int = 0
    diffusion_limited: int = 0
    neck_resolution: float | None = None

    def as_dict(self) -> dict:
        return {
            "steps": self.steps,
            "rejected": self.rejected,
            "diffusion_limited": self.diffusion_limited,
            "neck_resolution": self.neck_resolution,
        }


#: Blocks joined into one chunk of a Trajectory (about 512 samples in blocks
#: of SUMMARY_BLOCK): few arrays per run, and each join copies little.
_BLOCKS_PER_CHUNK = 64


class _Rows(Sequence):
    """Row view of a Trajectory: len() and [k], k possibly negative."""

    def __init__(self, traj: Trajectory):
        self._traj = traj

    def __len__(self) -> int:
        return sum(values.shape[1] for values, _ in self._traj._chunks())

    def __getitem__(self, k) -> SummarySample:
        k = range(len(self))[operator.index(k)]
        for values, indices in self._traj._chunks():
            if k < values.shape[1]:
                return SummarySample(*values[:, k].tolist(), *indices[:, k].tolist())
            k -= values.shape[1]


@dataclass(eq=False)
class Trajectory:
    """Recorded summaries as columns, sparse full snapshots, the stop
    condition and the run counters.

    The summaries are a float64 table with a row per VALUE_FIELDS name and
    an integer table with a row per INDEX_FIELDS name, a column per sample,
    held as a list of chunks. extend() appends a block of columns and joins
    every _BLOCKS_PER_CHUNK blocks into one chunk, so the tables grow by
    amortized chunks, hold no column beyond the samples recorded, and are
    never copied whole. series(name) joins one row across the chunks into a
    new array, column_blocks() streams columns a bounded block at a time,
    and samples gives len() and rows built on demand.
    """

    grid: PeriodicGrid
    snapshots: list[MetricState] = dc_field(default_factory=list)
    stop_reason: str = ""
    run_stats: RunStats = dc_field(default_factory=RunStats)
    _sealed: list[tuple[np.ndarray, np.ndarray]] = dc_field(init=False, repr=False)
    _open: list[tuple[np.ndarray, np.ndarray]] = dc_field(
        init=False, repr=False, default_factory=list
    )

    def __post_init__(self):
        # An empty first chunk gives every column its dtype.
        self._sealed = [
            (np.empty((len(VALUE_FIELDS), 0)), np.empty((len(INDEX_FIELDS), 0), dtype=np.intp))
        ]

    def extend(self, values: np.ndarray, indices: np.ndarray) -> None:
        """Append samples: values (len(VALUE_FIELDS), B), indices (len(INDEX_FIELDS), B)."""
        b = values.shape[-1]
        if values.shape != (len(VALUE_FIELDS), b) or indices.shape != (len(INDEX_FIELDS), b):
            raise ValueError(f"mismatched blocks {values.shape} and {indices.shape}")
        self._open.append((values, indices))
        if len(self._open) == _BLOCKS_PER_CHUNK:
            self._seal()

    def _seal(self) -> None:
        values, indices = zip(*self._open)
        self._sealed.append((np.concatenate(values, axis=1), np.concatenate(indices, axis=1)))
        self._open.clear()

    def _chunks(self) -> list[tuple[np.ndarray, np.ndarray]]:
        if self._open:
            self._seal()
        return self._sealed

    @property
    def samples(self) -> Sequence[SummarySample]:
        return _Rows(self)

    def series(self, name: str) -> np.ndarray:
        table, row = _COLUMN[name]
        return np.concatenate([chunk[table][row] for chunk in self._chunks()])

    def column_blocks(self, names: Sequence[str], size: int) -> Iterator[np.ndarray]:
        """The named columns stacked (len(names), m), m <= size, in sample order."""
        rows = [_COLUMN[name] for name in names]
        for chunk in self._chunks():
            for lo in range(0, chunk[0].shape[1], size):
                yield np.stack([chunk[table][row, lo : lo + size] for table, row in rows])

    @property
    def ts(self) -> np.ndarray:
        return self.series("t")

    @property
    def dt_mean(self) -> float:
        dts = self.series("dt")
        dts = dts[dts > 0.0]
        return float(np.mean(dts)) if dts.size else 0.0


@dataclass(frozen=True)
class SingularityReport:
    """Linear extrapolation of a_min^2 to its root."""

    t_estimate: float
    fit_window: tuple[float, float]
    fit_residual: float
    a_min_final: float


@functools.cache
def _antiderivative_multiplier(n: int) -> np.ndarray:
    """rfft multiplier of the mean-free periodic antiderivative on n points of
    [0, 2 pi): 1/(ik) for 0 < k < n/2, 0 at k = 0 and at the Nyquist mode."""
    mult = np.zeros(n // 2 + 1, dtype=complex)
    mult[1:-1] = 1.0 / (1j * np.arange(1, n // 2))
    mult.setflags(write=False)
    return mult


def tangential_speed(
    phi: np.ndarray, q: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray | None, float]:
    """The constant-speed gauge's tangential speed W and rate c at one state.

    q = a''/a + b''/b + c''/c, and weights = phi0 / sum(phi0) for any phi0
    proportional to phi. c = int phi q dz / int phi dz is one dot product
    with the weights, and W is the mean-free periodic antiderivative of
    dz W = phi (c - q): one rfft, the multiplier 1/(ik), one irfft. W is
    None when phi (c - q) has no nonzero entry, as on z-constant data, so
    callers skip the transform and the advection term W x'.
    """
    c = float(weights @ q)
    dw = phi * (c - q)
    if not dw.any():
        return None, c
    n = q.shape[-1]
    return np.fft.irfft(np.fft.rfft(dw) * _antiderivative_multiplier(n), n), c


def _flow_rhs(
    x: np.ndarray, phi: np.ndarray, weights: np.ndarray, dz: float
) -> tuple[np.ndarray, float]:
    """(dt a, dt b, dt c) stacked (3, n) for the radii x = (a, b, c), and
    dt log lambda = c, under the gauge phi (see tangential_speed).

    Each row x couples to the next two rows cyclically, (y, z) = (b, c),
    (c, a), (a, b); every coupling term is symmetric in y and z, so the cyclic
    order gives the same floating-point values as the written pairs. The
    terms are evaluated in the operand order of the commented expressions, in
    place where that order allows, so the values equal those of the plain
    expressions.
    """
    if x.min() <= 0.0:
        raise StepRejected("profiles left the positive cone")
    xp, xpp = jet(phi, x, dz)
    # Rows repeated twice, so rows 1:4 and 2:5 are each row's (y, z).
    r = np.concatenate((xp / x,) * 2)
    sq = np.concatenate((x * x,) * 2)
    # xpp + xp * (r_y + r_z)
    dx = np.add(r[1:4], r[2:5])
    dx *= xp
    dx += xpp
    # - 2x (x^4 - (y^2 - z^2)^2) / (xyz)^2
    reaction = x**4
    reaction -= np.square(sq[1:4] - sq[2:5])
    denom = x[0] * x[1]
    denom *= x[2]
    denom *= denom
    term = 2.0 * x
    term *= reaction
    term /= denom
    dx -= term
    q = xpp / x
    w, c = tangential_speed(phi, q[0] + q[1] + q[2], weights)
    # + W x'
    if w is not None:
        xp *= w
        dx += xp
    if not (np.isfinite(dx).all() and math.isfinite(c)):
        raise StepRejected("non-finite flow derivatives")
    return dx, c


def _gauge_scale(log_lam: float) -> float:
    """lambda = exp(log lambda), as a Python float.

    Raises NonFiniteFieldError when it overflows and GaugeDegeneracyError
    when it underflows to 0: the errors a gauge row phi gets.
    """
    try:
        lam = math.exp(log_lam)
    except OverflowError:
        raise NonFiniteFieldError("gauge scale lambda overflowed") from None
    if lam == 0.0:
        raise GaugeDegeneracyError("gauge scale lambda underflowed to 0")
    return lam


def rk4_step(
    x0: np.ndarray, log_lam0: float, dt: float, phi0: np.ndarray, weights: np.ndarray, dz: float
) -> tuple[np.ndarray, float]:
    """One classical RK4 step of the radii x0, stacked (3, n), and log lambda.

    The gauge of a stage is lambda * phi0; weights = phi0 / sum(phi0).
    Raises StepRejected if a stage or the result leaves the positive cone or
    turns non-finite.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")

    def stage(x, log_lam):
        return _flow_rhs(x, _gauge_scale(log_lam) * phi0, weights, dz)

    k1, c1 = stage(x0, log_lam0)
    k2, c2 = stage(x0 + 0.5 * dt * k1, log_lam0 + 0.5 * dt * c1)
    k3, c3 = stage(x0 + 0.5 * dt * k2, log_lam0 + 0.5 * dt * c2)
    k4, c4 = stage(x0 + dt * k3, log_lam0 + dt * c3)
    x1 = x0 + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    log_lam1 = log_lam0 + dt / 6.0 * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
    if not (np.isfinite(x1).all() and math.isfinite(log_lam1)):
        raise StepRejected("non-finite state after step")
    if x1.min() <= 0.0:
        raise StepRejected("positivity lost after step")
    return x1, log_lam1


def _step_limits(phi_min: float, a_min: float, dz: float) -> tuple[float, float]:
    """The (diffusion, reaction) limits of the adaptive dt before the cfl
    factor, from the minima of phi and a, as Python floats.

    The diffusion limit is (min phi*dz)^2, the squared arclength mesh width;
    the reaction limit a_min^2 / 8 resolves d(a_min^2)/dt in [-4, 0) near the
    pinch.
    """
    mesh = phi_min * dz
    return mesh * mesh, a_min * a_min / 8.0


def _eccentricity(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.abs(x - y) / np.minimum(x, y)


def summarize_state(
    ts: list[float], dts: list[float], x: np.ndarray, phi: np.ndarray, dz: float
) -> tuple[np.ndarray, np.ndarray]:
    """All scalar reductions the monitors need, for a block of B states.

    ts and dts hold the B times and steps, x the radii stacked (B, 3, n) and
    phi the gauges stacked (B, n). Returns the block's columns for
    Trajectory.extend: values (len(VALUE_FIELDS), B) and argmin/argmax
    indices (len(INDEX_FIELDS), B), each index the first attaining its value.
    Every reduction runs along the last axis, so each sample is bitwise the
    one a block of that state alone gives.
    """
    check_resolvable(x)
    xp, xpp = jet(phi[:, np.newaxis], x, dz)
    scal, rm_norm_sq = curv = trace_invariants(sectional_rows(x, xp, xpp)[0])
    if not np.isfinite(curv).all():
        raise NonFiniteFieldError("curvature is not finite everywhere")

    # Rows reduced by min, then rows reduced by max, in VALUE_FIELDS order;
    # b_min is the one value without an index.
    a, b, c = x[:, 0], x[:, 1], x[:, 2]
    lows = np.stack((a, b, b - a, c - b, scal))
    ratios = (c, c / a, _eccentricity(b, c), _eccentricity(a, c), np.sqrt(rm_norm_sq))
    highs = np.concatenate((np.stack(ratios), np.moveaxis(np.abs(xp), 1, 0)))
    lo, hi = lows.argmin(axis=-1), highs.argmax(axis=-1)
    values = np.concatenate((
        [ts, dts],
        np.take_along_axis(lows, lo[..., np.newaxis], axis=-1)[..., 0],
        np.take_along_axis(highs, hi[..., np.newaxis], axis=-1)[..., 0],
    ))
    indices = np.concatenate((lo[[0, 2, 3, 4]], hi))
    return values, indices


def evolve(
    initial: MetricState, cfg: FlowConfig
) -> tuple[Trajectory, SingularityReport | None]:
    """Step until the pinch threshold, the time cap, or exhausted step halvings.

    Between steps the state is the (3, n) radii and the Python float
    log lambda, the gauge being phi = lambda * phi0 with phi0 the initial
    phi; a MetricState is built only for the snapshots, every
    snapshot_stride steps and at the end. Summaries are recorded every
    monitor_stride steps plus the first and last state, and computed
    SUMMARY_BLOCK states at a time; the initial state is summarized alone,
    so that data no summary accepts fail before the first step. A rejected
    step (one that leaves the positive cone or turns non-finite) is retried
    with halved dt up to MAX_STEP_HALVINGS times; exhaustion stops the run
    with the last good state preserved and stop reason STOP_HALVINGS.
    traj.run_stats counts the accepted steps, the rejected attempts and the
    steps whose dt the diffusion limit set, and records the neck resolution
    of the final state.
    """
    grid = initial.grid
    dz = grid.dz
    traj = Trajectory(grid=grid)
    traj.snapshots.append(initial)
    phi0 = initial.phi
    phi0_min = float(phi0.min())
    weights = phi0 / phi0.sum()
    block_x = np.empty((SUMMARY_BLOCK, 3, grid.n))
    block_phi = np.empty((SUMMARY_BLOCK, grid.n))
    block_t: list[float] = []
    block_dt: list[float] = []

    def flush():
        k = len(block_t)
        traj.extend(*summarize_state(block_t, block_dt, block_x[:k], block_phi[:k], dz))
        block_t.clear()
        block_dt.clear()

    def record(t, dt, x, lam):
        k = len(block_t)
        block_x[k] = x
        np.multiply(phi0, lam, out=block_phi[k])
        block_t.append(t)
        block_dt.append(dt)
        if k + 1 == SUMMARY_BLOCK:
            flush()

    t = initial.t
    x = radii(initial)
    log_lam, lam = 0.0, 1.0
    record(t, 0.0, x, lam)
    flush()
    recorded_t = t

    stats = traj.run_stats
    last_dt = 0.0
    while True:
        a_min = float(x[0].min())
        if a_min < cfg.a_min_stop:
            stop = STOP_AMIN
            break
        if t >= cfg.t_max:
            stop = STOP_TMAX
            break

        diffusion_limited = False
        if cfg.fixed_dt is None:
            diffusion, reaction = _step_limits(lam * phi0_min, a_min, dz)
            diffusion_limited = diffusion <= reaction
            dt = cfg.cfl_safety * min(diffusion, reaction)
        else:
            dt = cfg.fixed_dt
        dt = min(dt, cfg.t_max - t)
        advanced = None
        for _ in range(MAX_STEP_HALVINGS + 1):
            try:
                advanced = rk4_step(x, log_lam, dt, phi0, weights, dz)
                break
            except StepRejected:
                stats.rejected += 1
                dt *= 0.5
        if advanced is None:
            stop = STOP_HALVINGS
            break

        x, log_lam = advanced
        lam = _gauge_scale(log_lam)
        t += dt
        stats.steps += 1
        stats.diffusion_limited += diffusion_limited
        last_dt = dt
        if stats.steps % cfg.monitor_stride == 0:
            record(t, dt, x, lam)
            recorded_t = t
        if stats.steps % cfg.snapshot_stride == 0:
            traj.snapshots.append(metric_state(grid, t, lam * phi0, *x))

    if recorded_t < t:
        record(t, last_dt, x, lam)
    if block_t:
        flush()
    if traj.snapshots[-1].t < t:
        traj.snapshots.append(metric_state(grid, t, lam * phi0, *x))
    traj.stop_reason = stop
    neck = int(x[0].argmin())
    stats.neck_resolution = float(x[0, neck] / (lam * phi0[neck] * dz))

    try:
        report = estimate_singular_time(traj)
    except (NoSingularityDetected, InsufficientSamplesError):
        report = None
    return traj, report


def estimate_singular_time(traj: Trajectory) -> SingularityReport:
    """Least-squares linear fit of a_min^2 over the final decade of a_min.

    The window is every sample with a_min <= 10 * (final a_min); the estimate
    is the root of the fitted line. A non-negative fitted slope means the
    series is not shrinking toward zero.
    """
    ts = traj.ts
    a_min = traj.series("a_min")
    window = a_min <= 10.0 * a_min[-1]
    if int(np.sum(window)) < MIN_FIT_SAMPLES:
        raise InsufficientSamplesError(
            f"need >= {MIN_FIT_SAMPLES} samples in the final decade, have {int(np.sum(window))}"
        )
    t_fit = ts[window]
    y_fit = a_min[window] ** 2
    slope, intercept = np.polyfit(t_fit, y_fit, 1)
    if slope >= 0.0:
        raise NoSingularityDetected("fitted slope of a_min^2 is non-negative")
    t_root = -intercept / slope
    residual = float(np.sqrt(np.mean((slope * t_fit + intercept - y_fit) ** 2)))
    return SingularityReport(
        t_estimate=float(t_root),
        fit_window=(float(t_fit[0]), float(t_fit[-1])),
        fit_residual=residual,
        a_min_final=float(a_min[-1]),
    )
