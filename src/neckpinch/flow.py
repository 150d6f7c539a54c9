"""Time evolution of the metric profiles under Ricci flow.

The flow is Ricci flow plus the Lie derivative along a tangential vector
field V = (W/phi) dz (DeTurck's freedom), with W chosen so that the gauge
keeps its shape: the radii satisfy

    dt a = a'' + a'(b'/b + c'/c) - 2a (a^4 - (b^2-c^2)^2) / (abc)^2 + W a'

(and its b, c relabelings) with dz W = phi (c - q), q = a''/a + b''/b + c''/c
and c = int phi q dz / int phi dz. The gauge then obeys dt log(phi) = c(t),
uniform in z, so phi = lambda(t) phi0(z) for all time. Preset.build moves a
non-uniform phi0 to nodes of equal arclength, so phi is lambda(t) phi_bar
and the state is the radii plus log(lambda), with dt log(lambda) = c. This
is the constant-speed (tangential redistribution) parametrization of
curve-shortening flow: the grid points keep equal arclength spacing, so a
neck keeps its grid points while it narrows. W is the mean-free periodic
antiderivative, one rfft/irfft per stage, exactly zero on z-constant data.
Primes are arclength derivatives on the fixed z-grid, x' = dz x / phi and
x'' = dz^2 x / phi^2, and grid.z_jet applies that gauge.

With phi uniform, the stiff diffusion a'' = D1 D1 a / phi^2 is a Fourier
multiplier, and rk4_step integrates it exactly: Lawson's integrating-factor
RK4 (SIAM J. Numer. Anal. 4, 1967) on the rfft of the radii, with classical
RK4 on log(lambda). dt therefore follows an estimate of the step's own
error, formed from its four stages, not an explicit-diffusion limit, and
takes about the same number of steps at every n (see evolve). cfl_safety
is the accuracy factor of that controller, not a stability limit. The
diffusion enters a step only as one exp, its factor over half the step, and
a step on a grid takes 17 transform calls, each through grid.rfft or
grid.irfft. The step calls no BLAS routine: a process's first gemm maps
OpenBLAS's kernels and buffer, 0.25-0.4 MB of resident memory, for products
of 3 rows.

The state stays in Fourier space, the radii as their rfft u; grid.z_jet,
the package's one z-derivative, gives from u and phi the jet (x, x', x'')
that _flow_rhs, the flow's time derivative on a grid, reads in rk4_step's
stages, evolve's step rule and the monitors' K_0i evolution residual. Each
accepted state's jet also serves the next first stage and its summary.

Radii exactly constant along z stay so, and their flow is the Bianchi IX ODE
(Isenberg & Jackson, J. Differential Geom. 35, 1992), the homogeneous case
of the PDE. evolve steps them as three Python floats, one point's worth,
with _point_rhs and _point_step. There x' = x'' = 0, so q = 0, c = 0 and
lambda stays exactly 1, and the diffusion factor is 1, so the step is
classical RK4. Both do the grid step's floating-point operations in its
order, so on a power-of-two n, whose transforms of a constant row only scale
its mean by n exactly, the run is bitwise the grid run, with no FFT call and
no NumPy call a step.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field as dc_field

import numpy as np

from .grid import DataError, MetricState, _jet_symbol, irfft, is_number, rfft, z_jet
from .curvature import MIN_RADIUS, check_resolvable, sectional_rows, trace_invariants

STOP_AMIN = "a_min_reached"
STOP_TMAX = "t_max_reached"
STOP_HALVINGS = "step_halvings_exhausted"

#: Attempts to halve dt after a rejected step before giving up.
MAX_STEP_HALVINGS = 20

#: Bytes of the stacked jets that evolve summarizes per summarize_state
#: call: 32 states at n = 64, 8 at n = 256. Per state on a fig-a run's jets
#: (best of seven processes, one core of a 2-vCPU Xeon), n = 64: 25 us in
#: blocks of 8, 15.5 in 16, 10 in 32, 9 in 64; n = 256: 37.5 us in 8, 33 in
#: 16, 33 in 32, 33 in 64. The one point of z-constant data takes the block
#: of 8 points, 256 states, 0.9 us a state (0.7 in 512, 0.5 in 2048): the
#: budget alone would allow 2048, and the call's temporaries, about 0.7 KB a
#: state, would then set the run's peak memory.
SUMMARY_BLOCK_BYTES = 144 * 1024


def summary_block(n: int) -> int:
    """States per summarize_state call in evolve on n points: as many
    (3, 3, n) float64 jets as fit in SUMMARY_BLOCK_BYTES, at least 1, and
    no more than on 8 points, 256."""
    return max(1, SUMMARY_BLOCK_BYTES // (3 * 3 * max(n, 8) * 8))


#: Samples the singular-time fit needs inside the final decade of a_min.
MIN_FIT_SAMPLES = 10


class StepRejected(RuntimeError):
    """A step left the positive cone; the caller should halve dt and retry."""


@dataclass(frozen=True)
class FlowConfig:
    cfl_safety: float = 0.2
    a_min_stop: float = 1e-3
    t_max: float = math.inf
    monitor_stride: int = 1

    def __post_init__(self):
        for name in ("cfl_safety", "a_min_stop", "t_max"):
            value = getattr(self, name)
            if not is_number(value):
                raise DataError(f"{name} must be a number, got {value!r}")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise DataError("cfl_safety must lie in (0, 1]")
        if not self.a_min_stop > MIN_RADIUS:
            # A state below the floor cannot be summarized, and the run's last
            # state lies below a_min_stop.
            raise DataError(
                f"a_min_stop must exceed the resolvable radius floor {MIN_RADIUS:.0e}, "
                f"got {self.a_min_stop!r}"
            )
        stride = self.monitor_stride
        if isinstance(stride, bool) or not isinstance(stride, int):
            raise DataError(f"monitor_stride must be an integer, got {stride!r}")
        if stride < 1:
            raise DataError("monitor_stride must be >= 1")
        if math.isnan(self.t_max):
            raise DataError("t_max must be a number, got NaN")


#: The reductions of summarize_state, the minima then the maxima, each with
#: the field of the grid index that first attains it; b_min and rm_max, whose
#: index nothing reads, have none.
_MINIMA = (
    ("a_min", "a_min_idx"), ("b_min", None), ("ord_ba_min", "ord_ba_idx"),
    ("ord_cb_min", "ord_cb_idx"), ("s_min", "s_min_idx"),
)
_MAXIMA = (
    ("c_max", "c_max_idx"), ("ratio_max", "ratio_max_idx"), ("ecc_bc", "ecc_bc_idx"),
    ("ecc_ac", "ecc_ac_idx"), ("rm_max", None), ("sup_ap", "sup_ap_idx"),
    ("sup_bp", "sup_bp_idx"), ("sup_cp", "sup_cp_idx"),
)

#: One summary sample: t, dt and the 13 reductions as float64, then the grid
#: index of 11 of them.
SUMMARY_DTYPE = np.dtype(
    [("t", np.float64), ("dt", np.float64)]
    + [(value, np.float64) for value, _ in _MINIMA + _MAXIMA]
    + [(index, np.intp) for _, index in _MINIMA + _MAXIMA if index]
)


@dataclass
class RunStats:
    """Counters of one evolve call.

    steps: accepted steps. rejected: step attempts rejected and retried with
    halved dt (an exhausted run, or a first stage that is not finite, adds
    MAX_STEP_HALVINGS + 1). capped: accepted steps whose dt the bound
    cfl_safety / (4 r) set rather than the error controller (see evolve).
    neck_resolution: a / (phi dz) at the argmin of a in the final state, the
    neck's width in arclength grid cells; None until a run sets it.
    """

    steps: int = 0
    rejected: int = 0
    capped: int = 0
    neck_resolution: float | None = None


@dataclass(eq=False)
class Trajectory:
    """Recorded summaries, full snapshots, the stop condition and the run
    counters.

    snapshots holds the first state, which every trajectory has and whose
    grid and gauge are the run's, and, when the run advanced, the final one.
    samples holds the summaries, one record of SUMMARY_DTYPE per sample, as
    a read-only view of the 1-d array given: samples["a_min"] is a column,
    samples[k] a record and samples[k]["a_min"] one value.
    """

    samples: np.ndarray
    snapshots: list[MetricState]
    stop_reason: str = ""
    run_stats: RunStats = dc_field(default_factory=RunStats)

    def __post_init__(self):
        s = self.samples
        if s.dtype != SUMMARY_DTYPE or s.ndim != 1:
            raise ValueError(f"expected 1-d SUMMARY_DTYPE samples, got {s.dtype} {s.shape}")
        if not self.snapshots:
            raise ValueError("a trajectory needs its initial state in snapshots")
        self.samples = s.view()
        self.samples.setflags(write=False)


@dataclass(frozen=True)
class SingularityReport:
    """Linear extrapolation of a_min^2 to its root."""

    t_estimate: float
    fit_window: tuple[float, float]
    fit_residual: float


@functools.cache
def _antiderivative_multiplier(n: int) -> np.ndarray:
    """rfft multiplier of the mean-free periodic antiderivative on n points of
    [0, 2 pi): 1/(ik) for 0 < k < n/2, 0 at k = 0 and at the Nyquist mode."""
    mult = np.zeros(n // 2 + 1, dtype=complex)
    mult[1:-1] = 1.0 / (1j * np.arange(1, n // 2))
    mult.setflags(write=False)
    return mult


def tangential_speed(phi: float, q: np.ndarray) -> tuple[np.ndarray, float]:
    """The constant-speed gauge's tangential speed W and rate c at one state.

    phi is the uniform gauge, a scalar, and q = a''/a + b''/b + c''/c.
    c = int phi q dz / int phi dz, the mean of q, and W is the mean-free
    periodic antiderivative of dz W = phi (c - q): one rfft, the multiplier
    1/(ik), one irfft; exact zeros where phi (c - q) is, as on z-constant
    data.
    """
    # phi cancels from c; np.mean would cost 20 us a call at n = 64.
    n = q.shape[-1]
    c = float(q.sum()) / n
    return irfft(rfft(phi * (c - q)) * _antiderivative_multiplier(n), n), c


def _flow_rhs(zj: np.ndarray, phi: float) -> tuple[np.ndarray, float, np.ndarray]:
    """(dt a, dt b, dt c) stacked (3, n) for the radii x = (a, b, c),
    dt log lambda = c and the tangential speed W (see tangential_speed),
    under the uniform gauge phi, from the arclength jet zj = (x, x', x'')
    stacked (3, 3, n), z_jet(u, phi).

    Each row x couples to the next two rows cyclically, (y, z) = (b, c),
    (c, a), (a, b); every coupling term is symmetric in y and z, so the cyclic
    order gives the same floating-point values as the written pairs.
    """
    x, xp, xpp = zj
    if x.min() <= 0.0:
        raise StepRejected("profiles left the positive cone")
    # Rows repeated twice, so rows 1:4 and 2:5 are each row's (y, z).
    r = np.concatenate((xp / x,) * 2)
    sq = np.concatenate((x * x,) * 2)
    q = xpp / x
    w, c = tangential_speed(phi, q[0] + q[1] + q[2])
    drift = r[1:4] + r[2:5] + w
    # xpp + xp (r_y + r_z + W) - 2x (x^4 - (y^2 - z^2)^2) / (a^2 b^2 c^2)
    reaction = sq[:3] ** 2 - (sq[1:4] - sq[2:5]) ** 2
    dx = xpp + xp * drift - 2.0 * x * reaction / (sq[0] * sq[1] * sq[2])
    if not (np.isfinite(dx).all() and math.isfinite(c)):
        raise StepRejected("non-finite flow derivatives")
    return dx, c, w


def _gauge_scale(log_lam: float) -> float:
    """lambda = exp(log lambda), as a Python float.

    Raises DataError when it overflows or underflows to 0, as MetricState
    does for such a phi.
    """
    try:
        lam = math.exp(log_lam)
    except OverflowError:
        raise DataError("gauge scale lambda overflowed") from None
    if lam == 0.0:
        raise DataError("gauge scale lambda underflowed to 0")
    return lam


def rk4_step(
    u0: np.ndarray,
    log_lam0: float,
    dt: float,
    first: tuple[np.ndarray, float],
    phi_bar: float,
) -> tuple[tuple[np.ndarray, np.ndarray, float, float], float]:
    """One integrating-factor RK4 step of log lambda and the radii on n
    points, held as their rfft u0, stacked (3, n/2 + 1); returns the state
    evolve keeps, (z_jet(u1, phi1), u1, log lambda1, phi1) with phi1 =
    lambda1 * phi_bar, and est.

    The gauge of a stage is lambda * phi_bar, and first = (rfft(k1), c1) is
    _flow_rhs at the jet of u0 under lambda0 * phi_bar, the first stage,
    which the caller has already evaluated to choose dt. In the rfft of the
    radii the flow is u' = L u + N(u, t) with L = -s(k)^2 / (lambda0
    phi_bar)^2, the diffusion D1 o D1 frozen at the step's lambda0, and
    N = f - L u holds the first-order terms, the reaction, W x' and the drift
    of lambda over the step. Lawson's RK4 (SIAM J. Numer. Anal. 4, 1967) is
    classical RK4 on v = exp(-L t) u, whose flow holds no L: the diffusion
    enters only as E = exp(L dt / 2), which is 1 at k = 0, where the step is
    classical RK4, as it is on log lambda.

    est = max |x1 - x~1| estimates the step's local error from its own
    stages: x~1 is the trapezoid E^2 u0 + (dt/2) (E^2 N1 + Nc), second
    order, so est is O(dt^3) and costs one irfft, (dt/3) (E (Na + Nb) -
    E^2 N1 - Nc), and no right-hand side. Raises StepRejected if dt is not
    positive (a step that underflowed to 0) or a stage or the result leaves
    the positive cone or turns non-finite, and _gauge_scale's errors if a
    stage's or the result's lambda overflows or underflows to 0.
    """
    if dt <= 0.0:
        raise StepRejected("dt is not positive")
    n = 2 * (u0.shape[-1] - 1)
    lin = _jet_symbol(n)[2].real / (_gauge_scale(log_lam0) * phi_bar) ** 2
    # E from L, not from h = dt / (lambda phi_bar)^2 times the symbol: under
    # a tiny gauge h can overflow, and inf times the symbol's -0.0 at k = 0
    # is NaN; L is -0.0 there at any gauge, so E = 1.
    e = np.exp(0.5 * dt * lin)

    def stage(u, log_lam):
        phi = _gauge_scale(log_lam) * phi_bar
        k, c, _ = _flow_rhs(z_jet(u, phi), phi)
        return rfft(k) - lin * u, c

    f1, c1 = first
    n1 = f1 - lin * u0
    e2 = e * e
    e2u0 = e2 * u0
    na, c2 = stage(e * (u0 + 0.5 * dt * n1), log_lam0 + 0.5 * dt * c1)
    nb, c3 = stage(e * u0 + 0.5 * dt * na, log_lam0 + 0.5 * dt * c2)
    nc, c4 = stage(e2u0 + dt * e * nb, log_lam0 + dt * c3)
    # The trapezoid x~1 = E^2 u0 + (dt/2) ends, and x1 - x~1 = (dt/3) gap.
    ends, mid = e2 * n1 + nc, e * (na + nb)
    u1 = e2u0 + dt / 6.0 * (ends + 2.0 * mid)
    log_lam1 = log_lam0 + dt / 6.0 * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
    phi1 = _gauge_scale(log_lam1) * phi_bar
    zj1 = z_jet(u1, phi1)
    if not (np.isfinite(zj1).all() and math.isfinite(log_lam1)):
        raise StepRejected("non-finite state after step")
    if zj1[0].min() <= 0.0:
        raise StepRejected("positivity lost after step")
    # dt/3 > 0 scales after the max with the same bits as before it.
    est = dt / 3.0 * float(np.abs(irfft(mid - ends, n)).max())
    return (zj1, u1, log_lam1, phi1), est


def _point_rhs(x: Sequence[float]) -> tuple[float, float, float]:
    """_flow_rhs on the one point of z-constant radii x = (a, b, c), three
    floats: (dt a, dt b, dt c), with the same rejections.

    The grid's operations in its order: x'' + x' (r_y + r_z + W) is
    0.0 + 0.0 * 0.0 = 0.0 there, hence 0.0 - 2x (...), which is never -0.0,
    so the + 0.0 of rk4_step's k - L u under L = -0.0 changes no bit.
    """
    a, b, c = x
    if min(a, b, c) <= 0.0:
        raise StepRejected("profiles left the positive cone")
    a2, b2, c2 = a * a, b * b, c * c
    abc2 = a2 * b2 * c2
    if abc2 == 0.0:
        # NumPy's x / 0 is non-finite; Python's raises.
        raise StepRejected("non-finite flow derivatives")
    k = (
        0.0 - 2.0 * a * (a2 * a2 - (b2 - c2) * (b2 - c2)) / abc2,
        0.0 - 2.0 * b * (b2 * b2 - (c2 - a2) * (c2 - a2)) / abc2,
        0.0 - 2.0 * c * (c2 * c2 - (a2 - b2) * (a2 - b2)) / abc2,
    )
    if not all(map(math.isfinite, k)):
        raise StepRejected("non-finite flow derivatives")
    return k


def _point_step(
    x0: Sequence[float], dt: float, k1: Sequence[float]
) -> tuple[tuple[float, ...], float]:
    """rk4_step on the one point of z-constant radii x0, three floats, whose
    first stage k1 = _point_rhs(x0) the caller has evaluated: (x1, est).

    E = 1 and lambda = 1 there (see the module docstring), so the step is
    classical RK4 and est = (dt/3) max |(ka + kb) - (k1 + kc)|, rk4_step's
    trapezoid estimate, in rk4_step's order of operations. Raises
    StepRejected as rk4_step does.
    """
    if dt <= 0.0:
        raise StepRejected("dt is not positive")
    a, b, c = x0
    h = 0.5 * dt
    ka = _point_rhs((a + h * k1[0], b + h * k1[1], c + h * k1[2]))
    kb = _point_rhs((a + h * ka[0], b + h * ka[1], c + h * ka[2]))
    kc = _point_rhs((a + dt * kb[0], b + dt * kb[1], c + dt * kb[2]))
    ends = (k1[0] + kc[0], k1[1] + kc[1], k1[2] + kc[2])
    mid = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
    w = dt / 6.0
    x1 = (
        a + w * (ends[0] + 2.0 * mid[0]),
        b + w * (ends[1] + 2.0 * mid[1]),
        c + w * (ends[2] + 2.0 * mid[2]),
    )
    if not all(map(math.isfinite, x1)):
        raise StepRejected("non-finite state after step")
    if min(x1) <= 0.0:
        raise StepRejected("positivity lost after step")
    gap = max(abs(mid[0] - ends[0]), abs(mid[1] - ends[1]), abs(mid[2] - ends[2]))
    return x1, dt / 3.0 * gap


def _eccentricity(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.abs(x - y) / np.minimum(x, y)


def summarize_state(ts: Sequence[float], dts: Sequence[float], jets: np.ndarray) -> np.ndarray:
    """All scalar reductions the monitors need, for a block of B states.

    ts and dts hold the B times and steps, jets the B arclength jets (x, x',
    x''), each z_jet(u, phi) under its state's gauge, stacked (B, 3, 3,
    n). Returns the block's B records of SUMMARY_DTYPE, each index the first
    attaining its value. Every reduction runs along the last axis, so each
    sample is bitwise the one a block of that state alone gives.
    """
    x, xp, xpp = jets[:, 0], jets[:, 1], jets[:, 2]
    check_resolvable(x)
    scal, rm_norm_sq = curv = trace_invariants(sectional_rows(x, xp, xpp)[0])
    if not np.isfinite(curv).all():
        raise DataError("curvature is not finite everywhere")

    # Rows in _MINIMA order, then rows in _MAXIMA order.
    a, b, c = x[:, 0], x[:, 1], x[:, 2]
    lows = np.stack((a, b, b - a, c - b, scal))
    ratios = (c, c / a, _eccentricity(b, c), _eccentricity(a, c), np.sqrt(rm_norm_sq))
    highs = np.concatenate((np.stack(ratios), np.moveaxis(np.abs(xp), 1, 0)))
    out = np.empty(len(ts), SUMMARY_DTYPE)
    out["t"], out["dt"] = ts, dts
    for names, rows, arg in ((_MINIMA, lows, np.argmin), (_MAXIMA, highs, np.argmax)):
        idx = arg(rows, axis=-1)
        values = np.take_along_axis(rows, idx[..., np.newaxis], axis=-1)[..., 0]
        for (value, index), v, i in zip(names, values, idx):
            out[value] = v
            if index:
                out[index] = i
    return out


def evolve(
    initial: MetricState, cfg: FlowConfig
) -> tuple[Trajectory, SingularityReport | None]:
    """Step until the pinch threshold, the time cap, or exhausted step halvings;
    return the trajectory and estimate_singular_time of it, None where the
    fit finds no singular time.

    initial is the first snapshot, and its gauge is phi_bar. Between steps
    the state is the rfft u of the radii, its jet and log lambda, with t and
    dt as Python floats, the gauge being phi = lambda * phi_bar; a
    MetricState is built only for the final state, the second snapshot when
    the run advanced. The kernel is chosen once: radii exactly constant
    along z are stepped as three floats by _point_step, whose records are
    the jet (x, 0, 0) on one point (see the module docstring), and the
    final snapshot broadcasts them to the grid; any other radii by
    rk4_step. Summaries are recorded every monitor_stride steps plus the
    first and last state, and computed summary_block(n) states at a time,
    as records of SUMMARY_DTYPE joined once when the run ends; the initial
    state is summarized alone, so that data no summary accepts fail before
    the first step.

    Each step first evaluates k1 = f(x) and its rate r = max |k1 / x|. The
    first dt is cfl_safety / (18 r). Each later dt is the last accepted one
    times clip(0.9 (tol / est)^(1/3), 0.2, 2) (Hairer, Norsett & Wanner,
    Solving ODEs I, sec. II.4), est being the kernel's third-order estimate
    of that step's error, max |x1 - x~1|, and tol = 5e-7 (cfl_safety /
    0.2)^3 max x(0): the cube keeps dt proportional to cfl_safety, and the
    largest initial radius keeps the run's steps invariant under parabolic
    rescaling. The estimate only steers; it rejects no step. dt is at most
    t_max - t and cfl_safety / (4 r), which is cfl_safety a_min^2 / 8 at a
    pinch, where r = 2 / a_min^2: the error a step makes on the neck scales
    with a_min, so the controller's steps grow relative to 1/r there, and
    without that bound the last steps before the stop would miss
    d(a_min^2)/dt >= -4 by more than the monitors' grid tolerance;
    traj.run_stats.capped counts the steps it set. A rejected step (one
    that leaves the positive cone or turns non-finite, or whose dt has
    underflowed to 0 or no longer advances t) is retried with halved dt up
    to MAX_STEP_HALVINGS times; exhaustion, or a first stage that is not
    finite, stops the run with the last good state preserved and stop
    reason STOP_HALVINGS.
    traj.run_stats counts the accepted steps and the rejected attempts, and
    records the neck resolution of the final state.
    """
    grid = initial.grid
    x0 = initial.x
    point = not np.ptp(x0, axis=1).any()
    n = 1 if point else grid.n
    snapshots = [initial]
    stats = RunStats()
    phi_bar = initial.phi
    # Pending summaries: jets in a preallocated block, (t, dt) in a list.
    block = summary_block(n)
    block_zj = np.empty((block, 3, 3, n))
    pending: list[tuple[float, float]] = []
    blocks: list[np.ndarray] = []

    # The kernel: its state, first stage (first, r), step (state, est), the
    # rows a record writes and a_min. The grid's state is (jet, u, log
    # lambda, phi), the point's its radii.
    if point:
        state = tuple(x0[:, 0].tolist())
        # x' and x'' stay 0; a record writes x alone.
        block_zj[:, 1:] = 0.0
        slots = block_zj[:, 0, :, 0]

        def first_stage(x):
            k1 = _point_rhs(x)
            return k1, max(abs(k1[0] / x[0]), abs(k1[1] / x[1]), abs(k1[2] / x[2]))

        step, rows, a_min = _point_step, (lambda x: x), (lambda x: x[0])
    else:
        u = rfft(x0)
        state = (z_jet(u, phi_bar), u, 0.0, phi_bar)
        slots = block_zj

        def first_stage(s):
            zj, _, _, phi = s
            k1, c1, _ = _flow_rhs(zj, phi)
            return (rfft(k1), c1), float(np.abs(k1 / zj[0]).max())

        def step(s, dt, first):
            return rk4_step(s[1], s[2], dt, first, phi_bar)

        rows, a_min = (lambda s: s[0]), (lambda s: float(s[0][0, 0].min()))

    def flush():
        if pending:
            ts, dts = zip(*pending)
            blocks.append(summarize_state(ts, dts, block_zj[: len(pending)]))
            pending.clear()

    def record(t, dt):
        slots[len(pending)] = rows(state)
        pending.append((t, dt))
        if len(pending) == block:
            flush()

    t = initial.t
    tol = 5e-7 * (cfg.cfl_safety / 0.2) ** 3 * float(x0.max())
    last_dt = 0.0
    est = None
    # A rejected stage may overflow or divide by zero on its way to the
    # finiteness check that rejects it: NumPy stays silent, as the point
    # kernel is, and the summaries check their own finiteness.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        record(t, 0.0)
        flush()
        while True:
            if a_min(state) < cfg.a_min_stop:
                stop = STOP_AMIN
                break
            if t >= cfg.t_max:
                stop = STOP_TMAX
                break

            try:
                first, rate = first_stage(state)
            except StepRejected:
                # dt does not enter the first stage, so no halving can mend it.
                stats.rejected += MAX_STEP_HALVINGS + 1
                stop = STOP_HALVINGS
                break
            # The smallest normal float keeps a stationary state off 1/0.
            rate = max(rate, sys.float_info.min)
            if est is None:
                dt = cfg.cfl_safety / (18.0 * rate)
            else:
                # An estimate of 0 takes the largest growth, as tol / 0+ would.
                gain = 0.9 * (tol / max(est, sys.float_info.min)) ** (1.0 / 3.0)
                dt = last_dt * min(max(gain, 0.2), 2.0)
            dt = min(dt, cfg.t_max - t)
            cap = cfg.cfl_safety / (4.0 * rate)
            capped = cap < dt
            if capped:
                dt = cap
            for _ in range(MAX_STEP_HALVINGS + 1):
                try:
                    if t + dt == t:
                        raise StepRejected("dt no longer advances t")
                    state, est = step(state, dt, first)
                    break
                except StepRejected:
                    stats.rejected += 1
                    dt *= 0.5
            else:
                stop = STOP_HALVINGS
                break

            t += dt
            stats.steps += 1
            stats.capped += capped
            last_dt = dt
            if stats.steps % cfg.monitor_stride == 0:
                record(t, dt)

        if stats.steps % cfg.monitor_stride:
            record(t, last_dt)
        flush()
    x, phi = (state, phi_bar) if point else (state[0][0], state[3])
    if stats.steps:
        snapshots.append(MetricState(grid, t, phi, x))
    stats.neck_resolution = a_min(state) / (phi * grid.dz)
    # The dtype spares NumPy promoting the record dtypes pair by pair.
    traj = Trajectory(np.concatenate(blocks, dtype=SUMMARY_DTYPE), snapshots, stop, stats)
    return traj, estimate_singular_time(traj)


def _final_decade(a_min: np.ndarray) -> np.ndarray:
    """The final decade of a_min: the mask of samples with a_min <= 10 * a_min[-1],
    the window of the singular-time fit and of the Type I test."""
    return a_min <= 10.0 * a_min[-1]


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares (slope, intercept) of y on x in the centered closed form:
    well conditioned on nearly equal x, and NumPy reductions only, no LAPACK."""
    x_bar, y_bar = x.mean(), y.mean()
    xc = x - x_bar
    slope = float((xc * (y - y_bar)).sum() / (xc * xc).sum())
    return slope, float(y_bar - slope * x_bar)


def estimate_singular_time(traj: Trajectory) -> SingularityReport | None:
    """Least-squares linear fit of a_min^2 over the final decade of a_min.

    The window is every sample with a_min <= 10 * (final a_min); the estimate
    is the root of the line _line_fit gives in centered closed form. None
    when the window holds fewer than MIN_FIT_SAMPLES samples, or when the
    fitted slope is non-negative, so that the series is not shrinking toward
    zero.
    """
    ts, a_min = traj.samples["t"], traj.samples["a_min"]
    window = _final_decade(a_min)
    if np.count_nonzero(window) < MIN_FIT_SAMPLES:
        return None
    t_fit = ts[window]
    y_fit = a_min[window] ** 2
    slope, intercept = _line_fit(t_fit, y_fit)
    if slope >= 0.0:
        return None
    t_root = -intercept / slope
    residual = float(np.sqrt(np.mean((slope * t_fit + intercept - y_fit) ** 2)))
    return SingularityReport(
        t_estimate=float(t_root),
        fit_window=(float(t_fit[0]), float(t_fit[-1])),
        fit_residual=residual,
    )
