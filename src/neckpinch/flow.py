"""Time evolution of the metric profiles under Ricci flow.

The flow is Ricci flow plus the Lie derivative along a tangential vector
field V = (W/phi) dz (DeTurck's freedom), with W chosen so that the gauge
keeps its shape: the radii satisfy

    dt a = a'' + a'(b'/b + c'/c) - 2a (a^4 - (b^2-c^2)^2) / (abc)^2 + W a'

(and its b, c relabelings) with dz W = phi (c - q), q = a''/a + b''/b + c''/c
and c = int phi q dz / int phi dz. The gauge then obeys dt log(phi) = c(t),
uniform in z, so phi = lambda(t) phi0(z) for all time. evolve first moves a
non-uniform phi0 to nodes of equal arclength, so phi is the scalar
lambda(t) phi_bar and the state is the radii plus the one scalar
log(lambda), with dt log(lambda) = c. This is the constant-speed (tangential
redistribution) parametrization of curve-shortening flow: the grid points
keep equal arclength spacing, so a neck keeps its grid points while it
narrows. W is the mean-free periodic antiderivative, one rfft/irfft per
stage, and vanishes identically on z-constant data, where the transform is
skipped. Primes are arclength derivatives on the fixed z-grid, x' =
dz x / phi and x'' = dz^2 x / phi^2, and grid.z_jet applies that gauge.

With phi uniform, the stiff diffusion a'' = D1 D1 a / phi^2 is a Fourier
multiplier, and rk4_step integrates it exactly: ETDRK4 (Cox & Matthews,
J. Comput. Phys. 176, 2002) on the rfft of the radii, with classical RK4 on
log(lambda). dt therefore follows the flow's own rate r = max |dt x / x|,
not an explicit-diffusion limit, and takes about the same number of steps
at every n (see evolve). cfl_safety is the accuracy factor of that rule, not
a stability limit. The step's coefficients come from a table cached per
grid, the powers of the stacked diffusion symbol [sigma/2, sigma]: only the
scalar h = dt / (lambda phi_bar)^2 changes between steps, so the
phi-functions (Kassam & Trefethen, SIAM J. Sci. Comput. 26, 2005) are one
exp, one recurrence, one matmul for their Taylor series and one select.

The state stays in Fourier space, the radii as their rfft u; grid.z_jet,
the package's one z-derivative, gives from u and phi the jet (x, x', x'')
that _flow_rhs, the flow's one time derivative, reads in rk4_step's stages,
evolve's step rule and the monitors' K_0i evolution residual. Each accepted
state's jet also serves the next first stage and its summary.

Between steps evolve holds u, its jet and log(lambda), with t and dt as
Python floats; a MetricState is built only for the final state, the one
snapshot besides the first. The summaries are computed a block at a time,
as many stacked jets as fit in SUMMARY_BLOCK_BYTES, as records of one
structured dtype, SUMMARY_DTYPE, in one array that becomes the Trajectory's
read-only samples.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field as dc_field

import numpy as np

from .grid import (
    GaugeDegeneracyError,
    MetricState,
    NonFiniteFieldError,
    PeriodicGrid,
    _jet_symbol,
    metric_state,
    z_jet,
)
from .curvature import (
    MIN_RADIUS,
    check_resolvable,
    radii,
    sectional_rows,
    trace_invariants,
)

STOP_AMIN = "a_min_reached"
STOP_TMAX = "t_max_reached"
STOP_HALVINGS = "step_halvings_exhausted"

#: Attempts to halve dt after a rejected step before giving up.
MAX_STEP_HALVINGS = 20

#: Bytes of the stacked jets that evolve summarizes per summarize_state
#: call: 8 states at n = 256, 32 at n = 64, where a block of 64 outgrows the
#: cache. Per state on fig-a (best of three processes, one core of a 2-vCPU
#: Xeon), n = 64: 27 us in blocks of 8, 14 in 16, 11.5 in 32, 16.5 in 64;
#: n = 256: 38 us in 8, 32 in 16, 72 in 32.
SUMMARY_BLOCK_BYTES = 144 * 1024


def summary_block(n: int) -> int:
    """States per summarize_state call in evolve on n points: as many
    (3, 3, n) float64 jets as fit in SUMMARY_BLOCK_BYTES, at least 1."""
    return max(1, SUMMARY_BLOCK_BYTES // (3 * 3 * n * 8))


#: Samples the singular-time fit needs inside the final decade of a_min.
MIN_FIT_SAMPLES = 10


class StepRejected(RuntimeError):
    """A step left the positive cone; the caller should halve dt and retry."""


class NoSingularityDetected(RuntimeError):
    """The minimum-radius series does not extrapolate to a finite-time zero."""


class InsufficientSamplesError(RuntimeError):
    """Too few trajectory samples in the fitting window."""


def is_number(value) -> bool:
    """A real number other than a bool, which JSON true/false would smuggle in."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


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
                raise ValueError(f"{name} must be a number, got {value!r}")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ValueError("cfl_safety must lie in (0, 1]")
        if not self.a_min_stop > MIN_RADIUS:
            # A state below the floor cannot be summarized, and the run's last
            # state lies below a_min_stop.
            raise ValueError(
                f"a_min_stop must exceed the resolvable radius floor {MIN_RADIUS:.0e}, "
                f"got {self.a_min_stop!r}"
            )
        stride = self.monitor_stride
        if isinstance(stride, bool) or not isinstance(stride, int):
            raise ValueError(f"monitor_stride must be an integer, got {stride!r}")
        if stride < 1:
            raise ValueError("monitor_stride must be >= 1")
        if math.isnan(self.t_max):
            raise ValueError("t_max must be a number, got NaN")


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
    MAX_STEP_HALVINGS + 1). neck_resolution: a / (phi dz) at the argmin of a
    in the final state, the neck's width in arclength grid cells; None until
    a run sets it.
    """

    steps: int = 0
    rejected: int = 0
    neck_resolution: float | None = None


@dataclass(eq=False)
class Trajectory:
    """Recorded summaries, full snapshots, the stop condition and the run
    counters.

    snapshots holds the first state and, when the run advanced, the final
    one. samples holds the summaries, one record of SUMMARY_DTYPE per
    sample, as one read-only recarray; samples[k].a_min reads one field of
    one sample. series(name) and ts are read-only views of one field, not
    copies.
    """

    grid: PeriodicGrid
    samples: np.recarray
    snapshots: list[MetricState] = dc_field(default_factory=list)
    stop_reason: str = ""
    run_stats: RunStats = dc_field(default_factory=RunStats)

    def __post_init__(self):
        s = self.samples
        if s.dtype != SUMMARY_DTYPE or s.ndim != 1:
            raise ValueError(f"expected 1-d SUMMARY_DTYPE samples, got {s.dtype} {s.shape}")
        self.samples = s.view(np.recarray)
        self.samples.setflags(write=False)

    def series(self, name: str) -> np.ndarray:
        return self.samples[name]

    @property
    def ts(self) -> np.ndarray:
        return self.series("t")


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


def tangential_speed(phi: float, q: np.ndarray) -> tuple[np.ndarray | None, float]:
    """The constant-speed gauge's tangential speed W and rate c at one state.

    phi is the uniform gauge, a scalar, and q = a''/a + b''/b + c''/c.
    c = int phi q dz / int phi dz, the mean of q, and W is the mean-free
    periodic antiderivative of dz W = phi (c - q): one rfft, the multiplier
    1/(ik), one irfft. W is None when phi (c - q) has no nonzero entry, as on
    z-constant data, so callers skip the transform and the advection term
    W x'.
    """
    # phi cancels from c; np.mean would cost 20 us a call at n = 64.
    c = float(q.sum()) / q.size
    dw = phi * (c - q)
    if not dw.any():
        return None, c
    n = q.shape[-1]
    return np.fft.irfft(np.fft.rfft(dw) * _antiderivative_multiplier(n), n), c


def _flow_rhs(zj: np.ndarray, phi: float) -> tuple[np.ndarray, float, np.ndarray | None]:
    """(dt a, dt b, dt c) stacked (3, n) for the radii x = (a, b, c),
    dt log lambda = c and the tangential speed W (see tangential_speed),
    under the uniform gauge phi, from the arclength jet zj = (x, x', x'')
    stacked (3, 3, n), z_jet(u, n, phi).

    Each row x couples to the next two rows cyclically, (y, z) = (b, c),
    (c, a), (a, b); every coupling term is symmetric in y and z, so the cyclic
    order gives the same floating-point values as the written pairs. The
    terms are evaluated in the operand order of the commented expressions, in
    place where that order allows, so the values equal those of the plain
    expressions.
    """
    x, xp, xpp = zj
    if x.min() <= 0.0:
        raise StepRejected("profiles left the positive cone")
    # Rows repeated twice, so rows 1:4 and 2:5 are each row's (y, z).
    r = np.concatenate((xp / x,) * 2)
    sq = np.concatenate((x * x,) * 2)
    q = xpp / x
    w, c = tangential_speed(phi, q[0] + q[1] + q[2])
    # xpp + xp * (r_y + r_z + W)
    dx = np.add(r[1:4], r[2:5])
    if w is not None:
        dx += w
    dx *= xp
    dx += xpp
    # - 2x ((x^2)^2 - (y^2 - z^2)^2) / (x^2 y^2 z^2)
    reaction = np.square(sq[:3])
    reaction -= np.square(sq[1:4] - sq[2:5])
    denom = sq[0] * sq[1]
    denom *= sq[2]
    term = 2.0 * x
    term *= reaction
    term /= denom
    dx -= term
    if not (np.isfinite(dx).all() and math.isfinite(c)):
        raise StepRejected("non-finite flow derivatives")
    return dx, c, w


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


#: Taylor terms of the phi-functions kept where |h sigma| < 1: the first
#: omitted term, z^20 / (20 + k)!, is below 4e-20 of phi_k there.
_TAYLOR_TERMS = 20
_TAYLOR_POWERS = np.arange(_TAYLOR_TERMS)
#: 1 / (j + k)!, stacked (3, _TAYLOR_TERMS): row k - 1 gives phi_k's terms.
_TAYLOR_COEFFS = np.array(
    [[1.0 / math.factorial(j + k) for j in range(_TAYLOR_TERMS)] for k in (1, 2, 3)]
)
#: The ETDRK4 weights (w1, w23, w4) over dt as combinations of (phi_1, phi_2,
#: phi_3): w1 = phi_1 - 3 phi_2 + 4 phi_3, w23 = 2 phi_2 - 4 phi_3 and
#: w4 = 4 phi_3 - phi_2.
_WEIGHTS = np.array([[1.0, -3.0, 4.0], [0.0, 2.0, -4.0], [0.0, -1.0, 4.0]])


def _power_table(sigma: np.ndarray) -> np.ndarray:
    """The powers sigma^j, j = 0.._TAYLOR_TERMS - 1, of the real array sigma,
    stacked (_TAYLOR_TERMS, sigma.size), read-only."""
    powers = sigma ** _TAYLOR_POWERS[:, np.newaxis]
    powers.setflags(write=False)
    return powers


@functools.cache
def _etd_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The diffusion symbol sigma = -s(k)^2 of D1 o D1 on n points stacked
    [sigma / 2, sigma], 2 (n/2 + 1) entries for ETDRK4's half and full step,
    and its _power_table; both read-only."""
    sigma = _jet_symbol(n)[2].real
    stacked = np.concatenate((0.5 * sigma, sigma))
    stacked.setflags(write=False)
    return stacked, _power_table(stacked)


def _phi_functions(
    h: float, sigma: np.ndarray, powers: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """exp(z) and (phi_1, phi_2, phi_3)(z) stacked (3, sigma.size) at
    z = h sigma, where phi_k(z) = sum_j z^j / (j + k)!, sigma <= 0 is real
    and powers = _power_table(sigma).

    Where |z| >= 1 they follow from exp by phi_{k+1} = (phi_k - 1/k!) / z.
    Below that the recurrence cancels, and all three are the Taylor series,
    one matmul of the row of h^j / (j + k)! by powers. Splitting z^j into
    sigma^j and h^j loses nothing that matters: a grid's |sigma| is below
    n^2 / 20, so |sigma|^j < 1e207 for j < _TAYLOR_TERMS even at n = 2^20;
    h^j and h^j sigma^j stay finite while h and |h sigma| are below 1e16;
    and h^j rounds to a subnormal or to 0 only where it is below 1e-307, so
    the term it carries is below 1e-100, far under the roundoff of phi_k >
    0.1 in the columns the series is kept for.
    """
    z = h * sigma
    e = np.exp(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        p1 = (e - 1.0) / z
        p2 = (p1 - 1.0) / z
        p3 = (p2 - 0.5) / z
    taylor = (_TAYLOR_COEFFS * h**_TAYLOR_POWERS) @ powers
    return e, np.where(z > -1.0, taylor, (p1, p2, p3))


def rk4_step(
    u0: np.ndarray,
    log_lam0: float,
    dt: float,
    first: tuple[np.ndarray, float],
    phi_bar: float,
    n: int,
) -> tuple[np.ndarray, np.ndarray, float]:
    """One ETDRK4 step of log lambda and the radii on n points, held as their
    rfft u0, stacked (3, n/2 + 1); returns (u1, z_jet(u1, n, phi1), log
    lambda1), phi1 = lambda1 * phi_bar.

    The gauge of a stage is lambda * phi_bar, and first = (rfft(k1), c1) is
    _flow_rhs at the jet of u0 under lambda0 * phi_bar, the first stage,
    which the caller has already evaluated to choose dt. In the rfft of the
    radii the flow is u' = L u + N(u, t) with L = -s(k)^2 / (lambda0
    phi_bar)^2, the diffusion D1 o D1 frozen at the step's lambda0, which
    ETDRK4 (Cox & Matthews 2002) integrates exactly; N = f - L u holds the
    first-order terms, the reaction, W x' and the drift of lambda over the
    step. log lambda has L = 0, where the scheme is classical RK4, as it is
    on z-constant data. Raises StepRejected if a stage or the result leaves
    the positive cone or turns non-finite, and _gauge_scale's errors if a
    stage's or the result's lambda overflows or underflows to 0.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    sigma, powers = _etd_table(n)
    m = sigma.size // 2
    scale = (_gauge_scale(log_lam0) * phi_bar) ** 2
    h = dt / scale
    e, p = _phi_functions(h, sigma, powers)
    e_half, e_full = e[:m], e[m:]
    q = 0.5 * dt * p[0, :m]
    w1, w23, w4 = (dt * _WEIGHTS) @ p[:, m:]
    lin = sigma[m:] / scale

    def stage(u, log_lam):
        phi = _gauge_scale(log_lam) * phi_bar
        k, c, _ = _flow_rhs(z_jet(u, n, phi), phi)
        return np.fft.rfft(k) - lin * u, c

    f1, c1 = first
    n1 = f1 - lin * u0
    eu0 = e_half * u0
    ua = eu0 + q * n1
    na, c2 = stage(ua, log_lam0 + 0.5 * dt * c1)
    nb, c3 = stage(eu0 + q * na, log_lam0 + 0.5 * dt * c2)
    nc, c4 = stage(e_half * ua + q * (2.0 * nb - n1), log_lam0 + dt * c3)
    u1 = e_full * u0 + w1 * n1 + w23 * (na + nb) + w4 * nc
    log_lam1 = log_lam0 + dt / 6.0 * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
    zj1 = z_jet(u1, n, _gauge_scale(log_lam1) * phi_bar)
    if not (np.isfinite(zj1).all() and math.isfinite(log_lam1)):
        raise StepRejected("non-finite state after step")
    if zj1[0].min() <= 0.0:
        raise StepRejected("positivity lost after step")
    return u1, zj1, log_lam1


def equal_arclength(state: MetricState) -> MetricState:
    """The state on nodes of equal arclength, under the uniform gauge phi_bar,
    the mean of its phi; a state whose phi is uniform is returned as is.

    With s(z) the integral from 0 to z of the trig interpolant of phi, node j
    moves to the root of s(z) = phi_bar z_j, found by Newton's method, and
    each radius takes the value of its trig interpolant there. The total
    length 2 pi phi_bar is kept.
    """
    phi = state.phi
    if np.ptp(phi) == 0.0:
        return state
    grid = state.grid
    k = np.arange(grid.n // 2 + 1)

    def coefficients(f):
        # f(z) = Re sum_k c_k e^{ikz}; the Nyquist term is c cos(nz/2).
        c = np.fft.rfft(f) / grid.n
        c[..., 1:-1] *= 2.0
        return c

    phi_hat = coefficients(phi)
    phi_bar = phi_hat[0].real
    s_hat = phi_hat[1:] / (1j * k[1:])
    z = grid.z
    target = phi_bar * z
    for _ in range(50):
        wave = np.exp(1j * np.outer(z, k))
        s = phi_bar * z + ((wave[:, 1:] - 1.0) @ s_hat).real
        step = (s - target) / (wave @ phi_hat).real
        z = z - step
        if np.max(np.abs(step)) <= 1e-13:
            break
    else:
        raise GaugeDegeneracyError(
            "no equal-arclength nodes for phi: Newton's method did not converge "
            "(the trig interpolant of phi may not be positive)"
        )
    x = (np.exp(1j * np.outer(z, k)) @ coefficients(radii(state)).T).real
    return metric_state(grid, state.t, phi_bar, *x.T)


def _eccentricity(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.abs(x - y) / np.minimum(x, y)


def summarize_state(ts: Sequence[float], dts: Sequence[float], jets: np.ndarray) -> np.ndarray:
    """All scalar reductions the monitors need, for a block of B states.

    ts and dts hold the B times and steps, jets the B arclength jets (x, x',
    x''), each z_jet(u, n, phi) under its state's gauge, stacked (B, 3, 3,
    n). Returns the block's B records of SUMMARY_DTYPE, each index the first
    attaining its value. Every reduction runs along the last axis, so each
    sample is bitwise the one a block of that state alone gives.
    """
    x, xp, xpp = jets[:, 0], jets[:, 1], jets[:, 2]
    check_resolvable(x)
    scal, rm_norm_sq = curv = trace_invariants(sectional_rows(x, xp, xpp)[0])
    if not np.isfinite(curv).all():
        raise NonFiniteFieldError("curvature is not finite everywhere")

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
    """Step until the pinch threshold, the time cap, or exhausted step halvings.

    A state whose phi is not uniform is first moved to nodes of equal
    arclength (equal_arclength); that state is the first snapshot. Between
    steps the state is the rfft u of the radii, its jet and log lambda, the
    gauge being the scalar phi = lambda * phi_bar; a MetricState is built
    only for the final state, the second snapshot when the run advanced.
    Summaries are recorded every monitor_stride steps plus the first and
    last state, and computed summary_block(n) states at a time; the initial
    state is summarized alone, so that data no summary accepts fail before
    the first step.

    Each step first evaluates k1 = f(x), which sets dt by the rate rule
    dt = (cfl_safety / 18) r^(-4/5) r0^(-1/5), r = max |k1 / x| and r0 its
    value at the first step. A step's error in T scales like (dt r)^4 dt,
    which the rule makes the same on every step, and dt scales like 1/r
    under parabolic rescaling. dt is at most cfl_safety / (4 r), which is
    cfl_safety a_min^2 / 8 at a pinch, where r = 2 / a_min^2: the rule's
    steps grow like r^(1/5) relative to the rate, and without that bound the
    last steps before the stop would miss d(a_min^2)/dt >= -4 by more than
    the monitors' grid tolerance. A rejected step (one that leaves the positive
    cone or turns non-finite) is retried with halved dt up to
    MAX_STEP_HALVINGS times; exhaustion, or a first stage that is not
    finite, stops the run with the last good state preserved and stop reason
    STOP_HALVINGS. traj.run_stats counts the accepted steps and the rejected
    attempts, and records the neck resolution of the final state.
    """
    initial = equal_arclength(initial)
    grid = initial.grid
    n = grid.n
    snapshots = [initial]
    stats = RunStats()
    phi_bar = float(initial.phi[0])
    # Pending summaries: jets in a preallocated block, (t, dt) in a list.
    block = summary_block(n)
    block_zj = np.empty((block, 3, 3, n))
    pending: list[tuple[float, float]] = []
    # Every sample's record, grown by doubling and cut to the sample count at
    # the end; a small first size reuses heap the process already holds.
    records = np.empty(128, SUMMARY_DTYPE)
    count = 0

    def flush():
        nonlocal count
        k = len(pending)
        if count + k > records.size:
            records.resize(2 * records.size, refcheck=False)
        ts, dts = zip(*pending)
        records[count : count + k] = summarize_state(ts, dts, block_zj[:k])
        count += k
        pending.clear()

    def record(t, dt, zj):
        block_zj[len(pending)] = zj
        pending.append((t, dt))
        if len(pending) == block:
            flush()

    t = initial.t
    u = np.fft.rfft(radii(initial))
    log_lam, phi = 0.0, phi_bar
    zj = z_jet(u, n, phi)
    record(t, 0.0, zj)
    flush()

    last_dt = 0.0
    rate0 = None
    while True:
        if float(zj[0, 0].min()) < cfg.a_min_stop:
            stop = STOP_AMIN
            break
        if t >= cfg.t_max:
            stop = STOP_TMAX
            break

        try:
            k1, c1, _ = _flow_rhs(zj, phi)
        except StepRejected:
            # dt does not enter the first stage, so no halving can mend it.
            stats.rejected += MAX_STEP_HALVINGS + 1
            stop = STOP_HALVINGS
            break
        # The smallest normal float keeps a stationary state off 1/0.
        rate = max(float(np.abs(k1 / zj[0]).max()), sys.float_info.min)
        if rate0 is None:
            rate0 = rate
        dt = cfg.cfl_safety / rate * min((rate / rate0) ** 0.2 / 18.0, 0.25)
        dt = min(dt, cfg.t_max - t)
        first = np.fft.rfft(k1), c1
        advanced = None
        for _ in range(MAX_STEP_HALVINGS + 1):
            try:
                advanced = rk4_step(u, log_lam, dt, first, phi_bar, n)
                break
            except StepRejected:
                stats.rejected += 1
                dt *= 0.5
        if advanced is None:
            stop = STOP_HALVINGS
            break

        u, zj, log_lam = advanced
        phi = _gauge_scale(log_lam) * phi_bar
        t += dt
        stats.steps += 1
        last_dt = dt
        if stats.steps % cfg.monitor_stride == 0:
            record(t, dt, zj)

    if stats.steps % cfg.monitor_stride:
        record(t, last_dt, zj)
    if pending:
        flush()
    records.resize(count, refcheck=False)
    if stats.steps:
        snapshots.append(metric_state(grid, t, phi, *zj[0]))
    stats.neck_resolution = float(zj[0, 0].min() / (phi * grid.dz))
    traj = Trajectory(grid, records, snapshots, stop, stats)

    try:
        report = estimate_singular_time(traj)
    except (NoSingularityDetected, InsufficientSamplesError):
        report = None
    return traj, report


def _final_decade(a_min: np.ndarray) -> np.ndarray:
    """The final decade of a_min: the mask of samples with a_min <= 10 * a_min[-1],
    the window of the singular-time fit and of the Type I test."""
    return a_min <= 10.0 * a_min[-1]


def estimate_singular_time(traj: Trajectory) -> SingularityReport:
    """Least-squares linear fit of a_min^2 over the final decade of a_min.

    The window is every sample with a_min <= 10 * (final a_min); the estimate
    is the root of the fitted line. A non-negative fitted slope means the
    series is not shrinking toward zero.
    """
    ts = traj.ts
    a_min = traj.series("a_min")
    window = _final_decade(a_min)
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
