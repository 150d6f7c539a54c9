"""Reference implementations that only the tests compare against.

* the direct-space 4th-order central-difference stencil dz_stencil, whose
  Fourier symbol grid.z_jet applies: the independent derivative of every
  oracle here, so that none shares the package's derivative code;
* the arclength derivatives s_derivative / s_second_derivative under a
  uniform gauge, the reference for grid.arclength_jet;
* the displayed closed form of the scalar curvature, against the package's
  trace assembly;
* the frame-symbol path: the z-gauge frame symbols Sigma^gamma_{alpha beta}
  and the full Riemann tensor assembled numerically from them, a third,
  formula-free evaluation path;
* the homogeneous ODE oracle, a scipy integration of the z-constant flow;
* classical RK4, the oracle of the flow step where its diffusion symbol
  vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from neckpinch.curvature import check_resolvable
from neckpinch.flow import _flow_rhs
from neckpinch.grid import DataError, MetricState, arclength_jet

# ---------------------------------------------------------------------------
# Direct-space stencil and arclength derivatives


def dz_stencil(values: np.ndarray, dz: float) -> np.ndarray:
    """Periodic 4th-order central difference along the last axis,
    D1 f_j = (8 (f_{j+1} - f_{j-1}) - (f_{j+2} - f_{j-2})) / (12 dz); any
    leading axes are independent rows, and constant rows give exact zeros."""

    def shift(m):
        return np.roll(values, -m, axis=-1)

    return (8.0 * (shift(1) - shift(-1)) - (shift(2) - shift(-2))) / (12.0 * dz)


def s_derivative(f: np.ndarray, phi: float, dz: float) -> np.ndarray:
    """Arclength derivative f' = (1/phi) df/dz of the (n,) array f under the
    uniform gauge phi."""
    if phi <= 0.0:
        raise DataError("phi must be strictly positive")
    return dz_stencil(f, dz) / phi


def s_second_derivative(f: np.ndarray, phi: float, dz: float) -> np.ndarray:
    """Second arclength derivative f'' = D1 D1 f / phi^2 of the (n,) array f
    under the uniform gauge phi, on the stencil, as grid.arclength_jet forms
    it from the stencil's Fourier symbols."""
    if phi <= 0.0:
        raise DataError("phi must be strictly positive")
    return dz_stencil(dz_stencil(f, dz), dz) / (phi * phi)


# ---------------------------------------------------------------------------
# Closed-form scalar curvature


def scalar_curvature(state: MetricState) -> np.ndarray:
    """Scalar curvature from its displayed closed form (not the trace assembly)."""
    x, (ap, bp, cp), (app, bpp, cpp) = arclength_jet(state)
    check_resolvable(x)
    a, b, c = x
    a2, b2, c2 = a**2, b**2, c**2
    algebraic = (2 * a2 * b2 + 2 * a2 * c2 + 2 * b2 * c2 - a2**2 - b2**2 - c2**2) / (
        a2 * b2 * c2
    )
    s = 2.0 * (
        -app / a
        - bpp / b
        - cpp / c
        - ap * bp / (a * b)
        - ap * cp / (a * c)
        - bp * cp / (b * c)
        + algebraic
    )
    return s


# ---------------------------------------------------------------------------
# Frame-symbol path

_EPS = np.zeros((3, 3, 3))
for _i, _j, _k in permutations(range(3)):
    _EPS[_i, _j, _k] = (_j - _i) * (_k - _i) * (_k - _j) / 2.0


def _levi_civita(i: int, j: int, k: int) -> float:
    """eps_ijk for fiber indices in {1, 2, 3}."""
    return float(_EPS[i - 1, j - 1, k - 1])


@dataclass(frozen=True)
class FrameSymbols:
    """z-gauge frame symbols; sigma[alpha, beta, gamma, :] is Sigma^gamma_{alpha beta}."""

    grid_n: int
    sigma: np.ndarray

    def __post_init__(self):
        if self.sigma.shape != (4, 4, 4, self.grid_n):
            raise ValueError("sigma must have shape (4, 4, 4, n)")


def _metric_diagonal(state: MetricState) -> np.ndarray:
    """(g00, g11, g22, g33) = (phi^2, a^2, b^2, c^2) stacked (4, n), g00 a
    constant row."""
    return np.stack((np.full(state.grid.n, state.phi**2), state.a**2, state.b**2, state.c**2))


def frame_symbol_oracle(state: MetricState) -> FrameSymbols:
    """z-gauge frame symbols Sigma^gamma_{alpha beta} from the Koszul formula.

    Nonzero entries: Sigma^0_00 = g^00 dz(g00)/2, Sigma^i_{i0} = Sigma^i_{0i}
    = g^ii dz(gii)/2, Sigma^0_{ii} = -g^00 dz(gii)/2, and for distinct fiber
    indices Sigma^k_{ij} = eps_ijk g^kk (g_ii - g_jj - g_kk). Everything with
    exactly two zero indices vanishes.
    """
    check_resolvable(state.x)
    n = state.grid.n
    g = _metric_diagonal(state)
    dg = dz_stencil(g, state.grid.dz)
    sigma = np.zeros((4, 4, 4, n))
    sigma[0, 0, 0] = 0.5 * dg[0] / g[0]
    for i in (1, 2, 3):
        sigma[i, 0, i] = 0.5 * dg[i] / g[i]
        sigma[0, i, i] = sigma[i, 0, i]
        sigma[i, i, 0] = -0.5 * dg[i] / g[0]
    for i, j, k in permutations((1, 2, 3)):
        sigma[i, j, k] = _levi_civita(i, j, k) * (g[i] - g[j] - g[k]) / g[k]
    return FrameSymbols(grid_n=n, sigma=sigma)


def riemann_tensor_from_frame_symbols(state: MetricState) -> np.ndarray:
    """Full Rm_{alpha beta gamma delta} assembled numerically from frame symbols.

    R(E_a, E_b) E_c = grad_a grad_b E_c - grad_b grad_a E_c - grad_[E_a,E_b] E_c
    expanded through Sigma, with E_0 = d/dz acting on the z-dependent symbol
    coefficients and the fiber brackets [E_i, E_j] = -2 eps_ijk E_k. Returns an
    array of shape (4, 4, 4, 4, n). This is a third, formula-free evaluation
    path used to arbitrate between the closed forms and the z-gauge oracle.
    """
    sigma = frame_symbol_oracle(state).sigma
    n = state.grid.n
    dsigma = dz_stencil(sigma, state.grid.dz)

    # structure[alpha, beta, u] = C^u_{alpha beta} of the frame bracket
    structure = np.zeros((4, 4, 4))
    for i, j, k in permutations((1, 2, 3)):
        structure[i, j, k] = -2.0 * _levi_civita(i, j, k)

    # coef[a, b, c, d] is the E_d component of R(E_a, E_b) E_c; only E_0 = d/dz
    # differentiates the z-dependent symbol coefficients.
    coef = np.zeros((4, 4, 4, 4, n))
    coef[0] += dsigma
    coef[:, 0] -= dsigma
    coef += np.einsum("bcun,audn->abcdn", sigma, sigma)
    coef -= np.einsum("acun,budn->abcdn", sigma, sigma)
    coef -= np.einsum("abu,ucdn->abcdn", structure, sigma)

    g = _metric_diagonal(state)
    return coef * g[np.newaxis, np.newaxis, np.newaxis, :, :]


# ---------------------------------------------------------------------------
# Homogeneous ODE oracle


def homogeneous_ode_oracle(
    a0: float,
    b0: float,
    c0: float,
    t_end: float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    radius_floor: float = 1e-8,
):
    """High-accuracy integration of the z-constant reduction of the flow.

    With all spatial derivatives zero the system collapses to the classical
    homogeneous ODE da/dt = -2a (a^4 - (b^2-c^2)^2)/(abc)^2 and relabelings.
    Returns the scipy solution object (dense output enabled); integration
    stops when any radius falls below radius_floor.
    """
    from scipy.integrate import solve_ivp

    if min(a0, b0, c0) <= 0.0:
        raise DataError("initial radii must be positive")

    def rhs(_t, y):
        a, b, c = y
        denom = (a * b * c) ** 2
        return [
            -2.0 * a * (a**4 - (b * b - c * c) ** 2) / denom,
            -2.0 * b * (b**4 - (a * a - c * c) ** 2) / denom,
            -2.0 * c * (c**4 - (a * a - b * b) ** 2) / denom,
        ]

    def blow_down(_t, y):
        return min(y) - radius_floor

    blow_down.terminal = True
    blow_down.direction = -1

    return solve_ivp(
        rhs,
        (0.0, t_end),
        [a0, b0, c0],
        method="DOP853",
        rtol=rtol,
        atol=atol,
        dense_output=True,
        events=blow_down,
    )


# ---------------------------------------------------------------------------
# Classical RK4


def classical_rk4_step(
    x0: np.ndarray, log_lam0: float, dt: float, phi_bar: float, dz: float
) -> tuple[np.ndarray, float]:
    """One classical RK4 step of the radii x0, stacked (3, n), and log lambda
    under the uniform gauge lambda * phi_bar, with the stencil's derivatives:
    flow.rk4_step must equal it where the diffusion symbol vanishes."""

    def stage(x, log_lam):
        # The stencil's arclength jet (x, D1 x / phi, D1 D1 x / phi^2), not
        # the flow's transform.
        phi = math.exp(log_lam) * phi_bar
        dx = dz_stencil(x, dz)
        return _flow_rhs(np.stack((x, dx / phi, dz_stencil(dx, dz) / (phi * phi))), phi)[:2]

    k1, c1 = stage(x0, log_lam0)
    k2, c2 = stage(x0 + 0.5 * dt * k1, log_lam0 + 0.5 * dt * c1)
    k3, c3 = stage(x0 + 0.5 * dt * k2, log_lam0 + 0.5 * dt * c2)
    k4, c4 = stage(x0 + dt * k3, log_lam0 + dt * c3)
    x1 = x0 + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x1, log_lam0 + dt / 6.0 * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
