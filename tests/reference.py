"""Reference implementations that only the tests compare against.

* the direct-space 4th-order central-difference stencil dz_stencil, whose
  Fourier symbol grid.z_jet applies: the independent derivative of every
  oracle here, so that none shares the package's derivative code;
* the arclength derivatives s_derivative / s_second_derivative under a
  uniform gauge, the reference for grid.arclength_jet;
* the displayed closed form of the scalar curvature, against the package's
  trace assembly;
* the homogeneous ODE oracle, a scipy integration of the z-constant flow;
* classical RK4, the oracle of the flow step where its diffusion symbol
  vanishes.

The exact curvature reference, every Riemann component of the Milnor frame,
is the sympy derivation of tests/test_symbolic.py.
"""

from __future__ import annotations

import math

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
