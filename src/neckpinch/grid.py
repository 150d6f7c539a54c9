"""Periodic grid, metric state, and the package's one z-derivative.

The spatial domain is the circle z in [0, 2*pi) sampled on a uniform grid of n
points. Metric profiles phi, a, b, c live on this grid as read-only arrays.
Every derivative with respect to the base coordinate z in the package is
z_jet: one irfft of rfft(x) S, S the exact Fourier symbols of the 4th-order
periodic central-difference stencil D1 and of D1 o D1, the derivative rows then
divided by phi and phi^2 to give arclength derivatives (ds = phi dz) under a
uniform gauge phi; curvature.jet nests it for a non-uniform phi. The grid
itself never moves while phi evolves.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


class NonFiniteFieldError(ValueError):
    """A profile or curvature array contains NaN or infinite entries."""


class GaugeDegeneracyError(ValueError):
    """The gauge profile phi is not strictly positive."""


class DegenerateFiberError(ValueError):
    """A fiber radius is zero, negative, or below the resolvable floor."""


#: Order of the central-difference stencil whose symbols z_jet applies.
STENCIL_ORDER = 4


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform grid z_k = k * 2*pi/n on the circle, n even and >= 8."""

    n: int

    def __post_init__(self):
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"grid size must be even and >= 8, got {self.n}")

    @property
    def dz(self) -> float:
        return 2.0 * np.pi / self.n

    @property
    def z(self) -> np.ndarray:
        return np.arange(self.n) * self.dz


@dataclass(frozen=True)
class MetricState:
    """The four metric profiles (phi, a, b, c) on one grid at one time.

    phi is the dimensionless gauge factor multiplying dz^2; a, b, c are the
    three fiber radii. Each profile is stored as a read-only float64 copy of
    length grid.n, a scalar being broadcast to it; all four must be finite
    and strictly positive pointwise.
    """

    grid: PeriodicGrid
    t: float
    phi: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        n = self.grid.n
        for name in ("phi", "a", "b", "c"):
            values = np.array(getattr(self, name), dtype=float)
            if values.ndim == 0:
                values = np.full(n, values)
            if values.shape != (n,):
                raise ValueError(
                    f"profile {name} has shape {values.shape}, grid needs ({n},)"
                )
            if not np.isfinite(values).all():
                raise NonFiniteFieldError(f"profile {name} must be finite everywhere")
            values.setflags(write=False)
            object.__setattr__(self, name, values)
        if np.min(self.phi) <= 0.0:
            raise GaugeDegeneracyError("phi must be strictly positive")
        for name in ("a", "b", "c"):
            if np.min(getattr(self, name)) <= 0.0:
                raise DegenerateFiberError(f"profile {name} must be strictly positive")


def metric_state(grid: PeriodicGrid, t, phi, a, b, c) -> MetricState:
    """Convenience constructor accepting arrays or scalars for each profile."""
    return MetricState(grid, float(t), phi, a, b, c)


@functools.cache
def _jet_symbol(n: int) -> np.ndarray:
    """S = (1, i s(k), -s(k)^2), k = 0..n/2, stacked (3, n/2 + 1): the rfft
    symbols of 1, of the stencil D1 f_j = (8 (f_{j+1} - f_{j-1}) - (f_{j+2} -
    f_{j-2})) / (12 dz) and of D1 o D1 on n points, s(k) = (8 sin k dz -
    sin 2k dz) / (6 dz). Rows 1 and 2 vanish at k = 0, so they give exact
    zeros on constant rows."""
    dz = 2.0 * np.pi / n
    kdz = np.arange(n // 2 + 1) * dz
    s = (8.0 * np.sin(kdz) - np.sin(2.0 * kdz)) / (6.0 * dz)
    symbol = np.stack((np.ones_like(s), 1j * s, -s * s))
    symbol.setflags(write=False)
    return symbol


def z_jet(u: np.ndarray, n: int, phi: float) -> np.ndarray:
    """The arclength jet (x, D1 x / phi, D1 D1 x / phi^2) of the rows
    x = irfft(u, n) under the scalar gauge phi (1 for the z-jet), stacked
    (3,) + x.shape: one irfft of u S along the last axis, any leading axes of
    u being independent rows, with rows 1 and 2 divided in place."""
    symbol = _jet_symbol(n)
    jet = np.fft.irfft(u * symbol.reshape((3,) + (1,) * (u.ndim - 1) + symbol.shape[1:]), n)
    jet[1] /= phi
    jet[2] /= phi * phi
    return jet
