"""Periodic grid, metric state, and the z-derivative stencil.

The spatial domain is the circle z in [0, 2*pi) sampled on a uniform grid of n
points. Metric profiles phi, a, b, c live on this grid as read-only arrays.
Derivatives with respect to the base coordinate z use one 4th-order periodic
central-difference stencil, applied row-wise to stacked arrays. Arclength
derivatives (ds = phi dz) follow by the chain rule d/ds = (1/phi) d/dz in
curvature.jet; the grid itself never moves while phi evolves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NonFiniteFieldError(ValueError):
    """A profile or curvature array contains NaN or infinite entries."""


class GaugeDegeneracyError(ValueError):
    """The gauge profile phi is not strictly positive."""


class DegenerateFiberError(ValueError):
    """A fiber radius is zero, negative, or below the resolvable floor."""


#: Order of the central-difference stencil.
STENCIL_ORDER = 4

# Antisymmetric one-sided half of the central stencil, highest offset first.
# Full stencil: sum_m w_m * (f_{k+m} - f_{k-m}) / dz.
_STENCIL_WEIGHTS = (-1.0 / 12.0, 8.0 / 12.0)


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


def dz_values(values: np.ndarray, dz: float) -> np.ndarray:
    """Periodic central difference along the last axis; exact zero on constants.

    Any leading axes are independent rows. The last axis is padded periodically
    once and each stencil offset is a slice of the padded array. The outermost
    offset's term starts the sum, the others are added to it in place.
    """
    half = len(_STENCIL_WEIGHTS)
    n = values.shape[-1]
    padded = np.concatenate((values[..., -half:], values, values[..., :half]), axis=-1)
    terms = (
        w * (padded[..., half + m : half + m + n] - padded[..., half - m : half - m + n])
        for m, w in zip(range(half, 0, -1), _STENCIL_WEIGHTS)
    )
    out = next(terms)
    for term in terms:
        out += term
    out /= dz
    return out
