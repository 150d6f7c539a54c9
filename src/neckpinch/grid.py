"""Periodic grid, scalar fields, and the z-derivative stencil.

The spatial domain is the circle z in [0, 2*pi) sampled on a uniform grid of n
points. Metric profiles phi, a, b, c live on this grid as immutable scalar
fields. Derivatives with respect to the base coordinate z use one 4th-order
periodic central-difference stencil, applied row-wise to stacked arrays.
Arclength derivatives (ds = phi dz) follow by the chain rule d/ds = (1/phi) d/dz
in curvature.jet; the grid itself never moves while phi evolves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NonFiniteFieldError(ValueError):
    """A field contains NaN or infinite entries."""


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
class ScalarField:
    """Immutable real-valued field over a periodic grid."""

    grid: PeriodicGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n,):
            raise ValueError(
                f"field length {values.shape} does not match grid n={self.grid.n}"
            )
        if not np.all(np.isfinite(values)):
            raise NonFiniteFieldError("field values must be finite everywhere")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.grid.n


def field(grid: PeriodicGrid, values) -> ScalarField:
    """Build a ScalarField, broadcasting scalars to the grid."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n,):
        values = np.broadcast_to(values, (grid.n,))
    return ScalarField(grid, values)


@dataclass(frozen=True)
class MetricState:
    """The four metric profiles (phi, a, b, c) on a shared grid at one time.

    phi is the dimensionless gauge factor multiplying dz^2; a, b, c are the
    three fiber radii. All four must be strictly positive pointwise.
    """

    t: float
    phi: ScalarField
    a: ScalarField
    b: ScalarField
    c: ScalarField

    def __post_init__(self):
        grid = self.phi.grid
        for name in ("a", "b", "c"):
            if getattr(self, name).grid != grid:
                raise ValueError("all profiles must share one grid")
        if np.min(self.phi.values) <= 0.0:
            raise GaugeDegeneracyError("phi must be strictly positive")
        for name in ("a", "b", "c"):
            if np.min(getattr(self, name).values) <= 0.0:
                raise DegenerateFiberError(f"profile {name} must be strictly positive")

    @property
    def grid(self) -> PeriodicGrid:
        return self.phi.grid


def metric_state(grid: PeriodicGrid, t, phi, a, b, c) -> MetricState:
    """Convenience constructor accepting arrays or scalars for each profile."""
    return MetricState(
        t=float(t),
        phi=field(grid, phi),
        a=field(grid, a),
        b=field(grid, b),
        c=field(grid, c),
    )


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
