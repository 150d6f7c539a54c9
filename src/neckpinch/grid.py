"""Periodic grid, metric state, and the package's one z-derivative and one
transform.

The spatial domain is the circle z in [0, 2*pi) sampled on a uniform grid of n
points. The radii a, b, c live on this grid as the rows of one read-only
(3, n) array.
Every derivative with respect to the base coordinate z in the package is
z_jet: one irfft of rfft(x) S, S the exact Fourier symbols of the 4th-order
periodic central-difference stencil D1 and of D1 o D1, the derivative rows then
divided by the gauge phi and phi^2 (ds = phi dz), one number: Preset.build
resamples a varying phi0 to equal arclength. No other function divides by
phi, and the grid never moves while phi evolves.

Every Fourier transform in the package is rfft or irfft here: numpy.fft's
own pocketfft kernels called directly, bit for bit numpy.fft.rfft and
numpy.fft.irfft without their few microseconds of Python dispatch a call,
most of a call's cost at the grid sizes a run takes. numpy.fft is loaded at
the first transform, so a run on z-constant data, which takes none, never
loads it.
"""

from __future__ import annotations

import functools
import numbers
import sys
from dataclasses import dataclass

import numpy as np


class DataError(ValueError):
    """Input the package cannot run; any other exception is a bug."""


def is_number(value) -> bool:
    """A real number other than a bool, which JSON true/false would smuggle in,
    and other than an integer too large for a float, which JSON allows."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    return not isinstance(value, int) or abs(value) <= sys.float_info.max


#: Order of the central-difference stencil whose symbols z_jet applies.
STENCIL_ORDER = 4


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform grid z_k = k * 2*pi/n on the circle, n even, >= 8 and small
    enough for a (3, 3, n) float64 jet."""

    n: int

    def __post_init__(self):
        if self.n < 8 or self.n % 2 != 0:
            raise DataError(f"grid size must be even and >= 8, got {self.n}")
        if self.n > sys.maxsize // 72:
            raise DataError(f"grid size must be at most {sys.maxsize // 72}, got {self.n}")

    @property
    def dz(self) -> float:
        return 2.0 * np.pi / self.n

    @property
    def z(self) -> np.ndarray:
        return np.arange(self.n) * self.dz


@dataclass(frozen=True)
class MetricState:
    """The gauge phi and the fiber radii x = (a, b, c) on one grid at one time.

    phi, the uniform gauge factor multiplying dz^2, is one finite float
    between sqrt(float min) and sqrt(float max), so that phi^2 is a normal
    float. x is given as three radii, each an array of length grid.n or a
    scalar broadcast to it, finite and strictly positive, and is stored as
    one read-only float64 (3, n) array; a, b and c are its rows.
    """

    grid: PeriodicGrid
    t: float
    phi: float
    x: np.ndarray

    def __post_init__(self):
        if np.ndim(self.phi) != 0:
            raise DataError("phi must be one number; a varying phi0 enters as a samples profile")
        object.__setattr__(self, "phi", float(self.phi))
        if not np.isfinite(self.phi):
            raise DataError("profile phi must be finite everywhere")
        if self.phi <= 0.0:
            raise DataError("phi must be strictly positive")
        # rk4_step squares phi as a float and divides the symbol by the square
        if self.phi < sys.float_info.min**0.5:
            raise DataError(f"phi must be at least {sys.float_info.min**0.5:.4g}")
        if self.phi > sys.float_info.max**0.5:
            raise DataError(f"phi must be at most {sys.float_info.max**0.5:.4g}")
        rows = list(self.x) if np.iterable(self.x) else []
        if len(rows) != 3:
            raise DataError(f"a state needs three radii (a, b, c), got {len(rows)}")
        n = self.grid.n
        x = np.empty((3, n))
        for name, row, values in zip("abc", x, rows):
            values = np.asarray(values, dtype=float)
            if values.ndim != 0 and values.shape != (n,):
                raise DataError(
                    f"profile {name} has shape {values.shape}, grid needs ({n},)"
                )
            if not np.isfinite(values).all():
                raise DataError(f"profile {name} must be finite everywhere")
            if values.min() <= 0.0:
                raise DataError(f"profile {name} must be strictly positive")
            row[...] = values
        x.setflags(write=False)
        object.__setattr__(self, "x", x)

    a = property(lambda self: self.x[0])
    b = property(lambda self: self.x[1])
    c = property(lambda self: self.x[2])


@functools.cache
def _pocketfft():
    """numpy.fft's gufunc module, imported at the first transform. Its kernels
    are looked up at each call, as numpy.fft does, so one patch of the module
    sees every transform of the process."""
    from numpy.fft import _pocketfft_umath

    return _pocketfft_umath


def rfft(x: np.ndarray) -> np.ndarray:
    """numpy.fft.rfft(x) along the last axis of the float64 array x, bit for
    bit. The kernel is chosen by the row length's parity, as numpy.fft does:
    the even kernel returns wrong values on an odd row without raising."""
    n = x.shape[-1]
    kernels = _pocketfft()
    kernel = kernels.rfft_n_even if n % 2 == 0 else kernels.rfft_n_odd
    return kernel(x, 1.0, out=np.empty(x.shape[:-1] + (n // 2 + 1,), dtype=complex))


def irfft(u: np.ndarray, n: int) -> np.ndarray:
    """numpy.fft.irfft(u, n) along the last axis of the complex128 array u,
    bit for bit: rows of n real points, scaled by 1/n."""
    return _pocketfft().irfft(u, 1.0 / n, out=np.empty(u.shape[:-1] + (n,)))


@functools.cache
def _jet_symbol(n: int) -> np.ndarray:
    """S = (1, i s(k), -s(k)^2), k = 0..n/2, stacked (3, n/2 + 1): the rfft
    symbols of 1, of the stencil D1 f_j = (8 (f_{j+1} - f_{j-1}) - (f_{j+2} -
    f_{j-2})) / (12 dz) and of D1 o D1 on n points, s(k) = (8 sin k dz -
    sin 2k dz) / (6 dz). Rows 1 and 2 vanish at k = 0 (exact zeros on constant
    rows) and at Nyquist (set, as sin(pi) rounds to 1e-16); else |s| >= 0.98."""
    dz = 2.0 * np.pi / n
    kdz = np.arange(n // 2 + 1) * dz
    s = (8.0 * np.sin(kdz) - np.sin(2.0 * kdz)) / (6.0 * dz)
    s[-1] = 0.0
    symbol = np.stack((np.ones_like(s), 1j * s, -s * s))
    symbol.setflags(write=False)
    return symbol


def z_jet(u: np.ndarray, phi: float) -> np.ndarray:
    """The arclength jet (x, D1 x / phi, D1 D1 x / phi^2) of the rows
    x = irfft(u, n) under the scalar gauge phi (1 for the z-jet), stacked
    (3,) + x.shape, n = 2 (m - 1) for the m modes of u, as numpy.fft.irfft
    takes by default: one irfft of u S along the last axis, any leading axes
    of u being independent rows, with rows 1 and 2 divided in place."""
    n = 2 * (u.shape[-1] - 1)
    symbol = _jet_symbol(n)
    jet = u * symbol.reshape((3,) + (1,) * (u.ndim - 1) + symbol.shape[1:])
    jet = irfft(jet, n)
    jet[1] /= phi
    jet[2] /= phi * phi
    return jet


def arclength_jet(state: MetricState) -> np.ndarray:
    """The arclength jet (x, x', x'') of the radii x of state, stacked (3, 3,
    n): z_jet of their rfft under the state's gauge."""
    return z_jet(rfft(state.x), state.phi)
