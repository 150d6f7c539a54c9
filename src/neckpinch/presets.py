"""Canonical initial data for runs and tests.

Profiles are restricted to the trig + constant family A*cos(k z) + B /
A*sin(k z) + B; arbitrary profiles enter through an explicit samples array in
the parameters of the `inline` preset instead.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, fields

import numpy as np

from .grid import DataError, MetricState, PeriodicGrid, is_number, rfft


@dataclass(frozen=True)
class Profile:
    """Symbolic profile descriptor evaluated on a grid."""

    kind: str = "const"  # const | cos | sin | samples
    amplitude: float = 0.0
    frequency: int = 1
    offset: float = 1.0
    samples: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("const", "cos", "sin", "samples"):
            raise DataError(f"unknown profile kind {self.kind!r}")
        if self.kind == "samples" and not self.samples:
            raise DataError("samples profile requires a samples array")
        if self.kind != "samples" and self.samples is not None:
            raise DataError(f"profile kind {self.kind!r} takes no samples")
        for key in ("amplitude", "offset"):
            if not is_number(getattr(self, key)):
                raise DataError(f"profile {key} must be a number, got {getattr(self, key)!r}")
        # Only a whole frequency keeps the profile 2*pi-periodic on the grid.
        if isinstance(self.frequency, bool) or not isinstance(self.frequency, int):
            raise DataError(f"profile frequency must be an integer, got {self.frequency!r}")

    def evaluate(self, grid: PeriodicGrid) -> np.ndarray:
        if self.kind == "const":
            return np.full(grid.n, self.offset)
        if self.kind == "samples":
            values = np.asarray(self.samples, dtype=float)
            if values.shape != (grid.n,):
                raise DataError(
                    f"samples profile has {values.size} points, grid needs {grid.n}"
                )
            return values
        if 2 * abs(self.frequency) >= grid.n:  # it would alias to a lower mode
            raise DataError(f"profile frequency {self.frequency} is at or above the Nyquist "
                            f"frequency {grid.n // 2} of {grid.n} grid points")
        wave = np.cos if self.kind == "cos" else np.sin
        return self.amplitude * wave(self.frequency * grid.z) + self.offset

    def formula(self) -> str:
        if self.kind == "const":
            return f"{self.offset:g}"
        if self.kind == "samples":
            return f"<{len(self.samples)} samples>"
        arg = "z" if self.frequency == 1 else f"{self.frequency:g}z"
        amp = "" if self.amplitude == 1.0 else f"{self.amplitude:g}*"
        sign = "+" if self.offset >= 0 else "-"
        return f"{amp}{self.kind}({arg}) {sign} {abs(self.offset):g}"


def const(value: float) -> Profile:
    return Profile(kind="const", offset=value)


def cos(amplitude: float = 1.0, offset: float = 0.0, frequency: int = 1) -> Profile:
    return Profile(kind="cos", amplitude=amplitude, frequency=frequency, offset=offset)


def sin(amplitude: float = 1.0, offset: float = 0.0, frequency: int = 1) -> Profile:
    return Profile(kind="sin", amplitude=amplitude, frequency=frequency, offset=offset)


@dataclass(frozen=True)
class Preset:
    name: str
    phi0: Profile
    a0: Profile
    b0: Profile
    c0: Profile
    description: str = ""

    def build(self, grid: PeriodicGrid) -> MetricState:
        """The state at t = 0, resampled to equal arclength when phi0 varies."""
        phi, *x = (p.evaluate(grid) for p in (self.phi0, self.a0, self.b0, self.c0))
        if np.ptp(phi) != 0.0:
            return MetricState(grid, 0.0, *equal_arclength(grid, phi, np.stack(x)))
        return MetricState(grid, 0.0, phi[0], x)


def _interpolant(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Re sum_k coeffs[:, k] e^{ikz} at the points z, a row per row of coeffs,
    by Horner's rule in e^{iz}: O(z.size) memory a row, no matrix product."""
    w = np.exp(1j * z)
    acc = np.zeros((len(coeffs), z.size), dtype=complex)
    for ck in coeffs.T[::-1]:
        acc *= w
        acc += ck[:, np.newaxis]
    return acc.real


def equal_arclength(
    grid: PeriodicGrid, phi: np.ndarray, x: np.ndarray
) -> tuple[float, np.ndarray]:
    """(phi_bar, x): the mean phi_bar of the gauge samples phi, and the
    radii x, stacked (3, n), on its nodes of equal arclength, checking the
    samples first. Node j moves to the root of s(z) = phi_bar z_j, s the
    integral from 0 of the trig interpolant of phi, by Newton's method kept
    inside a bracket of the root: it starts as [z_j - 2 pi, z_j + 2 pi],
    shrinks to each iterate by the sign of s - phi_bar z_j, and a step that
    leaves it goes to its midpoint instead, as where phi is small a plain
    Newton step on the increasing s overshoots. Each radius takes its trig
    interpolant's value at the root.
    """
    if not np.isfinite(phi).all():
        raise DataError("profile phi must be finite everywhere")
    if phi.min() <= 0.0:
        raise DataError("phi must be strictly positive")
    for name, row in zip("abc", x):
        if row.min() <= 0.0:
            raise DataError(f"profile {name} must be strictly positive")
    # Rows f = phi, a, b, c as Re sum_k c_k e^{ikz}, the Nyquist term c cos(nz/2).
    coeffs = rfft(np.vstack((phi, x))) / grid.n
    coeffs[:, 1:-1] *= 2.0
    phi_bar = float(coeffs[0, 0].real)
    # s(z) - phi_bar z = Re sum_{k > 0} c_k (e^{ikz} - 1) / (ik) for c = coeffs[0]; s' = phi.
    s_hat = coeffs[0, 1:] / (1j * np.arange(1, grid.n // 2 + 1))
    s_and_ds = np.stack((np.concatenate(([-s_hat.sum()], s_hat)), coeffs[0]))
    z, lo, hi = grid.z, grid.z - 2.0 * np.pi, grid.z + 2.0 * np.pi
    for _ in range(50):
        s, ds = _interpolant(s_and_ds, z)
        if ds.min() <= 0.0:
            break
        residual = s + phi_bar * (z - grid.z)
        lo = np.where(residual < 0.0, z, lo)
        hi = np.where(residual > 0.0, z, hi)
        step = residual / ds
        z = z - step
        z = np.where((lo <= z) & (z <= hi), z, 0.5 * (lo + hi))
        if np.max(np.abs(step)) <= 1e-13:
            return phi_bar, _interpolant(coeffs[1:], z)
    raise DataError(
        "no equal-arclength nodes for phi: Newton's method did not converge "
        "(the trig interpolant of phi may not be positive)"
    )


def sphere(r: float = 2.0) -> Preset:
    """Round S3 fiber of radius r: the exactly solvable pinch."""
    return Preset(
        name="sphere",
        phi0=const(1.0),
        a0=const(r),
        b0=const(r),
        c0=const(r),
        description=f"round fiber, radius {r:g}; a_min^2 = r^2 - 4t exactly",
    )


def biaxial(a0: float = 1.0, c0: float = 2.0) -> Preset:
    """z-constant data with two equal radii (b = c)."""
    return Preset(
        name="biaxial",
        phi0=const(1.0),
        a0=const(a0),
        b0=const(c0),
        c0=const(c0),
        description=f"homogeneous biaxial data a={a0:g}, b=c={c0:g}",
    )


def _fig_a() -> Preset:
    return Preset(
        name="fig-a",
        phi0=const(1.0),
        a0=cos(1.0, 1.5),
        b0=cos(1.0, 2.5),
        c0=cos(1.0, 3.5),
        description="cosine neck, unit gaps between the radii",
    )


def _fig_b() -> Preset:
    return Preset(
        name="fig-b",
        phi0=const(1.0),
        a0=cos(1.0, 1.5, frequency=2),
        b0=sin(1.0, 4.0),
        c0=const(6.0),
        description="two necks in a, shifted middle radius, flat top radius",
    )


def _fig_c() -> Preset:
    return Preset(
        name="fig-c",
        phi0=const(1.0),
        a0=cos(0.5, 1.0),
        b0=cos(1.0, 2.0),
        c0=cos(2.0, 4.0),
        description="cosine profiles with growing amplitude",
    )


def _mild() -> Preset:
    # Proportional radii keep c/a = 1.2 and b/a = 1.1 exactly, so the
    # low-eccentricity hypotheses (max c/a < 2, min S >= 0) hold at t = 0.
    return Preset(
        name="mild",
        phi0=const(1.0),
        a0=cos(0.05, 1.0),
        b0=cos(0.055, 1.1),
        c0=cos(0.06, 1.2),
        description="low eccentricity (max c/a = 1.2) with nonnegative initial S",
    )


def presets() -> list[Preset]:
    """The canonical preset list; sphere and biaxial carry default parameters."""
    return [_fig_a(), _fig_b(), _fig_c(), sphere(), biaxial(), _mild()]


def _inline(profiles: dict) -> Preset:
    """The `inline` preset: phi0, a0, b0 and c0, each a JSON object of Profile's fields."""
    required = {"phi0", "a0", "b0", "c0"}
    unknown = set(profiles) - required
    if unknown:
        raise DataError(f"unknown profile entries: {sorted(unknown)}")
    missing = required - set(profiles)
    if missing:
        raise DataError(f"preset_params of preset 'inline' must define {sorted(missing)}")
    built = {}
    for key, spec in profiles.items():
        if not isinstance(spec, dict):
            raise DataError(f"profile {key} must be a JSON object, got {spec!r}")
        bad = set(spec) - {f.name for f in fields(Profile)}
        if bad:
            raise DataError(f"unknown profile keys in {key!r}: {sorted(bad)}")
        spec = dict(spec)
        samples = spec.get("samples")
        if samples is not None:
            if not isinstance(samples, list):
                raise DataError(f"profile {key} samples must be a JSON list, got {samples!r}")
            bad = [v for v in samples if not is_number(v)]
            if bad:
                raise DataError(f"profile {key} samples must be numbers, got {bad[0]!r}")
            spec["samples"] = tuple(float(v) for v in samples)
        built[key] = Profile(**spec)
    return Preset(name="inline", description="profiles from config", **built)


def get_preset(name: str, params: dict | None = None) -> Preset:
    """The named preset; `inline` builds its profiles from params, sphere and
    biaxial take their radii from it, and every other preset takes none."""
    params = params or {}
    if name == "inline":
        return _inline(params)
    if name in ("sphere", "biaxial"):
        build = sphere if name == "sphere" else biaxial
        unknown = set(params) - set(inspect.signature(build).parameters)
        if unknown:
            raise DataError(f"unknown preset_params for {name!r}: {sorted(unknown)}")
        for key, value in params.items():
            if not is_number(value):
                raise DataError(f"preset parameter {key} must be a number, got {value!r}")
        return build(**params)
    for p in presets():
        if p.name == name:
            if params:
                raise DataError(f"preset {name!r} takes no parameters")
            return p
    raise DataError(f"unknown preset {name!r}")
