"""Canonical initial data for runs and tests.

Profiles are restricted to the trig + constant family A*cos(k z) + B /
A*sin(k z) + B; arbitrary profiles enter through an explicit samples array in
a config file instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import is_number
from .grid import MetricState, PeriodicGrid, metric_state


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
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.kind == "samples" and not self.samples:
            raise ValueError("samples profile requires a samples array")
        if self.kind != "samples" and self.samples is not None:
            raise ValueError(f"profile kind {self.kind!r} takes no samples")
        for key in ("amplitude", "offset"):
            if not is_number(getattr(self, key)):
                raise ValueError(f"profile {key} must be a number, got {getattr(self, key)!r}")
        # Only a whole frequency keeps the profile 2*pi-periodic on the grid.
        if isinstance(self.frequency, bool) or not isinstance(self.frequency, int):
            raise ValueError(f"profile frequency must be an integer, got {self.frequency!r}")

    def evaluate(self, grid: PeriodicGrid) -> np.ndarray:
        if self.kind == "const":
            return np.full(grid.n, self.offset)
        if self.kind == "samples":
            values = np.asarray(self.samples, dtype=float)
            if values.shape != (grid.n,):
                raise ValueError(
                    f"samples profile has {values.size} points, grid needs {grid.n}"
                )
            return values
        if 2 * abs(self.frequency) >= grid.n:  # it would alias to a lower mode
            raise ValueError(f"profile frequency {self.frequency} is at or above the Nyquist "
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

    def build(self, grid: PeriodicGrid, t: float = 0.0) -> MetricState:
        profiles = (self.phi0, self.a0, self.b0, self.c0)
        return metric_state(grid, t, *(p.evaluate(grid) for p in profiles))


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


def get_preset(name: str, params: dict | None = None) -> Preset:
    params = params or {}
    if name in ("sphere", "biaxial"):
        for key, value in params.items():
            if not is_number(value):
                raise ValueError(f"preset parameter {key} must be a number, got {value!r}")
        return (sphere if name == "sphere" else biaxial)(**params)
    for p in presets():
        if p.name == name:
            if params:
                raise ValueError(f"preset {name!r} takes no parameters")
            return p
    raise ValueError(f"unknown preset {name!r}")
