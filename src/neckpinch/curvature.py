"""Curvature of the triaxial warped-product metric on S1 x S3.

The metric is g = phi^2 dz^2 + a^2 w1*w1 + b^2 w2*w2 + c^2 w3*w3 with
{w_i} dual to a Milnor frame {E_i} on SU(2) normalized so that
[E_i, E_j] = -2 eps_ijk E_k.

Two independent evaluation paths are provided:

* the production path evaluates the closed arclength-gauge expressions
  (K_0i = -x''/x, K_ij = -x'y'/(xy) + Khat_ij, the Ricci diagonal, the
  scalar curvature, |Rm|^2) on grid.arclength_jet, as the summaries do;
* the oracle path evaluates the z-gauge Riemann components Rm_0ii0 / Rm_ijji
  directly, including the g^00 terms that vanish in the arclength gauge.

Both take their z-derivatives from grid.z_jet. The oracle stays independent
because it differentiates the metric coefficients g_ii, not the radii: the
two discretize genuinely different formulas and must agree under grid
refinement at the stencil order; that comparison is the module's main
self-check (criterion 2 and ``neckpinch convergence``).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .grid import DataError, MetricState, arclength_jet, rfft, z_jet

#: Radii below this are treated as a collapsed fiber: curvature ~ 1/a^2 would
#: overflow silently rather than fail loudly.
MIN_RADIUS = 1e-8

# Fiber index triples (i, j, k) of the planes 12, 13, 23 and their complements.
_PLANES = ([0, 0, 1], [1, 2, 2], [2, 1, 0])
# The partner rows (y, z) of each row x of the stacked radii, in index order.
Y, Z = [1, 0, 0], [2, 2, 1]


def check_resolvable(x: np.ndarray) -> None:
    """Raise DataError if any of the stacked radii x lies below
    MIN_RADIUS."""
    smallest = x.min()
    if smallest < MIN_RADIUS:
        raise DataError(
            f"fiber radius {smallest:.3e} below resolvable floor {MIN_RADIUS:.0e}"
        )


class CurvatureField(NamedTuple):
    """Pointwise curvature data of one metric state, one (n,) array per field.

    Sectional curvatures k01..k23 span the frame 2-planes; khat12..khat23 are
    the intrinsic sectional curvatures of the SU(2) fiber; ric00..ric33 are
    the diagonal Ricci components in the arclength frame; scal and rm_norm_sq
    are assembled from the sectional curvatures by their trace identities.
    """

    k01: np.ndarray
    k02: np.ndarray
    k03: np.ndarray
    k12: np.ndarray
    k13: np.ndarray
    k23: np.ndarray
    khat12: np.ndarray
    khat13: np.ndarray
    khat23: np.ndarray
    ric00: np.ndarray
    ric11: np.ndarray
    ric22: np.ndarray
    ric33: np.ndarray
    scal: np.ndarray
    rm_norm_sq: np.ndarray

    def sectional(self) -> tuple[np.ndarray, ...]:
        return self[:6]


def _khat(xs: np.ndarray, ys: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Fiber sectional curvature of the plane spanned by the x- and
    y-directions, from the squared radii xs = x^2, ys = y^2 and zs = z^2."""
    return ((xs - ys) ** 2 - 3.0 * zs * zs) / (xs * ys * zs) + 2.0 / xs + 2.0 / ys


def sectional_rows(
    x: np.ndarray, xp: np.ndarray, xpp: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sectional curvatures (K01, K02, K03, K12, K13, K23) stacked (..., 6, n)
    and fiber curvatures (Khat12, Khat13, Khat23) stacked (..., 3, n), from
    the radii x = (a, b, c), stacked (..., 3, n), and their jet."""
    i, j, k = _PLANES
    sq, r = x * x, xp / x
    khat = _khat(sq[..., i, :], sq[..., j, :], sq[..., k, :])
    cross = khat - r[..., i, :] * r[..., j, :]
    return np.concatenate((-xpp / x, cross), axis=-2), khat


def trace_invariants(k: np.ndarray) -> np.ndarray:
    """(scal, |Rm|^2) stacked (2, ..., n) from the six sectional curvature rows
    k, stacked (..., 6, n), by the trace identities scal = 2 sum K and
    |Rm|^2 = 2 sum K^2. A K^2 beyond the float range is inf, without a
    warning: the callers check finiteness and raise DataError."""
    with np.errstate(over="ignore"):
        return 2.0 * np.stack((k.sum(axis=-2), np.square(k).sum(axis=-2)))


def sectional_curvatures(state: MetricState) -> CurvatureField:
    """All curvature data via the arclength-gauge closed forms, on the
    radii and primes of grid.arclength_jet."""
    x, xp, xpp = arclength_jet(state)
    check_resolvable(x)
    k, khat = sectional_rows(x, xp, xpp)
    scal, rm_norm_sq = trace_invariants(k)

    q = xpp / x
    ric00 = -(q[0] + q[1] + q[2])
    r = xp / x
    ric = -x * xpp - x * xp * (r[Y] + r[Z]) + x**2 * (khat[[0, 0, 1]] + khat[[1, 2, 2]])

    curv = CurvatureField(*k, *khat, ric00, *ric, scal, rm_norm_sq)
    if not np.isfinite(curv).all():
        raise DataError("curvature is not finite everywhere")
    return curv


def riemann_oracle(state: MetricState) -> np.ndarray:
    """Sectional curvatures (K01, K02, K03, K12, K13, K23) stacked (6, n),
    normalized from the z-gauge Riemann components Rm_0ii0 and Rm_ijji.

    Rm_0ii0 = (g^00 dz(g00) dz(gii) + g^ii (dz gii)^2 - 2 dzz(gii)) / 4 and
    Rm_ijji = -g^00 dz(gjj) dz(gii) / 4 - g^kk (g_kk^2 - (g_ii - g_jj)^2)
              - 2 (g_kk - g_jj - g_ii).
    Sectional curvatures follow by dividing by the plane's metric coefficients,
    K_0i = Rm_0ii0 / (g00 gii) and K_ij = Rm_ijji / (gii gjj). (dg, ddg) are
    rows 1 and 2 of one z-jet of g: the production path's derivative, acting
    on different quantities (g_ii rather than the radii), so the two
    discretizations agree only in the refinement limit.
    """
    check_resolvable(state.x)
    g = np.stack((np.full(state.grid.n, state.phi**2), state.a**2, state.b**2, state.c**2))
    _, dg, ddg = z_jet(rfft(g), 1.0)

    k0 = [
        0.25 * (dg[0] * dg[i] / g[0] + dg[i] ** 2 / g[i] - 2.0 * ddg[i]) / (g[0] * g[i])
        for i in (1, 2, 3)
    ]
    kf = [
        (
            -0.25 * dg[j] * dg[i] / g[0]
            - (g[k] ** 2 - (g[i] - g[j]) ** 2) / g[k]
            - 2.0 * (g[k] - g[j] - g[i])
        )
        / (g[i] * g[j])
        for i, j, k in ((1, 2, 3), (1, 3, 2), (2, 3, 1))
    ]
    sectional = np.stack(k0 + kf)
    if not np.isfinite(sectional).all():
        raise DataError("oracle curvature is not finite everywhere")
    return sectional
