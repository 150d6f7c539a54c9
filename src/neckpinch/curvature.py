"""Curvature of the triaxial warped-product metric on S1 x S3.

The metric is g = phi^2 dz^2 + a^2 w1*w1 + b^2 w2*w2 + c^2 w3*w3 with
{w_i} dual to a Milnor frame {E_i} on SU(2) normalized so that
[E_i, E_j] = -2 eps_ijk E_k.

Two independent evaluation paths are provided:

* the production path evaluates the closed arclength-gauge expressions
  (K_0i = -x''/x, K_ij = -x'y'/(xy) + Khat_ij, the Ricci diagonal, the
  scalar curvature, |Rm|^2) using chain-rule s-derivatives;
* the oracle path evaluates the z-gauge Riemann components Rm_0ii0 / Rm_ijji
  directly, including the g^00 terms that vanish in the arclength gauge.

The two paths discretize genuinely different formulas and must agree under
grid refinement at the stencil order; that comparison is the module's main
self-check (criterion 2 and ``neckpinch convergence``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    DegenerateFiberError,
    MetricState,
    ScalarField,
    dz_values,
)

#: Radii below this are treated as a collapsed fiber: curvature ~ 1/a^2 would
#: overflow silently rather than fail loudly.
MIN_RADIUS = 1e-8

# Fiber index triples (i, j, k) of the planes 12, 13, 23 and their complements.
_PLANES = ([0, 0, 1], [1, 2, 2], [2, 1, 0])


def jet(phi: np.ndarray, x: np.ndarray, dz: float) -> tuple[np.ndarray, np.ndarray]:
    """First and second arclength derivatives (x', x'') of the rows of x.

    x is a stacked (..., n) array, usually the radii (a, b, c); phi must
    broadcast against it. The second derivative is nested,
    (1/phi) d/dz ((1/phi) dx/dz), which keeps the discrete product rule exact
    instead of expanding into dx*dphi cross terms.
    """
    xp = dz_values(x, dz)
    xp /= phi
    xpp = dz_values(xp, dz)
    xpp /= phi
    return xp, xpp


def radii(state: MetricState) -> np.ndarray:
    """The fiber radii (a, b, c) stacked into one (3, n) array."""
    return np.stack((state.a.values, state.b.values, state.c.values))


def check_resolvable(state: MetricState) -> None:
    smallest = min(
        np.min(state.a.values), np.min(state.b.values), np.min(state.c.values)
    )
    if smallest < MIN_RADIUS:
        raise DegenerateFiberError(
            f"fiber radius {smallest:.3e} below resolvable floor {MIN_RADIUS:.0e}"
        )


@dataclass(frozen=True)
class CurvatureField:
    """Pointwise curvature data of one metric state.

    Sectional curvatures k01..k23 span the frame 2-planes; khat12..khat23 are
    the intrinsic sectional curvatures of the SU(2) fiber; ric00..ric33 are
    the diagonal Ricci components in the arclength frame; scal and rm_norm_sq
    are assembled from the sectional curvatures by their trace identities.
    """

    k01: ScalarField
    k02: ScalarField
    k03: ScalarField
    k12: ScalarField
    k13: ScalarField
    k23: ScalarField
    khat12: ScalarField
    khat13: ScalarField
    khat23: ScalarField
    ric00: ScalarField
    ric11: ScalarField
    ric22: ScalarField
    ric33: ScalarField
    scal: ScalarField
    rm_norm_sq: ScalarField

    def sectional(self) -> tuple[ScalarField, ...]:
        return (self.k01, self.k02, self.k03, self.k12, self.k13, self.k23)


@dataclass(frozen=True)
class RiemannOracle:
    """z-gauge Riemann components and the sectional curvatures they normalize to."""

    rm0110: ScalarField
    rm0220: ScalarField
    rm0330: ScalarField
    rm1221: ScalarField
    rm1331: ScalarField
    rm2332: ScalarField
    k01: ScalarField
    k02: ScalarField
    k03: ScalarField
    k12: ScalarField
    k13: ScalarField
    k23: ScalarField

    def sectional(self) -> tuple[ScalarField, ...]:
        return (self.k01, self.k02, self.k03, self.k12, self.k13, self.k23)


def _khat(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Fiber sectional curvature of the plane spanned by the x- and y-directions."""
    return ((x**2 - y**2) ** 2 - 3.0 * z**4) / (x * y * z) ** 2 + 2.0 / x**2 + 2.0 / y**2


def sectional_rows(
    x: np.ndarray, xp: np.ndarray, xpp: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sectional curvatures (K01, K02, K03, K12, K13, K23) stacked (..., 6, n)
    and fiber curvatures (Khat12, Khat13, Khat23) stacked (..., 3, n), from
    the radii x = (a, b, c), stacked (..., 3, n), and their jet."""
    i, j, k = _PLANES
    xi, xj = x[..., i, :], x[..., j, :]
    khat = _khat(xi, xj, x[..., k, :])
    cross = -xp[..., i, :] * xp[..., j, :] / (xi * xj) + khat
    return np.concatenate((-xpp / x, cross), axis=-2), khat


def trace_invariants(k: np.ndarray) -> np.ndarray:
    """(scal, |Rm|^2) stacked (2, ..., n) from the six sectional curvature rows
    k, stacked (..., 6, n), by the trace identities scal = 2 sum K and
    |Rm|^2 = 2 sum K^2."""
    k = np.moveaxis(k, -2, 0)
    k2 = k**2
    return 2.0 * np.stack(
        (k[0] + k[1] + k[2] + k[3] + k[4] + k[5], k2[0] + k2[1] + k2[2] + k2[3] + k2[4] + k2[5])
    )


def sectional_curvatures(state: MetricState) -> CurvatureField:
    """All curvature data via the arclength-gauge closed forms.

    Primes are s-derivatives computed by the chain rule (1/phi) d/dz on the
    fixed z-grid.
    """
    check_resolvable(state)
    x = radii(state)
    xp, xpp = jet(state.phi.values, x, state.grid.dz)
    k, khat = sectional_rows(x, xp, xpp)
    scal, rm_norm_sq = trace_invariants(k)

    q = xpp / x
    ric00 = -(q[0] + q[1] + q[2])
    # Row x of the radii pairs with the other two rows (y, z).
    r = xp / x
    y, z = [1, 0, 0], [2, 2, 1]
    ric = -x * xpp - x * xp * (r[y] + r[z]) + x**2 * (khat[[0, 0, 1]] + khat[[1, 2, 2]])

    wrap = lambda v: ScalarField(state.grid, v)
    return CurvatureField(
        *map(wrap, k),
        *map(wrap, khat),
        wrap(ric00),
        *map(wrap, ric),
        scal=wrap(scal),
        rm_norm_sq=wrap(rm_norm_sq),
    )


def riemann_oracle(state: MetricState) -> RiemannOracle:
    """z-gauge Riemann components Rm_0ii0 and Rm_ijji, and their sectional norms.

    Rm_0ii0 = (g^00 dz(g00) dz(gii) + g^ii (dz gii)^2 - 2 dzz(gii)) / 4 and
    Rm_ijji = -g^00 dz(gjj) dz(gii) / 4 - g^kk (g_kk^2 - (g_ii - g_jj)^2)
              - 2 (g_kk - g_jj - g_ii).
    Sectional curvatures follow by dividing by the plane's metric coefficients,
    K_0i = Rm_0ii0 / (g00 gii) and K_ij = Rm_ijji / (gii gjj). All z-derivatives
    use the same central stencil as the production path but act on different
    quantities (g_ii rather than the radii), so the two discretizations agree
    only in the refinement limit.
    """
    check_resolvable(state)
    grid = state.grid
    dz = grid.dz
    g = np.stack(
        [
            state.phi.values**2,
            state.a.values**2,
            state.b.values**2,
            state.c.values**2,
        ]
    )
    dg = dz_values(g, dz)
    ddg = dz_values(dg, dz)

    rm0 = {}
    k0 = {}
    for i in (1, 2, 3):
        rm = 0.25 * (dg[0] * dg[i] / g[0] + dg[i] ** 2 / g[i] - 2.0 * ddg[i])
        rm0[i] = rm
        k0[i] = rm / (g[0] * g[i])

    rmf = {}
    kf = {}
    for i, j in ((1, 2), (1, 3), (2, 3)):
        k = 6 - i - j
        rm = (
            -0.25 * dg[j] * dg[i] / g[0]
            - (g[k] ** 2 - (g[i] - g[j]) ** 2) / g[k]
            - 2.0 * (g[k] - g[j] - g[i])
        )
        rmf[(i, j)] = rm
        kf[(i, j)] = rm / (g[i] * g[j])

    wrap = lambda v: ScalarField(grid, v)
    return RiemannOracle(
        rm0110=wrap(rm0[1]),
        rm0220=wrap(rm0[2]),
        rm0330=wrap(rm0[3]),
        rm1221=wrap(rmf[(1, 2)]),
        rm1331=wrap(rmf[(1, 3)]),
        rm2332=wrap(rmf[(2, 3)]),
        k01=wrap(k0[1]),
        k02=wrap(k0[2]),
        k03=wrap(k0[3]),
        k12=wrap(kf[(1, 2)]),
        k13=wrap(kf[(1, 3)]),
        k23=wrap(kf[(2, 3)]),
    )
