"""Exact oracle for the flow's right-hand side and the sectional curvatures.

sympy derives the curvature of g = ds^2 + a^2 w1*w1 + b^2 w2*w2 + c^2 w3*w3
from the Milnor frame alone: the orthonormal frame e0 = d/ds, e_i = E_i / x_i
with [E_i, E_j] = -2 eps_ijk E_k, whose brackets are [e0, e_i] =
-(x_i'/x_i) e_i and [e_i, e_j] = -2 eps_ijk x_k / (x_i x_j) e_k. Koszul's
formula gives the connection, <nabla_{e_a} e_b, e_c> = (C_abc - C_bca +
C_cab) / 2 for [e_a, e_b] = sum_c C_abc e_c, and R(X, Y) = nabla_X nabla_Y -
nabla_Y nabla_X - nabla_[X,Y] the curvature. Every coefficient is a function
of s alone, so e0 differentiates it and the e_i annihilate it.

The package's closed forms are compared pointwise with the derivation on
random positive jets (x, x', x''), no grid, within 1e-13 of the sum of the
absolute values of the derived expression's terms: the roundoff of its
cancellations, not a discretization error.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
import sympy

from neckpinch import flow
from neckpinch.curvature import sectional_rows, trace_invariants

#: Relative tolerance on the sum of the absolute values of an expression's terms.
RTOL = 1e-13
#: The planes (a, b) of the sectional curvatures K01, K02, K03, K12, K13, K23.
PLANES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


@functools.cache
def derivation():
    """The Riemann tensor of the Milnor frame as R(a, b, c, d) = <R(e_a, e_b)
    e_c, e_d>, with the jet symbols (x, x', x'') of the radii, 3 rows of 3,
    that replace a(s), b(s), c(s) and their derivatives."""
    s = sympy.Symbol("s")
    radii = [sympy.Function(name)(s) for name in "abc"]
    jet = [sympy.symbols(f"{name} {name}1 {name}2", real=True) for name in "abc"]

    def frame_bracket(a, b, c):
        """C_abc, [e_a, e_b] = sum_c C_abc e_c; index 0 is e0, 1-3 the fiber."""
        if a == 0 and b == c and b > 0:
            x = radii[b - 1]
            return -x.diff(s) / x
        if b == 0 and a == c and a > 0:
            return -frame_bracket(b, a, c)
        if 0 in (a, b, c):
            return sympy.Integer(0)
        eps = sympy.LeviCivita(a, b, c)
        return -2 * eps * radii[c - 1] / (radii[a - 1] * radii[b - 1])

    C = [[[frame_bracket(a, b, c) for c in range(4)] for b in range(4)] for a in range(4)]
    gamma = [
        [[(C[a][b][c] - C[b][c][a] + C[c][a][b]) / 2 for c in range(4)] for b in range(4)]
        for a in range(4)
    ]

    def along(a, f):
        return f.diff(s) if a == 0 else sympy.Integer(0)

    def nabla_nabla(a, b, c):
        # nabla_{e_a} nabla_{e_b} e_c = sum_d (e_a(G_bcd) + sum_f G_bcf G_afd) e_d
        return [
            along(a, gamma[b][c][d]) + sum(gamma[b][c][f] * gamma[a][f][d] for f in range(4))
            for d in range(4)
        ]

    def riemann(a, b, c, d):
        bracket = sum(C[a][b][f] * gamma[f][c][d] for f in range(4))
        return nabla_nabla(a, b, c)[d] - nabla_nabla(b, a, c)[d] - bracket

    def to_jet(expr):
        for x, (v, v1, v2) in zip(radii, jet):
            expr = expr.subs({x.diff(s, 2): v2}).subs({x.diff(s): v1}).subs({x: v})
        return expr

    return riemann, to_jet, [v for row in jet for v in row]


def evaluator(exprs, symbols):
    """(values, scales) of the expressions at a jet (x, x', x''), each stacked
    (3, n): their values and the sums of the absolute values of their
    expanded terms."""
    terms = [sympy.Add.make_args(sympy.expand(e)) for e in exprs]
    values = sympy.lambdify(symbols, exprs, "numpy")
    parts = [sympy.lambdify(symbols, list(t), "numpy") for t in terms]

    def evaluate(x, xp, xpp):
        args = [v for row in zip(x, xp, xpp) for v in row]
        scales = [sum(np.abs(np.broadcast_to(p, x[0].shape)) for p in part(*args))
                  for part in parts]
        return np.array(values(*args)), np.array(scales)

    return evaluate


@functools.cache
def ricci_diagonal():
    """Evaluator of Ric(e_a, e_a), a = 0..3."""
    riemann, to_jet, symbols = derivation()
    ric = [to_jet(sum(riemann(c, a, a, c) for c in range(4) if c != a)) for a in range(4)]
    return evaluator(ric, symbols)


@functools.cache
def sectional():
    """Evaluator of K_ab = <R(e_a, e_b) e_b, e_a> on PLANES."""
    riemann, to_jet, symbols = derivation()
    return evaluator([to_jet(riemann(a, b, b, a)) for a, b in PLANES], symbols)


def random_jet(seed, n=200):
    """(x, x', x'') stacked (3, 3, n): radii in [0.2, 3], primes in [-3, 3]
    and [-8, 8], with no grid relating them."""
    rng = np.random.default_rng(seed)
    return np.stack(
        (rng.uniform(0.2, 3.0, (3, n)), rng.uniform(-3.0, 3.0, (3, n)),
         rng.uniform(-8.0, 8.0, (3, n)))
    )


def test_round_fiber_has_sectional_curvature_one_over_r_squared():
    # the derivation's own check: a constant round fiber of radius r is a flat
    # direction times the round S3, K_0i = 0 and K_ij = 1/r^2
    jet = np.zeros((3, 3, 1))
    jet[0] = 1.7
    k, _ = sectional()(*jet)
    np.testing.assert_allclose(k[:, 0], [0.0, 0.0, 0.0] + [1.0 / 1.7**2] * 3, rtol=1e-15)


@pytest.mark.parametrize("seed", [0, 1])
def test_flow_rhs_is_minus_x_times_the_ricci_diagonal(monkeypatch, seed):
    # with the tangential speed W = 0, dt x_i = -x_i Ric(e_i, e_i), the Ricci
    # flow dt g = -2 Ric on g_ii = x_i^2; the rate c is the mean of q = -Ric00
    zj = random_jet(seed)
    seen = []

    def no_tangential_speed(phi, q):
        seen.append(q)
        return np.zeros_like(q), float(q.mean())

    monkeypatch.setattr(flow, "tangential_speed", no_tangential_speed)
    dx, c, _ = flow._flow_rhs(zj, 1.0)
    ric, scale = ricci_diagonal()(*zj)
    x = zj[0]
    np.testing.assert_array_less(np.abs(dx - (-x * ric[1:])), RTOL * x * scale[1:])
    np.testing.assert_array_less(np.abs(seen[0] + ric[0]), RTOL * scale[0])
    assert c == pytest.approx(-ric[0].mean(), rel=1e-13)


@pytest.mark.parametrize("seed", [2, 3])
def test_sectional_rows_are_the_frame_sectional_curvatures(seed):
    # and their trace is the scalar curvature, the trace of the Ricci diagonal
    zj = random_jet(seed)
    got, _ = sectional_rows(*zj)
    want, scale = sectional()(*zj)
    np.testing.assert_array_less(np.abs(got - want), RTOL * scale)
    ric, ric_scale = ricci_diagonal()(*zj)
    scal = trace_invariants(got)[0]
    np.testing.assert_array_less(np.abs(scal - ric.sum(axis=0)), RTOL * ric_scale.sum(axis=0))
