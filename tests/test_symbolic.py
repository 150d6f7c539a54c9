"""Exact oracle for the flow's right-hand side, every Riemann component (the
sectional curvatures and the mixed components), |Rm|^2 and the evolution of
K_0i: the one exact curvature reference of the tests.

sympy derives the curvature of g = ds^2 + a^2 w1*w1 + b^2 w2*w2 + c^2 w3*w3
from the Milnor frame alone: the orthonormal frame e0 = d/ds, e_i = E_i / x_i
with [E_i, E_j] = -2 eps_ijk E_k, whose brackets are [e0, e_i] =
-(x_i'/x_i) e_i and [e_i, e_j] = -2 eps_ijk x_k / (x_i x_j) e_k. Koszul's
formula gives the connection, <nabla_{e_a} e_b, e_c> = (C_abc - C_bca +
C_cab) / 2 for [e_a, e_b] = sum_c C_abc e_c, and R(X, Y) = nabla_X nabla_Y -
nabla_Y nabla_X - nabla_[X,Y] the curvature. Every coefficient is a function
of s alone, so e0 differentiates it and the e_i annihilate it.

The package's closed forms are compared pointwise with the derivation on
random positive jets (x, x', x'', ...), no grid, within 1e-13 of the sum of the
absolute values of the derived expression's terms: the roundoff of its
cancellations, not a discretization error.

The evolution of K_0i under the flow with tangential speed W follows from
the derivation by the chain rule: at fixed z the k-th arclength derivative of
a radius moves as dt x^(k) = (dx)^(k) - k c x^(k), since phi = lambda phi_bar
with dt log lambda = c, where dx = -x Ric(e_i, e_i) + W x' and ds W = c - q,
q = -Ric(e0, e0).
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
import sympy

from neckpinch import flow, monitors
from neckpinch.curvature import sectional_rows, trace_invariants

#: Relative tolerance on the sum of the absolute values of an expression's terms.
RTOL = 1e-13
#: The planes (a, b) of the sectional curvatures K01, K02, K03, K12, K13, K23.
PLANES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
#: The radii as functions of the arclength s, and the symbols of their jets
#: (x, x', ..., x^(4)) that replace them, 3 rows of 5.
S = sympy.Symbol("s")
RADII = [sympy.Function(name)(S) for name in "abc"]
JET = [sympy.symbols(f"{name} {name}1:5", real=True) for name in "abc"]
#: The symbols of the jets (x, x', x'') the curvatures read.
JET2 = [v for row in JET for v in row[:3]]


@functools.cache
def derivation():
    """The Riemann tensor of the Milnor frame as R(a, b, c, d) = <R(e_a, e_b)
    e_c, e_d>, in RADII and their derivatives."""
    s, radii = S, RADII

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

    return riemann


def to_jet(expr):
    """expr with the radii and their s-derivatives replaced by JET."""
    return expr.xreplace(
        {x.diff(S, k) if k else x: v for x, row in zip(RADII, JET) for k, v in enumerate(row)}
    )


def evaluator(exprs, symbols):
    """(values, scales) of the expressions at a jet (x, x', ...), each stacked
    (3, n), and the values extra of any further symbols: their values and the
    sums of the absolute values of their expanded terms."""
    terms = [sympy.Add.make_args(sympy.expand(e)) for e in exprs]
    values = sympy.lambdify(symbols, exprs, "numpy")
    parts = [sympy.lambdify(symbols, list(t), "numpy") for t in terms]

    def evaluate(x, *primes, extra=()):
        args = [v for row in zip(x, *primes) for v in row] + list(extra)
        scales = [sum(np.abs(np.broadcast_to(p, x[0].shape)) for p in part(*args))
                  for part in parts]
        return np.array(values(*args)), np.array(scales)

    return evaluate


@functools.cache
def ricci_diagonal():
    """Evaluator of Ric(e_a, e_a), a = 0..3."""
    riemann = derivation()
    ric = [to_jet(sum(riemann(c, a, a, c) for c in range(4) if c != a)) for a in range(4)]
    return evaluator(ric, JET2)


@functools.cache
def sectional():
    """Evaluator of K_ab = <R(e_a, e_b) e_b, e_a> on PLANES."""
    riemann = derivation()
    return evaluator([to_jet(riemann(a, b, b, a)) for a, b in PLANES], JET2)


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


#: The mixed pairs of planes ((0, i), (j, k)) whose components R(0, i, j, k)
#: are not identically zero, in the order of M1, M2, M3.
MIXED = [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]


@functools.cache
def pair_components():
    """The 36 components R(a, b, c, d), (a, b) and (c, d) planes of PLANES,
    keyed by ((a, b), (c, d)), in JET and cancelled: 0 when identically zero."""
    riemann = derivation()
    return {(ab, cd): sympy.cancel(to_jet(riemann(*ab, *cd))) for ab in PLANES for cd in PLANES}


@functools.cache
def riemann_components():
    """Evaluator of the components of pair_components() that are not
    identically zero."""
    return evaluator([r for r in pair_components().values() if r != 0], JET2)


def rm_norm_sq(zj):
    """|Rm|^2 at the jet zj as trace_invariants normalizes it, half the full
    contraction sum_abcd R_abcd^2: 2 sum over a < b, c < d of R(a, b, c, d)^2."""
    return 2.0 * np.square(riemann_components()(*zj)[0]).sum(axis=0)


def test_rm_norm_sq_is_the_full_contraction_where_the_log_derivatives_agree():
    # x' = r x with one r for the three radii: the mixed components vanish,
    # the curvature operator is diagonal on the frame 2-forms, and 2 sum K^2
    # is the whole of |Rm|^2
    zj = random_jet(6)
    zj[1] = np.random.default_rng(6).uniform(-3.0, 3.0, zj.shape[-1]) * zj[0]
    got = trace_invariants(sectional_rows(*zj)[0])[1]
    np.testing.assert_allclose(got, rm_norm_sq(zj), rtol=RTOL)


@pytest.mark.xfail(
    strict=True,
    reason="CHANGES.md FOUND line 92: trace_invariants' 2 sum K^2 leaves out the "
    "mixed (Codazzi) components R(e0, ei, ej, ek) where the log-derivatives differ",
)
def test_rm_norm_sq_is_the_full_contraction():
    for seed in (2, 3):
        zj = random_jet(seed)
        got = trace_invariants(sectional_rows(*zj)[0])[1]
        np.testing.assert_allclose(got, rm_norm_sq(zj), rtol=RTOL)


def mixed_closed_forms(x, xp):
    """(M1, M2, M3) = (R(0, 1, 2, 3), R(0, 2, 1, 3), R(0, 3, 1, 2)) stacked (3, n)
    in closed form, from the radii x = (a, b, c) and their primes, with the
    log-derivatives r_x = x'/x."""
    (a, b, c), (ra, rb, rc) = x, xp / x
    a2, b2, c2, abc = a * a, b * b, c * c, a * b * c
    return np.stack((
        (a2 * (2.0 * ra - rb - rc) + (b2 - c2) * (rc - rb)) / abc,
        (b2 * (ra - 2.0 * rb + rc) + (a2 - c2) * (ra - rc)) / abc,
        -(c2 * (ra + rb - 2.0 * rc) + (a2 - b2) * (ra - rb)) / abc,
    ))


@pytest.mark.parametrize("seed", [2, 3])
def test_mixed_components_closed_forms(seed):
    # and with them |Rm|^2 = 2 sum K^2 + 4 sum M_i^2 in trace_invariants'
    # normalization, the full contraction that 2 sum K^2 alone falls short of
    zj = random_jet(seed)
    components = pair_components()
    want, scale = evaluator([components[key] for key in MIXED], JET2)(*zj)
    m = mixed_closed_forms(zj[0], zj[1])
    np.testing.assert_array_less(np.abs(m - want), RTOL * scale)
    k = sectional_rows(*zj)[0]
    full = 2.0 * np.square(k).sum(axis=0) + 4.0 * np.square(m).sum(axis=0)
    np.testing.assert_allclose(full, rm_norm_sq(zj), rtol=RTOL)


@functools.cache
def k0i_evolution():
    """Evaluators of (K_0i, K_0i', K_0i'') for i = 1..3, 9 rows, and of
    dt K_0i, 3 rows, at a jet (x, ..., x^(4)) and extra = (W, c)."""
    riemann = derivation()
    w, rate = sympy.symbols("W rate", real=True)
    ric = [sympy.cancel(to_jet(sum(riemann(b, a, a, b) for b in range(4) if b != a)))
           for a in range(4)]
    q = -ric[0]

    def d_ds(expr):
        # the total s-derivative of a jet expression; ds W = c - q
        out = sympy.diff(expr, w) * (rate - q)
        for row in JET:
            out += sum(sympy.diff(expr, row[k]) * row[k + 1] for k in range(4))
        return sympy.expand(out)

    k0i = [sympy.cancel(to_jet(riemann(0, i, i, 0))) for i in (1, 2, 3)]
    k_jet = [d for k in k0i for d in (k, d_ds(k), d_ds(d_ds(k)))]
    moves = {}
    for row, r in zip(JET, ric[1:]):
        dx = sympy.expand(-row[0] * r + w * row[1])
        for m, dm in enumerate((dx, d_ds(dx), d_ds(d_ds(dx)))):
            moves[row[m]] = dm - m * rate * row[m]
    dk_dt = [sum(sympy.diff(k, v) * move for v, move in moves.items()) for k in k0i]
    symbols = [v for row in JET for v in row] + [w, rate]
    return evaluator(k_jet, symbols), evaluator(dk_dt, symbols)


@pytest.mark.parametrize("seed", [4, 5])
def test_k0i_evolution_rhs_is_the_time_derivative_of_k0i(monkeypatch, seed):
    # _k0i_evolution_rhs reads K' and K'' off its own z_jet of K; fed the exact
    # ones, it must be dt K_0i as the chain rule gives it, for any W and c
    rng = np.random.default_rng(seed)
    jet = np.concatenate((random_jet(seed), rng.uniform(-20.0, 20.0, (2, 3, 200))))
    w, rate = rng.uniform(-3.0, 3.0, 200), rng.uniform(-5.0, 5.0)
    k_of, dk_dt_of = k0i_evolution()
    k_jet, _ = k_of(*jet, extra=(w, rate))
    want, scale = dk_dt_of(*jet, extra=(w, rate))
    monkeypatch.setattr(monitors, "rfft", lambda k: k)
    monkeypatch.setattr(monitors, "z_jet", lambda k, phi: k_jet.reshape(3, 3, -1).swapaxes(0, 1))
    got = monitors._k0i_evolution_rhs(jet[:3], 1.0, w)
    np.testing.assert_array_less(np.abs(got - want), RTOL * scale)
