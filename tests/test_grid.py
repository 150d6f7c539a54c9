import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neckpinch.curvature import jet
from neckpinch.grid import (
    GaugeDegeneracyError,
    NonFiniteFieldError,
    PeriodicGrid,
    _jet_symbol,
    metric_state,
    z_jet,
)
from neckpinch.presets import get_preset

from reference import dz_stencil, s_derivative, s_second_derivative


@pytest.mark.parametrize("n", [4, 6, 7, 33])
def test_grid_rejects_small_or_odd(n):
    with pytest.raises(ValueError):
        PeriodicGrid(n)


def test_grid_spacing_and_points():
    g = PeriodicGrid(64)
    assert g.dz == pytest.approx(2 * np.pi / 64)
    assert g.z[0] == 0.0
    assert g.z[-1] == pytest.approx(2 * np.pi - g.dz)


def test_metric_state_rejects_nonfinite():
    g = PeriodicGrid(8)
    values = np.ones(8)
    for bad in (np.nan, np.inf, -np.inf):
        values[3] = bad
        for k in range(4):
            profiles = [1.0] * 4
            profiles[k] = values
            with pytest.raises(NonFiniteFieldError):
                metric_state(g, 0.0, *profiles)
            profiles[k] = bad
            with pytest.raises(NonFiniteFieldError):
                metric_state(g, 0.0, *profiles)


def test_metric_state_profiles_are_readonly_copies():
    g = PeriodicGrid(8)
    a = np.full(8, 2.0)
    st = metric_state(g, 0.0, 1.0, a, 3, 4.0)
    a[0] = 5.0
    assert st.a[0] == 2.0
    for values in (st.phi, st.a, st.b, st.c):
        assert values.dtype == np.float64 and values.shape == (8,)
        with pytest.raises(ValueError):
            values[0] = 2.0
    assert np.array_equal(st.b, np.full(8, 3.0))
    assert np.array_equal(st.phi, np.ones(8))


def test_metric_state_rejects_wrong_length():
    g = PeriodicGrid(8)
    with pytest.raises(ValueError):
        metric_state(g, 0.0, 1.0, np.ones(16), 1.0, 1.0)
    with pytest.raises(ValueError):
        metric_state(g, 0.0, np.ones((2, 8)), 1.0, 1.0, 1.0)


def dz(values):
    """D1 of the rows of values by the transform: row 1 of their z-jet."""
    return z_jet(np.fft.rfft(values), values.shape[-1], 1.0)[1]


def test_dz_annihilates_constants_exactly():
    g = PeriodicGrid(32)
    constant = np.stack([np.full(g.n, r) for r in (1.0, 2.0, 3.7)])
    zj = z_jet(np.fft.rfft(constant), g.n, 1.0)
    assert not zj[1:].any()
    assert np.array_equal(zj[0], constant)


def test_dz_sin_fourth_order():
    g = PeriodicGrid(64)
    err = np.max(np.abs(dz(np.sin(g.z)) - np.cos(g.z)))
    # truncation constant for the 5-point stencil on sin is 1/30
    assert err <= g.dz**4 / 20.0


def test_dz_cos_2z_fourth_order():
    g = PeriodicGrid(64)
    err = np.max(np.abs(dz(np.cos(2 * g.z)) - (-2.0 * np.sin(2 * g.z))))
    assert err <= 1.5 * g.dz**4  # constant 2^5/30 for the k=2 mode


@pytest.mark.parametrize("k", [1, 3])
def test_dz_convergence_order(k):
    errs = []
    for n in (32, 64, 128):
        g = PeriodicGrid(n)
        errs.append(np.max(np.abs(dz(np.sin(k * g.z)) - k * np.cos(k * g.z))))
    for e0, e1 in zip(errs, errs[1:]):
        assert e0 / e1 >= 2 ** (4 - 0.5)


@given(
    alpha=st.floats(-10, 10, allow_nan=False),
    beta=st.floats(-10, 10, allow_nan=False),
)
@settings(max_examples=25, deadline=None)
def test_dz_linearity(alpha, beta):
    g = PeriodicGrid(32)
    f = np.sin(g.z)
    h = np.cos(2 * g.z) + 0.5
    lhs = dz(alpha * f + beta * h)
    rhs = alpha * dz(f) + beta * dz(h)
    assert np.allclose(lhs, rhs, atol=1e-11 * (1 + abs(alpha) + abs(beta)))


@pytest.mark.parametrize("lead", [(), (3,), (4, 4, 4)])
def test_dz_values_stacked_rows_bitwise(lead):
    g = PeriodicGrid(32)
    rng = np.random.default_rng(7)
    values = rng.normal(size=lead + (g.n,)) + np.cos(g.z)
    u = np.fft.rfft(values)
    phi = 1.7
    got = z_jet(u, g.n, phi)
    assert got.shape == (3,) + values.shape
    rows = values.reshape(-1, g.n)
    want = np.stack([z_jet(np.fft.rfft(row), g.n, phi) for row in rows], axis=1)
    assert np.array_equal(got, want.reshape(got.shape))
    # the gauge divides rows 1 and 2 of the z-jet by phi and phi^2, bitwise,
    # leaves row 0 as it is, and keeps the exact zeros of constant rows
    zj = z_jet(u, g.n, 1.0)
    assert np.array_equal(got[0], zj[0])
    assert np.array_equal(got[1], zj[1] / phi)
    assert np.array_equal(got[2], zj[2] / (phi * phi))
    constant = z_jet(np.fft.rfft(np.full(lead + (g.n,), 2.5)), g.n, phi)
    assert not constant[1:].any()


def test_z_jet_is_the_reference_stencil():
    # one irfft of rfft(x) S, S = (1, i s, -s^2), gives the direct-space
    # stencil's (x, D1 x, D1 D1 x) to roundoff. The transform's roundoff
    # follows the size of x, not of its derivatives: against max|x| max|S_k|,
    # the largest value row k gives on data of that size, the gap is at most
    # 5.3e-16 here (mild at n=256: 1.1e-12 on an x'' of size 0.06).
    for n in (8, 64, 256):
        g = PeriodicGrid(n)
        scales = np.abs(_jet_symbol(n)).max(axis=-1)
        for name in ("fig-a", "fig-b", "mild"):
            st = get_preset(name).build(g)
            x = np.stack((st.a, st.b, st.c))
            dx = dz_stencil(x, g.dz)
            stencil = np.stack((x, dx, dz_stencil(dx, g.dz)))
            for row, stencil_row, scale in zip(z_jet(np.fft.rfft(x), n, 1.0), stencil, scales):
                gap = np.max(np.abs(row - stencil_row))
                assert gap <= 1e-14 * scale * np.max(np.abs(x)), (n, name)


def test_jet_matches_nested_s_derivative():
    # the same bound for the nested arclength derivatives, on a non-uniform phi
    # (at most 1.1e-16 of max|x| max|S_k| / min(phi)^k here)
    g = PeriodicGrid(64)
    phi = 1.3 + 0.4 * np.sin(g.z)
    x = np.stack([np.cos(g.z) + 1.5, np.sin(2 * g.z) + 2.5, np.cos(3 * g.z) + 3.5])
    scales = np.abs(_jet_symbol(g.n)).max(axis=-1) * np.max(np.abs(x))
    xp, xpp = jet(phi, x)
    for row, d1, d2 in zip(x, xp, xpp):
        gap1 = np.max(np.abs(d1 - s_derivative(row, phi, g.dz)))
        gap2 = np.max(np.abs(d2 - s_second_derivative(row, phi, g.dz)))
        assert gap1 <= 1e-14 * scales[1] / phi.min()
        assert gap2 <= 1e-14 * scales[2] / phi.min() ** 2


def test_s_derivative_identity_gauge_is_bitwise_dz():
    g = PeriodicGrid(64)
    f = np.sin(g.z) + 0.25 * np.cos(3 * g.z)
    one = np.ones(g.n)
    assert np.array_equal(s_derivative(f, one, g.dz), dz_stencil(f, g.dz))


def test_s_derivative_constant_gauge_rescales():
    g = PeriodicGrid(64)
    got = s_derivative(np.sin(g.z), np.full(g.n, 2.0), g.dz)
    assert np.max(np.abs(got - 0.5 * np.cos(g.z))) <= g.dz**4


def test_s_derivative_variable_gauge():
    g = PeriodicGrid(64)
    got = s_derivative(np.sin(g.z), 2.0 + np.cos(g.z), g.dz)
    assert np.max(np.abs(got - np.cos(g.z) / (2.0 + np.cos(g.z)))) <= 1e-5


def test_s_derivative_rejects_nonpositive_gauge():
    g = PeriodicGrid(16)
    f = np.ones(g.n)
    with pytest.raises(GaugeDegeneracyError):
        s_derivative(f, np.zeros(g.n), g.dz)
    with pytest.raises(GaugeDegeneracyError):
        s_derivative(f, np.where(g.z > 3, -1.0, 1.0), g.dz)


def test_s_second_derivative_flat_gauge():
    g = PeriodicGrid(64)
    got = s_second_derivative(np.sin(g.z), np.ones(g.n), g.dz)
    assert np.max(np.abs(got + np.sin(g.z))) <= 1e-4


def test_s_second_derivative_constant_is_zero():
    g = PeriodicGrid(32)
    got = s_second_derivative(np.full(g.n, 2.5), 1.7 + 0.3 * np.sin(g.z), g.dz)
    assert np.all(got == 0.0)


def test_s_second_derivative_shifted_cos():
    g = PeriodicGrid(64)
    got = s_second_derivative(np.cos(g.z) + 1.5, np.ones(g.n), g.dz)
    assert np.max(np.abs(got + np.cos(g.z))) <= 1e-4


def test_metric_state_validates_positivity():
    g = PeriodicGrid(16)
    with pytest.raises(Exception):
        metric_state(g, 0.0, 1.0, -1.0, 2.0, 3.0)
    with pytest.raises(GaugeDegeneracyError):
        metric_state(g, 0.0, 0.0, 1.0, 2.0, 3.0)
