import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neckpinch.curvature import jet
from neckpinch.grid import (
    GaugeDegeneracyError,
    NonFiniteFieldError,
    PeriodicGrid,
    dz_values,
    metric_state,
)

from reference import s_derivative, s_second_derivative


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


def test_dz_annihilates_constants_exactly():
    g = PeriodicGrid(32)
    assert np.all(dz_values(np.full(g.n, 3.7), g.dz) == 0.0)


def test_dz_sin_fourth_order():
    g = PeriodicGrid(64)
    err = np.max(np.abs(dz_values(np.sin(g.z), g.dz) - np.cos(g.z)))
    # truncation constant for the 5-point stencil on sin is 1/30
    assert err <= g.dz**4 / 20.0


def test_dz_cos_2z_fourth_order():
    g = PeriodicGrid(64)
    err = np.max(np.abs(dz_values(np.cos(2 * g.z), g.dz) - (-2.0 * np.sin(2 * g.z))))
    assert err <= 1.5 * g.dz**4  # constant 2^5/30 for the k=2 mode


@pytest.mark.parametrize("k", [1, 3])
def test_dz_convergence_order(k):
    errs = []
    for n in (32, 64, 128):
        g = PeriodicGrid(n)
        errs.append(np.max(np.abs(dz_values(np.sin(k * g.z), g.dz) - k * np.cos(k * g.z))))
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
    lhs = dz_values(alpha * f + beta * h, g.dz)
    rhs = alpha * dz_values(f, g.dz) + beta * dz_values(h, g.dz)
    assert np.allclose(lhs, rhs, atol=1e-11 * (1 + abs(alpha) + abs(beta)))


def _roll_stencil(row, dz):
    """The 5-point stencil on one 1-D row with np.roll, in the same order."""
    out = np.zeros_like(row)
    out += -1.0 / 12.0 * (np.roll(row, -2) - np.roll(row, 2))
    out += 8.0 / 12.0 * (np.roll(row, -1) - np.roll(row, 1))
    return out / dz


@pytest.mark.parametrize("lead", [(), (3,), (4, 4, 4)])
def test_dz_values_stacked_rows_bitwise(lead):
    g = PeriodicGrid(32)
    rng = np.random.default_rng(7)
    values = rng.normal(size=lead + (g.n,)) + np.cos(g.z)
    got = dz_values(values, g.dz)
    assert got.shape == values.shape
    rows = values.reshape(-1, g.n)
    want = np.stack([_roll_stencil(row, g.dz) for row in rows]).reshape(values.shape)
    assert np.array_equal(got, want)


def test_jet_matches_nested_s_derivative_bitwise():
    g = PeriodicGrid(64)
    phi = 1.3 + 0.4 * np.sin(g.z)
    x = np.stack([np.cos(g.z) + 1.5, np.sin(2 * g.z) + 2.5, np.cos(3 * g.z) + 3.5])
    xp, xpp = jet(phi, x, g.dz)
    for row, d1, d2 in zip(x, xp, xpp):
        assert np.array_equal(d1, s_derivative(row, phi, g.dz))
        assert np.array_equal(d2, s_second_derivative(row, phi, g.dz))


def test_s_derivative_identity_gauge_is_bitwise_dz():
    g = PeriodicGrid(64)
    f = np.sin(g.z) + 0.25 * np.cos(3 * g.z)
    one = np.ones(g.n)
    assert np.array_equal(s_derivative(f, one, g.dz), dz_values(f, g.dz))


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
