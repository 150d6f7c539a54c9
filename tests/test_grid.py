import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neckpinch.curvature import jet
from neckpinch.grid import (
    GaugeDegeneracyError,
    NonFiniteFieldError,
    PeriodicGrid,
    ScalarField,
    dz_values,
    field,
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


def test_field_rejects_nonfinite():
    g = PeriodicGrid(8)
    values = np.ones(8)
    values[3] = np.nan
    with pytest.raises(NonFiniteFieldError):
        ScalarField(g, values)
    values[3] = np.inf
    with pytest.raises(NonFiniteFieldError):
        ScalarField(g, values)


def test_field_is_immutable():
    f = field(PeriodicGrid(8), 1.0)
    with pytest.raises(ValueError):
        f.values[0] = 2.0


def test_metric_state_requires_shared_grid():
    g1, g2 = PeriodicGrid(8), PeriodicGrid(16)
    with pytest.raises(ValueError):
        from neckpinch.grid import MetricState

        MetricState(0.0, field(g1, 1.0), field(g2, 1.0), field(g2, 1.0), field(g2, 1.0))


def test_dz_annihilates_constants_exactly():
    f = field(PeriodicGrid(32), 3.7)
    assert np.all(dz_values(f.values, f.grid.dz) == 0.0)


def test_dz_sin_fourth_order():
    g = PeriodicGrid(64)
    f = field(g, np.sin(g.z))
    err = np.max(np.abs(dz_values(f.values, g.dz) - np.cos(g.z)))
    # truncation constant for the 5-point stencil on sin is 1/30
    assert err <= g.dz**4 / 20.0


def test_dz_cos_2z_fourth_order():
    g = PeriodicGrid(64)
    f = field(g, np.cos(2 * g.z))
    err = np.max(np.abs(dz_values(f.values, g.dz) - (-2.0 * np.sin(2 * g.z))))
    assert err <= 1.5 * g.dz**4  # constant 2^5/30 for the k=2 mode


@pytest.mark.parametrize("k", [1, 3])
def test_dz_convergence_order(k):
    errs = []
    for n in (32, 64, 128):
        g = PeriodicGrid(n)
        f = field(g, np.sin(k * g.z))
        errs.append(np.max(np.abs(dz_values(f.values, g.dz) - k * np.cos(k * g.z))))
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
    phi = field(g, 1.3 + 0.4 * np.sin(g.z))
    x = np.stack([np.cos(g.z) + 1.5, np.sin(2 * g.z) + 2.5, np.cos(3 * g.z) + 3.5])
    xp, xpp = jet(phi.values, x, g.dz)
    for row, d1, d2 in zip(x, xp, xpp):
        f = field(g, row)
        assert np.array_equal(d1, s_derivative(f, phi).values)
        assert np.array_equal(d2, s_second_derivative(f, phi).values)


def test_s_derivative_identity_gauge_is_bitwise_dz():
    g = PeriodicGrid(64)
    f = field(g, np.sin(g.z) + 0.25 * np.cos(3 * g.z))
    one = field(g, 1.0)
    assert np.array_equal(s_derivative(f, one).values, dz_values(f.values, g.dz))


def test_s_derivative_constant_gauge_rescales():
    g = PeriodicGrid(64)
    f = field(g, np.sin(g.z))
    got = s_derivative(f, field(g, 2.0)).values
    assert np.max(np.abs(got - 0.5 * np.cos(g.z))) <= g.dz**4


def test_s_derivative_variable_gauge():
    g = PeriodicGrid(64)
    f = field(g, np.sin(g.z))
    phi = field(g, 2.0 + np.cos(g.z))
    got = s_derivative(f, phi).values
    assert np.max(np.abs(got - np.cos(g.z) / (2.0 + np.cos(g.z)))) <= 1e-5


def test_s_derivative_rejects_nonpositive_gauge():
    g = PeriodicGrid(16)
    f = field(g, 1.0)
    with pytest.raises(GaugeDegeneracyError):
        s_derivative(f, field(g, 0.0))
    with pytest.raises(GaugeDegeneracyError):
        s_derivative(f, field(g, np.where(g.z > 3, -1.0, 1.0)))


def test_s_second_derivative_flat_gauge():
    g = PeriodicGrid(64)
    got = s_second_derivative(field(g, np.sin(g.z)), field(g, 1.0)).values
    assert np.max(np.abs(got + np.sin(g.z))) <= 1e-4


def test_s_second_derivative_constant_is_zero():
    g = PeriodicGrid(32)
    got = s_second_derivative(field(g, 2.5), field(g, 1.7 + 0.3 * np.sin(g.z))).values
    assert np.all(got == 0.0)


def test_s_second_derivative_shifted_cos():
    g = PeriodicGrid(64)
    got = s_second_derivative(field(g, np.cos(g.z) + 1.5), field(g, 1.0)).values
    assert np.max(np.abs(got + np.cos(g.z))) <= 1e-4


def test_metric_state_validates_positivity():
    g = PeriodicGrid(16)
    with pytest.raises(Exception):
        metric_state(g, 0.0, 1.0, -1.0, 2.0, 3.0)
    with pytest.raises(GaugeDegeneracyError):
        metric_state(g, 0.0, 0.0, 1.0, 2.0, 3.0)
