import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from neckpinch.grid import (
    DataError,
    MetricState,
    PeriodicGrid,
    _jet_symbol,
    arclength_jet,
    irfft,
    rfft,
    z_jet,
)
from neckpinch.presets import Preset, Profile, const, get_preset, sin

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
    # a radius as an array or a scalar, the gauge phi as a scalar
    g = PeriodicGrid(8)
    values = np.ones(8)
    for bad in (np.nan, np.inf, -np.inf):
        values[3] = bad
        with pytest.raises(DataError, match="profile phi must be finite"):
            MetricState(g, 0.0, bad, (1.0, 1.0, 1.0))
        for k, name in enumerate("abc", start=1):
            profiles = [1.0] * 4
            profiles[k] = values
            with pytest.raises(DataError, match=f"profile {name} must be finite everywhere"):
                MetricState(g, 0.0, profiles[0], profiles[1:])
            profiles[k] = bad
            with pytest.raises(DataError, match=f"profile {name} must be finite everywhere"):
                MetricState(g, 0.0, profiles[0], profiles[1:])


@pytest.mark.parametrize("phi", [np.full(8, 1.3), 1.3 + 0.2 * np.sin(PeriodicGrid(8).z), [1.0]])
def test_metric_state_refuses_an_array_gauge(phi):
    # uniform or not, an array phi is refused: the gauge is one number, and a
    # varying phi0 enters through a samples profile, which Preset.build resamples
    with pytest.raises(DataError, match="phi must be one number.*samples profile"):
        MetricState(PeriodicGrid(8), 0.0, phi, (1.0, 2.0, 3.0))


def test_metric_state_profiles_are_readonly_copies():
    g = PeriodicGrid(8)
    a = np.full(8, 2.0)
    st = MetricState(g, 0.0, 1.0, (a, 3, 4.0))
    a[0] = 5.0
    assert st.a[0] == 2.0
    for values in (st.a, st.b, st.c):
        assert values.dtype == np.float64 and values.shape == (8,)
        with pytest.raises(ValueError):
            values[0] = 2.0
    assert np.array_equal(st.b, np.full(8, 3.0))
    assert type(st.phi) is float and st.phi == 1.0
    assert type(MetricState(g, 0.0, np.float64(2.5), (a, 3, 4.0)).phi) is float


def test_metric_state_rejects_wrong_length():
    g = PeriodicGrid(8)
    with pytest.raises(ValueError):
        MetricState(g, 0.0, 1.0, (np.ones(16), 1.0, 1.0))
    with pytest.raises(ValueError):
        MetricState(g, 0.0, np.ones((2, 8)), (1.0, 1.0, 1.0))


def test_metric_state_holds_the_radii_as_one_array():
    g = PeriodicGrid(8)
    st = MetricState(g, 0.0, 1.0, (np.full(8, 2.0), 3, 4.0))
    assert st.x.dtype == np.float64 and st.x.shape == (3, 8)
    with pytest.raises(ValueError, match="read-only"):
        st.x[0, 0] = 5.0
    for k, row in enumerate((st.a, st.b, st.c)):
        assert np.shares_memory(row, st.x) and np.array_equal(row, st.x[k])
    copy = MetricState(g, 0.0, 1.0, st.x)
    assert np.array_equal(copy.x, st.x) and not np.shares_memory(copy.x, st.x)
    for radii in (st.x[:2], [2.0, 3.0], 2.0):
        with pytest.raises(DataError, match="three radii"):
            MetricState(g, 0.0, 1.0, radii)


def test_grid_errors_are_data_errors():
    # every input check raises DataError itself: the package has one error class
    assert DataError.__subclasses__() == []
    assert issubclass(DataError, ValueError)


def test_grid_rejects_sizes_beyond_any_jet():
    # n up to sys.maxsize // 72 keeps a (3, 3, n) float64 jet indexable;
    # the grid itself allocates nothing
    largest = sys.maxsize // 72 // 2 * 2
    assert PeriodicGrid(largest).n == largest
    with pytest.raises(DataError, match="grid size must be at most"):
        PeriodicGrid(largest + 2)


def test_metric_state_rejects_a_gauge_too_large_to_square():
    g = PeriodicGrid(8)
    limit = sys.float_info.max**0.5
    assert MetricState(g, 0.0, limit, (1.0, 1.0, 1.0)).phi == limit
    with pytest.raises(DataError, match="phi must be at most 1.341e"):
        MetricState(g, 0.0, np.nextafter(limit, np.inf), (1.0, 1.0, 1.0))


def test_metric_state_rejects_a_gauge_whose_square_is_subnormal():
    g = PeriodicGrid(8)
    limit = sys.float_info.min**0.5
    assert MetricState(g, 0.0, limit, (1.0, 1.0, 1.0)).phi == limit
    with pytest.raises(DataError, match="phi must be at least 1.492e-154"):
        MetricState(g, 0.0, np.nextafter(limit, 0.0), (1.0, 1.0, 1.0))


@pytest.mark.parametrize("n", [8, 10, 34, 64, 256, 1024, 9, 33])
def test_transforms_are_numpy_fft_bit_for_bit(n):
    # grid.rfft and grid.irfft call numpy.fft's own kernels without its
    # dispatch: the same values, dtype and shape on every leading shape, on
    # strided views such as a jet's rows jet[:, 1], and on odd rows, where
    # the even-length kernel returns wrong values without raising
    rng = np.random.default_rng(n)
    m = n // 2 + 1
    full = rng.normal(size=(4, 3, 2 * n))
    spectra = rng.normal(size=(4, 3, 2 * m)) + 1j * rng.normal(size=(4, 3, 2 * m))
    rows = [full[0, 0, :n].copy(), full[0, :, :n].copy(), full[:3, :, :n].copy(),
            full[..., :n].copy(), full[:, 1, :n], full[..., ::2], full[0, :, n:]]
    coeffs = [spectra[0, 0, :m].copy(), spectra[0, :, :m].copy(), spectra[:3, :, :m].copy(),
              spectra[..., :m].copy(), spectra[:, 1, :m], spectra[..., ::2][..., :m],
              np.fft.rfft(full[:3, :, :n])]
    for x, u in zip(rows, coeffs):
        got, want = rfft(x), np.fft.rfft(x)
        assert got.dtype == want.dtype and np.array_equal(got, want), x.shape
        got, want = irfft(u, n), np.fft.irfft(u, n)
        assert got.dtype == want.dtype and np.array_equal(got, want), u.shape


def dz(values):
    """D1 of the rows of values by the transform: row 1 of their z-jet."""
    return z_jet(np.fft.rfft(values), 1.0)[1]


def test_dz_annihilates_constants_exactly():
    g = PeriodicGrid(32)
    constant = np.stack([np.full(g.n, r) for r in (1.0, 2.0, 3.7)])
    zj = z_jet(np.fft.rfft(constant), 1.0)
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
def test_z_jet_stacked_rows_bitwise(lead):
    g = PeriodicGrid(32)
    rng = np.random.default_rng(7)
    values = rng.normal(size=lead + (g.n,)) + np.cos(g.z)
    u = np.fft.rfft(values)
    phi = 1.7
    got = z_jet(u, phi)
    assert got.shape == (3,) + values.shape
    rows = values.reshape(-1, g.n)
    want = np.stack([z_jet(np.fft.rfft(row), phi) for row in rows], axis=1)
    assert np.array_equal(got, want.reshape(got.shape))
    # the gauge divides rows 1 and 2 of the z-jet by phi and phi^2, bitwise,
    # leaves row 0 as it is, and keeps the exact zeros of constant rows
    zj = z_jet(u, 1.0)
    assert np.array_equal(got[0], zj[0])
    assert np.array_equal(got[1], zj[1] / phi)
    assert np.array_equal(got[2], zj[2] / (phi * phi))
    constant = z_jet(np.fft.rfft(np.full(lead + (g.n,), 2.5)), phi)
    assert not constant[1:].any()


@pytest.mark.parametrize("n", [8, 10, 34, 66])
def test_z_jet_reads_n_from_the_spectrum(n):
    # m modes are n = 2 (m - 1) points, numpy.fft.irfft's default; n = 2
    # (mod 4) included
    x = np.random.default_rng(n).normal(size=(3, n)) + np.cos(PeriodicGrid(n).z)
    u, phi = np.fft.rfft(x), 1.7
    jet = z_jet(u, phi)
    assert jet.shape == (3, 3, n)
    want = np.fft.irfft(u[np.newaxis] * _jet_symbol(n)[:, np.newaxis], n)
    want[1] /= phi
    want[2] /= phi * phi
    assert jet.tobytes() == want.tobytes()


@pytest.mark.parametrize("phi", [1e-100, 1.0, 1e100])
@pytest.mark.parametrize("u", [
    np.array([[1.5], [2.5], [3.5]]),
    np.array([[1.5 - 2.0j], [-2.5 + 0.5j], [3.5 + 1e-300j]]),
], ids=["real", "complex"])
def test_z_jet_on_one_point_is_the_real_part_and_zeros(u, phi):
    # the rfft of z-constant rows holds their one point's value, times n, in
    # the mean mode alone: on a power of two n the irfft divides it by n
    # exactly and drops its imaginary part, and S's rows 1 and 2 vanish there
    # (zeros of either sign), at any phi
    n = 16
    spectrum = np.zeros((3, n // 2 + 1), complex)
    spectrum[:, :1] = n * u
    jet = z_jet(spectrum, phi)
    assert jet.shape == (3, 3, n) and jet.dtype == np.float64
    assert jet[0].tobytes() == np.repeat(u.real, n, axis=1).tobytes()
    assert not jet[1:].any()


@pytest.mark.parametrize("n", [8, 16, 64, 1024, 2**16])
def test_jet_symbol_vanishes_only_at_zero_and_nyquist(n):
    # rows 1 and 2 are exact zeros at k = 0 and at the Nyquist mode, where
    # sin(pi) would leave about 1e-16; every other |sigma| / 2 = s^2 / 2 of
    # the diffusion symbol is at least 0.48, so rk4_step's integrating factor
    # exp(L dt / 2) is 1 on those two modes alone
    symbol = _jet_symbol(n)
    for k in (0, n // 2):
        assert symbol[1, k] == 0.0 and symbol[2, k] == 0.0
    half = np.abs(symbol[2, 1:-1].real) / 2.0
    assert half.min() >= 0.48


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
            for row, stencil_row, scale in zip(z_jet(np.fft.rfft(x), 1.0), stencil, scales):
                gap = np.max(np.abs(row - stencil_row))
                assert gap <= 1e-14 * scale * np.max(np.abs(x)), (n, name)


def test_arclength_jet_matches_s_derivatives():
    # the same bound for the arclength derivatives of a MetricState, whose
    # jet divides the stencil's rows by phi and phi^2
    g = PeriodicGrid(64)
    phi = 1.3
    x = np.stack([np.cos(g.z) + 1.5, np.sin(2 * g.z) + 2.5, np.cos(3 * g.z) + 3.5])
    scales = np.abs(_jet_symbol(g.n)).max(axis=-1) * np.max(np.abs(x))
    _, xp, xpp = arclength_jet(MetricState(g, 0.0, phi, x))
    for row, d1, d2 in zip(x, xp, xpp):
        gap1 = np.max(np.abs(d1 - s_derivative(row, phi, g.dz)))
        gap2 = np.max(np.abs(d2 - s_second_derivative(row, phi, g.dz)))
        assert gap1 <= 1e-14 * scales[1] / phi
        assert gap2 <= 1e-14 * scales[2] / phi**2


def test_s_derivative_identity_gauge_is_bitwise_dz():
    g = PeriodicGrid(64)
    f = np.sin(g.z) + 0.25 * np.cos(3 * g.z)
    assert np.array_equal(s_derivative(f, 1.0, g.dz), dz_stencil(f, g.dz))


def test_s_derivative_constant_gauge_rescales():
    g = PeriodicGrid(64)
    got = s_derivative(np.sin(g.z), 2.0, g.dz)
    assert np.max(np.abs(got - 0.5 * np.cos(g.z))) <= g.dz**4


def test_s_derivative_variable_gauge():
    # phi0 = 2 + cos z enters as samples, and Preset.build moves the nodes to
    # the roots z_j' of s(z) = 2 z + sin z = 2 z_j: there the jet of the
    # resampled a = 1.5 + sin z converges at the stencil order to the
    # arclength derivative cos z / phi0
    errors = []
    for n in (64, 128, 256):
        g = PeriodicGrid(n)
        phi0 = Profile(kind="samples", samples=tuple(2.0 + np.cos(g.z)))
        state = Preset("wavy-gauge", phi0, sin(1.0, 1.5), const(2.0), const(3.0)).build(g)
        nodes = np.array(
            [brentq(lambda z, s=s: 2.0 * z + np.sin(z) - s, -1.0, 7.0, xtol=1e-15)
             for s in 2.0 * g.z]
        )
        assert state.phi == 2.0
        np.testing.assert_allclose(state.a, 1.5 + np.sin(nodes), rtol=0.0, atol=1e-13)
        got = arclength_jet(state)[1, 0]
        errors.append(np.max(np.abs(got - np.cos(nodes) / (2.0 + np.cos(nodes)))))
    assert errors[0] <= 1e-3
    for e0, e1 in zip(errors, errors[1:]):
        assert np.log2(e0 / e1) >= 3.5


def test_s_derivative_rejects_nonpositive_gauge():
    g = PeriodicGrid(16)
    f = np.ones(g.n)
    with pytest.raises(DataError, match="phi must be strictly positive"):
        s_derivative(f, 0.0, g.dz)
    with pytest.raises(DataError, match="phi must be strictly positive"):
        s_derivative(f, -1.0, g.dz)


def test_s_second_derivative_flat_gauge():
    g = PeriodicGrid(64)
    got = s_second_derivative(np.sin(g.z), 1.0, g.dz)
    assert np.max(np.abs(got + np.sin(g.z))) <= 1e-4


def test_s_second_derivative_constant_is_zero():
    g = PeriodicGrid(32)
    got = s_second_derivative(np.full(g.n, 2.5), 1.7, g.dz)
    assert np.all(got == 0.0)


def test_s_second_derivative_shifted_cos():
    g = PeriodicGrid(64)
    got = s_second_derivative(np.cos(g.z) + 1.5, 1.0, g.dz)
    assert np.max(np.abs(got + np.cos(g.z))) <= 1e-4


def test_metric_state_validates_positivity():
    g = PeriodicGrid(16)
    with pytest.raises(DataError, match="profile a must be strictly positive"):
        MetricState(g, 0.0, 1.0, (-1.0, 2.0, 3.0))
    with pytest.raises(DataError, match="phi must be strictly positive"):
        MetricState(g, 0.0, 0.0, (1.0, 2.0, 3.0))
