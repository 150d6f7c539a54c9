import numpy as np
import pytest

from neckpinch.curvature import riemann_oracle, sectional_curvatures, sectional_rows
from neckpinch.flow import summarize_state
from neckpinch.grid import (
    DataError,
    MetricState,
    PeriodicGrid,
    arclength_jet,
    z_jet,
)
from neckpinch.presets import get_preset

from reference import (
    _levi_civita,
    _metric_diagonal,
    frame_symbol_oracle,
    riemann_tensor_from_frame_symbols,
    scalar_curvature,
)


def round_state(r=1.0, phi=1.0, n=32):
    return MetricState(PeriodicGrid(n), 0.0, phi, (r, r, r))


def wavy_state(n=64):
    g = PeriodicGrid(n)
    z = g.z
    # a gauge phi = 2 away from 1 exercises the g^00 and 1/phi scalings; the
    # oracle's g^00 dz(g00) terms are exactly 0 on the uniform gauge
    return MetricState(g, 0.0, 2.0, (np.cos(z) + 1.5, 0.5 * np.sin(z) + 2.5, np.cos(2 * z) + 3.5))


# --- fiber sectional curvatures -------------------------------------------


def fiber_rows(state):
    """The (Khat12, Khat13, Khat23) rows that sectional_rows returns."""
    return sectional_rows(*arclength_jet(state))[1]


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_fiber_round_is_inverse_square(r):
    khat12, khat13, khat23 = fiber_rows(round_state(r))
    for k in (khat12, khat13, khat23):
        assert np.allclose(k, 1.0 / r**2, rtol=1e-13)


def test_fiber_biaxial_hand_values():
    # a=1, b=c=2: Khat23 = (0-3)/16 + 1/2 + 1/2 = 13/16,
    #             Khat12 = Khat13 = (9-48)/16 + 2 + 1/2 = 1/16
    st = MetricState(PeriodicGrid(16), 0.0, 1.0, (1.0, 2.0, 2.0))
    khat12, khat13, khat23 = fiber_rows(st)
    assert np.allclose(khat23, 13.0 / 16.0, rtol=1e-14)
    assert np.allclose(khat12, 1.0 / 16.0, rtol=1e-13)
    assert np.allclose(khat13, 1.0 / 16.0, rtol=1e-13)


def test_fiber_scaling_homogeneity():
    g = PeriodicGrid(16)
    base = MetricState(g, 0.0, 1.0, (1.0, 2.0, 3.0))
    lam = 2.5
    scaled = MetricState(g, 0.0, 1.0, (lam * 1.0, lam * 2.0, lam * 3.0))
    for kb, ks in zip(fiber_rows(base), fiber_rows(scaled)):
        assert np.allclose(ks, kb / lam**2, rtol=1e-12)


def test_fiber_permutation_symmetry():
    g = PeriodicGrid(16)
    k12 = fiber_rows(MetricState(g, 0.0, 1.0, (1.0, 2.0, 3.0)))[0]
    k13 = fiber_rows(MetricState(g, 0.0, 1.0, (1.0, 3.0, 2.0)))[1]
    k23 = fiber_rows(MetricState(g, 0.0, 1.0, (3.0, 1.0, 2.0)))[2]
    assert np.allclose(k12, k13, rtol=1e-14)
    assert np.allclose(k12, k23, rtol=1e-14)


def test_degenerate_fiber_raises():
    st = MetricState(PeriodicGrid(16), 0.0, 1.0, (1e-9, 1.0, 1.0))
    with pytest.raises(DataError, match="fiber radius 1.000e-09 below resolvable floor"):
        sectional_curvatures(st)


def test_overflowing_curvature_raises_nonfinite():
    # b^2 and (a^2 - b^2)^2 overflow, so both paths produce inf or NaN
    st = MetricState(PeriodicGrid(16), 0.0, 1.0, (1.0, 1e200, 1.0))
    for curvature in (sectional_curvatures, riemann_oracle):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DataError, match="curvature is not finite everywhere"):
                curvature(st)


# --- closed-form sectional curvatures --------------------------------------


@pytest.mark.parametrize("r", [1.0, 2.0])
def test_round_state_curvature(r):
    curv = sectional_curvatures(round_state(r))
    for k0 in (curv.k01, curv.k02, curv.k03):
        assert np.all(k0 == 0.0)
    for kf in (curv.k12, curv.k13, curv.k23):
        assert np.allclose(kf, 1.0 / r**2, rtol=1e-13)
    assert np.allclose(curv.scal, 6.0 / r**2, rtol=1e-13)
    assert np.allclose(curv.rm_norm_sq, 6.0 / r**4, rtol=1e-13)
    assert np.all(curv.ric00 == 0.0)
    for ric in (curv.ric11, curv.ric22, curv.ric33):
        assert np.allclose(ric, 2.0, rtol=1e-13)


def test_k01_matches_analytic_neck():
    g = PeriodicGrid(64)
    st = MetricState(g, 0.0, 1.0, (np.cos(g.z) + 1.5, 2.5, 3.5))
    curv = sectional_curvatures(st)
    expected = np.cos(g.z) / (np.cos(g.z) + 1.5)
    assert np.max(np.abs(curv.k01 - expected)) <= 1e-4


def test_constant_state_curvature_is_homogeneous():
    curv = sectional_curvatures(MetricState(PeriodicGrid(32), 0.0, 2.0, (1.0, 2.0, 3.0)))
    for f in curv.sectional():
        assert np.ptp(f) == 0.0


def test_trace_identities_bitwise():
    curv = sectional_curvatures(wavy_state())
    ks = curv.sectional()
    assert np.array_equal(curv.scal, 2.0 * (ks[0] + ks[1] + ks[2] + ks[3] + ks[4] + ks[5]))
    assert np.array_equal(
        curv.rm_norm_sq,
        2.0 * (ks[0] ** 2 + ks[1] ** 2 + ks[2] ** 2 + ks[3] ** 2 + ks[4] ** 2 + ks[5] ** 2),
    )


@pytest.mark.parametrize("preset", ["fig-a", "fig-b", "mild", "sphere"])
def test_curvature_and_summary_read_one_jet(preset):
    # on a uniform phi the state's arclength jet is the one evolve holds, so
    # sectional_curvatures gives the summary's s_min and rm_max bit for bit
    st = get_preset(preset).build(PeriodicGrid(64))
    jet = arclength_jet(st)
    assert np.array_equal(jet, z_jet(np.fft.rfft(st.x), st.phi))
    curv = sectional_curvatures(st)
    record = summarize_state([st.t], [0.0], jet[np.newaxis])[0]
    assert repr(curv.scal.min()) == repr(record["s_min"])
    assert repr(np.sqrt(curv.rm_norm_sq).max()) == repr(record["rm_max"])


def test_ric00_equals_sum_of_k0i():
    curv = sectional_curvatures(wavy_state())
    assert np.allclose(
        curv.ric00,
        curv.k01 + curv.k02 + curv.k03,
        rtol=1e-13,
        atol=1e-13,
    )


def test_biaxial_symmetry_is_exact():
    g = PeriodicGrid(64)
    b = np.cos(g.z) + 2.5
    st = MetricState(g, 0.0, 1.0, (np.cos(g.z) + 1.5, b, b))
    curv = sectional_curvatures(st)
    assert np.array_equal(curv.k02, curv.k03)
    assert np.array_equal(curv.k12, curv.k13)


# --- scalar curvature -------------------------------------------------------


@pytest.mark.parametrize("r", [1.0, 2.0])
def test_scalar_curvature_round(r):
    s = scalar_curvature(round_state(r))
    assert np.allclose(s, 6.0 / r**2, rtol=1e-13)


def test_scalar_curvature_equal_radii_reduction():
    g = PeriodicGrid(128)
    a = np.cos(g.z) + 1.5
    st = MetricState(g, 0.0, 1.0, (a, a, a))
    s = scalar_curvature(st)
    # with a = b = c: S = 2(-3a''/a - 3(a')^2/a^2 + 3/a^2), a'' = -cos z
    expected = 2.0 * (3 * np.cos(g.z) / a - 3 * np.sin(g.z) ** 2 / a**2 + 3.0 / a**2)
    assert np.max(np.abs(s - expected)) <= 1e-4


def test_scalar_curvature_agrees_with_trace_assembly():
    st = wavy_state()
    direct = scalar_curvature(st)
    traced = sectional_curvatures(st).scal
    assert np.allclose(direct, traced, rtol=1e-12, atol=1e-12)


# --- frame symbols -----------------------------------------------------------


def test_frame_symbols_round_unit():
    syms = frame_symbol_oracle(round_state(1.0))
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                expected = -_levi_civita(i, j, k) if len({i, j, k}) == 3 else 0.0
                assert np.allclose(syms.sigma[i, j, k], expected, atol=1e-14)
    # all derivative-driven symbols vanish on constant profiles
    assert np.all(syms.sigma[0, 0, 0] == 0.0)
    for i in (1, 2, 3):
        assert np.all(syms.sigma[i, 0, i] == 0.0)
        assert np.all(syms.sigma[i, i, 0] == 0.0)


def test_frame_symbols_two_zero_indices_vanish():
    syms = frame_symbol_oracle(wavy_state())
    for i in (1, 2, 3):
        assert np.all(syms.sigma[0, i, 0] == 0.0)  # Sigma^0_{0i}
        assert np.all(syms.sigma[i, 0, 0] == 0.0)  # Sigma^0_{i0}
        assert np.all(syms.sigma[0, 0, i] == 0.0)  # Sigma^i_{00}


def test_frame_symbols_bracket_relation():
    # Sigma^k_ij - Sigma^k_ji = -2 eps_ijk: the torsion-free statement for a
    # frame with [E_i, E_j] = -2 eps_ijk E_k. (Not antisymmetry, which only
    # holds when g_ii = g_jj.)
    syms = frame_symbol_oracle(wavy_state())
    from itertools import permutations

    for i, j, k in permutations((1, 2, 3)):
        diff = syms.sigma[i, j, k] - syms.sigma[j, i, k]
        assert np.allclose(diff, -2.0 * _levi_civita(i, j, k), atol=1e-12)


def test_frame_symbols_biaxial_round_value():
    st = round_state(1.3)
    syms = frame_symbol_oracle(st)
    assert np.allclose(syms.sigma[2, 3, 1], -1.0, rtol=1e-14)


# --- Riemann oracle ----------------------------------------------------------


def test_riemann_oracle_round():
    orc = riemann_oracle(round_state(2.0))
    assert orc.shape == (6, 32)
    for k0 in orc[:3]:
        assert np.all(k0 == 0.0)
    for kf in orc[3:]:
        assert np.allclose(kf, 0.25, rtol=1e-13)


def test_oracle_matches_closed_form_under_refinement():
    errs = []
    for n in (32, 64, 128):
        st = wavy_state(n)
        cf = sectional_curvatures(st)
        orc = riemann_oracle(st)
        errs.append(
            max(
                float(np.max(np.abs(a - b)))
                for a, b in zip(cf.sectional(), orc)
            )
        )
    for e0, e1 in zip(errs, errs[1:]):
        assert np.log2(e0 / e1) >= 3.5


def test_full_frame_symbol_assembly_agrees():
    st = wavy_state(128)
    rm = riemann_tensor_from_frame_symbols(st)
    g = _metric_diagonal(st)
    cf = sectional_curvatures(st)
    for (al, be), name in [
        ((0, 1), "k01"),
        ((0, 2), "k02"),
        ((0, 3), "k03"),
        ((1, 2), "k12"),
        ((1, 3), "k13"),
        ((2, 3), "k23"),
    ]:
        assembled = rm[be, al, al, be] / (g[al] * g[be])
        assert np.max(np.abs(assembled - getattr(cf, name))) <= 2e-3


def test_assembly_structural_zeros():
    rm = riemann_tensor_from_frame_symbols(wavy_state())
    assert np.all(rm[0, 0, 0, 0] == 0.0)
    for i in (1, 2, 3):
        assert np.all(rm[0, 0, 0, i] == 0.0)
        for j in (1, 2, 3):
            if i != j:
                assert np.all(rm[i, 0, 0, j] == 0.0)  # Rm_i00j = 0
                k = 6 - i - j
                assert np.all(rm[i, j, j, k] == 0.0)  # Rm_ijjk = 0
                assert np.all(rm[i, j, j, 0] == 0.0)  # Rm_ijj0 = 0


def test_assembly_pair_symmetry():
    st = wavy_state(128)
    rm = riemann_tensor_from_frame_symbols(st)
    for i in (1, 2, 3):
        assert np.allclose(rm[0, i, i, 0], rm[i, 0, 0, i], atol=2e-3)


def test_oracle_homogeneity():
    g = PeriodicGrid(32)
    base = MetricState(g, 0.0, 1.5, (1.0, 2.0, 3.0))
    lam = 2.0
    scaled = MetricState(g, 0.0, 1.5, (lam, 2 * lam, 3 * lam))
    kb = riemann_oracle(base)
    ks = riemann_oracle(scaled)
    for row in range(6):
        assert np.allclose(ks[row], kb[row] / lam**2, atol=1e-13)
