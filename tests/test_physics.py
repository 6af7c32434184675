"""Laboratory-to-model parameter mapping and the momentum spectrum."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incewave.eigensolver import Tier, eigen_decompose
from incewave.errors import (AmbiguousInputError, InvalidArgumentError,
                             NotUnderdenseError)
from incewave.ince_matrix import build_even_matrix, build_odd_matrix
from incewave.physics import (PHatKind, coupling_forms, density_from_plasma_energy,
                              derive_config, mass_shift, momentum_spectrum,
                              plasma_energy_from_density, whittaker_hill_params)


def test_plasmon_energy_density_anchor():
    n_e = density_from_plasma_energy(1.0)
    assert n_e == pytest.approx(7.242e20, rel=5e-3)


def test_lambda_p_anchor():
    cfg = derive_config(1.563, plasma_energy_ev=1.0, intensity_wcm2=0.0)
    assert cfg.lambda_p_nm == pytest.approx(1240.0, rel=5e-3)


def test_density_round_trip():
    for ne in (1e18, 7.242e20, 3.3e22):
        assert density_from_plasma_energy(plasma_energy_from_density(ne)) == \
            pytest.approx(ne, rel=1e-10)


def test_mu0_high_intensity_anchor():
    cfg = derive_config(1.563, plasma_energy_ev=1.0, intensity_wcm2=6e20)
    assert cfg.mu0 == pytest.approx(16.61, abs=0.1)
    assert cfg.mu0_handbook == pytest.approx(16.61, abs=0.1)
    assert cfg.a == pytest.approx(3.3e7, rel=0.03)
    assert cfg.a_handbook == pytest.approx(3.3e7, rel=0.03)


def test_moderate_intensity_anchor():
    cfg = derive_config(1.563, plasma_energy_ev=1.0, intensity_wcm2=1e8)
    assert cfg.mu0_handbook == pytest.approx(6.782e-6, rel=1e-3)
    assert 13.3 <= cfg.a <= 13.9
    assert 13.3 <= cfg.a_handbook <= 13.9


def test_zero_intensity_zero_coupling():
    cfg = derive_config(1.563, plasma_energy_ev=1.0, intensity_wcm2=0.0)
    assert cfg.a == 0.0 and cfg.a_handbook == 0.0
    assert cfg.mu0 == 0.0
    assert cfg.mass_shift_ratio == 1.0


def test_not_underdense():
    with pytest.raises(NotUnderdenseError):
        derive_config(1.0, plasma_energy_ev=1.5, intensity_wcm2=1.0)
    with pytest.raises(NotUnderdenseError):
        derive_config(1.0, plasma_energy_ev=1.0, intensity_wcm2=1.0)


def test_ambiguous_and_invalid_inputs():
    with pytest.raises(AmbiguousInputError):
        derive_config(1.5, plasma_energy_ev=1.0, electron_density_cm3=1e20)
    with pytest.raises(AmbiguousInputError):
        derive_config(1.5)
    with pytest.raises(InvalidArgumentError):
        derive_config(-1.0, plasma_energy_ev=0.5)
    with pytest.raises(InvalidArgumentError):
        derive_config(1.5, plasma_energy_ev=1.0, intensity_wcm2=-5.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["photon_energy_ev", "plasma_energy_ev",
                                   "electron_density_cm3", "intensity_wcm2"])
def test_non_finite_inputs_rejected(field, bad):
    kwargs = {"photon_energy_ev": 1.563, "intensity_wcm2": 1e8}
    kwargs["electron_density_cm3" if field == "electron_density_cm3" else "plasma_energy_ev"] = 1.0
    kwargs[field] = bad
    with pytest.raises(InvalidArgumentError, match=field):
        derive_config(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"photon_energy_ev": 2.0, "plasma_energy_ev": 1.0, "intensity_wcm2": 1e308},
    {"photon_energy_ev": 1e300, "plasma_energy_ev": 1.0, "intensity_wcm2": 1e300},
    {"photon_energy_ev": 1e200, "plasma_energy_ev": 1e160},
    {"photon_energy_ev": 1e10, "electron_density_cm3": 1e-300},
])
def test_non_finite_derived_values_rejected(kwargs):
    # finite inputs whose derived values overflow (or whose plasmon energy
    # underflows to 0) must not reach the report as inf or NaN
    with pytest.raises(InvalidArgumentError):
        derive_config(**kwargs)


def test_dispersion_identities():
    cfg = derive_config(1.563, plasma_energy_ev=1.0, intensity_wcm2=1e8)
    # k_p = k_0 sqrt(1 - n_m^2)
    assert cfg.kp_cm == pytest.approx(cfg.k0_cm * math.sqrt(1 - cfg.n_m**2), rel=1e-12)
    # w0^2 n_m^2 = w0^2 - wp^2 in energy units
    lhs = (cfg.photon_energy_ev * cfg.n_m) ** 2
    rhs = cfg.photon_energy_ev**2 - cfg.plasma_energy_ev**2
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_all_coupling_forms_agree():
    for s, eph, ep in [(1e8, 1.563, 1.0), (6e20, 1.563, 1.0), (3e12, 2.5, 0.03)]:
        cfg = derive_config(eph, plasma_energy_ev=ep, intensity_wcm2=s)
        forms = coupling_forms(cfg)
        base = forms[0]
        for f in forms[1:]:
            assert f == pytest.approx(base, rel=1e-10)
        assert cfg.a == pytest.approx(base, rel=1e-12)


def test_handbook_invariant():
    cfg = derive_config(1.563, plasma_energy_ev=1.0, intensity_wcm2=1e8)
    assert cfg.a_handbook == 2.0 * cfg.mu0_handbook * (2.0 * 510998.95 / cfg.plasma_energy_ev)


def test_mass_shift_values():
    assert mass_shift(0.0) == 1.0
    assert mass_shift(1.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert mass_shift(16.61) == pytest.approx(math.hypot(1, 16.61), rel=1e-15)
    with pytest.raises(InvalidArgumentError):
        mass_shift(-0.5)


@given(mu=st.floats(0.0, 1e6))
@settings(max_examples=50)
def test_mass_shift_monotone(mu):
    assert mass_shift(mu) >= 1.0
    assert mass_shift(mu + 1.0) > mass_shift(mu)


def test_whittaker_hill_identities():
    cfg = derive_config(1.563, plasma_energy_ev=1.0, intensity_wcm2=1e8)
    a = cfg.a
    for px, pz, ph in [(30.0, 0.0, 0.0), (31.0, 2.0, 5.0), (0.0, 0.0, 0.0)]:
        th0, th1, th2, g1 = whittaker_hill_params(cfg, px, pz, ph)
        assert 4.0 * math.sqrt(th2) == pytest.approx(a, rel=1e-12)
        assert 2.0 * abs(g1) == pytest.approx(a, rel=1e-12)
        eta = ph**2 + px**2 + pz**2 + cfg.kappa_scaled**2 + (a / 2) ** 2
        assert th0 + 2 * th2 == pytest.approx(eta, rel=1e-12)
        # electron positive-energy branch: cos coefficient is -(q+1) a / 2
        assert th1 == pytest.approx(-0.5 * px * a, rel=1e-12)


@pytest.fixture(scope="module")
def sol_n15():
    return eigen_decompose(build_even_matrix(15, 12.0), Tier.EXTENDED)


def test_gap_threshold_and_classification(sol_n15):
    recs = momentum_spectrum(sol_n15)
    assert len(recs) == 30
    for rec in recs:
        assert rec.gap == (rec.eta < 36.0)  # a^2/4 with a = 12
        if not rec.gap:
            assert rec.p_xi_scaled == pytest.approx(math.sqrt(rec.eta - 36.0), rel=1e-14)
        else:
            assert rec.p_xi_scaled is None
    # descending eta order preserved
    assert [r.k for r in recs] == list(range(1, 31))


def test_p_xi_boundary_exact():
    # eta == a^2/4 must give exactly zero: the odd n=0 matrix with a=2 has
    # eta = 1 = a^2/4
    sol = eigen_decompose(build_odd_matrix(0, 2.0))
    rec = momentum_spectrum(sol)[0]
    assert not rec.gap
    assert rec.p_xi_scaled == 0.0


def test_p_xi_figure_value(sol_n15):
    rec = momentum_spectrum(sol_n15)[4]  # k = 5
    assert rec.eta == pytest.approx(718.0928584847421, abs=1e-10)
    assert rec.p_xi_scaled == pytest.approx(math.sqrt(718.0928584847421 - 36.0), abs=1e-12)
    assert rec.p_xi_scaled == pytest.approx(26.116907521464751, abs=1e-9)


def test_p_hat_radicand_and_flags(sol_n15):
    k_big = 2 * 15  # q + 1 for the even family
    recs = momentum_spectrum(sol_n15, pz_scaled=0.0, kappa_scaled=0.0)
    for rec in recs:
        expect = rec.eta - k_big**2 - 36.0
        assert rec.p_hat_sq_scaled == pytest.approx(expect, rel=1e-12, abs=1e-12)
        if expect >= 0:
            assert rec.p_hat_kind is PHatKind.PROPAGATING
            assert rec.p_hat == pytest.approx(math.sqrt(expect), rel=1e-12)
        else:
            assert rec.p_hat_kind is PHatKind.EVANESCENT
    with pytest.raises(InvalidArgumentError):
        momentum_spectrum(sol_n15, kappa_scaled=-1.0)


def test_gap_monotone_threshold(sol_n15):
    recs = momentum_spectrum(sol_n15)
    flags = [r.gap for r in recs]  # descending eta
    assert flags == sorted(flags)  # gap turns on once and stays on
    # 23 of the 30 eigenvalues sit above the a^2/4 = 36 threshold
    assert sum(not f for f in flags) == 23
