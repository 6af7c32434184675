"""Prefactor, Bessel series, and assembled scalar wavefunctions."""

import math

import numpy as np
import pytest

from incewave.eigensolver import eigen_decompose
from incewave.errors import (EvanescentSolutionError, InvalidArgumentError,
                             InvalidConfigError)
from incewave.ince_matrix import Parity, build_even_matrix, build_matrix, build_odd_matrix
from incewave.physics import PHatKind, momentum_spectrum
from incewave.polynomials import Branch, evaluate, make_polynomial
from incewave.wavefunction import (ScalarSolution, SpinorSlot, polynomial_with_prefactor,
                                   prefactor, prefactor_series, prefactor_series_sum,
                                   scalar_wavefunction, series_truncation_order,
                                   x_hat)


def test_prefactor_values():
    assert prefactor(12.0, np.pi) == pytest.approx(math.exp(3.0), rel=1e-15)
    assert prefactor(7.0, np.pi / 2) == pytest.approx(1.0, rel=1e-15)
    assert prefactor(12.0, 0.0) == pytest.approx(math.exp(-3.0), rel=1e-15)


def test_prefactor_positive_and_max():
    xs = np.linspace(-10, 10, 1001)
    vals = prefactor(9.0, xs)
    assert np.all(vals > 0)
    assert np.max(vals) <= math.exp(9.0 / 4) * (1 + 1e-12)


def test_series_a0():
    coeffs = prefactor_series(0.0, 6)
    np.testing.assert_array_equal(coeffs, [1, 0, 0, 0, 0, 0, 0])


def test_series_reproduces_prefactor():
    a = 12.0
    lmax = series_truncation_order(a)
    coeffs = prefactor_series(a, lmax)
    for xi in (0.0, 1.0, np.pi, 4.0):
        assert prefactor_series_sum(coeffs, xi) == \
            pytest.approx(prefactor(a, xi), abs=1e-10 * math.exp(a / 4))


def test_series_error_decreases_past_truncation():
    a = 12.0
    lmax = series_truncation_order(a)
    xs = np.linspace(-2 * np.pi, 2 * np.pi, 301)
    direct = prefactor(a, xs)
    errs = []
    for l in (3, 6, 9, lmax):
        coeffs = prefactor_series(a, l)
        errs.append(np.max(np.abs(prefactor_series_sum(coeffs, xs) - direct)))
    assert errs[0] > errs[1] > errs[2]
    assert errs[3] <= 1e-10 * math.exp(a / 4)


def test_series_negative_lmax_rejected():
    with pytest.raises(InvalidArgumentError):
        prefactor_series(1.0, -1)


def test_prefactor_overflow_raises():
    # e^(a/4) at xi = pi: e^700 is a finite float, e^1250 is not
    assert prefactor(2800.0, np.pi) == pytest.approx(math.exp(700.0), rel=1e-13)
    with pytest.raises(InvalidArgumentError, match="overflows"):
        prefactor(5000.0, np.pi)
    with pytest.raises(InvalidArgumentError, match="overflows"):
        prefactor(5000.0, np.array([0.0, 3.0, np.pi]))
    assert np.all(np.isfinite(prefactor(5000.0, np.array([0.0, 1.0]))))


def test_scalar_wavefunction_inherits_prefactor_check():
    s = _scalar(a=5000.0)
    with pytest.raises(InvalidArgumentError, match="overflows"):
        scalar_wavefunction(s, np.pi * math.sqrt(1 - s.n_m**2), 0.0, 0.0, 0.0)


def test_overflowing_product_with_polynomial_raises():
    # e^709.75 is finite, but |f(pi)| = 2.0 for this label of even n=3, a=2839
    sol = eigen_decompose(build_even_matrix(3, 2839.0))
    k = int(np.argmin(np.abs(sol.eigenvalues + 14189.0))) + 1
    poly = make_polynomial(sol, k)
    assert np.isfinite(prefactor(2839.0, np.pi))
    with pytest.raises(InvalidArgumentError, match="overflows"):
        polynomial_with_prefactor(poly, np.pi)
    s = ScalarSolution(poly, SpinorSlot.S12, 0.0, 0.0, 0.6)
    with pytest.raises(InvalidArgumentError, match="overflows"):
        scalar_wavefunction(s, np.pi * 0.8, 0.0, 0.0, 0.0)
    xs = np.array([0.0, 1.0])
    np.testing.assert_array_equal(polynomial_with_prefactor(poly, xs),
                                  prefactor(2839.0, xs) * evaluate(poly, xs))


def test_large_a_peak_train():
    # for a >> 1 the profile concentrates at xi = pi (mod 2 pi)
    a = 120.0
    xs = np.linspace(-np.pi, 3 * np.pi, 4001)
    vals = prefactor(a, xs)
    peak_positions = xs[vals > 0.5 * np.max(vals)]
    # distance to the nearest odd multiple of pi
    d = np.abs((peak_positions - np.pi) % (2 * np.pi))
    assert np.all(np.minimum(d, 2 * np.pi - d) < 0.3)


def test_x_hat_examples():
    assert x_hat(0.0, 0.0, 0.6) == 0.0
    assert x_hat(5.0, 3.25, 0.0) == 3.25
    # k_0/k_p = 1/sqrt(1 - 0.6**2) = 1.25
    assert x_hat(1.0, 3.0, 0.6) == pytest.approx(1.25 * (3.0 - 0.6), rel=1e-15)
    ct = 7.0
    assert x_hat(ct, 0.6 * ct, 0.6) == pytest.approx(0.0, abs=1e-15)


def test_x_hat_rejects_fast_medium():
    with pytest.raises(InvalidConfigError):
        x_hat(0.0, 0.0, 1.0)
    with pytest.raises(InvalidConfigError):
        _scalar(n_m=1.0)


def test_x_hat_with_physical_config():
    # the frame derived from n_m equals the config's k_0/k_p to rounding
    from incewave.physics import derive_config

    cfg = derive_config(1.563, plasma_energy_ev=1.0, intensity_wcm2=0.0)
    got = x_hat(2.0, 5.0, cfg.n_m)
    assert got == pytest.approx((cfg.k0_cm / cfg.kp_cm) * (5.0 - cfg.n_m * 2.0), rel=1e-15)


def _scalar(n=0, a=0.0, p_hat=0.0, p_z=0.0, branch=Branch.PLUS,
            slot=SpinorSlot.S12, n_m=0.6):
    sol = eigen_decompose(build_odd_matrix(n, a))
    poly = make_polynomial(sol, 1, branch)
    return ScalarSolution(poly, slot, p_hat, p_z, n_m)


def test_scalar_slot_branch_pairing():
    with pytest.raises(InvalidArgumentError):
        _scalar(branch=Branch.MINUS, slot=SpinorSlot.S12)
    with pytest.raises(InvalidArgumentError):
        _scalar(branch=Branch.PLUS, slot=SpinorSlot.S34)
    s = _scalar(branch=Branch.MINUS, slot=SpinorSlot.S34)
    assert s.p_x == 0.5  # odd n=0 zero-point momentum


def test_scalar_px_quantization():
    sol = eigen_decompose(build_even_matrix(3, 1.0))
    poly = make_polynomial(sol, 1)
    s = ScalarSolution(poly, SpinorSlot.S12, 0.0, 0.0, 0.3)
    assert s.p_x == 3.0


def test_scalar_unit_modulus_trivial_case():
    # odd n=0, a=0, all momenta zero: |Psi| = 1 everywhere
    s = _scalar()
    for ct, x, y, z in [(0, 0, 0, 0), (1.3, -2, 0.7, 5), (10, 3, 3, -1)]:
        v = scalar_wavefunction(s, ct, x, y, z)
        assert abs(v) == pytest.approx(1.0, rel=1e-14)


def test_scalar_phase_at_origin_is_prefactor_times_poly():
    s = _scalar(n=1, a=3.0, p_hat=2.5, p_z=-0.75)
    v = scalar_wavefunction(s, 0.0, 0.0, 0.0, 0.0)
    expect = prefactor(3.0, 0.0) * evaluate(s.polynomial, 0.0)
    assert v == pytest.approx(expect, rel=1e-14)


def test_scalar_modulus_independent_of_real_momenta():
    base = _scalar(n=1, a=2.0)
    kicked = _scalar(n=1, a=2.0, p_hat=4.0, p_z=9.0)
    pts = [(0.4, 1.0, -0.3, 2.0), (2.0, -1.0, 0.5, 0.0)]
    for ct, x, y, z in pts:
        v0 = scalar_wavefunction(base, ct, x, y, z)
        v1 = scalar_wavefunction(kicked, ct, x, y, z)
        assert abs(v0) == pytest.approx(abs(v1), rel=1e-13)
        xi = (ct - base.n_m * y) / math.sqrt(1 - base.n_m**2)
        expect = prefactor(2.0, xi) * abs(evaluate(base.polynomial, xi))
        assert abs(v0) == pytest.approx(expect, rel=1e-13)


def test_evanescent_gate():
    s = _scalar(p_hat=2j)
    with pytest.raises(EvanescentSolutionError):
        scalar_wavefunction(s, 1.0, 0.0, 2.0, 0.0)
    v = scalar_wavefunction(s, 1.0, 0.0, 2.0, 0.0, allow_evanescent=True)
    # real exponential: no oscillation from the x_hat factor
    xi = (1.0 - s.n_m * 2.0) / math.sqrt(1 - s.n_m**2)
    xh = (2.0 - s.n_m * 1.0) / math.sqrt(1 - s.n_m**2)
    expect = math.exp(-2.0 * xh) * prefactor(0.0, xi) * evaluate(s.polynomial, xi)
    assert v == pytest.approx(expect, rel=1e-13)


def test_mixed_p_hat_rejected():
    with pytest.raises(InvalidArgumentError):
        _scalar(p_hat=1.0 + 1.0j)


def test_full_wave_contains_all_harmonics():
    # the finite polynomial times the prefactor has frequency content beyond
    # |r| = n, decaying like the Bessel envelope of the prefactor
    n, a = 2, 6.0
    sol = eigen_decompose(build_even_matrix(n, a))
    poly = make_polynomial(sol, 1)
    npts = 256
    xis = np.arange(npts) * (2 * np.pi / npts)
    full = prefactor(a, xis) * evaluate(poly, xis)
    spec = np.abs(np.fft.fft(full)) / npts
    # fold frequencies to signed harmonics
    content_beyond = sum(spec[m] + spec[npts - m] for m in range(n + 2, n + 12))
    assert content_beyond > 1e-6  # emphatically nonzero
    # envelope decay: compare two far harmonics
    far, farther = spec[n + 10], spec[n + 20]
    assert farther < far


# Sixth-order central difference of the second derivative, step 1.
_D2 = np.array([1 / 90, -3 / 20, 3 / 2, -49 / 18, 3 / 2, -3 / 20, 1 / 90])


def _solution_from_record(parity, n, a, k, pz_scaled, K, n_m, slot, p_hat_unit=0.5):
    """ScalarSolution of label k from its momentum_spectrum record: p_hat is
    record.p_hat / 2 (times 1j when evanescent) and p_z is pz_scaled / 2."""
    sol = eigen_decompose(build_matrix(parity, n, a))
    rec = momentum_spectrum(sol, pz_scaled, K)[k - 1]
    p_hat = p_hat_unit * rec.p_hat * (1j if rec.p_hat_kind is PHatKind.EVANESCENT else 1)
    branch = Branch.PLUS if slot is SpinorSlot.S12 else Branch.MINUS
    return ScalarSolution(make_polynomial(sol, k, branch), slot, p_hat, pz_scaled / 2, n_m)


def _spacetime_residual(s, K, h=1e-2):
    """Largest relative residual of
        d2_ct Psi - d2_y Psi - d2_z Psi + (p_x - A)^2 Psi + kappa^2 Psi
        - i (d_ct A) lambda Psi = 0,
    A = (a/4) cos xi, kappa = K/2, lambda = +-sqrt(1 - n_m^2) for S12/S34, in
    k_p units, at x = 0 over a few points: |sum| over the largest |term|."""
    rng = np.random.default_rng(7)
    ct, y, z = rng.uniform(-1.5, 1.5, (3, 8, 1))
    steps = np.arange(-3, 4) * h

    def d2(ct, y, z):
        return scalar_wavefunction(s, ct, 0.0, y, z, allow_evanescent=True) @ _D2 / h**2

    a, n_m = s.polynomial.a, s.n_m
    root = math.sqrt(1 - n_m**2)
    lam = root if s.spinor_slot is SpinorSlot.S12 else -root
    psi = scalar_wavefunction(s, ct, 0.0, y, z, allow_evanescent=True)[:, 0]
    xi = ((ct - n_m * y) / root)[:, 0]
    pot = (a / 4) * np.cos(xi)
    dpot_dct = -(a / 4) * np.sin(xi) / root
    terms = [d2(ct + steps, y, z), -d2(ct, y + steps, z), -d2(ct, y, z + steps),
             (s.p_x - pot) ** 2 * psi, (K / 2) ** 2 * psi, -1j * dpot_dct * lam * psi]
    return float(np.max(np.abs(sum(terms)) / np.max(np.abs(terms), axis=0)))


SPACETIME_CASES = [
    # parity, n, a, k, pz_scaled, K, n_m, slot
    (Parity.EVEN, 3, 1.0, 2, 0.5, 3.0, 0.6, SpinorSlot.S12),
    (Parity.ODD, 2, 2.5, 1, 0.0, 7.0, 0.3, SpinorSlot.S12),
    (Parity.EVEN, 4, 0.5, 3, 1.0, 1.0, 0.8, SpinorSlot.S34),
    (Parity.ODD, 3, 1.5, 6, 0.2, 0.0, 0.5, SpinorSlot.S34),
]


@pytest.mark.parametrize("case", SPACETIME_CASES)
def test_record_solution_solves_the_spacetime_equation(case):
    # With R = k_0/k_p, R^2 (1 - n_m^2) = 1 and lambda R = +-1, the equation
    # reduces exactly to the governing equation at z = xi/2 with
    # eta = p_hat_s^2 + (2 p_x)^2 + pz_s^2 + K^2 + (a/2)^2, the radicand of
    # momentum_spectrum. What remains is the difference floor, ~1e-10 at
    # h = 1e-2; 1e-8 leaves room for it and nothing else.
    K = case[5]
    assert _spacetime_residual(_solution_from_record(*case), K) < 1e-8
    # the record's p_hat is |2 p_hat / k_p|: without the halving Psi solves nothing
    assert _spacetime_residual(_solution_from_record(*case, p_hat_unit=1.0), K) > 1e-3
