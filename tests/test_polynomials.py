"""Trigonometric polynomials: evaluation, derivatives, residual identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incewave.eigensolver import Tier, eigen_decompose
from incewave.errors import InvalidArgumentError
from incewave.ince_matrix import build_even_matrix, build_odd_matrix
from incewave.polynomials import (Branch, TrigPolynomial, derivative, evaluate,
                                  harmonic_strengths, make_polynomial,
                                  ode_residual)


@pytest.fixture(scope="module")
def sol_n15():
    return eigen_decompose(build_even_matrix(15, 12.0), Tier.EXTENDED)


def test_odd_n0_single_harmonic():
    sol = eigen_decompose(build_odd_matrix(0, 4.0))
    p = make_polynomial(sol, 1)
    assert p.q == 0
    assert evaluate(p, 0.0) == pytest.approx(1.0 + 0.0j)
    assert evaluate(p, np.pi) == pytest.approx(np.exp(-1j * np.pi / 2))
    assert evaluate(p, np.pi) == pytest.approx(-1j)


def test_even_free_field_unit_harmonic():
    sol = eigen_decompose(build_even_matrix(1, 0.0))
    # descending order puts eta = 4 (r = 1) first
    p = make_polynomial(sol, 1)
    assert p.eta == 4.0
    assert p.q == 1
    xis = np.linspace(-3, 3, 7)
    np.testing.assert_allclose(evaluate(p, xis), np.exp(-1j * xis), rtol=1e-15)


def test_k_out_of_range(sol_n15):
    with pytest.raises(InvalidArgumentError):
        make_polynomial(sol_n15, 0)
    with pytest.raises(InvalidArgumentError):
        make_polynomial(sol_n15, 31)


def test_q_values(sol_n15):
    assert make_polynomial(sol_n15, 1).q == 29
    sol_odd = eigen_decompose(build_odd_matrix(3, 1.0))
    assert make_polynomial(sol_odd, 1).q == 6


def test_conjugation_identity(sol_n15):
    pp = make_polynomial(sol_n15, 5, Branch.PLUS)
    pm = make_polynomial(sol_n15, 5, Branch.MINUS)
    xis = np.linspace(-2 * np.pi, 2 * np.pi, 57)
    np.testing.assert_array_equal(evaluate(pm, xis), np.conj(evaluate(pp, xis)))


@pytest.mark.parametrize("builder,n,a,period_sign", [
    (build_even_matrix, 3, 2.0, +1),
    (build_odd_matrix, 2, 2.0, -1),
])
def test_periodicity(builder, n, a, period_sign):
    sol = eigen_decompose(builder(n, a))
    p = make_polynomial(sol, 2)
    xis = np.linspace(0, 2 * np.pi, 13)
    v0 = evaluate(p, xis)
    v1 = evaluate(p, xis + 2 * np.pi)
    np.testing.assert_allclose(v1, period_sign * v0, atol=1e-12)
    v2 = evaluate(p, xis + 4 * np.pi)
    np.testing.assert_allclose(v2, v0, atol=1e-12)


def test_parseval(sol_n15):
    p = make_polynomial(sol_n15, 14)
    npts = 256
    xis = np.arange(npts) * (2 * np.pi / npts)
    mean_sq = np.mean(np.abs(evaluate(p, xis)) ** 2)
    assert mean_sq == pytest.approx(np.sum(p.coeffs**2), abs=1e-12)
    assert mean_sq == pytest.approx(1.0, abs=1e-12)


def test_derivative_examples():
    sol = eigen_decompose(build_odd_matrix(0, 2.0))
    p = make_polynomial(sol, 1)
    d1 = derivative(p, 1)
    assert d1(0.0) == pytest.approx(-0.5j)
    d2 = derivative(p, 2)
    assert d2(0.0) == pytest.approx(-0.25)


def test_derivative_matches_finite_differences(sol_n15):
    p = make_polynomial(sol_n15, 5)
    d1 = derivative(p, 1)
    h = 1e-5
    for xi in np.linspace(-np.pi, np.pi, 16):
        fd = (evaluate(p, xi + h) - evaluate(p, xi - h)) / (2 * h)
        assert d1(xi) == pytest.approx(fd, rel=1e-8)


def test_minus_branch_derivative_consistency(sol_n15):
    pm = make_polynomial(sol_n15, 5, Branch.MINUS)
    pp = make_polynomial(sol_n15, 5, Branch.PLUS)
    h = 1e-6
    for xi in (0.3, 1.7):
        fd = (evaluate(pm, xi + h) - evaluate(pm, xi - h)) / (2 * h)
        assert derivative(pm, 1)(xi) == pytest.approx(fd, rel=1e-7)
        assert derivative(pm, 1)(xi) == pytest.approx(np.conj(derivative(pp, 1)(xi)), rel=1e-12)


def test_ode_residual_closed_form_zero():
    # single-harmonic solution: exact cancellation for every a and z
    for a in (0.0, 3.0, 25.0):
        sol = eigen_decompose(build_odd_matrix(0, a))
        p = make_polynomial(sol, 1)
        zs = np.linspace(-2, 7, 23)
        np.testing.assert_allclose(ode_residual(p, zs), 0.0, atol=1e-13 * (1 + a))


def test_ode_residual_figure_configuration(sol_n15):
    zs = np.arange(64) * (2 * np.pi / 64)
    for k in (1, 5, 14, 30):
        for branch in (Branch.PLUS, Branch.MINUS):
            p = make_polynomial(sol_n15, k, branch)
            res = np.max(np.abs(ode_residual(p, zs)))
            fmax = np.max(np.abs(evaluate(p, 2 * zs)))
            assert res <= 1e-8 * (abs(p.eta) + p.a * 2 * p.n) * fmax


def test_ode_residual_eta_shift_linearity(sol_n15):
    p = make_polynomial(sol_n15, 5)
    shifted = TrigPolynomial(p.parity, p.branch, p.n, p.k, p.a,
                             p.eta + 1.0, p.coeffs.copy())
    zs = np.linspace(-1, 1, 9)
    f = np.array([evaluate(p, 2 * z) for z in zs])
    res = ode_residual(shifted, zs)
    np.testing.assert_allclose(res, f, atol=1e-10 * np.max(np.abs(f)))
    np.testing.assert_allclose(np.abs(res), np.abs(f), atol=1e-10 * np.max(np.abs(f)))


def test_residual_is_fourier_image_of_matrix_action():
    # for ANY coefficient vector and eta, the residual function equals the
    # finite Fourier sum with coefficients (eta I - M) D: the operator and
    # the matrix are two pictures of the same object
    rng_d = np.array([0.3, -1.2, 0.77, 0.05, 2.0, -0.4])
    n, a, eta = 3, 4.5, 7.25
    m = build_even_matrix(n, a)
    d = rng_d / np.linalg.norm(rng_d)
    p = TrigPolynomial(m.parity, Branch.PLUS, n, 1, a, eta, d)
    image = (eta * np.eye(m.dim) - m.to_dense()) @ d
    zs = np.linspace(-0.9, 2.3, 17)
    rs = m.row_indices
    expected = np.array([np.sum(image * np.exp(-2j * rs * z)) for z in zs])
    np.testing.assert_allclose(ode_residual(p, zs), expected, atol=1e-12 * np.abs(image).sum())


def test_residual_fourier_image_odd():
    rng_d = np.array([0.9, -0.1, 0.44, 1.3, -2.2])
    n, a, eta = 2, 3.0, -2.0
    m = build_odd_matrix(n, a)
    d = rng_d / np.linalg.norm(rng_d)
    p = TrigPolynomial(m.parity, Branch.PLUS, n, 1, a, eta, d)
    image = (eta * np.eye(m.dim) - m.to_dense()) @ d
    zs = np.linspace(-1.1, 1.7, 11)
    rs = m.row_indices
    expected = np.array([np.sum(image * np.exp(-1j * (2 * rs + 1) * z)) for z in zs])
    np.testing.assert_allclose(ode_residual(p, zs), expected, atol=1e-12 * np.abs(image).sum())


def test_strength_distribution_shapes(sol_n15):
    """The four characteristic eigenvalues have qualitatively different
    harmonic spectra: concentrated one-sided peak, central hump, oscillatory."""
    rs = sol_n15.row_indices

    def metrics(k):
        d = sol_n15.eigenvectors[k - 1]
        s = d * d
        best6 = max(float(s[i:i + 6].sum()) for i in range(len(s) - 5))
        pos = float(s[rs > 0].sum())
        sig = d[s > 1e-4]
        flips = int(np.sum(np.signbit(sig[:-1]) != np.signbit(sig[1:])))
        return best6, pos, flips, int(rs[np.argmax(s)])

    best6, pos, flips, peak = metrics(5)  # eta = 718.09: single one-sided peak
    assert best6 > 0.85 and pos > 0.85 and flips <= 3 and peak > 5
    best6, pos, flips, peak = metrics(14)  # eta = 355.5: central hump
    assert abs(peak) <= 2 and pos > 0.25 and (1 - pos) > 0.25 and flips <= 5
    for k in (27, 22):  # eta = -163.7 and 81.6: oscillatory
        best6, pos, flips, _ = metrics(k)
        assert flips >= 8 and best6 < 0.8


def test_harmonic_strengths(sol_n15):
    sol0 = eigen_decompose(build_odd_matrix(0, 5.0))
    assert harmonic_strengths(make_polynomial(sol0, 1)) == [(0, 1.0)]
    for k in (1, 5, 24):
        s = harmonic_strengths(make_polynomial(sol_n15, k))
        assert [r for r, _ in s] == list(range(-14, 16))
        assert sum(v for _, v in s) == pytest.approx(1.0, abs=1e-12)


@given(xi=st.floats(-20.0, 20.0), k=st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_conjugation_property(xi, k):
    sol = eigen_decompose(build_odd_matrix(2, 3.0))
    pp = make_polynomial(sol, k, Branch.PLUS)
    pm = make_polynomial(sol, k, Branch.MINUS)
    assert evaluate(pm, xi) == np.conj(evaluate(pp, xi))
