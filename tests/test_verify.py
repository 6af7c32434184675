"""Inner products, the characteristic-polynomial oracle, and the check suite."""

import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from test_eigensolver import _mpmath_eigsy

from incewave import verify
from incewave.eigensolver import Tier, eigen_decompose
from incewave.errors import InvalidArgumentError, InvalidPairingError
from incewave.ince_matrix import Parity, build_even_matrix, build_odd_matrix
from incewave.polynomials import (Branch, TrigPolynomial, evaluate, governing_residual,
                                  make_polynomial, ode_residual)
from incewave.verify import (_quadrature_grid, gram_matrices, normalization_check,
                             oracle_eigenvalues, verification_report,
                             weighted_inner_product)


def test_pairing_validation():
    se = eigen_decompose(build_even_matrix(2, 1.0))
    so = eigen_decompose(build_odd_matrix(2, 1.0))
    pe = make_polynomial(se, 1)
    po = make_polynomial(so, 1)
    with pytest.raises(InvalidPairingError):
        weighted_inner_product(pe, po)
    pm = make_polynomial(se, 2, Branch.MINUS)
    with pytest.raises(InvalidPairingError):
        weighted_inner_product(pe, pm)


def test_a0_distinct_states_orthogonal():
    sol = eigen_decompose(build_even_matrix(3, 0.0))
    for k, l in [(1, 2), (1, 6), (3, 4), (2, 5)]:
        rep = weighted_inner_product(make_polynomial(sol, k), make_polynomial(sol, l))
        assert abs(rep.bessel_value) < 1e-14
        assert abs(rep.quadrature_value) < 1e-13


def test_routes_agree_on_diagonal():
    sol = eigen_decompose(build_even_matrix(6, 5.0))
    gq, gb = gram_matrices(sol)
    dmax = np.max(np.abs(np.diag(gb)))
    assert np.max(np.abs(gq - gb)) <= 1e-9 * dmax


@pytest.mark.parametrize("builder,n,a", [
    (build_even_matrix, 6, 5.0),
    (build_even_matrix, 10, 0.5),
    (build_odd_matrix, 7, 12.0),
    (build_even_matrix, 15, 12.0),
])
def test_gram_diagonal(builder, n, a):
    sol = eigen_decompose(builder(n, a))
    gq, gb = gram_matrices(sol)
    dmax = np.max(np.abs(np.diag(gb)))
    off = gb - np.diag(np.diag(gb))
    assert np.max(np.abs(off)) <= 1e-9 * dmax
    assert np.max(np.abs(gq - gb)) <= 1e-9 * dmax


def test_gram_both_branches_match():
    sol = eigen_decompose(build_odd_matrix(4, 3.0))
    _, gb_plus = gram_matrices(sol, Branch.PLUS)
    _, gb_minus = gram_matrices(sol, Branch.MINUS)
    np.testing.assert_allclose(gb_plus, gb_minus, atol=1e-14)


def test_inner_product_report_fields():
    sol = eigen_decompose(build_even_matrix(4, 2.0))
    rep = weighted_inner_product(make_polynomial(sol, 2), make_polynomial(sol, 2))
    assert rep.k == 2 and rep.l == 2
    assert rep.discrepancy == abs(rep.quadrature_value - rep.bessel_value)
    assert rep.discrepancy < 1e-12


def test_normalization_check():
    sol = eigen_decompose(build_odd_matrix(0, 3.0))
    p = make_polynomial(sol, 1)
    assert normalization_check(p) == pytest.approx(1.0, abs=1e-15)
    sol2 = eigen_decompose(build_even_matrix(5, 7.0))
    for k in (1, 4, 10):
        assert normalization_check(make_polynomial(sol2, k)) == pytest.approx(1.0, abs=1e-12)
    # quadratic homogeneity: doubling the coefficients quadruples the integral
    p2 = TrigPolynomial(p.parity, p.branch, p.n, p.k, p.a, p.eta,
                        2.0 * p.coeffs)
    assert normalization_check(p2) == pytest.approx(4.0, abs=1e-12)


def test_oracle_trivial_and_quadratic():
    assert oracle_eigenvalues(build_odd_matrix(0, 4.0)) == [1.0]
    vals = oracle_eigenvalues(build_even_matrix(1, 12.0))
    np.testing.assert_allclose(vals, [2 + np.sqrt(148), 2 - np.sqrt(148)], atol=1e-11)


def test_oracle_matches_main_solver():
    for builder, n, a in [(build_odd_matrix, 1, 2.0), (build_even_matrix, 2, 12.0),
                          (build_odd_matrix, 3, 0.5), (build_even_matrix, 4, 1.0),
                          (build_odd_matrix, 2, 12.0), (build_even_matrix, 3, 0.5)]:
        m = builder(n, a)
        oracle = np.array(oracle_eigenvalues(m))
        main = eigen_decompose(m).eigenvalues
        np.testing.assert_allclose(oracle, main, rtol=0, atol=1e-10)


def test_oracle_at_a0_returns_the_diagonal():
    # every coupling is zero: the recurrence cannot leave an exactly zero minor
    assert oracle_eigenvalues(build_even_matrix(2, 0.0)) == [16.0, 4.0, 4.0, 0.0]
    assert oracle_eigenvalues(build_odd_matrix(3, 0.0)) == [49.0, 25.0, 25.0, 9.0, 9.0, 1.0, 1.0]


@pytest.mark.parametrize("a", [1e-12, 0.01, 0.1, 0.5, 1e5, 1e7])
@pytest.mark.parametrize("builder,n", [(build_even_matrix, n) for n in (1, 2, 3, 4)]
                         + [(build_odd_matrix, n) for n in (0, 1, 2, 3)])
def test_oracle_matches_60_digit_eigenvalues(builder, n, a):
    # every dimension <= 8 the oracle accepts, within 2 ulps of max|eta|
    import mpmath as mp

    m = builder(n, a)
    with mp.workdps(60):
        ref = sorted((float(v) for v in _mpmath_eigsy(m)[0]), reverse=True)
    tol = 2 * np.spacing(max(abs(v) for v in ref))
    np.testing.assert_allclose(oracle_eigenvalues(m), ref, rtol=0, atol=tol)


def _fraction_count(m, x):
    """Reference Sturm count: the leading minors in Fraction arithmetic."""
    x = Fraction(x)
    g = [Fraction(float(u)) * Fraction(float(l)) for u, l in zip(m.super, m.sub)]
    p2, p1, count, sprev = 0, 1, 0, 1
    for d, gj in zip(m.diag, (0, *g)):
        p2, p1 = p1, (Fraction(float(d)) - x) * p1 - gj * p2
        s = (p1 > 0) - (p1 < 0) or -sprev
        count += s != sprev
        sprev = s
    return count


ORACLE_DIMS = ([(build_even_matrix, n) for n in (1, 2, 3, 4)]
               + [(build_odd_matrix, n) for n in (0, 1, 2, 3)])


@pytest.mark.parametrize("a", [0.0, 1e-12, 1e-3, 0.5, 3.16, 12.0, 1e5, 1e7])
@pytest.mark.parametrize("builder,n", ORACLE_DIMS)
def test_integer_count_equals_fraction_count(builder, n, a):
    m = builder(n, a)
    diag, g, e = verify._integer_bands(m)
    # random shifts inside the Gershgorin range
    radii = np.abs(np.append(m.super, 0.0)) + np.abs(np.insert(m.sub, 0, 0.0))
    lo, hi = float(np.min(m.diag - radii)), float(np.max(m.diag + radii))
    rng = random.Random(f"{builder.__name__} {n} {a}")
    shifts = [rng.uniform(lo, hi) for _ in range(40)]
    # the diagonal entries themselves, where minors vanish exactly at a = 0;
    # and shifts whose binary denominator is finer than every entry's
    tiny = math.ldexp(1.0, -70)
    fine = [tiny, -3 * tiny, math.ulp(0.0)] + [math.nextafter(d, math.inf) for d in m.diag]
    shifts += [float(d) for d in m.diag] + fine
    assert any(verify._binary(x)[1] > e for x in fine)
    for x in shifts:
        assert verify._exact_count(diag, g, e, x) == _fraction_count(m, x), x


@pytest.mark.parametrize("builder,n,a", [(build_even_matrix, 4, 3.16), (build_odd_matrix, 3, 10.0),
                                         (build_even_matrix, 3, 1e5), (build_odd_matrix, 1, 1e-12)])
def test_oracle_equals_bisection_on_the_fraction_count(monkeypatch, builder, n, a):
    m = builder(n, a)
    got = oracle_eigenvalues(m)
    monkeypatch.setattr(verify, "_exact_count", lambda diag, g, e, x: _fraction_count(m, x))
    assert got == oracle_eigenvalues(m)


def test_oracle_rejects_large_dimension():
    with pytest.raises(InvalidArgumentError):
        oracle_eigenvalues(build_even_matrix(15, 12.0))


def test_oracle_rejects_a_beyond_its_float_bound():
    # the entries are finite, but the bracket min/max diag -/+ (2 a dim + 1)
    # is not
    with pytest.raises(InvalidArgumentError):
        oracle_eigenvalues(build_odd_matrix(3, 1e307))


def test_report_passes_reference_configuration():
    rep = verification_report(Parity.EVEN, 15, 12.0, Tier.EXTENDED)
    assert rep["passed"]
    names = [c["name"] for c in rep["checks"]]
    assert names == ["eigen_residual", "normalization", "ode_residual",
                     "gram_offdiag", "route_agreement", "trace_identity"]


@pytest.mark.parametrize("parity", [Parity.EVEN, Parity.ODD])
@pytest.mark.parametrize("a", [1.5e3, 1e5, 1e7])
def test_report_passes_at_large_a(parity, a):
    # the weight and kernel scaled by e^(-a/2) stay finite at any a, and the
    # quadrature grid grows only as sqrt(a)
    rep = verification_report(parity, 20, a)
    assert rep["passed"], [c for c in rep["checks"] if not c["passed"]]


def test_report_passes_where_the_unscaled_kernel_overflowed():
    assert verification_report(Parity.EVEN, 3, 1e4)["passed"]


def test_quadrature_grid_stays_small_at_large_a():
    xs, dxi = _quadrature_grid(40, 1e7, 2 * np.pi)
    assert xs.size <= 50_000
    assert xs.size * dxi == pytest.approx(2 * np.pi)
    with pytest.raises(InvalidArgumentError):
        _quadrature_grid(40, 1e9, 2 * np.pi)


def test_unscaled_inner_product_overflows_above_its_range():
    sol = eigen_decompose(build_even_matrix(2, 1500.0))
    with pytest.raises(OverflowError):
        weighted_inner_product(make_polynomial(sol, 1), make_polynomial(sol, 2))


def test_report_trivial_configuration():
    rep = verification_report(Parity.ODD, 0, 7.0, Tier.DOUBLE)
    assert rep["passed"]
    byname = {c["name"]: c for c in rep["checks"]}
    assert byname["ode_residual"]["observed"] == 0.0
    assert "oracle_delta" in byname  # dim 1 qualifies for the oracle


def corrupt_eta(monkeypatch, label):
    """Perturb eigenvalue label (1-based) by +1 where the check suite
    evaluates the governing equation."""
    exact = verify.governing_residual

    def corrupted(freqs, q, a, coeffs, etas, z, branch):
        etas = etas.copy()
        etas[label - 1] += 1.0
        return exact(freqs, q, a, coeffs, etas, z, branch)

    monkeypatch.setattr(verify, "governing_residual", corrupted)


def test_report_corruption_trips_ode_residual(monkeypatch):
    corrupt_eta(monkeypatch, 2)
    rep = verification_report(Parity.EVEN, 3, 1.0, Tier.DOUBLE)
    assert not rep["passed"]
    failing = [c["name"] for c in rep["checks"] if not c["passed"]]
    assert failing == ["ode_residual"]


def test_report_oracle_catches_a_moved_eigenvalue(monkeypatch):
    # a solver whose third value is off by 2e-10 passes every check but the
    # oracle's, whose threshold is 1e-10
    assert verification_report(Parity.EVEN, 3, 1.0)["passed"]

    def moved(m, tier=Tier.DOUBLE):
        sol = eigen_decompose(m, tier)
        vals = sol.eigenvalues.copy()
        vals[2] += 2e-10
        return dataclasses.replace(sol, eigenvalues=vals)

    monkeypatch.setattr(verify, "eigen_decompose", moved)
    rep = verification_report(Parity.EVEN, 3, 1.0)
    assert [c["name"] for c in rep["checks"] if not c["passed"]] == ["oracle_delta"]


def test_minus_branch_residual_is_the_conjugate_of_the_plus_branch():
    # verification_report evaluates the plus branch alone for both: the minus
    # branch's lhs and f are its conjugates, equal up to the sign of zero
    # parts, and their moduli are equal bit for bit
    zs = np.arange(64) * (2.0 * np.pi / 64)
    for builder in (build_even_matrix, build_odd_matrix):
        for n in (1, 2, 5, 13, 30, 50):
            for a in (1e-5, 1e-3, 0.1, 1.0, 10.0, 1e3):
                sol = eigen_decompose(builder(n, a))
                args = (sol.xi_frequencies, sol.q, sol.a, sol.eigenvectors.T, sol.eigenvalues, zs)
                plus = governing_residual(*args, Branch.PLUS)
                minus = governing_residual(*args, Branch.MINUS)
                for p, q in zip(plus, minus):
                    np.testing.assert_array_equal(q, np.conj(p))
                    assert np.abs(q).tobytes() == np.abs(p).tobytes()


@pytest.mark.parametrize("label", [1, 6])
def test_report_corruption_of_end_labels_trips_ode_residual(monkeypatch, label):
    corrupt_eta(monkeypatch, label)
    rep = verification_report(Parity.EVEN, 3, 1.0, Tier.DOUBLE)
    assert [c["name"] for c in rep["checks"] if not c["passed"]] == ["ode_residual"]


@pytest.mark.parametrize("builder", [build_even_matrix, build_odd_matrix])
@pytest.mark.parametrize("branch", [Branch.PLUS, Branch.MINUS])
def test_block_residual_and_gram_match_single_polynomials(builder, branch):
    # the block paths of the check suite agree with one polynomial at a time
    sol = eigen_decompose(builder(15, 12.0))
    zs = np.arange(64) * (2.0 * np.pi / 64)
    p1 = make_polynomial(sol, 1, branch)
    lhs, f = governing_residual(p1.xi_frequencies, p1.q, sol.a, sol.eigenvectors.T,
                                sol.eigenvalues, zs, branch)
    assert lhs.shape == f.shape == (zs.size, sol.dim)
    for k in range(1, sol.dim + 1):
        p = make_polynomial(sol, k, branch)
        single_f = evaluate(p, 2 * zs)
        scale = (abs(p.eta) + 2 * p.n * p.a) * np.max(np.abs(single_f))
        np.testing.assert_allclose(lhs[:, k - 1], ode_residual(p, zs), rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(f[:, k - 1], single_f, rtol=0,
                                   atol=1e-12 * np.max(np.abs(single_f)))
    gq, _ = gram_matrices(sol, branch)
    for k, l in [(1, 1), (1, 2), (5, 17), (14, 15), (30, 3)]:
        want = weighted_inner_product(make_polynomial(sol, k, branch),
                                      make_polynomial(sol, l, branch)).quadrature_value
        assert abs(gq[k - 1, l - 1] - want) <= 1e-12 * np.max(np.abs(np.diag(gq)))
