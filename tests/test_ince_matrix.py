"""Construction of the coupling matrices and characteristic minors."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from incewave.bessel import bilinear_weight_kernel, scaled_bessel_i_table
from incewave.eigensolver import SpectralSolution, Tier, char_poly_eval, char_poly_scaled
from incewave.errors import InvalidArgumentError
from incewave.ince_matrix import (MAX_DIM, Parity, build_even_matrix, build_matrix,
                                  build_odd_matrix)
from incewave.polynomials import Branch, TrigPolynomial


def test_even_n1_a5_entries():
    m = build_even_matrix(1, 5.0)
    assert m.parity is Parity.EVEN
    assert (m.row_indices[0], m.row_indices[-1]) == (0, 1)
    np.testing.assert_array_equal(m.diag, [0.0, 4.0])
    np.testing.assert_array_equal(m.super, [5.0])
    np.testing.assert_array_equal(m.sub, [5.0])


def test_even_n2_a1_entries():
    m = build_even_matrix(2, 1.0)
    np.testing.assert_array_equal(m.diag, [4.0, 0.0, 4.0, 16.0])
    np.testing.assert_array_equal(m.super, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(m.sub, [3.0, 2.0, 1.0])


def test_even_n15_a12_shape():
    m = build_even_matrix(15, 12.0)
    assert m.dim == 30
    np.testing.assert_array_equal(m.super, 12.0 * np.arange(1, 30))
    assert m.super[0] == 12.0 and m.super[-1] == 348.0
    assert m.diag[0] == 4 * 14**2
    assert m.diag[14] == 0.0  # r = 0 row
    assert m.diag[-1] == 4 * 15**2


def test_odd_n0_entries():
    m = build_odd_matrix(0, 7.0)
    assert m.dim == 1
    np.testing.assert_array_equal(m.diag, [1.0])
    assert m.super.size == 0 and m.sub.size == 0


def test_odd_n1_a2_entries():
    m = build_odd_matrix(1, 2.0)
    np.testing.assert_array_equal(m.diag, [1.0, 1.0, 9.0])
    np.testing.assert_array_equal(m.super, [2.0, 4.0])
    np.testing.assert_array_equal(m.sub, [4.0, 2.0])


def test_odd_n2_a0_diagonal():
    m = build_odd_matrix(2, 0.0)
    np.testing.assert_array_equal(m.diag, [9.0, 1.0, 1.0, 9.0, 25.0])
    np.testing.assert_array_equal(m.super, np.zeros(4))


def test_invalid_arguments():
    with pytest.raises(InvalidArgumentError):
        build_even_matrix(0, 1.0)
    with pytest.raises(InvalidArgumentError):
        build_even_matrix(-3, 1.0)
    with pytest.raises(InvalidArgumentError):
        build_odd_matrix(-1, 1.0)
    with pytest.raises(InvalidArgumentError):
        build_even_matrix(2, -0.5)
    with pytest.raises(InvalidArgumentError):
        build_odd_matrix(2, float("nan"))
    with pytest.raises(InvalidArgumentError):
        build_even_matrix(2, float("inf"))


def _assert_edge_factors(m):
    """The edge factors N_j are integers >= 1, and the model's edge product
    N_j a**2, rounded once, is within 2 ulps of the rounded bands' product."""
    nj = m.edge_factors
    assert nj.size == m.dim - 1
    assert np.all(nj == np.round(nj)) and np.all(nj >= 1)
    model = np.array([float(int(v) * Fraction(m.a) ** 2) for v in nj])
    assert np.all(np.abs(m.super * m.sub - model) <= 2 * np.spacing(model))


@given(n=st.integers(1, 12),
       a=st.one_of(st.just(0.0), st.floats(1e-6, 50.0, allow_nan=False)))
@settings(max_examples=60, deadline=None)
def test_even_invariants(n, a):
    m = build_even_matrix(n, a)
    assert m.dim == 2 * n
    assert m.diag.size == m.dim
    assert m.super.size == m.dim - 1 and m.sub.size == m.dim - 1
    # mirror symmetry of the coupling lists
    np.testing.assert_array_equal(m.super[::-1], m.sub)
    _assert_edge_factors(m)
    if a > 0:
        assert m.super[0] == a and m.sub[-1] == a
    # the series terminates below r = -n + 1: there is no r = -n row
    assert m.row_indices[0] == -n + 1


@given(n=st.integers(0, 12),
       a=st.one_of(st.just(0.0), st.floats(1e-6, 50.0, allow_nan=False)))
@settings(max_examples=60, deadline=None)
def test_odd_invariants(n, a):
    m = build_odd_matrix(n, a)
    assert m.dim == 2 * n + 1
    np.testing.assert_array_equal(m.super[::-1], m.sub)
    np.testing.assert_array_equal(m.diag, (2.0 * m.row_indices + 1) ** 2)
    _assert_edge_factors(m)


def _per_family_reference(parity, n, a):
    """The README's per-family formulas, with the layout each family used to
    spell out: bands, frequencies, q, p_x, period and the kernel's sigma."""
    if parity is Parity.EVEN:
        r = np.arange(-n + 1, n + 1)
        bands = ((4 * r * r).astype(float), (n + r[:-1]).astype(float) * a,
                 (n - r[1:] + 1).astype(float) * a)
        return bands, r.astype(float), r, 2 * n - 1, float(n), 2 * np.pi, 0
    r = np.arange(-n, n + 1)
    bands = (((2 * r + 1) ** 2).astype(float), (n + r[:-1] + 1).astype(float) * a,
             (n - r[1:] + 1).astype(float) * a)
    return bands, r + 0.5, r, 2 * n, n + 0.5, 4 * np.pi, 1


@given(parity=st.sampled_from(list(Parity)), n=st.integers(0, 200),
       a=st.one_of(st.just(0.0), st.floats(-12.0, 150.0).map(lambda e: 10.0**e)))
@settings(max_examples=60, deadline=None)
@example(Parity.ODD, 0, 0.0)
@example(Parity.EVEN, 200, 1e150)
@example(Parity.ODD, 200, 1e-12)
def test_layout_matches_per_family_formulas(parity, n, a):
    n = max(n, 1) if parity is Parity.EVEN else n
    bands, freqs, rows, q, p_x, period, sigma = _per_family_reference(parity, n, a)
    m = build_matrix(parity, n, a)
    for got, want in zip((m.diag, m.super, m.sub), bands):
        assert got.tobytes() == want.tobytes()
    dim = freqs.size
    shared = (m, SpectralSolution(parity, n, a, np.zeros(dim), np.eye(dim), Tier.DOUBLE),
              TrigPolynomial(parity, Branch.PLUS, n, 1, a, 0.0, np.zeros(dim)))
    for obj in shared:
        assert obj.xi_frequencies.tobytes() == freqs.tobytes()
        np.testing.assert_array_equal(obj.row_indices, rows)
        assert (obj.dim, obj.q, obj.p_x, obj.period) == (dim, q, p_x, period)
    # kernel orders |r_i + r_j + sigma| and signs, as the kernel used to take them
    ka = min(a, 1e3)
    msum = rows[:, None] + rows[None, :] + sigma
    table = scaled_bessel_i_table(int(np.abs(msum).max()), ka / 2.0)
    want = np.where(msum % 2 == 0, 1.0, -1.0) * table[np.abs(msum)]
    assert bilinear_weight_kernel(m.xi_frequencies, ka).tobytes() == want.tobytes()


def test_char_poly_1x1_root():
    m = build_odd_matrix(0, 3.0)
    assert char_poly_eval(m, 1.0) == 0.0


def test_char_poly_2x2_hand_value():
    m = build_even_matrix(1, 3.0)
    assert char_poly_eval(m, 0.0) == -9.0


@pytest.mark.parametrize("a", [1.0, 12.0])
def test_char_poly_quadratic_roots(a):
    m = build_even_matrix(1, a)
    root = 2.0 + math.sqrt(4.0 + a * a)
    assert abs(char_poly_eval(m, root)) < 1e-10


def test_char_poly_matches_exact_rational():
    # the scaled recurrence agrees with exact Fraction arithmetic
    for n, a, eta in [(2, 3, 5), (3, 2, -7), (4, 1, 17), (2, 12, 0)]:
        m = build_even_matrix(n, float(a))
        pm2, pm1 = Fraction(1), Fraction(int(m.diag[0]) - eta)
        for j in range(1, m.dim):
            p = (Fraction(int(m.diag[j]) - eta)) * pm1 \
                - Fraction(int(m.super[j - 1])) * Fraction(int(m.sub[j - 1])) * pm2
            pm2, pm1 = pm1, p
        assert char_poly_eval(m, float(eta)) == pytest.approx(float(pm1), rel=1e-12)


def test_char_poly_matches_dense_determinant():
    rng_etas = [0.0, 1.5, -3.25, 40.0]
    m = build_odd_matrix(3, 2.5)
    for eta in rng_etas:
        dense = m.to_dense() - eta * np.eye(m.dim)
        assert char_poly_eval(m, eta) == pytest.approx(np.linalg.det(dense), rel=1e-10)


def test_char_poly_sign_alternates_between_eigenvalues():
    from incewave.eigensolver import eigen_decompose

    for builder, n in [(build_even_matrix, 3), (build_even_matrix, 6), (build_odd_matrix, 5)]:
        m = builder(n, 4.0)
        vals = eigen_decompose(m).eigenvalues  # descending
        mids = 0.5 * (vals[:-1] + vals[1:])
        signs = [math.copysign(1.0, char_poly_eval(m, x)) for x in mids]
        for s1, s2 in zip(signs, signs[1:]):
            assert s1 == -s2


def test_char_poly_scaled_no_overflow():
    # dimension 80 with eta ~ 1e4 would overflow a raw minor recurrence
    m = build_even_matrix(40, 12.0)
    mant, exp2 = char_poly_scaled(m, 7000.0)
    assert math.isfinite(mant) and mant != 0.0
    assert exp2 > 0


def test_rows_immutable():
    m = build_even_matrix(2, 1.0)
    with pytest.raises(ValueError):
        m.diag[0] = 99.0


@pytest.mark.parametrize("builder,n,a", [(build_even_matrix, 5, 1e308),
                                         (build_odd_matrix, 1, 1.7e308),
                                         (build_even_matrix, 1000, 1e306)])
def test_band_beyond_float_range_rejected(builder, n, a):
    # the largest coupling is (2 p_x - 1) a
    with pytest.raises(InvalidArgumentError, match="too large"):
        builder(n, a)
    assert np.all(np.isfinite(builder(n, a / (2 * n + 1)).super))


def test_dimension_bound_refuses_before_building():
    assert MAX_DIM == 4096
    assert build_even_matrix(2048, 1.0).dim == MAX_DIM
    with pytest.raises(InvalidArgumentError, match="dimension 4097, above the limit MAX_DIM = 4096"):
        build_odd_matrix(2048, 1.0)
    with pytest.raises(InvalidArgumentError, match="MAX_DIM"):
        build_even_matrix(10**8, 1.0)
