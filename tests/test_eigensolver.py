"""Eigensolver: closed forms, high-precision anchors, and cross-checks.

Frozen reference values for the even n=15, a=12 matrix were computed with
60-digit mpmath eigenvalues of the symmetrized matrix (independent of the
bisection path under test).
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from incewave import ddcore as ddc
from incewave import eigensolver as es
from incewave.eigensolver import (Tier, char_poly_eval, char_poly_scaled, eigen_decompose,
                                  eigenvector_for, nearest_eigenpair, refine_eigenvalue,
                                  refine_eigenvalue_dd, sturm_count, symmetrize)
from incewave.errors import InvalidArgumentError, InvalidBracketError, NumericalFailureError
from incewave.ince_matrix import TridiagonalMatrix, build_even_matrix, build_odd_matrix

# 60-digit reference values, even family n=15, a=12, descending order
ANCHORS_N15_A12 = {
    1: 936.0,
    4: 718.0928584868178915958161,
    5: 718.0928584847421093162432,
    14: 355.4926806704638871911802,
    22: 81.64504494948384350206129,
    23: 36.13178115225239949261198,
    27: -163.7061644157089560925259,
}
SPLITS_N15_A12 = {
    (2, 3): 1.698579589e-12,
    (4, 5): 2.0757822796e-09,
    (6, 7): 1.0618865889946e-06,
    (8, 9): 2.6416380110137e-04,
}


@pytest.fixture(scope="module")
def sol_n15_extended():
    return eigen_decompose(build_even_matrix(15, 12.0), Tier.EXTENDED)


def test_symmetrize_2x2():
    c, d = symmetrize(build_even_matrix(1, 7.0))
    np.testing.assert_allclose(c, [7.0])
    np.testing.assert_array_equal(d, [1.0, 1.0])


def test_symmetrize_odd_n1_a2():
    c, d = symmetrize(build_odd_matrix(1, 2.0))
    np.testing.assert_allclose(c, [math.sqrt(8.0)] * 2, rtol=1e-15)
    assert d[0] == 1.0
    assert np.all(d > 0)


def test_symmetrize_a0():
    c, d = symmetrize(build_even_matrix(3, 0.0))
    np.testing.assert_array_equal(c, np.zeros(5))
    np.testing.assert_array_equal(d, np.ones(6))


def test_1x1_any_a():
    for a in (0.0, 1.0, 9.0, 100.0):
        sol = eigen_decompose(build_odd_matrix(0, a))
        np.testing.assert_array_equal(sol.eigenvalues, [1.0])
        np.testing.assert_array_equal(sol.eigenvectors, [[1.0]])


def test_2x2_closed_form():
    sol = eigen_decompose(build_even_matrix(1, 12.0))
    root = math.sqrt(148.0)
    np.testing.assert_allclose(sol.eigenvalues, [2 + root, 2 - root], rtol=1e-14)
    assert sol.eigenvalues[0] == pytest.approx(14.16552506, abs=1e-8)
    assert sol.eigenvalues[1] == pytest.approx(-10.16552506, abs=1e-8)


def test_extended_anchors(sol_n15_extended):
    sol = sol_n15_extended
    assert sol.dim == 30
    for k, ref in ANCHORS_N15_A12.items():
        hi, lo = sol.eigenvalue_dd(k)
        assert hi + lo == pytest.approx(ref, abs=5e-12), f"k={k}"


def test_extended_pair_splits(sol_n15_extended):
    sol = sol_n15_extended
    for (k1, k2), ref in SPLITS_N15_A12.items():
        h1, l1 = sol.eigenvalue_dd(k1)
        h2, l2 = sol.eigenvalue_dd(k2)
        split = (h1 - h2) + (l1 - l2)
        assert split == pytest.approx(ref, rel=1e-5), f"pair ({k1},{k2})"


def test_simplicity_at_extended_tier(sol_n15_extended):
    sol = sol_n15_extended
    hs = sol.eigenvalues.astype(float)
    ls = sol.eigenvalues_lo
    gaps = [(hs[i] - hs[i + 1]) + (ls[i] - ls[i + 1]) for i in range(sol.dim - 1)]
    assert min(gaps) > 1e-13  # tightest pair sits near 1.7e-12


def test_double_tier_close_to_extended(sol_n15_extended):
    dbl = eigen_decompose(build_even_matrix(15, 12.0), Tier.DOUBLE)
    assert dbl.eigenvalues_lo is None
    np.testing.assert_allclose(dbl.eigenvalues, sol_n15_extended.eigenvalues,
                               rtol=0, atol=1e-9)


@pytest.mark.parametrize("builder,n,a", [
    (build_even_matrix, 2, 0.5), (build_even_matrix, 5, 12.0),
    (build_odd_matrix, 1, 2.0), (build_odd_matrix, 7, 6.0),
    (build_even_matrix, 15, 12.0), (build_odd_matrix, 15, 12.0),
])
def test_matches_lapack(builder, n, a):
    m = builder(n, a)
    sol = eigen_decompose(m)
    c, _ = symmetrize(m)
    ref = eigh_tridiagonal(m.diag.astype(float), c, eigvals_only=True)[::-1]
    scale = max(1.0, np.max(np.abs(ref)))
    np.testing.assert_allclose(sol.eigenvalues, ref, rtol=0, atol=1e-11 * scale)


@pytest.mark.parametrize("builder,n,a", [
    (build_even_matrix, 3, 1.0), (build_even_matrix, 15, 12.0),
    (build_odd_matrix, 10, 12.0), (build_even_matrix, 10, 0.5),
])
def test_residual_and_conventions(builder, n, a):
    m = builder(n, a)
    sol = eigen_decompose(m)
    for i in range(sol.dim):
        d = sol.eigenvectors[i]
        t = (m.diag - sol.eigenvalues[i]) * d
        t[:-1] += m.super * d[1:]
        t[1:] += m.sub * d[:-1]
        assert np.max(np.abs(t)) <= 1e-10 * (abs(sol.eigenvalues[i]) + m.a * m.dim)
        assert abs(np.sum(d * d) - 1.0) < 1e-12
        assert d[np.argmax(np.abs(d))] > 0  # sign convention
    # eigenvalue count and ordering
    assert sol.dim == m.dim
    assert np.all(np.diff(sol.eigenvalues) <= 0)
    # trace identity
    tr = float(np.sum(m.diag))
    assert np.sum(sol.eigenvalues) == pytest.approx(tr, rel=1e-9, abs=1e-9)


def test_a0_free_field_spectrum():
    m = build_even_matrix(2, 0.0)
    sol = eigen_decompose(m)
    np.testing.assert_array_equal(sol.eigenvalues, [16.0, 4.0, 4.0, 0.0])
    # the unique eta=16 state is the unit vector on r=2
    assert sol.eigenvectors[0] @ np.array([0, 0, 0, 1.0]) == pytest.approx(1.0)


def test_refine_trivial_1x1():
    assert refine_eigenvalue(build_odd_matrix(0, 9.0), 0.9) == 1.0


def test_refine_2x2_quadratic():
    got = refine_eigenvalue(build_even_matrix(1, 12.0), 14.1)
    assert got == pytest.approx(2.0 + math.sqrt(148.0), rel=1e-14)


def test_refine_figure_eigenvalue():
    got = refine_eigenvalue(build_even_matrix(15, 12.0), 718.09)
    assert got == pytest.approx(718.0928584847421093, abs=1e-12)


def test_refine_with_bracket():
    m = build_even_matrix(15, 12.0)
    got = refine_eigenvalue(m, 936.0, bracket=(900.0, 960.0))
    assert got == pytest.approx(936.0, abs=1e-10)
    with pytest.raises(InvalidBracketError):
        refine_eigenvalue(m, 718.09, bracket=(700.0, 760.0))  # contains the pair
    with pytest.raises(InvalidBracketError):
        refine_eigenvalue(m, 1500.0, bracket=(1400.0, 1600.0))  # contains none
    with pytest.raises(InvalidBracketError):
        refine_eigenvalue(m, 0.0, bracket=(10.0, 5.0))


def test_eigenvector_for_examples():
    np.testing.assert_array_equal(eigenvector_for(build_odd_matrix(0, 3.0), 1.0), [1.0])
    m = build_even_matrix(1, 12.0)
    eta = 2.0 + math.sqrt(148.0)
    d = eigenvector_for(m, eta)
    # first-row relation: -eta*D0 + a*D1 = 0
    assert d[1] / d[0] == pytest.approx(eta / 12.0, rel=1e-12)
    d0 = eigenvector_for(build_even_matrix(2, 0.0), 16.0)
    np.testing.assert_array_equal(d0, [0, 0, 0, 1.0])
    with pytest.raises(InvalidArgumentError):
        eigenvector_for(m, 5.0)


@given(parity=st.booleans(), n=st.integers(0, 60), log_a=st.floats(-12.0, 300.0),
       tier=st.sampled_from(Tier), u=st.floats(0.0, 1.0, exclude_max=True), mid=st.booleans())
@settings(max_examples=40, deadline=None)
def test_nearest_eigenpair_is_a_row_of_eigen_decompose(parity, n, log_a, tier, u, mid):
    # eta at a label or at the midpoint to the next one; a tie takes the
    # lower label, as np.argmin does
    m = build_even_matrix(max(n, 1), 10.0**log_a) if parity else build_odd_matrix(n, 10.0**log_a)
    try:
        sol = eigen_decompose(m, tier)
    except NumericalFailureError:  # the cluster rotation at a ~ 30-300 (ROADMAP item 1)
        assume(False)
    vals = sol.eigenvalues
    j = int(u * m.dim)
    eta = float(vals[j])
    if mid and j + 1 < m.dim:
        eta = 0.5 * (eta + float(vals[j + 1]))
    k = int(np.argmin(np.abs(vals - eta))) + 1
    pair = nearest_eigenpair(m, eta, tier)
    assert pair.k == k
    assert np.float64(pair.eigenvalue).tobytes() == vals[k - 1].tobytes()
    assert np.float64(pair.eigenvalue_lo).tobytes() == np.float64(sol.eigenvalue_dd(k)[1]).tobytes()
    assert pair.eigenvector.tobytes() == sol.eigenvectors[k - 1].tobytes()


@pytest.mark.parametrize("builder,n,a", [(build_even_matrix, 15, 12.0), (build_odd_matrix, 40, 0.5)])
def test_nearest_eigenpair_matches_on_the_bisection_fallback(monkeypatch, builder, n, a):
    # with no model step every label ends in _bisect_dd, the whole spectrum
    # in one call and the window in another; each bracket is bisected on its
    # own, so the rows still agree bit for bit
    m = builder(n, a)
    monkeypatch.setattr(es, "_model_step", lambda ph, pl, gap: np.full(gap.shape, np.nan))
    with mock.patch.object(es, "_bisect_dd", wraps=es._bisect_dd) as spy:
        sol = eigen_decompose(m, Tier.EXTENDED)
        for k in (1, 2, m.dim // 2, m.dim):
            pair = nearest_eigenpair(m, float(sol.eigenvalues[k - 1]), Tier.EXTENDED)
            assert pair.k == k
            assert np.float64(pair.eigenvalue).tobytes() == sol.eigenvalues[k - 1].tobytes()
            assert (np.float64(pair.eigenvalue_lo).tobytes()
                    == np.float64(sol.eigenvalue_dd(k)[1]).tobytes())
            assert pair.eigenvector.tobytes() == sol.eigenvectors[k - 1].tobytes()
    assert spy.call_count == 5 and spy.call_args_list[0].args[6].size == m.dim


def test_nearest_eigenpair_solves_the_window_only():
    # odd n=40, a=0.5: its pairs are clusters; the refinement runs on the
    # clusters around eta and the two ends of the spectrum, and label 1's
    # residual is not checked
    m = build_odd_matrix(40, 0.5)
    sol = eigen_decompose(m, Tier.EXTENDED)
    with mock.patch.object(es, "_eigenvalues_dd", wraps=es._eigenvalues_dd) as spy, \
            mock.patch.object(es, "_check_residuals", wraps=es._check_residuals) as check:
        pair = nearest_eigenpair(m, float(sol.eigenvalues[40]), Tier.EXTENDED)
    idx = spy.call_args.args[2]  # ascending
    assert pair.k in (40, 41) and {0, m.dim - pair.k, m.dim - 1} <= set(idx.tolist())
    assert len(idx) <= 10
    assert check.call_count == 1 and 1 <= len(check.call_args.args[1]) <= 2


def test_sturm_count_against_spectrum():
    m = build_even_matrix(15, 12.0)
    vals = eigen_decompose(m).eigenvalues
    for probe in (-400.0, -163.0, 0.0, 36.0, 36.2, 500.0, 1000.0):
        assert sturm_count(m, probe) == int(np.sum(vals < probe))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(parity=st.booleans(), n=st.integers(1, 40), log_a=st.floats(-12.0, 300.0))
@settings(max_examples=40, deadline=None)
def test_sturm_count_over_the_whole_a_range(parity, n, log_a):
    # at every gap midpoint float64 resolves, and at both ends of the float
    # range, the count equals the LAPACK index, without a numpy warning; the
    # products super*sub overflow float64 above a ~ 1e154
    from incewave.eigensolver import _lapack_eigh, _scaled_problem

    m = build_even_matrix(n, 10.0**log_a) if parity else build_odd_matrix(n, 10.0**log_a)
    diag, c, _, e = _scaled_problem(m)
    vals = np.ldexp(_lapack_eigh(diag, c)[0], e)
    for i in np.flatnonzero(np.diff(vals) > 1e-8 * float(np.max(np.abs(vals)))):
        assert sturm_count(m, 0.5 * (vals[i] + vals[i + 1])) == i + 1, f"gap after {i + 1}"
    big = np.finfo(float).max
    assert (sturm_count(m, -big), sturm_count(m, big)) == (0, m.dim)


def _count_dd_reference(diag, g_dd, xh, xl, derivs=False):
    """Reference for es._count_dd, which must match it bit for bit: one
    dd_mul per product, and the rescale multiplies and the zero-sign rule on
    every row."""
    _BIG, _SMALL, _DOWN, _UP = es._BIG, es._SMALL, es._DOWN, es._UP
    xh = np.atleast_1d(np.asarray(xh, dtype=float))
    xl = np.broadcast_to(np.asarray(xl, dtype=float), xh.shape)
    gh, gl = g_dd
    th, tl = ddc.dd_add(diag[:, None], 0.0, -xh, -xl)
    p2h = np.zeros((3 if derivs else 1,) + xh.shape)
    p2l, p1h, p1l = np.zeros_like(p2h), np.zeros_like(p2h), np.zeros_like(p2h)
    p2h[0], p1h[0], p1l[0] = 1.0, th[0], tl[0]
    if derivs:
        p1h[1] = -1.0
    cnt = np.zeros(xh.shape, dtype=np.int64)
    ex = np.zeros(xh.shape, dtype=np.int64)
    sprev = np.ones(xh.shape)
    for j in range(len(diag)):
        if j > 0:
            ah, al = ddc.dd_mul(th[j], tl[j], p1h, p1l)
            bh, bl = ddc.dd_mul(gh[j - 1], gl[j - 1], p2h, p2l)
            ph, pl = ddc.dd_sub(ah, al, bh, bl)
            if derivs:
                ph[1:], pl[1:] = ddc.dd_sub(ph[1:], pl[1:], p1h[:-1], p1l[:-1])
            p2h, p2l, p1h, p1l = p1h, p1l, ph, pl
            mx = np.max(np.maximum(np.abs(p1h), np.abs(p2h)), axis=0)
            f = np.where(mx > _BIG, _DOWN, 1.0)
            f = np.where((mx > 0) & (mx < _SMALL), _UP, f)
            p1h, p1l = p1h * f, p1l * f
            p2h, p2l = p2h * f, p2l * f
            if derivs:
                ex -= np.frexp(f)[1] - 1
        s = ddc.dd_sign(p1h[0], p1l[0])
        s = np.where(s == 0, -sprev, s)
        cnt += s != sprev
        sprev = s
    return (cnt, p1h, p1l, ex) if derivs else cnt


def _assert_count_dd_matches_reference(diag, g_dd, xh, xl):
    """Counts, p, p', p''/2 and the exponent agree bit for bit (signed zeros
    included) with the reference pass; returns the exponents."""
    assert np.array_equal(es._count_dd(diag, g_dd, xh, xl),
                          _count_dd_reference(diag, g_dd, xh, xl))
    got = es._count_dd(diag, g_dd, xh, xl, derivs=True)
    ref = _count_dd_reference(diag, g_dd, xh, xl, derivs=True)
    for name, x, y in zip(("counts", "ph", "pl", "ex"), got, ref):
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), name
    return got[3]


@given(parity=st.booleans(), n=st.integers(0, 60), log_a=st.floats(-12.0, 300.0))
@settings(max_examples=40, deadline=None)
def test_count_dd_matches_reference_pass(parity, n, log_a):
    # at the LAPACK values, 1e-26 of the scale to either side of them (the
    # certification shifts of the extended tier) and the Gershgorin ends
    m = build_even_matrix(max(n, 1), 10.0**log_a) if parity else build_odd_matrix(n, 10.0**log_a)
    diag, c, g_dd, _ = es._scaled_problem(m)
    vals = es._lapack_eigh(diag, c)[0]
    t = 1e-26 * float(np.max(np.abs(vals)))
    xh, xl = ddc.dd_add(np.tile(vals, 3), 0.0, np.repeat([0.0, -t, t], vals.size), 0.0)
    ends = np.array(es._gershgorin(diag, c))
    _assert_count_dd_matches_reference(diag, g_dd, np.concatenate([xh, ends]),
                                       np.concatenate([xl, [0.0, 0.0]]))


@pytest.mark.parametrize("builder,n,a,shift,direction", [
    (build_even_matrix, 100, 12.0, "eigenvalues", -1),  # minors below 1e-200: up
    (build_odd_matrix, 120, 0.5, "eigenvalues", -1),
    (build_even_matrix, 160, 12.0, "below", 1),  # minors above 1e200: down
])
def test_count_dd_matches_reference_when_rescaling(builder, n, a, shift, direction):
    m = builder(n, a)
    diag, c, g_dd, _ = es._scaled_problem(m)
    if shift == "eigenvalues":
        xs = es._lapack_eigh(diag, c)[0]
    else:  # 8 below the Gershgorin interval every factor d_j - x exceeds 8
        xs = np.array([es._gershgorin(diag, c)[0] - 8.0])
    ex = _assert_count_dd_matches_reference(diag, g_dd, xs, 0.0)
    assert np.any(np.sign(ex) == direction)


def test_count_dd_matches_reference_on_hand_made_cases():
    # symmetric off-diagonal 1/2 and diagonal 1/2, eigenvalues 1/2 and
    # 1/2 +- 1/sqrt(2): at x = 1/2 the first and third leading minors are
    # exactly zero, and the zero-sign rule counts the eigenvalue at x as below
    diag, g_dd = np.full(3, 0.5), (np.full(2, 0.25), np.zeros(2))
    assert es._count_dd(diag, g_dd, 0.5, 0.0).tolist() == [2]
    _assert_count_dd_matches_reference(diag, g_dd, np.array([0.5, 0.0, 1.5]), 0.0)
    # the first two minors, 1e-250 and about 1e-250, are below 1e-200: the
    # count pass rescales after the second, and without that the third
    # underflows to zero and takes the opposite sign
    diag, g_dd = np.array([0.5, 1.5, 0.5]), (np.array([1e-260, 1e-251]), np.zeros(2))
    assert es._count_dd(diag, g_dd, 0.5, -1e-250).tolist() == [0]
    _assert_count_dd_matches_reference(diag, g_dd, np.array([0.5]), np.array([-1e-250]))
    # no shifts at all
    m = build_odd_matrix(5, 12.0)
    diag, _, g_dd, _ = es._scaled_problem(m)
    _assert_count_dd_matches_reference(diag, g_dd, np.empty(0), np.empty(0))


@pytest.mark.parametrize("builder,n,a,count_at,newton_at", [
    (build_odd_matrix, 15, 12.0, "eigenvalues", "ends"),
    (build_even_matrix, 100, 12.0, "eigenvalues", "ends"),  # count columns rescale up
    (build_even_matrix, 100, 12.0, "ends", "eigenvalues"),  # Newton columns rescale up
    (build_even_matrix, 160, 12.0, "below", "eigenvalues"),  # count columns rescale down
    (build_even_matrix, 160, 12.0, "eigenvalues", "below"),  # Newton columns rescale down
])
def test_count_dd_mixed_columns_match_reference_passes(builder, n, a, count_at, newton_at):
    # the first pass of _refine_dd: count-only columns ahead of Newton columns;
    # each kind must equal its own reference pass in bytes, whichever columns
    # set off a rescale
    m = builder(n, a)
    diag, c, g_dd, _ = es._scaled_problem(m)
    vals = es._lapack_eigh(diag, c)[0]
    glo, ghi = es._gershgorin(diag, c)
    shifts = {"eigenvalues": vals, "ends": np.array([glo, ghi]), "below": np.array([glo - 8.0])}
    xc, xn = shifts[count_at], shifts[newton_at]
    lc, ln = np.zeros(xc.size), np.full(xn.size, 1e-20)
    cnt, ph, pl, ex = es._count_dd(diag, g_dd, np.concatenate([xc, xn]), np.concatenate([lc, ln]),
                                   derivs=True, count_cols=xc.size)
    assert cnt[:xc.size].tobytes() == _count_dd_reference(diag, g_dd, xc, lc).tobytes()
    ref = _count_dd_reference(diag, g_dd, xn, ln, derivs=True)
    for name, x, y in zip(("counts", "ph", "pl", "ex"), (cnt, ph, pl, ex), ref):
        assert x[..., xc.size:].tobytes() == y.tobytes(), name
    assert not np.any(ph[1:, :xc.size]) and not np.any(pl[1:, :xc.size])


def _char_poly_mp(m, eta):
    """det(m - eta I) by the minor recurrence in 80-digit arithmetic."""
    import mpmath as mp

    with mp.workdps(80):
        x = mp.mpf(eta)
        pm2, pm1 = mp.mpf(1), mp.mpf(m.diag[0]) - x
        for j in range(1, m.dim):
            g = mp.mpf(m.super[j - 1]) * mp.mpf(m.sub[j - 1])
            pm2, pm1 = pm1, (mp.mpf(m.diag[j]) - x) * pm1 - g * pm2
        return pm1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("builder,n,a", [
    *((b, n, a) for b in (build_even_matrix, build_odd_matrix)
      for n in (1, 5, 12, 30) for a in (0.5, 12.0, 1e5, 1e150)),
    (build_even_matrix, 100, 0.5), (build_odd_matrix, 150, 12.0)])
def test_char_poly_matches_80_digit_recurrence(builder, n, a):
    # at gap midpoints, where float64 minors lose every digit to cancellation
    # (even n=30, a=12), and at the ends of the float range; at the two large
    # dimensions the pass rescales its minors by 2**600
    import mpmath as mp

    m = builder(n, a)
    vals = eigen_decompose(m).eigenvalues
    mids = 0.5 * (vals[:-1] + vals[1:])
    for eta in [*mids[::max(1, m.dim // 50)], 1e308, -1e308]:
        mant, exp2 = char_poly_scaled(m, eta)
        ref = _char_poly_mp(m, eta)
        with mp.workdps(80):
            err = abs(mp.ldexp(mp.mpf(mant), exp2) - ref) / abs(ref)
        assert err < 1e-14, f"eta={eta!r}: relative error {float(err):.3g}"


def test_sturm_count_on_the_diagonal():
    # with every coupling zero the count is exact at the diagonal entries
    # themselves, where a minor is exactly zero
    for m in (build_even_matrix(3, 0.0), build_odd_matrix(4, 0.0), build_odd_matrix(0, 5.0)):
        for x in m.diag:
            assert sturm_count(m, x) == int(np.sum(m.diag < x))


@pytest.mark.parametrize("fn", [sturm_count, char_poly_scaled, char_poly_eval])
@pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf])
def test_non_finite_shift_rejected(fn, eta):
    with pytest.raises(InvalidArgumentError, match="finite"):
        fn(build_even_matrix(5, 12.0), eta)


@pytest.mark.filterwarnings("error")
def test_brackets_reaching_the_float_range():
    # even n=1, a=12 has the eigenvalues 2 +- sqrt(148): a bracket around
    # both holds two, one from -1e300 to 0 isolates the lower
    m = build_even_matrix(1, 12.0)
    with pytest.raises(InvalidBracketError, match="isolates 2"):
        refine_eigenvalue(m, 14.1, bracket=(-1e300, 1e300))
    got = refine_eigenvalue(m, 14.1, bracket=(-1e300, 0.0))
    assert got == pytest.approx(2.0 - math.sqrt(148.0), rel=1e-15)


@given(parity=st.booleans(), n=st.integers(1, 8),
       a=st.floats(0.01, 30.0, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_random_configs_match_lapack(parity, n, a):
    m = build_even_matrix(n, a) if parity else build_odd_matrix(n, a)
    sol = eigen_decompose(m)
    c, _ = symmetrize(m)
    ref = eigh_tridiagonal(m.diag.astype(float), c, eigvals_only=True)[::-1]
    scale = max(1.0, float(np.max(np.abs(ref))))
    np.testing.assert_allclose(sol.eigenvalues, ref, rtol=0, atol=1e-10 * scale)


@given(n=st.integers(2, 12), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_pivoted_tridiagonal_solve_matches_dense(n, seed):
    from incewave.eigensolver import _factor_shifted, _solve_factored

    rng = np.random.default_rng(seed)
    d = rng.normal(size=n) * rng.choice([1e-3, 1.0, 1e3], size=n)
    e = rng.normal(size=n - 1)
    b = rng.normal(size=n)
    dense = np.diag(d)
    dense[np.arange(n - 1), np.arange(1, n)] = e
    dense[np.arange(1, n), np.arange(n - 1)] = e
    if abs(np.linalg.det(dense)) < 1e-8:
        return  # near-singular systems are the inverse-iteration regime
    x = _solve_factored(_factor_shifted(d, e), b)[:, 0]
    ref = np.linalg.solve(dense, b)
    np.testing.assert_allclose(x, ref, rtol=1e-8, atol=1e-10 * np.abs(ref).max())
    # a trailing axis of k shifts solves k systems in one call, each exactly as
    # a single solve would
    k = int(rng.integers(1, 5))
    shifted = d[:, None] - rng.normal(size=k)[None, :]
    rhs = rng.normal(size=(n, k))
    xs = _solve_factored(_factor_shifted(shifted, e), rhs)
    assert xs.shape == (n, k)
    for j in range(k):
        np.testing.assert_array_equal(
            xs[:, j], _solve_factored(_factor_shifted(shifted[:, j], e), rhs[:, j])[:, 0])


@pytest.mark.parametrize("a", [1e200, 1e300])
def test_inverse_sweep_normalizes_solves_at_extreme_a(monkeypatch, a):
    # the solves shrink as 1/|mu|, so their squares underflow and their plain
    # norms read 0: each column must still be its solve normalized, not its
    # input kept
    monkeypatch.setattr(es, "_SWEEPS", 1)
    m = build_odd_matrix(3, a)
    diag, c, _, e = es._scaled_problem(m)
    asc, v = es._lapack_eigh(diag, c)
    mu, v = np.ldexp(asc[::-1], e), v[:, ::-1]
    dsym, csym = m.diag.astype(float), np.ldexp(c, e)
    w = es._solve_factored(es._factor_shifted(dsym[:, None] - mu[None, :], csym), v)
    assert not np.any(np.linalg.norm(w, axis=0))
    out = es._inverse_sweeps(dsym, csym, mu, v, es._cluster_slices(mu))
    assert not np.array_equal(out, v)
    np.testing.assert_allclose(np.linalg.norm(out, axis=0), 1.0, rtol=0, atol=4 * np.finfo(float).eps)
    np.testing.assert_allclose(out / np.max(np.abs(out), axis=0), w / np.max(np.abs(w), axis=0),
                               rtol=0, atol=4 * np.finfo(float).eps)


# References for the vector stage, which must match it bit for bit: the
# solve that eliminates afresh for every right-hand side, and the QR, Gram
# form, eigh and ordering of one cluster at a time.


def _solve_shifted_reference(dshift, e, rhs):
    """Solve T x = rhs for tridiagonal T(diag dshift, offdiag e) by Gaussian
    elimination with partial pivoting; tiny pivots are replaced (the standard
    inverse-iteration treatment of a numerically singular shift). dshift and
    rhs may carry a trailing axis of k shifts, solved as k independent
    systems that share e."""
    _EPS = es._EPS
    shape = np.shape(dshift)
    n = shape[0]
    dm = np.array(dshift, dtype=float).reshape(n, -1)
    x = np.array(rhs, dtype=float).reshape(dm.shape)
    du = np.repeat(np.reshape(e, (-1, 1)).astype(float), dm.shape[1], axis=1)
    du2 = np.zeros_like(du)
    tiny = _EPS * (np.max(np.abs(dm), axis=0) + 2 * (np.max(np.abs(e)) if e.size else 0.0) + 1.0)
    for i in range(n - 1):
        piv = np.abs(dm[i]) < abs(e[i])
        dmi = np.where(piv, e[i], np.where(dm[i] == 0.0, tiny, dm[i]))
        fact = np.where(piv, dm[i], e[i]) / dmi
        nxt = dm[i + 1].copy()
        dm[i] = dmi
        dm[i + 1] = np.where(piv, du[i] - fact * nxt, nxt - fact * du[i])
        if i < n - 2:
            du2[i] = np.where(piv, du[i + 1], 0.0)
            du[i + 1] = np.where(piv, -fact * du[i + 1], du[i + 1])
        du[i] = np.where(piv, nxt, du[i])
        xi = x[i].copy()
        x[i] = np.where(piv, x[i + 1], xi)
        x[i + 1] = np.where(piv, xi - fact * x[i + 1], x[i + 1] - fact * xi)
    for i in range(n - 1, -1, -1):
        acc = x[i]
        if i + 1 < n:
            acc = acc - du[i] * x[i + 1]
        if i + 2 < n:
            acc = acc - du2[i] * x[i + 2]
        x[i] = acc / np.where(dm[i] != 0, dm[i], tiny)
    return x.reshape(shape)


def _inverse_sweeps_reference(dsym, c, mu, v, clusters):
    """Inverse iteration at the shifts mu (descending) for all columns of v at
    once, re-orthonormalized within every cluster after each sweep. Solves
    shrink as 1/|mu|: one below 1/2 is scaled up by an exact power of two so
    that its norm does not underflow. A column whose solve does not stay
    finite (near the top of the float range) keeps its previous vector."""
    _SWEEPS, _solve_shifted = es._SWEEPS, _solve_shifted_reference
    for _ in range(_SWEEPS):
        with np.errstate(over="ignore", invalid="ignore"):
            w = _solve_shifted(dsym[:, None] - mu[None, :], c, v)
            w = np.ldexp(w, np.maximum(-np.frexp(np.max(np.abs(w), axis=0))[1], 0))
        norm = np.linalg.norm(w, axis=0)
        ok = np.isfinite(norm) & (norm > 0)
        w = np.where(ok, w / np.where(ok, norm, 1.0), v)
        for sl in clusters:
            if sl.stop - sl.start > 1:
                w[:, sl] = np.linalg.qr(w[:, sl])[0]
        v = w
    return v


def _rotate_clusters_reference(m: TridiagonalMatrix, clusters: list[slice], v: np.ndarray,
                               d: np.ndarray) -> np.ndarray:
    """Rotate the orthonormal columns v of the symmetrized matrix within every
    near-degenerate cluster to diagonalize the bilinear Gram form of the
    coefficient vectors v / d, and order each cluster's members by descending
    compensated quotient (d v) . M (v / d) / ((d v) . (v / d))."""
    bilinear_weight_kernel, _rayleigh_dd = es.bilinear_weight_kernel, es._rayleigh_dd
    clusters = [sl for sl in clusters if sl.stop - sl.start > 1]
    if not clusters:
        return v
    v = v.copy()
    weight = bilinear_weight_kernel(m.xi_frequencies, m.a)
    for sl in clusters:
        with np.errstate(over="ignore", invalid="ignore"):
            u = v[:, sl] / d[:, None]
            gram = u.T @ weight @ u
        if not np.all(np.isfinite(gram)):
            raise NumericalFailureError(
                f"cluster rotation for labels k={sl.start + 1}..{sl.stop}: Gram form not "
                f"finite (smallest scale factor {float(np.min(d))!r})")
        v[:, sl] = v[:, sl] @ np.linalg.eigh(gram)[1]
    cols = np.concatenate([np.arange(sl.start, sl.stop) for sl in clusters])
    qh, ql = np.empty(v.shape[1]), np.empty(v.shape[1])
    qh[cols], ql[cols] = _rayleigh_dd(m, v[:, cols] / d[:, None], v[:, cols] * d[:, None])
    for sl in clusters:
        v[:, sl] = v[:, sl][:, np.lexsort((-ql[sl], -qh[sl]))]
    return v



def _vector_stage(stage, reference, args):
    """Bytes of the outputs of a stage and its reference, or their errors, on
    args. Above a = 2e10 the Bessel table refuses the Gram form's weight
    (InvalidArgumentError)."""
    out = []
    for fn in (stage, reference):
        try:
            with np.errstate(all="ignore"):
                out.append(fn(*args).tobytes())
        except (NumericalFailureError, InvalidArgumentError) as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


def _random_partition(dim, rng):
    """Consecutive clusters of random sizes 1-5 covering dim labels."""
    bounds = np.minimum(np.cumsum(rng.integers(1, 6, size=dim)), dim)
    bounds = [0, *np.unique(bounds).tolist()]
    return [slice(i, j) for i, j in zip(bounds[:-1], bounds[1:])]


@given(parity=st.sampled_from(["even", "odd"]), n=st.integers(1, 80),
       log_a=st.floats(-12.0, 300.0), rotation_log_a=st.floats(-12.0, 10.0),
       tier=st.sampled_from(list(Tier)), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_vector_stage_matches_reference(parity, n, log_a, rotation_log_a, tier, seed):
    # the shifts of either tier, the LAPACK starting vectors, and random
    # clusters (stacks of one and of several matrices per size); a second a
    # below 1e10 reaches the rotation, which raises above 2e10
    builder = build_even_matrix if parity == "even" else build_odd_matrix
    clusters = None
    for a in (10.0**log_a, 10.0**rotation_log_a):
        m = builder(n, a)
        mu, _, _, _, v, c = es._values(m, tier)
        clusters = clusters or _random_partition(m.dim, np.random.default_rng(seed))
        got, ref = _vector_stage(es._inverse_sweeps, _inverse_sweeps_reference,
                                 (m.diag.astype(float), c, mu, v, clusters))
        assert got == ref
        got, ref = _vector_stage(es._rotate_clusters, _rotate_clusters_reference,
                                 (m, clusters, v, es._similarity_scale(m)))
        assert got == ref


@pytest.mark.parametrize("dshift,e", [
    ([0.0], []),  # dimension 1, a zero pivot
    ([3.0], []),
    ([1.0, 1.0], [1.0]),  # no exchange; the last pivot is exactly zero
    ([0.5, -2.0], [1.5]),  # an exchange
    ([0.0, 2.0, 3.0], [0.0, 1.0]),  # the first pivot is exactly zero
    ([1.0, 1.0, 5.0, -1.0], [1.0, 2.0, 4.0]),
])
def test_pivoted_tridiagonal_solve_matches_reference_at_zero_pivots(dshift, e):
    # a zero pivot of U is replaced by the tiny pivot: the solve stays
    # finite and equals the reference in bytes, for one or two shifts
    dshift, e = np.array(dshift), np.array(e)
    rhs = np.linspace(1.0, 2.0, dshift.size)
    x = es._solve_factored(es._factor_shifted(dshift, e), rhs)
    assert np.all(np.isfinite(x))
    assert x.tobytes() == _solve_shifted_reference(dshift, e, rhs).tobytes()
    shifted = dshift[:, None] - np.array([0.0, 0.25])
    rhs2 = np.stack([rhs, rhs[::-1]], axis=1)
    assert (es._solve_factored(es._factor_shifted(shifted, e), rhs2).tobytes()
            == _solve_shifted_reference(shifted, e, rhs2).tobytes())


@pytest.mark.parametrize("builder,n,a", [
    (build_odd_matrix, 0, 2.0),  # dimension 1
    (build_even_matrix, 1, 12.0),  # dimension 2
    (build_even_matrix, 1, 1e-9),  # dimension 2, one cluster of two
    (build_odd_matrix, 1, 1e-9),  # dimension 3, one pair and a singleton
])
@pytest.mark.parametrize("tier", list(Tier))
def test_vector_stage_matches_reference_at_small_dimensions(builder, n, a, tier):
    m = builder(n, a)
    d = es._similarity_scale(m)
    c = symmetrize(m)[0]
    mu = es.eigenvalues(m, tier)
    v = np.eye(m.dim)[:, ::-1].copy()
    for clusters in ([slice(0, m.dim)], [slice(i, i + 1) for i in range(m.dim)]):
        args = (m.diag.astype(float), c, mu, v, clusters)
        got, ref = _vector_stage(es._inverse_sweeps, _inverse_sweeps_reference, args)
        assert got == ref
        got, ref = _vector_stage(es._rotate_clusters, _rotate_clusters_reference,
                                 (m, clusters, v, d))
        assert got == ref


def test_stacked_qr_and_eigh_of_one_matrix_match_single_calls():
    # a size with one cluster is a stack of one matrix
    rng = np.random.default_rng(3)
    w = rng.normal(size=(7, 5))
    cols = np.array([[1, 2, 3]])
    blocks = es._blocks(w, cols)
    assert blocks.shape == (1, 7, 3) and blocks.flags.c_contiguous
    assert np.linalg.qr(blocks)[0][0].tobytes() == np.linalg.qr(w[:, 1:4])[0].tobytes()
    g = blocks[0].T @ blocks[0]
    assert np.linalg.eigh(g[None])[1][0].tobytes() == np.linalg.eigh(g)[1].tobytes()
    out = w.copy()
    es._put_blocks(out, cols, blocks[:, :, ::-1])
    assert np.array_equal(out[:, [0, 4]], w[:, [0, 4]])
    assert np.array_equal(out[:, 1:4], w[:, 3:0:-1])


def test_lowest_failing_cluster_is_named():
    # even n=600, a=12: the Gram forms of many clusters are not finite; the
    # message names the lowest, as a cluster-by-cluster pass does
    with pytest.raises(NumericalFailureError) as exc:
        eigen_decompose(build_even_matrix(600, 12.0))
    assert str(exc.value) == ("cluster rotation for labels k=692..693: Gram form not finite "
                              "(smallest scale factor 2.2458881269338526e-180)")


@given(parity=st.booleans(), n=st.integers(1, 60), log_a=st.floats(-3.0, 2.0))
@settings(max_examples=40, deadline=None)
def test_double_tier_eigenvalues_certified_by_sturm_count(parity, n, log_a):
    # the double-double Sturm count runs on the minor recurrence, independent
    # of LAPACK: at the midpoint of every gap that float64 can resolve, it must
    # count exactly the eigenvalues below. The values are those of the LAPACK
    # stage that eigen_decompose returns at the double tier; eigen_decompose
    # itself is not called, as its cluster rotation still fails for part of
    # this range (dimension >= 40 with a >= ~30).
    from incewave.eigensolver import _lapack_eigh, _scaled_problem

    m = build_even_matrix(n, 10.0**log_a) if parity else build_odd_matrix(n, 10.0**log_a)
    diag, c, _, e = _scaled_problem(m)
    vals = np.ldexp(_lapack_eigh(diag, c)[0], e)
    assert np.all(np.diff(vals) >= 0)
    wide = np.flatnonzero(np.diff(vals) > 1e-8 * max(1.0, float(np.max(np.abs(vals)))))
    for i in wide:
        assert sturm_count(m, 0.5 * (vals[i] + vals[i + 1])) == i + 1, f"gap after {i + 1}"
    assert sturm_count(m, vals[0] - 1.0) == 0
    assert sturm_count(m, vals[-1] + 1.0) == m.dim


def _mpmath_eigsy(m):
    """(vals, vecs, scale): mpmath.eigsy of the symmetrized matrix at the
    working precision, and the similarity scale (a column v of vecs maps back
    to the coefficient vector v / scale)."""
    import mpmath as mp

    sym = mp.zeros(m.dim)
    scale = [mp.mpf(1)]
    for i in range(m.dim):
        sym[i, i] = mp.mpf(float(m.diag[i]))
    for i in range(m.dim - 1):
        up, down = mp.mpf(float(m.super[i])), mp.mpf(float(m.sub[i]))
        sym[i, i + 1] = sym[i + 1, i] = mp.sqrt(up * down)
        scale.append(scale[-1] * mp.sqrt(up / down))
    vals, vecs = mp.eigsy(sym)
    return vals, vecs, scale


def _mpmath_vectors(m):
    """Unit, sign-fixed coefficient vectors (descending eigenvalues) from a
    60-digit mpmath.eigsy solve of the symmetrized matrix."""
    import mpmath as mp

    with mp.workdps(60):
        vals, vecs, scale = _mpmath_eigsy(m)
        out = np.empty((m.dim, m.dim))
        for row, j in enumerate(sorted(range(m.dim), key=lambda j: -vals[j])):
            col = [vecs[i, j] / scale[i] for i in range(m.dim)]
            norm = mp.sqrt(mp.fsum(x * x for x in col))
            out[row] = [float(x / norm) for x in col]
    peak = out[np.arange(m.dim), np.argmax(np.abs(out), axis=1)]
    return out * np.sign(peak)[:, None]


@pytest.fixture(scope="module")
def mpmath_vectors_a12():
    return {(parity, n): _mpmath_vectors(builder(n, 12.0))
            for parity, builder in (("even", build_even_matrix), ("odd", build_odd_matrix))
            for n in (15, 20)}


@pytest.mark.parametrize("n", [15, 20])
@pytest.mark.parametrize("tier", [Tier.DOUBLE, Tier.EXTENDED])
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_eigenvectors_match_mpmath_reference(mpmath_vectors_a12, parity, tier, n):
    # the tightest pairs split by 1.7e-12 (even n=15) and 1.95e-13 (odd
    # n=15), below one ulp of their values, and yet every vector is right to
    # rounding level: the cluster rotation works in the symmetric basis, in
    # which the true vectors are orthonormal, and orders the members by a
    # two-sided compensated Rayleigh quotient. The rotation the solver had
    # before mixed or swapped members by up to 0.55 here.
    builder = build_even_matrix if parity == "even" else build_odd_matrix
    sol = eigen_decompose(builder(n, 12.0), tier)
    err = np.max(np.abs(sol.eigenvectors - mpmath_vectors_a12[(parity, n)]))
    assert err < 1e-12


def test_residual_check_rejects_non_finite_rows():
    # NaN > tol is False; the check must still fail on a NaN row
    from incewave.eigensolver import _check_residuals

    m = build_even_matrix(3, 1.0)
    sol = eigen_decompose(m)
    vecs = sol.eigenvectors.copy()
    vecs[2, 1] = np.nan
    with pytest.raises(NumericalFailureError, match="k=3"):
        _check_residuals(m, sol.eigenvalues, vecs)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [520, 600])
def test_overflowing_back_transform_raises(n):
    # the diagonal scaling reaches 1e-150 and below: the back-transform or
    # the cluster rotation overflows, which must raise rather than return
    # NaN or zero rows
    with pytest.raises(NumericalFailureError):
        eigen_decompose(build_even_matrix(n, 12.0))


# 50-digit references for the odd family n=15, a=12 (descending); its top
# pair splits by only 1.95e-13, right at the float64 ulp of the values
ODD_ANCHORS_N15_A12 = {
    1: 997.0,
    2: 879.6051912533819795491,
    3: 879.6051912533817845801,
    4: 770.8409067987371411699,
    5: 770.8409067984677888315,
    16: 339.8675523094760106743,
    31: -342.414286220816288245,
}


def test_extended_odd_family_anchors():
    sol = eigen_decompose(build_odd_matrix(15, 12.0), Tier.EXTENDED)
    for k, ref in ODD_ANCHORS_N15_A12.items():
        hi, lo = sol.eigenvalue_dd(k)
        assert hi + lo == pytest.approx(ref, abs=5e-12), f"k={k}"
    h2, l2 = sol.eigenvalue_dd(2)
    h3, l3 = sol.eigenvalue_dd(3)
    assert (h2 - h3) + (l2 - l3) == pytest.approx(1.9496897e-13, rel=1e-4)


def test_extended_tier_matches_mpmath_oracle():
    # independent 30-digit eigensolve of the symmetrized matrix (mpmath QL),
    # compared against the compensated bisection to ~1e-22
    import mpmath as mp

    mp.mp.dps = 30
    for builder, n, a in [(build_even_matrix, 4, 12.0), (build_odd_matrix, 3, 2.5)]:
        m = builder(n, a)
        c, _ = symmetrize(m)
        sym = mp.zeros(m.dim)
        for i in range(m.dim):
            sym[i, i] = mp.mpf(float(m.diag[i]))
        for i in range(m.dim - 1):
            # exact product, then high-precision square root
            v = mp.sqrt(mp.mpf(float(m.super[i])) * mp.mpf(float(m.sub[i])))
            sym[i, i + 1] = v
            sym[i + 1, i] = v
        ref = sorted([mp.mpf(x) for x in mp.eigsy(sym, eigvals_only=True)], reverse=True)
        sol = eigen_decompose(m, Tier.EXTENDED)
        for k in range(1, sol.dim + 1):
            hi, lo = sol.eigenvalue_dd(k)
            err = abs((mp.mpf(hi) + mp.mpf(lo)) - ref[k - 1])
            assert err < mp.mpf("1e-22") * max(1, abs(ref[k - 1])), f"k={k}"


def test_compensated_count_resolves_tight_pair(sol_n15_extended):
    # a compensated Sturm count at the compensated midpoint of the pair that
    # splits by 1.7e-12 must separate the two members
    from incewave import ddcore as ddc
    from incewave.eigensolver import _count_dd

    m = build_even_matrix(15, 12.0)
    sol = sol_n15_extended
    h2, l2 = sol.eigenvalue_dd(2)
    h3, l3 = sol.eigenvalue_dd(3)
    mid_h, mid_l = ddc.dd_scale_pow2(*ddc.dd_add(h2, l2, h3, l3), 0.5)
    g_dd = ddc.two_prod(m.super, m.sub)
    n_mid = int(_count_dd(m.diag, g_dd, np.array([mid_h]), np.array([mid_l]))[0])
    n_below = int(_count_dd(m.diag, g_dd, np.array([h3 - 1e-6]), np.array([0.0]))[0])
    n_above = int(_count_dd(m.diag, g_dd, np.array([h2 + 1e-6]), np.array([0.0]))[0])
    assert n_mid == n_below + 1
    assert n_above == n_below + 2


def test_pair_member_assignment(sol_n15_extended):
    # the eigenvector stored at label 5 must belong to the lower pair member
    # (718.0928584847...), not its partner 2.1e-9 above: its compensated
    # Rayleigh quotient decides by four orders of magnitude
    from incewave.eigensolver import _rayleigh_dd

    m = build_even_matrix(15, 12.0)
    sol = sol_n15_extended
    for k in (4, 5):
        rh, rl = _rayleigh_dd(m, sol.eigenvectors[k - 1])
        h_own, l_own = sol.eigenvalue_dd(k)
        h_oth, l_oth = sol.eigenvalue_dd(9 - k)
        assert abs((rh - h_own) + (rl - l_own)) < 1e-4 * abs((rh - h_oth) + (rl - l_oth))


@given(parity=st.booleans(), n=st.integers(1, 60), log_a=st.floats(-3.0, 3.0))
@settings(max_examples=16, deadline=None)
def test_extended_values_certified_and_match_bisection(parity, n, log_a):
    # every extended value must sit at a count transition of the
    # double-double Sturm sequence, count(x - target) <= k-1 < k <=
    # count(x + target), and within target of plain bisection from the same
    # seed brackets; both in the solver's power-of-two scaled units
    m = build_even_matrix(n, 10.0**log_a) if parity else build_odd_matrix(n, 10.0**log_a)
    problem = es._scaled_problem(m)
    seeds = es._lapack_eigh(*problem[:2])[0]
    with mock.patch.object(es, "_refine_dd", wraps=es._refine_dd) as spy:
        xh, xl = es._eigenvalues_dd(problem, seeds)
    diag, g_dd, ks, _, loh, hih, target, (glo, ghi) = spy.call_args.args
    assert target == 1e-26 * float(np.max(np.abs(seeds)))
    # the seed brackets, confirmed by counts at their ends as _refine_dd does
    cnt = es._count_dd(diag, g_dd, np.concatenate([loh, hih]), 0.0)
    loh = np.where(cnt[:ks.size] > ks - 1, glo, loh)
    hih = np.where(cnt[ks.size:] < ks, ghi, hih)
    assert np.all(es._count_dd(diag, g_dd, *ddc.dd_add(xh, xl, -target, 0.0)) <= ks - 1)
    assert np.all(es._count_dd(diag, g_dd, *ddc.dd_add(xh, xl, target, 0.0)) >= ks)
    zero = np.zeros(ks.shape)
    bh, bl = es._bisect_dd(diag, g_dd, loh, zero, hih, zero, ks, target)
    assert np.all(np.abs((xh - bh) + (xl - bl)) <= target)


@pytest.mark.parametrize("builder", [build_even_matrix, build_odd_matrix])
def test_extended_bisection_fallback_gives_same_values(monkeypatch, builder):
    # with no model step every pass bisects, the labels run out of Newton
    # passes and finish in _bisect_dd; the values stay within the target
    m = builder(15, 12.0)
    newton = eigen_decompose(m, Tier.EXTENDED)
    monkeypatch.setattr(es, "_model_step", lambda ph, pl, gap: np.full(gap.shape, np.nan))
    with mock.patch.object(es, "_bisect_dd", wraps=es._bisect_dd) as spy:
        bisected = eigen_decompose(m, Tier.EXTENDED)
    assert spy.call_count == 1 and spy.call_args.args[6].size == m.dim
    diff = ((bisected.eigenvalues - newton.eigenvalues)
            + (bisected.eigenvalues_lo - newton.eigenvalues_lo))
    assert np.max(np.abs(diff)) <= 1e-26 * np.max(np.abs(newton.eigenvalues))


@pytest.mark.parametrize("builder,n,a", [(build_even_matrix, 20, 0.5), (build_odd_matrix, 30, 12.0),
                                         (build_even_matrix, 15, 12.0)])
def test_extended_pairs_below_seed_error_take_few_passes(builder, n, a):
    # these spectra hold pairs that split below the error of their LAPACK
    # seeds; plain Newton converges only linearly on them (35-42 passes), the
    # quadratic model in a few
    m = builder(n, a)
    with mock.patch.object(es, "_count_dd", wraps=es._count_dd) as count, \
            mock.patch.object(es, "_bisect_dd", wraps=es._bisect_dd) as bisect:
        eigen_decompose(m, Tier.EXTENDED)
    assert sum(bool(c.kwargs.get("derivs")) for c in count.call_args_list) <= 6
    assert bisect.call_count == 0


def test_bisection_treats_each_bracket_on_its_own():
    # brackets of unequal width need unequal numbers of halvings; a label
    # bisected with others gets the bytes it gets alone
    m = build_even_matrix(15, 12.0)
    diag, c, g_dd, _ = es._scaled_problem(m)
    seeds = es._lapack_eigh(diag, c)[0]
    scale = float(np.max(np.abs(seeds)))
    ks = np.array([1, 5, 12, 20])
    glo, ghi = es._gershgorin(diag, c)
    lo = np.array([glo, seeds[4] - 1e-10 * scale, seeds[11] - 1e-3 * scale, glo])
    hi = np.array([seeds[0] + 1e-14 * scale, seeds[4] + 1e-10 * scale, ghi, ghi])
    zero, target = np.zeros(ks.size), 1e-26 * scale
    together = es._bisect_dd(diag, g_dd, lo, zero, hi, zero, ks, target)
    for i in range(ks.size):
        alone = es._bisect_dd(diag, g_dd, lo[i:i + 1], zero[:1], hi[i:i + 1], zero[:1],
                              ks[i:i + 1], target)
        assert np.array(alone).tobytes() == np.array(together)[:, i:i + 1].tobytes()


def test_bisection_raises_when_out_of_iterations():
    m = build_even_matrix(15, 12.0)
    diag, c, g_dd, _ = es._scaled_problem(m)
    lo, hi = (np.array([b]) for b in es._gershgorin(diag, c))
    with pytest.raises(NumericalFailureError, match=r"label k=26 .* bracket width"):
        es._bisect_dd(diag, g_dd, lo, np.zeros(1), hi, np.zeros(1), np.array([5]), 1e-26,
                      max_iter=5)


@pytest.mark.parametrize("builder,n,a", [(build_odd_matrix, 30, 1e100),
                                         (build_even_matrix, 5, 1e150)])
def test_extended_tier_at_extreme_a(builder, n, a):
    # unscaled, the double-double products g*p overflow here: the odd case
    # failed the residual check at k=31, the even one a stray-value check
    m = builder(n, a)
    ext = eigen_decompose(m, Tier.EXTENDED)
    dbl = eigen_decompose(m)
    scale = float(np.max(np.abs(dbl.eigenvalues)))
    np.testing.assert_allclose(ext.eigenvalues, dbl.eigenvalues, rtol=0, atol=1e-14 * scale)


def test_refine_with_and_without_bracket_agree(sol_n15_extended):
    # both paths run one refinement from the same LAPACK seed and tolerance;
    # an isolating bracket must not change a single bit
    m = build_even_matrix(15, 12.0)
    seeds = eigen_decompose(m).eigenvalues
    v = sol_n15_extended.eigenvalues
    edges = np.concatenate([[v[0] + 1.0], 0.5 * (v[:-1] + v[1:]), [v[-1] - 1.0]])
    for k in range(1, m.dim + 1):
        free = refine_eigenvalue_dd(m, seeds[k - 1])
        assert refine_eigenvalue_dd(m, seeds[k - 1], bracket=(edges[k], edges[k - 1])) == free
        assert free == sol_n15_extended.eigenvalue_dd(k), f"k={k}"


def test_bracket_checked_on_the_diagonal():
    # at a = 0 (even n=3: 16, 4, 0, 4, 16, 36) and at dimension 1 the
    # bracket is counted exactly on the diagonal, as it is by Sturm counts
    # for a > 0
    free = build_even_matrix(3, 0.0)
    for bracket in [(100.0, 200.0), (10.0, 5.0), (3.0, 5.0), (15.0, 17.0)]:
        with pytest.raises(InvalidBracketError):
            refine_eigenvalue(free, 5.0, bracket=bracket)
    with pytest.raises(InvalidBracketError):
        refine_eigenvalue(build_odd_matrix(0, 3.0), 5.0, bracket=(100.0, 200.0))
    assert refine_eigenvalue(free, 5.0, bracket=(35.0, 37.0)) == 36.0
    assert refine_eigenvalue(free, 5.0, bracket=(-1.0, 1.0)) == 0.0
    assert refine_eigenvalue(build_odd_matrix(0, 3.0), 5.0, bracket=(0.5, 1.5)) == 1.0


def _su2_asymptote(m):
    # eta ~ 2 a mu + 2 (j (j+1) - mu**2) + 1 for mu = j .. -j, j = p_x - 1/2
    # (Turbiner, Commun. Math. Phys. 118 (1988) 467); independent of the solver
    j = m.p_x - 0.5
    mu = j - np.arange(m.dim)
    return 2.0 * m.a * mu + 2.0 * (j * (j + 1.0) - mu**2) + 1.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a", [1e100, 1e200, 1e300])
@pytest.mark.parametrize("n", [1, 5, 20])
@pytest.mark.parametrize("tier", [Tier.DOUBLE, Tier.EXTENDED])
@pytest.mark.parametrize("builder", [build_even_matrix, build_odd_matrix])
def test_su2_asymptote_at_large_a(builder, tier, n, a):
    # LAPACK and the refinement run on the matrix scaled by a power of two,
    # so a up to 1e300 solves, without a numpy warning, and passes the
    # residual check
    m = builder(n, a)
    sol = eigen_decompose(m, tier)
    ref = _su2_asymptote(m)
    scale = float(np.max(np.abs(sol.eigenvalues)))
    np.testing.assert_array_less(np.abs(sol.eigenvalues - ref), 1e-14 * scale)
    if a == 1e200:
        got = np.array([refine_eigenvalue(m, x) for x in ref])
        np.testing.assert_array_less(np.abs(got - ref), 1e-14 * scale)


def test_solver_ceiling():
    # entries up to 2**1020 solve; above it the solve refuses a, and the
    # builder refuses bands beyond the float range
    m = build_even_matrix(1, 1e307)
    assert eigen_decompose(m).eigenvalues[0] == pytest.approx(1e307, rel=1e-15)
    with pytest.raises(InvalidArgumentError, match="too large"):
        eigen_decompose(build_even_matrix(5, 1e307))
    with pytest.raises(InvalidArgumentError, match="too large"):
        refine_eigenvalue(build_even_matrix(5, 1e307), 0.0)
