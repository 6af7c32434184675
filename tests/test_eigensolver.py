"""Eigensolver: closed forms, high-precision anchors, and cross-checks.

Frozen reference values for the even n=15, a=12 matrix were computed with
60-digit mpmath eigenvalues of the symmetrized matrix (independent of the
bisection path under test).
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from incewave import ddcore as ddc
from incewave import eigensolver as es
from incewave.eigensolver import (Tier, eigen_decompose, eigenvector_for,
                                  refine_eigenvalue, refine_eigenvalue_dd, sturm_count,
                                  symmetrize)
from incewave.errors import InvalidArgumentError, InvalidBracketError, NumericalFailureError
from incewave.ince_matrix import build_even_matrix, build_odd_matrix

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


def test_sturm_count_against_spectrum():
    m = build_even_matrix(15, 12.0)
    vals = eigen_decompose(m).eigenvalues
    for probe in (-400.0, -163.0, 0.0, 36.0, 36.2, 500.0, 1000.0):
        assert sturm_count(m, probe) == int(np.sum(vals < probe))


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
    from incewave.eigensolver import _solve_shifted

    rng = np.random.default_rng(seed)
    d = rng.normal(size=n) * rng.choice([1e-3, 1.0, 1e3], size=n)
    e = rng.normal(size=n - 1)
    b = rng.normal(size=n)
    dense = np.diag(d)
    dense[np.arange(n - 1), np.arange(1, n)] = e
    dense[np.arange(1, n), np.arange(n - 1)] = e
    if abs(np.linalg.det(dense)) < 1e-8:
        return  # near-singular systems are the inverse-iteration regime
    x = _solve_shifted(d, e, b)
    ref = np.linalg.solve(dense, b)
    np.testing.assert_allclose(x, ref, rtol=1e-8, atol=1e-10 * np.abs(ref).max())
    # a trailing axis of k shifts solves k systems in one call, each exactly as
    # a single solve would
    k = int(rng.integers(1, 5))
    shifted = d[:, None] - rng.normal(size=k)[None, :]
    rhs = rng.normal(size=(n, k))
    xs = _solve_shifted(shifted, e, rhs)
    assert xs.shape == (n, k)
    for j in range(k):
        np.testing.assert_array_equal(xs[:, j], _solve_shifted(shifted[:, j], e, rhs[:, j]))


@given(parity=st.booleans(), n=st.integers(1, 60), log_a=st.floats(-3.0, 2.0))
@settings(max_examples=40, deadline=None)
def test_double_tier_eigenvalues_certified_by_sturm_count(parity, n, log_a):
    # the float64 Sturm count runs on the unsymmetric matrix, independent of
    # LAPACK: at the midpoint of every gap that float64 can resolve, it must
    # count exactly the eigenvalues below. The values are those of the LAPACK
    # stage that eigen_decompose returns at the double tier; eigen_decompose
    # itself is not called, as its cluster rotation still fails for part of
    # this range (dimension >= 40 with a >= ~30).
    from incewave.eigensolver import _lapack_eigh

    m = build_even_matrix(n, 10.0**log_a) if parity else build_odd_matrix(n, 10.0**log_a)
    vals = _lapack_eigh(m, symmetrize(m)[0])[0]
    assert np.all(np.diff(vals) >= 0)
    wide = np.flatnonzero(np.diff(vals) > 1e-8 * max(1.0, float(np.max(np.abs(vals)))))
    for i in wide:
        assert sturm_count(m, 0.5 * (vals[i] + vals[i + 1])) == i + 1, f"gap after {i + 1}"
    assert sturm_count(m, vals[0] - 1.0) == 0
    assert sturm_count(m, vals[-1] + 1.0) == m.dim


def _mpmath_vectors(m):
    """Unit, sign-fixed coefficient vectors (descending eigenvalues) from a
    60-digit mpmath.eigsy solve of the symmetrized matrix."""
    import mpmath as mp

    with mp.workdps(60):
        sym = mp.zeros(m.dim)
        scale = [mp.mpf(1)]
        for i in range(m.dim):
            sym[i, i] = mp.mpf(float(m.diag[i]))
        for i in range(m.dim - 1):
            up, down = mp.mpf(float(m.super[i])), mp.mpf(float(m.sub[i]))
            sym[i, i + 1] = sym[i + 1, i] = mp.sqrt(up * down)
            scale.append(scale[-1] * mp.sqrt(up / down))
        vals, vecs = mp.eigsy(sym)
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
    from incewave.eigensolver import SpectralSolution, _check_residuals

    m = build_even_matrix(3, 1.0)
    sol = eigen_decompose(m)
    vecs = sol.eigenvectors.copy()
    vecs[2, 1] = np.nan
    bad = SpectralSolution(m.parity, m.n, m.a, sol.eigenvalues.copy(), vecs, sol.refinement)
    with pytest.raises(NumericalFailureError, match="k=3"):
        _check_residuals(m, bad)


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
    seeds = es._lapack_eigh(m, symmetrize(m)[0])[0]
    with mock.patch.object(es, "_refine_dd", wraps=es._refine_dd) as spy:
        eh, el = es._eigenvalues_dd(m, seeds)
    diag, g_dd, ks, _, loh, hih, target = spy.call_args.args
    e = es._dd_problem(m)[2]
    assert target == math.ldexp(1e-26 * max(1.0, float(np.max(np.abs(seeds)))), -e)
    xh, xl = np.ldexp(eh, -e), np.ldexp(el, -e)
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


def test_bisection_raises_when_out_of_iterations():
    m = build_even_matrix(15, 12.0)
    diag, g_dd, e = es._dd_problem(m)
    lo, hi = (np.array([math.ldexp(b, -e)]) for b in es._gershgorin(m))
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
