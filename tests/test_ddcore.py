"""Double-double primitives: exactness against Fraction and mpmath."""

from fractions import Fraction

import mpmath as mp
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from incewave import ddcore as ddc

# magnitudes bounded away from the subnormal range: error-free transforms
# are exact only while no intermediate under- or overflows
_mag = st.floats(min_value=1e-50, max_value=1e12)
finite = st.one_of(st.just(0.0),
                   st.builds(lambda m, s: m if s else -m, _mag, st.booleans()))


@given(a=finite, b=finite)
@settings(max_examples=200)
def test_two_sum_exact(a, b):
    s, e = ddc.two_sum(a, b)
    assert Fraction(s) + Fraction(e) == Fraction(a) + Fraction(b)


@given(a=finite, b=finite)
@settings(max_examples=200)
def test_two_prod_exact(a, b):
    p, e = ddc.two_prod(a, b)
    assert Fraction(p) + Fraction(e) == Fraction(a) * Fraction(b)


@given(a=finite, b=finite, c=finite, d=finite)
@settings(max_examples=100)
def test_dd_mul_close_to_mpmath(a, b, c, d):
    mp.mp.dps = 50
    xh, xl = ddc.two_sum(a, b * 1e-10)
    yh, yl = ddc.two_sum(c, d * 1e-10)
    zh, zl = ddc.dd_mul(xh, xl, yh, yl)
    ref = (mp.mpf(xh) + mp.mpf(xl)) * (mp.mpf(yh) + mp.mpf(yl))
    err = abs((mp.mpf(zh) + mp.mpf(zl)) - ref)
    assert err <= mp.mpf(2) ** -96 * (abs(ref) + 1)


def test_dd_div_accuracy():
    mp.mp.dps = 50
    xh, xl = 718.0928584847421, -1.4e-14
    yh, yl = 3.0, 1e-17
    qh, ql = ddc.dd_div(*ddc.dd(np.array([xh])), *ddc.dd(np.array([yh])))
    # scalar path through arrays
    qh2, ql2 = ddc.dd_div(xh, xl, yh, yl)
    ref = (mp.mpf(xh) + mp.mpf(xl)) / (mp.mpf(yh) + mp.mpf(yl))
    assert abs((mp.mpf(float(qh2)) + mp.mpf(float(ql2))) - ref) < mp.mpf("1e-28") * abs(ref)
    assert float(np.asarray(qh).ravel()[0]) == float(xh / yh) or abs(float(np.asarray(qh).ravel()[0]) - xh / yh) < 1e-12


def test_dd_sign_and_scale():
    sh, sl = ddc.dd_scale_pow2(np.array([3.0]), np.array([1e-20]), 0.5)
    assert sh[0] == 1.5 and sl[0] == 5e-21


def test_vectorized_matches_scalar():
    a = np.array([1.1, 2.2, 3.3])
    b = np.array([4.4, 5.5, 6.6])
    sh, sl = ddc.dd_add(*ddc.dd(a), *ddc.dd(b))
    for i in range(3):
        h, low = ddc.dd_add(a[i], 0.0, b[i], 0.0)
        assert sh[i] == h and sl[i] == low
