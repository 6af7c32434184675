"""Vectorized double-double (compensated) arithmetic.

A double-double value is an unevaluated sum hi + lo of two float64 arrays with
|lo| <= 0.5 ulp(hi), giving ~32 significant decimal digits. Only the handful of
operations needed for the extended tier's compensated minor recurrence are
provided: exact products via Dekker splitting (no FMA requirement),
addition/subtraction with error renormalization, and exact scaling by powers
of two.

All functions broadcast like numpy and accept plain floats anywhere.
"""

from __future__ import annotations

import numpy as np

_SPLIT = 134217729.0  # 2**27 + 1


def two_sum(a, b):
    """Error-free sum: (s, err) with s + err == a + b exactly."""
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def quick_two_sum(a, b):
    """Error-free sum assuming |a| >= |b| elementwise."""
    s = a + b
    err = b - (s - a)
    return s, err


def split(a):
    """Dekker split into high and low 26-bit parts."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def two_prod(a, b):
    """Error-free product: (p, err) with p + err == a * b exactly."""
    return two_prod_split(a, split(a), b, split(b))


def two_prod_split(a, a_split, b, b_split):
    """two_prod(a, b) from the splits a_split = split(a), b_split = split(b),
    for a factor that takes part in more than one product."""
    (ahi, alo), (bhi, blo) = a_split, b_split
    p = a * b
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, err


def dd(x):
    """Promote a float/array to a (hi, lo) pair."""
    x = np.asarray(x, dtype=float)
    return x, np.zeros_like(x)


def dd_add(xh, xl, yh, yl):
    s, e = two_sum(xh, yh)
    t, f = two_sum(xl, yl)
    e = e + t
    s, e = quick_two_sum(s, e)
    e = e + f
    return quick_two_sum(s, e)


def dd_sub(xh, xl, yh, yl):
    return dd_add(xh, xl, -yh, -yl)


def dd_mul(xh, xl, yh, yl):
    return dd_mul_split(xh, xl, split(xh), yh, yl, split(yh))


def dd_mul_split(xh, xl, x_split, yh, yl, y_split):
    """dd_mul from the splits x_split = split(xh), y_split = split(yh)."""
    p, e = two_prod_split(xh, x_split, yh, y_split)
    e = e + (xh * yl + xl * yh)
    return quick_two_sum(p, e)


def dd_div(xh, xl, yh, yl):
    """Long division with one Newton correction (~full dd accuracy)."""
    q1 = xh / yh
    rh, rl = dd_add(xh, xl, *dd_mul(*dd(-q1), yh, yl))
    q2 = rh / yh
    rh, rl = dd_add(rh, rl, *dd_mul(*dd(-q2), yh, yl))
    q3 = rh / yh
    qh, ql = two_sum(q1, q2)
    return dd_add(qh, ql, *dd(q3))


def dd_scale_pow2(xh, xl, f):
    """Multiply by f, an exact power of two (exact in both components)."""
    return xh * f, xl * f


def dd_sign(xh, xl):
    """Elementwise sign of hi + lo (0 only when exactly zero)."""
    s = np.sign(xh)
    z = s == 0
    if np.any(z):
        s = np.where(z, np.sign(xl), s)
    return s
