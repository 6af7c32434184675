"""Modified Bessel I_l: values, symmetry, and the bilinear weight kernel."""

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from incewave.bessel import bilinear_weight_kernel, modified_bessel_i, scaled_bessel_i_table
from incewave.errors import InvalidArgumentError


def test_values_at_zero():
    assert modified_bessel_i(0, 0.0) == 1.0
    for l in range(1, 6):
        assert modified_bessel_i(l, 0.0) == 0.0


def test_i1_of_1_frozen():
    # independent power-series value: sum (1/2)^(2m+1) / (m! (m+1)!)
    assert modified_bessel_i(1, 1.0) == pytest.approx(0.5651591039924850, rel=1e-14)


def test_negative_order_folds():
    assert modified_bessel_i(-3, 2.5) == modified_bessel_i(3, 2.5)


def test_negative_argument_rejected():
    with pytest.raises(InvalidArgumentError):
        modified_bessel_i(0, -1.0)


@pytest.mark.parametrize("x", [float("nan"), float("inf"), 1e11])
def test_non_finite_or_too_large_argument_rejected(x):
    with pytest.raises(InvalidArgumentError):
        modified_bessel_i(0, x)


@given(x=st.one_of(st.just(0.0), st.floats(-300.0, np.log10(5e6)).map(lambda e: 10.0**e)),
       lmax=st.integers(0, 200))
@example(x=5e6, lmax=200)
@example(x=1e3, lmax=200)
@example(x=15.0, lmax=3)
@settings(max_examples=60, deadline=None)
def test_scaled_table_matches_scipy(x, lmax):
    # one backward pass gives e^(-x) I_l(x) for every order up to lmax
    table = scaled_bessel_i_table(lmax, x)
    assert table.shape == (lmax + 1,)
    ref = sp.ive(np.arange(lmax + 1), x)
    keep = ref > 1e-290
    np.testing.assert_allclose(table[keep], ref[keep], rtol=1e-12, atol=0)


@pytest.mark.parametrize("x", [0.1, 1.0, 3.0, 6.0, 14.9, 15.1, 20.0, 50.0, 100.0, 250.0, 500.0])
def test_matches_scipy_over_orders(x):
    for l in range(0, 41, 4):
        ref = sp.ive(l, x) * np.exp(x)  # scaled form avoids overflow in the reference
        if ref == 0.0:
            continue
        assert modified_bessel_i(l, x) == pytest.approx(ref, rel=1e-12)


@given(x=st.floats(0.0, 400.0), l=st.integers(0, 30))
@settings(max_examples=80, deadline=None)
def test_positive_for_positive_argument(x, l):
    v = modified_bessel_i(l, x)
    if x > 0:
        assert v > 0 or v == 0.0  # underflow to zero allowed for huge order
    else:
        assert v == (1.0 if l == 0 else 0.0)


def test_sum_identity():
    # e^x = I_0 + 2 sum I_l
    for x in (0.5, 4.0, 12.0, 30.0):
        total = modified_bessel_i(0, x) + 2 * sum(modified_bessel_i(l, x) for l in range(1, 120))
        assert total == pytest.approx(np.exp(x), rel=1e-12)


def test_weight_kernel_even_structure():
    # the kernel is scaled by e^(-a/2)
    rs = np.arange(-1, 3)  # even family n=2
    w = bilinear_weight_kernel(rs, 5.0)
    assert w.shape == (4, 4)
    # symmetric in (i, j) since r_i + r_j is
    np.testing.assert_array_equal(w, w.T)
    # spot value: r_i = -1, r_j = 2 -> (-1)^1 e^(-2.5) I_1(2.5)
    assert w[0, 3] == pytest.approx(-sp.ive(1, 2.5), rel=1e-12)
    # r_i = r_j = 0 -> e^(-2.5) I_0(2.5)
    assert w[1, 1] == pytest.approx(sp.ive(0, 2.5), rel=1e-12)


def test_weight_kernel_a_zero_is_antidiagonal_pairing():
    rs = np.arange(-2, 3)
    w = bilinear_weight_kernel(rs, 0.0)
    expect = np.zeros((5, 5))
    for i, ri in enumerate(rs):
        for j, rj in enumerate(rs):
            if ri + rj == 0:
                expect[i, j] = 1.0
    np.testing.assert_array_equal(w, expect)
