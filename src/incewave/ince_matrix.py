"""Construction of the even/odd coupling matrices and their characteristic minors.

The finite trigonometric-polynomial wave states are eigenvectors of special
tridiagonal matrices. For the even family (dimension 2n, harmonic index
r = -n+1..n) the entries are

    diag[r]  = 4 r**2
    super[r] = (n + r) a        (row r -> r+1)
    sub[r]   = (n - r + 1) a    (row r -> r-1)

and for the odd family (dimension 2n+1, r = -n..n)

    diag[r]  = (2 r + 1)**2
    super[r] = (n + r + 1) a
    sub[r]   = (n - r + 1) a

For a > 0 every super*sub product on a shared edge is positive, so the matrix
is similar to a real symmetric tridiagonal one and its spectrum is real and
simple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidArgumentError


class Parity(Enum):
    EVEN = "even"
    ODD = "odd"


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Three-band matrix with rows labelled by the harmonic index r.

    Bands are stored in ascending r order: diag[i] belongs to row
    r = row_index_lo + i, super[i] couples row r to r+1, sub[i] couples
    row r+1 back to r (so dense A[i, i+1] = super[i], A[i+1, i] = sub[i]).
    """

    parity: Parity
    n: int
    a: float
    row_index_lo: int
    row_index_hi: int
    diag: np.ndarray
    super: np.ndarray
    sub: np.ndarray

    def __post_init__(self):
        for arr in (self.diag, self.super, self.sub):
            arr.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.row_index_hi - self.row_index_lo + 1

    @property
    def row_indices(self) -> np.ndarray:
        return np.arange(self.row_index_lo, self.row_index_hi + 1)

    def offdiag_products(self) -> np.ndarray:
        """super[j] * sub[j] per shared edge; all > 0 when a > 0."""
        return self.super * self.sub

    def to_dense(self) -> np.ndarray:
        m = np.diag(self.diag.copy())
        idx = np.arange(self.dim - 1)
        m[idx, idx + 1] = self.super
        m[idx + 1, idx] = self.sub
        return m


def _check_a(a: float) -> float:
    a = float(a)
    if not math.isfinite(a):
        raise InvalidArgumentError("coupling parameter a must be finite")
    if a < 0:
        # The governing equation is invariant under z -> z + pi/2 together with
        # a -> -a, so a negative coupling duplicates a positive-a problem.
        raise InvalidArgumentError(
            "a must be >= 0; a negative coupling is equivalent to a positive "
            "one under a quarter-period shift and is rejected to keep the "
            "parametrization unique"
        )
    return a


def build_even_matrix(n: int, a: float) -> TridiagonalMatrix:
    """Even-family matrix of dimension 2n (rows r = -n+1 .. n)."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidArgumentError(f"even family requires integer n >= 1, got {n!r}")
    a = _check_a(a)
    n = int(n)
    rs = np.arange(-n + 1, n + 1)
    diag = (4.0 * rs * rs).astype(float)
    sup = (n + rs[:-1]).astype(float) * a
    sub = (n - rs[1:] + 1).astype(float) * a
    return TridiagonalMatrix(Parity.EVEN, n, a, -n + 1, n, diag, sup, sub)


def build_odd_matrix(n: int, a: float) -> TridiagonalMatrix:
    """Odd-family matrix of dimension 2n+1 (rows r = -n .. n)."""
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise InvalidArgumentError(f"odd family requires integer n >= 0, got {n!r}")
    a = _check_a(a)
    n = int(n)
    rs = np.arange(-n, n + 1)
    diag = ((2.0 * rs + 1) ** 2).astype(float)
    sup = (n + rs[:-1] + 1).astype(float) * a
    sub = (n - rs[1:] + 1).astype(float) * a
    return TridiagonalMatrix(Parity.ODD, n, a, -n, n, diag, sup, sub)


def scaled_minors(m: TridiagonalMatrix, xs) -> tuple[np.ndarray, np.ndarray]:
    """Leading principal minors p_1..p_dim of m - x*I at every shift x, as
    (mantissa, exp2) arrays of shape (dim,) + xs.shape with
    p_j = mantissa[j-1] * 2**exp2[j-1].

    Three-term recurrence p_j = (diag_j - x) p_{j-1} - g_{j-1} p_{j-2} with
    power-of-two rescaling, so arbitrarily large dimensions cannot overflow.
    The mantissa carries the exact sign.
    """
    xs = np.asarray(xs, dtype=float)
    g = m.offdiag_products()
    mant = np.empty((m.dim,) + xs.shape)
    exp2 = np.zeros((m.dim,) + xs.shape, dtype=np.int64)
    pm2, pm1 = np.ones_like(xs), m.diag[0] - xs
    mant[0] = pm1
    for j in range(1, m.dim):
        pm2, pm1 = pm1, (m.diag[j] - xs) * pm1 - g[j - 1] * pm2
        big = np.maximum(np.abs(pm1), np.abs(pm2))
        shift = np.where(big > 1e150, -512, np.where((big > 0.0) & (big < 1e-150), 512, 0))
        pm1, pm2 = np.ldexp(pm1, shift), np.ldexp(pm2, shift)
        mant[j], exp2[j] = pm1, exp2[j - 1] - shift
    return mant, exp2


def char_poly_scaled(m: TridiagonalMatrix, eta: float) -> tuple[float, int]:
    """det(m - eta*I) as (mantissa, exp2) with value = mantissa * 2**exp2,
    the last of scaled_minors. The mantissa carries the exact sign."""
    mant, exp2 = scaled_minors(m, float(eta))
    return float(mant[-1]), int(exp2[-1])


def char_poly_eval(m: TridiagonalMatrix, eta: float) -> float:
    """det(m - eta*I). Saturates to +-inf when the determinant exceeds float
    range; use char_poly_scaled for the sign/scale in that regime."""
    mant, exp2 = char_poly_scaled(m, float(eta))
    try:
        return math.ldexp(mant, exp2)
    except OverflowError:
        return math.inf if mant > 0 else -math.inf
