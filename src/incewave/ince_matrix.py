"""Construction of the even/odd coupling matrices and their characteristic minors.

The finite trigonometric-polynomial wave states are eigenvectors of special
tridiagonal matrices. Both families share one harmonic layout, fixed by the
quantized transverse momentum p_x (units of k_p): p_x = n for the even family
and n + 1/2 for the odd one. Row r = floor(f) carries the harmonic of
frequency f = -p_x+1 .. p_x, so the dimension is 2 p_x, and the entries are

    diag[r]  = 4 f**2
    super[r] = (p_x + f) a      (row r -> r+1)
    sub[r]   = (p_x - f) a      (row r+1 -> r)

Up to a diagonal similarity this is 4 Jz**2 + 4 Jz + 1 + 2 a Jx in the
spin-j representation of su(2), j = p_x - 1/2, Jz = f - 1/2.

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


class HarmonicLayout:
    """The layout above, from (parity, n) alone; TridiagonalMatrix,
    SpectralSolution and TrigPolynomial share it. The plus-branch harmonics
    are exp(-i f xi), the governing equation's q is 2 p_x - 1, and the period
    in xi is 2 pi for integer p_x and 4 pi for half-integer p_x."""

    def __init__(self, parity: Parity, n: int):
        self.parity, self.n = parity, n

    @property
    def p_x(self) -> float:
        """Transverse momentum in units of k_p."""
        return self.n + (0.0 if self.parity is Parity.EVEN else 0.5)

    @property
    def dim(self) -> int:
        return int(2 * self.p_x)

    @property
    def xi_frequencies(self) -> np.ndarray:
        """Harmonic frequencies f = -p_x+1 .. p_x, ascending."""
        return np.arange(1 - self.p_x, self.p_x + 1)

    @property
    def row_indices(self) -> np.ndarray:
        return np.floor(self.xi_frequencies).astype(int)

    @property
    def row_index_lo(self) -> int:
        return math.floor(1 - self.p_x)

    @property
    def row_index_hi(self) -> int:
        return self.n

    @property
    def q(self) -> int:
        return self.dim - 1

    @property
    def period(self) -> float:
        return 2 * np.pi if self.p_x == self.n else 4 * np.pi


@dataclass(frozen=True)
class TridiagonalMatrix(HarmonicLayout):
    """Three-band matrix with rows labelled by the harmonic index r.

    Bands are stored in ascending r order: diag[i] belongs to row
    row_indices[i], super[i] couples row r to r+1, sub[i] couples row r+1
    back to r (so dense A[i, i+1] = super[i], A[i+1, i] = sub[i]).
    """

    parity: Parity
    n: int
    a: float
    diag: np.ndarray
    super: np.ndarray
    sub: np.ndarray

    def __post_init__(self):
        for arr in (self.diag, self.super, self.sub):
            arr.setflags(write=False)

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


def build_matrix(parity: Parity, n: int, a: float) -> TridiagonalMatrix:
    """Coupling matrix of either family; build_even_matrix or build_odd_matrix
    checks n."""
    return (build_even_matrix if parity is Parity.EVEN else build_odd_matrix)(n, a)


def _layout_matrix(parity: Parity, n: int, a: float) -> TridiagonalMatrix:
    """diag 4 f**2, super (p_x + f) a and sub (p_x - f) a over the layout."""
    a = _check_a(a)
    layout = HarmonicLayout(parity, int(n))
    f = layout.xi_frequencies
    return TridiagonalMatrix(parity, layout.n, a, 4.0 * f * f,
                             (layout.p_x + f[:-1]) * a, (layout.p_x - f[:-1]) * a)


def build_even_matrix(n: int, a: float) -> TridiagonalMatrix:
    """Even-family matrix of dimension 2n (rows r = -n+1 .. n)."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidArgumentError(f"even family requires integer n >= 1, got {n!r}")
    return _layout_matrix(Parity.EVEN, n, a)


def build_odd_matrix(n: int, a: float) -> TridiagonalMatrix:
    """Odd-family matrix of dimension 2n+1 (rows r = -n .. n)."""
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise InvalidArgumentError(f"odd family requires integer n >= 0, got {n!r}")
    return _layout_matrix(Parity.ODD, n, a)


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
