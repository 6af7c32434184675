"""Finite complex trigonometric polynomials built from spectral solutions.

A polynomial is sum_r D_r exp(-i f_r xi) over the harmonic frequencies
f = -p_x+1 .. p_x of its family's layout (ince_matrix.HarmonicLayout): p_x = n
gives the even family's integer harmonics and period 2*pi in xi, p_x = n + 1/2
the odd family's half-integer ones, which are only 4*pi periodic.
The minus branch is the pointwise complex conjugate of the plus branch and
solves the conjugate differential equation.

In the wave phase variable z = xi/2 every polynomial f satisfies

    f'' + a sin(2z) (f' + i s f) + (eta - q a cos(2z)) f = 0

with s = +1 (plus branch) or -1 (minus branch), q = 2 p_x - 1, and eta the
matrix eigenvalue.

Every value and derivative goes through harmonic_sum, the one evaluator of
the phase matrix exp(-i outer(xi, f_r)). governing_residual evaluates the
left-hand side for a whole block of coefficient vectors at once, as the
check suite does for all labels of one solution; ode_residual is its
one-column case.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .eigensolver import Eigenpair, SpectralSolution
from .errors import InvalidArgumentError
from .ince_matrix import HarmonicLayout, Parity, TridiagonalMatrix


class Branch(Enum):
    PLUS = "+"
    MINUS = "-"


@dataclass(frozen=True)
class TrigPolynomial(HarmonicLayout):
    parity: Parity
    branch: Branch
    n: int
    k: int
    a: float
    eta: float
    coeffs: np.ndarray  # D_r over ascending r

    def __post_init__(self):
        self.coeffs.setflags(write=False)


def polynomial_from_pair(source: TridiagonalMatrix | SpectralSolution, pair: Eigenpair,
                         branch: Branch = Branch.PLUS) -> TrigPolynomial:
    """Polynomial of one solved eigenpair of the matrix or solution source."""
    return TrigPolynomial(source.parity, branch, source.n, pair.k, source.a,
                          pair.eigenvalue, pair.eigenvector)


def make_polynomial(sol: SpectralSolution, k: int, branch: Branch = Branch.PLUS) -> TrigPolynomial:
    """Polynomial for eigenvalue label k (1-based, descending order)."""
    if not 1 <= k <= sol.dim:
        raise InvalidArgumentError(f"label k={k} outside 1..{sol.dim}")
    pair = Eigenpair(k, float(sol.eigenvalues[k - 1]), 0.0, sol.eigenvectors[k - 1].copy())
    return polynomial_from_pair(sol, pair, branch)


def harmonic_sum(freqs: np.ndarray, coeffs: np.ndarray, xi, branch: Branch):
    """sum_r coeffs[r] exp(-i freqs[r] xi) at every xi, complex conjugated for
    the minus branch. coeffs may carry a trailing axis of several vectors;
    the result has shape xi.shape + coeffs.shape[1:]."""
    phases = np.exp(-1j * np.multiply.outer(np.asarray(xi, dtype=float), freqs))
    val = phases @ coeffs
    return np.conj(val) if branch is Branch.MINUS else val


def evaluate(p: TrigPolynomial, xi):
    """Value of the polynomial at phase xi (scalar or array)."""
    val = harmonic_sum(p.xi_frequencies, p.coeffs, xi, p.branch)
    return val if val.shape else complex(val)


def derivative(p: TrigPolynomial, order: int = 1):
    """Exact term-wise derivative d^order/dxi^order as a callable of xi."""
    if order < 0:
        raise InvalidArgumentError("derivative order must be >= 0")
    freqs = p.xi_frequencies
    dcoeffs = p.coeffs * (-1j * freqs) ** order

    def dval(xi):
        val = harmonic_sum(freqs, dcoeffs, xi, p.branch)
        return val if val.shape else complex(val)

    return dval


def governing_residual(freqs: np.ndarray, q: int, a: float, coeffs: np.ndarray,
                       etas: np.ndarray, z, branch: Branch):
    """Left-hand side of the governing equation and the values f at z for the
    columns of a (dim, k) coefficient block, column j taken with eigenvalue
    etas[j]. Both results have shape z.shape + (k,).

    f, df/dz and d2f/dz2 come from one phase matrix at xi = 2z, since
    d/dz multiplies harmonic r by -2i f_r.
    """
    z = np.asarray(z, dtype=float)
    dz = (-2j * freqs)[:, None]
    vals = harmonic_sum(freqs, np.hstack([coeffs, coeffs * dz, coeffs * dz**2]), 2 * z, branch)
    f, f1, f2 = np.split(vals, 3, axis=-1)
    s = 1.0 if branch is Branch.PLUS else -1.0
    sin2z = np.sin(2 * z)[..., None]
    cos2z = np.cos(2 * z)[..., None]
    lhs = f2 + a * sin2z * (f1 + 1j * s * f) + (etas - q * a * cos2z) * f
    return lhs, f


def ode_residual(p: TrigPolynomial, z):
    """Left-hand side of the governing equation at z (zero for true eigenpairs)."""
    res = governing_residual(p.xi_frequencies, p.q, p.a, p.coeffs[:, None],
                             np.array([p.eta]), z, p.branch)[0][..., 0]
    return res if res.shape else complex(res)


def harmonic_strengths(p: TrigPolynomial) -> list[tuple[int, float]]:
    """Squared coefficients (r, D_r**2) in ascending r; they sum to 1."""
    return [(int(r), float(c * c)) for r, c in zip(p.row_indices, p.coeffs)]
