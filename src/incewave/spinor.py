"""Spin-coupling matrix and its eigenbasis in the real (Majorana-type) form.

The spin interaction of an x-polarized wave travelling in a medium of
refractive index n_m < 1 reduces to the real antidiagonal 4x4 matrix with
entries (1+n_m, 1+n_m, 1-n_m, 1-n_m) top to bottom. Its eigenvalues are
+-sqrt(1-n_m**2), each twofold degenerate; the standard eigenvectors u_1..u_4
are unit vectors but not mutually orthogonal for n_m > 0 (u_1.u_3 =
u_2.u_4 = -n_m), so an orthonormalized companion basis is also provided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError


@dataclass(frozen=True)
class SpinBasis:
    n_m: float
    vectors: np.ndarray  # rows u_1..u_4
    lambdas: np.ndarray  # eigenvalues per row

    def __post_init__(self):
        self.vectors.setflags(write=False)
        self.lambdas.setflags(write=False)


def _check_nm(n_m: float) -> float:
    n_m = float(n_m)
    if not 0.0 <= n_m < 1.0:
        raise InvalidConfigError(
            f"refractive index must satisfy 0 <= n_m < 1 (propagating regime), got {n_m}"
        )
    return n_m


def build_coupling_matrix(n_m: float) -> np.ndarray:
    """Antidiagonal spin-coupling matrix for refractive index n_m."""
    n_m = _check_nm(n_m)
    b = np.zeros((4, 4))
    b[0, 3] = 1.0 + n_m
    b[1, 2] = 1.0 + n_m
    b[2, 1] = 1.0 - n_m
    b[3, 0] = 1.0 - n_m
    return b


def spin_basis(n_m: float) -> SpinBasis:
    """The four unit eigenvectors u_1..u_4 and their eigenvalues."""
    n_m = _check_nm(n_m)
    cp = math.sqrt(1.0 + n_m)
    cm = math.sqrt(1.0 - n_m)
    s = 1.0 / math.sqrt(2.0)
    vectors = np.array([
        [+cp, 0.0, 0.0, cm],
        [0.0, +cp, cm, 0.0],
        [-cp, 0.0, 0.0, cm],
        [0.0, -cp, cm, 0.0],
    ]) * s
    lam = math.sqrt(1.0 - n_m * n_m)
    return SpinBasis(n_m, vectors, np.array([lam, lam, -lam, -lam]))


def orthonormalize(basis: SpinBasis) -> np.ndarray:
    """Gram-Schmidt over u_1, u_2, u_3, u_4 in order; the first two are
    already orthonormal and come back unchanged."""
    out = basis.vectors.astype(float).copy()
    for i in range(4):
        for j in range(i):
            out[i] -= (out[j] @ out[i]) * out[j]
        nrm = np.linalg.norm(out[i])
        out[i] /= nrm
    return out
