#!/usr/bin/env python3
"""Measure weighted bilinear Gram entries across different n at equal a.

Within one n the weighted pairing is exactly diagonal. Whether any
orthogonality extends across transverse quantum numbers is an open question;
this script measures the cross-n entries and prints them without asserting a
target. (The library's weighted_inner_product deliberately rejects cross-n
pairs, so the closed form is evaluated directly here.)
"""

import argparse

import numpy as np

from incewave.bessel import bilinear_weight_kernel
from incewave.eigensolver import eigen_decompose
from incewave.ince_matrix import build_even_matrix


def run(n1: int, n2: int, a: float) -> None:
    s1 = eigen_decompose(build_even_matrix(n1, a))
    s2 = eigen_decompose(build_even_matrix(n2, a))
    rs1, rs2 = s1.row_indices, s2.row_indices
    # common harmonic grid covering both families
    lo, hi = min(rs1[0], rs2[0]), max(rs1[-1], rs2[-1])
    rs = np.arange(lo, hi + 1)
    kern = bilinear_weight_kernel(rs, a)

    def embed(sol):
        out = np.zeros((sol.dim, rs.size))
        off = sol.row_indices[0] - lo
        out[:, off:off + sol.dim] = sol.eigenvectors
        return out

    d1, d2 = embed(s1), embed(s2)
    cross = 2 * np.pi * (d1 @ kern @ d2.T)
    within = 2 * np.pi * (d1 @ kern @ d1.T)
    scale = np.max(np.abs(np.diag(within)))
    print(f"even families n={n1} vs n={n2}, a={a}")
    print(f"largest within-family diagonal, scaled by e^(-a/2): {scale:.6g}")
    print(f"largest within-family off-diagonal: "
          f"{np.max(np.abs(within - np.diag(np.diag(within)))):.3e}")
    print(f"largest cross-family entry: {np.max(np.abs(cross)):.6g} "
          f"({np.max(np.abs(cross)) / scale:.3e} of the diagonal scale)")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n1", type=int, default=3)
    ap.add_argument("--n2", type=int, default=5)
    ap.add_argument("--a", type=float, default=2.0)
    args = ap.parse_args()
    run(args.n1, args.n2, args.a)
