"""Independent oracles and property checks.

Two ingredients: the weighted bilinear inner product (quadrature and
Bessel-closed-form routes, compared but never silently merged) and a
characteristic-polynomial oracle that bisects on exact Sturm counts: the
leading principal minors as Python integers over one power-of-two
denominator 2**E, exact for float entries (Barth, Martin & Wilkinson, Numer.
Math. 9 (1967) 386), with no other scaling and nothing shared with the
eigensolver's double-double recurrence.

The weighted pairing is bilinear, not conjugated: for same-branch solutions
f_k, f_l of the governing equation, multiplying by w(xi) = exp(-(a/2) cos xi)
puts the equation in self-adjoint form (w f')' + w (...) f = 0, so

    integral over a period of  w(xi) f_k(xi) f_l(xi) dxi  = 0   (k != l).

In coefficient space this is 2*pi * D_k . W . D_l with the kernel
W[r,s] = (-1)**(f_r+f_s) I_{|f_r+f_s|}(a/2) over the layout's harmonic
frequencies f; f_r + f_s is an integer for both parities, so a single
kernel covers the half-integer (odd) family too. Both routes use the weight and
kernel scaled by e^(-a/2), which stay finite at any a. The scaled weight's
Fourier coefficients fall like exp(-k^2/a)/sqrt(pi a), and the trapezoid rule
on a periodic integrand is exact up to aliasing (Trefethen & Weideman, SIAM
Rev. 56 (2014) 385), so (8(n+1) + 7 sqrt(a)) points per 2*pi suffice.
Diagonal entries of this Gram form can be arbitrarily small or negative (the
pairing is not a norm), so diagonality and route agreement are always
measured against the largest diagonal entry, which also cancels the scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import bilinear_weight_kernel
from .eigensolver import SpectralSolution, Tier, eigen_decompose, eigenpair_residuals
from .errors import InvalidArgumentError, InvalidPairingError
from .ince_matrix import Parity, TridiagonalMatrix, build_matrix
from .polynomials import Branch, TrigPolynomial, evaluate, governing_residual, harmonic_sum


@dataclass(frozen=True)
class InnerProductReport:
    k: int
    l: int
    quadrature_value: complex
    bessel_value: complex
    discrepancy: float


# The Gram route holds a few (dim, points) complex arrays: ~100 MB each at
# dimension 101 and this many points.
_MAX_GRID_POINTS = 2**16


def _quadrature_grid(n: int, a: float, period: float):
    """Trapezoid nodes over one period and their spacing: (8(n+1) + 7 sqrt(a))
    points per 2*pi, at least 64."""
    npts = max(64, (8 * (n + 1) + math.ceil(7.0 * math.sqrt(a))) * round(period / (2.0 * np.pi)))
    if npts > _MAX_GRID_POINTS:
        raise InvalidArgumentError(f"quadrature grid of {npts} points at n={n}, a={a} "
                                   f"exceeds its limit of {_MAX_GRID_POINTS}")
    xs = np.arange(npts) * (period / npts) - period / 2.0
    return xs, period / npts


def _scaled_weight(a: float, xs: np.ndarray) -> np.ndarray:
    """exp(-(a/2)(cos xi + 1)), as exp(-a cos^2(xi/2)) to avoid cancellation."""
    return np.exp(-a * np.cos(xs / 2.0) ** 2)


def weighted_inner_product(pk: TrigPolynomial, pl: TrigPolynomial,
                           a: float | None = None) -> InnerProductReport:
    """Weighted bilinear inner product over one 2*pi window of xi, by both
    routes. The odd family integrates over its natural 4*pi period and is
    rescaled to the 2*pi window (the product of two same-branch functions is
    2*pi periodic for both parities). Both routes are multiplied by e^(a/2),
    which overflows above a ~ 1419."""
    if (pk.parity != pl.parity or pk.n != pl.n or pk.a != pl.a
            or pk.branch is not pl.branch):
        raise InvalidPairingError(
            "inner products need matching parity, n, a and branch: "
            f"({pk.parity.value}, n={pk.n}, a={pk.a}, {pk.branch.value}) vs "
            f"({pl.parity.value}, n={pl.n}, a={pl.a}, {pl.branch.value})"
        )
    if a is not None and float(a) != pk.a:
        raise InvalidPairingError(f"explicit a={a} disagrees with the polynomials' a={pk.a}")
    a = pk.a
    unscale = math.exp(a / 2.0)
    xs, dxi = _quadrature_grid(pk.n, a, pk.period)
    quad = np.sum(_scaled_weight(a, xs) * evaluate(pk, xs) * evaluate(pl, xs)) * dxi
    quad *= unscale * 2.0 * np.pi / pk.period  # unscale, normalize to the 2*pi window
    kern = bilinear_weight_kernel(pk.xi_frequencies, a)
    bess = unscale * 2.0 * np.pi * float(pk.coeffs @ kern @ pl.coeffs)
    return InnerProductReport(pk.k, pl.k, complex(quad), complex(bess), abs(quad - bess))


def normalization_check(p: TrigPolynomial) -> float:
    """(1/window) integral of |p|^2 over one period; equals sum(D**2) = 1."""
    xs, dxi = _quadrature_grid(p.n, 0.0, p.period)
    vals = evaluate(p, xs)
    return float(np.mean(np.abs(vals) ** 2))


def scaled_gram_matrices(sol: SpectralSolution, branch: Branch = Branch.PLUS):
    """gram_matrices times e^(-a/2), finite at any a; the check suite uses
    these."""
    xs, dxi = _quadrature_grid(sol.n, sol.a, sol.period)
    f = harmonic_sum(sol.xi_frequencies, sol.eigenvectors.T, xs, branch).T  # (dim, npts)
    gram_quad = (f * _scaled_weight(sol.a, xs)) @ f.T * dxi * (2.0 * np.pi / sol.period)
    kern = bilinear_weight_kernel(sol.xi_frequencies, sol.a)
    dmat = sol.eigenvectors
    gram_bess = 2.0 * np.pi * (dmat @ kern @ dmat.T)
    return gram_quad, gram_bess


def gram_matrices(sol: SpectralSolution, branch: Branch = Branch.PLUS):
    """Full weighted Gram matrix by the quadrature and Bessel routes; like
    weighted_inner_product it overflows above a ~ 1419."""
    unscale = math.exp(sol.a / 2.0)
    return tuple(unscale * g for g in scaled_gram_matrices(sol, branch))


# ----------------------------------------------------------------------
# Characteristic-polynomial oracle
# ----------------------------------------------------------------------


def _binary(x: float) -> tuple[int, int]:
    """Integer numerator and exponent e >= 0 of a float: x == num / 2**e."""
    num, den = float(x).as_integer_ratio()
    return num, den.bit_length() - 1


def _integer_bands(m: TridiagonalMatrix) -> tuple[list[int], list[int], int]:
    """The diagonal times 2**e and the edge products super * sub times 4**e,
    as exact integers, where 2**e is the finest binary denominator among the
    entries."""
    diag, sup, sub = ([_binary(v) for v in band] for band in (m.diag, m.super, m.sub))
    e = max(ev for _, ev in diag + sup + sub)
    return ([num << (e - ev) for num, ev in diag],
            [(un << (e - ue)) * (ln << (e - le)) for (un, ue), (ln, le) in zip(sup, sub)], e)


def _exact_count(diag: list[int], g: list[int], e: int, x: float) -> int:
    """Number of eigenvalues below x (one at x counts) of the tridiagonal
    matrix with diagonal diag / 2**e and edge products g / 4**e: sign changes
    of the leading principal minors p_j = (d_j - x) p_{j-1} - g_{j-1} p_{j-2}.
    Over the common denominator 2**E, E = max(e, exponent of x), the scaled
    minors P_j = p_j 2**(jE) are exact integers with the same signs. A zero
    minor takes the sign opposite to its predecessor."""
    xnum, xe = _binary(x)
    big = max(e, xe)
    shift, xnum = big - e, xnum << (big - xe)
    if shift:
        diag = [d << shift for d in diag]
        g = [gj << (2 * shift) for gj in g]
    p2, p1, count, sprev = 0, 1, 0, 1
    for d, gj in zip(diag, (0, *g)):
        p2, p1 = p1, (d - xnum) * p1 - gj * p2
        s = (p1 > 0) - (p1 < 0) or -sprev
        count += s != sprev
        sprev = s
    return count


def oracle_eigenvalues(m: TridiagonalMatrix) -> list[float]:
    """All eigenvalues (descending) by bisection on exact Sturm counts,
    independent of the solver: every entry is a float, so over one common
    power-of-two denominator 2**E the minors are exact Python integers and
    need no other scaling. Each label is bisected from the bound
    min/max diag -/+ (2 a dim + 1) until its bracket is a quarter ulp of that
    bound or its midpoint rounds to an end. With every coupling zero the
    diagonal is the spectrum. Dimensions above 8 are refused for cost: a count
    is O(dim) integer operations on numerators that grow by about E bits per
    row."""
    if m.dim > 8:
        raise InvalidArgumentError("the characteristic-polynomial oracle is limited to dim <= 8")
    if m.a == 0 or m.dim == 1:
        return sorted(map(float, m.diag), reverse=True)
    bound = 2.0 * m.a * m.dim + 1.0
    lo0, hi0 = float(np.min(m.diag)) - bound, float(np.max(m.diag)) + bound
    if not math.isfinite(hi0 - lo0):
        raise InvalidArgumentError(f"a={m.a} is too large for the oracle's float bound")
    diag, g, e = _integer_bands(m)
    tol = math.ulp(hi0) / 4
    roots = []
    for i in range(m.dim):
        lo, hi = lo0, hi0
        mid = 0.5 * (lo + hi)
        while hi - lo > tol and lo < mid < hi:
            if _exact_count(diag, g, e, mid) > i:
                hi = mid
            else:
                lo = mid
            mid = 0.5 * (lo + hi)
        roots.append(mid)
    return roots[::-1]


# ----------------------------------------------------------------------
# Full verification suite for one configuration
# ----------------------------------------------------------------------

_CHECK_THRESHOLDS = {
    "eigen_residual": 1e-10,
    "normalization": 1e-12,
    "ode_residual": 1e-8,
    "gram_offdiag": 1e-9,
    "route_agreement": 1e-9,
    "oracle_delta": 1e-10,
    "trace_identity": 1e-9,
}


def verification_report(parity: Parity, n: int, a: float,
                        tier: Tier = Tier.DOUBLE,
                        corrupt_eta_label: int | None = None) -> dict:
    """Run the invariant suite for one configuration.

    corrupt_eta_label is a test hook: it perturbs that eigenvalue by +1 in the
    governing-equation residual, which must trip the ode_residual check.
    """
    m = build_matrix(parity, n, a)
    if corrupt_eta_label is not None and not 1 <= corrupt_eta_label <= m.dim:
        raise InvalidArgumentError(f"corrupt_eta_label={corrupt_eta_label} outside 1..{m.dim}")
    sol = eigen_decompose(m, tier)
    checks = []

    def add(name, observed):
        thr = _CHECK_THRESHOLDS[name]
        checks.append({"name": name, "observed": float(observed),
                       "threshold": thr, "passed": bool(observed <= thr)})

    # eigenpair residuals, relative to |eta| + a*dim
    res = eigenpair_residuals(m, sol.eigenvalues, sol.eigenvectors)
    add("eigen_residual", np.max(res / np.maximum(np.abs(sol.eigenvalues) + m.a * m.dim, 1e-300)))

    add("normalization", np.max(np.abs(np.sum(sol.eigenvectors**2, axis=1) - 1.0)))

    # governing equation for all labels at once, relative to
    # (|eta| + 2na) max|f|. The minus branch's lhs and f are the complex
    # conjugates of the plus branch's, with the same moduli, so one phase
    # matrix checks both branches.
    zs = np.arange(64) * (2.0 * np.pi / 64)
    etas = sol.eigenvalues.copy()
    if corrupt_eta_label is not None:
        etas[corrupt_eta_label - 1] += 1.0
    lhs, f = governing_residual(sol.xi_frequencies, sol.q, sol.a, sol.eigenvectors.T, etas,
                                zs, Branch.PLUS)
    scale = (np.abs(etas) + 2.0 * sol.n * sol.a) * np.max(np.abs(f), axis=0)
    add("ode_residual", np.max(np.max(np.abs(lhs), axis=0) / np.maximum(scale, 1e-300)))

    gq, gb = scaled_gram_matrices(sol)
    # an identically zero form (odd n=0 at a=0, whose one entry is I_1(0)) is
    # measured against its bound 2*pi instead
    dmax = np.max(np.abs(np.diag(gb))) or 2.0 * np.pi
    off = gb - np.diag(np.diag(gb))
    add("gram_offdiag", np.max(np.abs(off)) / dmax)
    add("route_agreement", np.max(np.abs(gq - gb)) / dmax)

    if m.dim <= 8 and m.a > 0:
        oracle = np.array(oracle_eigenvalues(m))
        add("oracle_delta", np.max(np.abs(oracle - sol.eigenvalues)))

    tr = float(np.sum(m.diag))
    add("trace_identity", abs(np.sum(sol.eigenvalues) - tr) / max(1.0, abs(tr)))

    return {
        "parity": parity.value,
        "n": n,
        "a": a,
        "tier": tier.value,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
