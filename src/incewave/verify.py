"""Independent oracles and property checks.

Two ingredients: the weighted bilinear inner product (quadrature and
Bessel-closed-form routes, compared but never silently merged) and a
characteristic-polynomial root finder kept independent of the main
eigensolver's Sturm-count path.

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
from .errors import InvalidArgumentError, InvalidPairingError, OracleFailureError
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


def _minor_sign_grid(m: TridiagonalMatrix, xs: np.ndarray) -> np.ndarray:
    """Sign of det(m - x I) on a grid (0 marks an exact zero), by the scaled
    minor recurrence."""
    g = m.offdiag_products()
    pm2 = np.ones_like(xs)
    pm1 = m.diag[0] - xs
    for j in range(1, m.dim):
        pm2, pm1 = pm1, (m.diag[j] - xs) * pm1 - g[j - 1] * pm2
        mx = np.maximum(np.abs(pm1), np.abs(pm2))
        f = np.where(mx > 1e150, 2.0**-512, 1.0)
        f = np.where((mx > 0) & (mx < 1e-150), 2.0**512, f)
        pm1 *= f
        pm2 *= f
    return np.sign(pm1)


def _bisect_char_root(m: TridiagonalMatrix, lo: float, hi: float,
                      slo: float, tol: float) -> float:
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol or mid == lo or mid == hi:
            break
        smid = _minor_sign_grid(m, np.array([mid]))[0]
        if smid == 0.0:
            return mid
        if smid == slo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def oracle_eigenvalues(m: TridiagonalMatrix) -> list[float]:
    """All eigenvalues (descending) by sign-change scanning of the
    characteristic polynomial plus bisection; independent of the Sturm-count
    solver. Scale-limited to dimension <= 8."""
    if m.dim > 8:
        raise InvalidArgumentError("the characteristic-polynomial oracle is limited to dim <= 8")
    lo = float(np.min(m.diag)) - 2.0 * m.a * m.dim - 1.0
    hi = float(np.max(m.diag)) + 2.0 * m.a * m.dim + 1.0
    npts = 64 * m.dim
    for _ in range(6):
        xs = np.linspace(lo, hi, npts + 1)
        signs = _minor_sign_grid(m, xs)
        roots = [float(x) for x, s in zip(xs, signs) if s == 0.0]
        for i in range(npts):
            if signs[i] != 0.0 and signs[i + 1] != 0.0 and signs[i] != signs[i + 1]:
                roots.append(_bisect_char_root(m, xs[i], xs[i + 1], signs[i], 1e-13))
        if len(roots) == m.dim:
            return sorted(roots, reverse=True)
        npts *= 8
    raise OracleFailureError(
        f"found {len(roots)} roots for dimension {m.dim}; grid failed to "
        "separate the spectrum (all roots must be real and simple)"
    )


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

    # governing equation for all labels at once, per branch, relative to
    # (|eta| + 2na) max|f|
    zs = np.arange(64) * (2.0 * np.pi / 64)
    etas = sol.eigenvalues.copy()
    if corrupt_eta_label is not None:
        etas[corrupt_eta_label - 1] += 1.0
    ratios = []
    for branch in (Branch.PLUS, Branch.MINUS):
        lhs, f = governing_residual(sol.xi_frequencies, sol.q, sol.a, sol.eigenvectors.T, etas,
                                    zs, branch)
        scale = (np.abs(etas) + 2.0 * sol.n * sol.a) * np.max(np.abs(f), axis=0)
        ratios.append(np.max(np.abs(lhs), axis=0) / np.maximum(scale, 1e-300))
    add("ode_residual", np.max(ratios))

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
