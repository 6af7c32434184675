"""Spectral decomposition of the coupling matrices.

The eigenvalue stage of both tiers runs on one problem per solve, the matrix
scaled by an exact power of two (_scaled_problem); its eigenvalues are scaled
back once. Below the ceiling of 2**1020 on its entries nothing overflows.

One LAPACK call, numpy.linalg.eigh on the dense symmetrized problem, gives
all float64 eigenvalues, which are the double-tier values, and starting
vectors. The extended tier refines each value in double-double arithmetic on
the leading-principal-minor recurrence, which only involves the super*sub
products. The number of eigenvalues below a shift equals the number of sign
changes along it (the Sturm count), and the same pass carries the
characteristic polynomial with its first two derivatives. Each LAPACK value
is bracketed at 64 ulps of the spectral scale, and steps to the root of a
local quadratic model of the polynomial finish the value in a few passes
while the counts tighten the brackets; the first pass also confirms the
brackets by counts at their ends. Every result is certified by Sturm counts 1e-26 of the scale to
either side of it; bisection on the counts takes over for any label that is
not. The compensated recurrence resolves eigenvalue pairs splitting around
the 12th significant digit, below one ulp of the values themselves.
This double-double pass is the library's one minor recurrence: sturm_count,
the bracket check of refine_eigenvalue and the characteristic polynomial
(char_poly_scaled, char_poly_eval) run it on the scaled problem too.

Eigenvectors, in the matrix's own units, come from two sweeps of inverse
iteration on the symmetrized matrix at the final shifts, all eigenvalues
solved at once and each near-degenerate cluster re-orthonormalized after
every sweep. Each cluster is then rotated, still in the symmetric basis,
where the true vectors are orthonormal (in coefficient space a pair's
overlap by ~0.5), to diagonalize the weighted bilinear Gram form of its
coefficient vectors. That recovers the correct pair members even when the
splitting is below arithmetic resolution; members are matched to eigenvalues
by the compensated two-sided Rayleigh quotient, compared as (hi, lo) pairs.
The vectors are then mapped back through the diagonal similarity scaling,
D = v / d.

nearest_eigenpair runs the same stages on the few labels around one eta
(_window), and at the extended tier on labels 1 and dim, which set the
spectral scale; its eigenpair is that of the full solve, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import ddcore as ddc
from .bessel import bilinear_weight_kernel
from .errors import (
    InvalidArgumentError,
    InvalidBracketError,
    NumericalFailureError,
)
from .ince_matrix import HarmonicLayout, Parity, TridiagonalMatrix

_EPS = np.finfo(float).eps

# Consecutive eigenvalues closer than this (relative to the spectral scale)
# are treated as one cluster for the eigenvector post-processing.
_CLUSTER_RELGAP = 1e-4

# Inverse-iteration sweeps from the LAPACK vectors. The LAPACK vectors alone
# miss the pair-member assignment, and one sweep leaves the odd n=15, a=12
# top pair (split 1.95e-13) further from a 60-digit reference than two do.
_SWEEPS = 2

# Ceiling on the matrix entries max(|diag|, sqrt(super*sub)). Below it the
# eigenvalues (under 3x the ceiling), their residuals and the tolerances
# stay inside float range in the matrix's units.
_MAX_SCALE = 2.0**1020


class Tier(Enum):
    DOUBLE = "double"
    EXTENDED = "extended"


@dataclass(frozen=True)
class SpectralSolution(HarmonicLayout):
    """Full spectrum of one coupling matrix.

    eigenvalues are sorted descending (label k = 1..dim indexes this order);
    eigenvectors[k-1] is the coefficient vector D_r over ascending r, with
    sum(D**2) == 1 and the largest-magnitude component positive (ties broken
    toward lower r). At the extended tier eigenvalues_lo holds the
    double-double correction: eigenvalues[i] + eigenvalues_lo[i] is the
    compensated value.
    """

    parity: Parity
    n: int
    a: float
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    refinement: Tier
    eigenvalues_lo: np.ndarray | None = None

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.eigenvectors.setflags(write=False)
        if self.eigenvalues_lo is not None:
            self.eigenvalues_lo.setflags(write=False)

    def eigenvalue_dd(self, k: int) -> tuple[float, float]:
        """Compensated (hi, lo) pair for label k (1-based, descending)."""
        lo = 0.0 if self.eigenvalues_lo is None else self.eigenvalues_lo[k - 1]
        return float(self.eigenvalues[k - 1]), float(lo)


class Eigenpair(NamedTuple):
    """Row k of a solution: label k (1-based, descending), the eigenvalue,
    its double-double correction (0.0 at the double tier) and the normalized,
    sign-fixed coefficient vector."""

    k: int
    eigenvalue: float
    eigenvalue_lo: float
    eigenvector: np.ndarray


def symmetrize(m: TridiagonalMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Symmetrizing data: off-diagonals c_j = sqrt(super_j*sub_j) and the
    positive diagonal scaling d (d[0] = 1) with diag(d) m diag(d)^-1
    symmetric. A vector v of the symmetric matrix maps back to D = v / d."""
    _, c, _, e = _scaled_problem(m)
    return np.ldexp(c, e), _similarity_scale(m)


def _similarity_scale(m: TridiagonalMatrix) -> np.ndarray:
    d = np.ones(m.dim)
    if m.a > 0 and m.dim > 1:
        d[1:] = np.cumprod(np.sqrt(m.super / m.sub))
    return d


def _scaled_problem(m: TridiagonalMatrix, shift: float = 0.0):
    """(diag, c, g_dd, e): the matrix scaled by 2**-e, with 2**e just above
    max(|diag|, sqrt(super*sub), |shift|), as its diagonal, its symmetrized
    off-diagonals sqrt(super*sub) and its super*sub products as exact
    double-double values. Entries at or above _MAX_SCALE raise
    InvalidArgumentError; a finite shift may reach the top of the float
    range, and scaled by 2**-e it stays below 1."""
    size = max(float(np.max(np.abs(m.diag))),
               float(np.max(np.sqrt(np.abs(m.super)) * np.sqrt(np.abs(m.sub)), initial=0.0)))
    if not size < _MAX_SCALE:
        raise InvalidArgumentError(f"matrix entries reach {size:.4g}, above the solver's "
                                   f"ceiling 2**1020 = {_MAX_SCALE:.4g}: a is too large")
    e = math.frexp(max(size, abs(shift)))[1]
    g_dd = ddc.two_prod(np.ldexp(m.super, -e), np.ldexp(m.sub, -e))
    if np.any(g_dd[0] < 0):
        raise NumericalFailureError("off-diagonal products must be >= 0 for a valid matrix")
    return np.ldexp(m.diag.astype(float), -e), np.sqrt(g_dd[0]), g_dd, e


# ----------------------------------------------------------------------
# Sturm counts: number of eigenvalues strictly below a shift, from sign
# changes of the minor recurrence p_j = (d_j - x) p_{j-1} - g_{j-1} p_{j-2}.
# A zero minor takes the opposite sign of its predecessor.
# ----------------------------------------------------------------------

_BIG = 1e200
_SMALL = 1e-200
_DOWN = 2.0**-600
_UP = 2.0**600

# Half-width of the extended tier's seed brackets around the LAPACK values,
# and the width its results are certified to, both relative to the spectral
# scale max|eta|.
_SEED_PAD = 64 * _EPS
_TARGET = 1e-26
# Newton-type passes of _refine_dd before a label is handed to bisection;
# the quadratic model needs at most 6 on the sweeps in the tests, usually 2-3.
_NEWTON_PASSES = 32


def _count_dd(diag, g_dd, xh, xl, derivs=False, count_cols=0):
    """Sturm counts at the double-double shifts xh + xl, from one pass of the
    minor recurrence in double-double arithmetic. With derivs it returns
    (counts, ph, pl, ex) instead: ph + pl is the (3, k) stack of the last
    minor p = det(T - x), p' and p''/2, all three times the same 2**-ex.
    They follow the recurrence of the minors, differentiated:
    P_j = (d_j - x) P_{j-1} - g_{j-1} P_{j-2} - (0, p_{j-1}, p'_{j-1}).
    The first count_cols columns of a derivs pass carry the count only: their
    p' and p''/2 rows stay zero, so each column's count, and each other
    column's p, p', p''/2 and exponent, is that of a pass of its own kind.

    Every float operation is that of ddcore's dd_mul and dd_sub; only the
    numpy calls around them are fewer. Each factor is split once for both
    of its products: the g_j and the shifted diagonal for all rows before
    the loop, each new minor as it is formed. A column is rescaled by 2**600
    or 2**-600 where its two latest minors leave [_SMALL, _BIG], and the
    rescale runs only when some column does."""
    xh = np.atleast_1d(np.asarray(xh, dtype=float))
    xl = np.broadcast_to(np.asarray(xl, dtype=float), xh.shape)
    gh, gl = g_dd
    th, tl = ddc.dd_add(diag[:, None], 0.0, -xh, -xl)
    thh, thl = ddc.split(th)
    p2h = np.zeros((3 if derivs else 1,) + xh.shape)
    p2l, p1h, p1l = np.zeros_like(p2h), np.zeros_like(p2h), np.zeros_like(p2h)
    p2h[0], p1h[0], p1l[0] = 1.0, th[0], tl[0]
    if derivs:
        p1h[1, count_cols:] = -1.0
    s1, s2 = ddc.split(p1h), ddc.split(p2h)
    a2 = np.abs(p1h)
    ex = np.zeros(xh.shape, dtype=np.int64)
    # hi parts of the leading minors, after a row of ones; a double-double
    # sum has a zero hi part only where it is exactly zero, so the hi part
    # carries the minor's sign
    hs = np.empty((len(diag) + 1,) + xh.shape)
    hs[0], hs[1] = 1.0, th[0]
    rows = zip(th[1:], tl[1:], zip(thh[1:], thl[1:]), gh, gl, zip(*ddc.split(gh)))
    for j, (thj, tlj, tsj, ghj, glj, gsj) in enumerate(rows, start=2):
        ah, al = ddc.dd_mul_split(thj, tlj, tsj, p1h, p1l, s1)
        bh, bl = ddc.dd_mul_split(ghj, glj, gsj, p2h, p2l, s2)
        ph, pl = ddc.dd_sub(ah, al, bh, bl)
        if derivs:
            nc = slice(count_cols, None)
            ph[1:, nc], pl[1:, nc] = ddc.dd_sub(ph[1:, nc], pl[1:, nc], p1h[:-1, nc], p1l[:-1, nc])
        p2h, p2l, s2, p1h, p1l = p1h, p1l, s1, ph, pl
        a1 = np.abs(p1h)
        mx = np.maximum(a1, a2).max(axis=0)
        if not (mx.max(initial=0.0) <= _BIG and mx.min(initial=_SMALL) >= _SMALL):
            f = np.where(mx > _BIG, _DOWN, 1.0)
            f = np.where((mx > 0) & (mx < _SMALL), _UP, f)
            p1h, p1l = p1h * f, p1l * f
            p2h, p2l = p2h * f, p2l * f
            s2, a1 = ddc.split(p2h), np.abs(p1h)
            if derivs:
                ex -= np.frexp(f)[1] - 1
        s1, a2 = ddc.split(p1h), a1
        hs[j] = p1h[0]
    sg = np.sign(hs)
    # a zero minor takes the opposite sign of its predecessor
    for j in np.flatnonzero(~sg.all(axis=1)):
        sg[j] = np.where(sg[j] == 0, -sg[j - 1], sg[j])
    cnt = np.count_nonzero(sg[1:] != sg[:-1], axis=0)
    return (cnt, p1h, p1l, ex) if derivs else cnt


def _finite(x, name: str) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise InvalidArgumentError(f"{name} must be finite")
    return x


def _count_below(m: TridiagonalMatrix, xs) -> np.ndarray:
    """Number of eigenvalues of m strictly below each finite shift of xs.

    The shifts are clipped to the padded Gershgorin interval of the scaled
    problem, where the counts are exactly 0 or dim, so the double-double pass
    never sees a shift that overflows its products. With every coupling zero
    (a = 0, or dimension 1) the diagonal holds the eigenvalues and is counted
    exactly: the recurrence does not recover from an exactly zero minor."""
    xs = np.asarray(xs, dtype=float)
    if m.a == 0 or m.dim == 1:
        return np.searchsorted(np.sort(m.diag), xs)
    diag, c, g_dd, e = _scaled_problem(m)
    return _count_dd(diag, g_dd, np.clip(np.ldexp(xs, -e), *_gershgorin(diag, c)), 0.0)


def sturm_count(m: TridiagonalMatrix, eta: float) -> int:
    """Number of eigenvalues of m strictly below eta."""
    return int(_count_below(m, [_finite(eta, "eta")])[0])


def char_poly_scaled(m: TridiagonalMatrix, eta: float) -> tuple[float, int]:
    """det(m - eta*I) as (mantissa, exp2) with value = mantissa * 2**exp2 and
    0.5 <= |mantissa| < 1 (or 0), from the double-double pass on the matrix
    scaled by 2**-e, 2**e just above max(entries, |eta|). The mantissa
    carries the exact sign."""
    eta = _finite(eta, "eta")
    diag, _, g_dd, e = _scaled_problem(m, eta)
    _, ph, pl, ex = _count_dd(diag, g_dd, math.ldexp(eta, -e), 0.0, derivs=True)
    mant, exp2 = math.frexp(float(ph[0, 0] + pl[0, 0]))
    return mant, exp2 + int(ex[0]) + e * m.dim


def char_poly_eval(m: TridiagonalMatrix, eta: float) -> float:
    """det(m - eta*I). Saturates to +-inf when the determinant exceeds float
    range; use char_poly_scaled for the sign/scale in that regime."""
    mant, exp2 = char_poly_scaled(m, eta)
    try:
        return math.ldexp(mant, exp2)
    except OverflowError:
        return math.inf if mant > 0 else -math.inf


def _gershgorin(diag: np.ndarray, c: np.ndarray) -> tuple[float, float]:
    radius = np.zeros(diag.size)
    radius[:-1] += c
    radius[1:] += c
    lo = float(np.min(diag - radius))
    hi = float(np.max(diag + radius))
    pad = 1e-8 * max(abs(lo), abs(hi))
    return lo - pad, hi + pad


def _bisect_dd(diag, g_dd, loh, lol, hih, hil, ks, target, max_iter=160):
    """Bisection on double-double Sturm counts: the midpoints of the brackets
    of eigenvalues number ks (ascending, 1-based), each bisected until it is
    at most target wide and then left alone, so a label's value does not
    depend on the others. Each bracket must hold count(lo) <= k-1 and
    count(hi) >= k."""
    width = (hih - loh) + (hil - lol)
    for _ in range(max_iter):
        mh, ml = ddc.dd_scale_pow2(*ddc.dd_add(loh, lol, hih, hil), 0.5)
        take = _count_dd(diag, g_dd, mh, ml) >= ks
        wide = width > target
        up, down = wide & take, wide & ~take
        hih = np.where(up, mh, hih)
        hil = np.where(up, ml, hil)
        loh = np.where(down, mh, loh)
        lol = np.where(down, ml, lol)
        width = (hih - loh) + (hil - lol)
        if np.all(width <= target):
            return ddc.dd_scale_pow2(*ddc.dd_add(loh, lol, hih, hil), 0.5)
    i = int(np.argmax(~(width <= target)))
    raise NumericalFailureError(
        f"double-double bisection for eigenvalue label k={len(diag) + 1 - int(ks[i])} "
        f"stopped after {max_iter} iterations with bracket width {float(width[i])!r} "
        f"above its target {float(target)!r}")


def _model_step(ph, pl, gap):
    """Step h from x to the root of the local model p + p'h + (p''/2)h**2
    that stands for the wanted eigenvalue; ph + pl stacks (p, p', p''/2) at
    x. gap = k-1 - count(x) places that eigenvalue: above x when gap >= 0,
    with gap eigenvalues in between, else below x with -gap-1 in between.
    With none in between the nearer model root on that side is taken, with
    one the farther. A model without real roots steps to its centre. NaN
    where the model has no such step."""
    e = np.frexp(np.max(np.abs(ph), axis=0))[1]
    ph, pl = np.ldexp(ph, -e), np.ldexp(pl, -e)
    sq_h, sq_l = ddc.dd_mul(ph[1], pl[1], ph[1], pl[1])
    pq_h, pq_l = ddc.dd_mul(ph[0], pl[0], ph[2], pl[2])
    disc_h, disc_l = ddc.dd_sub(sq_h, sq_l, 4.0 * pq_h, 4.0 * pq_l)
    p, dp, q = ph + pl
    disc = disc_h + disc_l
    side = np.where(gap >= 0, 1.0, -1.0)
    between = np.where(gap >= 0, gap, -gap - 1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = -(dp + np.copysign(np.sqrt(disc), dp))
        roots = side * np.stack([w / (2.0 * q), 2.0 * p / w])
        roots = np.where(roots >= 0, roots, np.nan)
        h = np.where(between == 0, np.fmin(roots[0], roots[1]),
                     np.where(between == 1, np.maximum(roots[0], roots[1]), np.nan))
        centre = -side * dp / (2.0 * q)
        h = np.where(disc < 0, np.where(centre > 0, centre, np.nan), h)
    return side * h


def _dd_less(a, b):
    """a < b for double-double values stacked as (hi, lo) along axis 0."""
    return (a[0] < b[0]) | ((a[0] == b[0]) & (a[1] < b[1]))


def _refine_dd(diag, g_dd, ks, x0, loh, hih, target, fallback):
    """Eigenvalues number ks (ascending, 1-based) of the double-double problem
    (diag, g_dd) as (hi, lo) arrays, each certified by Sturm counts to lie
    within target of its count transition. The float64 seed brackets
    (loh, hih) contain x0; the first pass confirms them by counts at their
    ends, and an end that fails count(lo) <= k-1 or count(hi) >= k (float64
    rounding bias) falls back to that end of the interval fallback, which
    must hold every eigenvalue.

    Each pass evaluates the count, p, p' and p''/2 at the current point of
    every unfinished label, tightens its bracket by the count, and takes the
    quadratic model step (_model_step), or bisects where that step is
    missing or leaves the bracket. Plain Newton converges only linearly on
    pairs that split below the seeds' error; the model's second root keeps
    them fast. A label finishes when its step or its bracket is at most
    target. Labels that do not finish, or fail the count pass at x -+ target,
    are bisected from their brackets."""
    zero = np.zeros(ks.shape)
    x, lo, hi = (np.array([v, zero], dtype=float) for v in (x0, loh, hih))
    out = np.full((2, ks.size), np.nan)
    act = np.arange(ks.size)
    ends = np.concatenate([loh, hih])  # count-only columns of the first pass
    for _ in range(_NEWTON_PASSES):
        if not act.size:
            break
        xa, k = x[:, act], ks[act]
        cnt, ph, pl, _ = _count_dd(diag, g_dd, np.concatenate([ends, xa[0]]),
                                   np.concatenate([np.zeros_like(ends), xa[1]]),
                                   derivs=True, count_cols=ends.size)
        if ends.size:
            lo[0] = np.where(cnt[:ks.size] > ks - 1, fallback[0], loh)
            hi[0] = np.where(cnt[ks.size:ends.size] < ks, fallback[1], hih)
            cnt, ph, pl, ends = cnt[ends.size:], ph[:, ends.size:], pl[:, ends.size:], ends[:0]
        up = cnt >= k
        hi[:, act] = np.where(up, xa, hi[:, act])
        lo[:, act] = np.where(up, lo[:, act], xa)
        mid = np.array(ddc.dd_scale_pow2(*ddc.dd_add(*lo[:, act], *hi[:, act]), 0.5))
        h = _model_step(ph, pl, k - 1 - cnt)
        step = np.array(ddc.dd_add(*xa, np.where(np.isfinite(h), h, 0.0), 0.0))
        inside = np.isfinite(h) & _dd_less(lo[:, act], step) & _dd_less(step, hi[:, act])
        x[:, act] = np.where(inside, step, mid)
        stepped = np.abs(h) <= target
        done = stepped | ((hi[0, act] - lo[0, act]) + (hi[1, act] - lo[1, act]) <= target)
        out[:, act[done]] = np.where(stepped, step, mid)[:, done]
        act = act[~done]
    fin = np.flatnonzero(np.isfinite(out[0]))
    cnt = _count_dd(diag, g_dd, *ddc.dd_add(*np.tile(out[:, fin], 2),
                                           np.repeat([-target, target], fin.size), 0.0))
    good = (cnt[:fin.size] <= ks[fin] - 1) & (cnt[fin.size:] >= ks[fin])
    redo = np.union1d(act, fin[~good])
    if redo.size:
        out[:, redo] = _bisect_dd(diag, g_dd, *lo[:, redo], *hi[:, redo], ks[redo], target)
    return out[0], out[1]


def _eigenvalues_dd(problem, seeds: np.ndarray,
                    idx: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Extended-tier eigenvalues of the scaled problem (_scaled_problem) at
    the ascending indices idx (all by default), seeded from its ascending
    float64 estimates seeds; (hi, lo) arrays in the problem's units.

    Each seed is bracketed at +-64 ulps of the spectral scale; the first pass
    of _refine_dd confirms the brackets, and an end that fails falls back to
    the Gershgorin interval."""
    diag, c, g_dd, e = problem
    idx = np.arange(diag.size) if idx is None else np.asarray(idx)
    scale = float(np.max(np.abs(seeds)))
    x0 = seeds[idx]
    eh, el = _refine_dd(diag, g_dd, idx + 1, x0, x0 - _SEED_PAD * scale, x0 + _SEED_PAD * scale,
                        _TARGET * scale, _gershgorin(diag, c))
    # a refined value far outside its seed bracket means the compensated
    # recurrence broke down
    stray = np.abs((eh + el) - x0) > 1e-8 * scale
    if np.any(stray):
        i = int(np.argmax(stray))
        raise NumericalFailureError(
            f"double-double refinement moved eigenvalue label k={diag.size - int(idx[i])} "
            f"from {math.ldexp(x0[i], e)!r} to {math.ldexp(eh[i] + el[i], e)!r}")
    return eh, el


# ----------------------------------------------------------------------
# Eigenvectors: LAPACK start, batched inverse iteration on the symmetric form
# ----------------------------------------------------------------------


def _lapack_eigh(diag: np.ndarray, c: np.ndarray):
    """Ascending float64 eigenvalues and unit column eigenvectors of the
    symmetric tridiagonal (diag, c), from LAPACK through numpy.linalg.eigh."""
    t = np.diag(diag)
    i = np.arange(diag.size - 1)
    t[i, i + 1] = c
    t[i + 1, i] = c
    try:
        return np.linalg.eigh(t)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"LAPACK eigh failed: {exc}") from exc


def _factor_shifted(dshift, e):
    """LU factorization by Gaussian elimination with partial pivoting of the
    tridiagonal T(diag dshift, offdiag e); tiny pivots are replaced (the
    standard inverse-iteration treatment of a numerically singular shift).
    dshift may carry a trailing axis of k shifts, factored as k independent
    systems that share e. Returns (piv, fact, dm, du, du2): the row exchange
    and multiplier of each elimination step, and U's diagonal and two
    superdiagonals, each (n or n - 1, k)."""
    n = np.shape(dshift)[0]
    dm = np.array(dshift, dtype=float).reshape(n, -1)
    du = np.repeat(np.reshape(e, (-1, 1)).astype(float), dm.shape[1], axis=1)
    du2 = np.zeros_like(du)
    piv, fact = np.zeros(du.shape, dtype=bool), np.zeros_like(du)
    tiny = _EPS * (np.max(np.abs(dm), axis=0) + 2 * (np.max(np.abs(e)) if e.size else 0.0) + 1.0)
    for i in range(n - 1):
        p = np.abs(dm[i]) < abs(e[i])
        dmi = np.where(p, e[i], np.where(dm[i] == 0.0, tiny, dm[i]))
        f = np.where(p, dm[i], e[i]) / dmi
        top, low = np.where(p, du[i], dm[i + 1]), np.where(p, dm[i + 1], du[i])
        dm[i], dm[i + 1], du[i] = dmi, top - f * low, low
        piv[i], fact[i] = p, f
        if i < n - 2:
            du2[i] = np.where(p, du[i + 1], 0.0)
            du[i + 1] = np.where(p, -f * du[i + 1], du[i + 1])
    return piv, fact, np.where(dm != 0, dm, tiny), du, du2


def _solve_factored(lu, rhs):
    """Solve the systems factored by _factor_shifted for rhs, (n, k) or
    (n,) for one system; returns x as (n, k)."""
    piv, fact, dm, du, du2 = lu
    x = np.array(rhs, dtype=float).reshape(dm.shape)
    n = dm.shape[0]
    for i in range(n - 1):
        top = np.where(piv[i], x[i + 1], x[i])
        x[i + 1] = np.where(piv[i], x[i], x[i + 1]) - fact[i] * top
        x[i] = top
    for i in range(n - 1, -1, -1):
        acc = x[i]
        if i + 1 < n:
            acc = acc - du[i] * x[i + 1]
        if i + 2 < n:
            acc = acc - du2[i] * x[i + 2]
        x[i] = acc / dm[i]
    return x


def _by_size(clusters: list[slice]) -> dict[int, np.ndarray]:
    """The clusters of two or more labels grouped by size: for each size s,
    the (K, s) column indices of its K clusters in ascending order."""
    groups: dict[int, list[range]] = {}
    for sl in clusters:
        if sl.stop - sl.start > 1:
            groups.setdefault(sl.stop - sl.start, []).append(range(sl.start, sl.stop))
    return {s: np.array(rs) for s, rs in groups.items()}


def _blocks(v: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The columns cols (K, s) of v as a C-contiguous (K, dim, s) stack: numpy
    computes each matrix of the stack as it would the basic slice v[:, sl]."""
    return np.ascontiguousarray(v[:, cols.ravel()].reshape(v.shape[0], *cols.shape).swapaxes(0, 1))


def _put_blocks(v: np.ndarray, cols: np.ndarray, blocks: np.ndarray):
    v[:, cols.ravel()] = blocks.swapaxes(0, 1).reshape(v.shape[0], cols.size)


def _inverse_sweeps(dsym, c, mu, v, clusters):
    """Inverse iteration at the shifts mu (descending) for all columns of v at
    once, re-orthonormalized within every cluster after each sweep. Each
    shifted system is factored once for all sweeps, and the clusters of one
    size share one QR call per sweep. Solves shrink as 1/|mu|: one below 1/2
    is scaled up by an exact power of two so that its norm does not
    underflow. A column whose solve does not stay finite (near the top of the
    float range) keeps its previous vector."""
    groups = _by_size(clusters)
    with np.errstate(over="ignore", invalid="ignore"):
        lu = _factor_shifted(dsym[:, None] - mu[None, :], c)
    for _ in range(_SWEEPS):
        with np.errstate(over="ignore", invalid="ignore"):
            w = _solve_factored(lu, v)
            w = np.ldexp(w, np.maximum(-np.frexp(np.max(np.abs(w), axis=0))[1], 0))
        norm = np.linalg.norm(w, axis=0)
        ok = np.isfinite(norm) & (norm > 0)
        w = np.where(ok, w / np.where(ok, norm, 1.0), v)
        for cols in groups.values():
            _put_blocks(w, cols, np.linalg.qr(_blocks(w, cols))[0])
        v = w
    return v


def _cluster_slices(vals_desc: np.ndarray, scale: float | None = None) -> list[slice]:
    """Runs of the descending values cut wherever a gap is not at most
    _CLUSTER_RELGAP * scale, by default scale = max|value|."""
    if scale is None:
        scale = float(np.max(np.abs(vals_desc)))
    cuts = np.flatnonzero(~(vals_desc[:-1] - vals_desc[1:] <= _CLUSTER_RELGAP * scale)) + 1
    bounds = [0, *cuts.tolist(), vals_desc.size]
    return [slice(i, j) for i, j in zip(bounds[:-1], bounds[1:])]


def _dd_sum(h, l):
    """Double-double sum over axis 0 by pairwise (tree) addition."""
    while h.shape[0] > 1:
        half = h.shape[0] // 2
        sh, sl = ddc.dd_add(h[:half], l[:half], h[half:2 * half], l[half:2 * half])
        h = np.concatenate([sh, h[2 * half:]])
        l = np.concatenate([sl, l[2 * half:]])
    return h[0], l[0]


def _rayleigh_dd(m: TridiagonalMatrix, right: np.ndarray, left: np.ndarray | None = None):
    """Compensated quotients (left . M right) / (left . right), left = right
    by default, of the columns of (dim, k) blocks or of single vectors (0-d
    results), as a (hi, lo) pair."""
    right = np.asarray(right, dtype=float)
    blk = right.reshape(m.dim, -1)
    lblk = blk if left is None else np.asarray(left, dtype=float).reshape(blk.shape)
    th, tl = ddc.two_prod(m.diag.astype(float)[:, None], blk)
    if m.dim > 1:
        ph, pl = ddc.two_prod(m.super[:, None], blk[1:])
        th[:-1], tl[:-1] = ddc.dd_add(th[:-1], tl[:-1], ph, pl)
        ph, pl = ddc.two_prod(m.sub[:, None], blk[:-1])
        th[1:], tl[1:] = ddc.dd_add(th[1:], tl[1:], ph, pl)
    numh, numl = _dd_sum(*ddc.dd_mul(th, tl, lblk, 0.0))
    denh, denl = _dd_sum(*ddc.two_prod(lblk, blk))
    qh, ql = ddc.dd_div(numh, numl, denh, denl)
    return qh.reshape(right.shape[1:]), ql.reshape(right.shape[1:])


def _fix_signs(vecs_rows: np.ndarray) -> np.ndarray:
    """Make each row's largest-magnitude component positive; argmax takes the
    first maximum, so ties break toward lower r."""
    j = np.argmax(np.abs(vecs_rows), axis=1)
    flip = vecs_rows[np.arange(vecs_rows.shape[0]), j] < 0
    return np.where(flip[:, None], -vecs_rows, vecs_rows)


def _rotate_clusters(m: TridiagonalMatrix, clusters: list[slice], v: np.ndarray,
                     d: np.ndarray) -> np.ndarray:
    """Rotate the orthonormal columns v of the symmetrized matrix within every
    near-degenerate cluster to diagonalize the bilinear Gram form of the
    coefficient vectors v / d, and order each cluster's members by descending
    compensated quotient (d v) . M (v / d) / ((d v) . (v / d)). The clusters
    of one size share one Gram product, one eigh and one back-rotation."""
    groups = _by_size(clusters)
    if not groups:
        return v
    v = v.copy()
    weight = bilinear_weight_kernel(m.xi_frequencies, m.a)
    blocks, grams = {}, {}
    for s, cols in groups.items():
        blocks[s] = _blocks(v, cols)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            u = blocks[s] / d[:, None]
            grams[s] = u.swapaxes(1, 2) @ weight @ u
    # the lowest cluster whose form is not finite, as a cluster-by-cluster pass would find it
    bad = [(int(cols[j, 0]), s) for s, cols in groups.items()
           for j in np.flatnonzero(~np.isfinite(grams[s]).all(axis=(1, 2)))]
    if bad:
        k, s = min(bad)
        raise NumericalFailureError(
            f"cluster rotation for labels k={k + 1}..{k + s}: Gram form not "
            f"finite (smallest scale factor {float(np.min(d))!r})")
    for s, cols in groups.items():
        _put_blocks(v, cols, blocks[s] @ np.linalg.eigh(grams[s])[1])
    cols = np.concatenate([cols.ravel() for cols in groups.values()])
    qh, ql = np.empty(v.shape[1]), np.empty(v.shape[1])
    qh[cols], ql[cols] = _rayleigh_dd(m, v[:, cols] / d[:, None], v[:, cols] * d[:, None])
    for cols in groups.values():
        order = np.lexsort((-ql[cols], -qh[cols]))
        v[:, cols.ravel()] = v[:, np.take_along_axis(cols, order, axis=1).ravel()]
    return v


def eigen_decompose(m: TridiagonalMatrix, tier: Tier = Tier.DOUBLE) -> SpectralSolution:
    """All eigenvalues (descending) and normalized coefficient vectors."""
    _, vals, lo, vecs, _ = _solve(m, tier)
    return SpectralSolution(m.parity, m.n, m.a, vals, vecs, tier,
                            lo if tier is Tier.EXTENDED else None)


def eigenvalues(m: TridiagonalMatrix, tier: Tier = Tier.DOUBLE) -> np.ndarray:
    """All eigenvalues, descending: those of eigen_decompose(m, tier), bit for
    bit, without the vector stage."""
    return _values(m, tier)[0]


def nearest_eigenpair(m: TridiagonalMatrix, eta: float, tier: Tier = Tier.DOUBLE) -> Eigenpair:
    """The eigenpair whose eigenvalue is nearest eta, the lower label on a
    tie: row k of eigen_decompose(m, tier), bit for bit. Only the labels
    around eta are solved (_window), and only the residuals of label k's
    cluster are checked."""
    start, vals, lo, vecs, i = _solve(m, tier, _finite(eta, "eta"))
    return Eigenpair(start + i + 1, float(vals[i]), float(lo[i]), vecs[i])


def _window(vals_desc: np.ndarray, eta: float) -> slice:
    """Labels whose eigenpairs nearest_eigenpair solves: the cluster of the
    LAPACK value (in vals_desc) nearest eta and the clusters on either side
    of it, all cut at twice the cluster gap. Refinement moves a value by at
    most 1e-8 of the scale, so the refined values still cut the clusters of
    the vector stage at both ends of the window, and the refined value
    nearest eta lies inside it: in that cluster, or in the next one on the
    other side of eta."""
    k = int(np.argmin(np.abs(vals_desc - eta)))
    wide = _cluster_slices(vals_desc, 2.0 * float(np.max(np.abs(vals_desc))))
    j = next(i for i, sl in enumerate(wide) if sl.stop > k)
    return slice(wide[max(j - 1, 0)].start, wide[min(j + 1, len(wide) - 1)].stop)


def _values(m: TridiagonalMatrix, tier: Tier, eta: float | None = None):
    """The value half of _solve: the LAPACK values, with the window's labels
    (all, or the _window around eta) refined in double-double at the extended
    tier. Returns (vals, lo, win, scale, v, c): the window's descending
    eigenvalues and their double-double corrections (zero at the double
    tier), the window, max|eta| over the final values, the window's starting
    vectors as columns and the symmetrized off-diagonals; c is None where the
    diagonal holds the eigenvalues (a = 0 or dimension 1), and v is then the
    permutation that sorts it.

    At the extended tier labels 1 and dim are refined with the window: their
    values set max|eta|, the scale of the clusters."""
    dim = m.dim
    if m.a == 0 or dim == 1:
        order = np.argsort(-m.diag, kind="stable")
        vals = m.diag[order].astype(float)
        return (vals, np.zeros(dim), slice(0, dim), float(np.max(np.abs(vals))),
                np.eye(dim)[:, order], None)
    diag, c, _, e = problem = _scaled_problem(m)
    asc, v = _lapack_eigh(diag, c)
    vals, lo = np.ldexp(asc[::-1], e), np.zeros(dim)
    win = slice(0, dim) if eta is None else _window(vals, eta)
    final = np.arange(dim)  # labels whose values are final
    if tier is Tier.EXTENDED:
        final = np.union1d([0, dim - 1], final[win])
        eh, el = _eigenvalues_dd(problem, asc, dim - 1 - final[::-1])
        hi = eh + el  # best float64 rounding of the compensated value
        vals[final], lo[final] = np.ldexp(hi[::-1], e), np.ldexp(((eh - hi) + el)[::-1], e)
    return (vals[win], lo[win], win, float(np.max(np.abs(vals[final]))), v[:, ::-1][:, win],
            np.ldexp(c, e))


def _solve(m: TridiagonalMatrix, tier: Tier, eta: float | None = None):
    """The stages of eigen_decompose on a window of labels: all of them, or
    the _window around eta (_values). Returns (start, vals, lo, vecs, i): the
    window's first label (0-based), its descending eigenvalues with their
    double-double corrections (zero at the double tier), its coefficient
    vectors as rows, and the row nearest eta (None without eta). The
    residuals are checked on every row, or on the cluster of row i.

    Every stage treats each label, or each cluster, on its own, so a row
    does not depend on the rest of the window, bit for bit; the window holds
    whole clusters and, for dim > 1, at least two labels, as numpy sums a
    one-column block in another order."""
    vals, lo, win, scale, v, c = _values(m, tier, eta)
    clusters = _cluster_slices(vals, scale)
    i = None if eta is None else int(np.argmin(np.abs(vals - eta)))
    if c is None:  # the diagonal holds the eigenvalues
        return 0, vals, lo, _fix_signs(_rotate_clusters(m, clusters, v, np.ones(m.dim)).T), i

    dscale = _similarity_scale(m)
    v = _inverse_sweeps(m.diag.astype(float), c, vals, v, clusters)
    v = _rotate_clusters(m, clusters, v, dscale)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vecs = (v / dscale[:, None]).T
        norm = np.sqrt(np.sum(vecs**2, axis=1))
    if not np.all(np.isfinite(norm)):
        k = win.start + int(np.argmax(~np.isfinite(norm))) + 1
        raise NumericalFailureError(f"back-transform of label k={k} overflows "
                                    f"(smallest scale factor {float(np.min(dscale))!r})")
    vecs = _fix_signs(vecs / norm[:, None])
    rows = slice(0, vals.size) if i is None else next(sl for sl in clusters if sl.stop > i)
    _check_residuals(m, vals[rows], vecs[rows], win.start + rows.start)
    return win.start, vals, lo, vecs, i


def eigenpair_residuals(m: TridiagonalMatrix, vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """max_r |((M - vals[k]) vecs[k])_r| for every row k of the (k, dim)
    coefficient block vecs."""
    t = (m.diag - vals[:, None]) * vecs
    t[:, :-1] += m.super * vecs[:, 1:]
    t[:, 1:] += m.sub * vecs[:, :-1]
    return np.max(np.abs(t), axis=1)


def _check_residuals(m: TridiagonalMatrix, vals: np.ndarray, vecs: np.ndarray, first: int = 0):
    """Raise unless every row of vecs, label first + 1 onwards, is an
    eigenvector of m at vals within 1e-10 * (|eta| + a*dim + 1)."""
    res = eigenpair_residuals(m, vals, vecs)
    bad = ~(res <= 1e-10 * (np.abs(vals) + m.a * m.dim + 1.0))  # a NaN residual fails too
    if np.any(bad):
        raise NumericalFailureError(
            f"eigenpair residual out of tolerance for label k={first + int(np.argmax(bad)) + 1}")


def refine_eigenvalue(m: TridiagonalMatrix, eta0: float,
                      bracket: tuple[float, float] | None = None) -> float:
    """Extended-tier refinement of the eigenvalue nearest eta0.

    With an explicit bracket the interval must isolate exactly one eigenvalue
    by Sturm count, otherwise InvalidBracketError is raised, and that
    eigenvalue is the one refined. The refinement is the extended tier's: a
    few quadratic-model steps in compensated arithmetic from the LAPACK value,
    certified by Sturm counts to 1e-26 * max|eta|, with bisection as the
    fallback. At a = 0 (and at dimension 1) the eigenvalues are the diagonal,
    and the bracket is counted on it exactly.
    """
    eh, el = refine_eigenvalue_dd(m, eta0, bracket)
    return eh + el


def refine_eigenvalue_dd(m: TridiagonalMatrix, eta0: float,
                         bracket: tuple[float, float] | None = None) -> tuple[float, float]:
    """As refine_eigenvalue but returning the compensated (hi, lo) pair."""
    eta0 = _finite(eta0, "eta0")
    if m.a == 0 or m.dim == 1:  # the diagonal holds the eigenvalues
        problem, asc, e = None, np.sort(m.diag.astype(float)), 0
    else:
        problem = _scaled_problem(m)
        asc, e = _lapack_eigh(*problem[:2])[0], problem[3]
    if bracket is None:
        i = int(np.argmin(np.abs(asc - math.ldexp(eta0, -e))))
    else:
        lo, hi = (float(b) for b in bracket)
        if not lo < hi:
            raise InvalidBracketError(f"empty bracket ({lo}, {hi})")
        nlo, nhi = _count_below(m, [lo, hi])
        if nhi - nlo != 1:
            raise InvalidBracketError(
                f"bracket ({lo}, {hi}) isolates {nhi - nlo} eigenvalues, need exactly 1")
        i = int(nlo)
    if problem is None:
        return float(asc[i]), 0.0
    eh, el = _eigenvalues_dd(problem, asc, [i])
    return math.ldexp(float(eh[0]), e), math.ldexp(float(el[0]), e)


def eigenvector_for(m: TridiagonalMatrix, eta: float) -> np.ndarray:
    """Normalized, sign-fixed coefficient vector for the eigenvalue at eta.

    eta must sit within the residual tolerance 1e-10*(|eta| + a*dim) of a true
    eigenvalue; anything farther raises InvalidArgumentError.
    """
    eta = _finite(eta, "eta")
    tol = 1e-10 * (abs(eta) + m.a * m.dim + 1.0)
    pair = nearest_eigenpair(m, eta)
    if abs(pair.eigenvalue - eta) > tol:
        raise InvalidArgumentError(f"eta={eta!r} is not within {tol:.3e} of an eigenvalue "
                                   f"(nearest: {pair.eigenvalue!r})")
    return pair.eigenvector
