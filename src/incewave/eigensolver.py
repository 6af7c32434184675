"""Spectral decomposition of the coupling matrices.

Both tiers start from one LAPACK call: numpy.linalg.eigh on the dense
symmetrized matrix gives all float64 eigenvalues, which are the double-tier
values, and starting vectors. The extended tier refines each value in
double-double arithmetic on the leading-principal-minor recurrence, which
only involves the super*sub products and therefore works directly on the
unsymmetric matrix. The number of eigenvalues below a shift equals the
number of sign changes along it (the Sturm count), and the same pass carries
the characteristic polynomial with its first two derivatives. Each LAPACK
value is bracketed at 64 ulps of the spectral scale, the brackets are
confirmed by Sturm counts, and steps to the root of a local quadratic model
of the polynomial finish the value in a few passes while the counts tighten
the brackets. Every result is certified by Sturm counts 1e-26 of the scale
to either side of it; bisection on the counts takes over for any label that
is not. The compensated recurrence resolves eigenvalue pairs splitting
around the 12th significant digit, below one ulp of the values themselves.
sturm_count counts sign changes along the float64 minors of
ince_matrix.scaled_minors.

Eigenvectors come from two sweeps of inverse iteration on the symmetrized
matrix at the final shifts, all eigenvalues solved at once and each
near-degenerate cluster re-orthonormalized after every sweep. Each cluster is
then rotated, still in the symmetric basis, where the true vectors are
orthonormal (in coefficient space a pair's overlap by ~0.5), to diagonalize
the weighted bilinear Gram form of its coefficient vectors. That recovers the
correct pair members even when the splitting is below arithmetic resolution;
members are matched to eigenvalues by the compensated two-sided Rayleigh
quotient, compared as (hi, lo) pairs. The vectors are then mapped back
through the diagonal similarity scaling, D = v / d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import ddcore as ddc
from .bessel import bilinear_weight_kernel
from .errors import (
    InvalidArgumentError,
    InvalidBracketError,
    NumericalFailureError,
)
from .ince_matrix import HarmonicLayout, Parity, TridiagonalMatrix, scaled_minors

_EPS = np.finfo(float).eps

# Consecutive eigenvalues closer than this (relative to the spectral scale)
# are treated as one cluster for the eigenvector post-processing.
_CLUSTER_RELGAP = 1e-4

# Inverse-iteration sweeps from the LAPACK vectors. The LAPACK vectors alone
# miss the pair-member assignment, and one sweep leaves the odd n=15, a=12
# top pair (split 1.95e-13) further from a 60-digit reference than two do.
_SWEEPS = 2


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


def symmetrize(m: TridiagonalMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Symmetrizing data: off-diagonals c_j = sqrt(super_j*sub_j) and the
    positive diagonal scaling d (d[0] = 1) with diag(d) m diag(d)^-1
    symmetric. A vector v of the symmetric matrix maps back to D = v / d."""
    g = m.offdiag_products()
    if np.any(g < 0):
        raise NumericalFailureError("off-diagonal products must be >= 0 for a valid matrix")
    c = np.sqrt(g)
    d = np.ones(m.dim)
    if m.a > 0 and m.dim > 1:
        d[1:] = np.cumprod(np.sqrt(m.super / m.sub))
    return c, d


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
# scale max(1, max|eta|).
_SEED_PAD = 64 * _EPS
_TARGET = 1e-26
# Newton-type passes of _refine_dd before a label is handed to bisection;
# the quadratic model needs at most 6 on the sweeps in the tests, usually 2-3.
_NEWTON_PASSES = 32


def _count_dd(diag, g_dd, xh, xl, derivs=False):
    """Sturm counts at the double-double shifts xh + xl, from one pass of the
    minor recurrence in double-double arithmetic. With derivs it returns
    (counts, ph, pl) instead: ph + pl is the (3, k) stack of the last minor
    p = det(T - x), p' and p''/2, all three scaled by the same power of two.
    They follow the recurrence of the minors, differentiated:
    P_j = (d_j - x) P_{j-1} - g_{j-1} P_{j-2} - (0, p_{j-1}, p'_{j-1})."""
    xh = np.atleast_1d(np.asarray(xh, dtype=float))
    xl = np.broadcast_to(np.asarray(xl, dtype=float), xh.shape)
    gh, gl = g_dd
    th, tl = ddc.dd_add(diag[:, None], 0.0, -xh, -xl)
    p2h = np.zeros((3 if derivs else 1,) + xh.shape)
    p2l, p1h, p1l = np.zeros_like(p2h), np.zeros_like(p2h), np.zeros_like(p2h)
    p2h[0], p1h[0], p1l[0] = 1.0, th[0], tl[0]
    if derivs:
        p1h[1] = -1.0
    cnt = np.zeros(xh.shape, dtype=np.int64)
    sprev = np.ones(xh.shape)
    for j in range(len(diag)):
        if j > 0:
            ah, al = ddc.dd_mul(th[j], tl[j], p1h, p1l)
            bh, bl = ddc.dd_mul(gh[j - 1], gl[j - 1], p2h, p2l)
            ph, pl = ddc.dd_sub(ah, al, bh, bl)
            if derivs:
                ph[1:], pl[1:] = ddc.dd_sub(ph[1:], pl[1:], p1h[:-1], p1l[:-1])
            p2h, p2l, p1h, p1l = p1h, p1l, ph, pl
            mx = np.max(np.maximum(np.abs(p1h), np.abs(p2h)), axis=0)
            f = np.where(mx > _BIG, _DOWN, 1.0)
            f = np.where((mx > 0) & (mx < _SMALL), _UP, f)
            p1h, p1l = p1h * f, p1l * f
            p2h, p2l = p2h * f, p2l * f
        s = ddc.dd_sign(p1h[0], p1l[0])
        s = np.where(s == 0, -sprev, s)
        cnt += s != sprev
        sprev = s
    return (cnt, p1h, p1l) if derivs else cnt


def sturm_count(m: TridiagonalMatrix, eta: float) -> int:
    """Number of eigenvalues of m strictly below eta (float64 arithmetic)."""
    if m.a == 0:
        return int(np.sum(m.diag < eta))
    cnt, sprev = 0, 1.0
    for s in np.sign(scaled_minors(m, float(eta))[0]):
        s = s or -sprev
        cnt += s != sprev
        sprev = s
    return int(cnt)


def _gershgorin(m: TridiagonalMatrix) -> tuple[float, float]:
    c = np.sqrt(m.offdiag_products())
    radius = np.zeros(m.dim)
    radius[:-1] += c
    radius[1:] += c
    lo = float(np.min(m.diag - radius))
    hi = float(np.max(m.diag + radius))
    pad = 1e-8 * max(1.0, abs(lo), abs(hi)) + 1.0
    return lo - pad, hi + pad


def _dd_problem(m: TridiagonalMatrix):
    """(diag, g_dd, e): the matrix scaled by 2**-e, with 2**e just above
    max(|diag|, sqrt(super*sub)), and its super*sub products as exact
    double-double values. The scaling is exact and keeps the double-double
    minors inside float range at extreme a, where the products g*p of the
    unscaled recurrence overflow."""
    size = max(float(np.max(np.abs(m.diag))), float(np.max(np.sqrt(m.super) * np.sqrt(m.sub))))
    e = math.frexp(size)[1]
    g_dd = ddc.two_prod(np.ldexp(m.super, -e), np.ldexp(m.sub, -e))
    return np.ldexp(m.diag.astype(float), -e), g_dd, e


def _bisect_dd(diag, g_dd, loh, lol, hih, hil, ks, target, max_iter=160):
    """Bisection on double-double Sturm counts: the midpoints of the brackets
    of eigenvalues number ks (ascending, 1-based) once every bracket is at
    most target wide. Each bracket must hold count(lo) <= k-1 and
    count(hi) >= k."""
    width = (hih - loh) + (hil - lol)
    for _ in range(max_iter):
        mh, ml = ddc.dd_scale_pow2(*ddc.dd_add(loh, lol, hih, hil), 0.5)
        take = _count_dd(diag, g_dd, mh, ml) >= ks
        hih = np.where(take, mh, hih)
        hil = np.where(take, ml, hil)
        loh = np.where(take, loh, mh)
        lol = np.where(take, lol, ml)
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


def _refine_dd(diag, g_dd, ks, x0, loh, hih, target):
    """Eigenvalues number ks (ascending, 1-based) of the double-double problem
    (diag, g_dd) as (hi, lo) arrays, each certified by Sturm counts to lie
    within target of its count transition. The float64 brackets (loh, hih)
    must hold count(lo) <= k-1 and count(hi) >= k, and contain x0.

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
    for _ in range(_NEWTON_PASSES):
        if not act.size:
            break
        xa, k = x[:, act], ks[act]
        cnt, ph, pl = _count_dd(diag, g_dd, *xa, derivs=True)
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


def _eigenvalues_dd(m: TridiagonalMatrix, seeds: np.ndarray,
                    idx: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Extended-tier eigenvalues at the ascending indices idx (all by
    default), seeded from the ascending float64 estimates seeds.

    Each seed is bracketed at +-64 ulps of the spectral scale; one count pass
    over both ends confirms the brackets, and an end that fails (float64
    rounding bias) falls back to the Gershgorin interval."""
    idx = np.arange(m.dim) if idx is None else np.asarray(idx)
    ks = idx + 1
    diag, g_dd, e = _dd_problem(m)
    scale = max(1.0, float(np.max(np.abs(seeds))))
    x0 = np.ldexp(seeds[idx], -e)
    pad = math.ldexp(_SEED_PAD * scale, -e)
    loh, hih = x0 - pad, x0 + pad
    cnt = _count_dd(diag, g_dd, np.concatenate([loh, hih]), 0.0)
    glo, ghi = (math.ldexp(b, -e) for b in _gershgorin(m))
    loh = np.where(cnt[:idx.size] > ks - 1, glo, loh)
    hih = np.where(cnt[idx.size:] < ks, ghi, hih)
    eh, el = _refine_dd(diag, g_dd, ks, x0, loh, hih, math.ldexp(_TARGET * scale, -e))
    eh, el = np.ldexp(eh, e), np.ldexp(el, e)
    # a refined value far outside its seed bracket means the compensated
    # recurrence broke down
    stray = np.abs((eh + el) - seeds[idx]) > 1e-8 * scale
    if np.any(stray):
        i = int(np.argmax(stray))
        raise NumericalFailureError(
            f"double-double refinement moved eigenvalue label k={m.dim - int(idx[i])} "
            f"from {float(seeds[idx[i]])!r} to {float(eh[i] + el[i])!r}")
    return eh, el


# ----------------------------------------------------------------------
# Eigenvectors: LAPACK start, batched inverse iteration on the symmetric form
# ----------------------------------------------------------------------


def _lapack_eigh(m: TridiagonalMatrix, c: np.ndarray):
    """Ascending float64 eigenvalues and unit column eigenvectors of the
    symmetrized matrix, from LAPACK through numpy.linalg.eigh."""
    t = np.diag(m.diag.astype(float))
    i = np.arange(m.dim - 1)
    t[i, i + 1] = c
    t[i + 1, i] = c
    try:
        return np.linalg.eigh(t)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"LAPACK eigh failed: {exc}") from exc


def _solve_shifted(dshift, e, rhs):
    """Solve T x = rhs for tridiagonal T(diag dshift, offdiag e) by Gaussian
    elimination with partial pivoting; tiny pivots are replaced (the standard
    inverse-iteration treatment of a numerically singular shift). dshift and
    rhs may carry a trailing axis of k shifts, solved as k independent
    systems that share e."""
    shape = np.shape(dshift)
    n = shape[0]
    dm = np.array(dshift, dtype=float).reshape(n, -1)
    x = np.array(rhs, dtype=float).reshape(dm.shape)
    du = np.repeat(np.reshape(e, (-1, 1)).astype(float), dm.shape[1], axis=1)
    du2 = np.zeros_like(du)
    tiny = _EPS * (np.max(np.abs(dm), axis=0) + 2 * (np.max(np.abs(e)) if e.size else 0.0) + 1.0)
    for i in range(n - 1):
        piv = np.abs(dm[i]) < abs(e[i])
        dmi = np.where(piv, e[i], np.where(dm[i] == 0.0, tiny, dm[i]))
        fact = np.where(piv, dm[i], e[i]) / dmi
        nxt = dm[i + 1].copy()
        dm[i] = dmi
        dm[i + 1] = np.where(piv, du[i] - fact * nxt, nxt - fact * du[i])
        if i < n - 2:
            du2[i] = np.where(piv, du[i + 1], 0.0)
            du[i + 1] = np.where(piv, -fact * du[i + 1], du[i + 1])
        du[i] = np.where(piv, nxt, du[i])
        xi = x[i].copy()
        x[i] = np.where(piv, x[i + 1], xi)
        x[i + 1] = np.where(piv, xi - fact * x[i + 1], x[i + 1] - fact * xi)
    for i in range(n - 1, -1, -1):
        acc = x[i]
        if i + 1 < n:
            acc = acc - du[i] * x[i + 1]
        if i + 2 < n:
            acc = acc - du2[i] * x[i + 2]
        x[i] = acc / np.where(dm[i] != 0, dm[i], tiny)
    return x.reshape(shape)


def _inverse_sweeps(dsym, c, mu, v, clusters):
    """Inverse iteration at the shifts mu (descending) for all columns of v at
    once, re-orthonormalized within every cluster after each sweep. A column
    whose solve does not stay finite keeps its previous vector."""
    for _ in range(_SWEEPS):
        w = _solve_shifted(dsym[:, None] - mu[None, :], c, v)
        norm = np.linalg.norm(w, axis=0)
        ok = np.isfinite(norm) & (norm > 0)
        w = np.where(ok, w / np.where(ok, norm, 1.0), v)
        for sl in clusters:
            if sl.stop - sl.start > 1:
                w[:, sl] = np.linalg.qr(w[:, sl])[0]
        v = w
    return v


def _cluster_slices(vals_desc: np.ndarray) -> list[slice]:
    scale = max(1.0, float(np.max(np.abs(vals_desc))))
    out = []
    i = 0
    while i < vals_desc.size:
        j = i
        while j + 1 < vals_desc.size and vals_desc[j] - vals_desc[j + 1] <= _CLUSTER_RELGAP * scale:
            j += 1
        out.append(slice(i, j + 1))
        i = j + 1
    return out


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
    compensated quotient (d v) . M (v / d) / ((d v) . (v / d))."""
    clusters = [sl for sl in clusters if sl.stop - sl.start > 1]
    if not clusters:
        return v
    v = v.copy()
    weight = bilinear_weight_kernel(m.xi_frequencies, m.a)
    for sl in clusters:
        u = v[:, sl] / d[:, None]
        gram = u.T @ weight @ u
        if not np.all(np.isfinite(gram)):
            raise NumericalFailureError(
                f"cluster rotation for labels k={sl.start + 1}..{sl.stop}: Gram form not "
                f"finite (smallest scale factor {float(np.min(d))!r})")
        v[:, sl] = v[:, sl] @ np.linalg.eigh(gram)[1]
    cols = np.concatenate([np.arange(sl.start, sl.stop) for sl in clusters])
    qh, ql = np.empty(v.shape[1]), np.empty(v.shape[1])
    qh[cols], ql[cols] = _rayleigh_dd(m, v[:, cols] / d[:, None], v[:, cols] * d[:, None])
    for sl in clusters:
        v[:, sl] = v[:, sl][:, np.lexsort((-ql[sl], -qh[sl]))]
    return v


def eigen_decompose(m: TridiagonalMatrix, tier: Tier = Tier.DOUBLE) -> SpectralSolution:
    """All eigenvalues (descending) and normalized coefficient vectors."""
    dim = m.dim
    want_lo = tier is Tier.EXTENDED

    if dim == 1:
        return SpectralSolution(m.parity, m.n, m.a, np.array([float(m.diag[0])]), np.ones((1, 1)),
                                tier, np.zeros(1) if want_lo else None)

    if m.a == 0:
        order = np.argsort(-m.diag, kind="stable")
        vals = m.diag[order].astype(float)
        vecs = _rotate_clusters(m, _cluster_slices(vals), np.eye(dim)[:, order], np.ones(dim))
        vecs = _fix_signs(vecs.T)
        return SpectralSolution(m.parity, m.n, m.a, vals, vecs, tier,
                                np.zeros(dim) if want_lo else None)

    c, dscale = symmetrize(m)
    asc, v = _lapack_eigh(m, c)
    if want_lo:
        eh, el = _eigenvalues_dd(m, asc)
        asc = eh + el  # best float64 rounding of the compensated value
        asc_lo = (eh - asc) + el
    else:
        asc_lo = np.zeros(dim)

    vals_desc = asc[::-1].copy()
    vlo_desc = asc_lo[::-1].copy()

    clusters = _cluster_slices(vals_desc)
    v = _inverse_sweeps(m.diag.astype(float), c, vals_desc, v[:, ::-1], clusters)
    v = _rotate_clusters(m, clusters, v, dscale)
    vecs = (v / dscale[:, None]).T
    norm = np.sqrt(np.sum(vecs**2, axis=1))
    if not np.all(np.isfinite(norm)):
        k = int(np.argmax(~np.isfinite(norm))) + 1
        raise NumericalFailureError(f"back-transform of label k={k} overflows "
                                    f"(smallest scale factor {float(np.min(dscale))!r})")
    vecs = _fix_signs(vecs / norm[:, None])
    sol = SpectralSolution(m.parity, m.n, m.a, vals_desc, vecs, tier, vlo_desc if want_lo else None)
    _check_residuals(m, sol)
    return sol


def eigenpair_residuals(m: TridiagonalMatrix, vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """max_r |((M - vals[k]) vecs[k])_r| for every row k of the (k, dim)
    coefficient block vecs."""
    t = (m.diag - vals[:, None]) * vecs
    t[:, :-1] += m.super * vecs[:, 1:]
    t[:, 1:] += m.sub * vecs[:, :-1]
    return np.max(np.abs(t), axis=1)


def _check_residuals(m: TridiagonalMatrix, sol: SpectralSolution):
    vals = sol.eigenvalues
    res = eigenpair_residuals(m, vals, sol.eigenvectors)
    bad = ~(res <= 1e-10 * (np.abs(vals) + m.a * m.dim + 1.0))  # a NaN residual fails too
    if np.any(bad):
        raise NumericalFailureError(
            f"eigenpair residual out of tolerance for label k={int(np.argmax(bad)) + 1}")


def refine_eigenvalue(m: TridiagonalMatrix, eta0: float,
                      bracket: tuple[float, float] | None = None) -> float:
    """Extended-tier refinement of the eigenvalue nearest eta0.

    With an explicit bracket the interval must isolate exactly one eigenvalue
    by Sturm count, otherwise InvalidBracketError is raised, and that
    eigenvalue is the one refined. The refinement is the extended tier's: a
    few quadratic-model steps in compensated arithmetic from the LAPACK value,
    certified by Sturm counts to 1e-26 * max(1, max|eta|), with bisection as
    the fallback.
    """
    eh, el = refine_eigenvalue_dd(m, eta0, bracket)
    return eh + el


def refine_eigenvalue_dd(m: TridiagonalMatrix, eta0: float,
                         bracket: tuple[float, float] | None = None) -> tuple[float, float]:
    """As refine_eigenvalue but returning the compensated (hi, lo) pair."""
    eta0 = float(eta0)
    if not math.isfinite(eta0):
        raise InvalidArgumentError("eta0 must be finite")
    if m.dim == 1:
        return float(m.diag[0]), 0.0
    if m.a == 0:
        return float(m.diag[np.argmin(np.abs(m.diag - eta0))]), 0.0
    asc = _lapack_eigh(m, symmetrize(m)[0])[0]
    if bracket is None:
        eh, el = _eigenvalues_dd(m, asc, [int(np.argmin(np.abs(asc - eta0)))])
        return float(eh[0]), float(el[0])
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise InvalidBracketError(f"empty bracket ({lo}, {hi})")
    diag, g_dd, e = _dd_problem(m)
    nlo, nhi = _count_dd(diag, g_dd, [math.ldexp(lo, -e), math.ldexp(hi, -e)], 0.0)
    if nhi - nlo != 1:
        raise InvalidBracketError(
            f"bracket ({lo}, {hi}) isolates {nhi - nlo} eigenvalues, need exactly 1"
        )
    scale = max(1.0, float(np.max(np.abs(asc))))
    eh, el = _refine_dd(diag, g_dd, np.array([nlo + 1]), np.ldexp([min(max(asc[nlo], lo), hi)], -e),
                        np.ldexp([lo], -e), np.ldexp([hi], -e), math.ldexp(_TARGET * scale, -e))
    return math.ldexp(float(eh[0]), e), math.ldexp(float(el[0]), e)


def eigenvector_for(m: TridiagonalMatrix, eta: float) -> np.ndarray:
    """Normalized, sign-fixed coefficient vector for the eigenvalue at eta.

    eta must sit within the residual tolerance 1e-10*(|eta| + a*dim) of a true
    eigenvalue; anything farther raises InvalidArgumentError.
    """
    eta = float(eta)
    tol = 1e-10 * (abs(eta) + m.a * m.dim + 1.0)
    refined = refine_eigenvalue(m, eta)
    if abs(refined - eta) > tol:
        raise InvalidArgumentError(
            f"eta={eta!r} is not within {tol:.3e} of an eigenvalue (nearest: {refined!r})"
        )
    sol = eigen_decompose(m, Tier.DOUBLE)
    k = int(np.argmin(np.abs(sol.eigenvalues - refined)))
    return sol.eigenvectors[k].copy()
