"""Independent output checker.

Nothing here imports incewave. Each matrix is rebuilt from the paper's
formulas, reference eigenvalues come from numpy.linalg.eigvalsh of the
symmetrised matrix, and every CLI output file is judged against them with
the package's own tolerance 1e-10 * (|eta| + a * dim + 1).

A check returns None when the output is correct, else a one-line reason.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

REL_TOL = 1e-10

# Reference case (even, n = 15, a = 12, extended tier): one eigenvalue and
# the near-degenerate pair that only the extended tier resolves.
REFERENCE_CASE = ("even", 15, 12.0)
ANCHOR_ETA = 718.092858484742
ANCHOR_ETA_TOL = 1e-9
PAIR_CENTRE = 822.70456044451
PAIR_SPLIT = 1.699e-12
# Printed eigenvalues are float64, so the split of the printed pair is only
# known to a few ulps of 822.7 (1.14e-13 each).
PAIR_SPLIT_TOL = 3.5e-13


def rows(parity: str, n: int) -> np.ndarray:
    """Harmonic indices r in ascending order."""
    return np.arange(-n + 1, n + 1) if parity == "even" else np.arange(-n, n + 1)


def bands(parity: str, n: int, a: float):
    """(diag, super, sub) of the coupling matrix, from the paper's formulas."""
    r = rows(parity, n).astype(float)
    if parity == "even":
        return 4.0 * r * r, (n + r[:-1]) * a, (n - r[1:] + 1) * a
    return (2.0 * r + 1) ** 2, (n + r[:-1] + 1) * a, (n - r[1:] + 1) * a


def eigenvalues(parity: str, n: int, a: float) -> np.ndarray:
    """Reference spectrum, descending."""
    diag, sup, sub = bands(parity, n, a)
    sym = np.diag(diag)
    if diag.size > 1:
        c = np.sqrt(sup * sub)
        sym += np.diag(c, 1) + np.diag(c, -1)
    return np.linalg.eigvalsh(sym)[::-1]


def tolerance(eta, a: float, dim: int):
    return REL_TOL * (np.abs(eta) + a * dim + 1.0)


def residuals(parity: str, n: int, a: float, etas, vecs) -> np.ndarray:
    """max |(M - eta_k) D_k| for each row D_k of vecs."""
    diag, sup, sub = bands(parity, n, a)
    vecs = np.asarray(vecs, dtype=float)
    t = (diag[None, :] - np.asarray(etas, dtype=float)[:, None]) * vecs
    t[:, :-1] += sup * vecs[:, 1:]
    t[:, 1:] += sub * vecs[:, :-1]
    return np.max(np.abs(t), axis=1)


def compare_spectrum(parity: str, n: int, a: float, etas) -> str | None:
    ref = eigenvalues(parity, n, a)
    etas = np.asarray(etas, dtype=float)
    if etas.shape != ref.shape:
        return f"{etas.size} eigenvalues, expected {ref.size}"
    err = np.abs(etas - ref) - tolerance(ref, a, ref.size)
    if np.any(~np.isfinite(etas)) or np.any(err > 0):
        k = int(np.argmax(err))
        return f"eigenvalue k={k + 1} is {etas[k]!r}, reference {ref[k]!r}"
    return None


def check_anchors(etas) -> str | None:
    """The two pinned facts of the reference case."""
    etas = np.asarray(etas, dtype=float)
    if np.min(np.abs(etas - ANCHOR_ETA)) > ANCHOR_ETA_TOL:
        return f"no eigenvalue within {ANCHOR_ETA_TOL} of {ANCHOR_ETA}"
    pair = np.sort(etas[np.abs(etas - PAIR_CENTRE) < 1e-6])
    if pair.size != 2:
        return f"{pair.size} eigenvalues near {PAIR_CENTRE}, expected a pair"
    split = pair[1] - pair[0]
    if abs(split - PAIR_SPLIT) > PAIR_SPLIT_TOL:
        return f"pair at {PAIR_CENTRE} splits by {split:.4g}, expected {PAIR_SPLIT}"
    return None


def check_spectrum_doc(doc: dict, parity: str, n: int, a: float) -> str | None:
    """A `spectrum` JSON document: eigenvalues, eigenvector residuals and
    normalisation, plus the anchors when it is the reference case."""
    data = doc["data"]
    etas = np.asarray(data["eigenvalues"], dtype=float)
    bad = compare_spectrum(parity, n, a, etas)
    if bad:
        return bad
    vecs = np.asarray(data["eigenvectors"], dtype=float)
    if vecs.shape != (etas.size, etas.size):
        return f"eigenvector block has shape {vecs.shape}"
    res = residuals(parity, n, a, etas, vecs)
    over = res - tolerance(etas, a, etas.size)
    if np.any(~np.isfinite(res)) or np.any(over > 0):
        k = int(np.argmax(over))
        return f"eigenvector k={k + 1} residual {res[k]:.3g} out of tolerance"
    if np.max(np.abs(np.sum(vecs**2, axis=1) - 1.0)) > 1e-12:
        return "eigenvectors are not normalised"
    if (parity, n, a) == REFERENCE_CASE:
        return check_anchors(etas)
    return None


def check_spectrum(path: str, parity: str, n: int, a: float) -> str | None:
    with open(path, encoding="utf-8") as fh:
        return check_spectrum_doc(json.load(fh), parity, n, a)


def check_scan(path: str, parity: str, n: int, a: float) -> str | None:
    """A one-point `scan` CSV: eigenvalues in label order, gap flags
    (eta < a^2/4) and p_xi_scaled = sqrt(eta - a^2/4) outside the gap."""
    with open(path, encoding="utf-8", newline="") as fh:
        table = list(csv.DictReader(fh))
    ref = eigenvalues(parity, n, a)
    if len(table) != ref.size:
        return f"{len(table)} rows, expected {ref.size}"
    etas = np.array([float(row["eta"]) for row in table])
    bad = compare_spectrum(parity, n, a, etas)
    if bad:
        return bad
    threshold = a * a / 4.0
    tol = tolerance(ref, a, ref.size)
    for k, (row, eta, t) in enumerate(zip(table, ref, tol), start=1):
        if int(row["n"]) != n or float(row["a"]) != a or int(row["k"]) != k:
            return f"row {k} is labelled ({row['n']}, {row['a']}, {row['k']})"
        if abs(eta - threshold) <= t:
            continue  # the gap edge itself is within rounding
        gap = eta < threshold
        if row["gap"] != ("true" if gap else "false"):
            return f"row k={k} has gap={row['gap']} for eta={eta!r}"
        p_xi = row["p_xi_scaled"]
        if gap and p_xi != "":
            return f"row k={k} in the gap has p_xi_scaled={p_xi}"
        if not gap:
            expected = math.sqrt(eta - threshold)
            if abs(float(p_xi) - expected) > 1e-8 * max(1.0, expected) + t / expected:
                return f"row k={k} has p_xi_scaled={p_xi}, expected {expected!r}"
    return None


def check_wavefunction(path: str, parity: str, n: int, a: float,
                       eta: float, eta_tol: float) -> str | None:
    """A `wavefunction --with-prefactor` CSV trace. The coefficients are
    recovered from the trace by least squares on the family's harmonics;
    they must be real, form an eigenvector of the matrix, and belong to the
    eigenvalue nearest the requested eta."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    xi, values = data[:, 0], data[:, 1] + 1j * data[:, 2]
    if not np.allclose(np.abs(values), data[:, 3], rtol=1e-12, atol=0.0):
        return "abs column disagrees with re and im"
    r = rows(parity, n)
    freqs = r.astype(float) if parity == "even" else r + 0.5
    basis = np.exp(-1j * np.multiply.outer(xi, freqs))
    f = values / np.exp(-(a / 4.0) * np.cos(xi))
    coeffs = np.linalg.lstsq(basis, f, rcond=None)[0]
    fit_err = np.max(np.abs(basis @ coeffs - f))
    scale = np.max(np.abs(f))
    if fit_err > 1e-9 * scale:
        return f"trace is not a polynomial of this family (fit error {fit_err:.3g})"
    if np.max(np.abs(coeffs.imag)) > 1e-9 * np.max(np.abs(coeffs.real)):
        return "recovered coefficients are not real"
    d = coeffs.real / np.linalg.norm(coeffs.real)
    diag, sup, sub = bands(parity, n, a)
    md = diag * d
    md[:-1] += sup * d[1:]
    md[1:] += sub * d[:-1]
    eta_fit = float(d @ md)
    ref = eigenvalues(parity, n, a)
    nearest = ref[np.argmin(np.abs(ref - eta))]
    if abs(eta_fit - nearest) > tolerance(nearest, a, ref.size):
        return f"trace belongs to eta={eta_fit!r}, nearest eigenvalue to {eta} is {nearest!r}"
    if abs(eta_fit - eta) > eta_tol:
        return f"trace belongs to eta={eta_fit!r}, outside {eta_tol} of {eta}"
    res = residuals(parity, n, a, [eta_fit], [d])[0]
    if res > tolerance(eta_fit, a, ref.size):
        return f"recovered coefficients have residual {res:.3g}"
    return None


def check_verify(path: str) -> str | None:
    """A `verify` op that exited 0 is correct only with passed: true."""
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)["data"]
    if report.get("passed") is not True:
        failing = [c["name"] for c in report.get("checks", []) if not c["passed"]]
        return "verification failed: " + ", ".join(failing)
    return None
