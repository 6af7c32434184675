"""Full scalar coefficient functions: phase factor x exponential prefactor x polynomial.

A scalar solution is

    Psi = exp[+i(p_hat*x_hat + p_x*x + p_z*z)] exp[-(a/4) cos(xi)] f(xi)

with xi = (k_0/k_p)(ct - n_m y) the wave phase and x_hat = (k_0/k_p)(y - n_m ct)
the space-like coordinate conjugate to p_hat. All momenta are passed in units
of k_p and all coordinates in units of 1/k_p, which makes every phase product
dimensionless; the transverse momentum quantization reads p_x/k_p = n for the
even family and n + 1/2 for the odd one.

The prefactor exp[-(a/4) cos(xi)] expands into the modified-Bessel cosine
series I_0(a/4) + 2 sum_l I_l(a/4) cos[l (xi - pi)], so the full wave carries
every harmonic of the fundamental even though the polynomial factor is finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bessel import modified_bessel_i, scaled_bessel_i_table
from .errors import EvanescentSolutionError, InvalidArgumentError, InvalidConfigError
from .polynomials import Branch, TrigPolynomial, evaluate

__all__ = [
    "SpinorSlot", "ScalarSolution", "x_hat", "prefactor", "modified_bessel_i",
    "prefactor_series", "series_truncation_order", "prefactor_series_sum",
    "scalar_wavefunction",
]


class SpinorSlot(Enum):
    S12 = "u12"  # spin pair with eigenvalue +sqrt(1-n_m^2); plus branch
    S34 = "u34"  # spin pair with eigenvalue -sqrt(1-n_m^2); conjugate branch


@dataclass(frozen=True)
class ScalarSolution:
    """One scalar coefficient function of the four-component expansion.

    p_hat is real for propagating solutions; a purely imaginary value (given
    as 1j*magnitude) marks an evanescent solution, usable only inside a
    bounded interaction region. p_x and p_z are in units of k_p, and p_x is
    fixed by the polynomial's quantum numbers.
    """

    polynomial: TrigPolynomial
    spinor_slot: SpinorSlot
    p_hat: complex
    p_z: float
    k0: float
    kp: float
    n_m: float

    def __post_init__(self):
        expected = Branch.PLUS if self.spinor_slot is SpinorSlot.S12 else Branch.MINUS
        if self.polynomial.branch is not expected:
            raise InvalidArgumentError(
                f"spinor slot {self.spinor_slot.name} pairs with the "
                f"{expected.name} polynomial branch, got {self.polynomial.branch.name}"
            )
        ph = complex(self.p_hat)
        if ph.real != 0.0 and ph.imag != 0.0:
            raise InvalidArgumentError("p_hat must be real or purely imaginary")
        if not 0.0 <= self.n_m < 1.0:
            raise InvalidConfigError(f"requires 0 <= n_m < 1, got {self.n_m}")

    @property
    def p_x(self) -> float:
        """Transverse momentum in units of k_p: n (even) or n + 1/2 (odd)."""
        return self.polynomial.p_x

    @property
    def evanescent(self) -> bool:
        return complex(self.p_hat).imag != 0.0


def x_hat(ct, y, cfg) -> float:
    """Space-like coordinate (k_0/k_p)(y - n_m ct) conjugate to p_hat.

    ct and y are in units of 1/k_p and the result is too; cfg needs
    attributes k0_cm, kp_cm and n_m (a PhysicalConfig works).
    """
    if not 0.0 <= cfg.n_m < 1.0:
        raise InvalidConfigError(f"requires 0 <= n_m < 1, got {cfg.n_m}")
    return (cfg.k0_cm / cfg.kp_cm) * (y - cfg.n_m * ct)


# Largest exponent whose exponential is a finite float (~709.78).
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


def prefactor(a: float, xi):
    """exp(-(a/4) cos xi); positive, maximal (e^(a/4)) at xi = pi mod 2 pi.
    Raises InvalidArgumentError where the value would overflow to inf."""
    expo = -(a / 4.0) * np.cos(xi)
    if np.any(expo > _LOG_FLOAT_MAX):
        raise InvalidArgumentError(
            f"prefactor exp(-(a/4) cos xi) overflows at a={a}: exponent "
            f"{float(np.max(expo)):.6g} exceeds ln(float max) = {_LOG_FLOAT_MAX:.6g}")
    return np.exp(expo)


def series_truncation_order(a: float) -> int:
    """Cosine-series order guaranteeing ~1e-10 * e^(a/4) truncation error."""
    half = a / 2.0
    return math.ceil(half + 15.0 * math.sqrt(half + 1.0))


def prefactor_series(a: float, l_max: int) -> np.ndarray:
    """Coefficients c_l of exp(-(a/4) cos xi) = sum_l c_l cos[l (xi - pi)].

    c_0 = I_0(a/4) and c_l = 2 I_l(a/4) for l >= 1. With
    l_max >= series_truncation_order(a) the partial sum reproduces the
    prefactor to 1e-10 * e^(a/4) absolute.
    """
    if l_max < 0:
        raise InvalidArgumentError("l_max must be >= 0")
    coeffs = math.exp(a / 4.0) * scaled_bessel_i_table(l_max, a / 4.0)
    coeffs[1:] *= 2.0
    return coeffs


def prefactor_series_sum(coeffs: np.ndarray, xi):
    """Evaluate the truncated cosine series at xi (scalar or array)."""
    xi = np.asarray(xi, dtype=float)
    ls = np.arange(len(coeffs))
    val = np.cos(np.multiply.outer(xi - np.pi, ls)) @ np.asarray(coeffs)
    return val if val.shape else float(val)


def scalar_wavefunction(sol: ScalarSolution, ct, x, y, z_coord,
                        allow_evanescent: bool = False):
    """Psi at the given space-time point(s); coordinates in units of 1/k_p.

    The wave phase is xi = (k_0/k_p)(ct - n_m y). For an evanescent solution
    (imaginary p_hat) the plane-wave factor along x_hat degenerates to the
    real exponential exp(-|p_hat| x_hat), which grows without bound in one
    direction; it is rejected unless allow_evanescent is set.
    """
    ct = np.asarray(ct, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z_coord = np.asarray(z_coord, dtype=float)
    ratio = sol.k0 / sol.kp
    xi = ratio * (ct - sol.n_m * y)
    xhat = ratio * (y - sol.n_m * ct)
    ph = complex(sol.p_hat)
    if sol.evanescent:
        if not allow_evanescent:
            raise EvanescentSolutionError(
                "imaginary p_hat gives an exponentially growing factor along "
                "x_hat; pass allow_evanescent=True only for problems confined "
                "to a finite space-time region"
            )
        transverse = np.exp(-abs(ph.imag) * xhat)
    else:
        transverse = np.exp(1j * ph.real * xhat)
    phase = np.exp(1j * (sol.p_x * x + sol.p_z * z_coord))
    val = transverse * phase * prefactor(sol.polynomial.a, xi) * evaluate(sol.polynomial, xi)
    return val if np.ndim(val) else complex(val)
