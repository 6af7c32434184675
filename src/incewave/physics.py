"""Mapping between laboratory laser/plasma parameters and the dimensionless model.

Inputs are the photon energy (eV), either the plasmon energy (eV) or the
electron density (cm^-3), and the intensity (W/cm^2). Underdense propagation
(photon energy above plasmon energy) is required; the refractive index is
n_m = sqrt(1 - (E_p/E_0)**2) and the plasma wavenumber k_p = k_0 sqrt(1-n_m**2).

Two parallel evaluation paths are kept for the intensity parameter mu_0, the
photon density n_ph and the coupling a:

* a first-principles path from CODATA constants (fields mu0, n_ph_cm3, a),
* a handbook path using the compact engineering prefactors
  mu_0 = 1.06e-9 sqrt(S)/E_ph and n_ph = 2.08e8 S/E_ph with
  m_e c^2 = 510998.95 eV (fields mu0_handbook, n_ph_handbook_cm3, a_handbook).

The two agree at the 0.1% level; both are reported rather than hiding the
difference. All four equivalent expressions for a (field work per reduced
plasma wavelength over photon energy, 4 sqrt((2 m c^2/hw_0)(n_ph/n_e)),
2 mu_0 (2 m c^2 / hw_p), 4 |e| F_0 c / (hw_0 w_p)) are exposed for testing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .eigensolver import SpectralSolution
from .errors import AmbiguousInputError, InvalidArgumentError, NotUnderdenseError

MC2_EV = 510998.95  # electron rest energy used on the handbook path
MU0_PREFACTOR = 1.06e-9  # mu_0 = 1.06e-9 sqrt(S) / E_ph
NPH_PREFACTOR = 2.08e8  # n_ph = 2.08e8 S / E_ph  [cm^-3]

# CODATA 2022 recommended values in SI units (h, e and c are exact; hbar is
# h / 2 pi rounded to float64), the values scipy.constants 1.17 ships
_HBAR = 1.0545718176461565e-34  # J s
_E = 1.602176634e-19  # C
_C = 299792458.0  # m / s
_EPSILON_0 = 8.8541878188e-12  # F / m
_M_E = 9.1093837139e-31  # kg

_HBAR_EVS = _HBAR / _E  # hbar in eV s
_HBARC_EVCM = _HBAR * _C / _E * 100.0  # hbar c in eV cm


class PHatKind(Enum):
    PROPAGATING = "propagating"
    EVANESCENT = "evanescent"


@dataclass(frozen=True)
class PhysicalConfig:
    # inputs
    photon_energy_ev: float
    plasma_energy_ev: float
    electron_density_cm3: float
    intensity_wcm2: float
    # geometry / dispersion
    n_m: float
    k0_cm: float
    kp_cm: float
    lambda_p_nm: float
    # first-principles path
    mu0: float
    n_ph_cm3: float
    a: float
    mass_shift_ratio: float
    # handbook-prefactor path
    mu0_handbook: float
    n_ph_handbook_cm3: float
    a_handbook: float

    @property
    def kappa_scaled(self) -> float:
        """K = 2 kappa / k_p = 2 m c^2 / (hbar w_p)."""
        return 2.0 * MC2_EV / self.plasma_energy_ev


@dataclass(frozen=True)
class MomentumRecord:
    """Mass-shell data for one eigenvalue.

    p_hat and p_xi_scaled are magnitudes; both momentum branches (+ and -)
    are equally valid and no sign is chosen. p_hat is |2 p_hat_phys / k_p| =
    sqrt(|radicand|), flagged evanescent when the radicand is negative;
    p_xi_scaled is |2 p_xi / k_p**2| = sqrt(eta - a**2/4). Inside the gap
    (eta < a**2/4) p_xi is not real and p_xi_scaled is None.
    """

    k: int
    eta: float
    p_hat_sq_scaled: float
    p_hat: float
    p_hat_kind: PHatKind
    p_xi_scaled: float | None
    gap: bool


def plasma_energy_from_density(n_e_cm3: float) -> float:
    """hbar w_p in eV for an electron density in cm^-3."""
    if n_e_cm3 <= 0:
        raise InvalidArgumentError("electron density must be positive")
    w_p = math.sqrt(n_e_cm3 * 1e6 * _E**2 / (_EPSILON_0 * _M_E))
    if w_p == 0:
        raise InvalidArgumentError(f"electron density {n_e_cm3} cm^-3 gives a plasmon energy of 0")
    return w_p * _HBAR_EVS


def density_from_plasma_energy(e_p_ev: float) -> float:
    """Electron density in cm^-3 for a plasmon energy in eV."""
    if e_p_ev <= 0:
        raise InvalidArgumentError("plasma energy must be positive")
    w_p = e_p_ev / _HBAR_EVS
    try:
        return _EPSILON_0 * _M_E * w_p**2 / _E**2 / 1e6
    except OverflowError:
        raise InvalidArgumentError(
            f"plasma energy {e_p_ev} eV gives an electron density beyond float range") from None


def peak_field_vm(intensity_wcm2: float) -> float:
    """Peak electric field F_0 in V/m for a linearly polarized wave."""
    return math.sqrt(2.0 * intensity_wcm2 * 1e4 / (_EPSILON_0 * _C))


def mass_shift(mu0: float) -> float:
    """Dressed-mass ratio m*/m = sqrt(1 + mu_0**2)."""
    if mu0 < 0:
        raise InvalidArgumentError("mu0 must be >= 0")
    return math.hypot(1.0, mu0)


def derive_config(photon_energy_ev: float,
                  plasma_energy_ev: float | None = None,
                  electron_density_cm3: float | None = None,
                  intensity_wcm2: float = 0.0) -> PhysicalConfig:
    """Build the full parameter set from laboratory inputs.

    Exactly one of plasma_energy_ev / electron_density_cm3 must be given, and
    the photon energy must exceed the plasmon energy (underdense medium). A
    derived value that is not finite raises InvalidArgumentError naming it.
    """
    given = {"photon_energy_ev": photon_energy_ev, "plasma_energy_ev": plasma_energy_ev,
             "electron_density_cm3": electron_density_cm3, "intensity_wcm2": intensity_wcm2}
    for name, value in given.items():
        if value is not None and not math.isfinite(value):
            raise InvalidArgumentError(f"{name} must be finite, got {value}")
    if photon_energy_ev <= 0:
        raise InvalidArgumentError("photon energy must be positive")
    if intensity_wcm2 < 0:
        raise InvalidArgumentError("intensity must be >= 0")
    if (plasma_energy_ev is None) == (electron_density_cm3 is None):
        raise AmbiguousInputError(
            "give exactly one of plasma_energy_ev or electron_density_cm3"
        )
    if plasma_energy_ev is None:
        plasma_energy_ev = plasma_energy_from_density(electron_density_cm3)
    else:
        if plasma_energy_ev <= 0:
            raise InvalidArgumentError("plasma energy must be positive")
        electron_density_cm3 = density_from_plasma_energy(plasma_energy_ev)
    if photon_energy_ev <= plasma_energy_ev:
        raise NotUnderdenseError(
            f"photon energy {photon_energy_ev} eV must exceed the plasmon energy "
            f"{plasma_energy_ev} eV for the wave to propagate"
        )

    ratio = plasma_energy_ev / photon_energy_ev
    n_m = math.sqrt(1.0 - ratio * ratio)
    k0 = photon_energy_ev / _HBARC_EVCM
    kp = plasma_energy_ev / _HBARC_EVCM
    lambda_p_nm = 2.0 * math.pi / kp * 1e7

    s_val = intensity_wcm2
    mu0_hand = MU0_PREFACTOR * math.sqrt(s_val) / photon_energy_ev
    nph_hand = NPH_PREFACTOR * s_val / photon_energy_ev
    a_hand = 2.0 * mu0_hand * (2.0 * MC2_EV / plasma_energy_ev)

    f0 = peak_field_vm(s_val)
    w0 = photon_energy_ev / _HBAR_EVS
    wp = plasma_energy_ev / _HBAR_EVS
    mu0_fp = _E * f0 / (_M_E * _C * w0)
    nph_fp = s_val * 1e4 / (_C * photon_energy_ev * _E) / 1e6
    a_fp = 4.0 * _E * f0 * _C / (photon_energy_ev * _E * wp)

    cfg = PhysicalConfig(
        photon_energy_ev=float(photon_energy_ev),
        plasma_energy_ev=float(plasma_energy_ev),
        electron_density_cm3=float(electron_density_cm3),
        intensity_wcm2=float(s_val),
        n_m=n_m, k0_cm=k0, kp_cm=kp, lambda_p_nm=lambda_p_nm,
        mu0=mu0_fp, n_ph_cm3=nph_fp, a=a_fp,
        mass_shift_ratio=mass_shift(mu0_fp),
        mu0_handbook=mu0_hand, n_ph_handbook_cm3=nph_hand, a_handbook=a_hand,
    )
    for name, value in [*vars(cfg).items(), ("kappa_scaled", cfg.kappa_scaled)]:
        if not math.isfinite(value):
            raise InvalidArgumentError(f"derived {name} is not finite ({value}) for these inputs")
    return cfg


def coupling_forms(cfg: PhysicalConfig) -> tuple[float, float, float, float]:
    """The four equivalent first-principles expressions for a."""
    f0 = peak_field_vm(cfg.intensity_wcm2)
    w0 = cfg.photon_energy_ev / _HBAR_EVS
    wp = cfg.plasma_energy_ev / _HBAR_EVS
    hw0_j = cfg.photon_energy_ev * _E
    mc2_j = _M_E * _C**2
    a1 = 4.0 * _E * f0 * _C / (hw0_j * wp)
    # work of the electric force along the reduced plasma wavelength / photon
    # energy, evaluated through eV/cm quantities as an independent rounding path
    ef0_ev_cm = f0 / 100.0  # e * F0 in eV per cm
    a2 = 4.0 * ef0_ev_cm * (1.0 / cfg.kp_cm) / cfg.photon_energy_ev
    n_ph_m3 = cfg.n_ph_cm3 * 1e6
    n_e_m3 = cfg.electron_density_cm3 * 1e6
    a3 = 4.0 * math.sqrt((2.0 * mc2_j / hw0_j) * (n_ph_m3 / n_e_m3)) if n_e_m3 > 0 else 0.0
    a4 = 2.0 * cfg.mu0 * (2.0 * mc2_j / (_HBAR * wp))
    return a1, a2, a3, a4


def whittaker_hill_params(cfg: PhysicalConfig, px_scaled: float,
                          pz_scaled: float = 0.0, p_hat_scaled: float = 0.0
                          ) -> tuple[float, float, float, float]:
    """Parameters (theta_0, theta_1, theta_2, g_1) of the underlying
    three-term periodic equation for scaled momenta 2p/k_p.

    Identities: 4 sqrt(theta_2) == a, 2|g_1| == a, and theta_0 + 2 theta_2
    equals the eigenvalue-form eta for the same momenta. The sign of theta_1
    follows the electron (negative charge) positive-energy branch, for which
    the transformed polynomial equation carries -q a cos(2z).
    """
    a = cfg.a
    kappa = cfg.kappa_scaled
    eta = p_hat_scaled**2 + px_scaled**2 + pz_scaled**2 + kappa**2 + (a / 2.0) ** 2
    theta2 = (a / 4.0) ** 2
    theta0 = eta - 2.0 * theta2
    theta1 = -0.5 * px_scaled * a
    g1 = a / 2.0
    return theta0, theta1, theta2, g1


def momentum_spectrum(sol: SpectralSolution, pz_scaled: float = 0.0,
                      kappa_scaled: float = 0.0) -> list[MomentumRecord]:
    """Mass-shell classification of every eigenvalue.

    pz_scaled = 2 p_z / k_p, kappa_scaled = 2 kappa / k_p >= 0. The gap flag
    marks eta < a**2/4, where the energy-like parameter p_xi is not real.
    """
    if kappa_scaled < 0:
        raise InvalidArgumentError("kappa_scaled must be >= 0")
    a = sol.a
    qp1 = 2 * sol.p_x
    try:
        threshold = (a / 2.0) ** 2
    except OverflowError:
        raise InvalidArgumentError(f"the mass-shell threshold (a/2)**2 overflows at a={a}") from None
    records = []
    for i, eta in enumerate(np.asarray(sol.eigenvalues, dtype=float)):
        eta = float(eta)
        radicand = eta - qp1**2 - pz_scaled**2 - kappa_scaled**2 - threshold
        kind = PHatKind.PROPAGATING if radicand >= 0 else PHatKind.EVANESCENT
        p_hat = math.sqrt(abs(radicand))
        gap = eta < threshold
        p_xi = None if gap else math.sqrt(eta - threshold)
        records.append(MomentumRecord(i + 1, eta, radicand, p_hat, kind, p_xi, gap))
    return records
