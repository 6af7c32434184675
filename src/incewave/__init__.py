"""Spectral solver for the finite trigonometric-polynomial wave states of a
charged particle in a monochromatic plane wave propagating in an underdense
medium (refractive index below one).

The transverse momentum is quantized in units of the plasma wavenumber, which
turns the governing periodic differential equation into finite tridiagonal
eigenproblems; this package builds those matrices, solves them (with a
compensated-arithmetic tier that resolves near-degenerate eigenvalue pairs),
assembles and verifies the resulting complex trigonometric polynomials and
scalar wavefunctions, and maps laboratory laser/plasma parameters to and from
the dimensionless model.
"""

from .eigensolver import (SpectralSolution, Tier, char_poly_eval,
                          char_poly_scaled, eigen_decompose, eigenvector_for,
                          refine_eigenvalue, sturm_count, symmetrize)
from .errors import (AmbiguousInputError, EvanescentSolutionError,
                     InvalidArgumentError, InvalidBracketError,
                     InvalidConfigError, InvalidPairingError,
                     NotUnderdenseError, NumericalFailureError,
                     OracleFailureError)
from .ince_matrix import (Parity, TridiagonalMatrix, build_even_matrix,
                          build_odd_matrix)
from .physics import (MomentumRecord, PHatKind, PhysicalConfig, derive_config,
                      mass_shift, momentum_spectrum, whittaker_hill_params)
from .polynomials import (Branch, TrigPolynomial, derivative, evaluate,
                          harmonic_strengths, make_polynomial, ode_residual)
from .spinor import SpinBasis, build_coupling_matrix, orthonormalize, spin_basis
from .verify import (InnerProductReport, normalization_check,
                     oracle_eigenvalues, verification_report,
                     weighted_inner_product)
from .wavefunction import (ScalarSolution, SpinorSlot, modified_bessel_i,
                           prefactor, prefactor_series, scalar_wavefunction,
                           x_hat)

__version__ = "0.1.0"
