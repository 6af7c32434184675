"""Exception types shared across the package."""


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition."""


class InvalidConfigError(InvalidArgumentError):
    """A physical configuration is outside the model's domain (e.g. n_m >= 1)."""


class NotUnderdenseError(InvalidConfigError):
    """Photon energy does not exceed the plasma energy, so the wave cannot propagate."""


class AmbiguousInputError(InvalidArgumentError):
    """Mutually exclusive inputs were both supplied."""


class InvalidPairingError(InvalidArgumentError):
    """Two polynomials cannot be paired in an inner product (parity/n/a/branch mismatch)."""


class InvalidBracketError(InvalidArgumentError):
    """A refinement bracket does not isolate exactly one eigenvalue."""


class EvanescentSolutionError(ValueError):
    """Imaginary transverse momentum requested without opting in to evanescent solutions.

    Such solutions grow exponentially along the space-like direction and are
    physical only when the interaction is confined to a finite space-time region.
    """


class NumericalFailureError(RuntimeError):
    """An iterative numerical procedure failed to converge within its budget."""
