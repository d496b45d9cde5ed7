"""Exception hierarchy shared across the package."""


class MbFuseError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(MbFuseError):
    """Operands have incompatible state/measurement dimensions."""


class NumericalError(MbFuseError):
    """A matrix factorization or normalization failed."""


class IncompatiblePairError(NumericalError):
    """Fused pair mass underflowed; the pair should have been gated out."""


class InvalidDensityError(NumericalError):
    """A density holds a non-finite value or an existence probability outside [0, 1]."""


class IntractableFusionError(MbFuseError):
    """Fusion would exceed the configured cap.

    For clustered fusion the cap bounds the subset DP's steps
    (n_l * n_s * 2^n_s for an n_s x n_l cluster); for the exhaustive
    oracle it bounds the number of enumerated hypotheses.
    """

    def __init__(self, message, count=None, cap=None):
        super().__init__(message)
        self.count = count
        self.cap = cap


class ConfigError(MbFuseError):
    """Invalid experiment or scenario configuration."""
