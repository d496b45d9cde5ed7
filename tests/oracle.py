"""Reference math that the package's vectorized code is checked against.

These are direct formulas kept for the tests only; the package itself
never calls them.
"""

import numpy as np

from mbfuse.errors import DimensionMismatchError, NumericalError


def check_spd(P: np.ndarray) -> None:
    """Raise NumericalError unless P is symmetric (abs tol 1e-9) and PD."""
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise DimensionMismatchError(f"covariance must be square, got {P.shape}")
    if np.max(np.abs(P - P.T)) > 1e-9:
        raise NumericalError("covariance is not symmetric within 1e-9")
    try:
        np.linalg.cholesky(P)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("covariance is not positive definite") from exc
