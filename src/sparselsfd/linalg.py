"""Small shared linear-algebra helpers for Hermitian systems."""

from __future__ import annotations

import numpy as np
import scipy.linalg

# A Cholesky pivot below this fraction of the largest diagonal entry is
# treated as numerically indefinite rather than silently solved.
PIVOT_RTOL = 1e-14


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Raised when a matrix required to be Hermitian PD is not."""


def herm(x):
    """Conjugate transpose of the last two axes."""
    return np.conj(np.swapaxes(x, -2, -1))


def solve_hermitian_pd(m, rhs):
    """Solve m @ x = rhs for Hermitian positive definite m via Cholesky.

    Raises NotPositiveDefiniteError if the factorization fails or any
    pivot falls below PIVOT_RTOL times the largest diagonal entry.
    """
    m = np.asarray(m)
    try:
        c = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("matrix is not positive definite") from exc
    pivots = np.abs(np.diagonal(c)) ** 2
    if pivots.min() < PIVOT_RTOL * np.real(np.diagonal(m)).max():
        raise NotPositiveDefiniteError(
            f"pivot {pivots.min():.3e} below {PIVOT_RTOL:g} of max diagonal"
        )
    y = scipy.linalg.solve_triangular(c, rhs, lower=True)
    return scipy.linalg.solve_triangular(c.conj().T, y, lower=False)


def hermitian_sqrt(m):
    """Hermitian PSD square root via eigendecomposition (deterministic).

    Works on a single matrix or a stack of them in the last two axes.
    """
    w, v = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    root = (v * np.sqrt(w)[..., None, :]) @ herm(v)
    return 0.5 * (root + herm(root))
