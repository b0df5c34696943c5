"""Dense symmetric eigensolver on LAPACK (``np.linalg.eigh``).

The checks around the solve keep the contract the rest of the package
relies on: square, symmetric, finite input; ascending eigenvalues; and
orthonormal eigenvector columns under a fixed sign convention, so spectral
projections and MDS coordinates are identical from run to run.
"""

from __future__ import annotations

import numpy as np

from ..errors import InputError, NumericalError


SYM_TOL = 1e-10  # largest accepted |m - m.T|, relative to the largest entry


def _check_symmetric(m: np.ndarray) -> None:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"symmetric_eig expects a square matrix, got shape {m.shape}")
    # non-finite entries would slip through the tolerance test below (nan > tol is False)
    if not np.all(np.isfinite(m)):
        raise NumericalError("symmetric_eig: matrix has non-finite entries")
    scale = max(1.0, float(np.max(np.abs(m))) if m.size else 0.0)
    asym = float(np.max(np.abs(m - m.T))) if m.size else 0.0
    if asym > SYM_TOL * scale:
        raise InputError(f"matrix is not symmetric: max |m - m.T| = {asym:.3e}")


def sign_columns(v: np.ndarray) -> np.ndarray:
    """Flip each column of v in place so that its largest-magnitude entry (the
    first, on ties) is positive; returns v."""
    if v.size:
        v *= np.sign(v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])])
    return v


def symmetric_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix.

    Returns (eigenvalues ascending, eigenvectors as orthonormal columns),
    so ``m @ v[:, i] == w[i] * v[:, i]``, each column signed by `sign_columns`
    (a unit column's largest-magnitude entry is never zero). Raises
    InputError when the input is asymmetric beyond `SYM_TOL` (relative to
    the largest entry) and NumericalError on non-finite input or when
    LAPACK fails to converge.
    """
    m = np.asarray(m, dtype=np.float64)
    _check_symmetric(m)
    try:
        w, v = np.linalg.eigh(0.5 * (m + m.T))  # kill roundoff asymmetry before solving
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"symmetric_eig: LAPACK eigensolver failed: {e}") from e
    return w, sign_columns(v)
