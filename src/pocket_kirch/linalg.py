"""Dense symmetric kernels: inversion and group inverses.

All matrices are plain float ndarrays. Zero-dimensional matrices are legal
values throughout (kron identity, trace 0) so that the empty-H2 degenerate
shapes fall out naturally.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg

SINGULAR_REL_TOL = 1e-12


class SingularMatrixError(ValueError):
    """Matrix is singular to working precision (pivot below threshold)."""


class DisconnectedGraphError(ValueError):
    """Laplacian input corresponds to a disconnected graph."""


def invert(mat: np.ndarray) -> np.ndarray:
    """Inverse via LU with a relative pivot threshold.

    Raises SingularMatrixError when any pivot magnitude falls below
    1e-12 times the max-abs entry.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected square matrix, got shape {mat.shape}")
    n = mat.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    scale = np.abs(mat).max()
    if scale == 0.0:
        raise SingularMatrixError("zero matrix")
    with warnings.catch_warnings():
        # exact singularity is handled below via the pivot threshold
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(mat, check_finite=False)
    pivots = np.abs(np.diag(lu))
    if pivots.min() < SINGULAR_REL_TOL * scale:
        raise SingularMatrixError(
            f"pivot {pivots.min():.3e} below threshold {SINGULAR_REL_TOL * scale:.3e}"
        )
    return scipy.linalg.lu_solve((lu, piv), np.eye(n), check_finite=False)


def shifted_group_inverse(lap: np.ndarray, a: float) -> np.ndarray:
    """Group inverse of L + aI - (a/n)J for a Laplacian L and a > 0.

    Computed as (L + aI)^-1 - J/(an).
    """
    lap = np.asarray(lap, dtype=float)
    n = lap.shape[0]
    if a <= 0:
        raise ValueError("shift must be positive")
    if n == 0:
        return np.zeros((0, 0))
    return invert(lap + a * np.eye(n)) - np.full((n, n), 1.0 / (a * n))


def pseudo_inverse_laplacian(lap: np.ndarray) -> np.ndarray:
    """Group/Moore-Penrose inverse of a connected-graph Laplacian.

    Uses the rank-correction identity (L + J/n)^-1 - J/n, which is exact for
    connected Laplacians; singularity of L + J/n signals a disconnected graph.
    """
    lap = np.asarray(lap, dtype=float)
    n = lap.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    jn = np.full((n, n), 1.0 / n)
    try:
        return invert(lap + jn) - jn
    except SingularMatrixError as exc:
        raise DisconnectedGraphError(
            "L + J/n singular: graph is disconnected"
        ) from exc


def eigenvalues_sym(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix."""
    mat = np.asarray(mat, dtype=float)
    if mat.shape[0] == 0:
        return np.zeros(0)
    if np.abs(mat - mat.T).max() > 1e-12 * max(np.abs(mat).max(), 1.0):
        raise ValueError("matrix is not symmetric")
    return np.linalg.eigvalsh(mat)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; the second factor's index varies fastest."""
    return np.kron(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def is_one_inverse(lap: np.ndarray, x: np.ndarray, tol: float = 1e-9) -> bool:
    """True iff max-abs of L X L - L is within tol."""
    lap = np.asarray(lap, dtype=float)
    x = np.asarray(x, dtype=float)
    if lap.shape != x.shape:
        raise ValueError(f"shape mismatch {lap.shape} vs {x.shape}")
    if lap.shape[0] == 0:
        return True
    return np.abs(lap @ x @ lap - lap).max() <= tol
