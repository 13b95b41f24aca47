"""Dense symmetric kernels: inversion and group inverses.

All matrices are plain float ndarrays. Zero-dimensional matrices are legal
values throughout (kron identity, trace 0) so that the empty-H2 degenerate
shapes fall out naturally.

Every matrix the library inverts is symmetric positive definite (L + J/n of
a connected graph, L + aI with a > 0, and the grounded Laplacian L_v(H) of a
connected gadget, its Laplacian with v's row and column deleted), so
``invert`` takes that as its contract and inverts by Cholesky (LAPACK
potrf + potri): half the flops of an LU inverse, in place in one working
copy, and its result is exactly symmetric.

Memory contract: ``invert`` holds its input and one working copy, which
becomes the result; neither it nor ``pseudo_inverse_laplacian`` writes its
input. ``pseudo_inverse_laplacian`` lets go of L once L + J/n exists, so a
caller that passes L as a temporary (the oracle, ``resist --oracle``,
``bench`` and the structured base factor) holds two N x N arrays during the
inverse and one after; a caller that keeps L (the audit) holds three.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri

SINGULAR_REL_TOL = 1e-12
SYMMETRY_REL_TOL = 1e-12

# Rows per block when the symmetric kernels walk a matrix against its
# transpose; keeps temporaries at a few rows instead of N x N.
_BLOCK = 64
_STRICT_UPPER = np.triu(np.ones((_BLOCK, _BLOCK), dtype=bool), 1)


class SingularMatrixError(ValueError):
    """Matrix is singular to working precision (pivot below threshold)."""


class DisconnectedGraphError(ValueError):
    """Laplacian input corresponds to a disconnected graph."""


def _row_blocks(n: int):
    for r0 in range(0, n, _BLOCK):
        yield r0, min(r0 + _BLOCK, n)


def _symmetric_scale(mat: np.ndarray) -> float:
    """max|entry| of a square matrix; ValueError unless it is finite and
    symmetric to a relative 1e-12.

    The asymmetry is taken one row block at a time, upper triangle against
    lower, so no N x N temporary is built.
    """
    scale = float(max(mat.max(), -mat.min()))
    if not np.isfinite(scale):
        raise ValueError("matrix has non-finite entries")
    asym = 0.0
    for r0, r1 in _row_blocks(mat.shape[0]):
        diff = mat[r0:r1, r0:] - mat[r0:, r0:r1].T
        asym = max(asym, float(np.abs(diff, out=diff).max()))
    if asym > SYMMETRY_REL_TOL * max(scale, 1.0):
        raise ValueError("matrix is not symmetric")
    return scale


def _mirror_lower(a: np.ndarray) -> None:
    """Copy the lower triangle of a C-ordered square matrix onto its upper
    triangle, in place, one row block at a time."""
    for r0, r1 in _row_blocks(a.shape[0]):
        a[r0:r1, r1:] = a[r1:, r0:r1].T
        diag = a[r0:r1, r0:r1]
        np.copyto(diag, diag.T, where=_STRICT_UPPER[: r1 - r0, : r1 - r0])


def invert(mat: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix, by Cholesky.

    Raises ValueError when the matrix is not square, not finite or not
    symmetric to a relative 1e-12 (the test of ``eigenvalues_sym``), and
    SingularMatrixError when it is not positive definite or when a pivot
    (a squared diagonal entry of the Cholesky factor) falls below
    1e-12 times the max-abs entry. The result is exactly symmetric.
    """
    a = np.array(mat, dtype=float, order="C")  # the working copy
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        return a
    scale = _symmetric_scale(a)
    if scale == 0.0:
        raise SingularMatrixError("zero matrix")
    if a.shape[0] == 1:
        # the exactly rounded reciprocal; potri would square 1/sqrt(a)
        if a[0, 0] < 0.0:
            raise SingularMatrixError("not positive definite (negative 1 x 1)")
        a[0, 0] = 1.0 / a[0, 0]
        return a
    # a is symmetric and C-ordered, so a.T is the same matrix in Fortran
    # order: LAPACK factors and inverts it in place, in a's lower triangle.
    factor, info = dpotrf(a.T, lower=0, clean=0, overwrite_a=1)
    if info:
        raise SingularMatrixError(
            f"not positive definite (leading minor of order {info})"
        )
    pivot = float((np.diagonal(factor) ** 2).min())
    if pivot < SINGULAR_REL_TOL * scale:
        raise SingularMatrixError(
            f"pivot {pivot:.3e} below threshold {SINGULAR_REL_TOL * scale:.3e}"
        )
    _, info = dpotri(factor, lower=0, overwrite_c=1)
    if info:
        raise SingularMatrixError(f"zero pivot at {info}")
    _mirror_lower(a)
    return a


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
    shifted = lap.copy()
    shifted[np.diag_indices(n)] += a
    x = invert(shifted)
    x -= 1.0 / (a * n)
    return x


def pseudo_inverse_laplacian(lap: np.ndarray) -> np.ndarray:
    """Group/Moore-Penrose inverse of a connected-graph Laplacian.

    Uses the rank-correction identity (L + J/n)^-1 - J/n, which is exact for
    connected Laplacians; L + J/n is then positive definite, and its
    singularity signals a disconnected graph. J/n is added and subtracted as
    a scalar, so no N x N array of it is built.

    Memory: ``lap`` is rebound to the sum L + J/n before ``invert`` makes
    its working copy, so this frame no longer holds L. When the caller
    passed L as a temporary, as in ``pseudo_inverse_laplacian(laplacian(g))``,
    L is freed there and two N x N arrays are live during the inverse (the
    sum and the working copy, which becomes the result), then one. This
    relies on CPython >= 3.11, where a Python-to-Python call moves its
    arguments into the callee's frame; on older versions, or when the
    caller keeps L (the audit does, for its residual and spectrum), L stays
    alive and three are held. L itself is never written.
    """
    lap = np.asarray(lap, dtype=float)
    n = lap.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    shift = 1.0 / n
    lap = lap + shift  # drops this frame's reference to L
    try:
        x = invert(lap)
    except SingularMatrixError as exc:
        raise DisconnectedGraphError(
            "L + J/n singular: graph is disconnected"
        ) from exc
    x -= shift
    return x


def eigenvalues_sym(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix."""
    mat = np.asarray(mat, dtype=float)
    if mat.shape[0] == 0:
        return np.zeros(0)
    _symmetric_scale(mat)
    return np.linalg.eigvalsh(mat)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; the second factor's index varies fastest."""
    return np.kron(np.asarray(a, dtype=float), np.asarray(b, dtype=float))

