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

Memory contract: the public functions never write their input and never
return it; ``invert`` and ``pseudo_inverse_laplacian`` each work on one
C-ordered float64 copy, which becomes the result. The in-place kernels
``_cholesky_invert`` and ``_pseudo_inverse_in_place`` overwrite the array
they are given and return it. ``_pseudo_inverse_in_place`` has one caller
outside this module, ``resistance.oracle_one_inverse``, which writes L(G)
into the output buffer and keeps no other reference to it, so the oracle
holds one N x N array from L to the result. Every other caller goes
through the public functions.

The output buffer (``_OUTPUT``) is the one N x N array the library keeps
between calls, and ``_row_blocks`` the one walk of such an array by rows.
Both dense routes write into the buffer: the oracle's L(G), which becomes
X, and the structured {1}-inverse of ``oneinv``. A call takes it only
while no earlier result refers to it, and ``release_output_buffer`` frees it.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri

SINGULAR_REL_TOL = 1e-12
SYMMETRY_REL_TOL = 1e-12

# Rows per block when a kernel walks an N x N array (against its
# transpose, or writing r over X); keeps temporaries at a few rows.
_BLOCK = 64
_STRICT_UPPER = np.triu(np.ones((_BLOCK, _BLOCK), dtype=bool), 1)


class SingularMatrixError(ValueError):
    """Matrix is singular to working precision (pivot below threshold)."""


class DisconnectedGraphError(ValueError):
    """Laplacian input corresponds to a disconnected graph."""


class _OutputBuffer:
    """The memory a full-size result is written into, kept between calls:
    the oracle's L(G), inverted into X in place, and the structured X.

    Every entry of the result is overwritten, so fresh memory buys nothing;
    yet at large N the kernel's page faults and zeroing of a fresh N x N
    array take about a quarter of a call and vary widely from one call to
    the next. So the last buffer is kept, and a call writes into it again
    when no earlier result, or view of one, still refers to it (its
    reference count says so); otherwise, or when it is too small, the call
    gets a new one of exactly order**2 entries, no headroom guessed for
    orders to come. ``release_output_buffer`` drops the kept buffer.

    The reuse test is the reference-count check that numpy's
    ``ndarray.resize(refcheck=True)`` also makes before it reuses memory.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._buf = None
        self._free_refs = 0

    def matrix(self, order: int) -> np.ndarray:
        size = order * order
        with self._lock:
            buf = self._buf
            if buf is None or buf.size < size or sys.getrefcount(buf) > self._free_refs:
                # Drop ours first, so that a free buffer too small to
                # reuse is freed before the new one is allocated.
                self._buf = buf = None
                self._buf = buf = np.empty(size)
                # Its count while nothing else refers to it; measured, not
                # assumed, since interpreter versions count differently.
                self._free_refs = sys.getrefcount(buf)
            return buf[:size].reshape(order, order)

    def release(self) -> None:
        with self._lock:
            self._buf = None


_OUTPUT = _OutputBuffer()


def release_output_buffer() -> None:
    """Free the memory kept for the next dense result, oracle or structured.

    Results already returned stay valid; the next call allocates anew.
    """
    _OUTPUT.release()


def _row_blocks(n: int):
    for r0 in range(0, n, _BLOCK):
        yield r0, min(r0 + _BLOCK, n)


def _symmetric_scale(mat: np.ndarray) -> float:
    """max|entry| of a square matrix; ValueError unless it is finite and
    symmetric to a relative 1e-12.

    One walk of row blocks: each block's max and min, then its asymmetry,
    upper triangle against lower, so the block is read while it is in
    cache and no N x N temporary is built.
    """
    scale = asym = 0.0
    for r0, r1 in _row_blocks(mat.shape[0]):
        rows = mat[r0:r1]
        block_scale = float(max(rows.max(), -rows.min()))
        if not np.isfinite(block_scale):
            raise ValueError("matrix has non-finite entries")
        scale = max(scale, block_scale)
        diff = rows[:, r0:] - mat[r0:, r0:r1].T
        asym = max(asym, float(np.abs(diff, out=diff).max()))
        del diff  # freed before the next block's is built, not after
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


def _cholesky_invert(a: np.ndarray) -> np.ndarray:
    """Overwrite ``a``, a C-ordered float64 array, with its inverse and
    return it; the checks and errors are ``invert``'s."""
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


def invert(mat: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix, by Cholesky.

    Raises ValueError when the matrix is not square, not finite or not
    symmetric to a relative 1e-12 (the test of ``eigenvalues_sym``), and
    SingularMatrixError when it is not positive definite or when a pivot
    (a squared diagonal entry of the Cholesky factor) falls below
    1e-12 times the max-abs entry. The result is exactly symmetric.

    The input is never written: a C-ordered float64 copy of it is inverted
    in place and returned.
    """
    return _cholesky_invert(np.array(mat, dtype=float, order="C"))


def shifted_group_inverse(lap: np.ndarray, a: float) -> np.ndarray:
    """Group inverse of L + aI - (a/n)J for a Laplacian L and a > 0.

    Computed as (L + aI)^-1 - J/(an), with one N x N array: a C-ordered
    float64 copy of L, shifted and inverted in place.
    """
    if a <= 0:
        raise ValueError("shift must be positive")
    shifted = np.array(lap, dtype=float, order="C")
    n = shifted.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    shifted[np.diag_indices(n)] += a
    x = _cholesky_invert(shifted)
    x -= 1.0 / (a * n)
    return x


def _pseudo_inverse_in_place(lap: np.ndarray) -> np.ndarray:
    """Overwrite ``lap``, a C-ordered float64 Laplacian, with its
    pseudoinverse and return it; the errors are
    ``pseudo_inverse_laplacian``'s."""
    n = lap.shape[0]
    if n == 0:
        return lap
    shift = 1.0 / n
    lap += shift
    try:
        _cholesky_invert(lap)
    except SingularMatrixError as exc:
        raise DisconnectedGraphError(
            "L + J/n singular: graph is disconnected"
        ) from exc
    lap -= shift
    return lap


def pseudo_inverse_laplacian(lap: np.ndarray) -> np.ndarray:
    """Group/Moore-Penrose inverse of a connected-graph Laplacian.

    Uses the rank-correction identity (L + J/n)^-1 - J/n, which is exact for
    connected Laplacians; L + J/n is then positive definite, and its
    singularity signals a disconnected graph. J/n is added and subtracted as
    a scalar, so no N x N array of it is built.

    L is never written: one C-ordered float64 copy of it is shifted,
    inverted in place and returned.
    """
    return _pseudo_inverse_in_place(np.array(lap, dtype=float, order="C"))


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

