"""Resistance distances and Kirchhoff indices from {1}-inverses.

Any {1}-inverse X of a connected graph's Laplacian yields the same
resistance values r_uv = X_uu + X_vv - X_uv - X_vu, and the Kirchhoff index
Kf = n tr(X) - 1^T X 1, where 1^T X 1 is read in one matrix-vector pass
(X 1 by BLAS, then the sum of its n entries).

``pair_resistances`` reads r at index arrays of pairs straight from X, in
the operand order of ``resistance_matrix``, so each value is bit-identical
to that matrix's entry; ``pair_blocks`` walks the pairs u < v in row-major
order a block at a time. Together they are how ``resist --oracle`` and the
audit read every pair without an N x N resistance matrix.

The oracle's X, the pseudoinverse of L(G), is built here too, by
``oracle_one_inverse``, in linalg's output buffer, the N x N array the
structured route writes into as well; ``oracle_resistance`` writes r over
it by linalg's row blocks. The dense-array plumbing lives in linalg, not
here. This module reads from a given X and imports nothing of the
structured construction; ``oneinv.PocketResistance`` gives the same r and
Kf of a pocket graph from its two small factors, without X itself.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, _scatter_laplacian, is_connected
from .linalg import _OUTPUT, DisconnectedGraphError, _pseudo_inverse_in_place, _row_blocks


@dataclass(frozen=True)
class KirchhoffResult:
    """A Kirchhoff index value tagged with the route that produced it."""

    value: float
    method: str  # oracle | structured | spectral

    def __post_init__(self):
        if self.value < -1e-12:
            raise ValueError(f"negative Kirchhoff index {self.value}")


def _square(x: np.ndarray) -> np.ndarray:
    """``x`` as a float array; ValueError unless it is square and 2-D."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"expected a square 2-D matrix, got shape {x.shape}")
    return x


# Pairs per block of pair_blocks. It bounds a block's u and v index arrays
# to 64 KB each and resist's writer buffer to 8192 x 8 words (512 KB), so
# that a block's arrays stay in L2, while each block's fixed cost of numpy
# calls is paid half as often as at 4096 pairs; at 16384 the writers were
# slower.
_BLOCK = 8192


def pair_blocks(n: int):
    """(u, v) index arrays of the pairs u < v of order n in row-major order,
    _BLOCK pairs at a time; a block may end inside a row.

    Row u holds the pairs starts[u] .. starts[u + 1] - 1, so pair p of row
    u has v = p - (starts[u] - u - 1). A block's rows and their lengths are
    found in Python, so each block costs a few whole-array numpy calls.
    """
    if n < 2:
        return
    starts = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1))))
    lead = starts - np.arange(n) - 1
    bounds = starts.tolist()
    total = bounds[-1]
    for p0 in range(0, total, _BLOCK):
        p1 = min(p0 + _BLOCK, total)
        u0 = bisect.bisect_right(bounds, p0) - 1
        u1 = bisect.bisect_left(bounds, p1)
        rows = np.arange(u0, u1)
        size = n - 1 - rows
        size[0] -= p0 - bounds[u0]
        size[-1] -= bounds[u1] - p1
        # no local names the yielded arrays, so a caller that drops them
        # frees them before the next block
        yield rows.repeat(size), np.arange(p0, p1) - lead[u0:u1].repeat(size)


def pair_resistances(x: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """r at the pairs (u[i], v[i]): X_uu + X_vv - X_uv - X_vu, bit-identical
    to ``resistance_matrix(x)[u, v]`` wherever u != v.

    The four entries are gathered by ``take`` at flat offsets, about twice
    as fast as indexing X with two index arrays; the flat view is free for
    a C-ordered X (both routes' X are), and any other layout is copied.
    """
    x = _square(x)
    n = x.shape[0]
    flat = x.reshape(-1)
    return (flat.take(u * (n + 1)) + flat.take(v * (n + 1))
            - flat.take(u * n + v) - flat.take(v * n + u))


def resistance_matrix(x: np.ndarray) -> np.ndarray:
    """All-pairs resistance values from a {1}-inverse."""
    x = _square(x)
    d = np.diag(x)
    r = d[:, None] + d[None, :] - x - x.T
    np.fill_diagonal(r, 0.0)
    return r


def kirchhoff_from_one_inverse(x: np.ndarray, method: str = "structured") -> KirchhoffResult:
    """Kf = n tr(X) - 1^T X 1.

    X need not be symmetric. 1^T X 1 is the sum of X 1, one BLAS
    matrix-vector pass, which reads X at memory speed where ``x.sum()``
    does not.
    """
    x = _square(x)
    n = x.shape[0]
    if n == 0:
        return KirchhoffResult(0.0, method)
    return KirchhoffResult(float(n * np.trace(x) - (x @ np.ones(n)).sum()), method)


def kirchhoff_spectral(spectrum: np.ndarray, n: int) -> KirchhoffResult:
    """Kf = n * sum of reciprocal nonzero Laplacian eigenvalues.

    Requires exactly one eigenvalue within 1e-9 of zero (connected input).
    """
    spectrum = np.sort(np.asarray(spectrum, dtype=float))
    if n <= 1:
        return KirchhoffResult(0.0, "spectral")
    near_zero = int(np.sum(np.abs(spectrum) <= 1e-9))
    if near_zero != 1:
        raise DisconnectedGraphError(
            f"expected one zero eigenvalue, found {near_zero}"
        )
    return KirchhoffResult(float(n * np.sum(1.0 / spectrum[1:])), "spectral")


def _resistances_over(x: np.ndarray) -> np.ndarray:
    """Overwrite an exactly symmetric X with r and return it, a linalg row
    block at a time: r_uv = (d_u + d_v - x_uv) - x_uv with d = diag X.

    Since x_vu == x_uv, each entry is bit-identical to
    ``resistance_matrix(x)``'s d_u + d_v - x_uv - x_vu; unlike that, only
    block-sized temporaries are built.
    """
    d = x.diagonal().copy()
    for r0, r1 in _row_blocks(x.shape[0]):
        rows = x[r0:r1]
        s = d[r0:r1, None] + d
        s -= rows
        np.subtract(s, rows, out=rows)
    np.fill_diagonal(x, 0.0)
    return x


def oracle_one_inverse(g: Graph) -> np.ndarray:
    """The ground truth X = L(G)#, the pseudoinverse of a connected graph's
    Laplacian; DisconnectedGraphError otherwise.

    Every oracle route takes X from here. This call writes L(G), by
    ``laplacian``'s edge scatter, into linalg's output buffer (zeroed
    first) and holds the only reference to it, so linalg's in-place kernel
    shifts and inverts it into X: one N x N array from L(G) to X, the one
    the structured route writes too. X is exactly symmetric and equal to
    ``pseudo_inverse_laplacian(laplacian(g))``. Once the result and every
    view of it are dropped, the next dense call reuses its memory.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("oracle requires a connected graph")
    lap = _OUTPUT.matrix(g.order)
    lap.fill(0.0)
    return _pseudo_inverse_in_place(_scatter_laplacian(lap, g.array))


def oracle_resistance(g: Graph) -> tuple[np.ndarray, KirchhoffResult]:
    """Ground-truth path: r and Kf from X = ``oracle_one_inverse(g)``,
    both bit-identical to ``resistance_matrix(x)`` and
    ``kirchhoff_from_one_inverse(x)``.

    One N x N array serves from L(G) to r: Kf is read from X first and r
    is then written over it.
    """
    x = oracle_one_inverse(g)
    kf = kirchhoff_from_one_inverse(x, method="oracle")
    return _resistances_over(x), kf


def check_metric(r: np.ndarray, tol: float = 1e-9) -> None:
    """Assert symmetry, zero diagonal, nonnegativity, triangle inequality."""
    r = np.asarray(r, dtype=float)
    if r.shape[0] != r.shape[1]:
        raise ValueError("resistance matrix must be square")
    if np.abs(r - r.T).max(initial=0.0) > tol:
        raise ValueError("resistance matrix is not symmetric")
    if np.abs(np.diag(r)).max(initial=0.0) > tol:
        raise ValueError("resistance matrix has nonzero diagonal")
    if r.min(initial=0.0) < -tol:
        raise ValueError("negative resistance entry")
    # r_uw <= r_uv + r_vw for all triples, one middle vertex v at a time so
    # that the working set stays at one N x N buffer
    excess = np.empty_like(r)
    for v in range(r.shape[0]):
        np.add.outer(r[:, v], r[v, :], out=excess)  # r_uv + r_vw
        np.subtract(r, excess, out=excess)
        if excess.max() > tol:
            raise ValueError("triangle inequality violated")
