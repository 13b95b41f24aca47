"""Resistance distances and Kirchhoff indices from {1}-inverses.

Any {1}-inverse X of a connected graph's Laplacian yields the same
resistance values r_uv = X_uu + X_vv - X_uv - X_vu, and the Kirchhoff index
Kf = n tr(X) - 1^T X 1, where 1^T X 1 is read in one matrix-vector pass
(X 1 by BLAS, then the sum of its n entries).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, is_connected, laplacian
from .linalg import DisconnectedGraphError, pseudo_inverse_laplacian


@dataclass(frozen=True)
class KirchhoffResult:
    """A Kirchhoff index value tagged with the route that produced it."""

    value: float
    method: str  # oracle | structured | spectral | printed

    def __post_init__(self):
        if self.value < -1e-12:
            raise ValueError(f"negative Kirchhoff index {self.value}")


def resistance_from_one_inverse(x: np.ndarray, u: int, v: int) -> float:
    """r_uv = X_uu + X_vv - X_uv - X_vu."""
    n = x.shape[0]
    if not (0 <= u < n and 0 <= v < n):
        raise IndexError(f"vertex pair ({u},{v}) out of range for order {n}")
    return float(x[u, u] + x[v, v] - x[u, v] - x[v, u])


def _square(x: np.ndarray) -> np.ndarray:
    """``x`` as a float array; ValueError unless it is square and 2-D."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"expected a square 2-D matrix, got shape {x.shape}")
    return x


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


def oracle_resistance(g: Graph) -> tuple[np.ndarray, KirchhoffResult]:
    """Ground-truth path: pseudoinverse of the assembled Laplacian."""
    if not is_connected(g):
        raise DisconnectedGraphError("oracle requires a connected graph")
    x = pseudo_inverse_laplacian(laplacian(g))
    return resistance_matrix(x), kirchhoff_from_one_inverse(x, method="oracle")


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
