"""Structured symmetric {1}-inverses of pocket-graph Laplacians.

The full Laplacian is never assembled or inverted here: every inverse taken
is of a matrix no larger than max(n, l, m-l) (or max(k, n-k, l, m-l) on the
split-base path). Both theorems are one Schur-complement construction: a
base factor A (L#(F), or the shifted group inverse H# on the split path),
its F-row coupling C, and the gadget factors P^-1 and Q^-1, each computed
once. The full-size {1}-inverse is then written once, block by block,
straight into global vertex order, so its peak memory is one N x N array;
that array's memory is reused by the next call once the result is dropped
(``release_output_buffer`` frees it).
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass

import numpy as np

from .graphs import (
    BlockLayout,
    Graph,
    PocketSpec,
    join,
    laplacian,
    make_layout,
)
from .linalg import invert, kron, pseudo_inverse_laplacian, shifted_group_inverse


@dataclass(frozen=True)
class StructuredOneInverse:
    """A symmetric {1}-inverse over the full vertex set, plus its factors.

    ``matrix`` is indexed by global vertex ids. ``ingredients`` keeps the
    small factors for audit: ``base_sharp`` (A), ``p_inv_factor``,
    ``q_inv_factor``, and ``f2_inv`` on the split-base path.
    """

    matrix: np.ndarray
    layout: BlockLayout
    ingredients: dict


def _p_factor(h1: Graph, m: int) -> np.ndarray:
    l = h1.order
    return (
        laplacian(h1)
        + (m - l + 1) * np.eye(l)
        - ((m - l) / l) * np.ones((l, l))
    )


def _q_factor(h2: Graph, l: int, m: int) -> np.ndarray:
    q = m - l
    return (
        laplacian(h2)
        + l * np.eye(q)
        - (l / (m - l + 1)) * np.ones((q, q))
    )


def _gadget_inverses(h1: Graph, h2: Graph) -> tuple[np.ndarray, np.ndarray]:
    """P^-1 and Q^-1, the small gadget factors (Q^-1 is 0x0 when H2 is empty)."""
    l, m = h1.order, h1.order + h2.order
    p_inv = invert(_p_factor(h1, m))
    q_inv = invert(_q_factor(h2, l, m)) if m > l else np.zeros((0, 0))
    return p_inv, q_inv


def pocket_d_inverse(
    h1: Graph, h2: Graph, copies: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form inverse blocks of the pocket block D.

    D is the 2x2 block [[(L(H1)+(m-l+1)I) (x) I, -J (x) I],
    [-J (x) I, (L(H2)+lI) (x) I]]; its inverse has diagonal blocks
    P^-1 (x) I and Q^-1 (x) I and constant coupling (1/l) J (x) I.
    """
    if h1.order < 1 or copies < 1:
        raise ValueError("need l >= 1 and copies >= 1")
    l, m = h1.order, h1.order + h2.order
    eye = np.eye(copies)
    p_inv, q_inv = _gadget_inverses(h1, h2)
    coupling = kron(np.full((l, m - l), 1.0 / l), eye)
    return kron(p_inv, eye), kron(q_inv, eye), coupling


class _OutputBuffer:
    """The memory the full-size result is written into, kept between calls.

    Every entry of the result is overwritten, so fresh memory buys nothing;
    yet at large N the kernel's page faults and zeroing of a fresh N x N
    array take about a quarter of a call and vary widely from one call to
    the next. So the last buffer is kept, and a call writes into it again
    when no earlier result, or view of one, still refers to it (its
    reference count says so); otherwise, or when it is too small, the call
    gets a new one, a sixteenth larger than it needs.
    ``release_output_buffer`` drops the kept buffer.
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
                # Headroom, so that slightly larger orders to come do not
                # allocate again; pages past the order in use are never
                # touched and cost address space, not memory.
                self._buf = buf = np.empty(size + size // 16)
                # Its count while nothing else refers to it; measured, not
                # assumed, since interpreter versions count differently.
                self._free_refs = sys.getrefcount(buf)
            return buf[:size].reshape(order, order)

    def release(self) -> None:
        with self._lock:
            self._buf = None


_OUTPUT = _OutputBuffer()


def release_output_buffer() -> None:
    """Free the memory kept for the next structured result.

    Results already returned stay valid; the next call allocates anew.
    """
    _OUTPUT.release()


def _write_one_inverse(
    layout: BlockLayout,
    base: np.ndarray,
    a: np.ndarray,
    p_inv: np.ndarray,
    q_inv: np.ndarray,
) -> np.ndarray:
    """Write the full {1}-inverse once, straight into global vertex order.

    In block order the matrix is [[base, 1_m^T (x) C], [., J_m (x) A + D^-1]]
    with C = [A; 0] (F rows against pocket columns: A on the attached rows,
    zero on the rest) and D^-1 = [[P^-1, J/l], [J/l, Q^-1]] (x) I_k, the
    blocks of ``pocket_d_inverse``. Global ids >= n equal their block
    positions, so only the F rows and columns are permuted (by
    ``layout.f_order``).
    """
    n, k, l, m = layout.n, layout.k, layout.l, layout.m
    fo = np.asarray(layout.f_order)
    x = _OUTPUT.matrix(layout.total)
    x[np.ix_(fo, fo)] = base
    f_rows = x[:n, n:].reshape(n, m, k, copy=False)
    f_rows[fo[:k]] = a[:, None, :]
    f_rows[fo[k:]] = 0.0
    x[n:, :n] = x[:n, n:].T
    pockets = x[n:, n:].reshape(m, k, m, k, copy=False)
    pockets[...] = a[None, :, None, :]
    d_inv = np.full((m, m), 1.0 / l)
    d_inv[:l, :l] = p_inv
    d_inv[l:, l:] = q_inv
    c = np.arange(k)
    pockets[:, c, :, c] += d_inv  # the copy diagonal c = c'
    return x


def _construct(
    spec: PocketSpec, layout: BlockLayout, a: np.ndarray, base: np.ndarray, **extra
) -> StructuredOneInverse:
    p_inv, q_inv = _gadget_inverses(spec.H1, spec.H2)
    return StructuredOneInverse(
        matrix=_write_one_inverse(layout, base, a, p_inv, q_inv),
        layout=layout,
        ingredients={
            "base_sharp": a,
            **extra,
            "p_inv_factor": p_inv,
            "q_inv_factor": q_inv,
        },
    )


def theorem3_one_inverse(spec: PocketSpec) -> StructuredOneInverse:
    """Structured {1}-inverse for the all-vertices-pocketed case (k = n).

    The base factor is L#(F) (in attachment order), which also couples F to
    every pocket row: the blocks are L#(F), 1^T (x) L#(F) towards the
    pockets, and J (x) L#(F) + D^-1 among them.
    """
    if spec.k != spec.n:
        raise ValueError("this path requires a pocket at every vertex (k = n)")
    layout = make_layout(spec)
    lf = _permuted_base_laplacian(spec.F, layout.f_order)
    lf_sharp = pseudo_inverse_laplacian(lf)
    return _construct(spec, layout, lf_sharp, lf_sharp)


def theorem4_one_inverse(
    f1: Graph, f2: Graph, h1: Graph, h2: Graph
) -> StructuredOneInverse:
    """Structured {1}-inverse for the split base F = F1 v F2.

    Pockets attach to every F1 vertex. The base factor is the group inverse
    of L(F1) + (n-k)I - ((n-k)/k)J, obtained from the shifted-inverse
    identity with shift n - k; requires order(F2) >= 1.
    """
    k, nk, l = f1.order, f2.order, h1.order
    if k < 1 or nk < 1:
        raise ValueError("need order(F1) >= 1 and order(F2) >= 1; "
                         "use the all-pocketed path when F2 is absent")
    if l < 1:
        raise ValueError("need l = order(H1) >= 1")
    spec = PocketSpec(join(f1, f2), tuple(range(k)), h1, h2)
    return _split_one_inverse(spec, f1, f2)


def _split_one_inverse(spec: PocketSpec, f1: Graph, f2: Graph) -> StructuredOneInverse:
    """Split-base construction in the spec's own global order.

    ``f1`` and ``f2`` are F induced on the attached and on the remaining
    vertices, each in ``make_layout(spec).f_order`` order. The base block
    is [[H#, H# J/k], [J H#/k, (L(F2) + kI)^-1]] and C = [H#; 0].
    """
    k, nk = f1.order, f2.order
    h_sharp = shifted_group_inverse(laplacian(f1), float(nk))
    f2_inv = invert(laplacian(f2) + k * np.eye(nk))
    base = _split_base_block(h_sharp, f2_inv)
    return _construct(spec, make_layout(spec), h_sharp, base, f2_inv=f2_inv)


def _split_base_block(h_sharp: np.ndarray, f2_inv: np.ndarray) -> np.ndarray:
    """The split path's base block [[H#, H# J/k], [J H#/k, (L(F2) + kI)^-1]],
    a symmetric {1}-inverse of L(F) in attachment-first order."""
    k, nk = h_sharp.shape[0], f2_inv.shape[0]
    f1_f2 = (h_sharp @ np.ones((k, nk))) / k
    return np.block([[h_sharp, f1_f2], [f1_f2.T, f2_inv]])


def _permuted_base_laplacian(f: Graph, order: tuple[int, ...]) -> np.ndarray:
    perm = np.asarray(order, dtype=int)
    lf = laplacian(f)
    return lf[np.ix_(perm, perm)]


def split_base_join(spec: PocketSpec) -> tuple[Graph, Graph]:
    """Split F as F1 v F2 with F1 induced on the attachment vertices.

    Raises ValueError when some cross edge is missing (F is not that join)
    or when all vertices are attached (F2 empty).
    """
    attach = list(spec.attach)
    rest = [u for u in range(spec.n) if u not in set(attach)]
    if not rest:
        raise ValueError("F2 is empty: every vertex is attached")
    for a in attach:
        for b in rest:
            if not spec.F.has_edge(a, b):
                raise ValueError(
                    f"F is not F1 v F2: missing cross edge ({a},{b})"
                )
    return spec.F.induced(attach), spec.F.induced(rest)


def structured_one_inverse(spec: PocketSpec) -> StructuredOneInverse:
    """Dispatch: all-pocketed path when k = n, split-base path otherwise.

    Either way the result is indexed by the spec's own global vertex ids.
    """
    if spec.k == spec.n:
        return theorem3_one_inverse(spec)
    f1, f2 = split_base_join(spec)
    return _split_one_inverse(spec, f1, f2)
