"""Structured symmetric {1}-inverses of pocket-graph Laplacians.

The full Laplacian is never assembled or inverted here: every inverse taken
is of a matrix no larger than max(n, l, m-l). Each pocket hangs off one cut
vertex, so eliminating the pockets leaves exactly L(F) as the Schur
complement, for any connected F and any attachment set. Both theorems are
therefore one construction: the base factor L#(F), its attached columns
C = L#(F)[:, S] coupling F to the pockets, and the gadget factors P^-1 and
Q^-1, each computed once. The full-size {1}-inverse is then written once,
block by block, straight into global vertex order, so its peak memory is
one N x N array; that array's memory is reused by the next call once the
result is dropped (``release_output_buffer`` frees it).
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass

import numpy as np

from .graphs import (
    BlockLayout,
    Graph,
    JoinStructureError,
    PocketSpec,
    join,
    laplacian,
    make_layout,
)
from .linalg import invert, kron, pseudo_inverse_laplacian


@dataclass(frozen=True)
class StructuredOneInverse:
    """A symmetric {1}-inverse over the full vertex set, plus its factors.

    ``matrix`` is indexed by global vertex ids. ``ingredients`` keeps the
    small factors for audit: ``base_sharp`` (L#(F), n x n, in
    ``layout.f_order``), ``p_inv_factor`` and ``q_inv_factor``.
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
    lf_sharp: np.ndarray,
    p_inv: np.ndarray,
    q_inv: np.ndarray,
) -> np.ndarray:
    """Write the full {1}-inverse once, straight into global vertex order.

    In block order the matrix is [[L#(F), 1_m^T (x) C], [., J_m (x) A + D^-1]]
    with C = L#(F)[:, :k] (F rows against the attached columns),
    A = L#(F)[:k, :k] and D^-1 = [[P^-1, J/l], [J/l, Q^-1]] (x) I_k, the
    blocks of ``pocket_d_inverse``. Global ids >= n equal their block
    positions, so only the F rows and columns are permuted (by
    ``layout.f_order``).
    """
    n, k, l, m = layout.n, layout.k, layout.l, layout.m
    fo = np.asarray(layout.f_order)
    x = _OUTPUT.matrix(layout.total)
    x[np.ix_(fo, fo)] = lf_sharp
    f_rows = x[:n, n:].reshape(n, m, k, copy=False)
    f_rows[fo] = lf_sharp[:, None, :k]
    x[n:, :n] = x[:n, n:].T
    pockets = x[n:, n:].reshape(m, k, m, k, copy=False)
    pockets[...] = lf_sharp[None, :k, None, :k]
    d_inv = np.full((m, m), 1.0 / l)
    d_inv[:l, :l] = p_inv
    d_inv[l:, l:] = q_inv
    c = np.arange(k)
    pockets[:, c, :, c] += d_inv  # the copy diagonal c = c'
    return x


def structured_one_inverse(spec: PocketSpec) -> StructuredOneInverse:
    """The structured {1}-inverse of any spec, indexed by its global ids.

    The base factor is L#(F) in attachment-first order; the pockets hang
    off the attached vertices through its columns C = L#(F)[:, S].
    """
    layout = make_layout(spec)
    fo = np.asarray(layout.f_order)
    lf_sharp = pseudo_inverse_laplacian(laplacian(spec.F)[np.ix_(fo, fo)])
    p_inv, q_inv = _gadget_inverses(spec.H1, spec.H2)
    return StructuredOneInverse(
        matrix=_write_one_inverse(layout, lf_sharp, p_inv, q_inv),
        layout=layout,
        ingredients={
            "base_sharp": lf_sharp,
            "p_inv_factor": p_inv,
            "q_inv_factor": q_inv,
        },
    )


def theorem3_one_inverse(spec: PocketSpec) -> StructuredOneInverse:
    """Structured {1}-inverse for the all-vertices-pocketed case (k = n)."""
    if spec.k != spec.n:
        raise ValueError("this path requires a pocket at every vertex (k = n)")
    return structured_one_inverse(spec)


def theorem4_one_inverse(
    f1: Graph, f2: Graph, h1: Graph, h2: Graph
) -> StructuredOneInverse:
    """Structured {1}-inverse for the split base F = F1 v F2, pockets on
    every F1 vertex; requires order(F2) >= 1."""
    k, nk, l = f1.order, f2.order, h1.order
    if k < 1 or nk < 1:
        raise ValueError("need order(F1) >= 1 and order(F2) >= 1; "
                         "use the all-pocketed path when F2 is absent")
    if l < 1:
        raise ValueError("need l = order(H1) >= 1")
    return structured_one_inverse(PocketSpec(join(f1, f2), tuple(range(k)), h1, h2))


def split_base_join(spec: PocketSpec) -> tuple[Graph, Graph]:
    """Split F as F1 v F2 with F1 induced on the attachment vertices.

    Raises JoinStructureError, with a missing cross edge as ``witness``,
    when F is not that join, and ValueError when all vertices are attached
    (F2 empty).
    """
    attach = list(spec.attach)
    rest = [u for u in range(spec.n) if u not in set(attach)]
    if not rest:
        raise ValueError("F2 is empty: every vertex is attached")
    for a in attach:
        for b in rest:
            if not spec.F.has_edge(a, b):
                raise JoinStructureError(
                    f"F is not F1 v F2: missing cross edge ({a},{b})",
                    witness=(a, b),
                )
    return spec.F.induced(attach), spec.F.induced(rest)
