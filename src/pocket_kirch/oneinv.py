"""Structured symmetric {1}-inverses of pocket-graph Laplacians.

The full Laplacian is never assembled or inverted here: every inverse taken
is of a matrix no larger than max(n, m). Each pocket hangs off one cut
vertex, so eliminating the pockets leaves exactly L(F) as the Schur
complement, for any connected F, any attachment set and any connected
rooted gadget. The construction therefore takes two factors, each computed
once: the base factor L#(F), whose attached columns C = L#(F)[:, S] couple
F to the pockets, and the gadget factor D^-1 = L_v(H)^-1, the inverse of
the gadget's Laplacian with v's row and column deleted (Bapat, *Graphs and
Matrices*). Since L_v(H) 1 is the indicator of N(v), D^-1 maps that
indicator to 1, which is what lets every pocket couple to F through C
alone. ``pocket_factors`` is the one place the two factors are computed.
``resistance.PocketResistance`` reads r and Kf straight from them, with no
N x N array; ``resist`` takes that route. ``structured_one_inverse`` writes
the full-size {1}-inverse for callers that want the matrix (the audit,
``bench``): once, block by block, straight into global vertex order, so
its peak memory is one N x N array, whose memory is reused by the next
call once the result is dropped (``release_output_buffer`` frees it).
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
    _first_missing_pair,
    grounded_laplacian,
    join,
    laplacian,
    make_layout,
)
from .linalg import invert, kron, pseudo_inverse_laplacian


@dataclass(frozen=True)
class StructuredOneInverse:
    """A symmetric {1}-inverse over the full vertex set, plus its factors.

    ``matrix`` is indexed by global vertex ids. The small factors are kept
    for audit: ``base_sharp`` (L#(F), n x n, in ``layout.f_order``) and
    ``d_inv`` (L_v(H)^-1, m x m, H1 rows first).
    """

    matrix: np.ndarray
    layout: BlockLayout
    base_sharp: np.ndarray
    d_inv: np.ndarray


def _invert_grounded(h1: Graph, h2: Graph, cross=None) -> np.ndarray:
    """D^-1 = L_v(H)^-1, in H1-then-H2 order.

    The Cholesky factorization runs over the rows in reverse, H2 before H1,
    so that vertices far from v are eliminated first: a path or a tree
    gadget whose ids grow away from v then factors with unit pivots, and
    its small integer inverses come out exact.
    """
    return invert(grounded_laplacian(h1, h2, cross)[::-1, ::-1])[::-1, ::-1]


def pocket_d_inverse(
    h1: Graph, h2: Graph, copies: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse blocks of the pocket block D of the join gadget
    H1 v (H2 + {v}) over ``copies`` copies.

    D is L_v(H) (x) I, so D^-1 = L_v(H)^-1 (x) I; returns its H1 x H1,
    H2 x H2 and H1 x H2 blocks. For the join these are P^-1 (x) I,
    Q^-1 (x) I and (1/l) J (x) I, up to round-off.
    """
    if h1.order < 1 or copies < 1:
        raise ValueError("need l >= 1 and copies >= 1")
    l = h1.order
    eye = np.eye(copies)
    d_inv = _invert_grounded(h1, h2)
    return kron(d_inv[:l, :l], eye), kron(d_inv[l:, l:], eye), kron(d_inv[:l, l:], eye)


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


# Bytes of pocket rows copied per step of _write_one_inverse: few enough
# that they are still in cache when their share of D^-1 is added.
_STEP_BYTES = 1 << 18


def _write_one_inverse(layout: BlockLayout, lf_sharp: np.ndarray, d_inv: np.ndarray) -> np.ndarray:
    """Write the full {1}-inverse once, straight into global vertex order.

    In block order the matrix is [[L#(F), 1_m^T (x) C], [., J_m (x) A + D^-1]]
    with C = L#(F)[:, :k] (F rows against the attached columns),
    A = L#(F)[:k, :k] and D^-1 = L_v(H)^-1 (x) I_k. Global ids >= n equal
    their block positions, so only the F rows and columns are permuted (by
    ``layout.f_order``). Without D^-1 the k rows of gadget vertex 0 repeat
    for every gadget vertex, so they are written first, as C^T and A tiled
    m times, and copied to the other m - 1 row blocks a few at a time,
    each step adding its blocks' share of D^-1 on the copy diagonal while
    they are in cache; block 0, the source, gets its share last. The F
    rows then get L#(F) and C tiled m times.
    """
    n, k, m = layout.n, layout.k, layout.m
    fo = np.asarray(layout.f_order)
    x = _OUTPUT.matrix(layout.total)
    pocket_rows = x[n:].reshape(m, k, layout.total, copy=False)
    first = pocket_rows[0]  # the k rows of gadget vertex 0
    first[:, fo] = lf_sharp[:, :k].T
    first[:, n:].reshape(k, m, k, copy=False)[...] = lf_sharp[:k, None, :k]
    # the copy diagonal c = c' of the pocket block, as an (m, k, m) view
    diag = np.einsum("akbk->akb", x[n:, n:].reshape(m, k, m, k, copy=False))
    step = max(1, _STEP_BYTES // first.nbytes)
    for a0 in range(1, m, step):
        a1 = min(a0 + step, m)
        pocket_rows[a0:a1] = first
        diag[a0:a1] += d_inv[a0:a1, None, :]
    diag[0] += d_inv[0]  # last, as block 0 is the others' source
    x[np.ix_(fo, fo)] = lf_sharp
    x[:n, n:].reshape(n, m, k, copy=False)[fo] = lf_sharp[:, None, :k]
    return x


def pocket_factors(spec: PocketSpec) -> tuple[BlockLayout, np.ndarray, np.ndarray]:
    """(layout, L#(F), D^-1): the two small factors of any spec, the only
    place either is computed.

    Two inverses: the base factor L#(F) in attachment-first order
    (``layout.f_order``), through whose columns C = L#(F)[:, S] the pockets
    hang off the attached vertices, and the gadget factor D^-1 = L_v(H)^-1,
    H1 rows first. Both are exactly symmetric.
    """
    layout = make_layout(spec)
    fo = np.asarray(layout.f_order)
    lf_sharp = pseudo_inverse_laplacian(laplacian(spec.F)[np.ix_(fo, fo)])
    return layout, lf_sharp, _invert_grounded(spec.H1, spec.H2, spec.cross)


def structured_one_inverse(spec: PocketSpec) -> StructuredOneInverse:
    """The structured {1}-inverse of any spec, indexed by its global ids,
    written from the two factors of ``pocket_factors``."""
    layout, lf_sharp, d_inv = pocket_factors(spec)
    return StructuredOneInverse(
        matrix=_write_one_inverse(layout, lf_sharp, d_inv),
        layout=layout,
        base_sharp=lf_sharp,
        d_inv=d_inv,
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
    rest = sorted(set(range(spec.n)) - set(attach))
    if not rest:
        raise ValueError("F2 is empty: every vertex is attached")
    missing = _first_missing_pair(attach, rest, spec.F.has_edge)
    if missing is not None:
        a, b = missing
        raise JoinStructureError(f"F is not F1 v F2: missing cross edge ({a},{b})", witness=missing)
    return spec.F.induced(attach), spec.F.induced(rest)
