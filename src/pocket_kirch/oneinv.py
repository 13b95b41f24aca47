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
alone.

``PocketResistance(spec)`` is the one place the two factors are computed
and the one place the global vertex ids are mapped onto them (on the
first pair read), through the numbering ``graphs.BlockLayout.locate_all``
gives; it reads r and Kf straight from the factors, with no N x N array,
and ``resist`` takes that route. ``structured_one_inverse``
returns a ``StructuredOneInverse``, the same object plus the full-size
{1}-inverse ``matrix`` for callers that want it (the audit, ``bench``):
written once, block by block, straight into global vertex order, so its
peak memory is one N x N array. That array is linalg's output buffer, the
one the oracle's X is written into too: once a dense result is dropped,
the next dense call of either route reuses its memory
(``linalg.release_output_buffer`` frees it).
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from .graphs import (
    BLOCKS,
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
from .linalg import _OUTPUT, invert, kron, pseudo_inverse_laplacian
from .resistance import KirchhoffResult


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


class PocketResistance:
    """r and Kf of a pocket graph, read from its two small factors; the
    N x N {1}-inverse X of ``structured_one_inverse`` is never built.

    The constructor is the one place the factors are computed, each once:
    ``base_sharp`` = L#(F) (n x n) in attachment-first order
    (``layout.f_order``), and ``d_inv`` = D^-1 = L_v(H)^-1 (m x m), H1 rows
    first; both are exactly symmetric. Two index maps over the global ids,
    read off the (block, local, copy) arrays of ``layout.locate_all()``,
    place every vertex on them: p[g], the L#(F) row of g (its F position,
    or for a vertex of copy c the position c of the vertex that copy is
    glued at), and h[g], its index in the rooted gadget with v = 0 (so 0
    for F vertices, 1 + local for H1 and 1 + l + local for H2). X's
    entries are then x_uv = L#[p_u, p_v], plus D^-1[h_u - 1, h_v - 1] when
    u and v lie in the same copy, each one copy or one addition of the
    same two doubles X holds; and r_uv = (x_uu + x_vv - x_uv) - x_uv is
    ``resistance.pair_resistances``' operation on X, which is exactly
    symmetric. So every r is bit-identical to that function's on
    ``structured_one_inverse(spec).matrix``, in memory of the factors plus
    O(N). The O(N) maps are built on the first pair read, so a caller that
    wants only Kf or the dense X never pays for them.
    """

    def __init__(self, spec: PocketSpec):
        self.layout = layout = make_layout(spec)
        fo = np.asarray(layout.f_order)
        self.base_sharp = pseudo_inverse_laplacian(laplacian(spec.F)[np.ix_(fo, fo)])
        self.d_inv = _invert_grounded(spec.H1, spec.H2, spec.cross)

    @functools.cached_property
    def _maps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(p, h, D^-1 padded and flat, diag X) over the global ids."""
        layout = self.layout
        n, m = layout.n, layout.m
        block, local, copy = layout.locate_all()
        in_f = block == BLOCKS.index("F")
        p = np.where(in_f, local, copy)
        h = np.where(in_f, 0, 1 + local + layout.l * (block == BLOCKS.index("H2")))
        # D^-1 with a zero row and column for v in front, so that h indexes
        # it and an F vertex adds 0.0, which leaves every double unchanged
        padded = np.zeros((m + 1, m + 1))
        padded[1:, 1:] = self.d_inv
        gadget = padded.reshape(-1)
        diag = self.base_sharp.reshape(-1).take(p * (n + 1)) + gadget.take(h * (m + 2))
        return p, h, gadget, diag

    @property
    def order(self) -> int:
        return self.layout.total

    def pair_resistances(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """r at the pairs (u[i], v[i]) of global ids, from gathers in the
        small arrays. Distinct copies have distinct p and an F vertex has
        h = 0, so only pairs with p_u == p_v read D^-1."""
        p, h, gadget, diag = self._maps
        pu, pv = p.take(u), p.take(v)
        i = pu * self.layout.n
        i += pv
        x = self.base_sharp.reshape(-1).take(i)
        same = np.flatnonzero(pu == pv)
        if same.size:
            i = h.take(u.take(same))
            i *= self.layout.m + 1
            i += h.take(v.take(same))
            x[same] += gadget.take(i)
        r = diag.take(u)
        r += diag.take(v)
        r -= x
        r -= x
        return r

    def resistance(self, u: int, v: int) -> float:
        """r_uv in O(1); IndexError unless 0 <= u, v < N."""
        u, v = operator.index(u), operator.index(v)
        if not (0 <= u < self.order and 0 <= v < self.order):
            raise IndexError(f"vertex pair ({u},{v}) out of range for order {self.order}")
        return float(self.pair_resistances(np.array([u]), np.array([v]))[0])

    def kirchhoff(self) -> KirchhoffResult:
        """Kf = N tr X - 1^T X 1 from X's block sums: with A = L#[:k, :k]
        and C = L#[:, :k], tr X = tr L# + m tr A + k tr D^-1 and
        1^T X 1 = 1^T L# 1 + 2m 1^T C 1 + m^2 1^T A 1 + k 1^T D^-1 1."""
        lf, d_inv = self.base_sharp, self.d_inv
        k, m = self.layout.k, self.layout.m
        a, c = lf[:k, :k], lf[:, :k]
        trace = np.trace(lf) + m * np.trace(a) + k * np.trace(d_inv)
        total = lf.sum() + 2 * m * c.sum() + m * m * a.sum() + k * d_inv.sum()
        return KirchhoffResult(float(self.order * trace - total), "structured")


# Bytes of one tile of _write_one_inverse's template, and about the bytes
# of pocket rows written per step. The tile is read again for every step,
# so it must stay in a core's L2 cache (2 MiB on the Xeon it was tuned on,
# where 512 KiB beat 256 KiB and 1 MiB), and each step's rows must still be
# in cache when their share of D^-1 is added.
_STEP_BYTES = 1 << 19


def _write_one_inverse(layout: BlockLayout, lf_sharp: np.ndarray, d_inv: np.ndarray) -> np.ndarray:
    """Write the full {1}-inverse once, straight into global vertex order.

    In block order the matrix is [[L#(F), 1_m^T (x) C], [., J_m (x) A + D^-1]]
    with C = L#(F)[:, :k] (F rows against the attached columns),
    A = L#(F)[:k, :k] and D^-1 = L_v(H)^-1 (x) I_k. Global ids >= n equal
    their block positions, so only the F rows and columns are permuted (by
    ``layout.f_order``). Without D^-1 the k rows of gadget vertex 0 repeat
    for every gadget vertex, so they are written first, as C^T and A tiled
    m times: the template. It is then copied to the other m - 1 row blocks
    a tile of its rows at a time, each tile at most ``_STEP_BYTES``, so
    that the tile is read from cache for every block rather than from
    memory once the template outgrows L2 (k N 8 bytes; 3.3 MB at
    N = 4100). Each tile goes to a group of blocks of about ``_STEP_BYTES``
    at a time, and the group's share of D^-1 on the copy diagonal is added
    while its rows are in cache; block 0, the source, gets its share last.
    A small template is one tile, and small orders copy it in one group.
    Every entry is one copy and at most one addition, whatever the tiles,
    so the bits do not depend on ``_STEP_BYTES``. The F rows then get
    L#(F) and C tiled m times.
    """
    n, k, m = layout.n, layout.k, layout.m
    fo = np.asarray(layout.f_order)
    x = _OUTPUT.matrix(layout.total)
    pocket_rows = x[n:].reshape(m, k, layout.total, copy=False)
    first = pocket_rows[0]  # the template: the k rows of gadget vertex 0
    first[:, fo] = lf_sharp[:, :k].T
    first[:, n:].reshape(k, m, k, copy=False)[...] = lf_sharp[:k, None, :k]
    # the copy diagonal c = c' of the pocket block, as an (m, k, m) view
    diag = np.einsum("akbk->akb", x[n:, n:].reshape(m, k, m, k, copy=False))
    rows = max(1, _STEP_BYTES // (8 * layout.total))
    for c0 in range(0, k, rows):
        c1 = min(c0 + rows, k)
        tile = first[c0:c1]
        group = max(1, _STEP_BYTES // tile.nbytes)
        for a0 in range(1, m, group):
            a1 = min(a0 + group, m)
            pocket_rows[a0:a1, c0:c1] = tile
            diag[a0:a1, c0:c1] += d_inv[a0:a1, None, :]
    diag[0] += d_inv[0]  # last, as block 0 is the others' source
    x[np.ix_(fo, fo)] = lf_sharp
    x[:n, n:].reshape(n, m, k, copy=False)[fo] = lf_sharp[:, None, :k]
    return x


class StructuredOneInverse(PocketResistance):
    """A ``PocketResistance`` plus ``matrix``, the N x N symmetric
    {1}-inverse X indexed by global vertex ids, written from the two
    factors by ``_write_one_inverse``."""

    def __init__(self, spec: PocketSpec):
        super().__init__(spec)
        self.matrix = _write_one_inverse(self.layout, self.base_sharp, self.d_inv)


def structured_one_inverse(spec: PocketSpec) -> StructuredOneInverse:
    """The structured {1}-inverse of any spec, indexed by its global ids,
    with its factors."""
    return StructuredOneInverse(spec)


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
    rest = make_layout(spec).f_order[spec.k:]
    if not rest:
        raise ValueError("F2 is empty: every vertex is attached")
    missing = _first_missing_pair(spec.attach, rest, spec.F.has_edge)
    if missing is not None:
        a, b = missing
        raise JoinStructureError(f"F is not F1 v F2: missing cross edge ({a},{b})", witness=missing)
    return spec.F.induced(spec.attach), spec.F.induced(rest)
