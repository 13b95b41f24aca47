"""Simple undirected graphs, the join operation, and pocket-graph assembly.

A ``Graph`` holds its edges once, as a validated, sorted (|E|, 2) integer
array; the Laplacian, the join, induced subgraphs, connectivity, assembly
and serialization all read or write that array.

A pocket graph is built from a base graph F and a rooted gadget H_v, any
simple connected graph with a specified vertex v: one copy of H_v is glued
onto each chosen vertex of F by identifying that vertex with v. The gadget
is kept as H1 = N(v), H2 = the rest, and the H1-H2 edges between them; the
paper's printed form H1 v (H2 + {v}) is the case where those are all pairs.
The pocket graph, L_v(H) and the gadget's checks are built from one local
edge array of H_v (``_gadget_edges``), gathered through a table of ids.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

Edge = tuple[int, int]


class GraphFormatError(ValueError):
    """Raised when a graph file or edge set is malformed."""


class JoinStructureError(ValueError):
    """Raised where a join is required and missing: by the printed displays,
    which state only gadgets H1 v (H2 + {v}) and split bases F1 v F2 over
    the attachment vertices. Also raised when a gadget's v has no
    neighbours.

    Carries ``witness``: a missing cross edge (a, b) proving the violation,
    or None.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def _normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _pair_array(pairs) -> np.ndarray:
    """Caller-supplied pairs as an (|pairs|, 2) intp array, (0, 2) when
    empty; GraphFormatError for a non-integer end or a row not a pair.

    An ndarray is checked by its dtype alone. Rows from any other iterable
    are also scanned for a bool end, which numpy would read as 1 or 0 in a
    row that also holds an integer."""
    try:
        rows = pairs if isinstance(pairs, np.ndarray) else list(pairs)
        arr = np.asarray(rows)
    except (TypeError, ValueError, OverflowError) as exc:
        raise GraphFormatError(f"edges must be integer pairs: {exc}") from None
    if arr.shape in ((0,), (0, 2)):
        return np.empty((0, 2), dtype=np.intp)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.dtype.kind not in "iu":
        raise GraphFormatError(f"edges must be integer (u, v) pairs, got {arr.dtype} of shape {arr.shape}")
    if rows is not pairs and not {bool, np.bool_}.isdisjoint(map(type, itertools.chain.from_iterable(rows))):
        raise GraphFormatError("edge ends must be integers, got a bool (true or false)")
    return arr.astype(np.intp, copy=False)


class Graph:
    """Simple undirected graph: explicit vertex count plus an edge array.

    Vertices are 0..order-1; isolated vertices are representable. ``array``
    holds the edges once: a read-only (|E|, 2) intp array of distinct pairs
    u < v in sorted order, built from any iterable of integer pairs or an
    integer array in one numpy pass. Ends are normalized and duplicates
    merged by one sort of the keys u*order + v, keeping each key that
    differs from the one before it; self-loops, ends out of range, rows
    that are not pairs, non-integer ends and non-integer or bool orders
    raise GraphFormatError. The order lies in [0, 2**31), so that key fits
    in intp. ``edges`` is the same set as a frozenset of
    tuples, made on first use, for membership tests. Graphs are
    immutable, hashable and equal when their orders and edge arrays are.
    """

    __slots__ = ("order", "array", "_edges")

    def __init__(self, order: int, edges=()):
        if not isinstance(order, (int, np.integer)) or isinstance(order, bool) or not 0 <= order < 2**31:
            raise GraphFormatError(f"order must be an integer in [0, 2**31), got {order!r}")
        order = int(order)
        pairs = _pair_array(edges)
        lo, hi = pairs.min(axis=1), pairs.max(axis=1)
        bad = np.flatnonzero((lo == hi) | (lo < 0) | (hi >= order))
        if bad.size:
            u, v = pairs[bad[0]].tolist()
            raise GraphFormatError(f"self-loop at vertex {u}" if u == v else f"edge ({u},{v}) outside [0,{order})")
        keys = np.sort(lo * order + hi)
        distinct = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
        array = np.stack(np.divmod(keys[distinct], max(order, 1)), axis=1)
        array.flags.writeable = False
        for name, value in (("order", order), ("array", array), ("_edges", None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"Graph is immutable: cannot set {name!r}")

    def __reduce__(self):
        return Graph, (self.order, self.array)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.order == other.order and np.array_equal(self.array, other.array)

    def __hash__(self):
        return hash((self.order, self.array.tobytes()))

    def __repr__(self):
        return f"Graph({self.order}, {self.array.tolist()})"

    @property
    def edges(self) -> frozenset[Edge]:
        if self._edges is None:
            object.__setattr__(self, "_edges", frozenset(map(tuple, self.array.tolist())))
        return self._edges

    @property
    def size(self) -> int:
        return len(self.array)

    def has_edge(self, u: int, v: int) -> bool:
        return _normalize_edge(u, v) in self.edges

    def neighbors(self, u: int) -> set[int]:
        a = self.array
        return set(a[a[:, 0] == u, 1].tolist()) | set(a[a[:, 1] == u, 0].tolist())

    def induced(self, vertices) -> "Graph":
        """Subgraph induced on ``vertices``, relabeled to 0..len-1 in list order."""
        pos = np.full(self.order, -1)
        pos[np.asarray(vertices, dtype=np.intp)] = np.arange(len(vertices))
        ends = pos[self.array]
        return Graph(len(vertices), ends[(ends >= 0).all(axis=1)])


def complete_graph(n: int) -> Graph:
    return Graph(n, np.transpose(np.triu_indices(n, 1)))


def path_graph(n: int) -> Graph:
    return Graph(n, np.stack([np.arange(n - 1), np.arange(1, n)], axis=1))


def empty_graph(n: int) -> Graph:
    return Graph(n)


def _scatter_laplacian(lap: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Write the Laplacian of an (|E|, 2) edge array into ``lap``, a zeroed
    square float array, and return it: -1 scattered at each edge, the
    degrees (endpoint counts) on the diagonal."""
    lap[edges[:, 0], edges[:, 1]] = -1.0
    lap[edges[:, 1], edges[:, 0]] = -1.0
    np.fill_diagonal(lap, np.bincount(edges.ravel(), minlength=lap.shape[0]))
    return lap


def laplacian(g: Graph) -> np.ndarray:
    """Laplacian matrix L = D - A (rows sum to zero, PSD)."""
    return _scatter_laplacian(np.zeros((g.order, g.order)), g.array)


def join(g1: Graph, g2: Graph) -> Graph:
    """Join: disjoint union plus all cross edges; g2's ids shift by g1.order."""
    off = g1.order
    cross = np.indices((g1.order, g2.order)).reshape(2, -1).T + (0, off)
    return Graph(g1.order + g2.order, np.concatenate([g1.array, g2.array + off, cross]))


def is_connected(g: Graph) -> bool:
    """Depth-first connectivity over the neighbour runs of the edge array
    sorted by first end; order 0 and 1 count as connected."""
    if g.order <= 1:
        return True
    ends = np.concatenate([g.array, g.array[:, ::-1]])
    ends = ends[np.argsort(ends[:, 0])]
    start = np.searchsorted(ends[:, 0], np.arange(g.order + 1)).tolist()
    nbr = ends[:, 1].tolist()
    seen = [True] + [False] * (g.order - 1)
    stack = [0]
    while stack:
        u = stack.pop()
        for w in nbr[start[u]:start[u + 1]]:
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    return all(seen)


def _attach_tuple(attach) -> tuple[int, ...]:
    """Attachment vertices as a tuple of Python ints; ValueError unless
    ``attach`` is an iterable of integers, the rule edge ends follow:
    floats (even 2.0) and bools are rejected."""
    try:
        attach = tuple(attach)
    except TypeError:
        raise ValueError(f"attachment vertices must be integers, got {attach!r}") from None
    for u in attach:
        if not isinstance(u, (int, np.integer)) or isinstance(u, bool):
            raise ValueError(f"attachment vertices must be integers, got {u!r}")
    return tuple(map(int, attach))


@dataclass(frozen=True)
class PocketSpec:
    """Input tuple for a pocket graph: base F, attachment vertices, and the
    rooted gadget H_v as H1, H2 and cross.

    H1 is induced on N(v), so v meets every H1 vertex and nothing else; H2
    is induced on the rest. ``cross`` is the set of H1-H2 edges as local
    pairs (i in H1, j in H2); None means every pair, the join
    H_v = H1 v (H2 + {v}), and a complete set is stored as None. Each copy
    of H_v is glued at one attachment vertex of F, given as an integer and
    stored as a Python int. Requires F connected, 1 <= k <= n distinct
    attachment vertices, l = order(H1) >= 1, and every gadget vertex joined
    to v.
    """

    F: Graph
    attach: tuple[int, ...]
    H1: Graph
    H2: Graph = empty_graph(0)
    cross: frozenset[Edge] | None = None

    def __post_init__(self):
        object.__setattr__(self, "attach", _attach_tuple(self.attach))
        n, k = self.F.order, len(self.attach)
        if not (1 <= k <= n):
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        if len(set(self.attach)) != k:
            raise ValueError("duplicate attachment vertices")
        if any(not 0 <= u < n for u in self.attach):
            raise ValueError("attachment vertex out of range")
        if self.H1.order < 1:
            raise ValueError("H1 must have at least one vertex (deg(v) = l >= 1)")
        if not is_connected(self.F):
            raise ValueError("F must be connected")
        if self.cross is not None:
            self._normalize_cross()

    def _normalize_cross(self):
        """Store ``cross`` as a frozenset of int pairs, or None when it holds
        every H1-H2 pair; ValueError for a pair out of range or a gadget
        vertex with no path to v."""
        l, q = self.H1.order, self.H2.order
        pairs = _pair_array(self.cross)
        bad = pairs[((pairs < 0) | (pairs >= (l, q))).any(axis=1)]
        if len(bad):
            raise ValueError(f"cross pair {min(map(tuple, bad.tolist()))} outside H1 x H2 = [0,{l}) x [0,{q})")
        if not is_connected(Graph(l + q + 1, _gadget_edges(self.H1, self.H2, pairs))):
            raise ValueError("gadget vertex cannot reach v: a part of H2 has no edge to H1")
        cross = frozenset(map(tuple, pairs.tolist()))
        object.__setattr__(self, "cross", None if len(cross) == l * q else cross)

    @property
    def n(self) -> int:
        return self.F.order

    @property
    def k(self) -> int:
        return len(self.attach)

    @property
    def l(self) -> int:
        return self.H1.order

    @property
    def m(self) -> int:
        return self.H1.order + self.H2.order


BLOCKS = ("F", "H1", "H2")


@dataclass(frozen=True)
class BlockLayout:
    """Bijection between global vertex ids and the block ordering.

    F vertices keep their ids; the F block lists them in ``f_order``
    (attachment vertices first, the rest after, in increasing id order).
    Gadget row j of copy c has global id n + j*k + c, so the copy index
    varies fastest (the A (x) I convention) and global ids >= n are their
    own block positions. Rows j < l form block "H1" (local index j), rows
    l <= j < m block "H2" (local index j - l).
    """

    n: int
    k: int
    l: int
    m: int
    f_order: tuple[int, ...]
    # inverse of f_order: the F-block position of each F vertex
    f_position: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        position = sorted(range(self.n), key=self.f_order.__getitem__)
        object.__setattr__(self, "f_position", tuple(position))

    @property
    def total(self) -> int:
        return self.n + self.m * self.k

    def locate(self, g: int) -> tuple[str, int, int]:
        """Inverse map: global vertex id -> (block, local, copy)."""
        if not 0 <= g < self.total:
            raise IndexError(f"vertex {g} out of range")
        if g < self.n:
            return ("F", self.f_position[g], 0)
        row, copy = divmod(g - self.n, self.k)
        return ("H1", row, copy) if row < self.l else ("H2", row - self.l, copy)

    def locate_all(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``locate`` over every global id at once: integer arrays (block,
        local, copy) indexed by global id, block indexing ``BLOCKS``."""
        zeros = np.zeros(self.n, dtype=np.intp)
        row, copy = np.divmod(np.arange(self.total - self.n), self.k)
        in_h2 = row >= self.l
        return (
            np.concatenate([zeros, 1 + in_h2]),
            np.concatenate([self.f_position, row - self.l * in_h2]),
            np.concatenate([zeros, copy]),
        )


def make_layout(spec: PocketSpec) -> BlockLayout:
    rest = tuple(sorted(set(range(spec.n)) - set(spec.attach)))
    return BlockLayout(spec.n, spec.k, spec.l, spec.m, spec.attach + rest)


def _gadget_edges(h1: Graph, h2: Graph, cross=None) -> np.ndarray:
    """The edges of the rooted gadget H_v as an (|E|, 2) integer array in
    local ids: H1 is 0..l-1, H2 is l..m-1 and v is m.

    They are v's edge to each H1 vertex, the edges of H1, those of H2
    shifted by l, and the H1-H2 edges ``cross`` as local pairs (i in H1,
    j in H2; None: every pair, the join).
    """
    l, q = h1.order, h2.order
    cross = np.indices((l, q)).reshape(2, -1).T if cross is None else _pair_array(cross)
    root = np.stack([np.full(l, l + q), np.arange(l)], axis=1)
    return np.concatenate([root, h1.array, h2.array + l, cross + (0, l)])


def build_pocket_graph(spec: PocketSpec) -> tuple[Graph, BlockLayout]:
    """Assemble the pocket graph and its block layout.

    Copy c of the gadget is glued at spec.attach[c]: the gadget's edge
    array indexes an (m+1, k) table of global ids, one column per copy, in
    ``BlockLayout``'s numbering with v's row m holding spec.attach. Total
    order n + m*k; the result is connected, since ``PocketSpec`` requires a
    connected F and a gadget whose every vertex reaches v.
    """
    layout = make_layout(spec)
    ids = np.arange(layout.n, layout.total + spec.k).reshape(spec.m + 1, spec.k)
    ids[spec.m] = spec.attach
    glued = ids[_gadget_edges(spec.H1, spec.H2, spec.cross).T].reshape(2, -1).T
    return Graph(layout.total, np.concatenate([spec.F.array, glued])), layout


def grounded_laplacian(h1: Graph, h2: Graph, cross=None) -> np.ndarray:
    """L_v(H): the Laplacian of the gadget H_v with v's row and column
    deleted, in H1-then-H2 order, for the H1-H2 edges ``cross`` (None: all).

    It is the Laplacian of the gadget's edge array, whose last vertex is v,
    cut to its first m rows and columns; positive definite for a connected
    gadget.
    """
    m = h1.order + h2.order
    return _scatter_laplacian(np.zeros((m + 1, m + 1)), _gadget_edges(h1, h2, cross))[:m, :m]


def _first_missing_pair(left, right, present) -> Edge | None:
    """The first pair (a, b) of left x right, in row-major order, for which
    ``present(a, b)`` is false; None when there is none."""
    return next(((a, b) for a in left for b in right if not present(a, b)), None)


def split_gadget(hv: Graph, v: int) -> tuple[Graph, Graph, frozenset[Edge] | None]:
    """The rooted gadget (hv, v) as ``PocketSpec`` takes it: (H1, H2, cross).

    H1 is induced on N(v) and H2 on the remaining vertices, each relabeled
    in increasing original-id order; cross holds the H1-H2 edges as local
    pairs, or is None when every pair is an edge (the join). IndexError
    when v is out of range, JoinStructureError when it has no neighbours.
    """
    if not 0 <= v < hv.order:
        raise IndexError(f"vertex {v} out of range")
    nv = sorted(hv.neighbors(v))
    if not nv:
        raise JoinStructureError(f"specified vertex {v} has no neighbours")
    rest = sorted(set(range(hv.order)) - set(nv) - {v})
    l, q = len(nv), len(rest)
    # nv then rest as 0..l+q-1, so each sorted pair u < w is in H1, H2 or across
    e = hv.induced(nv + rest).array
    h1, h2 = e[:, 1] < l, e[:, 0] >= l
    cross = frozenset(map(tuple, (e[~(h1 | h2)] - (0, l)).tolist()))
    return Graph(l, e[h1]), Graph(q, e[h2] - l), (None if len(cross) == l * q else cross)


# ---------------------------------------------------------------------------
# Graph serialization: edge-list text and JSON, accepted interchangeably.

def parse_edge_list(text: str) -> Graph:
    """Parse 'n m_edges' header followed by one 'u v' pair per line."""
    tokens = text.split()
    if len(tokens) < 2:
        raise GraphFormatError("edge list needs an 'n m' header")
    try:
        values = np.array(tokens).astype(np.intp)
    except (ValueError, OverflowError) as exc:
        raise GraphFormatError(f"non-integer token in edge list: {exc}") from exc
    n, m = values[:2].tolist()
    if len(values) != 2 + 2 * m:
        raise GraphFormatError(f"expected {m} edges ({2 * m} endpoints), got {len(values) - 2} tokens")
    g = Graph(n, values[2:].reshape(-1, 2))
    if g.size != m:
        raise GraphFormatError("duplicate edges in edge list")
    return g


def to_edge_list(g: Graph) -> str:
    return f"{g.order} {g.size}\n" + "".join(f"{u} {v}\n" for u, v in g.array.tolist())


def graph_to_json(g: Graph) -> str:
    return json.dumps({"order": g.order, "edges": g.array.tolist()})


def graph_from_json(text: str) -> Graph:
    try:
        obj = json.loads(text)
        return Graph(obj["order"], obj["edges"])
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphFormatError(f"bad JSON graph: {exc}") from exc


def load_graph(path: str) -> Graph:
    """Read a graph file, accepting either edge-list text or JSON."""
    with open(path) as fh:
        text = fh.read()
    return graph_from_json(text) if text.lstrip().startswith("{") else parse_edge_list(text)


def layout_to_json(layout: BlockLayout) -> str:
    sizes = {name: getattr(layout, name) for name in ("n", "k", "l", "m", "total")}
    return json.dumps({**sizes, "f_order": list(layout.f_order)}, sort_keys=True)
