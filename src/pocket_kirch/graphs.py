"""Simple undirected graphs, the join operation, and pocket-graph assembly.

A pocket graph is built from a base graph F and a gadget H_v that splits as
H1 joined with (H2 plus the attachment vertex v): one copy of H_v is glued
onto each chosen vertex of F by identifying that vertex with v.
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
    """Raised when a gadget graph is not of the form H1 v (H2 + {v}), or a
    base graph is not F1 v F2 over the attachment vertices.

    Carries ``witness``: a missing cross edge (a, b) proving the violation.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def _normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: explicit vertex count plus an edge set.

    Vertices are 0..order-1; isolated vertices are representable. Edges are
    stored normalized (u < v), with self-loops and duplicates rejected.
    """

    order: int
    edges: frozenset[Edge] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.order < 0:
            raise GraphFormatError(f"negative order {self.order}")
        normalized = set()
        for u, v in self.edges:
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}")
            if not (0 <= u < self.order and 0 <= v < self.order):
                raise GraphFormatError(f"edge ({u},{v}) outside [0,{self.order})")
            normalized.add(_normalize_edge(u, v))
        object.__setattr__(self, "edges", frozenset(normalized))

    @property
    def size(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return _normalize_edge(u, v) in self.edges

    def neighbors(self, u: int) -> set[int]:
        return {b if a == u else a for a, b in self.edges if u in (a, b)}

    def degree(self, u: int) -> int:
        return sum(1 for e in self.edges if u in e)

    def adjacency(self) -> np.ndarray:
        return _edge_matrix(self.order, _edge_array(self), 1.0)

    def induced(self, vertices: list[int]) -> "Graph":
        """Subgraph induced on ``vertices``, relabeled to 0..len-1 in list order."""
        pos = {v: i for i, v in enumerate(vertices)}
        edges = {
            (pos[u], pos[v])
            for u, v in self.edges
            if u in pos and v in pos
        }
        return Graph(len(vertices), frozenset(edges))


def complete_graph(n: int) -> Graph:
    return Graph(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n)))


def path_graph(n: int) -> Graph:
    return Graph(n, frozenset((i, i + 1) for i in range(n - 1)))


def empty_graph(n: int) -> Graph:
    return Graph(n)


def _edge_array(g: Graph) -> np.ndarray:
    """The edges as an (|E|, 2) integer array; shape (0, 2) when edgeless."""
    flat = itertools.chain.from_iterable(g.edges)
    return np.fromiter(flat, dtype=np.intp, count=2 * g.size).reshape(-1, 2)


def _edge_matrix(order: int, edges: np.ndarray, value: float) -> np.ndarray:
    """An order x order float matrix with ``value`` at [u, v] and [v, u] for
    each row (u, v) of ``edges`` and zero elsewhere."""
    mat = np.zeros((order, order))
    mat[edges[:, 0], edges[:, 1]] = value
    mat[edges[:, 1], edges[:, 0]] = value
    return mat


def laplacian(g: Graph) -> np.ndarray:
    """Laplacian matrix L = D - A (rows sum to zero, PSD).

    Built in one N x N array from the edge array: -1 scattered at each
    edge, the degrees (endpoint counts) on the diagonal.
    """
    edges = _edge_array(g)
    lap = _edge_matrix(g.order, edges, -1.0)
    np.fill_diagonal(lap, np.bincount(edges.ravel(), minlength=g.order))
    return lap


def join(g1: Graph, g2: Graph) -> Graph:
    """Join: disjoint union plus all cross edges; g2's ids shift by g1.order."""
    off = g1.order
    edges = set(g1.edges)
    edges.update((u + off, v + off) for u, v in g2.edges)
    edges.update((u, v + off) for u in range(g1.order) for v in range(g2.order))
    return Graph(g1.order + g2.order, frozenset(edges))


def is_connected(g: Graph) -> bool:
    """BFS connectivity; order 0 and 1 count as connected."""
    if g.order <= 1:
        return True
    adj = {u: set() for u in range(g.order)}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == g.order


@dataclass(frozen=True)
class PocketSpec:
    """Input tuple for a pocket graph: base F, attachment vertices, H1, H2.

    The gadget is H_v = H1 v (H2 + {v}); each copy is glued at one attachment
    vertex of F. Requires F connected, 1 <= k <= n and l = order(H1) >= 1.
    """

    F: Graph
    attach: tuple[int, ...]
    H1: Graph
    H2: Graph = empty_graph(0)

    def __post_init__(self):
        object.__setattr__(self, "attach", tuple(self.attach))
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

    def gadget(self) -> Graph:
        """The pocket gadget H_v as a graph, with v at the last index (m)."""
        hv = join(self.H1, _disjoint_plus_one(self.H2))
        assert hv.degree(self.m) == self.l  # deg(v) = l by construction
        return hv


def _disjoint_plus_one(h2: Graph) -> Graph:
    # H2 + {v}: disjoint union with a single isolated vertex, v last
    return Graph(h2.order + 1, h2.edges)


BLOCKS = ("F", "H1", "H2")


@dataclass(frozen=True)
class BlockLayout:
    """Bijection between global vertex ids and the block ordering.

    Blocks: "F" (attachment vertices first, remaining F vertices after, in
    increasing id order), then "H1" rows j = 0..l-1 expanded over copies,
    then "H2" rows. Within a Kronecker row the copy index varies fastest,
    matching the A (x) I convention.
    """

    n: int
    k: int
    l: int
    m: int
    f_order: tuple[int, ...]
    # inverse of f_order: the F-block position of each F vertex
    f_position: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        position = [0] * self.n
        for local, g in enumerate(self.f_order):
            position[g] = local
        object.__setattr__(self, "f_position", tuple(position))

    @property
    def total(self) -> int:
        return self.n + self.m * self.k

    def global_index(self, block: str, local: int, copy: int = 0) -> int:
        if block == "F":
            if not 0 <= local < self.n or copy != 0:
                raise IndexError(f"F block index ({local},{copy}) out of range")
            return self.f_order[local]
        if block == "H1":
            if not (0 <= local < self.l and 0 <= copy < self.k):
                raise IndexError(f"H1 block index ({local},{copy}) out of range")
            return self.n + local * self.k + copy
        if block == "H2":
            if not (0 <= local < self.m - self.l and 0 <= copy < self.k):
                raise IndexError(f"H2 block index ({local},{copy}) out of range")
            return self.n + self.l * self.k + local * self.k + copy
        raise KeyError(f"unknown block {block!r}")

    def locate(self, g: int) -> tuple[str, int, int]:
        """Inverse map: global vertex id -> (block, local, copy)."""
        if not 0 <= g < self.total:
            raise IndexError(f"vertex {g} out of range")
        if g < self.n:
            return ("F", self.f_position[g], 0)
        off = g - self.n
        if off < self.l * self.k:
            return ("H1", off // self.k, off % self.k)
        off -= self.l * self.k
        return ("H2", off // self.k, off % self.k)

    def locate_all(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``locate`` over every global id at once: integer arrays (block,
        local, copy) indexed by global id, block indexing ``BLOCKS``."""
        n, k, l = self.n, self.k, self.l
        off = np.arange(self.total - n)
        in_h2 = off >= l * k
        block = np.concatenate([np.zeros(n, dtype=np.intp), 1 + in_h2])
        local = np.concatenate([self.f_position, off // k - l * in_h2])
        copy = np.concatenate([np.zeros(n, dtype=np.intp), off % k])
        return block, local, copy

    def block_position(self, g: int) -> int:
        """Position of global vertex g in the block ordering."""
        block, local, copy = self.locate(g)
        if block == "F":
            return local
        if block == "H1":
            return self.n + local * self.k + copy
        return self.n + self.l * self.k + local * self.k + copy

    def to_global(self) -> np.ndarray:
        """Array p with p[block_position] = global id."""
        p = np.empty(self.total, dtype=int)
        for g in range(self.total):
            p[self.block_position(g)] = g
        return p


def make_layout(spec: PocketSpec) -> BlockLayout:
    rest = tuple(u for u in range(spec.n) if u not in set(spec.attach))
    return BlockLayout(spec.n, spec.k, spec.l, spec.m, spec.attach + rest)


def build_pocket_graph(spec: PocketSpec) -> tuple[Graph, BlockLayout]:
    """Assemble the pocket graph and its block layout.

    Copy i of the gadget is glued at spec.attach[i]. Total order n + m*k;
    the result is connected, since ``PocketSpec`` requires a connected F
    and l >= 1 (every H1 vertex is adjacent to v, every H2 vertex to H1).
    """
    layout = make_layout(spec)
    n, k, l = spec.n, spec.k, spec.l
    edges = set(spec.F.edges)
    for c in range(k):
        u = spec.attach[c]
        h1 = [layout.global_index("H1", j, c) for j in range(l)]
        h2 = [layout.global_index("H2", j, c) for j in range(spec.m - l)]
        # v is identified with u; v is adjacent to exactly the H1 vertices
        edges.update(_normalize_edge(u, a) for a in h1)
        edges.update((h1[a], h1[b]) for a, b in spec.H1.edges)
        edges.update((h2[a], h2[b]) for a, b in spec.H2.edges)
        # join edges between H1 and H2
        edges.update(_normalize_edge(a, b) for a in h1 for b in h2)
    return Graph(layout.total, frozenset(edges)), layout


def validate_join_structure(hv: Graph, v: int) -> tuple[Graph, Graph]:
    """Split a gadget graph as H1 v (H2 + {v}) or raise JoinStructureError.

    H1 is induced on N(v), H2 on the remaining vertices; validity requires
    every H1-H2 pair to be an edge. Returns (H1, H2) with vertices relabeled
    in increasing original-id order.
    """
    if not 0 <= v < hv.order:
        raise IndexError(f"vertex {v} out of range")
    nv = sorted(hv.neighbors(v))
    if not nv:
        raise JoinStructureError(f"specified vertex {v} has no neighbours")
    rest = sorted(set(range(hv.order)) - set(nv) - {v})
    for a in nv:
        for b in rest:
            if not hv.has_edge(a, b):
                raise JoinStructureError(
                    f"missing cross edge ({a},{b}) between N(v) and the rest",
                    witness=(a, b),
                )
    return hv.induced(nv), hv.induced(rest)


# ---------------------------------------------------------------------------
# Graph serialization: edge-list text and JSON, accepted interchangeably.

def parse_edge_list(text: str) -> Graph:
    """Parse 'n m_edges' header followed by one 'u v' pair per line."""
    tokens = text.split()
    if len(tokens) < 2:
        raise GraphFormatError("edge list needs an 'n m' header")
    try:
        values = [int(t) for t in tokens]
    except ValueError as exc:
        raise GraphFormatError(f"non-integer token in edge list: {exc}") from exc
    n, m = values[0], values[1]
    if len(values) != 2 + 2 * m:
        raise GraphFormatError(
            f"expected {m} edges ({2 * m} endpoints), got {len(values) - 2} tokens"
        )
    edges = frozenset(zip(values[2::2], values[3::2]))
    g = Graph(n, edges)
    if g.size != m:
        raise GraphFormatError("duplicate edges in edge list")
    return g


def to_edge_list(g: Graph) -> str:
    lines = [f"{g.order} {g.size}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def graph_to_json(g: Graph) -> str:
    return json.dumps({"order": g.order, "edges": sorted(map(list, g.edges))})


def graph_from_json(text: str) -> Graph:
    try:
        obj = json.loads(text)
        return Graph(int(obj["order"]), frozenset(tuple(e) for e in obj["edges"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphFormatError(f"bad JSON graph: {exc}") from exc


def load_graph(path: str) -> Graph:
    """Read a graph file, accepting either edge-list text or JSON."""
    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return graph_from_json(text)
    return parse_edge_list(text)


def layout_to_json(layout: BlockLayout) -> str:
    return json.dumps(
        {
            "n": layout.n,
            "k": layout.k,
            "l": layout.l,
            "m": layout.m,
            "f_order": list(layout.f_order),
            "total": layout.total,
        },
        sort_keys=True,
    )
