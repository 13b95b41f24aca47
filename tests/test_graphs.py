import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pocket_kirch import (
    Graph,
    GraphFormatError,
    JoinStructureError,
    PocketSpec,
    build_pocket_graph,
    complete_graph,
    empty_graph,
    is_connected,
    join,
    laplacian,
    make_layout,
    path_graph,
    split_gadget,
    verify_construction,
)
from pocket_kirch.graphs import (
    BLOCKS,
    _first_missing_pair,
    _normalize_edge,
    graph_from_json,
    graph_to_json,
    grounded_laplacian,
    parse_edge_list,
    to_edge_list,
)
from pocket_kirch.sweep import (
    EDGE_PROBABILITY,
    builtin_fixtures,
    random_connected_graph,
    random_graph,
    random_specs,
)


def adjacency(g):
    """The 0/1 adjacency matrix of g; the library itself needs only the
    Laplacian."""
    adj = np.zeros((g.order, g.order))
    if g.edges:
        u, v = np.array(sorted(g.edges)).T
        adj[u, v] = adj[v, u] = 1.0
    return adj


def degree(g, u):
    """The number of edges of g at vertex u."""
    return sum(1 for e in g.edges if u in e)


def global_index(layout, block, local, copy=0):
    """The global id of row ``local`` of ``block`` in gadget copy ``copy``:
    the inverse of ``layout.locate``, written out from the layout's rule."""
    if block == "F":
        if not 0 <= local < layout.n or copy != 0:
            raise IndexError(f"F block index ({local},{copy}) out of range")
        return layout.f_order[local]
    if block not in BLOCKS:
        raise KeyError(f"unknown block {block!r}")
    first, rows = (0, layout.l) if block == "H1" else (layout.l, layout.m - layout.l)
    if not (0 <= local < rows and 0 <= copy < layout.k):
        raise IndexError(f"{block} block index ({local},{copy}) out of range")
    return layout.n + (first + local) * layout.k + copy


def validate_join_structure(hv, v):
    """``split_gadget``, required to give the join H1 v (H2 + {v}): else
    JoinStructureError whose ``witness`` is the first missing pair of
    N(v) x rest in original ids, each side in increasing id order.
    Returns (H1, H2)."""
    h1, h2, cross = split_gadget(hv, v)
    if cross is not None:
        nv = sorted(hv.neighbors(v))
        rest = sorted(set(range(hv.order)) - set(nv) - {v})
        a, b = _first_missing_pair(nv, rest, hv.has_edge)
        raise JoinStructureError(
            f"missing cross edge ({a},{b}) between N(v) and the rest", witness=(a, b)
        )
    return h1, h2


def block_order(layout):
    """The block ordering as global ids: entry i is the vertex at block
    position i. F comes first in ``f_order``; gadget ids are their own
    block positions."""
    return np.r_[layout.f_order, layout.n:layout.total]


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphFormatError):
            Graph(2, frozenset([(1, 1)]))

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(GraphFormatError):
            Graph(2, frozenset([(0, 2)]))

    def test_normalizes_edges(self):
        g = Graph(3, frozenset([(2, 0), (0, 2)]))
        assert g.edges == frozenset([(0, 2)])

    def test_isolated_vertices_representable(self):
        g = empty_graph(3)
        assert g.order == 3 and g.size == 0


class TestLaplacian:
    def test_k2(self):
        np.testing.assert_array_equal(
            laplacian(complete_graph(2)), [[1, -1], [-1, 1]]
        )

    def test_k1(self):
        np.testing.assert_array_equal(laplacian(complete_graph(1)), [[0.0]])

    def test_p3(self):
        np.testing.assert_array_equal(
            laplacian(path_graph(3)), [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]
        )

    def test_rows_sum_to_zero_and_psd(self):
        lap = laplacian(complete_graph(5))
        np.testing.assert_allclose(lap.sum(axis=1), 0)
        assert np.linalg.eigvalsh(lap).min() >= -1e-12

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_per_edge_reference(self, data):
        # orders 0-30, any edge density: edgeless graphs and isolated
        # vertices included
        n = data.draw(st.integers(0, 30))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        g = Graph(n, frozenset(e for e, k in zip(pairs, keep) if k))
        adj = np.zeros((n, n))
        deg = np.zeros((n, n))
        for u, v in g.edges:
            adj[u, v] = adj[v, u] = 1.0
            deg[u, u] += 1.0
            deg[v, v] += 1.0
        lap = laplacian(g)
        assert lap.dtype == np.float64 and adjacency(g).dtype == np.float64
        np.testing.assert_array_equal(adjacency(g), adj)
        np.testing.assert_array_equal(lap, deg - adj)
        np.testing.assert_array_equal(lap.sum(axis=1), np.zeros(n))

    def test_edgeless_with_isolated_vertices(self):
        np.testing.assert_array_equal(laplacian(empty_graph(3)), np.zeros((3, 3)))
        assert laplacian(empty_graph(0)).shape == (0, 0)

    def test_no_per_vertex_degree_queries(self, monkeypatch):
        def fail(self, u):
            raise AssertionError("laplacian called Graph.degree")

        monkeypatch.setattr(Graph, "degree", fail, raising=False)  # should Graph gain one
        np.testing.assert_array_equal(
            laplacian(path_graph(3)), [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]
        )

    def test_peak_is_one_dense_array(self, traced_peak):
        rng = np.random.default_rng(3)
        n = 1000
        g = Graph(n, frozenset(
            (int(u), int(v)) for u, v in rng.integers(0, n, size=(10 * n, 2)) if u != v
        ))
        lap, peak = traced_peak(laplacian, g)
        assert peak <= 1.25 * 8 * n**2
        assert lap.trace() == 2 * g.size


class TestJoin:
    def test_k1_k1(self):
        assert join(complete_graph(1), complete_graph(1)) == complete_graph(2)

    def test_k1_e2_is_star(self):
        g = join(complete_graph(1), empty_graph(2))
        assert g.edges == frozenset([(0, 1), (0, 2)])

    def test_k2_k1_is_k3(self):
        assert join(complete_graph(2), complete_graph(1)) == complete_graph(3)

    def test_ids_shift(self):
        g = join(path_graph(2), path_graph(2))
        assert (2, 3) in g.edges  # second factor's internal edge, shifted


class TestIsConnected:
    def test_p3(self):
        assert is_connected(path_graph(3))

    def test_two_isolated(self):
        assert not is_connected(empty_graph(2))

    def test_k1_and_empty(self):
        assert is_connected(complete_graph(1))
        assert is_connected(empty_graph(0))


class TestBuildPocketGraph:
    def test_p3_instance(self):
        spec = PocketSpec(complete_graph(1), (0,), complete_graph(1), complete_graph(1))
        g, layout = build_pocket_graph(spec)
        assert g.order == 3
        assert sorted(g.edges) == [(0, 1), (1, 2)]
        assert global_index(layout, "F", 0) == 0
        assert global_index(layout, "H1", 0, 0) == 1
        assert global_index(layout, "H2", 0, 0) == 2

    def test_p4_instance(self):
        spec = PocketSpec(complete_graph(2), (0, 1), complete_graph(1))
        g, _ = build_pocket_graph(spec)
        assert sorted(g.edges) == [(0, 1), (0, 2), (1, 3)]  # path 2-0-1-3

    def test_k3_all_pendants(self):
        spec = PocketSpec(complete_graph(3), (0, 1, 2), complete_graph(1))
        g, _ = build_pocket_graph(spec)
        assert g.order == 6 and g.size == 6

    def test_rejects_disconnected_f(self):
        with pytest.raises(ValueError, match="connected"):
            PocketSpec(empty_graph(2), (0,), complete_graph(1))

    def test_rejects_duplicate_attach(self):
        with pytest.raises(ValueError, match="duplicate"):
            PocketSpec(complete_graph(2), (0, 0), complete_graph(1))

    @pytest.mark.parametrize(
        "attach",
        [(0.5, 2), (2.0, 0), (True, 0), (np.float64(1.0), 0), (np.bool_(True), 0),
         ("1", 0), (None, 0), np.array([0.0, 2.0]), 1],
        ids=["0.5", "2.0", "True", "np.float64", "np.bool_", "str", "None", "float-array", "scalar"],
    )
    def test_rejects_non_integer_attach(self, attach):
        with pytest.raises(ValueError, match="attachment vertices must be integers"):
            PocketSpec(path_graph(3), attach, complete_graph(2))

    def test_numpy_integer_attach_stored_as_int(self):
        spec = PocketSpec(path_graph(3), (np.int64(1), np.intp(2)), complete_graph(2))
        plain = PocketSpec(path_graph(3), (1, 2), complete_graph(2))
        assert spec == plain
        assert all(type(u) is int for u in spec.attach)
        text = verify_construction(spec).to_json()
        assert json.loads(text)["instance"]["attach"] == [1, 2]
        assert text == verify_construction(plain).to_json()

    def test_edge_count_formula(self):
        f = complete_graph(4)
        h1, h2 = path_graph(2), path_graph(3)
        spec = PocketSpec(f, (0, 2), h1, h2)
        g, _ = build_pocket_graph(spec)
        l, m, k = spec.l, spec.m, spec.k
        expected = f.size + k * (h1.size + h2.size + l + l * (m - l))
        assert g.size == expected


def _per_vertex_build(spec):
    """build_pocket_graph as it was: every gadget vertex's id from one
    ``global_index`` call, one copy at a time."""
    layout = make_layout(spec)
    k, l = spec.k, spec.l
    edges = set(spec.F.edges)
    for c in range(k):
        u = spec.attach[c]
        h1 = [global_index(layout, "H1", j, c) for j in range(l)]
        h2 = [global_index(layout, "H2", j, c) for j in range(spec.m - l)]
        edges.update(_normalize_edge(u, a) for a in h1)
        edges.update((h1[a], h1[b]) for a, b in spec.H1.edges)
        edges.update((h2[a], h2[b]) for a, b in spec.H2.edges)
        edges.update(_normalize_edge(a, b) for a in h1 for b in h2)
    return Graph(layout.total, frozenset(edges)), layout


def _to_global_loop(layout):
    """The block-order permutation as it was computed: one ``locate`` per
    vertex, its block position written out per block."""
    n, k, l = layout.n, layout.k, layout.l
    p = np.empty(layout.total, dtype=int)
    for g in range(layout.total):
        block, local, copy = layout.locate(g)
        if block == "F":
            p[local] = g
        elif block == "H1":
            p[n + local * k + copy] = g
        else:
            p[n + l * k + local * k + copy] = g
    return p


# k < n with F not F1 v F2 over the attached vertices; C4 with one pocket
NON_JOIN_SPECS = [
    PocketSpec(path_graph(3), (0,), complete_graph(1)),
    PocketSpec(path_graph(5), (3, 1), complete_graph(2), path_graph(2)),
    PocketSpec(
        Graph(4, frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})), (2,), path_graph(2), empty_graph(1)
    ),
]
EDGE_SHAPE_SPECS = [
    PocketSpec(path_graph(6), (4,), path_graph(3), complete_graph(2)),  # k = 1
    PocketSpec(complete_graph(3), (1, 2), path_graph(4)),  # m = l
    PocketSpec(path_graph(5), (3, 0), complete_graph(2), path_graph(20)),  # m - l >= 10k
    PocketSpec(complete_graph(4), (2, 0, 3, 1), empty_graph(1), complete_graph(40)),
]
BUILD_SPECS = (
    [s for _, s in builtin_fixtures()] + random_specs(300, seed=7) + NON_JOIN_SPECS + EDGE_SHAPE_SPECS
)


def cycle_graph(n):
    return Graph(n, frozenset((i, (i + 1) % n) for i in range(n)))


# Rooted gadgets (H_v, v) that are not H1 v (H2 + {v}): C5 at a vertex, P5
# at an inner vertex, and a triangle at v with a path hanging off it.
NON_JOIN_GADGETS = [
    (cycle_graph(5), 0),
    (path_graph(5), 1),
    (Graph(5, frozenset({(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)})), 0),
]


def _random_tree(rng, order):
    """A random tree on 0..order-1: vertex i hangs off a vertex below it."""
    return Graph(order, frozenset((int(rng.integers(0, i)), i) for i in range(1, order)))


def _seeded_gadgets(seed=13):
    """Twenty seeded random connected rooted gadgets (hv, v) of order 2-8,
    four of each kind: a connected graph at a random vertex, a tree rooted
    at a leaf, a tree rooted at an inner vertex, a join H1 v (H2 + {v})
    with v last, and v joined to every other vertex (empty H2)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(4):
        g = random_connected_graph(rng, int(rng.integers(2, 9)))
        out.append((g, int(rng.integers(0, g.order))))
        for inner in (False, True):
            t = _random_tree(rng, int(rng.integers(3, 9)))
            roots = [u for u in range(t.order) if (degree(t, u) > 1) == inner]
            out.append((t, roots[int(rng.integers(0, len(roots)))]))
        l, q = (int(x) for x in rng.integers(1, 4, size=2))
        hv = join(random_graph(rng, l), Graph(q + 1, random_graph(rng, q).edges))
        out.append((hv, l + q))
        l = int(rng.integers(1, 8))
        out.append((join(random_graph(rng, l), complete_graph(1)), l))
    return out


SEEDED_GADGETS = _seeded_gadgets()


def gadget_spec(f, attach, hv, v):
    """The spec gluing the rooted gadget (hv, v) at ``attach`` of f."""
    return PocketSpec(f, attach, *split_gadget(hv, v))


NON_JOIN_GADGET_SPECS = [
    gadget_spec(complete_graph(3), (2, 0, 1), *NON_JOIN_GADGETS[0]),  # k = n
    gadget_spec(path_graph(4), (2, 0), *NON_JOIN_GADGETS[1]),  # non-join base too
    gadget_spec(join(path_graph(2), empty_graph(2)), (1, 0), *NON_JOIN_GADGETS[2]),  # split base
    gadget_spec(cycle_graph(4), (3,), *NON_JOIN_GADGETS[0]),
]


def _glued_reference(f, attach, hv, v):
    """The pocket graph by gluing hv itself: copy c sends v to attach[c],
    the i-th neighbour of v to n + i*k + c and the j-th other vertex to
    n + (l + j)*k + c (ids in increasing order within each side)."""
    n, k = f.order, len(attach)
    nv = sorted(hv.neighbors(v))
    rest = sorted(set(range(hv.order)) - set(nv) - {v})
    edges = set(f.edges)
    for c in range(k):
        place = {v: attach[c]}
        place.update((u, n + row * k + c) for row, u in enumerate(nv + rest))
        edges.update(_normalize_edge(place[a], place[b]) for a, b in hv.edges)
    return Graph(n + (hv.order - 1) * k, frozenset(edges))


class TestRootedGadget:
    def test_split_of_c5(self):
        h1, h2, cross = split_gadget(cycle_graph(5), 0)
        # N(0) = {1, 4}, rest = {2, 3}: edges 1-2 and 4-3 cross
        assert h1 == empty_graph(2) and h2 == path_graph(2)
        assert cross == {(0, 0), (1, 1)}

    def test_split_of_path_at_inner_vertex(self):
        h1, h2, cross = split_gadget(path_graph(5), 1)
        # N(1) = {0, 2}, rest = {3, 4}: only 2-3 crosses
        assert h1 == empty_graph(2) and h2 == path_graph(2)
        assert cross == {(1, 0)}

    def test_join_gadget_splits_with_cross_none(self):
        spec = PocketSpec(complete_graph(1), (0,), path_graph(2), complete_graph(3))
        hv = join(spec.H1, Graph(spec.H2.order + 1, spec.H2.edges))  # v last
        assert split_gadget(hv, spec.m) == (spec.H1, spec.H2, None)

    def test_complete_cross_is_the_join(self):
        f, h1, h2 = path_graph(3), path_graph(2), complete_graph(3)
        every = frozenset((i, j) for i in range(2) for j in range(3))
        spec = PocketSpec(f, (0, 2), h1, h2, every)
        assert spec.cross is None
        assert spec == PocketSpec(f, (0, 2), h1, h2)
        # an empty H2 has exactly one cross set, the empty one
        assert PocketSpec(f, (1,), h1, empty_graph(0), frozenset()).cross is None

    def test_cross_is_stored_as_int_pairs(self):
        spec = PocketSpec(complete_graph(1), (0,), empty_graph(2), path_graph(2), [[1, 1], (0, 0)])
        assert spec.cross == frozenset({(0, 0), (1, 1)})

    @pytest.mark.parametrize(
        "hv,v", NON_JOIN_GADGETS + [(path_graph(3), 0), (complete_graph(4), 2)] + SEEDED_GADGETS
    )
    def test_grounded_laplacian_is_gadget_laplacian_without_v(self, hv, v):
        nv = sorted(hv.neighbors(v))
        rest = sorted(set(range(hv.order)) - set(nv) - {v})
        expected = laplacian(hv)[np.ix_(nv + rest, nv + rest)]
        np.testing.assert_array_equal(grounded_laplacian(*split_gadget(hv, v)), expected)

    @pytest.mark.parametrize("hv,v", NON_JOIN_GADGETS + SEEDED_GADGETS)
    @pytest.mark.parametrize("f,attach", [(path_graph(4), (2, 0)), (complete_graph(3), (1, 2, 0))])
    def test_build_glues_the_gadget_itself(self, hv, v, f, attach):
        g, layout = build_pocket_graph(gadget_spec(f, attach, hv, v))
        assert g == _glued_reference(f, attach, hv, v)
        assert g.size == f.size + len(attach) * hv.size
        assert layout.total == g.order and is_connected(g)

    def test_rejects_gadget_vertex_cut_off_from_v(self):
        with pytest.raises(ValueError, match="cannot reach v"):
            PocketSpec(complete_graph(1), (0,), complete_graph(1), complete_graph(1), frozenset())
        # H2 = {0, 1, 2}: the edge 0-1 is joined to H1, vertex 2 is on its own
        h2 = Graph(3, frozenset({(0, 1)}))
        with pytest.raises(ValueError, match="cannot reach v"):
            PocketSpec(complete_graph(1), (0,), complete_graph(2), h2, frozenset({(0, 0), (1, 1)}))

    @pytest.mark.parametrize("pair", [(0, 2), (2, 0), (-1, 0), (0, -1)])
    def test_rejects_cross_pair_out_of_range(self, pair):
        with pytest.raises(ValueError, match="outside H1 x H2"):
            PocketSpec(complete_graph(1), (0,), complete_graph(2), complete_graph(2),
                       frozenset({(0, 0), pair}))

    def test_v_without_neighbours_still_rejected(self):
        with pytest.raises(JoinStructureError, match="has no neighbours"):
            split_gadget(Graph(3, frozenset({(1, 2)})), 0)


class TestBuildMatchesPerVertexReference:
    def test_edge_shapes(self):
        shapes = [(s.k, s.l, s.m) for s in EDGE_SHAPE_SPECS]
        assert shapes[0][0] == 1 and shapes[1][1] == shapes[1][2]
        assert all(m - l >= 10 * k for k, l, m in shapes[2:])

    def test_equal_graph_and_layout(self):
        for spec in BUILD_SPECS:
            assert build_pocket_graph(spec) == _per_vertex_build(spec), spec

    def test_block_order_matches_locate_loop(self):
        for spec in BUILD_SPECS[:40] + NON_JOIN_SPECS + EDGE_SHAPE_SPECS:
            layout = make_layout(spec)
            np.testing.assert_array_equal(block_order(layout), _to_global_loop(layout))


class TestBlockLayout:
    @given(
        st.integers(1, 5),  # n
        st.integers(1, 3),  # l
        st.integers(0, 3),  # extra H2 order
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_bijection_round_trip(self, n, l, h2n, rnd):
        attach = list(range(n))
        rnd.shuffle(attach)
        k = rnd.randint(1, n)
        f = complete_graph(n)
        spec = PocketSpec(f, tuple(attach[:k]), empty_graph(l), empty_graph(h2n))
        layout = make_layout(spec)
        blocks, locals_, copies = layout.locate_all()
        seen = set()
        for g in range(layout.total):
            block, local, copy = layout.locate(g)
            assert global_index(layout, block, local, copy) == g
            assert (BLOCKS[blocks[g]], locals_[g], copies[g]) == (block, local, copy)
            seen.add(g)
        assert seen == set(range(layout.total))
        for g in (-1, layout.total):
            with pytest.raises(IndexError):
                layout.locate(g)

    def test_copy_varies_fastest(self):
        spec = PocketSpec(complete_graph(2), (0, 1), empty_graph(2))
        layout = make_layout(spec)
        assert global_index(layout, "H1", 0, 0) == 2
        assert global_index(layout, "H1", 0, 1) == 3
        assert global_index(layout, "H1", 1, 0) == 4


def _displayed_block_laplacian_thm3(spec):
    # the partitioned Laplacian of the all-pocketed construction
    n, l, m = spec.n, spec.l, spec.m
    lf = laplacian(spec.F)
    perm = np.asarray(make_layout(spec).f_order)
    lf = lf[np.ix_(perm, perm)]
    i_n = np.eye(n)
    blocks = [
        [
            lf + l * i_n,
            np.kron(-np.ones((1, l)), i_n),
            np.zeros((n, (m - l) * n)),
        ],
        [
            np.kron(-np.ones((l, 1)), i_n),
            np.kron(laplacian(spec.H1) + (m - l + 1) * np.eye(l), i_n),
            np.kron(-np.ones((l, m - l)), i_n),
        ],
        [
            np.zeros(((m - l) * n, n)),
            np.kron(-np.ones((m - l, l)), i_n),
            np.kron(laplacian(spec.H2) + l * np.eye(m - l), i_n),
        ],
    ]
    keep = [i for i, row in enumerate(blocks) if row[i].shape[0]]
    return np.block([[blocks[i][j] for j in keep] for i in keep])


class TestBlockForm:
    @pytest.mark.parametrize(
        "spec",
        [
            PocketSpec(complete_graph(1), (0,), complete_graph(1), complete_graph(1)),
            PocketSpec(complete_graph(2), (0, 1), complete_graph(1)),
            PocketSpec(path_graph(3), (2, 0, 1), complete_graph(2), path_graph(2)),
        ],
    )
    def test_permuted_laplacian_matches_displayed_blocks(self, spec):
        g, layout = build_pocket_graph(spec)
        lap = laplacian(g)
        perm = block_order(layout)
        lap_block = lap[np.ix_(perm, perm)]
        np.testing.assert_array_equal(lap_block, _displayed_block_laplacian_thm3(spec))

    def test_split_base_block_form(self):
        # F = F1 v F2, pockets on F1 only
        f1, f2 = complete_graph(2), empty_graph(2)
        h1, h2 = complete_graph(2), complete_graph(2)
        spec = PocketSpec(join(f1, f2), (0, 1), h1, h2)
        g, layout = build_pocket_graph(spec)
        lap = laplacian(g)
        perm = block_order(layout)
        lap_block = lap[np.ix_(perm, perm)]
        n, k, l, m = spec.n, spec.k, spec.l, spec.m
        i_k = np.eye(k)
        top_left = laplacian(f1) + (n - k + l) * np.eye(k)
        np.testing.assert_array_equal(lap_block[:k, :k], top_left)
        np.testing.assert_array_equal(
            lap_block[k:n, k:n], laplacian(f2) + k * np.eye(n - k)
        )
        np.testing.assert_array_equal(lap_block[:k, k:n], -np.ones((k, n - k)))
        np.testing.assert_array_equal(
            lap_block[n : n + l * k, n : n + l * k],
            np.kron(laplacian(h1) + (m - l + 1) * np.eye(l), i_k),
        )
        np.testing.assert_array_equal(lap_block[k:n, n:], 0.0)


class TestValidateJoinStructure:
    def test_end_vertex_of_path(self):
        hv = path_graph(3)  # v=0 end vertex: N(v)={1}, rest={2}
        h1, h2 = validate_join_structure(hv, 0)
        assert h1 == complete_graph(1)
        assert h2 == complete_graph(1)

    def test_k2(self):
        h1, h2 = validate_join_structure(complete_graph(2), 0)
        assert h1 == complete_graph(1)
        assert h2 == empty_graph(0)

    def test_center_of_path_degenerate(self):
        hv = path_graph(3)  # v=1 center: N(v)={0,2}, H2 empty
        h1, h2 = validate_join_structure(hv, 1)
        assert h1 == empty_graph(2)
        assert h2 == empty_graph(0)

    def test_violation_reports_witness(self):
        # star with extra pendant: v=0 center of K1,2 plus a path tail
        hv = Graph(4, frozenset([(0, 1), (1, 2), (2, 3)]))
        with pytest.raises(JoinStructureError) as exc:
            validate_join_structure(hv, 0)
        assert exc.value.witness is not None

    def test_pins_message_and_first_missing_pair(self):
        # N(v) = {1, 3} and rest = {2, 4}, both scanned in increasing id
        # order: (1, 4) and (3, 2) are missing, (1, 4) comes first
        hv = Graph(5, frozenset([(0, 1), (0, 3), (1, 2), (3, 4), (2, 4)]))
        with pytest.raises(JoinStructureError) as exc:
            validate_join_structure(hv, 0)
        assert str(exc.value) == "missing cross edge (1,4) between N(v) and the rest"
        assert exc.value.witness == (1, 4)

    def test_pins_isolated_vertex_and_range_errors(self):
        hv = Graph(3, frozenset([(1, 2)]))
        with pytest.raises(JoinStructureError) as exc:
            validate_join_structure(hv, 0)
        assert str(exc.value) == "specified vertex 0 has no neighbours"
        assert exc.value.witness is None
        with pytest.raises(IndexError, match=r"^vertex 3 out of range$"):
            validate_join_structure(hv, 3)

    def test_round_trip_on_built_gadget(self):
        spec = PocketSpec(complete_graph(1), (0,), path_graph(2), complete_graph(3))
        # H_v = H1 v (H2 + {v}), with v last
        hv = join(spec.H1, Graph(spec.H2.order + 1, spec.H2.edges))
        assert degree(hv, spec.m) == spec.l
        h1, h2 = validate_join_structure(hv, spec.m)
        assert h1 == spec.H1
        assert h2 == spec.H2


class TestSerialization:
    def test_parse_edge_list(self):
        g = parse_edge_list("3 2\n0 1\n1 2\n")
        assert g == path_graph(3)

    def test_edge_list_round_trip(self):
        g = complete_graph(4)
        assert parse_edge_list(to_edge_list(g)) == g

    def test_json_round_trip(self):
        g = path_graph(5)
        assert graph_from_json(graph_to_json(g)) == g

    def test_bad_header(self):
        with pytest.raises(GraphFormatError):
            parse_edge_list("3\n")

    def test_wrong_edge_count(self):
        with pytest.raises(GraphFormatError):
            parse_edge_list("3 2\n0 1\n")


# ---------------------------------------------------------------------------
# The canonical edge array against the per-edge semantics it replaced.

def _per_edge_reference(order, pairs):
    """The edge set one pair at a time: ends normalized to u < v, duplicates
    merged; GraphFormatError for a self-loop or an end out of range."""
    edges = set()
    for u, v in pairs:
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}")
        if not (0 <= u < order and 0 <= v < order):
            raise GraphFormatError(f"edge ({u},{v}) outside [0,{order})")
        edges.add(_normalize_edge(u, v))
    return frozenset(edges)


def _reference_edge_list(order, edges):
    lines = [f"{order} {len(edges)}"] + [f"{u} {v}" for u, v in sorted(edges)]
    return "\n".join(lines) + "\n"


def _reference_json(order, edges):
    return json.dumps({"order": order, "edges": sorted(map(list, edges))})


@st.composite
def _orders_and_pairs(draw):
    """An order and a list of pairs, mostly valid and often repeated, with
    sometimes one pair inserted that may be a self-loop or out of range."""
    order = draw(st.integers(0, 9))
    end = st.integers(0, max(order - 1, 0))
    pairs = draw(st.lists(st.tuples(end, end).filter(lambda p: p[0] != p[1]), max_size=30)) if order > 1 else []
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=10)) if pairs else []
    if draw(st.booleans()):
        wide = st.integers(-2, order + 1)
        pairs.insert(draw(st.integers(0, len(pairs))), (draw(wide), draw(wide)))
    return order, pairs


@st.composite
def _keyed_pairs(draw):
    """An order up to 2*10^4, sometimes 0 or 1, and pairs u != v of it,
    with repeated and reversed copies among them, in any order."""
    order = draw(st.sampled_from([0, 1]) | st.integers(2, 20_000))
    if order < 2:
        return order, []
    step = st.tuples(st.integers(0, order - 1), st.integers(1, order - 1))
    pairs = draw(st.lists(step.map(lambda t: (t[0], (t[0] + t[1]) % order)), max_size=40))
    if pairs:
        again = draw(st.lists(st.tuples(st.sampled_from(pairs), st.booleans()), max_size=20))
        pairs += [p[::-1] if flip else p for p, flip in again]
    return order, draw(st.permutations(pairs))


class TestCanonicalEdgeArray:
    @given(_keyed_pairs())
    @example((0, []))
    @example((1, []))
    @example((20_000, [(19_999, 0), (0, 19_999), (5, 4), (4, 5), (4, 5)]))
    @settings(max_examples=300, deadline=None)
    def test_sorted_dedup_matches_np_unique(self, order_and_pairs):
        order, pairs = order_and_pairs
        given_as = np.array(pairs, dtype=np.intp).reshape(-1, 2)
        lo, hi = given_as.min(axis=1), given_as.max(axis=1)
        expected = np.stack(np.divmod(np.unique(lo * order + hi), max(order, 1)), axis=1)
        a = Graph(order, pairs).array
        assert a.dtype == expected.dtype and a.shape == expected.shape
        assert np.array_equal(a, expected)

    @given(_orders_and_pairs())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_edge_reference(self, order_and_pairs):
        order, pairs = order_and_pairs
        try:
            expected = _per_edge_reference(order, pairs)
        except GraphFormatError:
            for given_as in (pairs, np.array(pairs, dtype=np.int64).reshape(-1, 2)):
                with pytest.raises(GraphFormatError):
                    Graph(order, given_as)
            return
        g = Graph(order, pairs)
        assert g.edges == expected and g.size == len(expected)
        # an iterable and an integer array give one graph, with one hash
        from_array = Graph(order, np.array(pairs, dtype=np.int32).reshape(-1, 2))
        assert from_array == g and hash(from_array) == hash(g)
        a = g.array
        assert a.dtype == np.intp and a.shape == (len(expected), 2)
        assert a.tolist() == sorted(map(list, expected))  # sorted, hence unique
        assert (a[:, 0] < a[:, 1]).all()
        assert not a.flags.writeable
        assert g.edges == frozenset(map(tuple, a.tolist()))
        assert to_edge_list(g) == _reference_edge_list(order, expected)
        assert graph_to_json(g) == _reference_json(order, expected)

    def test_array_cannot_be_written(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            g.array[0, 0] = 2
        with pytest.raises(AttributeError):
            g.order = 4

    def test_caller_array_is_left_writeable(self):
        pairs = np.array([[1, 0], [1, 2]])
        Graph(3, pairs)
        assert pairs.flags.writeable and pairs.tolist() == [[1, 0], [1, 2]]

    def test_graphs_key_sets_and_specs(self):
        assert len({path_graph(3), Graph(3, [(2, 1), (0, 1)]), complete_graph(3)}) == 2
        spec = PocketSpec(path_graph(3), (0, 2), complete_graph(2))
        assert spec == PocketSpec(Graph(3, [(1, 2), (1, 0)]), (0, 2), Graph(2, [(1, 0)]))


class TestHostileInput:
    """Malformed vertex ids, orders and rows fail as GraphFormatError (a
    ValueError), never as another exception or a silent truncation."""

    @pytest.mark.parametrize(
        "order,edges",
        [
            (3, [(0.5, 1), (1, 2)]),
            (3, np.array([[0.0, 1.0]])),
            (3, [("0", "1")]),
            (3, [(0, 10**30)]),
            # numpy reads a bool beside an integer as 1 or 0, so rows like
            # these were taken as edges such as (0, 1)
            (2, [(0, True)]),
            (3, [(np.True_, 2)]),
            (3, [(0, 1), (1, False)]),
            (3, {(0, np.False_)}),
            (3, [np.array([0, 1]), np.array([True, False])]),
            (2, np.array([[False, True]])),
        ],
        ids=["float-end", "float-array", "string-end", "end-beyond-int64", "True-end", "np.True_-end",
             "False-in-later-row", "np.False_-in-set", "bool-array-row", "bool-array"],
    )
    def test_non_integer_end(self, order, edges):
        with pytest.raises(GraphFormatError, match="integer"):
            Graph(order, edges)

    def test_bool_cross_pair(self):
        with pytest.raises(GraphFormatError, match="got a bool"):
            PocketSpec(complete_graph(2), (0,), complete_graph(2), complete_graph(2), {(0, True)})

    @pytest.mark.parametrize("order", [2.7, 3.0, "3", None, 2**40, True, False], ids=repr)
    def test_non_integer_order(self, order):
        with pytest.raises(GraphFormatError, match="order must be an integer"):
            Graph(order, [(0, 1)])

    @pytest.mark.parametrize(
        "edges",
        [[(0, 1, 2)], [(0, 1), (1,)], [()], np.arange(6), 5],
        ids=["triple", "ragged", "empty-row", "flat-array", "scalar"],
    )
    def test_non_pair_rows(self, edges):
        with pytest.raises(GraphFormatError):
            Graph(3, edges)

    def test_non_integer_json_order_is_not_truncated(self):
        with pytest.raises(GraphFormatError, match="2.7"):
            graph_from_json('{"order": 2.7, "edges": [[0, 1]]}')

    def test_non_integer_json_end(self):
        with pytest.raises(GraphFormatError, match="integer"):
            graph_from_json('{"order": 3, "edges": [[0.5, 1], [1, 2]]}')

    def test_bool_json_order(self):
        # true is not read as the order 1
        with pytest.raises(GraphFormatError, match="order must be an integer"):
            graph_from_json('{"order": true, "edges": []}')

    @pytest.mark.parametrize("edges", ["[[0, true]]", "[[false, 1]]", "[[0, 1], [1, true]]"])
    def test_bool_json_end(self, edges):
        # numpy would read a row that mixes true with an integer as (0, 1)
        with pytest.raises(GraphFormatError, match="true or false"):
            graph_from_json(f'{{"order": 3, "edges": {edges}}}')

    def test_non_integer_cross_pair(self):
        with pytest.raises(ValueError, match="integer"):
            PocketSpec(complete_graph(2), (0,), complete_graph(2), complete_graph(2), {(0.7, 0), (1, 1.9)})

    def test_non_pair_cross_row(self):
        with pytest.raises(ValueError, match="pairs"):
            PocketSpec(complete_graph(2), (0,), complete_graph(2), complete_graph(2), {(0, 1, 1)})


# ---------------------------------------------------------------------------
# Seeded draws: the one-call generators against the per-pair loops they
# replaced, so that a seeded sweep never drifts.

def _per_pair_random_graph(rng, order):
    return frozenset(
        (i, j) for i in range(order) for j in range(i + 1, order) if rng.random() < EDGE_PROBABILITY
    )


def _per_pair_connected_graph(rng, order):
    edges = set(_per_pair_random_graph(rng, order))
    if is_connected(Graph(order, edges)):
        return frozenset(edges)
    for v in range(1, order):
        edges.add((int(rng.integers(0, v)), v))
    return frozenset(edges)


class TestSeededDraws:
    @pytest.mark.parametrize("seed", [0, 3, 17, 20240913])
    @pytest.mark.parametrize(
        "draw,reference",
        [(random_graph, _per_pair_random_graph), (random_connected_graph, _per_pair_connected_graph)],
        ids=["random_graph", "random_connected_graph"],
    )
    def test_same_edges_and_next_draw_as_per_pair_loop(self, seed, draw, reference):
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        for order in [0, 1, 2, 3, 5, 8, 9, 13, 4, 1, 21]:
            assert draw(fast, order).edges == reference(slow, order)
            assert fast.bit_generator.state == slow.bit_generator.state
            assert fast.random() == slow.random()
