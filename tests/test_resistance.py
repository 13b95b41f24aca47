import itertools
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import output_snapshot
from pocket_kirch import (
    DisconnectedGraphError,
    Graph,
    JoinStructureError,
    PocketResistance,
    PocketSpec,
    build_pocket_graph,
    check_metric,
    complete_graph,
    eigenvalues_sym,
    empty_graph,
    kirchhoff_from_one_inverse,
    kirchhoff_spectral,
    join,
    laplacian,
    oracle_one_inverse,
    oracle_resistance,
    path_graph,
    pseudo_inverse_laplacian,
    resistance_matrix,
    split_base_join,
    split_gadget,
    structured_one_inverse,
)
from pocket_kirch import resistance
from pocket_kirch.linalg import release_output_buffer
from pocket_kirch.resistance import _square, pair_blocks, pair_resistances
from pocket_kirch.sweep import builtin_fixtures, random_connected_graph, random_graph, random_spec, random_specs


def re_shape(x):
    """The shape as the error message prints it, escaped for ``match``."""
    return re.escape(str(x.shape))


def resistance_from_one_inverse(x: np.ndarray, u: int, v: int) -> float:
    """Reference for one pair: r_uv = X_uu + X_vv - X_uv - X_vu, in
    ``pair_resistances``' operand order; IndexError unless 0 <= u, v < n."""
    x = _square(x)
    n = x.shape[0]
    if not (0 <= u < n and 0 <= v < n):
        raise IndexError(f"vertex pair ({u},{v}) out of range for order {n}")
    return float(x[u, u] + x[v, v] - x[u, v] - x[v, u])


N_P3 = np.array([[0.0, 0, 0], [0, 1, 1], [0, 1, 2]])
NOT_SQUARE = [np.ones((4, 3)), np.ones((3, 4)), np.ones(3), np.ones((2, 2, 2))]
NOT_SQUARE_IDS = ["4x3", "3x4", "1-D", "3-D"]


def _pocket_graph_1000():
    # the shape of the benchmark's dense-oracle instances, N = 40 + 24 * 40
    spec = PocketSpec(complete_graph(40), tuple(range(40)), path_graph(4), path_graph(20))
    g, _ = build_pocket_graph(spec)
    assert g.order == 1000
    return g


class TestResistanceFromOneInverse:
    def test_same_vertex(self):
        assert resistance_from_one_inverse(N_P3, 1, 1) == 0.0

    def test_p3_ends(self):
        assert resistance_from_one_inverse(N_P3, 0, 2) == 2.0

    def test_k2(self):
        x = pseudo_inverse_laplacian(laplacian(complete_graph(2)))
        assert resistance_from_one_inverse(x, 0, 1) == pytest.approx(1.0)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            resistance_from_one_inverse(N_P3, 0, 3)

    @pytest.mark.parametrize("u,v", [(-1, 0), (0, -1), (-3, 2)])
    def test_negative_index_rejected(self, u, v):
        # numpy would wrap a negative index round to the last rows
        with pytest.raises(IndexError, match=r"out of range for order 3"):
            resistance_from_one_inverse(N_P3, u, v)

    @pytest.mark.parametrize("x", NOT_SQUARE, ids=NOT_SQUARE_IDS)
    def test_not_square_rejected(self, x):
        # a 2x3 input once gave 0.0 for (0, 1) and a 3-D one a TypeError
        with pytest.raises(ValueError, match=r"square 2-D matrix, got shape " + re_shape(x)):
            resistance_from_one_inverse(x, 0, 1)


def _square_matrices():
    """Square float matrices of order 2..6, any doubles, not symmetric."""
    return st.integers(2, 6).flatmap(
        lambda n: arrays(np.float64, (n, n), elements=st.floats(width=64))
    )


class TestPairResistances:
    @settings(max_examples=200, deadline=None)
    @given(_square_matrices(), st.data())
    def test_equals_resistance_matrix_bit_for_bit(self, x, data):
        n = x.shape[0]
        pairs = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1]),
            min_size=1, max_size=12,
        ))
        u, v = (np.array(side) for side in zip(*pairs))
        with np.errstate(all="ignore"):  # infinities and overflow are drawn too
            got = pair_resistances(x, u, v)
            want = resistance_matrix(x)[u, v]
            one = np.array([resistance_from_one_inverse(x, a, b) for a, b in pairs])
        nan = np.isnan(want)
        for read in (got, one):
            np.testing.assert_array_equal(np.isnan(read), nan)
            np.testing.assert_array_equal(read[~nan].view(np.uint64), want[~nan].view(np.uint64))

    def test_pair_blocks_walk_the_upper_triangle_in_row_major_order(self, monkeypatch):
        monkeypatch.setattr(resistance, "_BLOCK", 7)  # blocks end inside rows
        for n in range(0, 13):
            blocks = list(pair_blocks(n))
            assert all(len(u) == 7 for u, _ in blocks[:-1])
            u = np.concatenate([u for u, _ in blocks]) if blocks else np.zeros(0)
            v = np.concatenate([v for _, v in blocks]) if blocks else np.zeros(0)
            iu, iv = np.triu_indices(n, 1)
            np.testing.assert_array_equal(u, iu)
            np.testing.assert_array_equal(v, iv)


def _non_join_gadget_specs(count=8, seed=17):
    """Seeded specs with a rooted gadget that is not H1 v (H2 + {v}), on
    k < n bases, so F is mostly not a join F1 v F2 either."""
    rng = np.random.default_rng(seed)
    specs = []
    while len(specs) < count:
        n = int(rng.integers(3, 8))
        f = random_connected_graph(rng, n)
        attach = tuple(int(x) for x in rng.permutation(n)[: int(rng.integers(1, n))])
        hv = random_connected_graph(rng, int(rng.integers(3, 8)))
        spec = PocketSpec(f, attach, *split_gadget(hv, int(rng.integers(0, hv.order))))
        if spec.cross is not None:
            specs.append(spec)
    return specs


def _order_300_spec():
    """The order-300 instance of ``resist``'s tests: 20 + 14 * 20."""
    f, h1, h2 = output_snapshot._order_300()
    return PocketSpec(f, tuple(range(f.order)), h1, h2)


def _is_join(spec) -> bool:
    try:
        split_base_join(spec)
    except JoinStructureError:
        return False
    return True


POCKET_CASES = (
    [(label, spec) for label, spec in builtin_fixtures()]
    + [(f"sweep-{i}", spec) for i, spec in enumerate(random_specs(40, seed=20240913))]
    + [(f"non-join-gadget-{i}", spec) for i, spec in enumerate(_non_join_gadget_specs())]
    + [("order-300", _order_300_spec())]
)


class TestPocketResistance:
    """r and Kf from the two small factors, against the dense structured X."""

    def test_cases_cover_non_join_specs(self):
        specs = [spec for _, spec in POCKET_CASES]
        assert sum(s.cross is not None for s in specs) >= 8
        assert sum(s.k < s.n and not _is_join(s) for s in specs) >= 4

    @pytest.mark.parametrize("label,spec", POCKET_CASES, ids=[label for label, _ in POCKET_CASES])
    def test_pairs_bit_identical_to_dense_x(self, label, spec):
        # the structured result is itself a PocketResistance over its matrix
        s = structured_one_inverse(spec)
        x = s.matrix
        # every ordered pair, the diagonal included
        u, v = (a.ravel() for a in np.indices(x.shape))
        want = pair_resistances(x, u, v)
        for pr in (PocketResistance(spec), s):
            assert pr.order == x.shape[0] == spec.n + spec.m * spec.k
            got = pr.pair_resistances(u, v)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
            np.testing.assert_array_equal(got[u == v], 0.0)

    @pytest.mark.parametrize("label,spec", POCKET_CASES, ids=[label for label, _ in POCKET_CASES])
    def test_kirchhoff_matches_dense_x(self, label, spec):
        kf = PocketResistance(spec).kirchhoff()
        dense = kirchhoff_from_one_inverse(structured_one_inverse(spec).matrix)
        assert kf.method == "structured"
        assert abs(kf.value - dense.value) <= 1e-13 * dense.value

    def test_resistance_one_pair(self):
        spec = _order_300_spec()
        pr = PocketResistance(spec)
        x = structured_one_inverse(spec).matrix
        for a, b in [(0, 1), (5, 299), (299, 5), (150, 170), (21, 41), (7, 7)]:
            want = pair_resistances(x, np.array([a]), np.array([b]))[0]
            assert pr.resistance(a, b) == want
            assert type(pr.resistance(np.int64(a), b)) is float

    @pytest.mark.parametrize("u,v", [(0, 300), (300, 0), (-1, 0), (0, -1), (10**9, 1)])
    def test_resistance_out_of_range(self, u, v):
        # numpy's take would wrap a negative index round to the last vertex
        with pytest.raises(IndexError, match=r"out of range for order 300"):
            PocketResistance(_order_300_spec()).resistance(u, v)

    def test_constructor_holds_only_the_factors(self, traced_peak):
        # the O(N) maps p and h, the padded D^-1 and diag X wait for the
        # first pair read; at N = 90,300 they take about 4 MB
        spec = PocketSpec(path_graph(300), tuple(range(300)), path_graph(1), path_graph(299))
        pr, peak = traced_peak(PocketResistance, spec)
        assert pr.order == 90_300
        assert peak <= pr.base_sharp.nbytes + pr.d_inv.nbytes + 1e6

    def test_holds_no_n_by_n_array(self, traced_peak):
        spec = PocketSpec(complete_graph(40), tuple(range(40)), path_graph(4), path_graph(20))
        pr, peak = traced_peak(PocketResistance, spec)
        assert pr.order == 1000
        assert peak <= 8 * pr.order**2 / 50


def _fsum_kirchhoff(x):
    """n tr(X) - 1^T X 1 with both sums correctly rounded (math.fsum)."""
    n = x.shape[0]
    total = math.fsum(itertools.chain.from_iterable(row.tolist() for row in x))
    return n * math.fsum(np.diag(x).tolist()) - total


@pytest.fixture(scope="module")
def p30_pockets():
    """F = P30 with a K1 + K80 pocket on every vertex (N = 2460): its
    structured and oracle {1}-inverses."""
    spec = PocketSpec(path_graph(30), tuple(range(30)), complete_graph(1), complete_graph(80))
    g, _ = build_pocket_graph(spec)
    assert g.order == 2460
    structured = structured_one_inverse(spec).matrix.copy()
    oracle = pseudo_inverse_laplacian(laplacian(g))
    return {"structured": structured, "oracle": oracle}


class TestResistanceMatrix:
    def test_p3(self):
        np.testing.assert_allclose(
            resistance_matrix(N_P3), [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
        )

    def test_k3_uniform(self):
        x = pseudo_inverse_laplacian(laplacian(complete_graph(3)))
        r = resistance_matrix(x)
        off = r[~np.eye(3, dtype=bool)]
        np.testing.assert_allclose(off, 2 / 3)

    def test_order_one(self):
        np.testing.assert_array_equal(resistance_matrix(np.zeros((1, 1))), [[0.0]])

    @pytest.mark.parametrize("x", NOT_SQUARE, ids=NOT_SQUARE_IDS)
    def test_not_square_rejected(self, x):
        with pytest.raises(ValueError, match=r"square 2-D matrix, got shape " + re_shape(x)):
            resistance_matrix(x)


class TestKirchhoff:
    def test_p3_from_one_inverse(self):
        assert kirchhoff_from_one_inverse(N_P3).value == pytest.approx(4.0)

    def test_k2(self):
        x = pseudo_inverse_laplacian(laplacian(complete_graph(2)))
        assert kirchhoff_from_one_inverse(x).value == pytest.approx(1.0)

    def test_k1(self):
        assert kirchhoff_from_one_inverse(np.zeros((1, 1))).value == 0.0

    def test_equals_pair_sum(self):
        r = resistance_matrix(N_P3)
        kf = kirchhoff_from_one_inverse(N_P3).value
        assert abs(kf - r[np.triu_indices(3, 1)].sum()) <= 1e-8

    def test_order_zero(self):
        assert kirchhoff_from_one_inverse(np.zeros((0, 0))).value == 0.0

    @pytest.mark.parametrize("x", NOT_SQUARE, ids=NOT_SQUARE_IDS)
    def test_not_square_rejected(self, x):
        # a 4x3 input once gave Kf = 0.0 and a 3x4 one "negative Kirchhoff index"
        with pytest.raises(ValueError, match=r"square 2-D matrix, got shape " + re_shape(x)):
            kirchhoff_from_one_inverse(x)


class TestKirchhoffAccuracy:
    """1^T X 1 by one matrix-vector pass, against correctly rounded sums."""

    @pytest.mark.parametrize("route", ["structured", "oracle"])
    def test_p30_pockets(self, p30_pockets, route):
        x = p30_pockets[route]
        expected = _fsum_kirchhoff(x)
        assert abs(kirchhoff_from_one_inverse(x).value - expected) <= 1e-13 * expected

    def test_fortran_order(self, p30_pockets):
        x = np.asfortranarray(p30_pockets["structured"])
        expected = _fsum_kirchhoff(x)
        assert abs(kirchhoff_from_one_inverse(x).value - expected) <= 1e-13 * expected

    def test_non_symmetric_one_inverse(self, p30_pockets):
        # X + 1 a^T + b 1^T is another {1}-inverse (L 1 = 0) with the same Kf
        x = p30_pockets["structured"]
        n = x.shape[0]
        rng = np.random.default_rng(3)
        x = x + np.add.outer(rng.standard_normal(n), rng.standard_normal(n))
        assert np.abs(x - x.T).max() > 1.0
        expected = _fsum_kirchhoff(x)
        assert abs(kirchhoff_from_one_inverse(x).value - expected) <= 1e-13 * expected
        kf_symmetric = _fsum_kirchhoff(p30_pockets["structured"])
        assert abs(expected - kf_symmetric) <= 1e-11 * kf_symmetric


class TestKirchhoffSpectral:
    def test_k2(self):
        assert kirchhoff_spectral([0.0, 2.0], 2).value == pytest.approx(1.0)

    def test_p3(self):
        assert kirchhoff_spectral([0.0, 1.0, 3.0], 3).value == pytest.approx(4.0)

    def test_k3(self):
        assert kirchhoff_spectral([0.0, 3.0, 3.0], 3).value == pytest.approx(2.0)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            kirchhoff_spectral([0.0, 0.0, 2.0], 3)

    @pytest.mark.parametrize("g", [path_graph(4), complete_graph(5)])
    def test_matches_group_inverse_route(self, g):
        lap = laplacian(g)
        kf_spec = kirchhoff_spectral(eigenvalues_sym(lap), g.order).value
        kf_one = kirchhoff_from_one_inverse(pseudo_inverse_laplacian(lap)).value
        assert abs(kf_spec - kf_one) <= 1e-8


class TestOracle:
    def test_p4(self):
        r, kf = oracle_resistance(path_graph(4))
        assert kf.value == pytest.approx(10.0)
        assert r[0, 3] == pytest.approx(3.0)

    def test_k2(self):
        _, kf = oracle_resistance(complete_graph(2))
        assert kf.value == pytest.approx(1.0)

    def test_star(self):
        star = Graph(4, frozenset([(0, 1), (0, 2), (0, 3)]))
        r, kf = oracle_resistance(star)
        assert kf.value == pytest.approx(9.0)
        assert r[1, 2] == pytest.approx(2.0)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            oracle_resistance(empty_graph(2))

    def test_one_invert_call(self, monkeypatch):
        # one dense inverse per request, by the in-place Cholesky kernel
        from pocket_kirch import linalg

        calls = []
        kernel = linalg._cholesky_invert

        def counting(mat):
            calls.append(mat.shape[0])
            return kernel(mat)

        monkeypatch.setattr(linalg, "_cholesky_invert", counting)
        oracle_resistance(path_graph(7))
        assert calls == [7]

    def test_peak_memory(self, traced_peak):
        # a loose bound; test_peak_memory_is_one_dense_array is the tight one
        g = _pocket_graph_1000()
        n = g.order
        release_output_buffer()  # measure a call that allocates L(G)
        _, peak = traced_peak(oracle_resistance, g)
        assert peak <= 4.25 * 8 * n * n

    def test_peak_memory_is_two_dense_arrays(self, traced_peak):
        # a loose bound; test_peak_memory_is_one_dense_array is the tight one
        g = _pocket_graph_1000()
        n = g.order
        release_output_buffer()
        _, peak = traced_peak(oracle_resistance, g)
        assert peak <= 2.5 * 8 * n * n

    def test_peak_memory_is_one_dense_array(self, traced_peak):
        # L(G) is shifted, inverted and turned into r in place
        g = _pocket_graph_1000()
        n = g.order
        release_output_buffer()
        _, peak = traced_peak(oracle_resistance, g)
        assert peak <= 1.25 * 8 * n * n

    def test_argument_holding_wrappers_leave_one_dense_array(self, monkeypatch, traced_peak):
        # wrappers that keep their arguments, bound under every name for
        # invert and pseudo_inverse_laplacian in every module, as a tracer
        # installs them, leave the route, its peak and its bits unchanged
        from pocket_kirch import linalg

        g = _pocket_graph_1000()
        n = g.order
        r_bare, kf_bare = oracle_resistance(g)
        held, bound = [], []
        modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "pocket_kirch"]
        for fn in (linalg.invert, linalg.pseudo_inverse_laplacian):
            def holding(*args, _fn=fn):
                held.append(args)
                return _fn(*args)

            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, holding)
                        bound.append(attr)
        assert {"invert", "pseudo_inverse_laplacian"} <= set(bound)
        release_output_buffer()
        (r, kf), peak = traced_peak(oracle_resistance, g)
        assert peak <= 1.25 * 8 * n * n
        assert np.array_equal(r, r_bare)
        assert kf == kf_bare

    @pytest.mark.parametrize("order", [0, 1, 2, 63, 64, 65, 130])
    def test_bit_identical_to_resistance_matrix(self, order):
        # orders on both sides of the row blocks r is written in
        g = random_connected_graph(np.random.default_rng(order), order)
        x = pseudo_inverse_laplacian(laplacian(g))
        r, kf = oracle_resistance(g)
        assert np.array_equal(r, resistance_matrix(x))
        assert kf == kirchhoff_from_one_inverse(x, method="oracle")

    @given(st.integers(0, 2**32 - 1), st.integers(1, 150))
    @settings(max_examples=30, deadline=None)
    def test_bit_identical_to_resistance_matrix_sweep(self, seed, order):
        g = random_connected_graph(np.random.default_rng(seed), order)
        lap = laplacian(g)
        x = pseudo_inverse_laplacian(lap)
        r, kf = oracle_resistance(g)
        assert np.array_equal(r, resistance_matrix(x))
        assert kf == kirchhoff_from_one_inverse(x, method="oracle")

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_its_parts(self, seed):
        rng = np.random.default_rng(seed)
        spec = random_spec(rng)
        for g in (random_connected_graph(rng, int(rng.integers(2, 40))), build_pocket_graph(spec)[0]):
            x = pseudo_inverse_laplacian(laplacian(g))
            r, kf = oracle_resistance(g)
            assert np.array_equal(r, resistance_matrix(x))
            assert kf == kirchhoff_from_one_inverse(x, method="oracle")

    def test_all_ones_annihilated_so_trace_suffices(self):
        g = path_graph(5)
        x = pseudo_inverse_laplacian(laplacian(g))
        kf = kirchhoff_from_one_inverse(x).value
        assert abs(g.order * np.trace(x) - kf) <= 1e-8


def _oracle_dense_specs():
    """Specs of the benchmark's dense-oracle shapes, N = 1000, 1000, 1200:
    every vertex of F pocketed for (n, l, m) = (40, 4, 24) and (48, 4, 24),
    and F = F1 v F2 with pockets on F1 for (k, n - k, l, m) = (30, 10, 4, 32)."""
    rng = np.random.default_rng(951)
    specs = []
    for n, l, m in [(40, 4, 24), (48, 4, 24)]:
        f = random_connected_graph(rng, n)
        specs.append(PocketSpec(f, tuple(range(n)), random_graph(rng, l), random_graph(rng, m - l)))
    f = join(random_graph(rng, 30), random_graph(rng, 10))
    specs.insert(1, PocketSpec(f, tuple(range(30)), random_graph(rng, 4), random_graph(rng, 28)))
    assert [s.n + s.m * s.k for s in specs] == [1000, 1000, 1200]
    return specs


ORACLE_SPECS = [s for _, s in builtin_fixtures()] + _oracle_dense_specs()
ORACLE_IDS = [label for label, _ in builtin_fixtures()] + ["dense-1000", "dense-split-1000", "dense-1200"]


class TestOracleOneInverse:
    """``oracle_one_inverse(g)`` is the one builder of the oracle's X."""

    @pytest.mark.parametrize("spec", ORACLE_SPECS, ids=ORACLE_IDS)
    def test_equals_the_copying_route(self, spec):
        g, _ = build_pocket_graph(spec)
        x = pseudo_inverse_laplacian(laplacian(g))
        assert np.array_equal(oracle_one_inverse(g), x)
        r, kf = oracle_resistance(g)
        assert np.array_equal(r, resistance_matrix(x))
        assert kf == kirchhoff_from_one_inverse(x, method="oracle")

    @pytest.mark.parametrize("g", [empty_graph(2), Graph(4, frozenset([(0, 1), (2, 3)]))],
                             ids=["edgeless", "two-components"])
    def test_disconnected_rejected(self, g):
        with pytest.raises(DisconnectedGraphError, match="connected graph"):
            oracle_one_inverse(g)

    @pytest.mark.parametrize("order", [0, 1])
    def test_trivial_orders(self, order):
        assert np.array_equal(oracle_one_inverse(empty_graph(order)), np.zeros((order, order)))


class TestSharedOutputBuffer:
    """The oracle's L(G) and X, and the structured X, are written into one
    kept N x N array; a result still referred to is never written again."""

    def test_held_results_survive_later_calls(self):
        # every later call is of an order the kept array could serve
        release_output_buffer()
        spec = random_spec(np.random.default_rng(25))
        g, _ = build_pocket_graph(spec)
        x = oracle_one_inverse(g)
        held = [x, oracle_resistance(g)[0], oracle_one_inverse(g)[1:, 1:]]
        kept = [a.copy() for a in held]
        later = [oracle_one_inverse(path_graph(g.order)), structured_one_inverse(spec).matrix,
                 oracle_resistance(path_graph(g.order - 1))[0]]
        for a, before in zip(held, kept):
            assert np.array_equal(a, before)
            assert not any(np.shares_memory(a, b) for b in later)
        want = pseudo_inverse_laplacian(laplacian(g))
        assert np.array_equal(x, want)
        assert np.array_equal(held[1], resistance_matrix(want))

    @pytest.mark.parametrize("base", [40, 30], ids=["order-1000", "order-750"])
    def test_dropped_result_memory_is_reused(self, base, traced_peak):
        # after the order-1000 result is dropped, L(G) of an order up to
        # 1000 is written into its memory instead of a new array
        release_output_buffer()
        first, _ = oracle_resistance(_pocket_graph_1000())
        del first
        spec = PocketSpec(complete_graph(base), tuple(range(base)), path_graph(4), path_graph(20))
        g, _ = build_pocket_graph(spec)
        (r, kf), peak = traced_peak(oracle_resistance, g)
        assert peak <= 0.25 * 8 * g.order**2
        x = pseudo_inverse_laplacian(laplacian(g))
        assert np.array_equal(r, resistance_matrix(x))
        assert kf == kirchhoff_from_one_inverse(x, method="oracle")


class TestOutputBufferSize:
    """A dense call that must allocate takes exactly the order it asks for."""

    def _pocket_graph_750(self):
        spec = PocketSpec(complete_graph(30), tuple(range(30)), path_graph(4), path_graph(20))
        g, _ = build_pocket_graph(spec)
        assert g.order == 750
        return g

    @pytest.mark.parametrize("route", ["oracle", "structured"])
    def test_first_result_after_release_is_exact(self, route):
        release_output_buffer()
        spec = random_spec(np.random.default_rng(26))
        if route == "oracle":
            x = oracle_one_inverse(build_pocket_graph(spec)[0])
        else:
            x = structured_one_inverse(spec).matrix
        assert x.base.size == x.size

    def test_held_result_survives_a_larger_call(self):
        # the kept order-750 array is held, so the order-1000 call
        # allocates a new one of exactly its order and writes nothing old
        release_output_buffer()
        small = self._pocket_graph_750()
        held = oracle_one_inverse(small)
        kept = held.copy()
        large = oracle_one_inverse(_pocket_graph_1000())
        assert large.base.size == large.size == 1000**2
        assert not np.shares_memory(held, large)
        assert np.array_equal(held, kept)
        assert np.array_equal(held, pseudo_inverse_laplacian(laplacian(small)))


class TestMetricProperties:
    @pytest.mark.parametrize("g", [path_graph(5), complete_graph(4), Graph(4, frozenset([(0, 1), (0, 2), (0, 3)]))])
    def test_oracle_matrices_are_metrics(self, g):
        r, _ = oracle_resistance(g)
        check_metric(r, 1e-9)

    def test_violations_detected(self):
        bad = np.array([[0.0, 5.0], [5.0, 0.1]])
        with pytest.raises(ValueError, match="diagonal"):
            check_metric(bad)
        with pytest.raises(ValueError, match="triangle"):
            check_metric(np.array([
                [0.0, 1.0, 5.0],
                [1.0, 0.0, 1.0],
                [5.0, 1.0, 0.0],
            ]))

    def test_violation_through_last_middle_vertex_detected(self):
        # vertices 0..n-2 pairwise at 2, the last at 0.5 from each: only the
        # last vertex as the middle one breaks r_uw <= r_uv + r_vw
        n = 40
        r = 2.0 * (np.ones((n, n)) - np.eye(n))
        r[-1, :-1] = r[:-1, -1] = 0.5
        with pytest.raises(ValueError, match="triangle inequality violated"):
            check_metric(r)
        r[-1, :-1] = r[:-1, -1] = 1.0  # now r_uw = r_uv + r_vw exactly
        check_metric(r)

    def test_triangle_check_peak_memory(self, traced_peak):
        n = 300
        r = np.ones((n, n)) - np.eye(n)
        _, peak = traced_peak(check_metric, r)
        assert peak <= 16 * 8 * n * n
