import tracemalloc

import numpy as np
import pytest

from pocket_kirch import (
    DisconnectedGraphError,
    Graph,
    PocketSpec,
    build_pocket_graph,
    check_metric,
    complete_graph,
    eigenvalues_sym,
    empty_graph,
    kirchhoff_from_one_inverse,
    kirchhoff_spectral,
    laplacian,
    oracle_resistance,
    path_graph,
    pseudo_inverse_laplacian,
    resistance_from_one_inverse,
    resistance_matrix,
)

N_P3 = np.array([[0.0, 0, 0], [0, 1, 1], [0, 1, 2]])


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
        # the traced linalg.invert.calls counts one dense inverse per request
        from pocket_kirch import linalg

        calls = []
        invert = linalg.invert

        def counting(mat):
            calls.append(mat.shape[0])
            return invert(mat)

        monkeypatch.setattr(linalg, "invert", counting)
        oracle_resistance(path_graph(7))
        assert calls == [7]

    def test_peak_memory(self):
        # the Laplacian, one shifted copy and invert's working copy; the
        # result and the resistance matrix reuse what those release
        g = _pocket_graph_1000()
        n = g.order
        tracemalloc.start()
        try:
            oracle_resistance(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4.25 * 8 * n * n

    def test_all_ones_annihilated_so_trace_suffices(self):
        g = path_graph(5)
        x = pseudo_inverse_laplacian(laplacian(g))
        kf = kirchhoff_from_one_inverse(x).value
        assert abs(g.order * np.trace(x) - kf) <= 1e-8


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

    def test_triangle_check_peak_memory(self):
        n = 300
        r = np.ones((n, n)) - np.eye(n)
        tracemalloc.start()
        try:
            check_metric(r)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 8 * n * n
