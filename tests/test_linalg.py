import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pocket_kirch import (
    DisconnectedGraphError,
    PocketSpec,
    SingularMatrixError,
    build_pocket_graph,
    complete_graph,
    eigenvalues_sym,
    invert,
    laplacian,
    path_graph,
    pseudo_inverse_laplacian,
)
from pocket_kirch import linalg
from pocket_kirch.linalg import kron, shifted_group_inverse
from pocket_kirch.sweep import random_connected_graph


def is_one_inverse(lap, x, tol=1e-9):
    """True iff max-abs of L X L - L is within tol."""
    lap = np.asarray(lap, dtype=float)
    x = np.asarray(x, dtype=float)
    if lap.shape != x.shape:
        raise ValueError(f"shape mismatch {lap.shape} vs {x.shape}")
    if lap.shape[0] == 0:
        return True
    return np.abs(lap @ x @ lap - lap).max() <= tol


def _random_laplacian(rng, n):
    a = (rng.random((n, n)) < 0.5).astype(float)
    a = np.triu(a, 1)
    a = a + a.T
    # force connectivity with a path
    for i in range(n - 1):
        a[i, i + 1] = a[i + 1, i] = 1.0
    return np.diag(a.sum(axis=1)) - a


class TestInvert:
    def test_identity(self):
        np.testing.assert_array_equal(invert(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        np.testing.assert_allclose(invert(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            invert(np.ones((2, 2)))

    def test_zero_dim(self):
        assert invert(np.zeros((0, 0))).shape == (0, 0)

    def test_residual_bound(self):
        rng = np.random.default_rng(1)
        m = rng.random((8, 8)) + 8 * np.eye(8)
        with pytest.raises(ValueError, match="symmetric"):
            invert(m)  # non-symmetric input is outside the contract
        spd = (m + m.T) / 2 + 8 * np.eye(8)
        assert np.abs(spd @ invert(spd) - np.eye(8)).max() <= 1e-10

    @pytest.mark.parametrize("n", [2, 5, 64, 65, 150])
    def test_result_is_exactly_symmetric(self, n):
        # orders on both sides of the row block of the triangle copy
        rng = np.random.default_rng(n)
        a = rng.random((n, n))
        m = a @ a.T + n * np.eye(n)
        x = invert(m)
        assert np.array_equal(x, x.T)
        assert np.abs(m @ x - np.eye(n)).max() <= 1e-12
        np.testing.assert_allclose(x, np.linalg.inv(m), rtol=0, atol=1e-14)

    def test_input_left_unchanged(self):
        m = np.array([[4.0, 1.0], [1.0, 3.0]])
        invert(m)
        np.testing.assert_array_equal(m, [[4.0, 1.0], [1.0, 3.0]])

    def test_fortran_ordered_input(self):
        m = np.asfortranarray([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
        np.testing.assert_allclose(invert(m) @ m, np.eye(3), atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_scale_is_the_whole_matrix_max_abs(self, n, sign):
        # taken block by block, the scale is still the float of one
        # whole-matrix max and min, and so is every pivot threshold
        rng = np.random.default_rng(n)
        a = rng.random((n, n)) * 10.0 ** rng.integers(-3, 4, size=(n, n))
        m = sign * (a + a.T)
        u, v = rng.integers(n, size=2)
        m[u, v] = m[v, u] = sign * 1e5
        assert linalg._symmetric_scale(m) == float(max(m.max(), -m.min()))

    def test_non_symmetric_raises(self):
        with pytest.raises(ValueError, match="symmetric"):
            invert(np.array([[2.0, 1.0], [0.0, 2.0]]))

    def test_asymmetry_below_tolerance_accepted(self):
        m = np.array([[2.0, 1.0], [1.0 + 1e-14, 2.0]])
        np.testing.assert_allclose(invert(m) @ m, np.eye(2), atol=1e-12)

    def test_non_finite_raises(self):
        with pytest.raises(ValueError, match="non-finite"):
            invert(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    @pytest.mark.parametrize(
        "mat",
        [
            [[1.0, 2.0], [2.0, 1.0]],  # eigenvalues 3 and -1
            [[-1.0]],
            np.diag([1.0, 2.0, -0.5]),
        ],
        ids=["indefinite-2", "negative-1", "indefinite-diag"],
    )
    def test_indefinite_raises(self, mat):
        with pytest.raises(SingularMatrixError):
            invert(np.asarray(mat))

    def test_small_pivot_raises(self):
        # positive definite, but its last pivot 1e-13 is below 1e-12 * max|entry|
        m = np.diag([1.0, 1.0, 1e-13])
        assert np.linalg.eigvalsh(m).min() > 0
        with pytest.raises(SingularMatrixError, match="pivot"):
            invert(m)
        # the threshold is relative: the same ratio 1e-11 passes at any scale
        np.testing.assert_allclose(invert(np.diag([1e-3, 1e-14])), np.diag([1e3, 1e14]))
        with pytest.raises(SingularMatrixError, match="pivot"):
            invert(np.diag([1e-3, 1e-16]))


class TestShiftedGroupInverse:
    def test_k1(self):
        np.testing.assert_allclose(shifted_group_inverse(np.zeros((1, 1)), 2.0), [[0.0]])

    def test_k2(self):
        out = shifted_group_inverse(laplacian(complete_graph(2)), 1.0)
        np.testing.assert_allclose(out, [[1 / 6, -1 / 6], [-1 / 6, 1 / 6]])

    def test_zero_laplacian(self):
        out = shifted_group_inverse(np.zeros((2, 2)), 1.0)
        np.testing.assert_allclose(out, np.eye(2) - 0.5)

    @pytest.mark.parametrize("a", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_group_inverse_axioms(self, a, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        lap = _random_laplacian(rng, n)
        m = lap + a * np.eye(n) - (a / n) * np.ones((n, n))
        x = shifted_group_inverse(lap, a)
        np.testing.assert_allclose(m @ x @ m, m, atol=1e-9)
        np.testing.assert_allclose(x @ m @ x, x, atol=1e-9)
        np.testing.assert_allclose(m @ x, x @ m, atol=1e-9)
        np.testing.assert_allclose(x @ np.ones(n), 0, atol=1e-9)


class TestPseudoInverseLaplacian:
    def test_k1(self):
        np.testing.assert_allclose(pseudo_inverse_laplacian(np.zeros((1, 1))), [[0.0]])

    def test_k2(self):
        out = pseudo_inverse_laplacian(laplacian(complete_graph(2)))
        np.testing.assert_allclose(out, [[0.25, -0.25], [-0.25, 0.25]])

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedGraphError):
            pseudo_inverse_laplacian(np.zeros((2, 2)))

    @pytest.mark.parametrize("seed", range(4))
    def test_properties(self, seed):
        rng = np.random.default_rng(seed)
        lap = _random_laplacian(rng, int(rng.integers(2, 10)))
        x = pseudo_inverse_laplacian(lap)
        n = lap.shape[0]
        np.testing.assert_allclose(x, x.T, atol=1e-12)
        np.testing.assert_allclose(x @ np.ones(n), 0, atol=1e-10)
        assert is_one_inverse(lap, x, 1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_held_laplacian_left_bit_identical(self, seed):
        lap = laplacian(random_connected_graph(np.random.default_rng(seed), 30))
        before = lap.tobytes()
        pseudo_inverse_laplacian(lap)
        assert lap.tobytes() == before

    @pytest.mark.parametrize("seed", range(4))
    def test_held_and_temporary_laplacian_give_the_same_inverse(self, seed):
        g = random_connected_graph(np.random.default_rng(seed), 30)
        lap = laplacian(g)
        assert np.array_equal(pseudo_inverse_laplacian(lap), pseudo_inverse_laplacian(laplacian(g)))

    def test_invert_receives_the_temporary_laplacian(self, monkeypatch):
        # the in-place kernel shifts L to L + J/n and hands that very array
        # on to the Cholesky kernel: it is the working array, so no second
        # one exists
        g = random_connected_graph(np.random.default_rng(0), 30)
        lap = laplacian(g)
        shared = []
        kernel = linalg._cholesky_invert

        def watching(mat):
            shared.append(mat is lap)
            return kernel(mat)

        monkeypatch.setattr(linalg, "_cholesky_invert", watching)
        x = linalg._pseudo_inverse_in_place(lap)
        assert shared == [True]
        assert x is lap
        assert np.array_equal(x, pseudo_inverse_laplacian(laplacian(g)))


def _read_only(a):
    a = a.copy()
    a.flags.writeable = False
    return a


# Forms of a matrix the call may not write: each makes a new array with a's
# values; "view" shares the memory of a base no one else holds
INPUT_FORMS = {
    "view": lambda a: np.append(a.ravel(), 0.0)[:-1].reshape(a.shape),
    "fortran": np.asfortranarray,
    "integer": lambda a: a.astype(np.int64),
    "read-only": _read_only,
    "list": lambda a: a.tolist(),
}


def _lap_70():
    return laplacian(random_connected_graph(np.random.default_rng(70), 70))


# (function, its integer-valued input) on both sides of the 64-row block
ROUTES = {
    "invert": (invert, lambda: _lap_70() + np.eye(70)),
    "pseudo_inverse_laplacian": (pseudo_inverse_laplacian, _lap_70),
}
# the in-place kernel behind each public function
KERNELS = {
    "invert": linalg._cholesky_invert,
    "pseudo_inverse_laplacian": linalg._pseudo_inverse_in_place,
}


class TestCallerInputNeverWritten:
    """The public functions copy every input, a C-ordered float64
    temporary too, and work on the copy; only the private kernels work in
    place."""

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("form", ["c-order", *INPUT_FORMS])
    def test_held_input_left_unchanged(self, route, form):
        fn, make = ROUTES[route]
        expected = fn(make())
        mat = INPUT_FORMS.get(form, np.copy)(make())
        before = np.array(mat)
        x = fn(mat)
        assert np.array_equal(np.asarray(mat), before)
        assert np.array_equal(x, expected)
        if isinstance(mat, np.ndarray):
            assert not np.shares_memory(x, mat)

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("form", ["c-order", *INPUT_FORMS])
    def test_temporary_input_gives_the_copy_path_result(self, route, form):
        # a temporary that is still alive after the call shares no memory
        # with the result
        fn, make = ROUTES[route]
        refs = []

        def temporary():
            mat = INPUT_FORMS.get(form, np.copy)(make())
            if isinstance(mat, np.ndarray):
                refs.append(weakref.ref(mat))
            return mat

        x = fn(temporary())
        assert np.array_equal(x, fn(make()))
        for ref in refs:
            mat = ref()
            assert mat is None or not np.shares_memory(x, mat)

    @pytest.mark.parametrize("route", ROUTES)
    def test_view_of_held_base_left_unchanged(self, route):
        fn, make = ROUTES[route]
        base = np.append(make().ravel(), 0.0)
        before = base.copy()
        x = fn(base[:-1].reshape(70, 70))
        assert np.array_equal(base, before)
        assert np.array_equal(x, fn(make()))

    @pytest.mark.parametrize("route", ROUTES)
    def test_temporary_worked_on_in_place(self, route):
        # the kernel returns the very array it was given
        fn, make = ROUTES[route]
        mat = make()
        x = KERNELS[route](mat)
        assert x is mat
        assert np.array_equal(x, fn(make()))

    @pytest.mark.parametrize("form", ["c-order", *INPUT_FORMS])
    @pytest.mark.parametrize("a", [0.5, 2.0])
    def test_shifted_group_inverse_bit_identical_to_invert(self, form, a):
        # the reference inverts L + aI by the public ``invert``, which
        # copies it again; the one-copy route gives the same bits and
        # does not write L
        lap = _lap_70()
        shifted = lap.copy()
        shifted[np.diag_indices(70)] += a
        expected = invert(shifted)
        expected -= 1.0 / (a * 70)
        mat = INPUT_FORMS.get(form, np.copy)(lap)
        x = shifted_group_inverse(mat, a)
        assert np.array_equal(x, expected)
        assert np.array_equal(np.asarray(mat), lap)


class TestPeakMemory:
    """The J/n and aI shifts are scalars. ``pseudo_inverse_laplacian`` and
    ``shifted_group_inverse`` each make one shifted copy of a held L, which
    becomes the result."""

    @pytest.fixture(scope="class")
    def lap(self):
        spec = PocketSpec(complete_graph(40), tuple(range(40)), path_graph(4), path_graph(20))
        g, _ = build_pocket_graph(spec)
        assert g.order == 1000
        return laplacian(g)

    def test_pseudo_inverse_laplacian(self, lap, traced_peak):
        n = lap.shape[0]
        assert traced_peak(pseudo_inverse_laplacian, lap)[1] <= 3.25 * 8 * n * n

    def test_held_laplacian_gets_one_shifted_copy(self, lap, traced_peak):
        # the held L is not written: its one shifted copy is inverted in
        # place and becomes the result
        n = lap.shape[0]
        assert traced_peak(pseudo_inverse_laplacian, lap)[1] <= 1.25 * 8 * n * n

    def test_shifted_group_inverse(self, lap, traced_peak):
        n = lap.shape[0]
        assert traced_peak(shifted_group_inverse, lap, 2.0)[1] <= 3.25 * 8 * n * n

    def test_shifted_group_inverse_makes_one_copy(self, lap, traced_peak):
        n = lap.shape[0]
        assert traced_peak(shifted_group_inverse, lap, 2.0)[1] <= 1.25 * 8 * n * n


class TestEigenvaluesSym:
    def test_k2(self):
        np.testing.assert_allclose(eigenvalues_sym(laplacian(complete_graph(2))), [0, 2], atol=1e-12)

    def test_p3(self):
        np.testing.assert_allclose(
            eigenvalues_sym(laplacian(path_graph(3))), [0, 1, 3], atol=1e-9
        )

    def test_diagonal(self):
        np.testing.assert_allclose(eigenvalues_sym(np.diag([7.0, 5.0])), [5, 7])

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            eigenvalues_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("seed", range(3))
    def test_trace_and_edge_sum(self, seed):
        rng = np.random.default_rng(seed)
        lap = _random_laplacian(rng, 8)
        vals = eigenvalues_sym(lap)
        assert abs(vals.sum() - np.trace(lap)) <= 1e-8
        assert abs(vals.sum() - lap.diagonal().sum()) <= 1e-8  # 2|E|


class TestKron:
    def test_scalar_identity(self):
        np.testing.assert_array_equal(kron([[2.0]], np.eye(2)), np.diag([2.0, 2.0]))

    def test_row_ones(self):
        np.testing.assert_array_equal(
            kron(np.ones((1, 2)), np.eye(2)),
            [[1, 0, 1, 0], [0, 1, 0, 1]],
        )

    def test_swap(self):
        np.testing.assert_array_equal(
            kron([[0, 1], [1, 0]], [[3.0]]), [[0, 3], [3, 0]]
        )

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_mixed_product(self, seed):
        rng = np.random.default_rng(seed)
        p, q, r = (int(x) for x in rng.integers(1, 4, size=3))
        a, c = rng.random((p, q)), rng.random((q, r))
        b, d = rng.random((q, p)), rng.random((p, q))
        np.testing.assert_allclose(
            kron(a, b) @ kron(c, d), kron(a @ c, b @ d), atol=1e-9
        )


class TestIsOneInverse:
    def test_hand_checked_p3(self):
        lap = laplacian(path_graph(3))
        x = np.array([[0.0, 0, 0], [0, 1, 1], [0, 1, 2]])
        assert is_one_inverse(lap, x, 1e-9)

    def test_pseudoinverse_is_one_inverse(self):
        lap = laplacian(complete_graph(4))
        assert is_one_inverse(lap, pseudo_inverse_laplacian(lap), 1e-9)

    def test_zero_matrix_is_not(self):
        lap = laplacian(complete_graph(2))
        assert not is_one_inverse(lap, np.zeros((2, 2)), 1e-9)
