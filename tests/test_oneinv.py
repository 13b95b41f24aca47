import sys
import threading

import numpy as np
import pytest

from pocket_kirch import (
    Graph,
    JoinStructureError,
    PocketSpec,
    build_pocket_graph,
    complete_graph,
    empty_graph,
    invert,
    join,
    kirchhoff_from_one_inverse,
    laplacian,
    make_layout,
    oracle_resistance,
    path_graph,
    pseudo_inverse_laplacian,
    resistance_matrix,
    split_base_join,
    structured_one_inverse,
)
from pocket_kirch.formulas import _p_factor, _q_factor
from pocket_kirch.graphs import grounded_laplacian, split_gadget
from pocket_kirch.linalg import _OUTPUT, kron, release_output_buffer, shifted_group_inverse
from pocket_kirch.oneinv import (
    _invert_grounded,
    pocket_d_inverse,
    theorem3_one_inverse,
    theorem4_one_inverse,
)
from pocket_kirch.sweep import random_connected_graph, random_graph, random_specs
from test_cli import _count_calls
from test_graphs import NON_JOIN_GADGET_SPECS, NON_JOIN_SPECS, adjacency, block_order
from test_linalg import is_one_inverse


def _shuffled_all_pocketed(rng, n, l, m):
    """k = n with the attachment list in shuffled order."""
    attach = tuple(int(x) for x in rng.permutation(n))
    return PocketSpec(
        random_connected_graph(rng, n), attach, random_graph(rng, l), random_graph(rng, m - l)
    )


def _shuffled_split(rng, k, nk, l, m):
    """F = F1 v F2 under a random relabelling, pockets on F1 in shuffled order."""
    label = [int(x) for x in rng.permutation(k + nk)]
    f = join(random_graph(rng, k), random_graph(rng, nk))
    f = Graph(k + nk, frozenset((label[a], label[b]) for a, b in f.edges))
    attach = tuple(label[i] for i in rng.permutation(k))
    return PocketSpec(f, attach, random_graph(rng, l), random_graph(rng, m - l))


def _assemble_reference(spec, base, c, a):
    """[[base, 1_m^T (x) C], [., J_m (x) A + D^-1]] from explicit Kronecker
    blocks in block order, scattered to global order through
    ``block_order``."""
    m = spec.m
    p_inv, q_inv, coupling = pocket_d_inverse(spec.H1, spec.H2, spec.k)
    f_pockets = kron(np.ones((1, m)), c)
    pockets = kron(np.ones((m, m)), a) + np.block([[p_inv, coupling], [coupling.T, q_inv]])
    x = np.block([[base, f_pockets], [f_pockets.T, pockets]])
    perm = block_order(make_layout(spec))
    out = np.empty_like(x)
    out[np.ix_(perm, perm)] = x
    return out


def _kron_reference(spec, s):
    """The library's matrix from its base factor L#(F): C = L#(F)[:, S]
    and A = L#(F)[S, S] (the attached vertices come first in block order)."""
    lf_sharp, k = s.base_sharp, spec.k
    return _assemble_reference(spec, lf_sharp, lf_sharp[:, :k], lf_sharp[:k, :k])


def theorem4_reference(f1, f2, h1, h2):
    """The paper's Theorem 4 construction for F = F1 v F2, pockets on F1.

    Its base factor is the group inverse H# of L(F1) + (n-k)I - ((n-k)/k)J
    (the shifted-inverse identity with shift n - k). The base block is
    [[H#, H# J/k], [J H#/k, (L(F2) + kI)^-1]] and C = [H#; 0]: another
    symmetric {1}-inverse than the library's, with the same resistances.
    """
    k, nk = f1.order, f2.order
    spec = PocketSpec(join(f1, f2), tuple(range(k)), h1, h2)
    h_sharp = shifted_group_inverse(laplacian(f1), float(nk))
    f2_inv = invert(laplacian(f2) + k * np.eye(nk))
    f1_f2 = h_sharp @ np.ones((k, nk)) / k
    base = np.block([[h_sharp, f1_f2], [f1_f2.T, f2_inv]])
    c = np.vstack([h_sharp, np.zeros((nk, k))])
    return spec, _assemble_reference(spec, base, c, h_sharp)


def _any_attachment(rng):
    """Connected F of order 2..7 with a random attachment set, in shuffled
    order, of any size: most such F are not F1 v F2 over it."""
    n = int(rng.integers(2, 8))
    f = random_connected_graph(rng, n)
    attach = tuple(int(x) for x in rng.permutation(n)[: int(rng.integers(1, n + 1))])
    l = int(rng.integers(1, 4))
    return PocketSpec(f, attach, random_graph(rng, l), random_graph(rng, int(rng.integers(0, 4))))


ANY_ATTACHMENT_SEEDS = 20
_RNG = np.random.default_rng(5)
SHUFFLED_SPECS = [
    _shuffled_split(_RNG, 3, 2, 2, 2),  # m = l: empty H2
    _shuffled_split(_RNG, 4, 3, 2, 5),
    _shuffled_split(_RNG, 1, 3, 3, 3),
    _shuffled_all_pocketed(_RNG, 4, 3, 3),
    _shuffled_all_pocketed(_RNG, 5, 2, 6),
]


def one_inverse_lemma26(a, b, d):
    """Reference lemma: symmetric {1}-inverse of the Laplacian [[A, B], [B^T, D]].

    With H = A - B D^-1 B^T and H# its group inverse, returns
    [[H#, -H# B D^-1], [-D^-1 B^T H#, D^-1 + D^-1 B^T H# B D^-1]].
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = np.asarray(d, dtype=float)
    d_inv = invert(d)
    h = a - b @ d_inv @ b.T
    h_sharp = _group_inverse_sym(h)
    top_right = -h_sharp @ b @ d_inv
    return np.block(
        [
            [h_sharp, top_right],
            [top_right.T, d_inv + d_inv @ b.T @ h_sharp @ b @ d_inv],
        ]
    )


def _group_inverse_sym(h, tol=1e-10):
    """Group inverse of a symmetric matrix.

    Laplacian-shaped inputs (rows summing to zero) go through the
    rank-correction identity; anything else through a spectral pseudoinverse
    (group inverse equals Moore-Penrose for symmetric matrices).
    """
    n = h.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    scale = max(np.abs(h).max(), 1.0)
    if np.abs(h.sum(axis=1)).max() <= tol * scale:
        return pseudo_inverse_laplacian(h)
    w, v = np.linalg.eigh(h)
    inv_w = np.where(np.abs(w) > tol * scale, 1.0 / np.where(w == 0, 1.0, w), 0.0)
    return (v * inv_w) @ v.T


class TestLemma26:
    def test_p3_partition_1_2(self):
        a = np.array([[1.0]])
        b = np.array([[-1.0, 0.0]])
        d = np.array([[2.0, -1.0], [-1.0, 1.0]])
        out = one_inverse_lemma26(a, b, d)
        np.testing.assert_allclose(out, [[0, 0, 0], [0, 1, 1], [0, 1, 2]], atol=1e-12)

    def test_k2_partition_1_1(self):
        out = one_inverse_lemma26([[1.0]], [[-1.0]], [[1.0]])
        np.testing.assert_allclose(out, [[0, 0], [0, 1]], atol=1e-12)

    @pytest.mark.parametrize("g", [path_graph(4), complete_graph(5), join(path_graph(2), empty_graph(3))])
    @pytest.mark.parametrize("split", [1, 2])
    def test_defining_property(self, g, split):
        lap = laplacian(g)
        out = one_inverse_lemma26(lap[:split, :split], lap[:split, split:], lap[split:, split:])
        assert is_one_inverse(lap, out, 1e-9)
        np.testing.assert_allclose(out, out.T, atol=1e-12)


class TestPocketDInverse:
    def test_p3_instance_blocks(self):
        p_inv, q_inv, coupling = pocket_d_inverse(complete_graph(1), complete_graph(1), 1)
        np.testing.assert_allclose(p_inv, [[1.0]])
        np.testing.assert_allclose(q_inv, [[2.0]])
        np.testing.assert_allclose(coupling, [[1.0]])

    def test_empty_h2(self):
        p_inv, q_inv, coupling = pocket_d_inverse(complete_graph(1), empty_graph(0), 2)
        np.testing.assert_allclose(p_inv, np.eye(2))
        assert q_inv.shape == (0, 0)
        assert coupling.shape == (2, 0)

    @pytest.mark.parametrize(
        "h1,h2,copies",
        [
            (complete_graph(1), complete_graph(1), 1),
            (complete_graph(2), path_graph(3), 2),
            (path_graph(3), empty_graph(2), 3),
            (empty_graph(2), complete_graph(3), 2),
        ],
    )
    def test_matches_direct_inverse_of_d(self, h1, h2, copies):
        l, m = h1.order, h1.order + h2.order
        eye = np.eye(copies)
        d = np.block(
            [
                [
                    kron(laplacian(h1) + (m - l + 1) * np.eye(l), eye),
                    kron(-np.ones((l, m - l)), eye),
                ],
                [
                    kron(-np.ones((m - l, l)), eye),
                    kron(laplacian(h2) + l * np.eye(m - l), eye),
                ],
            ]
        )
        p_inv, q_inv, coupling = pocket_d_inverse(h1, h2, copies)
        assembled = np.block([[p_inv, coupling], [coupling.T, q_inv]])
        np.testing.assert_allclose(assembled, invert(d), atol=1e-9)


THM3_SPECS = [
    PocketSpec(complete_graph(1), (0,), complete_graph(1), complete_graph(1)),
    PocketSpec(complete_graph(2), (0, 1), complete_graph(1)),
    PocketSpec(path_graph(3), (1, 2, 0), complete_graph(2), path_graph(2)),
    PocketSpec(complete_graph(4), (0, 1, 2, 3), path_graph(3), empty_graph(2)),
]

THM4_ARGS = [
    (complete_graph(1), complete_graph(1), complete_graph(1), empty_graph(0)),
    (complete_graph(2), complete_graph(1), complete_graph(1), complete_graph(1)),
    (complete_graph(2), empty_graph(2), complete_graph(2), complete_graph(2)),
    (path_graph(3), complete_graph(1), path_graph(2), path_graph(3)),
]


class TestTheorem3:
    def test_p3_exact(self):
        s = theorem3_one_inverse(THM3_SPECS[0])
        np.testing.assert_allclose(
            s.matrix, [[0, 0, 0], [0, 1, 1], [0, 1, 2]], atol=1e-12
        )

    def test_p4_is_one_inverse(self):
        spec = THM3_SPECS[1]
        g, _ = build_pocket_graph(spec)
        s = theorem3_one_inverse(spec)
        assert s.matrix.shape == (4, 4)
        assert is_one_inverse(laplacian(g), s.matrix, 1e-9)

    @pytest.mark.parametrize("spec", THM3_SPECS)
    def test_symmetric_and_one_inverse(self, spec):
        g, _ = build_pocket_graph(spec)
        s = theorem3_one_inverse(spec)
        np.testing.assert_allclose(s.matrix, s.matrix.T, atol=1e-12)
        assert is_one_inverse(laplacian(g), s.matrix, 1e-9)

    def test_rejects_partial_attachment(self):
        spec = PocketSpec(complete_graph(2), (0,), complete_graph(1))
        with pytest.raises(ValueError, match="k = n"):
            theorem3_one_inverse(spec)

    @pytest.mark.parametrize("spec", THM3_SPECS)
    def test_schur_identity_h_equals_lf(self, spec):
        # A - B D^-1 B^T reduces to the base Laplacian
        g, layout = build_pocket_graph(spec)
        lap = laplacian(g)
        perm = block_order(layout)
        lap_b = lap[np.ix_(perm, perm)]
        n = spec.n
        a, b, d = lap_b[:n, :n], lap_b[:n, n:], lap_b[n:, n:]
        h = a - b @ invert(d) @ b.T
        lf = laplacian(spec.F)[np.ix_(layout.f_order, layout.f_order)]
        assert np.abs(h - lf).max() <= 1e-10


class TestTheorem4:
    def test_pendant_exact(self):
        _, x = theorem4_reference(*THM4_ARGS[0])
        np.testing.assert_allclose(x, np.diag([0.0, 1.0, 1.0]), atol=1e-12)

    def test_pendant_library_matrix(self):
        # L#(K2) on F, its attached column towards the pocket, 0.25 + P^-1 on it
        s = theorem4_one_inverse(*THM4_ARGS[0])
        np.testing.assert_allclose(
            s.matrix,
            [[0.25, -0.25, 0.25], [-0.25, 0.25, -0.25], [0.25, -0.25, 1.25]],
            atol=1e-12,
        )

    def test_seven_vertex_oracle_match(self):
        f1, f2, h1, h2 = THM4_ARGS[1]
        s = theorem4_one_inverse(f1, f2, h1, h2)
        assert s.matrix.shape == (7, 7)  # n + m*k = 3 + 2*2
        spec = PocketSpec(join(f1, f2), tuple(range(f1.order)), h1, h2)
        g, _ = build_pocket_graph(spec)
        r_oracle, _ = oracle_resistance(g)
        np.testing.assert_allclose(resistance_matrix(s.matrix), r_oracle, atol=1e-9)

    @pytest.mark.parametrize("args", THM4_ARGS)
    def test_symmetric_and_one_inverse(self, args):
        spec, reference = theorem4_reference(*args)
        g, _ = build_pocket_graph(spec)
        for x in (reference, theorem4_one_inverse(*args).matrix):
            np.testing.assert_allclose(x, x.T, atol=1e-12)
            assert is_one_inverse(laplacian(g), x, 1e-9)

    def test_rejects_empty_f2(self):
        with pytest.raises(ValueError, match="F2"):
            theorem4_one_inverse(complete_graph(2), empty_graph(0), complete_graph(1), empty_graph(0))

    @pytest.mark.parametrize("args", THM4_ARGS)
    def test_schur_identity_shifted_base(self, args):
        # A - B D^-1 B^T reduces to L(F1) + (n-k)I - ((n-k)/k) J
        f1, f2, h1, h2 = args
        k, n = f1.order, f1.order + f2.order
        spec = PocketSpec(join(f1, f2), tuple(range(k)), h1, h2)
        g, layout = build_pocket_graph(spec)
        lap = laplacian(g)
        perm = block_order(layout)
        lap_b = lap[np.ix_(perm, perm)]
        a, b, d = lap_b[:k, :k], lap_b[:k, k:], lap_b[k:, k:]
        h = a - b @ invert(d) @ b.T
        expected = (
            laplacian(f1) + (n - k) * np.eye(k) - ((n - k) / k) * np.ones((k, k))
        )
        assert np.abs(h - expected).max() <= 1e-10


class TestStructuredDispatch:
    def test_split_base_join_detects_missing_cross_edge(self):
        spec = PocketSpec(path_graph(3), (0,), complete_graph(1))
        with pytest.raises(JoinStructureError, match="cross edge") as exc:
            split_base_join(spec)
        assert isinstance(exc.value, ValueError)
        assert exc.value.witness == (0, 2)

    def test_split_base_join_pins_message_and_witness(self):
        # attach (2, 0) is scanned in the spec's order, the rest {1, 3} in
        # increasing id order: (2, 3) and (0, 1) are missing, (2, 3) first
        f = Graph(4, frozenset([(1, 2), (1, 3), (0, 3)]))
        spec = PocketSpec(f, (2, 0), complete_graph(1))
        with pytest.raises(JoinStructureError) as exc:
            split_base_join(spec)
        assert str(exc.value) == "F is not F1 v F2: missing cross edge (2,3)"
        assert exc.value.witness == (2, 3)

    def test_split_base_join_pins_empty_f2(self):
        spec = PocketSpec(complete_graph(2), (1, 0), complete_graph(1))
        with pytest.raises(ValueError) as exc:
            split_base_join(spec)
        assert type(exc.value) is ValueError
        assert str(exc.value) == "F2 is empty: every vertex is attached"

    def test_split_base_join_splits(self):
        spec = PocketSpec(join(complete_graph(2), path_graph(2)), (0, 1), complete_graph(1))
        f1, f2 = split_base_join(spec)
        assert f1 == complete_graph(2)
        assert f2 == path_graph(2)

    def test_shuffled_attach_list_realigns(self):
        # attachment vertices out of order; N must still be a {1}-inverse
        # in the spec's own global indexing
        f = join(complete_graph(2), empty_graph(2))
        spec = PocketSpec(f, (1, 0), complete_graph(1), complete_graph(1))
        g, _ = build_pocket_graph(spec)
        s = structured_one_inverse(spec)
        assert is_one_inverse(laplacian(g), s.matrix, 1e-9)

    @pytest.mark.parametrize("spec", SHUFFLED_SPECS)
    def test_shuffled_specs_one_inverse_law(self, spec):
        g, _ = build_pocket_graph(spec)
        s = structured_one_inverse(spec)
        lap = laplacian(g)
        np.testing.assert_allclose(s.matrix, s.matrix.T, atol=1e-12)
        assert np.abs(lap @ s.matrix @ lap - lap).max() <= 1e-9
        r_oracle, _ = oracle_resistance(g)
        np.testing.assert_allclose(resistance_matrix(s.matrix), r_oracle, atol=1e-9)

    @pytest.mark.parametrize("seed", range(ANY_ATTACHMENT_SEEDS))
    def test_any_attachment_set_matches_oracle(self, seed):
        spec = _any_attachment(np.random.default_rng(100 + seed))
        g, _ = build_pocket_graph(spec)
        s = structured_one_inverse(spec)
        lap = laplacian(g)
        np.testing.assert_allclose(s.matrix, s.matrix.T, atol=1e-12)
        assert np.abs(lap @ s.matrix @ lap - lap).max() <= 1e-9
        r_oracle, kf_oracle = oracle_resistance(g)
        np.testing.assert_allclose(resistance_matrix(s.matrix), r_oracle, atol=1e-9)
        assert abs(kirchhoff_from_one_inverse(s.matrix).value - kf_oracle.value) <= 1e-8

    def test_any_attachment_draws_non_join_specs(self):
        non_join = 0
        for seed in range(ANY_ATTACHMENT_SEEDS):
            spec = _any_attachment(np.random.default_rng(100 + seed))
            try:
                split_base_join(spec)
            except JoinStructureError:
                non_join += 1
            except ValueError:
                pass  # k = n
        assert non_join >= 8

    @pytest.mark.parametrize("spec", SHUFFLED_SPECS + THM3_SPECS + NON_JOIN_SPECS)
    def test_matches_kronecker_reference(self, spec):
        s = structured_one_inverse(spec)
        np.testing.assert_allclose(s.matrix, _kron_reference(spec, s), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("i", range(0, 40, 7))
    def test_random_specs_one_inverse_law(self, i):
        spec = random_specs(40, seed=7)[i]
        g, _ = build_pocket_graph(spec)
        s = structured_one_inverse(spec)
        lap = laplacian(g)
        assert np.abs(lap @ s.matrix @ lap - lap).max() <= 1e-9
        r_oracle, _ = oracle_resistance(g)
        np.testing.assert_allclose(resistance_matrix(s.matrix), r_oracle, atol=1e-9)


def _broadcast_writer_reference(layout, lf_sharp, d_inv):
    """The writer as it was before the pocket rows were replicated: every
    pocket entry by one broadcast over (m, k, m, k), then the F rows and
    their transpose. Its entries are the same single copies and additions
    as the library's, so the two must agree bit for bit."""
    n, k, m = layout.n, layout.k, layout.m
    fo = np.asarray(layout.f_order)
    x = np.empty((layout.total, layout.total))
    x[np.ix_(fo, fo)] = lf_sharp
    f_rows = x[:n, n:].reshape(n, m, k, copy=False)
    f_rows[fo] = lf_sharp[:, None, :k]
    x[n:, :n] = x[:n, n:].T
    pockets = x[n:, n:].reshape(m, k, m, k, copy=False)
    pockets[...] = lf_sharp[None, :k, None, :k]
    c = np.arange(k)
    pockets[:, c, :, c] += d_inv
    return x


def _poison_output_buffer(order):
    """Fill the kept output buffer with NaN, so that an entry the next
    dense call of this order leaves unwritten cannot keep the right value
    from an earlier call."""
    _OUTPUT.matrix(order).fill(np.nan)


_EDGE_RNG = np.random.default_rng(8)
WRITER_EDGE_SPECS = [
    # m = 1: one gadget vertex, nothing to replicate
    PocketSpec(path_graph(4), (2, 0, 3, 1), complete_graph(1)),
    # k = 1 on a non-join base
    PocketSpec(path_graph(6), (4,), path_graph(3), complete_graph(2)),
    # l = m: Q^-1 is 0x0
    PocketSpec(complete_graph(3), (1, 2), path_graph(4)),
    # m - l >> k
    _shuffled_split(_EDGE_RNG, 2, 3, 1, 40),
    _shuffled_all_pocketed(_EDGE_RNG, 3, 1, 40),
]


class TestWriter:
    @pytest.mark.parametrize(
        "spec", SHUFFLED_SPECS + THM3_SPECS + NON_JOIN_SPECS + WRITER_EDGE_SPECS + NON_JOIN_GADGET_SPECS
    )
    def test_bit_identical_to_broadcast_writer(self, spec):
        _poison_output_buffer(spec.n + spec.m * spec.k)
        s = structured_one_inverse(spec)
        expected = _broadcast_writer_reference(s.layout, s.base_sharp, s.d_inv)
        assert np.array_equal(s.matrix, expected)

    @pytest.mark.parametrize("blocks", [1, 2, 3])
    @pytest.mark.parametrize("spec", SHUFFLED_SPECS + WRITER_EDGE_SPECS)
    def test_bit_identical_in_steps_of_few_blocks(self, spec, blocks, monkeypatch):
        # at large orders a step copies one or a few row blocks; the last
        # step may be short
        from pocket_kirch import oneinv

        order = spec.n + spec.m * spec.k
        monkeypatch.setattr(oneinv, "_STEP_BYTES", blocks * spec.k * order * 8)
        _poison_output_buffer(order)
        s = structured_one_inverse(spec)
        expected = _broadcast_writer_reference(s.layout, s.base_sharp, s.d_inv)
        assert np.array_equal(s.matrix, expected)

    @pytest.mark.parametrize("rows", [1, 2, 3])
    @pytest.mark.parametrize("spec", SHUFFLED_SPECS + WRITER_EDGE_SPECS)
    def test_bit_identical_in_tiles_of_few_rows(self, spec, rows, monkeypatch):
        # a template larger than the budget is copied a tile of rows at a
        # time; when k is not a multiple of the tile, the last tile is
        # short and is copied to several blocks per step, the last step
        # short again
        from pocket_kirch import oneinv

        order = spec.n + spec.m * spec.k
        monkeypatch.setattr(oneinv, "_STEP_BYTES", rows * order * 8)
        _poison_output_buffer(order)
        s = structured_one_inverse(spec)
        expected = _broadcast_writer_reference(s.layout, s.base_sharp, s.d_inv)
        assert np.array_equal(s.matrix, expected)

    def test_bit_identical_when_the_template_spans_tiles(self):
        # at the default budget: N = 2060 and k = 50, a template of 824 KB
        from pocket_kirch import oneinv

        spec = _shuffled_split(np.random.default_rng(9), 50, 10, 5, 40)
        order = spec.n + spec.m * spec.k
        assert spec.k * order * 8 > oneinv._STEP_BYTES
        _poison_output_buffer(order)
        s = structured_one_inverse(spec)
        expected = _broadcast_writer_reference(s.layout, s.base_sharp, s.d_inv)
        assert np.array_equal(s.matrix, expected)

    def test_edge_shapes(self):
        shapes = [(s.m, s.k, s.l) for s in WRITER_EDGE_SPECS]
        assert shapes[0][0] == 1
        assert shapes[1][1] == 1
        assert shapes[2][0] == shapes[2][2]
        assert all(m - l >= 10 * k for m, k, l in shapes[3:])

    @pytest.mark.parametrize("spec", WRITER_EDGE_SPECS)
    def test_edge_shapes_one_inverse(self, spec):
        g, _ = build_pocket_graph(spec)
        x = structured_one_inverse(spec).matrix
        lap = laplacian(g)
        assert np.abs(lap @ x @ lap - lap).max() <= 1e-9
        r_oracle, _ = oracle_resistance(g)
        np.testing.assert_allclose(resistance_matrix(x), r_oracle, atol=1e-9)


class TestIngredients:
    def test_factors_retained_for_audit(self):
        spec = THM3_SPECS[2]
        s = theorem3_one_inverse(spec)
        assert s.base_sharp.shape == (spec.n, spec.n)
        l = spec.l
        np.testing.assert_allclose(s.d_inv[:l, :l], invert(_p_factor(spec.H1, spec.m)))
        np.testing.assert_allclose(s.d_inv[l:, l:], invert(_q_factor(spec.H2, spec.l, spec.m)))

    @pytest.mark.parametrize("spec", SHUFFLED_SPECS[:2])
    def test_split_path_ingredients(self, spec):
        s = structured_one_inverse(spec)
        assert s.base_sharp.shape == (spec.n, spec.n)
        order = list(s.layout.f_order)
        lf = laplacian(spec.F)[np.ix_(order, order)]
        np.testing.assert_allclose(s.base_sharp, pseudo_inverse_laplacian(lf), atol=1e-13)
        assert s.d_inv.shape == (spec.m, spec.m)


JOIN_GADGET_SPECS = SHUFFLED_SPECS + THM3_SPECS + NON_JOIN_SPECS + WRITER_EDGE_SPECS


class TestGadgetInverse:
    """The gadget factor is one inverse, D^-1 = L_v(H)^-1, for any connected
    rooted gadget."""

    @pytest.mark.parametrize("spec", JOIN_GADGET_SPECS + NON_JOIN_GADGET_SPECS)
    def test_two_inverts_per_spec(self, spec, monkeypatch):
        from pocket_kirch import linalg

        orders = []
        kernel = linalg._cholesky_invert

        def counting(mat):
            orders.append(mat.shape[0])
            return kernel(mat)

        # every inverse, public or in place, is taken by this kernel
        monkeypatch.setattr(linalg, "_cholesky_invert", counting)
        pinv = _count_calls(monkeypatch, linalg.pseudo_inverse_laplacian)
        inv = _count_calls(monkeypatch, linalg.invert)
        structured_one_inverse(spec)
        assert orders == [spec.n, spec.m]  # L + J/n of F, then L_v(H)
        # one public call per factor: L#(F), then L_v(H)^-1
        assert [a[0].shape for a in pinv] == [(spec.n, spec.n)]
        assert [a[0].shape for a in inv] == [(spec.m, spec.m)]

    @pytest.mark.parametrize("spec", JOIN_GADGET_SPECS + NON_JOIN_GADGET_SPECS)
    def test_d_inv_inverts_grounded_laplacian(self, spec):
        d_inv = structured_one_inverse(spec).d_inv
        lv = grounded_laplacian(spec.H1, spec.H2, spec.cross)
        assert np.array_equal(d_inv, d_inv.T)
        assert np.abs(lv @ d_inv - np.eye(spec.m)).max() <= 1e-12
        # L_v(H) 1 is the indicator of N(v) = H1, so D^-1 maps it to 1
        np.testing.assert_allclose(d_inv[:, : spec.l].sum(axis=1), 1.0, rtol=1e-13)

    @pytest.mark.parametrize("spec", JOIN_GADGET_SPECS)
    def test_join_coupling_is_one_over_l(self, spec):
        d_inv, l = structured_one_inverse(spec).d_inv, spec.l
        np.testing.assert_allclose(d_inv[:l, l:], 1.0 / l, rtol=1e-13)

    @pytest.mark.parametrize("spec", NON_JOIN_GADGET_SPECS)
    def test_non_join_gadget_matches_oracle(self, spec):
        g, _ = build_pocket_graph(spec)
        s = structured_one_inverse(spec)
        assert is_one_inverse(laplacian(g), s.matrix)
        r_oracle, _ = oracle_resistance(g)
        np.testing.assert_allclose(resistance_matrix(s.matrix), r_oracle, atol=1e-9)

    def test_pocket_d_inverse_is_blocks_of_the_same_inverse(self):
        spec = THM3_SPECS[2]
        l, eye = spec.l, np.eye(spec.k)
        d_inv = structured_one_inverse(spec).d_inv
        blocks = pocket_d_inverse(spec.H1, spec.H2, spec.k)
        for block, part in zip(blocks, (d_inv[:l, :l], d_inv[l:, l:], d_inv[:l, l:])):
            assert np.array_equal(block, kron(part, eye))

    @pytest.mark.parametrize("order", [2, 3, 6])
    def test_path_gadget_inverse_is_exact(self, order):
        # P_{order+1} rooted at an end: far-first elimination has unit
        # pivots, and D^-1 is min(i, j) + 1 exactly
        d_inv = _invert_grounded(*split_gadget(path_graph(order + 1), 0))
        i = np.arange(order)
        assert np.array_equal(d_inv, np.minimum.outer(i, i) + 1.0)


class TestPeakMemory:
    """One structured call holds one N x N array, not several."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: _shuffled_all_pocketed(rng, 40, 5, 24),  # N = 40 + 24 * 40
            lambda rng: _shuffled_split(rng, 30, 10, 5, 32),  # N = 40 + 32 * 30
        ],
        ids=["all-pocketed", "split-base"],
    )
    def test_peak_is_one_dense_array(self, make, traced_peak):
        spec = make(np.random.default_rng(11))
        order = spec.n + spec.m * spec.k
        assert order == 1000
        release_output_buffer()  # measure a call that allocates its result
        s, peak = traced_peak(structured_one_inverse, spec)
        assert peak <= 1.25 * 8 * order**2
        g, _ = build_pocket_graph(spec)
        adj = adjacency(g)
        lap = np.diag(adj.sum(axis=1)) - adj
        assert np.abs(lap @ s.matrix @ lap - lap).max() <= 1e-9


class TestOutputBuffer:
    """Results share memory with the next call only once they are dropped."""

    def _spec(self, seed):
        return _shuffled_split(np.random.default_rng(seed), 6, 3, 2, 5)

    def test_held_result_is_never_overwritten(self):
        a, b = self._spec(1), self._spec(2)
        first = structured_one_inverse(a).matrix
        kept = first.copy()
        view = first[3:, 3:]
        del first
        second = structured_one_inverse(b).matrix
        assert not np.shares_memory(view, second)
        assert np.array_equal(view, kept[3:, 3:])

    def test_dropped_result_memory_is_reused(self):
        spec = self._spec(3)
        release_output_buffer()
        first = structured_one_inverse(spec).matrix
        address = first.__array_interface__["data"][0]
        expected = first.copy()
        del first
        again = structured_one_inverse(spec).matrix
        assert again.__array_interface__["data"][0] == address
        assert np.array_equal(again, expected)
        assert again.flags.c_contiguous and again.flags.writeable

    def test_smaller_order_reuses_larger_buffer(self):
        release_output_buffer()
        large = structured_one_inverse(self._spec(4))
        address = large.matrix.__array_interface__["data"][0]
        del large
        small_spec = _shuffled_split(np.random.default_rng(5), 3, 2, 2, 3)
        small = structured_one_inverse(small_spec).matrix
        assert small.__array_interface__["data"][0] == address
        assert small.shape == (small_spec.n + small_spec.m * small_spec.k,) * 2
        g, _ = build_pocket_graph(small_spec)
        assert is_one_inverse(laplacian(g), small)

    def test_threads_never_share_a_buffer(self):
        specs = [self._spec(seed) for seed in range(10, 16)]
        expected = [structured_one_inverse(s).matrix.copy() for s in specs]
        wrong = []

        def work(i):
            for _ in range(40):
                x = structured_one_inverse(specs[i]).matrix
                if np.abs(x - expected[i]).max() > 1e-12:
                    wrong.append(i)
                del x  # lets the next call reuse the memory

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(specs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
