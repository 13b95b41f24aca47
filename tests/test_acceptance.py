"""End-to-end acceptance checks, one test per shipped guarantee.

Each test finishes by printing a single [PASS] line (visible with -s or -rP)
summarizing what was verified; a failure of any assertion is the FAIL line.
"""

import json
import time

import numpy as np
import pytest

from pocket_kirch import (
    PocketSpec,
    build_pocket_graph,
    check_metric,
    complete_graph,
    eigenvalues_sym,
    invert,
    join,
    kirchhoff_from_one_inverse,
    kirchhoff_spectral,
    laplacian,
    oracle_resistance,
    resistance_matrix,
    split_base_join,
    structured_one_inverse,
    verify_construction,
)
from pocket_kirch.cli import main
from pocket_kirch.formulas import THM31_CASES, THM41_CASES
from pocket_kirch.linalg import shifted_group_inverse
from pocket_kirch.oneinv import pocket_d_inverse
from pocket_kirch.sweep import DEFAULT_SEED, builtin_fixtures, random_specs
from test_graphs import block_order

P3_SPEC = PocketSpec(complete_graph(1), (0,), complete_graph(1), complete_graph(1))
P4_SPEC = PocketSpec(complete_graph(2), (0, 1), complete_graph(1))

SWEEP_SIZE = 200


@pytest.fixture(scope="module")
def sweep():
    """Seeded sweep across both construction paths, with per-spec results."""
    specs = random_specs(SWEEP_SIZE, seed=DEFAULT_SEED, max_n=6, max_l=4, max_h2=4)
    assert len(specs) >= 200
    out = []
    for spec in specs:
        g, _ = build_pocket_graph(spec)
        lap = laplacian(g)
        s = structured_one_inverse(spec)
        out.append((spec, g, lap, s.matrix))
    return out


def test_1_fixture_exactness():
    t0 = time.perf_counter()
    s = structured_one_inverse(P3_SPEC)
    expected = np.array([[0.0, 0, 0], [0, 1, 1], [0, 1, 2]])
    assert np.abs(s.matrix - expected).max() <= 1e-12
    r = resistance_matrix(s.matrix)
    assert (r[0, 1], r[0, 2], r[1, 2]) == pytest.approx((1.0, 2.0, 1.0), abs=1e-12)
    assert kirchhoff_from_one_inverse(s.matrix).value == pytest.approx(4.0, abs=1e-12)
    s4 = structured_one_inverse(P4_SPEC)
    kf4 = kirchhoff_from_one_inverse(s4.matrix).value
    assert abs(kf4 - 10.0) <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(
        f"[PASS] 1 fixture exactness: 3-vertex N exact to 1e-12, r=(1,2,1), "
        f"Kf=4; 4-vertex Kf=10 within 1e-8 ({elapsed:.3f}s)"
    )


def test_2_one_inverse_law_sweep(sweep):
    t0 = time.perf_counter()
    worst = 0.0
    for spec, g, lap, n_mat in sweep:
        residual = np.abs(lap @ n_mat @ lap - lap).max()
        worst = max(worst, residual)
        assert residual <= 1e-9, (spec.n, spec.k, spec.l, spec.m)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(
        f"[PASS] 2 {{1}}-inverse law: max |LNL-L| = {worst:.2e} <= 1e-9 over "
        f"{len(sweep)} seeded specs ({elapsed:.1f}s)"
    )


def test_3_oracle_equivalence(sweep):
    worst_r, worst_kf = 0.0, 0.0
    for spec, g, lap, n_mat in sweep:
        r_oracle, kf_oracle = oracle_resistance(g)
        r_struct = resistance_matrix(n_mat)
        dev_r = np.abs(r_struct - r_oracle).max()
        worst_r = max(worst_r, dev_r)
        assert dev_r <= 1e-9
        kf_struct = kirchhoff_from_one_inverse(n_mat).value
        dev_kf = abs(kf_struct - kf_oracle.value)
        worst_kf = max(worst_kf, dev_kf)
        assert dev_kf <= 1e-8
        pair_sum = r_struct[np.triu_indices(g.order, 1)].sum()
        assert abs(kf_struct - pair_sum) <= 1e-8
        kf_spec = kirchhoff_spectral(eigenvalues_sym(lap), g.order).value
        assert abs(kf_struct - kf_spec) <= 1e-8
    print(
        f"[PASS] 3 oracle equivalence: max resistance dev {worst_r:.2e} <= 1e-9, "
        f"max Kf dev {worst_kf:.2e} <= 1e-8; pair-sum and spectral routes agree"
    )


def test_4_derivation_identities():
    # (a) the base block recovered by Schur elimination of the gadget block
    for label, spec in builtin_fixtures():
        g, layout = build_pocket_graph(spec)
        lap = laplacian(g)
        perm = block_order(layout)
        lap_b = lap[np.ix_(perm, perm)]
        if spec.k == spec.n:
            cut = spec.n
            expected = laplacian(spec.F)[np.ix_(layout.f_order, layout.f_order)]
        else:
            cut = spec.k
            f1, f2 = split_base_join(spec)
            k, n = spec.k, spec.n
            expected = (
                laplacian(f1)
                + (n - k) * np.eye(k)
                - ((n - k) / k) * np.ones((k, k))
            )
        a, b, d = lap_b[:cut, :cut], lap_b[:cut, cut:], lap_b[cut:, cut:]
        h = a - b @ invert(d) @ b.T
        assert np.abs(h - expected).max() <= 1e-10, label

    # (b) the factored gadget-block inverse equals the direct inverse
    for label, spec in builtin_fixtures():
        l, m, k = spec.l, spec.m, spec.k
        eye = np.eye(k)
        blocks = [
            [
                np.kron(laplacian(spec.H1) + (m - l + 1) * np.eye(l), eye),
                np.kron(-np.ones((l, m - l)), eye),
            ],
            [
                np.kron(-np.ones((m - l, l)), eye),
                np.kron(laplacian(spec.H2) + l * np.eye(m - l), eye),
            ],
        ]
        d = np.block(blocks) if m > l else blocks[0][0]
        p_inv, q_inv, coupling = pocket_d_inverse(spec.H1, spec.H2, k)
        assembled = np.block([[p_inv, coupling], [coupling.T, q_inv]])
        assert np.abs(assembled - invert(d)).max() <= 1e-9, label

    # (c) shifted group inverse satisfies all three defining axioms
    rng = np.random.default_rng(DEFAULT_SEED)
    for a in (0.5, 1.0, 3.0):
        for _ in range(5):
            n = int(rng.integers(2, 9))
            adj = np.triu((rng.random((n, n)) < 0.5).astype(float), 1)
            for i in range(n - 1):
                adj[i, i + 1] = 1.0
            adj = adj + adj.T
            lap = np.diag(adj.sum(axis=1)) - adj
            m_mat = lap + a * np.eye(n) - (a / n) * np.ones((n, n))
            x = shifted_group_inverse(lap, a)
            assert np.abs(m_mat @ x @ m_mat - m_mat).max() <= 1e-9
            assert np.abs(x @ m_mat @ x - x).max() <= 1e-9
            assert np.abs(m_mat @ x - x @ m_mat).max() <= 1e-9
    print(
        "[PASS] 4 derivation identities: Schur reduction to the base block "
        "(1e-10), factored gadget inverse vs direct inverse (1e-9), group "
        "inverse axioms (1e-9)"
    )


def test_5_printed_formula_audit(capsys):
    code = main(["verify", "--sweep", "20"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True

    p3 = next(r for r in payload["instances"] if r["instance"]["label"] == "p3")
    kf_rec = next(
        q for q in p3["quantities"] if q["quantity"] == "Kf" and q["case"]
    )
    assert kf_rec["printed"] == 1.5
    assert kf_rec["oracle"] == 4.0

    seen = {
        q["case"]
        for rep in payload["instances"]
        for q in rep["quantities"]
        if q["case"]
    }
    expected = {f"3.1({c})" for c in THM31_CASES} | {
        f"4.1({c})" for c in THM41_CASES
    }
    missing = expected - seen
    assert not missing, missing
    print(
        "[PASS] 5 printed-formula audit: verify exits 0, reproduces the "
        "3-vertex closed-form deviation (printed 1.5 vs oracle 4), and covers "
        f"all {len(expected)} printed case labels"
    )


def test_6_metric_properties(sweep):
    checked = 0
    for spec, g, lap, n_mat in sweep[:60]:
        check_metric(resistance_matrix(n_mat), 1e-9)
        r_oracle, _ = oracle_resistance(g)
        check_metric(r_oracle, 1e-9)
        checked += 1
    for label, spec in builtin_fixtures():
        s = structured_one_inverse(spec)
        check_metric(resistance_matrix(s.matrix), 1e-9)
        checked += 1
    print(
        f"[PASS] 6 metric properties: symmetry, zero diagonal, nonnegativity "
        f"and triangle inequality hold to 1e-9 on {checked} instances"
    )


def test_7_performance(capsys):
    t0 = time.perf_counter()
    code = main(["bench"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0
    assert elapsed < 120.0
    lines = out.strip().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    big = next(r for r in rows if r[:3] == ["40", "24", "4"])
    assert big[3] == "1000"
    assert big[7] == "yes"  # Kf agreement within 1e-6 is the hard requirement
    speedup = float(big[6])
    print(
        f"[PASS] 7 performance: order-1000 instance agrees on Kf within 1e-6; "
        f"structured path speedup {speedup:.1f}x vs dense oracle "
        f"(target 5x, soft; whole bench {elapsed:.1f}s)"
    )
