"""Exact-rational referee for the float oracle and the structured route.

Both float routes invert symmetric positive definite matrices by Cholesky,
and so does the benchmark's referee; this one shares no arithmetic with
them. It takes L# = (L + J/N)^-1 - J/N by Gauss-Jordan elimination over
``fractions.Fraction``, so every resistance and Kirchhoff index below is
exact, on the built-in fixtures and on small seeded instances, among them
attachment sets over which F is not a join F1 v F2.
"""

from fractions import Fraction

import numpy as np
import pytest

from pocket_kirch import (
    JoinStructureError,
    PocketSpec,
    build_pocket_graph,
    kirchhoff_from_one_inverse,
    oracle_resistance,
    resistance_matrix,
    split_base_join,
    structured_one_inverse,
)
from pocket_kirch.sweep import builtin_fixtures, random_connected_graph, random_graph, random_specs

RTOL = 1e-12


def exact_inverse(a: list[list[Fraction]]) -> list[list[Fraction]]:
    """Inverse of a nonsingular rational matrix by Gauss-Jordan elimination."""
    n = len(a)
    rows = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for r in range(n):
            factor = rows[r][col]
            if r != col and factor != 0:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def exact_resistances(g) -> tuple[list[list[Fraction]], Fraction]:
    """All-pairs r and Kf from L# = (L + J/N)^-1 - J/N, exactly."""
    n = g.order
    shift = Fraction(1, n)
    a = [[shift] * n for _ in range(n)]
    for u, v in g.edges:
        a[u][v] -= 1
        a[v][u] -= 1
        a[u][u] += 1
        a[v][v] += 1
    x = [[entry - shift for entry in row] for row in exact_inverse(a)]
    r = [[x[u][u] + x[v][v] - 2 * x[u][v] for v in range(n)] for u in range(n)]
    kf = n * sum(x[u][u] for u in range(n)) - sum(map(sum, x))
    return r, kf


def _small_random_specs(count=20, max_order=16):
    specs = [s for s in random_specs(200, seed=4242) if s.n + s.m * s.k <= max_order]
    return specs[:count]


def _is_join(spec) -> bool:
    try:
        split_base_join(spec)
    except JoinStructureError:
        return False
    return True


def _non_join_specs(count=6, max_order=16, seed=99):
    """Seeded specs with k < n whose F is not F1 v F2 over the attached
    vertices: connected F of order 3..6, a proper attachment subset."""
    rng = np.random.default_rng(seed)
    specs = []
    while len(specs) < count:
        n = int(rng.integers(3, 7))
        f = random_connected_graph(rng, n)
        attach = tuple(int(x) for x in rng.permutation(n)[: int(rng.integers(1, n))])
        h1 = random_graph(rng, int(rng.integers(1, 3)))
        spec = PocketSpec(f, attach, h1, random_graph(rng, int(rng.integers(0, 3))))
        if spec.n + spec.m * spec.k <= max_order and not _is_join(spec):
            specs.append(spec)
    return specs


CASES = (
    [(label, spec) for label, spec in builtin_fixtures()]
    + [(f"random-{i}", spec) for i, spec in enumerate(_small_random_specs())]
    + [(f"non-join-{i}", spec) for i, spec in enumerate(_non_join_specs())]
)


def test_cases_cover_both_paths_and_orders():
    orders = [spec.n + spec.m * spec.k for _, spec in CASES]
    assert len(CASES) == 32
    assert min(orders) == 3 and max(orders) <= 16
    assert any(s.k == s.n for _, s in CASES[6:]) and any(s.k < s.n for _, s in CASES[6:])
    assert any(s.k < s.n and not _is_join(s) for _, s in CASES)


def test_exact_inverse_small():
    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    assert exact_inverse(a) == [[1, -1], [-1, 2]]


@pytest.mark.parametrize("label,spec", CASES, ids=[label for label, _ in CASES])
def test_float_routes_match_exact_referee(label, spec):
    g, _ = build_pocket_graph(spec)
    r_exact, kf_exact = exact_resistances(g)
    exact = np.array([[float(x) for x in row] for row in r_exact])
    off = ~np.eye(g.order, dtype=bool)
    assert exact[off].min() > 0

    r_oracle, kf_oracle = oracle_resistance(g)
    x = structured_one_inverse(spec).matrix
    r_struct = resistance_matrix(x)
    kf_struct = kirchhoff_from_one_inverse(x)
    for r in (r_oracle, r_struct):
        assert np.abs(np.diag(r)).max() == 0.0
        assert (np.abs(r - exact)[off] / exact[off]).max() <= RTOL, label
    for kf in (kf_oracle.value, kf_struct.value):
        assert abs(kf - kf_exact) <= RTOL * kf_exact, label
