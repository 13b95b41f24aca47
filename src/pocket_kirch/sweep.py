"""Seeded random pocket-graph instances and the built-in fixture suite."""

from __future__ import annotations

import numpy as np

from .graphs import Graph, PocketSpec, complete_graph, empty_graph, is_connected, join

DEFAULT_SEED = 20240913

# Desk-derived fixtures; between them they exercise every printed case label
# of both constructions.
def builtin_fixtures() -> list[tuple[str, PocketSpec]]:
    k1 = complete_graph(1)
    k2 = complete_graph(2)
    e2 = empty_graph(2)
    return [
        ("p3", PocketSpec(k1, (0,), k1, k1)),
        ("p4", PocketSpec(k2, (0, 1), k1)),
        ("thm3-rich", PocketSpec(k2, (0, 1), k2, k1)),
        ("thm4-pendant", PocketSpec(join(k1, k1), (0,), k1)),
        ("thm4-9v", PocketSpec(join(k2, k1), (0, 1), k1, k1)),
        ("thm4-rich", PocketSpec(join(k2, e2), (0, 1), k2, k2)),
    ]


EDGE_PROBABILITY = 0.5


def random_graph(rng: np.random.Generator, order: int) -> Graph:
    """Each pair i < j an edge with EDGE_PROBABILITY, drawn in one call in
    row-major pair order: the same draws as one ``rng.random()`` per pair."""
    pairs = np.transpose(np.triu_indices(order, 1))
    return Graph(order, pairs[rng.random(len(pairs)) < EDGE_PROBABILITY])


def random_connected_graph(rng: np.random.Generator, order: int) -> Graph:
    """Random graph plus a random spanning tree to force connectivity."""
    g = random_graph(rng, order)
    if is_connected(g):
        return g
    tree = [(int(rng.integers(0, v)), v) for v in range(1, order)]
    return Graph(order, np.concatenate([g.array, tree]))


def random_spec(
    rng: np.random.Generator,
    max_n: int = 6,
    max_l: int = 4,
    max_h2: int = 4,
) -> PocketSpec:
    """One random instance, alternating fairly between the shapes of the two
    theorems."""
    l = int(rng.integers(1, max_l + 1))
    h1 = random_graph(rng, l)
    h2 = random_graph(rng, int(rng.integers(0, max_h2 + 1)))
    if max_n < 2 or rng.random() < 0.5:
        # k = n (Theorem 3.1): connected F, every vertex attached, shuffled order
        n = int(rng.integers(1, max_n + 1))
        f = random_connected_graph(rng, n)
        attach = tuple(int(x) for x in rng.permutation(n))
        return PocketSpec(f, attach, h1, h2)
    # split base (Theorem 4.1): F = F1 v F2 with k < n
    k = int(rng.integers(1, max_n))
    nk = int(rng.integers(1, max_n - k + 1))
    f = join(random_graph(rng, k), random_graph(rng, nk))
    return PocketSpec(f, tuple(range(k)), h1, h2)


def random_specs(
    count: int,
    seed: int = DEFAULT_SEED,
    max_n: int = 6,
    max_l: int = 4,
    max_h2: int = 4,
) -> list[PocketSpec]:
    rng = np.random.default_rng(seed)
    return [random_spec(rng, max_n, max_l, max_h2) for _ in range(count)]
