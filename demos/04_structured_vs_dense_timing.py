"""Time the structured construction against the dense oracle at scale.

With n base vertices each carrying an m-vertex gadget, the pocket graph
has n + m*n vertices, but the structured path only ever inverts two
matrices, of size n and m. The oracle builds the full Laplacian from the edge
array in a few milliseconds, so its time is the Cholesky inverse of the
N x N matrix L + J/N, which ``oracle_one_inverse`` shifts and inverts in
place, as ``resist --oracle`` and the audit do. Both routes are timed by
``time_route``, as ``pocket-kirch bench`` times its columns: the median of
three calls after one untimed call, with each result dropped before the
next call, so the structured route writes its dense X into the output
buffer the library keeps. (``bench``'s structured column reads Kf from the
two factors instead and writes no N x N array.) At total order 1000 the
structured path is several times faster; the ratio printed moves with
the host and its load, so none is promised here.
"""

import numpy as np

from pocket_kirch import (
    PocketSpec,
    build_pocket_graph,
    kirchhoff_from_one_inverse,
    oracle_one_inverse,
    structured_one_inverse,
)
from pocket_kirch.cli import time_route
from pocket_kirch.sweep import random_connected_graph, random_graph

rng = np.random.default_rng(7)
n, m, l = 40, 24, 4
spec = PocketSpec(
    F=random_connected_graph(rng, n),
    attach=tuple(range(n)),
    H1=random_graph(rng, l),
    H2=random_graph(rng, m - l),
)
print(f"total order = {n + m * n}")


def structured_kf():
    return kirchhoff_from_one_inverse(structured_one_inverse(spec).matrix)


def oracle_kf():
    g, _ = build_pocket_graph(spec)
    return kirchhoff_from_one_inverse(oracle_one_inverse(g), method="oracle")


t_structured, kf_structured = time_route(structured_kf)
t_oracle, kf_oracle = time_route(oracle_kf)

print(f"structured: {t_structured:.3f}s, Kf = {kf_structured.value:.10g}")
print(f"oracle:     {t_oracle:.3f}s, Kf = {kf_oracle.value:.10g}")
print(f"speedup = {t_oracle / t_structured:.1f}x, "
      f"|dKf| = {abs(kf_structured.value - kf_oracle.value):.2e}")
