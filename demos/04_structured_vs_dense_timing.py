"""Time the structured construction against the dense oracle at scale.

With n base vertices each carrying an m-vertex gadget, the pocket graph
has n + m*n vertices, but the structured path only ever inverts matrices
of size n, l, or m - l. The oracle builds the full Laplacian from the edge
array in a few milliseconds, so its time is the Cholesky inverse of the
N x N matrix L + J/N; at total order 1000 the structured path is about
8-18 times faster.
"""

import time

import numpy as np

from pocket_kirch import (
    PocketSpec,
    build_pocket_graph,
    kirchhoff_from_one_inverse,
    laplacian,
    pseudo_inverse_laplacian,
    theorem3_one_inverse,
)
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

t0 = time.perf_counter()
s = theorem3_one_inverse(spec)
kf_structured = kirchhoff_from_one_inverse(s.matrix)
t_structured = time.perf_counter() - t0

t0 = time.perf_counter()
g, _ = build_pocket_graph(spec)
x = pseudo_inverse_laplacian(laplacian(g))
kf_oracle = kirchhoff_from_one_inverse(x, method="oracle")
t_oracle = time.perf_counter() - t0

print(f"structured: {t_structured:.3f}s, Kf = {kf_structured.value:.10g}")
print(f"oracle:     {t_oracle:.3f}s, Kf = {kf_oracle.value:.10g}")
print(f"speedup = {t_oracle / t_structured:.1f}x, "
      f"|dKf| = {abs(kf_structured.value - kf_oracle.value):.2e}")
