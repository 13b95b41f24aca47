"""Compute resistance distances two ways and confirm they agree.

The structured path builds a {1}-inverse of the Laplacian from two small
factors (never inverting anything larger than the base or the gadget);
the oracle path densely pseudo-inverts the full Laplacian. Both give the
same resistances because resistance distance is invariant to the choice
of {1}-inverse. The gadget may be any connected graph with a specified
vertex v: the second instance glues C5, rooted at one of its vertices,
which is not of the printed form H1 v (H2 + {v}).
"""

import numpy as np

from pocket_kirch import (
    Graph,
    PocketSpec,
    build_pocket_graph,
    complete_graph,
    kirchhoff_from_one_inverse,
    oracle_resistance,
    path_graph,
    resistance_matrix,
    split_gadget,
    structured_one_inverse,
)


def both_ways(spec):
    g, _ = build_pocket_graph(spec)
    print(f"instance: {g.order} vertices, {g.size} edges")

    structured = structured_one_inverse(spec)
    r_structured = resistance_matrix(structured.matrix)
    kf_structured = kirchhoff_from_one_inverse(structured.matrix)

    r_oracle, kf_oracle = oracle_resistance(g)

    print(f"Kf (structured) = {kf_structured.value:.12g}")
    print(f"Kf (oracle)     = {kf_oracle.value:.12g}")
    print(f"max resistance deviation = {np.abs(r_structured - r_oracle).max():.2e}")
    return r_structured


spec = PocketSpec(
    F=complete_graph(3),
    attach=(0, 1, 2),
    H1=path_graph(2),
    H2=complete_graph(1),
)
r = both_ways(spec)
print()
print("a few resistances:")
for u, v in [(0, 1), (0, 3), (3, 6)]:
    print(f"  r({u},{v}) = {r[u, v]:.12g}")

# C5 rooted at vertex 0: H1 = N(0) = {1, 4}, H2 = {2, 3}, and only the
# H1-H2 edges 1-2 and 4-3 (a join would have all four)
c5 = Graph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}))
h1, h2, cross = split_gadget(c5, 0)
print()
print(f"C5 rooted at 0: H1-H2 edges {sorted(cross)} of {h1.order * h2.order}")
both_ways(PocketSpec(complete_graph(3), (0, 1, 2), h1, h2, cross))
