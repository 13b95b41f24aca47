"""Independent referee for the benchmark.

It shares no code with ``pocket_kirch``: the pocket graph's edge set is
rebuilt here from the spec's fields, the dense Laplacian is filled with
numpy, and the reference comes from a Cholesky inverse (LAPACK potrf/potri)
of L + J/N, where the library uses LU.  For a connected graph
A = L + J/N is positive definite, A^-1 = L^+ + J/N, so

    Kf   = N * (trace(A^-1) - 1)
    r_uv = A^-1_uu + A^-1_vv - 2 A^-1_uv.

Results are compared with a relative tolerance: the library's absolute
1e-8 misfires once Kf reaches 1e6 and more.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

# Far above float64 round-off and the CLI's 12-significant-digit output,
# far below any real construction error.
RTOL = 1e-9


def pocket_edges(n, f_edges, attach, l, h1_edges, m, h2_edges):
    """Order and (E, 2) edge array of the pocket graph, in global ids.

    Copy c of the gadget hangs at attach[c]; vertex j of H1 in copy c is
    n + j*k + c and vertex j of H2 is n + l*k + j*k + c.
    """
    k = len(attach)
    copies = np.arange(k)

    def h1(j):
        return n + j * k + copies

    def h2(j):
        return n + l * k + j * k + copies

    parts = [np.asarray(sorted(f_edges), dtype=np.int64).reshape(-1, 2)]
    att = np.asarray(attach, dtype=np.int64)
    parts += [np.stack([att, h1(j)], axis=1) for j in range(l)]
    parts += [np.stack([h1(a), h1(b)], axis=1) for a, b in h1_edges]
    parts += [np.stack([h2(a), h2(b)], axis=1) for a, b in h2_edges]
    parts += [
        np.stack([h1(a), h2(b)], axis=1) for a in range(l) for b in range(m - l)
    ]
    return n + m * k, np.concatenate(parts)


def spec_edges(spec):
    """``pocket_edges`` for a ``PocketSpec`` (reads only its fields)."""
    return pocket_edges(
        spec.F.order, spec.F.edges, spec.attach,
        spec.H1.order, spec.H1.edges, spec.H1.order + spec.H2.order, spec.H2.edges,
    )


def reference(order, edges, pairs):
    """Reference Kf and the resistances of ``pairs`` (a (P, 2) array)."""
    a = np.full((order, order), 1.0 / order)
    u, v = edges[:, 0], edges[:, 1]
    a[u, v] -= 1.0
    a[v, u] -= 1.0
    a[np.diag_indices(order)] += np.bincount(edges.ravel(), minlength=order)
    c, info = scipy.linalg.lapack.dpotrf(a, lower=0, overwrite_a=1, clean=1)
    if info != 0:
        raise ValueError(f"L + J/N is not positive definite (potrf info {info})")
    inv, info = scipy.linalg.lapack.dpotri(c, lower=0, overwrite_c=1)
    if info != 0:
        raise ValueError(f"potri failed (info {info})")
    diag = np.diag(inv).copy()
    kf = order * (diag.sum() - 1.0)
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    r = diag[lo] + diag[hi] - 2.0 * inv[lo, hi]  # potri fills the upper triangle
    return float(kf), r


def sample_pairs(rng, order, count):
    """``count`` seeded vertex pairs (u < v), sorted in output order."""
    u = rng.integers(0, order - 1, size=count)
    v = u + 1 + (rng.random(count) * (order - 1 - u)).astype(np.int64)
    pairs = np.unique(np.stack([u, v], axis=1), axis=0)
    return pairs


def mismatches(kf, kf_ref, r, r_ref):
    """Human-readable referee rejections; empty when the answer passes."""
    out = []
    if not abs(kf - kf_ref) <= RTOL * abs(kf_ref):
        out.append(f"Kf {kf!r} vs reference {kf_ref!r}")
    if r is not None:
        r = np.asarray(r, dtype=float)
        bad = ~(np.abs(r - r_ref) <= RTOL * np.abs(r_ref))
        if bad.any():
            i = int(np.argmax(bad))
            out.append(
                f"{int(bad.sum())} of {bad.size} sampled resistances off, "
                f"first {r[i]!r} vs reference {r_ref[i]!r}"
            )
    return out
