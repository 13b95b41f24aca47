"""Verbatim printed case formulas and the discrepancy audit.

The per-case resistance expressions and the closed-form Kirchhoff indices
are evaluated character-faithfully from the instance's small factors, even
where desk derivation shows them to disagree with the verified block
construction (those disagreements are the point of the audit: they are
reported, never silently corrected). The structured block construction and
the brute-force pseudoinverse oracle are the computational ground truth.

Each printed class has one evaluator, ``evaluate``, which computes every
case as one numpy expression over index arrays of vertex pairs; the audit
calls it once over all pairs and builds its records in one pass, and the
per-pair ``resistance`` and ``applicable_cases`` are one-pair calls of it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .graphs import (
    BLOCKS,
    JoinStructureError,
    PocketSpec,
    build_pocket_graph,
    laplacian,
    make_layout,
)
from .linalg import eigenvalues_sym
from .oneinv import (
    StructuredOneInverse,
    _p_factor,
    _q_factor,
    split_base_join,
    structured_one_inverse,
)
from .resistance import (
    kirchhoff_from_one_inverse,
    kirchhoff_spectral,
    oracle_resistance,
    resistance_matrix,
)

THM31_CASES = ("i", "ii", "iii", "iv", "v", "kf")
THM41_CASES = ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix")
_F, _H1, _H2 = (BLOCKS.index(b) for b in ("F", "H1", "H2"))  # locate_all's codes


class CaseMismatchError(ValueError):
    """Vertex pair does not fit the named case, or a printed factor has no
    entry at the resolved indices."""


@dataclass(frozen=True)
class CaseId:
    theorem: str  # "3.1" or "4.1"
    label: str

    def __post_init__(self):
        valid = {"3.1": THM31_CASES, "4.1": THM41_CASES}.get(self.theorem)
        if valid is None or self.label not in valid:
            raise ValueError(f"unknown case {self.theorem}({self.label})")

    def __str__(self):
        return f"{self.theorem}({self.label})"


def _oriented(block, u, v, first, second):
    """The pairs (u[i], v[i]) whose blocks are {first, second}: their row
    indices, and their two ends with the ``first``-block end put first.
    A pair inside one block keeps its given order."""
    bu, bv = block[u], block[v]
    forward = (bu == first) & (bv == second)
    back = (bu == second) & (bv == first) & ~forward
    rows = np.flatnonzero(forward | back)
    swap = back[rows]
    return rows, np.where(swap, v[rows], u[rows]), np.where(swap, u[rows], v[rows])


def _kron_case(rows, a, b, local, copy, diag_a, diag_b, small):
    """(kept, values) of a display diag_a[i, i] + diag_b[j, j] - 2 s, whose
    cross term s is read off small (x) I at block indices (i, c) = (local[a],
    copy[a]) and (j, c') = (local[b], copy[b]) of the pairs ``rows``.

    s is small[i, j] where c = c' and 0 elsewhere; a pair with (i, j)
    outside small's shape has no entry and is dropped from ``kept``."""
    i, j = local[a], local[b]
    fits = (i < small.shape[0]) & (j < small.shape[1])
    a, b, i, j = a[fits], b[fits], i[fits], j[fits]
    cross = np.where(copy[a] == copy[b], small[i, j], 0.0)
    return rows[fits], diag_a[i, i] + diag_b[j, j] - 2 * cross


def _one_pair(layout, u: int, v: int):
    """Global ids u, v as one-pair index arrays; IndexError when either is
    out of range, as ``layout.locate`` raises."""
    layout.locate(u)
    layout.locate(v)
    return np.array([u]), np.array([v])


def _applicable(printed, u: int, v: int) -> list[str]:
    """The cases stated for the block pair of (u, v), from the evaluator."""
    return [case for case, rows, _, _ in printed.evaluate(*_one_pair(printed.layout, u, v))
            if rows.size]


def _pair_resistance(printed, case: str, u: int, v: int) -> float:
    """One case's printed value at (u, v), from the evaluator."""
    for label, rows, kept, values in printed.evaluate(*_one_pair(printed.layout, u, v)):
        if label != case:
            continue
        if not rows.size:
            raise CaseMismatchError(f"pair ({u},{v}) does not fit case {case}")
        if not kept.size:
            raise CaseMismatchError(
                f"printed factor of case {case} has no entry for pair ({u},{v})"
            )
        return float(values[0])
    raise CaseMismatchError(f"case {case} is not a resistance case")


def _pocket_cases(printed, u, v, labels) -> list[tuple]:
    """The four displays both theorems print alike, under their ``labels``:
    F against an H1 copy and against an H2 copy, stated with the F vertex
    first (pocket copy c hangs off F position c), then H1 against H2 and
    H2 against H1, whose cross terms read off the P block and the Q block.
    """
    block, local, copy = printed.block, printed.local, printed.copy
    ls, p_inv, q_inv = printed.lf_sharp, printed.p_inv, printed.q_inv
    out = []
    for case, h, diag in zip(labels[:2], (_H1, _H2), (p_inv, q_inv)):
        rows, a, b = _oriented(block, u, v, _F, h)
        fa, hb = local[a], local[b]
        out.append((case, rows, rows, ls[fa, fa] + diag[hb, hb] - 2 * ls[fa, copy[b]]))
    for case, first, second, da, db in zip(
        labels[2:], (_H1, _H2), (_H2, _H1), (p_inv, q_inv), (q_inv, p_inv)
    ):
        rows, a, b = _oriented(block, u, v, first, second)
        out.append((case, rows, *_kron_case(rows, a, b, local, copy, da, db, da)))
    return out


class Theorem31Printed:
    """Printed case formulas for the all-vertices-pocketed construction.

    The factors L#(F), P^-1 and Q^-1 are taken from ``structured`` (the
    spec's ``structured_one_inverse`` result), computed when not given.
    """

    def __init__(self, spec: PocketSpec, structured: StructuredOneInverse | None = None):
        if spec.k != spec.n:
            raise ValueError("printed cases of this theorem require k = n")
        self.spec = spec
        self.layout = make_layout(spec)
        self.block, self.local, self.copy = self.layout.locate_all()
        factors = (structured or structured_one_inverse(spec)).ingredients
        self.lf_sharp = factors["base_sharp"]  # L#(F)
        self.p_inv = factors["p_inv_factor"]
        self.q_inv = factors["q_inv_factor"]

    def evaluate(self, u: np.ndarray, v: np.ndarray) -> list[tuple]:
        """Every printed resistance case over the pairs (u[i], v[i]) of global
        ids, as (case, rows, kept, values) in case order: rows index the
        pairs of the case's block pair, kept the subset the display has an
        entry for, and values its printed value on each kept pair."""
        rows, a, b = _oriented(self.block, u, v, _F, _F)
        a, b = self.local[a], self.local[b]
        ls = self.lf_sharp
        return [("i", rows, rows, ls[a, a] + ls[b, b] - 2 * ls[a, b])] + _pocket_cases(
            self, u, v, ("ii", "iii", "iv", "v")
        )

    def applicable_cases(self, u: int, v: int) -> list[str]:
        return _applicable(self, u, v)

    def resistance(self, case: str, u: int, v: int) -> float:
        """Evaluate the printed case expression at global vertices u, v."""
        CaseId("3.1", case)
        return _pair_resistance(self, case, u, v)

    def kirchhoff(self) -> float:
        spec = self.spec
        kf_f = kirchhoff_from_one_inverse(self.lf_sharp).value
        mu = eigenvalues_sym(laplacian(spec.H1))
        nu = eigenvalues_sym(laplacian(spec.H2))
        return thm31_printed_kf(kf_f, mu, nu, spec.n, spec.m, spec.l)


def thm31_printed_kf(kf_f: float, mu, nu, n: int, m: int, l: int) -> float:
    """The closed-form Kirchhoff display, evaluated verbatim.

    mu, nu are the ascending Laplacian spectra of H1, H2; sums start at the
    second eigenvalue and empty ranges contribute zero. The subtracted
    ((m-l)^2 (m-l+1)/l + l^2) tail is kept exactly as displayed.
    """
    mu = np.sort(np.asarray(mu, dtype=float))
    nu = np.sort(np.asarray(nu, dtype=float))
    h1_term = n * float(np.sum(1.0 / (mu[1:] + (m - l + 1)))) + n
    h2_term = n * float(np.sum(1.0 / (nu[1:] + l))) + n * l / (m - l + 1)
    bracket = (m + 1) / n * kf_f + h1_term + h2_term
    return n * (m + 1) * bracket - ((m - l) ** 2 * (m - l + 1) / l + l**2)


class Theorem41Printed:
    """Printed case formulas of Theorem 4.1: a split base F = F1 v F2 with
    pockets on every F1 vertex.

    Every factor is read off ``structured`` (the spec's
    ``structured_one_inverse`` result, computed when not given), so the
    audit inverts nothing of its own: L#(F), P^-1 and Q^-1 as they are, and
    both split factors from the diagonal blocks of L#(F). On the vectors
    summing to zero within one side, L(F) acts as L(F1) + (n-k)I or as
    L(F2) + kI, whose inverses map 1 to itself with eigenvalue 1/(n-k) or
    1/k; so each inverse is its block of L#(F), centred, plus J/(k(n-k)).
    """

    def __init__(self, spec: PocketSpec, structured: StructuredOneInverse | None = None):
        f1, f2 = split_base_join(spec)
        self.spec = spec
        self.f1, self.f2 = f1, f2
        self.layout = make_layout(spec)
        self.block, self.local, self.copy = self.layout.locate_all()
        n, k = spec.n, spec.k
        factors = (structured or structured_one_inverse(spec)).ingredients
        self.lf_sharp = factors["base_sharp"]
        ones = 1.0 / (k * (n - k))
        self.f1_inv = _centred(self.lf_sharp[:k, :k]) + ones  # (L(F1) + (n-k)I)^-1
        self.f2_inv = _centred(self.lf_sharp[k:, k:]) + ones  # (L(F2) + kI)^-1
        self.p_mat = _p_factor(spec.H1, spec.m)
        self.p_inv = factors["p_inv_factor"]
        if spec.m > spec.l:
            self.q_mat = _q_factor(spec.H2, spec.l, spec.m)
        else:
            self.q_mat = np.zeros((0, 0))
        self.q_inv = factors["q_inv_factor"]

    def evaluate(self, u: np.ndarray, v: np.ndarray) -> list[tuple]:
        """Every printed resistance case over the pairs (u[i], v[i]) of global
        ids, as (case, rows, kept, values) in case order: rows index the
        pairs of the case's block pair, kept the subset the display has an
        entry for, and values its printed value on each kept pair. F1 is
        the first k F positions (the attached vertices), F2 the rest."""
        block, local, copy = self.block, self.local, self.copy
        spec = self.spec
        k = spec.k
        rows, a, b = _oriented(block, u, v, _F, _F)
        a, b = local[a], local[b]
        out = []
        # i: the display subtracts the scalar (n-k)/k from each entry
        for case, part, x, shift in (
            ("i", (a < k) & (b < k), self.f1_inv - (spec.n - k) / k, 0),
            ("ii", (a >= k) & (b >= k), self.f2_inv, k),
        ):
            i, j = a[part] - shift, b[part] - shift
            out.append((case, rows[part], rows[part], x[i, i] + x[j, j] - 2 * x[i, j]))
        # iii, iv: the displays omit the inversion on these blocks; kept verbatim
        for case, h, x in (("iii", _H1, self.p_mat), ("iv", _H2, self.q_mat)):
            rows, a, b = _oriented(block, u, v, h, h)
            out.append((case, rows, *_kron_case(rows, a, b, local, copy, x, x, x)))
        # v, vi quantify over all of V(F), F1 and F2 alike
        return out + _pocket_cases(self, u, v, ("v", "vi", "vii", "viii"))

    def applicable_cases(self, u: int, v: int) -> list[str]:
        return _applicable(self, u, v)

    def resistance(self, case: str, u: int, v: int) -> float:
        """Evaluate the printed case expression at global vertices u, v."""
        CaseId("4.1", case)
        return _pair_resistance(self, case, u, v)

    def kirchhoff(self) -> float:
        spec = self.spec
        alpha = eigenvalues_sym(laplacian(self.f1))
        beta = eigenvalues_sym(laplacian(self.f2))
        mu = eigenvalues_sym(laplacian(spec.H1))
        nu = eigenvalues_sym(laplacian(spec.H2))
        return thm41_printed_kf(
            alpha, beta, mu, nu, spec.n, spec.k, spec.m, spec.l
        )


def _centred(b: np.ndarray) -> np.ndarray:
    """(I - J/p) B (I - J/q): B less its row and column means, plus its
    grand mean."""
    return b - b.mean(axis=0) - b.mean(axis=1)[:, None] + b.mean()


def thm41_printed_kf(alpha, beta, mu, nu, n: int, k: int, m: int, l: int) -> float:
    """The (n + mk)[...] - (...) Kirchhoff display, evaluated verbatim.

    alpha, beta, mu, nu are the ascending spectra of F1, F2, H1, H2. The
    alpha sum runs from i = 1 (its zero eigenvalue contributes
    1/(n-k) - 1/(n-k) as printed); empty ranges contribute zero.
    """
    if k >= n:
        raise ValueError("this display requires k < n")
    alpha = np.sort(np.asarray(alpha, dtype=float))
    beta = np.sort(np.asarray(beta, dtype=float))
    mu = np.sort(np.asarray(mu, dtype=float))
    nu = np.sort(np.asarray(nu, dtype=float))
    f1_term = 2 * float(np.sum(1.0 / (alpha + (n - k)) - 1.0 / (n - k)))
    f2_term = float(np.sum(1.0 / (beta + k)))
    h1_term = k * float(np.sum(1.0 / (mu[1:] + (m - l + 1)))) + k
    h2_term = k * float(np.sum(1.0 / (nu[1:] + l))) + l * (2 * m - 2 * l + 1) / (
        m - l + 1
    )
    bracket = f1_term + f2_term + h1_term + h2_term + k + k * (m - l) / l
    tail = l**2 + (m - l) * (m - l + 1) / l + 2 * k * (m - l)
    return (n + m * k) * bracket - tail


# ---------------------------------------------------------------------------
# Discrepancy audit

@dataclass
class QuantityRecord:
    quantity: str
    oracle: float
    structured: float | None = None
    printed: float | None = None
    case: str | None = None
    structured_dev: float | None = None
    printed_dev: float | None = None
    structured_ok: bool | None = None

    def to_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "oracle": _round12(self.oracle),
            "structured": _round12(self.structured),
            "printed": _round12(self.printed),
            "case": self.case,
            "structured_dev": _round12(self.structured_dev),
            "printed_dev": _round12(self.printed_dev),
            "structured_ok": self.structured_ok,
        }


@dataclass
class DiscrepancyReport:
    instance: dict
    tol_r: float
    tol_kf: float
    records: list[QuantityRecord] = field(default_factory=list)
    one_inverse_residual: float = 0.0
    ok: bool = True

    def to_dict(self) -> dict:
        return {
            "instance": self.instance,
            "tolerances": {"resistance": self.tol_r, "kirchhoff": self.tol_kf},
            "one_inverse_residual": _round12(self.one_inverse_residual),
            "ok": self.ok,
            "quantities": [r.to_dict() for r in self.records],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_table(self) -> str:
        header = f"{'quantity':<16}{'case':<10}{'oracle':>16}{'structured':>16}{'printed':>16}{'ok':>5}"
        lines = [header, "-" * len(header)]
        for r in self.records:
            lines.append(
                f"{r.quantity:<16}{r.case or '-':<10}"
                f"{_fmt(r.oracle):>16}{_fmt(r.structured):>16}{_fmt(r.printed):>16}"
                f"{_ok(r.structured_ok):>5}"
            )
        lines.append(f"overall: {'PASS' if self.ok else 'FAIL'} "
                     f"(|LNL-L| = {_fmt(self.one_inverse_residual)})")
        return "\n".join(lines)


def _fmt(x) -> str:
    return "-" if x is None else format(x, ".12g")


def _ok(flag) -> str:
    return "-" if flag is None else ("yes" if flag else "NO")


def _round12(x):
    return None if x is None else float(format(float(x), ".12g"))


# Pairs per block of records: bounds the transient index arrays and
# columns to a few hundred kB, next to the records that stay.
_PAIRS_PER_BLOCK = 4096


def _pair_records(
    r_oracle, r_struct, tol_r, printed, theorem
) -> tuple[list[QuantityRecord], bool]:
    """The records of the pairs u < v, in row-major order, and whether
    every structured value is within tol_r of the oracle's.

    A pair gets one record per printed case that applies to it, in case
    order, or one record without a printed value when none applies (or no
    applicable display has an entry for it). Each case is evaluated over
    index arrays of the pairs, a block of consecutive pairs at a time, and
    each block's records are built in one pass over plain-list columns.
    """
    iu, iv = np.triu_indices(r_oracle.shape[0], 1)
    records = []
    ok = True
    for lo in range(0, iu.size, _PAIRS_PER_BLOCK):
        u, v = iu[lo:lo + _PAIRS_PER_BLOCK], iv[lo:lo + _PAIRS_PER_BLOCK]
        ok = _block_records(u, v, r_oracle, r_struct, tol_r, printed, theorem, records) and ok
    return records, ok


def _block_records(u, v, r_oracle, r_struct, tol_r, printed, theorem, records) -> bool:
    """Append the records of the pairs (u[i], v[i]) to ``records``; whether
    every structured value is within tol_r of the oracle's."""
    oracle = r_oracle[u, v]
    structured = r_struct[u, v]
    dev = np.abs(structured - oracle)
    ok = dev <= tol_r
    labels = [None]  # case code 0: no printed value
    pairs, codes, values = [], [], []
    if printed is not None:
        for case, _, kept, printed_values in printed.evaluate(u, v):
            pairs.append(kept)
            codes.append(np.full(kept.size, len(labels)))
            values.append(printed_values)
            labels.append(f"{theorem}({case})")
    bare = np.ones(u.size, dtype=bool)
    for kept in pairs:
        bare[kept] = False
    pairs.append(np.flatnonzero(bare))
    codes.append(np.zeros(pairs[-1].size, dtype=int))
    values.append(np.full(pairs[-1].size, np.nan))
    pair = np.concatenate(pairs)
    order = np.argsort(pair, kind="stable")  # a pair's cases keep their order
    pair = pair[order]
    code = np.concatenate(codes)[order]
    value = np.concatenate(values)[order]
    printed_col = value.tolist()
    printed_dev_col = np.abs(value - oracle[pair]).tolist()
    for i in np.flatnonzero(code == 0).tolist():
        printed_col[i] = printed_dev_col[i] = None
    records.extend(map(
        QuantityRecord,
        [f"r[{a},{b}]" for a, b in zip(u[pair].tolist(), v[pair].tolist())],
        oracle[pair].tolist(),
        structured[pair].tolist(),
        printed_col,
        [labels[c] for c in code.tolist()],
        dev[pair].tolist(),
        printed_dev_col,
        ok[pair].tolist(),
    ))
    return bool(ok.all())


def _printed_theorem(spec: PocketSpec) -> str | None:
    """The theorem whose printed formulas state this spec's resistances:
    3.1 when every F vertex is attached, 4.1 when F = F1 v F2 over the
    attached vertices, None otherwise."""
    if spec.k == spec.n:
        return "3.1"
    try:
        split_base_join(spec)
    except JoinStructureError:
        return None
    return "4.1"


def verify_construction(
    spec: PocketSpec,
    tol_r: float = 1e-9,
    tol_kf: float = 1e-8,
    include_printed: bool = True,
    label: str = "",
) -> DiscrepancyReport:
    """Audit one instance: oracle vs block construction vs printed formulas.

    Structured-vs-oracle violations flip the report's ok flag; printed
    deviations are recorded but never fatal. A spec that neither theorem
    states (k < n with F not F1 v F2) gets no printed records and
    ``"theorem": None``. Each printed case is evaluated over index arrays
    of all pairs u < v at once, and the records are built in one pass over
    the resulting columns: pairs in row-major order, then Kf, Kf[spectral]
    and the printed Kf.
    """
    g, layout = build_pocket_graph(spec)
    r_oracle, kf_oracle = oracle_resistance(g)
    structured = structured_one_inverse(spec)
    lap = laplacian(g)
    residual = float(np.abs(lap @ structured.matrix @ lap - lap).max())
    r_struct = resistance_matrix(structured.matrix)
    kf_struct = kirchhoff_from_one_inverse(structured.matrix)
    kf_spectral = kirchhoff_spectral(eigenvalues_sym(lap), g.order)

    theorem = _printed_theorem(spec)
    printed = None
    if include_printed and theorem is not None:
        printed_class = Theorem31Printed if theorem == "3.1" else Theorem41Printed
        printed = printed_class(spec, structured)

    records, pairs_ok = _pair_records(r_oracle, r_struct, tol_r, printed, theorem)
    kf_dev = float(abs(kf_struct.value - kf_oracle.value))
    spec_dev = float(abs(kf_spectral.value - kf_oracle.value))
    records.append(
        QuantityRecord(
            quantity="Kf",
            oracle=kf_oracle.value,
            structured=kf_struct.value,
            structured_dev=kf_dev,
            structured_ok=bool(kf_dev <= tol_kf),
        )
    )
    records.append(
        QuantityRecord(
            quantity="Kf[spectral]",
            oracle=kf_oracle.value,
            structured=kf_spectral.value,
            structured_dev=spec_dev,
            structured_ok=bool(spec_dev <= tol_kf),
        )
    )
    if printed is not None:
        kf_printed = printed.kirchhoff()
        records.append(
            QuantityRecord(
                quantity="Kf",
                oracle=kf_oracle.value,
                printed=kf_printed,
                printed_dev=abs(kf_printed - kf_oracle.value),
                case=f"{theorem}({'kf' if theorem == '3.1' else 'ix'})",
            )
        )
    return DiscrepancyReport(
        instance={
            "label": label,
            "n": spec.n,
            "k": spec.k,
            "l": spec.l,
            "m": spec.m,
            "attach": list(spec.attach),
            "order": g.order,
            "edges": g.size,
            "theorem": theorem,
        },
        tol_r=tol_r,
        tol_kf=tol_kf,
        records=records,
        one_inverse_residual=residual,
        ok=residual <= tol_r and pairs_ok and kf_dev <= tol_kf and spec_dev <= tol_kf,
    )
