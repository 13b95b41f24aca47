"""Verbatim printed case formulas and the discrepancy audit.

The per-case resistance expressions and the closed-form Kirchhoff indices
are evaluated character-faithfully from the instance's small factors, even
where desk derivation shows them to disagree with the verified block
construction (those disagreements are the point of the audit: they are
reported, never silently corrected). The structured block construction and
the brute-force pseudoinverse oracle are the computational ground truth.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .graphs import PocketSpec, build_pocket_graph, laplacian, make_layout
from .linalg import eigenvalues_sym
from .oneinv import (
    StructuredOneInverse,
    _p_factor,
    _q_factor,
    _split_base_block,
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


def _kron_entry(small: np.ndarray, li: int, ci: int, lj: int, cj: int) -> float:
    """Entry of small (x) I at block indices; mismatch when out of range."""
    rows, cols = small.shape
    if not (0 <= li < rows and 0 <= lj < cols):
        raise CaseMismatchError(
            f"printed factor of shape {small.shape} has no entry ({li},{lj})"
        )
    return float(small[li, lj]) if ci == cj else 0.0


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
        factors = (structured or structured_one_inverse(spec)).ingredients
        self.lf_sharp = factors["base_sharp"]  # L#(F) when k = n
        self.p_inv = factors["p_inv_factor"]
        self.q_inv = factors["q_inv_factor"]

    def applicable_cases(self, u: int, v: int) -> list[str]:
        bu = self.layout.locate(u)[0]
        bv = self.layout.locate(v)[0]
        table = {
            frozenset(["F"]): ["i"],
            frozenset(["F", "H1"]): ["ii"],
            frozenset(["F", "H2"]): ["iii"],
            frozenset(["H1", "H2"]): ["iv", "v"],
        }
        return table.get(frozenset([bu, bv]), [])

    def resistance(self, case: str, u: int, v: int) -> float:
        """Evaluate the printed case expression at global vertices u, v."""
        CaseId("3.1", case)
        bu, lu, cu = self.layout.locate(u)
        bv, lv, cv = self.layout.locate(v)
        ls = self.lf_sharp
        if case == "i":
            _require(bu == "F" and bv == "F", case, u, v)
            return float(ls[lu, lu] + ls[lv, lv] - 2 * ls[lu, lv])
        if case in ("ii", "iii"):
            if bu != "F":  # formula is stated with i in V(F)
                (bu, lu, cu), (bv, lv, cv) = (bv, lv, cv), (bu, lu, cu)
            _require(bu == "F" and bv == ("H1" if case == "ii" else "H2"), case, u, v)
            diag = self.p_inv if case == "ii" else self.q_inv
            return float(ls[lu, lu] + diag[lv, lv] - 2 * ls[lu, cv])
        if case == "iv":
            if bu == "H2" and bv == "H1":
                (bu, lu, cu), (bv, lv, cv) = (bv, lv, cv), (bu, lu, cu)
            _require(bu == "H1" and bv == "H2", case, u, v)
            # printed cross term reads off the P block
            return float(
                self.p_inv[lu, lu]
                + self.q_inv[lv, lv]
                - 2 * _kron_entry(self.p_inv, lu, cu, lv, cv)
            )
        if case == "v":
            if bu == "H1" and bv == "H2":
                (bu, lu, cu), (bv, lv, cv) = (bv, lv, cv), (bu, lu, cu)
            _require(bu == "H2" and bv == "H1", case, u, v)
            return float(
                self.q_inv[lu, lu]
                + self.p_inv[lv, lv]
                - 2 * _kron_entry(self.q_inv, lu, cu, lv, cv)
            )
        raise CaseMismatchError(f"case {case} is not a resistance case")

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
    """Printed case formulas for the split-base construction F = F1 v F2.

    Every factor is read off ``structured`` (the spec's
    ``structured_one_inverse`` result, computed when not given), so the
    audit inverts nothing of its own: P^-1, Q^-1 and (L(F2) + kI)^-1 as
    they are; (L(F1) + (n-k)I)^-1 = H# + J/((n-k)k) from the base factor H#;
    and L#(F) = (I - J/n) B (I - J/n) from the split base block B.
    """

    def __init__(self, spec: PocketSpec, structured: StructuredOneInverse | None = None):
        f1, f2 = split_base_join(spec)
        self.spec = spec
        self.f1, self.f2 = f1, f2
        self.layout = make_layout(spec)
        n, k = spec.n, spec.k
        factors = (structured or structured_one_inverse(spec)).ingredients
        h_sharp = factors["base_sharp"]
        self.f1_inv = h_sharp + 1.0 / ((n - k) * k)
        self.f2_inv = factors["f2_inv"]
        base = _split_base_block(h_sharp, self.f2_inv)
        self.lf_sharp = (
            base - base.mean(axis=0) - base.mean(axis=1)[:, None] + base.mean()
        )
        self.p_mat = _p_factor(spec.H1, spec.m)
        self.p_inv = factors["p_inv_factor"]
        if spec.m > spec.l:
            self.q_mat = _q_factor(spec.H2, spec.l, spec.m)
        else:
            self.q_mat = np.zeros((0, 0))
        self.q_inv = factors["q_inv_factor"]

    def _subblock(self, g: int) -> tuple[str, int, int]:
        """Like layout.locate but splitting F into F1 / F2."""
        block, local, copy = self.layout.locate(g)
        if block == "F":
            return ("F1", local, 0) if local < self.spec.k else ("F2", local - self.spec.k, 0)
        return block, local, copy

    def applicable_cases(self, u: int, v: int) -> list[str]:
        bu = self._subblock(u)[0]
        bv = self._subblock(v)[0]
        pair = frozenset([bu, bv])
        cases = []
        if pair == frozenset(["F1"]):
            cases.append("i")
        if pair == frozenset(["F2"]):
            cases.append("ii")
        if pair == frozenset(["H1"]):
            cases.append("iii")
        if pair == frozenset(["H2"]):
            cases.append("iv")
        # cases v/vi quantify over all of V(F)
        if ("H1" in pair) and (bu.startswith("F") or bv.startswith("F")):
            cases.append("v")
        if ("H2" in pair) and (bu.startswith("F") or bv.startswith("F")):
            cases.append("vi")
        if pair == frozenset(["H1", "H2"]):
            cases.extend(["vii", "viii"])
        return cases

    def resistance(self, case: str, u: int, v: int) -> float:
        CaseId("4.1", case)
        bu, lu, cu = self._subblock(u)
        bv, lv, cv = self._subblock(v)
        spec = self.spec
        if case == "i":
            _require(bu == "F1" and bv == "F1", case, u, v)
            # the display subtracts the scalar (n-k)/k from each entry
            x = self.f1_inv - (spec.n - spec.k) / spec.k
            return float(x[lu, lu] + x[lv, lv] - 2 * x[lu, lv])
        if case == "ii":
            _require(bu == "F2" and bv == "F2", case, u, v)
            x = self.f2_inv
            return float(x[lu, lu] + x[lv, lv] - 2 * x[lu, lv])
        if case in ("iii", "iv"):
            want = "H1" if case == "iii" else "H2"
            _require(bu == want and bv == want, case, u, v)
            # the display omits the inversion on these blocks; kept verbatim
            x = self.p_mat if case == "iii" else self.q_mat
            return float(
                x[lu, lu] + x[lv, lv] - 2 * _kron_entry(x, lu, cu, lv, cv)
            )
        if case in ("v", "vi"):
            if not bu.startswith("F"):
                (bu, lu, cu), (bv, lv, cv) = (bv, lv, cv), (bu, lu, cu)
            want = "H1" if case == "v" else "H2"
            _require(bu.startswith("F") and bv == want, case, u, v)
            # F-block position in layout order, whether F1 or F2
            fi = lu if bu == "F1" else spec.k + lu
            diag = self.p_inv if case == "v" else self.q_inv
            ls = self.lf_sharp
            return float(ls[fi, fi] + diag[lv, lv] - 2 * ls[fi, cv])
        if case == "vii":
            if bu == "H2" and bv == "H1":
                (bu, lu, cu), (bv, lv, cv) = (bv, lv, cv), (bu, lu, cu)
            _require(bu == "H1" and bv == "H2", case, u, v)
            return float(
                self.p_inv[lu, lu]
                + self.q_inv[lv, lv]
                - 2 * _kron_entry(self.p_inv, lu, cu, lv, cv)
            )
        if case == "viii":
            if bu == "H1" and bv == "H2":
                (bu, lu, cu), (bv, lv, cv) = (bv, lv, cv), (bu, lu, cu)
            _require(bu == "H2" and bv == "H1", case, u, v)
            return float(
                self.q_inv[lu, lu]
                + self.p_inv[lv, lv]
                - 2 * _kron_entry(self.q_inv, lu, cu, lv, cv)
            )
        raise CaseMismatchError(f"case {case} is not a resistance case")

    def kirchhoff(self) -> float:
        spec = self.spec
        alpha = eigenvalues_sym(laplacian(self.f1))
        beta = eigenvalues_sym(laplacian(self.f2))
        mu = eigenvalues_sym(laplacian(spec.H1))
        nu = eigenvalues_sym(laplacian(spec.H2))
        return thm41_printed_kf(
            alpha, beta, mu, nu, spec.n, spec.k, spec.m, spec.l
        )


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


def _require(cond: bool, case: str, u: int, v: int):
    if not cond:
        raise CaseMismatchError(f"pair ({u},{v}) does not fit case {case}")


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


def verify_construction(
    spec: PocketSpec,
    tol_r: float = 1e-9,
    tol_kf: float = 1e-8,
    include_printed: bool = True,
    label: str = "",
) -> DiscrepancyReport:
    """Audit one instance: oracle vs block construction vs printed formulas.

    Structured-vs-oracle violations flip the report's ok flag; printed
    deviations are recorded but never fatal.
    """
    g, layout = build_pocket_graph(spec)
    r_oracle, kf_oracle = oracle_resistance(g)
    structured = structured_one_inverse(spec)
    lap = laplacian(g)
    residual = float(np.abs(lap @ structured.matrix @ lap - lap).max())
    r_struct = resistance_matrix(structured.matrix)
    kf_struct = kirchhoff_from_one_inverse(structured.matrix)
    kf_spectral = kirchhoff_spectral(eigenvalues_sym(lap), g.order)

    theorem = "3.1" if spec.k == spec.n else "4.1"
    printed = None
    if include_printed:
        printed_class = Theorem31Printed if theorem == "3.1" else Theorem41Printed
        printed = printed_class(spec, structured)

    report = DiscrepancyReport(
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
        one_inverse_residual=residual,
        ok=residual <= tol_r,
    )

    for u in range(g.order):
        for v in range(u + 1, g.order):
            dev = float(abs(r_struct[u, v] - r_oracle[u, v]))
            base = dict(
                quantity=f"r[{u},{v}]",
                oracle=float(r_oracle[u, v]),
                structured=float(r_struct[u, v]),
                structured_dev=dev,
                structured_ok=bool(dev <= tol_r),
            )
            if not base["structured_ok"]:
                report.ok = False
            cases = printed.applicable_cases(u, v) if printed else []
            emitted = False
            for case in cases:
                try:
                    value = printed.resistance(case, u, v)
                except CaseMismatchError:
                    continue
                report.records.append(
                    QuantityRecord(
                        **base,
                        printed=value,
                        printed_dev=float(abs(value - r_oracle[u, v])),
                        case=f"{theorem}({case})",
                    )
                )
                emitted = True
            if not emitted:
                report.records.append(QuantityRecord(**base))

    kf_dev = float(abs(kf_struct.value - kf_oracle.value))
    report.records.append(
        QuantityRecord(
            quantity="Kf",
            oracle=kf_oracle.value,
            structured=kf_struct.value,
            structured_dev=kf_dev,
            structured_ok=bool(kf_dev <= tol_kf),
        )
    )
    spec_dev = float(abs(kf_spectral.value - kf_oracle.value))
    report.records.append(
        QuantityRecord(
            quantity="Kf[spectral]",
            oracle=kf_oracle.value,
            structured=kf_spectral.value,
            structured_dev=spec_dev,
            structured_ok=bool(spec_dev <= tol_kf),
        )
    )
    if any(
        r.structured_ok is False for r in report.records
    ):
        report.ok = False
    if printed is not None:
        kf_printed = printed.kirchhoff()
        report.records.append(
            QuantityRecord(
                quantity="Kf",
                oracle=kf_oracle.value,
                printed=kf_printed,
                printed_dev=abs(kf_printed - kf_oracle.value),
                case=f"{theorem}({'kf' if theorem == '3.1' else 'ix'})",
            )
        )
    return report
