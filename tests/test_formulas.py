import dataclasses
import json

import numpy as np
import pytest

from pocket_kirch import (
    BlockLayout,
    CaseId,
    CaseMismatchError,
    JoinStructureError,
    PocketSpec,
    Theorem31Printed,
    Theorem41Printed,
    build_pocket_graph,
    complete_graph,
    eigenvalues_sym,
    empty_graph,
    invert,
    join,
    kirchhoff_from_one_inverse,
    kirchhoff_spectral,
    laplacian,
    oracle_resistance,
    path_graph,
    pseudo_inverse_laplacian,
    resistance_matrix,
    split_base_join,
    structured_one_inverse,
    thm31_printed_kf,
    thm41_printed_kf,
    verify_construction,
)
from pocket_kirch.cli import main
from pocket_kirch.resistance import KirchhoffResult, pair_blocks
from pocket_kirch.formulas import (
    THM31_CASES,
    THM41_CASES,
    DiscrepancyReport,
    QuantityRecord,
)
from pocket_kirch.sweep import (
    DEFAULT_SEED,
    builtin_fixtures,
    random_connected_graph,
    random_graph,
    random_specs,
)
from test_graphs import NON_JOIN_GADGET_SPECS, global_index

P3_SPEC = PocketSpec(complete_graph(1), (0,), complete_graph(1), complete_graph(1))
P4_SPEC = PocketSpec(complete_graph(2), (0, 1), complete_graph(1))
PENDANT_SPEC = PocketSpec(join(complete_graph(1), complete_graph(1)), (0,), complete_graph(1))


def _is_split_base(spec):
    try:
        split_base_join(spec)
    except (JoinStructureError, ValueError):
        return False
    return True


def _printed(cls, spec):
    """A printed class reading its factors off the spec's structured result."""
    return cls(spec, structured_one_inverse(spec))


# ---------------------------------------------------------------------------
# Reference audit: the per-pair printed methods and the per-pair record
# loop, one Python call per vertex pair and case, which the array
# evaluators and verify_construction must reproduce bit for bit.

def _kron_entry(small, li, ci, lj, cj):
    """Entry of small (x) I at block indices; mismatch when out of range."""
    rows, cols = small.shape
    if not (0 <= li < rows and 0 <= lj < cols):
        raise CaseMismatchError(
            f"printed factor of shape {small.shape} has no entry ({li},{lj})"
        )
    return float(small[li, lj]) if ci == cj else 0.0


def _require(cond, case, u, v):
    if not cond:
        raise CaseMismatchError(f"pair ({u},{v}) does not fit case {case}")


class _Reference31(Theorem31Printed):
    def applicable_cases(self, u, v):
        bu = self.layout.locate(u)[0]
        bv = self.layout.locate(v)[0]
        table = {
            frozenset(["F"]): ["i"],
            frozenset(["F", "H1"]): ["ii"],
            frozenset(["F", "H2"]): ["iii"],
            frozenset(["H1", "H2"]): ["iv", "v"],
        }
        return table.get(frozenset([bu, bv]), [])

    def resistance(self, case, u, v):
        CaseId("3.1", case)
        bu, lu, cu = self.layout.locate(u)
        bv, lv, cv = self.layout.locate(v)
        ls = self.lf_sharp
        if case == "i":
            _require(bu == "F" and bv == "F", case, u, v)
            return float(ls[lu, lu] + ls[lv, lv] - 2 * ls[lu, lv])
        if case in ("ii", "iii"):
            if bu != "F":
                (bu, lu, cu), (bv, lv, cv) = (bv, lv, cv), (bu, lu, cu)
            _require(bu == "F" and bv == ("H1" if case == "ii" else "H2"), case, u, v)
            diag = self.p_inv if case == "ii" else self.q_inv
            return float(ls[lu, lu] + diag[lv, lv] - 2 * ls[lu, cv])
        if case == "iv":
            if bu == "H2" and bv == "H1":
                (bu, lu, cu), (bv, lv, cv) = (bv, lv, cv), (bu, lu, cu)
            _require(bu == "H1" and bv == "H2", case, u, v)
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


class _Reference41(Theorem41Printed):
    def _subblock(self, g):
        block, local, copy = self.layout.locate(g)
        if block == "F":
            return ("F1", local, 0) if local < self.spec.k else ("F2", local - self.spec.k, 0)
        return block, local, copy

    def applicable_cases(self, u, v):
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
        if ("H1" in pair) and (bu.startswith("F") or bv.startswith("F")):
            cases.append("v")
        if ("H2" in pair) and (bu.startswith("F") or bv.startswith("F")):
            cases.append("vi")
        if pair == frozenset(["H1", "H2"]):
            cases.extend(["vii", "viii"])
        return cases

    def resistance(self, case, u, v):
        CaseId("4.1", case)
        bu, lu, cu = self._subblock(u)
        bv, lv, cv = self._subblock(v)
        spec = self.spec
        if case == "i":
            _require(bu == "F1" and bv == "F1", case, u, v)
            x = self.f1_inv - (spec.n - spec.k) / spec.k
            return float(x[lu, lu] + x[lv, lv] - 2 * x[lu, lv])
        if case == "ii":
            _require(bu == "F2" and bv == "F2", case, u, v)
            x = self.f2_inv
            return float(x[lu, lu] + x[lv, lv] - 2 * x[lu, lv])
        if case in ("iii", "iv"):
            want = "H1" if case == "iii" else "H2"
            _require(bu == want and bv == want, case, u, v)
            x = self.p_mat if case == "iii" else self.q_mat
            return float(
                x[lu, lu] + x[lv, lv] - 2 * _kron_entry(x, lu, cu, lv, cv)
            )
        if case in ("v", "vi"):
            if not bu.startswith("F"):
                (bu, lu, cu), (bv, lv, cv) = (bv, lv, cv), (bu, lu, cu)
            want = "H1" if case == "v" else "H2"
            _require(bu.startswith("F") and bv == want, case, u, v)
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


def _reference_theorem(spec):
    """The theorem whose displays state the spec, tested on its own terms:
    a join gadget (no cross set) on a base with every vertex attached (3.1)
    or split as F1 v F2 over the attached vertices (4.1); else None."""
    if spec.cross is not None:
        return None
    if spec.k == spec.n:
        return "3.1"
    return "4.1" if _is_split_base(spec) else None


def _reference_report(spec, tol_r=1e-9, tol_kf=1e-8, label=""):
    """verify_construction's report, built pair by pair and case by case."""
    g, _ = build_pocket_graph(spec)
    r_oracle, kf_oracle = oracle_resistance(g)
    structured = structured_one_inverse(spec)
    lap = laplacian(g)
    residual = float(np.abs(lap @ structured.matrix @ lap - lap).max())
    r_struct = resistance_matrix(structured.matrix)
    kf_struct = kirchhoff_from_one_inverse(structured.matrix)
    kf_spectral = kirchhoff_spectral(eigenvalues_sym(lap), g.order)
    theorem = _reference_theorem(spec)
    printed = None
    if theorem is not None:
        printed = (_Reference31 if theorem == "3.1" else _Reference41)(spec, structured)
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
            emitted = False
            for case in printed.applicable_cases(u, v) if printed else []:
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
    if any(r.structured_ok is False for r in report.records):
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


class TestCaseId:
    def test_valid(self):
        assert str(CaseId("3.1", "iv")) == "3.1(iv)"
        assert str(CaseId("4.1", "ix")) == "4.1(ix)"

    def test_invalid(self):
        with pytest.raises(ValueError):
            CaseId("3.1", "ix")
        with pytest.raises(ValueError):
            CaseId("5.1", "i")


class TestTheorem31Cases:
    def test_case_i_equals_base_resistance_on_p4(self):
        printed = _printed(Theorem31Printed, P4_SPEC)
        # both endpoints in the base K2: the pocket leaves this pair alone
        assert printed.resistance("i", 0, 1) == pytest.approx(1.0)

    def test_case_ii_on_p3(self):
        printed = _printed(Theorem31Printed, P3_SPEC)
        assert printed.resistance("ii", 0, 1) == pytest.approx(1.0)

    def test_case_iv_on_p3(self):
        printed = _printed(Theorem31Printed, P3_SPEC)
        assert printed.resistance("iv", 1, 2) == pytest.approx(1.0)

    def test_case_ii_omits_diagonal_term_on_p4(self):
        # printed value 0.25 + 1 - 0.5 = 0.75 vs oracle 1: the display drops
        # the base-block diagonal contribution of the true H1 block
        printed = _printed(Theorem31Printed, P4_SPEC)
        assert printed.resistance("ii", 0, 2) == pytest.approx(0.75)
        g, _ = build_pocket_graph(P4_SPEC)
        r, _ = oracle_resistance(g)
        assert r[0, 2] == pytest.approx(1.0)

    def test_block_mismatch_rejected(self):
        printed = _printed(Theorem31Printed, P3_SPEC)
        with pytest.raises(CaseMismatchError):
            printed.resistance("i", 1, 2)

    def test_case_i_matches_oracle_on_all_base_pairs(self):
        # the pocket attachment preserves base-internal resistances
        for label, spec in builtin_fixtures():
            if spec.k != spec.n:
                continue
            printed = _printed(Theorem31Printed, spec)
            g, layout = build_pocket_graph(spec)
            r, _ = oracle_resistance(g)
            for u in range(spec.n):
                for v in range(u + 1, spec.n):
                    gu = global_index(layout, "F", u)
                    gv = global_index(layout, "F", v)
                    assert printed.resistance("i", gu, gv) == pytest.approx(
                        r[gu, gv], abs=1e-9
                    ), label


class TestTheorem31Kirchhoff:
    def test_p3_printed_value(self):
        # printed 1.5 while the oracle (and the block construction) give 4
        assert _printed(Theorem31Printed, P3_SPEC).kirchhoff() == pytest.approx(1.5)

    def test_p3_direct_evaluation(self):
        assert thm31_printed_kf(0.0, [0.0], [0.0], 1, 2, 1) == pytest.approx(1.5)

    def test_p4_includes_empty_h2_term_verbatim(self):
        # l = m = 1: the nl/(m-l+1) term stays; hand evaluation gives 19
        assert _printed(Theorem31Printed, P4_SPEC).kirchhoff() == pytest.approx(19.0)


SPLIT_SPECS = [s for _, s in builtin_fixtures() if s.k < s.n] + [
    s for s in random_specs(40, seed=11, max_n=9) if s.k < s.n
]


class TestTheorem41Cases:
    @pytest.mark.parametrize("spec", SPLIT_SPECS)
    def test_derived_factors_match_direct_inverses(self, spec):
        # (L(F1)+(n-k)I)^-1 and (L(F2)+kI)^-1 are derived from the blocks
        # of the structured L#(F), not inverted; they equal the direct inverses
        printed = _printed(Theorem41Printed, spec)
        n, k = spec.n, spec.k
        f1, f2 = split_base_join(spec)
        f1_inv = invert(laplacian(f1) + (n - k) * np.eye(k))
        f2_inv = invert(laplacian(f2) + k * np.eye(n - k))
        order = list(printed.layout.f_order)
        lf = laplacian(spec.F)[np.ix_(order, order)]
        assert np.abs(printed.f1_inv - f1_inv).max() <= 1e-13
        assert np.abs(printed.f2_inv - f2_inv).max() <= 1e-13
        assert np.abs(printed.lf_sharp - pseudo_inverse_laplacian(lf)).max() <= 1e-13

    def test_case_ii_same_vertex(self):
        printed = _printed(Theorem41Printed, PENDANT_SPEC)
        g, layout = build_pocket_graph(PENDANT_SPEC)
        f2_vertex = global_index(layout, "F", 1)
        assert printed.resistance("ii", f2_vertex, f2_vertex) == pytest.approx(0.0)

    def test_case_ii_distinct_f2_vertices(self):
        spec = PocketSpec(join(complete_graph(1), empty_graph(2)), (0,), complete_graph(1))
        printed = _printed(Theorem41Printed, spec)
        g, layout = build_pocket_graph(spec)
        u = global_index(layout, "F", 1)
        v = global_index(layout, "F", 2)
        r, _ = oracle_resistance(g)
        # (L(F2)+kI)^-1 = I here: printed gives 2, oracle 2 on the star
        assert printed.resistance("ii", u, v) == pytest.approx(2.0)
        assert r[u, v] == pytest.approx(2.0)

    def test_case_v_on_pendant(self):
        # printed 0.25 + 1 - 0.5 = 0.75; the oracle gives 1 on the pendant
        printed = _printed(Theorem41Printed, PENDANT_SPEC)
        g, layout = build_pocket_graph(PENDANT_SPEC)
        u1 = global_index(layout, "F", 0)
        v1 = global_index(layout, "H1", 0, 0)
        r, _ = oracle_resistance(g)
        assert printed.resistance("v", u1, v1) == pytest.approx(0.75)
        assert r[u1, v1] == pytest.approx(1.0)

    def test_cases_iii_iv_kept_uninverted(self):
        # the displays omit the inversion on the H blocks; evaluated verbatim
        spec = PocketSpec(join(complete_graph(2), empty_graph(2)), (0, 1), complete_graph(2), complete_graph(2))
        printed = _printed(Theorem41Printed, spec)
        g, layout = build_pocket_graph(spec)
        i = global_index(layout, "H1", 0, 0)
        j = global_index(layout, "H1", 1, 0)
        p = printed.p_mat
        expected = p[0, 0] + p[1, 1] - 2 * p[0, 1]
        assert printed.resistance("iii", i, j) == pytest.approx(expected)

    def test_pendant_printed_kirchhoff(self):
        # hand evaluation of the display gives 11; oracle gives 4
        assert _printed(Theorem41Printed, PENDANT_SPEC).kirchhoff() == pytest.approx(11.0)
        g, _ = build_pocket_graph(PENDANT_SPEC)
        _, kf = oracle_resistance(g)
        assert kf.value == pytest.approx(4.0)

    def test_kf_requires_k_below_n(self):
        with pytest.raises(ValueError, match="k < n"):
            thm41_printed_kf([0.0], [0.0], [0.0], [0.0], 1, 1, 1, 1)

    def test_empty_h2_sums_contribute_zero(self):
        value = thm41_printed_kf([0.0], [0.0], [0.0], [], 2, 1, 1, 1)
        assert np.isfinite(value)


class TestVerifyConstruction:
    def test_p3_report(self):
        rep = verify_construction(P3_SPEC, label="p3")
        assert rep.ok
        by_quantity = {}
        for rec in rep.records:
            by_quantity.setdefault((rec.quantity, rec.case), rec)
        # one record per evaluable printed case; dedupe by pair
        struct_r = {
            rec.quantity: rec.structured
            for rec in rep.records
            if rec.quantity.startswith("r[")
        }
        assert sorted(struct_r.values()) == [1.0, 1.0, 2.0]
        kf_printed = by_quantity[("Kf", "3.1(kf)")]
        assert kf_printed.printed == pytest.approx(1.5)
        assert kf_printed.oracle == pytest.approx(4.0)

    def test_p4_report(self):
        rep = verify_construction(P4_SPEC, label="p4")
        assert rep.ok
        kf = next(r for r in rep.records if r.quantity == "Kf" and r.case is None)
        assert kf.structured == pytest.approx(10.0)

    def test_case_coverage_over_fixture_suite(self):
        from pocket_kirch.formulas import THM31_CASES, THM41_CASES

        seen = set()
        for label, spec in builtin_fixtures():
            rep = verify_construction(spec, label=label)
            assert rep.ok, label
            seen.update(r.case for r in rep.records if r.case)
        expected = {f"3.1({c})" for c in THM31_CASES} | {
            f"4.1({c})" for c in THM41_CASES
        }
        # same-block base cases i/ii of 3.1 need multi-vertex blocks; all
        # labels must appear across the fixture suite
        assert expected <= seen

    def test_report_deterministic(self):
        a = verify_construction(P3_SPEC, label="p3").to_json()
        b = verify_construction(P3_SPEC, label="p3").to_json()
        assert a == b
        json.loads(a)  # valid JSON

    def test_table_rendering(self):
        table = verify_construction(P3_SPEC, label="p3").to_table()
        assert "PASS" in table
        assert "3.1(kf)" in table

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_restored(self, enabled, monkeypatch):
        # the pair records are built with the cyclic collector held off;
        # the caller's setting must come back, also when the build raises
        import gc

        from pocket_kirch import formulas

        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert verify_construction(P4_SPEC).ok
            assert gc.isenabled() is enabled

            def fail(*args):
                assert not gc.isenabled()
                raise RuntimeError("record build failed")

            monkeypatch.setattr(formulas, "_block_records", fail)
            with pytest.raises(RuntimeError, match="record build failed"):
                verify_construction(P4_SPEC)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_quantity_record_contract(self):
        # the fields and their order, equality, repr and mutability of a
        # plain dataclass, stored in slots
        names = [f.name for f in dataclasses.fields(QuantityRecord)]
        assert names == [
            "quantity", "oracle", "structured", "printed",
            "case", "structured_dev", "printed_dev", "structured_ok",
        ]
        rec = QuantityRecord("Kf", 2.0, case="3.1(kf)")
        assert rec == QuantityRecord("Kf", 2.0, None, None, "3.1(kf)")
        assert rec != QuantityRecord("Kf", 2.0)
        assert repr(rec) == (
            "QuantityRecord(quantity='Kf', oracle=2.0, structured=None, printed=None, "
            "case='3.1(kf)', structured_dev=None, printed_dev=None, structured_ok=None)"
        )
        rec.printed = 1.5
        assert rec.printed == 1.5 and rec != QuantityRecord("Kf", 2.0, case="3.1(kf)")
        assert not hasattr(rec, "__dict__")
        with pytest.raises(AttributeError):
            rec.note = "no such field"
        assert QuantityRecord.__hash__ is None

    def test_printed_deviations_not_fatal(self):
        rep = verify_construction(P4_SPEC)
        printed = [r for r in rep.records if r.printed is not None]
        assert any(r.printed_dev > 1e-6 for r in printed)
        assert rep.ok

    def test_non_join_spec_has_no_printed_theorem(self):
        # k < n and F = P3 is not F1 v F2 over {0}: the construction still
        # applies, the printed displays do not
        spec = PocketSpec(path_graph(3), (0,), complete_graph(1))
        rep = verify_construction(spec, label="p3-end")
        assert rep.ok
        payload = json.loads(rep.to_json())
        assert payload["instance"]["theorem"] is None
        assert all(r.case is None and r.printed is None for r in rep.records)
        assert len(rep.records) == 4 * 3 // 2 + 2  # the pairs, Kf, Kf[spectral]
        assert max(r.structured_dev for r in rep.records) <= 1e-9
        with pytest.raises(ValueError, match="cross edge"):
            _printed(Theorem41Printed, spec)

    @pytest.mark.parametrize("spec", NON_JOIN_GADGET_SPECS, ids=["k=n", "non-join-base", "split-base", "k=1"])
    def test_non_join_gadget_has_no_printed_theorem(self, spec):
        # the construction takes any connected rooted gadget; the printed
        # displays state only H1 v (H2 + {v}), whatever the base
        rep = verify_construction(spec)
        assert rep.ok
        assert json.loads(rep.to_json())["instance"]["theorem"] is None
        assert all(r.case is None and r.printed is None for r in rep.records)
        assert max(r.structured_dev for r in rep.records) <= 1e-9
        if spec.k == spec.n or _is_split_base(spec):
            cls = Theorem31Printed if spec.k == spec.n else Theorem41Printed
            with pytest.raises(JoinStructureError, match=r"^H_v is not H1 v \(H2 \+ \{v\}\)") as exc:
                _printed(cls, spec)
            i, j = exc.value.witness
            assert (i, j) not in spec.cross and i < spec.l and j < spec.m - spec.l

    def test_printed_audit_reuses_structured_factors(self, monkeypatch):
        from pocket_kirch import formulas, linalg

        calls = []
        kernel = linalg._cholesky_invert

        def counting(mat):
            calls.append(mat.shape[0])
            return kernel(mat)

        assert not hasattr(formulas, "invert")  # the audit inverts nothing itself
        monkeypatch.setattr(linalg, "_cholesky_invert", counting)
        for label, spec in builtin_fixtures():
            calls.clear()
            report = verify_construction(spec)
            assert report.instance["theorem"] is not None, label
            # the oracle, L#(F) and L_v(H), and nothing else: both printed
            # classes take every factor from the structured result; 4.1
            # derives (L(F1)+(n-k)I)^-1 and (L(F2)+kI)^-1 from the diagonal
            # blocks of L#(F) instead of inverting them again.
            assert sorted(calls) == sorted([report.instance["order"], spec.n, spec.m]), label

    def test_one_join_test_per_audit(self, monkeypatch):
        from pocket_kirch import formulas

        calls = []
        split = formulas.split_base_join

        def counting(spec):
            calls.append(spec)
            return split(spec)

        monkeypatch.setattr(formulas, "split_base_join", counting)
        for label, spec in builtin_fixtures():
            calls.clear()
            report = verify_construction(spec)
            theorem = report.instance["theorem"]
            assert theorem == ("3.1" if spec.k == spec.n else "4.1"), label
            assert len(calls) == (theorem == "4.1"), label
        calls.clear()  # a failed join test is run once too
        spec = PocketSpec(path_graph(3), (0,), complete_graph(1))
        assert verify_construction(spec).instance["theorem"] is None
        assert len(calls) == 1


def _seeded_spec(seed, shape):
    """A random spec of one shape: (n, l, m) pockets every vertex of a
    connected F in shuffled order; (k, n - k, l, m) splits F = F1 v F2."""
    rng = np.random.default_rng(seed)
    if len(shape) == 3:
        n, l, m = shape
        f = random_connected_graph(rng, n)
        attach = tuple(int(x) for x in rng.permutation(n))
    else:
        k, nk, l, m = shape
        f = join(random_graph(rng, k), random_graph(rng, nk))
        attach = tuple(range(k))
    return PocketSpec(f, attach, random_graph(rng, l), random_graph(rng, m - l))


# Orders 72, 96 (l > m - l: 3.1(v) drops pairs), 168, 76, 86 and 164.
LARGE_SHAPES = [(8, 3, 8), (8, 6, 11), (12, 5, 13), (8, 4, 3, 8), (7, 2, 6, 11), (10, 4, 5, 15)]
# the instances `verify --sweep 40` adds to the fixtures, at the CLI's defaults
VERIFY_SWEEP = random_specs(40, seed=DEFAULT_SEED, max_n=6, max_l=4, max_h2=4)


def _assert_same_report(spec, label="", **options):
    report = verify_construction(spec, label=label, **options)
    reference = _reference_report(spec, label=label, **options)
    assert report.ok == reference.ok
    assert report.to_json() == reference.to_json()
    assert report.to_table() == reference.to_table()
    assert report.records == reference.records


class TestAuditMatchesPerPairReference:
    @pytest.mark.parametrize("label,spec", builtin_fixtures())
    def test_fixtures(self, label, spec):
        _assert_same_report(spec, label)

    @pytest.mark.parametrize("index", range(len(VERIFY_SWEEP)))
    def test_verify_sweep(self, index):
        _assert_same_report(VERIFY_SWEEP[index], f"seed{DEFAULT_SEED}-{index}")

    @pytest.mark.parametrize("shape", LARGE_SHAPES)
    def test_orders_72_to_168(self, shape):
        spec = _seeded_spec(sum(shape), shape)
        assert 72 <= spec.n + spec.m * spec.k <= 168
        _assert_same_report(spec, str(shape))

    @pytest.mark.parametrize("spec", NON_JOIN_GADGET_SPECS, ids=["k=n", "non-join-base", "split-base", "k=1"])
    def test_non_join_gadgets(self, spec):
        # no display states these: every pair's record has no printed value
        assert _reference_theorem(spec) is None
        _assert_same_report(spec, "non-join-gadget")

    def test_non_join_base_over_two_blocks(self):
        # a join gadget on a path base, which is not F1 v F2 over the
        # attached vertices: order 92, so the pairs span two pair blocks
        rng = np.random.default_rng(92)
        spec = PocketSpec(path_graph(12), (0, 2, 5, 7, 11), random_graph(rng, 4), random_graph(rng, 12))
        order = spec.n + spec.m * spec.k
        assert order >= 92 and len(list(pair_blocks(order))) >= 2
        assert spec.cross is None and _reference_theorem(spec) is None
        _assert_same_report(spec, "path-base")

    @pytest.mark.parametrize("tol_r,tol_kf", [(0.0, 1e-8), (1e-9, 0.0), (-1.0, -1.0)])
    def test_failing_tolerances(self, tol_r, tol_kf):
        # order 168: its pairs span several blocks of records
        _assert_same_report(_seeded_spec(20, (12, 5, 13)), tol_r=tol_r, tol_kf=tol_kf)

    @pytest.mark.parametrize("off", ["r[0,1]", "Kf"])
    def test_one_value_off_fails_the_report(self, monkeypatch, off):
        from pocket_kirch import formulas

        spec = _seeded_spec(20, (12, 5, 13))
        assert verify_construction(spec).ok
        one_inverse, resistance, kf_route = (
            formulas.oracle_one_inverse,
            formulas.pair_resistances,
            formulas.kirchhoff_from_one_inverse,
        )
        if off == "Kf":
            def kf_off(x, method="structured"):
                kf = kf_route(x, method)
                return KirchhoffResult(kf.value + (method == "structured") * 1e-6, method)

            monkeypatch.setattr(formulas, "kirchhoff_from_one_inverse", kf_off)
        else:
            # the oracle's r is read off the pseudoinverse of L(G); only it
            # is put off, not the oracle's Kf
            oracle_x = []

            def recorded(g):
                oracle_x.append(one_inverse(g))
                return oracle_x[-1]

            def one_pair_off(x, u, v):
                r = resistance(x, u, v)
                if oracle_x and x is oracle_x[-1]:
                    r[(u == 0) & (v == 1)] += 1e-6
                return r

            monkeypatch.setattr(formulas, "oracle_one_inverse", recorded)
            monkeypatch.setattr(formulas, "pair_resistances", one_pair_off)
        report = verify_construction(spec)
        assert not report.ok
        assert [r.quantity for r in report.records if r.structured_ok is False] == [off]

    def test_verify_cli_json(self, tmp_path):
        out = tmp_path / "verify.json"
        assert main(["verify", "--sweep", "40", "--out", str(out)]) == 0
        instances = builtin_fixtures() + [
            (f"seed{DEFAULT_SEED}-{i}", s) for i, s in enumerate(VERIFY_SWEEP)
        ]
        reports = [_reference_report(s, label=label) for label, s in instances]
        payload = {
            "ok": all(r.ok for r in reports),
            "seed": DEFAULT_SEED,
            "max_n": 6,
            "max_m": 8,
            "tolerances": {"resistance": 1e-9, "kirchhoff": 1e-8},
            "instances": [r.to_dict() for r in reports],
        }
        assert out.read_text() == json.dumps(payload, sort_keys=True) + "\n"


PER_PAIR_SPECS = [s for _, s in builtin_fixtures()] + [
    s for s in random_specs(60, seed=29, max_n=5, max_l=3, max_h2=2) if s.k < s.n
][:20]


def _outcome(call):
    """A call's float bit pattern, or the error type it raised."""
    try:
        return np.float64(call()).tobytes()
    except CaseMismatchError:
        return CaseMismatchError


class TestPerPairApi:
    @pytest.mark.parametrize("spec", PER_PAIR_SPECS)
    def test_matches_reference_on_every_pair_and_case(self, spec):
        if spec.k == spec.n:
            cls, reference_cls, labels = Theorem31Printed, _Reference31, THM31_CASES
        else:
            cls, reference_cls, labels = Theorem41Printed, _Reference41, THM41_CASES
        printed, reference = _printed(cls, spec), _printed(reference_cls, spec)
        order = spec.n + spec.m * spec.k
        for u in range(order):
            for v in range(order):
                assert printed.applicable_cases(u, v) == reference.applicable_cases(u, v)
                for case in labels:
                    assert _outcome(lambda: printed.resistance(case, u, v)) == _outcome(
                        lambda: reference.resistance(case, u, v)
                    ), (case, u, v)

    def test_errors(self):
        printed = _printed(Theorem31Printed, P3_SPEC)
        with pytest.raises(ValueError, match="unknown case"):
            printed.resistance("vi", 0, 1)
        with pytest.raises(IndexError):
            printed.resistance("i", 0, 3)
        with pytest.raises(IndexError):
            printed.applicable_cases(-1, 0)
        with pytest.raises(CaseMismatchError, match="not a resistance case"):
            printed.resistance("kf", 0, 1)

    def test_audit_makes_no_per_pair_call(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("per-pair call in the audit")

        for cls in (Theorem31Printed, Theorem41Printed):
            monkeypatch.setattr(cls, "resistance", refuse)
            monkeypatch.setattr(cls, "applicable_cases", refuse)
        monkeypatch.setattr(BlockLayout, "locate", refuse)
        for shape in [(8, 3, 8), (8, 4, 3, 8)]:
            spec = _seeded_spec(1, shape)
            assert spec.n + spec.m * spec.k >= 72
            report = verify_construction(spec)
            assert report.ok
            assert any(r.printed is not None for r in report.records[:-1])
