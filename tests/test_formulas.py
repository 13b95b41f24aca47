import json

import numpy as np
import pytest

from pocket_kirch import (
    CaseId,
    CaseMismatchError,
    PocketSpec,
    Theorem31Printed,
    Theorem41Printed,
    build_pocket_graph,
    complete_graph,
    empty_graph,
    invert,
    join,
    laplacian,
    oracle_resistance,
    path_graph,
    pseudo_inverse_laplacian,
    split_base_join,
    thm31_printed_kf,
    thm41_printed_kf,
    verify_construction,
)
from pocket_kirch.sweep import builtin_fixtures, random_specs

P3_SPEC = PocketSpec(complete_graph(1), (0,), complete_graph(1), complete_graph(1))
P4_SPEC = PocketSpec(complete_graph(2), (0, 1), complete_graph(1))
PENDANT_SPEC = PocketSpec(join(complete_graph(1), complete_graph(1)), (0,), complete_graph(1))


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
        printed = Theorem31Printed(P4_SPEC)
        # both endpoints in the base K2: the pocket leaves this pair alone
        assert printed.resistance("i", 0, 1) == pytest.approx(1.0)

    def test_case_ii_on_p3(self):
        printed = Theorem31Printed(P3_SPEC)
        assert printed.resistance("ii", 0, 1) == pytest.approx(1.0)

    def test_case_iv_on_p3(self):
        printed = Theorem31Printed(P3_SPEC)
        assert printed.resistance("iv", 1, 2) == pytest.approx(1.0)

    def test_case_ii_omits_diagonal_term_on_p4(self):
        # printed value 0.25 + 1 - 0.5 = 0.75 vs oracle 1: the display drops
        # the base-block diagonal contribution of the true H1 block
        printed = Theorem31Printed(P4_SPEC)
        assert printed.resistance("ii", 0, 2) == pytest.approx(0.75)
        g, _ = build_pocket_graph(P4_SPEC)
        r, _ = oracle_resistance(g)
        assert r[0, 2] == pytest.approx(1.0)

    def test_block_mismatch_rejected(self):
        printed = Theorem31Printed(P3_SPEC)
        with pytest.raises(CaseMismatchError):
            printed.resistance("i", 1, 2)

    def test_case_i_matches_oracle_on_all_base_pairs(self):
        # the pocket attachment preserves base-internal resistances
        for label, spec in builtin_fixtures():
            if spec.k != spec.n:
                continue
            printed = Theorem31Printed(spec)
            g, layout = build_pocket_graph(spec)
            r, _ = oracle_resistance(g)
            for u in range(spec.n):
                for v in range(u + 1, spec.n):
                    gu = layout.global_index("F", u)
                    gv = layout.global_index("F", v)
                    assert printed.resistance("i", gu, gv) == pytest.approx(
                        r[gu, gv], abs=1e-9
                    ), label


class TestTheorem31Kirchhoff:
    def test_p3_printed_value(self):
        # printed 1.5 while the oracle (and the block construction) give 4
        assert Theorem31Printed(P3_SPEC).kirchhoff() == pytest.approx(1.5)

    def test_p3_direct_evaluation(self):
        assert thm31_printed_kf(0.0, [0.0], [0.0], 1, 2, 1) == pytest.approx(1.5)

    def test_p4_includes_empty_h2_term_verbatim(self):
        # l = m = 1: the nl/(m-l+1) term stays; hand evaluation gives 19
        assert Theorem31Printed(P4_SPEC).kirchhoff() == pytest.approx(19.0)


SPLIT_SPECS = [s for _, s in builtin_fixtures() if s.k < s.n] + [
    s for s in random_specs(40, seed=11, max_n=9) if s.k < s.n
]


class TestTheorem41Cases:
    @pytest.mark.parametrize("spec", SPLIT_SPECS)
    def test_derived_factors_match_direct_inverses(self, spec):
        # (L(F1)+(n-k)I)^-1 and L#(F) are derived from the structured
        # factors, not inverted; they equal the direct inverses
        printed = Theorem41Printed(spec)
        n, k = spec.n, spec.k
        f1, _ = split_base_join(spec)
        f1_inv = invert(laplacian(f1) + (n - k) * np.eye(k))
        order = list(printed.layout.f_order)
        lf = laplacian(spec.F)[np.ix_(order, order)]
        assert np.abs(printed.f1_inv - f1_inv).max() <= 1e-13
        assert np.abs(printed.lf_sharp - pseudo_inverse_laplacian(lf)).max() <= 1e-13

    def test_case_ii_same_vertex(self):
        printed = Theorem41Printed(PENDANT_SPEC)
        g, layout = build_pocket_graph(PENDANT_SPEC)
        f2_vertex = layout.global_index("F", 1)
        assert printed.resistance("ii", f2_vertex, f2_vertex) == pytest.approx(0.0)

    def test_case_ii_distinct_f2_vertices(self):
        spec = PocketSpec(join(complete_graph(1), empty_graph(2)), (0,), complete_graph(1))
        printed = Theorem41Printed(spec)
        g, layout = build_pocket_graph(spec)
        u = layout.global_index("F", 1)
        v = layout.global_index("F", 2)
        r, _ = oracle_resistance(g)
        # (L(F2)+kI)^-1 = I here: printed gives 2, oracle 2 on the star
        assert printed.resistance("ii", u, v) == pytest.approx(2.0)
        assert r[u, v] == pytest.approx(2.0)

    def test_case_v_on_pendant(self):
        # printed 0.25 + 1 - 0.5 = 0.75; the oracle gives 1 on the pendant
        printed = Theorem41Printed(PENDANT_SPEC)
        g, layout = build_pocket_graph(PENDANT_SPEC)
        u1 = layout.global_index("F", 0)
        v1 = layout.global_index("H1", 0, 0)
        r, _ = oracle_resistance(g)
        assert printed.resistance("v", u1, v1) == pytest.approx(0.75)
        assert r[u1, v1] == pytest.approx(1.0)

    def test_cases_iii_iv_kept_uninverted(self):
        # the displays omit the inversion on the H blocks; evaluated verbatim
        spec = PocketSpec(join(complete_graph(2), empty_graph(2)), (0, 1), complete_graph(2), complete_graph(2))
        printed = Theorem41Printed(spec)
        g, layout = build_pocket_graph(spec)
        i = layout.global_index("H1", 0, 0)
        j = layout.global_index("H1", 1, 0)
        p = printed.p_mat
        expected = p[0, 0] + p[1, 1] - 2 * p[0, 1]
        assert printed.resistance("iii", i, j) == pytest.approx(expected)

    def test_pendant_printed_kirchhoff(self):
        # hand evaluation of the display gives 11; oracle gives 4
        assert Theorem41Printed(PENDANT_SPEC).kirchhoff() == pytest.approx(11.0)
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

    def test_printed_deviations_not_fatal(self):
        rep = verify_construction(P4_SPEC)
        printed = [r for r in rep.records if r.printed is not None]
        assert any(r.printed_dev > 1e-6 for r in printed)
        assert rep.ok

    def test_printed_audit_reuses_structured_factors(self, monkeypatch):
        from pocket_kirch import formulas, linalg, oneinv

        calls = []
        invert = linalg.invert

        def counting(mat):
            calls.append(mat.shape[0])
            return invert(mat)

        assert not hasattr(formulas, "invert")  # the audit inverts nothing itself
        for module in (linalg, oneinv):
            monkeypatch.setattr(module, "invert", counting)
        extra = {}
        for label, spec in builtin_fixtures():
            counts = []
            for include_printed in (True, False):
                calls.clear()
                verify_construction(spec, include_printed=include_printed)
                counts.append(len(calls))
            extra[label] = counts[0] - counts[1]
        # both printed classes take every factor from the structured
        # result; 4.1 derives (L(F1)+(n-k)I)^-1 and L#(F) from H# and the
        # split base block instead of inverting them again.
        assert extra == {
            "p3": 0,
            "p4": 0,
            "thm3-rich": 0,
            "thm4-pendant": 0,
            "thm4-9v": 0,
            "thm4-rich": 0,
        }
