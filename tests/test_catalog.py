"""Identity-registry tests: catalog shape, per-family verification, typo
twins, composed-argument grids, the deterministic sampler, and whole-catalog
audits."""

import dataclasses
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from appell4.catalog import (
    AuditSummary,
    Composition,
    Constraints,
    ExpectedStatus,
    Family,
    Identity,
    ParamPoint,
    ParamSampler,
    RelationReport,
    SideTerm,
    Target,
    VerificationMode,
    _compose_grid,
    audit_catalog,
    builtin_catalog,
    catalog_by_id,
    point_to_dict,
    select_identities,
    verify_identity,
    verify_recursion_sum,
)
from appell4 import catalog, series
from appell4.errors import ConstraintError, InvalidOperatorError, MarginError
from appell4.operators import (OperatorExpr, apply_expr_to_params,
                               compile_expr, delta_t1, mul_x,
                               shifted_instance, theta_x)
from appell4.series import F41Params, F42Params, coefficient_grid, eval_f41

BYID = catalog_by_id()
SAMPLER = ParamSampler(seed=0)

# terminating two-axis point: t1 = t2 = 4 with unit steps
PT41 = F41Params(0.7 + 0.2j, 1.3 - 0.4j, 2.25, 1.85, 4, 4, 1, 1, 0.12, 0.08)

SUSPECTED_IDS = (
    "F41.thm4.4", "F41.thm4.5", "F42.thm5.3.5",
    "F41.diffrec.13", "F41.diffrec.24", "F41.diffrec.25",
    "F42.diffrec.13", "F42.diffrec.24", "F42.diffrec.25",
)


def draw_reports(ident_id, n=3, **kw):
    ident = BYID[ident_id]
    return [verify_identity(ident, SAMPLER.draw(ident, j), **kw)
            for j in range(n)]


class TestCatalogShape:
    def test_total_and_family_counts(self):
        cat = builtin_catalog()
        assert len(cat) == 181
        counts = {}
        for ident in cat:
            counts[ident.family] = counts.get(ident.family, 0) + 1
        assert counts == {
            Family.A_DDEQ: 4,
            Family.B_DIFF_FORMULAS: 8,
            Family.C_PARTIAL_FORMULAS: 12,
            Family.D_RECURSION_SUMS: 13,
            Family.E_FIRST_ORDER: 32,
            Family.F_SECOND_ORDER: 112,
        }

    def test_ids_unique_and_examples_present(self):
        ids = [i.id for i in builtin_catalog()]
        assert len(set(ids)) == len(ids)
        for want in ("F41.ddeq.1", "F41.thm3.1.a", "F41.diffrec.07",
                     "F42.ddrec.22", "F42.thm5.2.f"):
            assert want in ids

    def test_every_entry_cites_one_location(self):
        for ident in builtin_catalog():
            assert isinstance(ident.anchor, str) and ident.anchor

    def test_suspected_set_and_twin_links(self):
        sus = {i.id for i in builtin_catalog()
               if i.expected_status is ExpectedStatus.SUSPECTED_TYPO}
        assert sus == set(SUSPECTED_IDS)
        for sid in sus:
            ident = BYID[sid]
            assert ident.justification
            twin = BYID[ident.twin_id]
            assert twin.expected_status is ExpectedStatus.VERIFIED
            assert twin.twin_id == sid

    def test_suspected_requires_justification(self):
        ident = BYID["F41.diffE.1"]
        with pytest.raises(ValueError):
            Identity("bogus", ident.family, ident.target, ident.lhs,
                     ident.rhs, expected_status=ExpectedStatus.SUSPECTED_TYPO,
                     anchor="nowhere")

    def test_catalog_immutable(self):
        ident = builtin_catalog()[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            ident.id = "other"

    def test_select_identities_filters(self):
        fam_d = select_identities(family=Family.D_RECURSION_SUMS)
        assert len(fam_d) == 13
        clean = select_identities(family=Family.D_RECURSION_SUMS,
                                  include_suspected=False)
        assert len(clean) == 10
        f42 = select_identities(target=Target.F42)
        assert all(i.target is Target.F42 for i in f42)

    def test_duplicate_ledger_entry_noted(self):
        for tid in ("F41.diffrec.10", "F42.diffrec.10"):
            assert "entry 7" in BYID[tid].notes


class TestFamilyA:
    def test_all_four_pass(self):
        for iid in ("F41.ddeq.1", "F41.ddeq.2", "F42.ddeq.1", "F42.ddeq.2"):
            for rep in draw_reports(iid):
                assert rep.passed and rep.rel_residual <= 1e-10

    def test_terminating_summed_mode(self):
        rep = verify_identity(BYID["F41.ddeq.1"], ParamPoint(PT41),
                              mode=VerificationMode.SUMMED_TERMINATING)
        assert rep.mode is VerificationMode.SUMMED_TERMINATING
        assert rep.passed and rep.rel_residual <= 1e-10

    def test_step_zero_rejected(self):
        p = PT41.replace(k1=0, k2=0)
        with pytest.raises(ConstraintError):
            verify_identity(BYID["F41.ddeq.1"], ParamPoint(p))


class TestFamilyB:
    def test_all_eight_pass(self):
        ids = ("F41.thm3.1.a", "F41.thm3.1.b", "F41.thm3.1.c", "F41.thm3.1.d",
               "F42.thm5.1.a", "F42.thm5.1.b", "F42.thm5.1.c", "F42.thm5.1.d")
        for iid in ids:
            for rep in draw_reports(iid):
                assert rep.passed, (iid, rep.rel_residual)

    def test_difference_rows_pin_unit_step(self):
        with pytest.raises(ConstraintError):
            verify_identity(BYID["F41.thm3.1.a"],
                            ParamPoint(PT41.replace(k1=2)))
        with pytest.raises(ConstraintError):
            verify_identity(BYID["F42.thm5.1.c"],
                            ParamPoint(F42Params(0.7, 1.3, 2.25, 1.85, 4, 2,
                                                 0.1, 0.1)))

    def test_high_order_r(self):
        ident = BYID["F41.thm3.1.c"]
        pt = SAMPLER.draw(ident, 0)
        rep = verify_identity(ident, ParamPoint(pt.params, r=3))
        assert rep.passed


class TestFamilyC:
    def test_all_twelve_pass(self):
        for ident in select_identities(family=Family.C_PARTIAL_FORMULAS):
            for j in range(2):
                rep = verify_identity(ident, SAMPLER.draw(ident, j))
                assert rep.passed, (ident.id, rep.rel_residual)

    def test_composed_grid_is_argument_substitution(self):
        # the (x, x*y) grid summed against x^u y^v must equal the series
        # evaluated at literally substituted arguments; terminating t makes
        # both routes exact finite sums
        p = PT41
        M = N = 18
        base = np.asarray(coefficient_grid(p, M, N).coeffs)
        grid = _compose_grid(base, Composition.SECOND_IS_XY)
        xp = np.power(p.x, np.arange(M + 1))
        yp = np.power(p.y, np.arange(N + 1))
        composed = complex(xp @ grid @ yp)
        direct = eval_f41(p.replace(x=p.x, y=p.x * p.y)).value
        assert abs(composed - direct) / abs(direct) < 1e-12

    def test_composed_grid_cells(self):
        p = F41Params(0.9, 1.4, 2.2, 1.6, 1.5, 2.5, 1, 1, 0.07, 0.05)
        base = np.asarray(coefficient_grid(p, 8, 8).coeffs)
        second = _compose_grid(base, Composition.SECOND_IS_XY)
        first = _compose_grid(base, Composition.FIRST_IS_XY)
        assert second[5, 2] == base[3, 2] and second[2, 5] == 0.0
        assert first[2, 5] == base[2, 3] and first[5, 2] == 0.0

    def test_non_diagonal_factor_rejected_on_composed_grid(self):
        ident = BYID["F41.thm3.2.a"]
        pt = SAMPLER.draw(ident, 0)
        bad_terms = (SideTerm(1.0, OperatorExpr.of(mul_x), pt.params,
                              Composition.SECOND_IS_XY),)
        bad = dataclasses.replace(ident, id="bad", lhs=lambda _: bad_terms)
        with pytest.raises(InvalidOperatorError):
            verify_identity(bad, pt)


class TestFamilyD:
    def test_printed_correct_rows_pass(self):
        ids = ("F41.thm4.1", "F41.thm4.2", "F41.thm4.3",
               "F42.thm5.3.1", "F42.thm5.3.2", "F42.thm5.3.3", "F42.thm5.3.4")
        for iid in ids:
            for rep in draw_reports(iid):
                assert rep.passed, (iid, rep.rel_residual)

    def test_recursion_sum_spec_examples(self):
        ident = BYID["F41.thm4.1"]
        pt = SAMPLER.draw(ident, 1)
        one = verify_recursion_sum(ident, pt, 1)
        assert one.passed
        three = verify_recursion_sum(ident, pt, 3, M=10, N=10)
        assert three.passed and three.rel_residual <= 1e-11

    def test_zero_arguments_reduce_to_one(self):
        ident = BYID["F41.thm4.2"]
        pt = SAMPLER.draw(ident, 0, terminating=True)
        p0 = pt.params.replace(x=0.0, y=0.0)
        rep = verify_identity(ident, ParamPoint(p0, s=pt.s),
                              mode=VerificationMode.SUMMED_TERMINATING)
        assert rep.passed
        # both sides are plain instances at the origin: value exactly 1
        lhs_grid = apply_expr_to_params(ident.lhs(ParamPoint(p0, s=pt.s))[0].expr,
                                        p0.replace(a=p0.a - pt.s), 4, 4)
        assert lhs_grid[0, 0] == 1.0

    def test_raise_then_lower_round_trip(self):
        raiser, lower = BYID["F41.thm4.1"], BYID["F41.thm4.2"]
        pt = SAMPLER.draw(raiser, 2)
        s = 3
        up = verify_recursion_sum(raiser, pt, s)
        back = verify_recursion_sum(
            lower, ParamPoint(pt.params.replace(a=pt.params.a + s)), s)
        assert up.passed and back.passed
        assert pt.params.replace(a=pt.params.a + s - s) == pt.params

    def test_recursion_sum_guards(self):
        with pytest.raises(ConstraintError):
            verify_recursion_sum(BYID["F41.ddeq.1"], ParamPoint(PT41), 2)
        with pytest.raises(ConstraintError):
            verify_recursion_sum(BYID["F41.thm4.1"],
                                 SAMPLER.draw(BYID["F41.thm4.1"], 0), 0)


class TestFamilyE:
    def test_sample_rows_all_realizations(self):
        for iid in ("F41.diffE.1", "F41.diffE.6", "F41.ddE.2", "F41.ddE.7",
                    "F42.diffE.3", "F42.diffE.5", "F42.ddE.4", "F42.ddE.8"):
            for rep in draw_reports(iid):
                assert rep.passed, (iid, rep.rel_residual)

    def test_spec_tolerance_example(self):
        for rep in draw_reports("F41.diffE.1", n=5, M=12, N=12):
            assert rep.rel_residual <= 1e-12

    @pytest.mark.parametrize("iid", ["F41.diffE.1", "F41.ddE.1",
                                     "F42.diffE.1", "F42.ddE.1"])
    def test_raise_lower_composition_is_identity(self, iid):
        # a-raise weights each cell by (a + w)/a; the a-lower relation at the
        # raised parameter divides it back out (w = m + n in every realization)
        ident = BYID[iid]
        pt = SAMPLER.draw(ident, 0)
        p = pt.params
        M = N = 12
        base = np.asarray(coefficient_grid(p, M, N).coeffs)
        raised = np.asarray(coefficient_grid(p.replace(a=p.a + 1), M, N).coeffs)
        w = np.arange(M + 1)[:, None] + np.arange(N + 1)[None, :]
        back = raised * p.a / (p.a + w)
        assert np.max(np.abs(back - base)) / np.max(np.abs(base)) <= 1e-11

    def test_c_raise_lower_composition_is_identity(self):
        # c1 rows: weight is the first index alone
        p = SAMPLER.draw(BYID["F41.diffE.5"], 1).params
        M = N = 12
        base = np.asarray(coefficient_grid(p, M, N).coeffs)
        raised = np.asarray(coefficient_grid(p.replace(c1=p.c1 + 1), M, N).coeffs)
        w = np.arange(M + 1)[:, None] + np.zeros(N + 1)[None, :]
        back = raised * (p.c1 + w) / p.c1
        assert np.max(np.abs(back - base)) / np.max(np.abs(base)) <= 1e-11

    def test_difference_rows_need_positive_step(self):
        p = PT41.replace(k1=0)
        with pytest.raises(ConstraintError):
            verify_identity(BYID["F41.ddE.1"], ParamPoint(p))


class TestFamilyF:
    def test_row_sample_every_ledger(self):
        for iid in ("F41.diffrec.01", "F41.diffrec.10", "F41.diffrec.23",
                    "F41.diffrec.28", "F41.ddrec.10", "F41.ddrec.24",
                    "F41.ddrec.25", "F42.diffrec.05", "F42.diffrec.26",
                    "F42.ddrec.01", "F42.ddrec.13", "F42.ddrec.22"):
            for rep in draw_reports(iid, n=2):
                assert rep.passed, (iid, rep.rel_residual)

    def test_second_analogue_difference_ledger_stops_at_22(self):
        ids = {i.id for i in builtin_catalog()}
        assert "F42.ddrec.22" in ids and "F42.ddrec.23" not in ids


class TestTypoTwins:
    @pytest.mark.parametrize("sid", SUSPECTED_IDS)
    def test_printed_fails_and_twin_passes(self, sid):
        printed, twin = BYID[sid], BYID[BYID[sid].twin_id]
        for j in range(4):
            assert not verify_identity(printed, SAMPLER.draw(printed, j)).passed
            assert verify_identity(twin, SAMPLER.draw(twin, j)).passed

    def test_parity_pinned_entry_rejects_even_sums(self):
        ident = BYID["F41.thm4.4"]
        with pytest.raises(ConstraintError):
            verify_identity(ident, ParamPoint(PT41.replace(k1=1, k2=1)))
        pt = SAMPLER.draw(ident, 0)
        assert (pt.params.k1 + pt.params.k2) % 2 == 1


class TestSampler:
    def test_draw_is_deterministic_per_identity_and_index(self):
        ident = BYID["F41.diffrec.01"]
        a = ParamSampler(seed=5).draw(ident, 3)
        b = ParamSampler(seed=5).draw(ident, 3)
        c = ParamSampler(seed=5).draw(ident, 4)
        assert a == b and a != c

    def test_rejection_margins(self):
        ident = BYID["F41.ddrec.01"]
        for j in range(30):
            p = SAMPLER.draw(ident, j).params
            for v, d in ((p.a, 0.05), (p.b, 0.05), (p.t1, 0.05),
                         (p.t2, 0.05), (p.c1, 0.1), (p.c2, 0.1)):
                assert abs(v - round(v.real)) >= d
            assert abs(p.c1 - p.c2) >= 0.05
            for z in (p.x, p.y):
                assert 0.05 <= abs(z) <= 0.4
            assert p.k1 in (1, 2, 3) and p.k2 in (1, 2, 3)

    def test_exact_constraints_respected(self):
        for j in range(10):
            assert SAMPLER.draw(BYID["F41.thm3.1.a"], j).params.k1 == 1
            assert SAMPLER.draw(BYID["F42.thm5.1.d"], j).params.k == 1

    def test_terminating_draws(self):
        pt = SAMPLER.draw(BYID["F41.thm4.1"], 0, terminating=True)
        p = pt.params
        assert p.t1 == p.k1 * round(p.t1.real / p.k1)
        assert float(p.t1.real).is_integer() and p.t1.imag == 0.0

    def test_r_and_s_only_when_used(self):
        assert SAMPLER.draw(BYID["F41.diffE.1"], 0) == ParamPoint(
            SAMPLER.draw(BYID["F41.diffE.1"], 0).params, r=1, s=1)
        assert any(SAMPLER.draw(BYID["F41.thm4.1"], j).s > 1 for j in range(6))
        assert any(SAMPLER.draw(BYID["F41.thm3.1.c"], j).r > 1 for j in range(6))

    def test_seed_and_draws_are_the_only_settings(self):
        assert [f.name for f in dataclasses.fields(ParamSampler)] == \
            ["seed", "draws"]

    def test_a_draw_calls_no_numpy(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a draw called numpy")

        monkeypatch.setattr(np, "cos", refuse)
        monkeypatch.setattr(np, "sin", refuse)
        for ident in (BYID["F41.thm4.1"], BYID["F42.thm5.1.d"]):
            for terminating in (False, True):
                p = SAMPLER.draw(ident, 0, terminating).params
                assert 0.05 <= abs(p.x) <= 0.4 and 0.05 <= abs(p.y) <= 0.4


class TestAudit:
    def test_zero_draws_empty_summary(self):
        summary = audit_catalog(ParamSampler(seed=0, draws=0))
        assert summary == AuditSummary((), (), ())

    def test_subset_audit_statuses(self):
        idents = [BYID["F41.ddeq.1"], BYID["F41.diffrec.13"],
                  BYID["F41.diffrec.13c"]]
        summary = audit_catalog(ParamSampler(seed=1, draws=4),
                                identities=idents)
        by = {row["id"]: row for row in summary.rows}
        assert by["F41.ddeq.1"]["status"] == "ok"
        assert by["F41.diffrec.13"]["status"] == "typo_confirmed"
        assert by["F41.diffrec.13c"]["status"] == "ok"
        assert summary.failing_everywhere == ("F41.diffrec.13",)
        assert summary.status_contradictions == ()
        assert [row["id"] for row in summary.rows] == [i.id for i in idents]

    def test_passing_suspected_is_contradiction(self):
        good = BYID["F41.diffE.1"]
        fake = dataclasses.replace(
            good, id="fake.sus", expected_status=ExpectedStatus.SUSPECTED_TYPO,
            justification="deliberately mislabeled for the audit test")
        summary = audit_catalog(ParamSampler(seed=2, draws=3),
                                identities=[fake])
        assert summary.rows[0]["status"] == "status_contradiction"
        assert summary.status_contradictions == ("fake.sus",)

    def test_audit_is_deterministic(self):
        idents = list(select_identities(family=Family.A_DDEQ))
        one = audit_catalog(ParamSampler(seed=9, draws=4), identities=idents)
        two = audit_catalog(ParamSampler(seed=9, draws=4), identities=idents)
        other = audit_catalog(ParamSampler(seed=10, draws=4), identities=idents)
        assert one.to_json() == two.to_json()
        assert one.to_json() != other.to_json()

    def test_json_rows_have_stable_fields(self):
        summary = audit_catalog(ParamSampler(seed=0, draws=1),
                                identities=[BYID["F41.ddeq.1"]])
        rows = json.loads(summary.to_json())
        assert list(rows[0]) == ["id", "paper_anchor", "draws", "passes",
                                 "worst_rel_residual", "status"]

    def test_full_catalog_single_draw(self):
        summary = audit_catalog(ParamSampler(seed=0, draws=1))
        by = {row["id"]: row for row in summary.rows}
        for ident in builtin_catalog():
            expect = "typo_confirmed" if ident.id in SUSPECTED_IDS else "ok"
            assert by[ident.id]["status"] == expect, ident.id


class TestReports:
    def test_as_dict_field_names(self):
        rep = draw_reports("F41.diffE.1", n=1)[0]
        assert list(rep.as_dict()) == [
            "identity_id", "params", "mode", "max_abs_residual", "scale",
            "rel_residual", "pass", "cells_checked", "tolerance"]
        assert rep.as_dict()["pass"] is True
        assert rep.cells_checked == 13 * 13

    def test_pass_iff_within_tolerance(self):
        ok = draw_reports("F41.diffE.1", n=1)[0]
        assert ok.passed == (ok.rel_residual <= ok.tolerance)
        bad = draw_reports("F41.diffrec.24", n=1)[0]
        assert not bad.passed and bad.rel_residual > bad.tolerance

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1e-10])
    def test_tolerance_must_be_finite_and_nonnegative(self, tolerance):
        with pytest.raises(ValueError):
            verify_identity(BYID["F41.diffE.1"], ParamPoint(PT41),
                            tolerance=tolerance)
        with pytest.raises(ValueError):
            audit_catalog(SAMPLER, tolerance=tolerance)

    def test_point_serialization(self):
        d = point_to_dict(ParamPoint(PT41, r=2, s=3))
        assert d["target"] == "F41" and d["k1"] == 1 and d["r"] == 2
        assert d["a"] == [0.7, 0.2]
        d2 = point_to_dict(ParamPoint(F42Params(1, 1, 2, 2, 1, 1, 0.1, 0.1)))
        assert d2["target"] == "F42" and "t" in d2 and "t1" not in d2

    def test_param_point_validation(self):
        with pytest.raises(ConstraintError):
            ParamPoint(PT41, r=0)
        with pytest.raises(ConstraintError):
            ParamPoint(PT41, s=-1)


class TestErrorPaths:
    def test_wrong_target_params(self):
        with pytest.raises(ConstraintError):
            verify_identity(BYID["F42.ddeq.1"], ParamPoint(PT41))

    def test_margin_error(self):
        ident = BYID["F41.thm3.1.c"]
        pt = SAMPLER.draw(ident, 0)
        with pytest.raises(MarginError):
            verify_identity(ident, ParamPoint(pt.params, r=3), M=2, N=2)

    def test_rectangle_budget_is_checked(self):
        # build_grids checks the rectangle as coefficient_grid does
        with pytest.raises(ValueError, match="exceeds"):
            verify_identity(BYID["F41.ddeq.1"], ParamPoint(PT41), M=512,
                            N=512)

    def test_summed_mode_needs_termination(self):
        ident = BYID["F41.thm4.1"]
        with pytest.raises(ConstraintError):
            verify_identity(ident, SAMPLER.draw(ident, 0),
                            mode=VerificationMode.SUMMED_TERMINATING)

    def test_summed_mode_needs_exactly_integer_t(self):
        # t = 4 + 1e-10 has no exact zero in (-t)_n, so nothing terminates
        p = PT41.replace(t1=4 + 1e-10)
        with pytest.raises(ConstraintError):
            verify_identity(BYID["F41.ddeq.1"], ParamPoint(p),
                            mode=VerificationMode.SUMMED_TERMINATING)

    def test_summed_mode_needs_shift_slack(self):
        # t = 4 with unit step has support 4; slack 3 exceeds a 6-cell margin
        p = PT41.replace(t1=4, t2=4)
        with pytest.raises(ConstraintError):
            verify_identity(BYID["F41.ddeq.1"], ParamPoint(p), M=6, N=6,
                            mode=VerificationMode.SUMMED_TERMINATING)


class TestAuditPhases:
    """audit_catalog plans the draw groups of a pass, builds their grids,
    then compares; the rows and the errors are those of one draw after
    another."""

    IDS = [ident.id for ident in builtin_catalog()[:40:3]]

    def idents(self):
        return [BYID[i] for i in self.IDS]

    def test_chunking_and_lanes_leave_the_rows_alone(self, monkeypatch):
        sampler = ParamSampler(seed=11, draws=6)
        want = audit_catalog(sampler, identities=self.idents()).to_json()
        # passes of about 40 grids, whose groups hold at most 2 draws, and
        # one draw per pass, each too large for it: a draw rounds as it does
        # in a group of one, and its grids are lanes, whose bytes do not
        # depend on the other lanes, so every byte of the report stays
        for cells in (40 * 13 * 13, 1):
            monkeypatch.setattr(catalog, "_PLAN_CELLS", cells)
            assert audit_catalog(sampler, identities=self.idents()
                                 ).to_json() == want

    def test_a_lone_verify_gives_each_row_its_residual(self):
        # verify_identity at each draw, outside the audit, gives the row's
        # worst residual and its passes bit for bit
        sampler = ParamSampler(seed=11, draws=4)
        idents = builtin_catalog()[::4]
        rows = audit_catalog(sampler, identities=idents).rows
        for ident, row in zip(idents, rows):
            reports = [verify_identity(ident, sampler.draw(ident, j))
                       for j in range(sampler.draws)]
            assert row["worst_rel_residual"] == \
                max(report.rel_residual for report in reports), ident.id
            assert row["passes"] == sum(report.passed for report in reports)
        assert len(rows) == 46

    def test_comparisons_make_no_miss(self, monkeypatch):
        # the comparisons read the grids the pass built: no grid request,
        # and no pass builds more than _PLAN_CELLS cells of grids
        builds = []
        build_stacks = catalog.build_stacks
        monkeypatch.setattr(catalog, "build_stacks", lambda params, M, N:
                            builds.append(sum(p.a.size for p in params))
                            or build_stacks(params, M, N))
        series._grid_coeffs.cache_clear()
        summary = audit_catalog(ParamSampler(seed=5, draws=4))
        assert len(builds) >= 3 and max(builds) * 13 * 13 \
            <= catalog._PLAN_CELLS
        info = series._grid_coeffs.cache_info()
        assert (info.misses, info.hits) == (0, 0)
        assert {row["status"] for row in summary.rows} == \
            {"ok", "typo_confirmed"}

    def test_side_builder_error_is_raised_at_its_draw(self, monkeypatch):
        # the sixth entry's left side fails wherever Re a > 1: its group
        # raises, and the entry is verified draw by draw in its turn, so the
        # error is that of its first such draw; the entries before it are
        # judged as groups, with no lone verify_identity, and the entries
        # after it are planned in the same pass but never compared
        idents = self.idents()
        target = idents[5]
        sampler = ParamSampler(seed=3, draws=8)

        def lhs(pt):
            a = pt.params.a
            if (a.real > 1.0).any():
                raise ZeroDivisionError(
                    f"no left side at a = {complex(a[a.real > 1.0][0])}")
            return target.lhs(pt)

        idents[5] = dataclasses.replace(target, lhs=lhs)
        first = next(j for j in range(sampler.draws)
                     if sampler.draw(target, j).params.a.real > 1.0)
        a = sampler.draw(target, first).params.a
        verified, compared = [], []
        verify, judge = catalog.verify_identity, catalog._compare
        monkeypatch.setattr(catalog, "verify_identity",
                            lambda ident, point, *args, **kw:
                            verified.append((ident.id, point_to_dict(point)))
                            or verify(ident, point, *args, **kw))
        monkeypatch.setattr(catalog, "_compare", lambda group, *args:
                            compared.append(group.draws)
                            or judge(group, *args))
        with pytest.raises(ZeroDivisionError) as err:
            audit_catalog(sampler, identities=idents)
        assert str(err.value) == f"no left side at a = {a}"
        assert verified == [(target.id, point_to_dict(sampler.draw(target, j)))
                            for j in range(first + 1)]
        # compared: the first five entries' draws in groups; the target's
        # groups before its first group that raises, in the order of their
        # first draws; then its lone draws before the one that raises
        groups = {}
        for j in range(sampler.draws):
            point = sampler.draw(target, j)
            key = (point.r, point.s, point.params.k1, point.params.k2)
            groups.setdefault(key, []).append(point.params.a.real > 1.0)
        before = 0
        for raises in groups.values():
            if any(raises):
                break
            before += len(raises)
        assert sum(compared) == 5 * sampler.draws + before + first
        assert len(idents) > 6 and before > 0 and first > 0

    def test_a_pass_holds_at_most_its_cells(self, monkeypatch):
        # an entry whose draw reads 24 grids, in passes of 64: it holds at
        # most 8 draws, so its groups hold at most 8, and a group that
        # exceeds a pass is planned again in pieces of at most 2 draws; no
        # pass holds more than _PLAN_CELLS cells of grids, and the rows are
        # those of the default passes
        def side(pt):
            expr = OperatorExpr.of(*[delta_t1] * 5)
            return tuple(SideTerm(1.0, expr,
                                  pt.params.replace(a=pt.params.a + i))
                         for i in range(2))

        wide = Identity("wide", Family.E_FIRST_ORDER, Target.F41, side, side,
                        anchor="a test entry")
        sampler = ParamSampler(seed=2, draws=40)
        want = audit_catalog(sampler, identities=[wide]).to_json()
        builds, plans = [], []
        build_stacks, plan = catalog.build_stacks, catalog._plan
        monkeypatch.setattr(catalog, "build_stacks", lambda params, M, N:
                            builds.append(sum(p.a.size for p in params))
                            or build_stacks(params, M, N))
        monkeypatch.setattr(catalog, "_plan", lambda ident, points, M, N:
                            plans.append(len(points))
                            or plan(ident, points, M, N))
        monkeypatch.setattr(catalog, "_PLAN_CELLS", 64 * 13 * 13)
        assert audit_catalog(sampler, identities=[wide]).to_json() == want
        assert max(builds) <= 64 and sum(builds) == 24 * sampler.draws
        assert 2 < max(plans) <= 8
        assert sum(n for n in plans if n <= 2) == sampler.draws


def point_to_dict_reference(point):
    """point_to_dict as it read the fields through dataclasses.fields."""
    p = point.params
    out = {"target": "F41" if isinstance(p, F41Params) else "F42"}
    for name in (f.name for f in dataclasses.fields(p)):
        v = getattr(p, name)
        out[name] = v if isinstance(v, int) else [float(v.real), float(v.imag)]
    out["r"] = point.r
    out["s"] = point.s
    return out


class _Stop(Exception):
    pass


class TestAuditMechanism:
    """What the audit pays per draw group: parameter instances through
    their own replace, one plan per group and no verify_identity, and lane
    batches keyed by the fields alone."""

    def test_no_dataclasses_replace_and_one_plan_per_group(self,
                                                           monkeypatch):
        builtin_catalog()
        counts = {"replace": 0, "init": 0, "verify": 0, "plan": 0}
        replace = dataclasses.replace

        def counted_replace(obj, **changes):
            if isinstance(obj, (F41Params, F42Params)):
                counts["replace"] += 1
            return replace(obj, **changes)

        def counted(name, fn):
            def call(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(dataclasses, "replace", counted_replace)
        monkeypatch.setattr(catalog, "_dc_replace", counted_replace)
        for cls in (F41Params, F42Params):
            monkeypatch.setattr(cls, "__init__",
                                counted("init", cls.__init__))
        monkeypatch.setattr(catalog, "verify_identity",
                            counted("verify", catalog.verify_identity))
        monkeypatch.setattr(catalog, "_plan", counted("plan", catalog._plan))
        sampler = ParamSampler(seed=0, draws=3)
        summary = audit_catalog(sampler)
        groups = sum(len({(pt.r, pt.s) + tuple(getattr(pt.params, k)
                                               for k in pt.params._KS)
                          for pt in (sampler.draw(ident, j)
                                     for j in range(3))})
                     for ident in builtin_catalog())
        draws = 3 * len(builtin_catalog())
        # the sampler constructs one instance per draw (counted above once
        # more for each draw that makes the groups); every other instance
        # comes from F41Params/F42Params.replace or param_columns, which
        # run no __init__
        assert counts == {"replace": 0, "init": 2 * draws, "verify": 0,
                          "plan": groups}
        assert draws > groups > len(builtin_catalog())
        assert {row["status"] for row in summary.rows} == \
            {"ok", "typo_confirmed"}

    def test_the_acceptance_audit_compiles_once_per_group_term(
            self, monkeypatch):
        # the seed-0 50-draw audit: 1,370 draw groups of 6.6 draws on
        # average, each term compiled once per group, where one compile per
        # draw made 20,529 calls
        calls = []
        compile_expr = catalog.compile_expr
        monkeypatch.setattr(catalog, "compile_expr", lambda *args:
                            calls.append(1) or compile_expr(*args))
        summary = audit_catalog(ParamSampler(seed=0, draws=50))
        assert len(calls) == 3453
        assert [row["status"] for row in summary.rows].count("ok") == 172

    def test_a_chunk_builds_as_many_lane_batches_as_before(self,
                                                           monkeypatch):
        # the first pass of the seed-0 acceptance audit: 9 structures, and
        # one batch of rows per chain of each structure's chain set, as when
        # grids were built by instance; batches per group would make one
        # chain set per group
        def stop(params, M, N):
            passes.append((list(params), M, N))
            raise _Stop

        passes = []
        monkeypatch.setattr(catalog, "build_stacks", stop)
        with pytest.raises(_Stop):
            audit_catalog(ParamSampler(seed=0))
        params, M, N = passes[0]
        grids = sum(p.a.size for p in params)
        assert 700 < grids <= 775 and (M, N) == (12, 12)
        assert len({series._structure(p) for p in params}) == 9
        assert len(params) < grids / 5
        batches = []
        chain_rows = series._chain_rows
        monkeypatch.setattr(series, "_chain_rows", lambda chain, lanes:
                            batches.append(lanes)
                            or chain_rows(chain, lanes))
        stacks = series.build_stacks(params, 12, 12)
        assert sum(finite.sum() for _, finite in stacks) > 700
        assert len(batches) == 27 and sum(batches) == 3 * grids

    def test_a_chunk_makes_its_symbols_once_per_structure(self, monkeypatch):
        # the same pass makes one chain set per structure group, its
        # symbols holding columns: at most 6 symbols per group (F41: a, b,
        # t1, t2, c1 and c2; the factorial is made once), where one chain
        # set per grid made 6 per grid
        def stop(params, M, N):
            passes.append(list(params))
            raise _Stop

        passes = []
        with monkeypatch.context() as patch:
            patch.setattr(catalog, "build_stacks", stop)
            with pytest.raises(_Stop):
                audit_catalog(ParamSampler(seed=0))
        params = passes[0]
        groups = len({series._structure(p) for p in params})
        assert groups == 9
        made = {series._Rising: 0, series._TFactor: 0}
        for cls in made:
            init = cls.__init__
            monkeypatch.setattr(cls, "__init__",
                                lambda self, *a, cls=cls, init=init:
                                made.__setitem__(cls, made[cls] + 1)
                                or init(self, *a))
        stacks = series.build_stacks(params, 12, 12)
        assert sum(finite.sum() for _, finite in stacks) > 700
        assert made[series._TFactor] > 0
        assert sum(made.values()) <= 6 * groups

    def test_memory_does_not_grow_with_the_draws(self):
        # an entry holds at most an eighth of a pass in draws before it
        # plans a group, and a pass holds at most _PLAN_CELLS cells of
        # grids, so nothing grows with the draws once a pass fills, as it
        # does here before 200 draws: the traced peak read 3.03 MB at 200
        # draws, 3.31 MB at 800 and 3.35 MB at 1,600
        ident = BYID["F41.thm4.1"]
        peaks = []
        for draws in (200, 800):
            tracemalloc.start()
            try:
                summary = audit_catalog(ParamSampler(seed=6, draws=draws),
                                        identities=[ident])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert summary.rows[0]["status"] == "ok"
        assert peaks[1] < 1.2 * peaks[0] and peaks[1] < 4e6, peaks

    def test_point_to_dict_is_unchanged(self):
        for ident in builtin_catalog()[::7]:
            for j in range(3):
                point = SAMPLER.draw(ident, j)
                got = point_to_dict(point)
                want = point_to_dict_reference(point)
                assert got == want
                assert json.dumps(got) == json.dumps(want)
                assert list(got) == list(want)


def check_plan_corpus(seeds, draws, terminating, compiled, M=12, N=12):
    """SHA-256 digests of what the audit's plan phase makes, over every
    catalog entry:
      "compiled"  the compiled terms of the first `compiled` draws of
                  seeds[0], as the audit plans them: the draws that share r,
                  s and the k fields planned as one group (catalog._plan),
                  then read for each draw in turn, every side term's keys
                  in order: the point_to_dict of the key's instance at that
                  draw, dm, dn and the shape of the weight's row for the
                  draw, then that row's bytes;
      "draws"     point_to_dict of the first `draws` plain draws, then
                  `terminating` terminating ones, at each seed.
    The digests see a last bit of a weight or a draw that a residual may
    absorb.  Returns the two digests and the counts of terms and draws."""
    idents = builtin_catalog()
    weights, points = hashlib.sha256(), hashlib.sha256()
    terms = count = 0
    sampler = ParamSampler(seed=seeds[0])
    for ident in idents:
        groups = {}
        for j in range(compiled):
            point = sampler.draw(ident, j)
            key = (point.r, point.s) + tuple(getattr(point.params, k)
                                             for k in point.params._KS)
            groups.setdefault(key, []).append((j, point))
        rows = {}
        for members in groups.values():
            group = catalog._plan(ident, [pt for _, pt in members], M, N)
            for d, (j, _) in enumerate(members):
                rows[j] = (group, d)
        for j in range(compiled):
            group, d = rows[j]
            for t in group.lhs + group.rhs:
                terms += 1
                for (path, dm, dn), w in t.compiled.items():
                    q = series.param_entry(shifted_instance(t.term.params,
                                                            path), d)
                    row = w[d] if np.ndim(w) == 3 else w
                    weights.update(json.dumps(
                        [point_to_dict(ParamPoint(q)), dm, dn,
                         np.shape(row)]).encode())
                    weights.update(np.asarray(row, np.complex128).tobytes())
    for seed in seeds:
        sampler = ParamSampler(seed=seed)
        for ident in idents:
            for j in range(draws + terminating):
                point = sampler.draw(ident, j, terminating=j >= draws)
                points.update(json.dumps(point_to_dict(point)).encode())
                count += 1
    return {"compiled": weights.hexdigest(), "draws": points.hexdigest(),
            "terms": terms, "draw_count": count}


class TestPlanBits:
    """The plan phase keeps its bytes: the keys and weights of every
    compiled term and every drawn point.  A full run is
    check_plan_corpus(range(16), 50, 3, 50); this slice keeps about a
    second."""

    # check_plan_corpus((0, 1, 42), 8, 2, 6); "compiled" re-recorded when
    # each draw group was compiled once on numpy columns (a quarter of the
    # weights and coefficients moved by rounding, at most 1.7e-14 relative,
    # and a column weight's row is (1, 1) where a number was ())
    GOLDEN = {"compiled": "25e0540042f4220f99345c8fe4b0a943"
                          "836c4c70f77802675e7041ffff6e33e5",
              "draws": "418270d2f40b1b695903ae1fabf170ea"
                       "4a8934e9ab51be8b3f9e19f9d71ce9aa"}

    def test_plan_bytes(self):
        got = check_plan_corpus((0, 1, 42), 8, 2, 6)
        assert (got["terms"], got["draw_count"]) == (2457, 3 * 181 * 10)
        assert {k: got[k] for k in self.GOLDEN} == self.GOLDEN


class TestComposeGrid:
    @pytest.mark.parametrize("shape", [(21, 17), (17, 21), (3, 9), (9, 3),
                                       (13, 13), (1, 5)])
    def test_thin_rectangles(self, shape):
        rng = np.random.default_rng(sum(shape))
        arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        rows, cols = shape
        second = _compose_grid(arr, Composition.SECOND_IS_XY)
        first = _compose_grid(arr, Composition.FIRST_IS_XY)
        for u in range(rows):
            for v in range(cols):
                assert second[u, v] == (arr[u - v, v] if u >= v else 0)
                assert first[u, v] == (arr[u, v - u] if v >= u else 0)
