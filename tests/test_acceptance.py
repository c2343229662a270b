"""Acceptance suite: one test per shipped acceptance criterion, run at the
stated tolerance.  `pytest -v tests/test_acceptance.py` prints one pass/fail
line per criterion; each test also prints an explicit criterion verdict.
"""

import hashlib
import math
import random

import numpy as np

from appell4.catalog import (ExpectedStatus, Family, ParamPoint, ParamSampler,
                             Target, VerificationMode, audit_catalog,
                             builtin_catalog, select_identities,
                             verify_identity, verify_recursion_sum)
from appell4.cli import main
from appell4.kernels import pochhammer
from appell4.quadrature import (IntegralRepSpec, RepKind, integral_rep_check,
                                laguerre_rule)
from appell4.series import (F41Params, F42Params, TruncationPolicy,
                            coefficient_grid, convergence_region,
                            divergence_diagnostic, eval_f4_classic, eval_f41,
                            eval_f42, eval_kdf, reduce_to_kdf,
                            scratch_coefficient_f41, scratch_coefficient_f42)


def _verdict(num, label):
    print(f"criterion {num} ({label}): PASS")


def _off_lattice(rng, lo=0.4, hi=2.4):
    # a nonzero imaginary part keeps every draw off the pole lattice
    return complex(rng.uniform(lo, hi),
                   rng.choice((-1, 1)) * rng.uniform(0.3, 1.1))


def _grid_rel(got, want):
    scale = max(np.max(np.abs(want)), 1e-300)
    return float(np.max(np.abs(got - want)) / scale)


def test_criterion_1_oracle_equivalence():
    rng = random.Random(101)
    worst = 0.0
    for j in range(100):
        a, b, c1, c2 = (_off_lattice(rng) for _ in range(4))
        t1, t2 = _off_lattice(rng, 0.5, 3.0), _off_lattice(rng, 0.5, 3.0)
        k1, k2 = rng.choice((0, 1, 2, 3)), rng.choice((0, 1, 2, 3))
        if j % 2 == 0:
            p = F41Params(a, b, c1, c2, t1, t2, k1, k2, 0.1, 0.1)
            scratch = scratch_coefficient_f41
        else:
            p = F42Params(a, b, c1, c2, t1, k1, 0.1, 0.1)
            scratch = scratch_coefficient_f42
        grid = coefficient_grid(p, 20, 20).coeffs
        want = np.array([[scratch(p, m, n) for n in range(21)]
                         for m in range(21)])
        worst = max(worst, _grid_rel(grid, want))
    assert worst <= 1e-12, worst
    _verdict(1, f"oracle equivalence, worst rel {worst:.2e}")


def test_criterion_2_reduction_suite():
    pol = TruncationPolicy(40, 40)
    ms = np.arange(13)[:, None]
    ns = np.arange(13)[None, :]
    cases = [F41Params(1.2 + 0.1j, 0.9, 1.6, 2.1, 1.37, 2.21, k1, k2,
                       0.07, 0.06)
             for k1, k2 in ((0, 0), (1, 0), (0, 1), (1, 1))]
    cases += [F42Params(1.2 + 0.1j, 0.9, 1.6, 2.1, 1.37, k, 0.07, 0.06)
              for k in (0, 1)]
    for p in cases:
        kdf, (sx, sy) = reduce_to_kdf(p)
        grid = coefficient_grid(p, 12, 12).coeffs
        back = coefficient_grid(kdf, 12, 12).coeffs \
            * np.power(float(sx), ms) * np.power(float(sy), ns)
        assert _grid_rel(grid, back) <= 1e-11, type(p).__name__
        evaluate = eval_f41 if isinstance(p, F41Params) else eval_f42
        direct = evaluate(p, pol).value
        via_kdf = eval_kdf(kdf, pol).value
        assert abs(direct - via_kdf) <= 1e-11 * abs(direct)
        if getattr(p, "k1", getattr(p, "k", None)) == 0 and \
                getattr(p, "k2", 0) == 0:
            classic = eval_f4_classic(p.a, p.b, p.c1, p.c2, p.x, p.y, pol)
            assert abs(direct - classic.value) <= 1e-14 * abs(direct)
    _verdict(2, "six k in {0,1} reductions, k=0 equals classical")


def test_criterion_3_theta_t_eigenvalue():
    rng = random.Random(303)
    for _ in range(200):
        t = _off_lattice(rng, 0.3, 3.0)
        n, k = rng.randrange(0, 7), rng.randrange(0, 4)
        weight = n * k
        sign = -1.0 if weight % 2 else 1.0
        kernel = sign * pochhammer(-t, weight)
        shifted = sign * pochhammer(-(t - 1), weight)
        lhs = t * (kernel - shifted)
        rhs = weight * kernel
        assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1.0), (t, n, k)
    _verdict(3, "theta_t eigenvalue nk on the discrete kernel, 200 draws")


def test_criterion_4_catalog_audit():
    suspected = {i.id for i in builtin_catalog()
                 if i.expected_status is ExpectedStatus.SUSPECTED_TYPO}
    summary = audit_catalog(ParamSampler(seed=0, draws=50), M=12, N=12,
                            tolerance=1e-10)
    statuses = {row["id"]: row["status"] for row in summary.rows}
    assert len(statuses) == 181
    for ident in builtin_catalog():
        if ident.id in suspected:
            assert statuses[ident.id] == "typo_confirmed", ident.id
            assert statuses[ident.twin_id] == "ok", ident.twin_id
        else:
            assert statuses[ident.id] == "ok", ident.id
    assert set(summary.failing_everywhere) == suspected
    assert summary.status_contradictions == ()
    # every row of all 181 entries at 50 draws, residuals included, bit for
    # bit; re-recorded when the audit's grids became numpy running products
    # of their step ratios (residuals moved by rounding, the statuses above
    # kept), and again when each draw group's coefficients and weights
    # became numpy columns (residuals moved by rounding, every row's passes
    # kept; the worst ok residual went from 6.106e-15 to 6.078e-15)
    assert hashlib.sha256(summary.to_json().encode()).hexdigest() == (
        "19af779e76abc7d899f17564b89112f6a3bb0575b6683e0011e9b86aaf16f8f2")
    _verdict(4, "50-draw audit: all verified ok, all suspected confirmed")


def test_criterion_5_terminating_summed_mode():
    idents = [i for fam in (Family.A_DDEQ, Family.B_DIFF_FORMULAS,
                            Family.D_RECURSION_SUMS)
              for i in select_identities(family=fam, include_suspected=False)]
    assert len(idents) == 4 + 8 + 10
    for ident in idents:
        if ident.target is Target.F41:
            p = F41Params(0.7 + 0.2j, 1.3 - 0.4j, 2.25, 1.85, 4, 4, 1, 1,
                          0.12, 0.08)
        else:
            p = F42Params(0.7 + 0.2j, 1.3 - 0.4j, 2.25, 1.85, 4, 1,
                          0.12, 0.08)
        rep = verify_identity(ident, ParamPoint(p, r=2, s=2),
                              tolerance=1e-10,
                              mode=VerificationMode.SUMMED_TERMINATING)
        assert rep.passed, (ident.id, rep.rel_residual)
    _verdict(5, "families A, B, D pass summed at t=4, k=1")


def test_criterion_6_recursion_sum_depth():
    sampler = ParamSampler(seed=5)
    rows = select_identities(family=Family.D_RECURSION_SUMS,
                             include_suspected=False)
    for ident in rows:
        pt = sampler.draw(ident, 0)
        for s in (1, 2, 5):
            rep = verify_recursion_sum(ident, pt, s, M=10, N=10,
                                       tolerance=1e-11)
            assert rep.passed, (ident.id, s, rep.rel_residual)
    raiser = next(i for i in rows if i.id == "F41.thm4.1")
    lower = next(i for i in rows if i.id == "F41.thm4.2")
    pt = sampler.draw(raiser, 3)
    up = verify_recursion_sum(raiser, pt, 5, tolerance=1e-11)
    back = verify_recursion_sum(
        lower, ParamPoint(pt.params.replace(a=pt.params.a + 5)), 5,
        tolerance=1e-11)
    assert up.passed and back.passed
    assert pt.params.replace(a=pt.params.a + 5 - 5) == pt.params
    _verdict(6, "family D depths s in {1, 2, 5} and raise/lower round trip")


def test_criterion_7_quadrature():
    for order in (8, 64, 256):
        rule = laguerre_rule(order)
        assert abs(sum(rule.weights) - 1.0) <= 1e-14
        degrees = [j for j in (1, 2, 5, 10) if j <= 2 * order - 1]
        for j in degrees:
            moment = float(np.dot(rule.weights, rule.nodes ** j))
            assert abs(moment / math.factorial(j) - 1.0) <= 1e-12, (order, j)
    rule = laguerre_rule(64)
    p0 = F41Params(2.0, 0.7, 1.2, 0.9, 0.0, 0.0, 0, 0, 0.05, 0.05)
    rep0 = integral_rep_check(IntegralRepSpec(RepKind.REP_A, 0, p0), rule,
                              tolerance=1e-8)
    assert rep0.passed and rep0.rel_residual <= 1e-8

    p1 = F41Params(3.0, 2.0, 1.7, 2.3, 3, 3, 1, 1, 0.3, 0.2)
    rep1 = integral_rep_check(IntegralRepSpec(RepKind.REP_A, 1, p1), rule,
                              tolerance=1e-10)
    assert rep1.passed and rep1.rel_residual <= 1e-10

    rep_b = integral_rep_check(IntegralRepSpec(RepKind.REP_B, 1, p1), rule,
                               tolerance=1e-10)
    qa = complex(*rep1.params["quadrature_value"])
    qb = complex(*rep_b.params["quadrature_value"])
    assert abs(qa - qb) <= 1e-9 * abs(qa)
    _verdict(7, "rule invariants, both representations, mutual agreement")


def test_criterion_8_divergence_diagnostic():
    p = F41Params(1.0, 1.0, 2.0, 2.0, 0.5, 1.0, 1, 0, 0.05, 0.0)
    report = divergence_diagnostic(p, 40)
    assert report.divergence_flag
    assert report.monotone_growth
    tail = report.block_ratios[-4:]
    assert all(r > 1.0 for r in tail)
    assert all(tail[i] < tail[i + 1] for i in range(len(tail) - 1))

    radii = [0.024 * i for i in range(10)]
    points = 0
    for r1 in radii:
        for r2 in radii:
            x = r1 * complex(math.cos(0.7), math.sin(0.7))
            y = r2 * complex(math.cos(-1.1), math.sin(-1.1))
            assert convergence_region(x, y)[0]
            res = eval_f41(F41Params(1.1, 0.9, 1.6, 2.1, 1, 1, 0, 0, x, y))
            assert not res.divergence_flag, (r1, r2)
            points += 1
    assert points == 100
    _verdict(8, "growth flagged off-regime, never flagged inside at k=0")


def test_criterion_9_audit_determinism(capsys):
    runs = []
    for _ in range(2):
        code = main(["audit", "--seed", "42"])
        assert code == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
    assert runs[0].lstrip().startswith("[")
    _verdict(9, "byte-identical audit reports for a fixed seed")
