"""Gauss-Laguerre rule construction and the integral-representation checks.

The node sum Sigma w_i u_i^(a-1) f(u_i) is Gauss-exact only when the full
integrand is polynomial, i.e. when a - 1 is a nonnegative integer in the
terminating regime; for non-integer a the u^(a-1) endpoint factor limits
convergence to an algebraic rate in the order.  The tests pin the stated
tolerances on the polynomial-exponent domain and freeze the measured
algebraic rates elsewhere as documented limitations.
"""

import cmath
import importlib.util
import math
import os

import numpy as np
import pytest

import appell4.quadrature as quadrature
import appell4.series as series
from appell4.errors import (Appell4Error, ConstraintError,
                            OverflowSignalError, QuadratureConvergenceError,
                            RegimeError)
from appell4.quadrature import (
    IntegralRepSpec,
    LaguerreRule,
    RepKind,
    integral_rep_check,
    integrand_kdf,
    laguerre_rule,
)
from appell4.series import EVAL_POLICY, F41Params, KdfParams, eval_kdf

RULE64 = laguerre_rule(64)

# k = 0 point with polynomial exponent (a - 1 = 1)
P_K0 = F41Params(2.0, 0.7, 1.2, 0.9, 0.0, 0.0, 0, 0, 0.05, 0.05)
# terminating k = 1 point with polynomial exponent (a - 1 = 2)
P_K1 = F41Params(3.0, 2.0, 1.7, 2.3, 3, 3, 1, 1, 0.3, 0.2)


def quad_value(report):
    return complex(*report.params["quadrature_value"])


def check_grid(spec, order=64):
    """The inner grid as integral_rep_check prepares it for the nodes of
    laguerre_rule(order), with the support its largest node's arguments
    choose."""
    reach = (-spec.k) ** spec.k * float(laguerre_rule(order).nodes[-1])
    p = spec.params
    return series._support(series._prepared_grid(quadrature._inner_kdf(spec),
                                                 EVAL_POLICY),
                           reach * p.x, reach * p.y)


def pool_specs(kind, count):
    """The specs and rule orders of the first count quadcheck operations of
    perfbench's pool kind (perfbench/bench_inputs.py, loaded from its
    path)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    loader = importlib.util.spec_from_file_location(
        "bench_inputs", os.path.join(root, "perfbench", "bench_inputs.py"))
    bench_inputs = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(bench_inputs)
    specs = []
    for argv in bench_inputs.pools()[kind][:count]:
        o = dict(zip(argv[1::2], argv[2::2]))
        k = int(o["--k"])
        p = F41Params(*(complex(o[f"--{name}"]) for name in
                        ("a", "b", "c1", "c2", "t1", "t2")),
                      k, k, complex(o["--x"]), complex(o["--y"]))
        specs.append((IntegralRepSpec(RepKind(o["--which"]), k, p),
                      int(o["--order"])))
    return specs


class TestLaguerreRule:
    def test_order_two_closed_form(self):
        rule = laguerre_rule(2)
        root2 = math.sqrt(2.0)
        assert rule.nodes == pytest.approx([2.0 - root2, 2.0 + root2], abs=1e-14)
        assert rule.weights == pytest.approx(
            [(2.0 + root2) / 4.0, (2.0 - root2) / 4.0], abs=1e-14)

    @pytest.mark.parametrize("order", [2, 3, 8, 64, 200, 256])
    def test_invariants(self, order):
        rule = laguerre_rule(order)
        assert rule.order == order
        assert np.all(rule.nodes > 0) and np.all(np.diff(rule.nodes) > 0)
        assert abs(float(rule.weights.sum()) - 1.0) <= 1e-14
        for j in (1, 2, 5, 10):
            if j > 2 * order - 1:
                continue
            moment = float(rule.weights @ rule.nodes ** j)
            assert abs(moment - math.factorial(j)) <= 1e-12 * math.factorial(j)

    def test_first_and_fifth_moments(self):
        assert float(RULE64.weights @ RULE64.nodes) == pytest.approx(1.0, abs=1e-13)
        rule3 = laguerre_rule(3)
        assert float(rule3.weights @ rule3.nodes ** 5) == pytest.approx(
            120.0, rel=1e-12)

    @pytest.mark.parametrize("order", [1, 257, 2.5, "8"])
    def test_order_bounds(self, order):
        with pytest.raises(ValueError):
            laguerre_rule(order)

    def test_bad_order_is_a_value_error_only(self):
        # one check with one exit code: the CLI maps ValueError to 2, and a
        # package error (exit 3) must not be raised for a bad order
        for order in (1, 257, True):
            with pytest.raises(ValueError) as info:
                laguerre_rule(order)
            assert not isinstance(info.value, Appell4Error)

    def test_rule_is_built_once_per_order(self):
        assert laguerre_rule(64) is laguerre_rule(64)
        assert laguerre_rule(8) is not laguerre_rule(9)

    def test_cache_does_not_widen_the_accepted_orders(self):
        # an untyped cache would answer 64.0 or np.int64(64) with the
        # cached order-64 rule, and True with an order-1 rule
        laguerre_rule(64)
        laguerre_rule(2)
        for order in (64.0, np.int64(64), True, 1.0):
            with pytest.raises(ValueError):
                laguerre_rule(order)

    def test_shared_rule_is_read_only(self):
        rule = laguerre_rule(16)
        with pytest.raises(ValueError):
            rule.nodes[0] = 1.0
        with pytest.raises(ValueError):
            rule.weights[:] = 0.0
        assert laguerre_rule(16).nodes[0] == rule.nodes[0] > 0

    def test_rule_type_rejects_bad_data(self):
        good = laguerre_rule(4)
        with pytest.raises(QuadratureConvergenceError):
            LaguerreRule(nodes=good.nodes[::-1].copy(),
                         weights=good.weights, order=4)
        with pytest.raises(QuadratureConvergenceError):
            LaguerreRule(nodes=good.nodes, weights=good.weights * 1.01, order=4)
        with pytest.raises(QuadratureConvergenceError):
            LaguerreRule(nodes=good.nodes, weights=good.weights, order=5)

    def test_edge_weights_underflow_cleanly(self):
        # far-edge weights are below the double floor; they must be exact
        # zeros, not eigenvector roundoff, or growing integrands explode
        rule = laguerre_rule(256)
        assert rule.weights[-1] == 0.0
        mid = rule.weights[(rule.nodes > 500) & (rule.nodes < 600)]
        assert np.all(mid < 1e-200)


class TestIntegrandKdf:
    def test_u_zero_is_one(self):
        spec = IntegralRepSpec(RepKind.REP_A, 0, P_K0)
        assert integrand_kdf(spec, 0.0) == 1.0 + 0.0j

    def test_k0_matches_direct_kdf(self):
        spec = IntegralRepSpec(RepKind.REP_A, 0, P_K0)
        u = 3.7
        direct = eval_kdf(KdfParams(A=(P_K0.b,), E=(P_K0.c1,), F=(P_K0.c2,),
                                    x=u * P_K0.x, y=u * P_K0.y)).value
        assert integrand_kdf(spec, u) == pytest.approx(direct, rel=1e-14)

    def test_k1_t2_is_quartic_polynomial(self):
        p = F41Params(3.0, 2.0, 1.7, 2.3, 2, 2, 1, 1, 0.3, 0.2)
        spec = IntegralRepSpec(RepKind.REP_A, 1, p)
        us = np.arange(1.0, 8.0)
        vals = np.array([integrand_kdf(spec, u) for u in us])
        fifth = np.diff(vals, n=5)
        assert np.max(np.abs(fifth)) <= 1e-10 * np.max(np.abs(vals))

    def test_rep_b_couples_a(self):
        p = P_K1.replace(b=5.0)
        u = 2.0
        va = integrand_kdf(IntegralRepSpec(RepKind.REP_A, 1, p), u)
        vb = integrand_kdf(IntegralRepSpec(RepKind.REP_B, 1, p), u)
        direct_b = eval_kdf(KdfParams(A=(p.a,), B=(-3.0,), C=(-3.0,),
                                      E=(p.c1,), F=(p.c2,),
                                      x=-u * p.x, y=-u * p.y)).value
        assert vb == pytest.approx(direct_b, rel=1e-14)
        assert va != pytest.approx(vb, rel=1e-3)

    @pytest.mark.parametrize("k,p", [(0, P_K0), (1, P_K1),
                                     (2, F41Params(2.0, 0.8 + 0.3j, 1.7, 2.3,
                                                   6, 4, 2, 2, 0.25j, 0.15))])
    def test_value_is_the_evaluated_series_bit_for_bit(self, k, p):
        # the KdF series at each node, built and summed one node at a time
        for which in RepKind:
            spec = IntegralRepSpec(which, k, p)
            coupled = p.b if which is RepKind.REP_A else p.a
            B = tuple((-p.t1 + i) / k for i in range(k))
            C = tuple((-p.t2 + i) / k for i in range(k))
            for u in (0.0, 0.3, 7.5, float(RULE64.nodes[-1])):
                arg = (-k) ** k * u if k else u
                direct = eval_kdf(KdfParams(A=(coupled,), B=B, C=C,
                                            E=(p.c1,), F=(p.c2,),
                                            x=arg * p.x, y=arg * p.y))
                assert repr(integrand_kdf(spec, u)) == repr(direct.value)

    def test_nonterminating_t_rejected(self):
        spec = IntegralRepSpec(RepKind.REP_A, 1, P_K1.replace(t1=2.5))
        with pytest.raises(RegimeError):
            integrand_kdf(spec, 1.0)

    def test_alone_equals_the_prepared_node_value(self):
        # every node of the first four specs of both quadcheck pools: the
        # grid integral_rep_check prepares once and cuts to its support
        # gives each node's value bit for bit as a call that prepares the
        # whole grid itself
        specs = pool_specs("quadcheck64", 4) + pool_specs("quadcheck256", 4)
        assert {spec.k for spec, _ in specs} == {0, 1, 2}
        for spec, order in specs:
            inner = check_grid(spec, order)
            for u in laguerre_rule(order).nodes.tolist():
                assert repr(integrand_kdf(spec, u)) == repr(
                    integrand_kdf(spec, u, _prepared=inner))

    def test_nodes_sum_their_polynomial(self):
        # the inner series of these checks terminates: of the 1,762 entries
        # of the 41 x 41 plan a node sums the diagonals of total degree up
        # to 12 (k >= 1) or 6 (k = 0), since the largest node's powers are
        # finite
        specs = pool_specs("quadcheck64", 4) + pool_specs("quadcheck256", 4)
        for spec, order in specs:
            whole = series._prepared_grid(quadrature._inner_kdf(spec),
                                          EVAL_POLICY)
            assert len(whole.cells) == 1762
            assert len(check_grid(spec, order).cells) <= \
                (104 if spec.k else 35)

    def test_overflow_raises_on_both_paths(self):
        spec = IntegralRepSpec(RepKind.REP_A, 0, P_K0.replace(x=1e200))
        with pytest.raises(OverflowSignalError):
            integrand_kdf(spec, 1.0)
        with pytest.raises(OverflowSignalError):
            integrand_kdf(spec, 1.0, _prepared=check_grid(spec))

    def test_overflow_past_the_polynomial_raises_on_both_paths(self):
        # the inner polynomial has degree 3 in x, finite at 1e10, while the
        # full grid's x^40 overflows: the check sums the whole grid and
        # raises, where a grid cut for a smaller reach would not
        spec = IntegralRepSpec(RepKind.REP_A, 1, P_K1.replace(x=1e10))
        inner = check_grid(spec)
        assert len(inner.cells) == 1762
        assert cmath.isfinite(integrand_kdf(
            spec, 1.0, _prepared=check_grid(IntegralRepSpec(
                RepKind.REP_A, 1, P_K1))))
        with pytest.raises(OverflowSignalError):
            integrand_kdf(spec, 1.0)
        with pytest.raises(OverflowSignalError):
            integrand_kdf(spec, 1.0, _prepared=inner)

    def test_a_check_past_the_floating_range_raises(self):
        # a reach whose powers may overflow sums the whole grid at every
        # node, so the check raises as the whole grid does
        for k, p in ((1, P_K1.replace(x=1e10)), (0, P_K0.replace(x=1e200))):
            with pytest.raises(OverflowSignalError):
                integral_rep_check(IntegralRepSpec(RepKind.REP_A, k, p),
                                   RULE64)

    @pytest.mark.parametrize("field,value", [("x", math.nan),
                                             ("y", math.inf)])
    def test_non_finite_arguments_are_value_errors(self, field, value):
        # the spec refuses them as evaluate does, so neither entry point
        # reads them as an overflow at its first node
        for k, p in ((0, P_K0), (1, P_K1)):
            p = p.replace(**{field: value})
            with pytest.raises(ValueError, match="is not finite"):
                integral_rep_check(IntegralRepSpec(RepKind.REP_A, k, p),
                                   RULE64)
            with pytest.raises(ValueError, match="is not finite"):
                integrand_kdf(IntegralRepSpec(RepKind.REP_B, k, p), 1.0)


class TestIntegralRepCheck:
    def test_k0_matches_series(self):
        rep = integral_rep_check(IntegralRepSpec(RepKind.REP_A, 0, P_K0),
                                 RULE64)
        assert rep.passed and rep.rel_residual <= 1e-8
        assert rep.mode.value == "integral"
        assert rep.cells_checked == 64

    def test_k1_terminating_exact(self):
        rep = integral_rep_check(IntegralRepSpec(RepKind.REP_A, 1, P_K1),
                                 RULE64, tolerance=1e-10)
        assert rep.passed and rep.rel_residual <= 1e-10

    def test_k2_terminating_exact(self):
        p = F41Params(2.0, 0.8, 1.7, 2.3, 6, 4, 2, 2, 0.25, 0.15)
        rep = integral_rep_check(IntegralRepSpec(RepKind.REP_A, 2, p),
                                 RULE64, tolerance=1e-10)
        assert rep.passed and rep.rel_residual <= 1e-10

    def test_zero_arguments_give_one(self):
        p = P_K0.replace(x=0.0, y=0.0)
        rep = integral_rep_check(IntegralRepSpec(RepKind.REP_A, 0, p), RULE64)
        assert rep.passed
        assert quad_value(rep) == pytest.approx(1.0, abs=1e-13)
        assert complex(*rep.params["series_value"]) == 1.0 + 0.0j

    def test_rep_a_rep_b_agree_terminating(self):
        ra = integral_rep_check(IntegralRepSpec(RepKind.REP_A, 1, P_K1), RULE64)
        rb = integral_rep_check(IntegralRepSpec(RepKind.REP_B, 1, P_K1), RULE64)
        assert abs(quad_value(ra) - quad_value(rb)) <= 1e-9 * abs(quad_value(ra))

    def test_doubling_converged_at_polynomial_exponent(self):
        spec = IntegralRepSpec(RepKind.REP_A, 0, P_K0)
        v64 = quad_value(integral_rep_check(spec, RULE64))
        v128 = quad_value(integral_rep_check(spec, laguerre_rule(128)))
        assert abs(v128 - v64) < 1e-9

    def test_one_node_call_each_and_one_inner_grid_request(self,
                                                           monkeypatch):
        # the benchmark's tracer counts integrand_kdf once per node, and
        # sees grid requests only through series._grid_coeffs
        calls, requests = [], []
        node, grid = quadrature.integrand_kdf, series._grid_coeffs

        def counted_node(*args, **kwargs):
            calls.append(args[1])
            return node(*args, **kwargs)

        def counted_grid(p, M, N):
            requests.append(type(p).__name__)
            return grid(p, M, N)

        monkeypatch.setattr(quadrature, "integrand_kdf", counted_node)
        monkeypatch.setattr(series, "_grid_coeffs", counted_grid)
        spec, order = pool_specs("quadcheck64", 1)[0]
        integral_rep_check(spec, laguerre_rule(order))
        assert calls == laguerre_rule(order).nodes.tolist()
        assert len(calls) == 64
        assert sorted(requests) == ["F41Params", "KdfParams"]

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1e-8])
    def test_bad_tolerance_raises_before_any_node(self, monkeypatch,
                                                  tolerance):
        calls = []
        monkeypatch.setattr(quadrature, "integrand_kdf",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError, match="tolerance must be finite"):
            integral_rep_check(IntegralRepSpec(RepKind.REP_A, 0, P_K0),
                               RULE64, tolerance=tolerance)
        assert calls == []
        # before the regime check too, as the CLI orders them
        spec = IntegralRepSpec(RepKind.REP_A, 1, P_K1.replace(t1=2.5))
        with pytest.raises(ValueError, match="tolerance must be finite"):
            integral_rep_check(spec, RULE64, tolerance=tolerance)

    def test_order_must_cover_polynomial_degree(self):
        with pytest.raises(ConstraintError):
            integral_rep_check(IntegralRepSpec(RepKind.REP_A, 1, P_K1),
                               laguerre_rule(3))

    def test_spec_invariants(self):
        with pytest.raises(ConstraintError):
            IntegralRepSpec(RepKind.REP_A, 1, P_K1.replace(a=-0.5))
        with pytest.raises(ConstraintError):
            IntegralRepSpec(RepKind.REP_B, 1, P_K1.replace(b=-2.0))
        with pytest.raises(ConstraintError):
            IntegralRepSpec(RepKind.REP_A, 1,
                            F41Params(1, 1, 2, 2, 3, 3, 1, 2, 0.1, 0.1))
        with pytest.raises(ConstraintError):
            IntegralRepSpec(RepKind.REP_A, 2, P_K1)


class TestDocumentedLimitations:
    """Non-integer exponents: the endpoint factor u^(a-1) is not polynomial,
    so the pinned node sum converges only algebraically.  These freeze the
    measured rates; the optimistic printed targets (1e-8 at order 64 for
    a = 1.5, 1e-10 for a = 2.5 terminating, exact 1 at x = y = 0) are not
    attainable for such a at any order up to 256."""

    def test_half_integer_k0_rate(self):
        p = F41Params(1.5, 0.7, 1.2, 0.9, 0.0, 0.0, 0, 0, 0.05, 0.05)
        spec = IntegralRepSpec(RepKind.REP_A, 0, p)
        rels = [integral_rep_check(spec, laguerre_rule(o)).rel_residual
                for o in (64, 128, 256)]
        assert 1e-5 < rels[0] < 1e-3
        for lo, hi in zip(rels[1:], rels):
            ratio = hi / lo
            assert 2.0 < ratio < 4.0  # order^(-3/2) halving pattern

    def test_half_integer_k1_terminating(self):
        p = P_K1.replace(a=2.5)
        rep = integral_rep_check(IntegralRepSpec(RepKind.REP_A, 1, p), RULE64)
        assert 1e-9 < rep.rel_residual < 1e-6
        assert not integral_rep_check(IntegralRepSpec(RepKind.REP_A, 1, p),
                                      RULE64, tolerance=1e-10).passed

    def test_half_integer_gamma_mass(self):
        p = F41Params(1.5, 0.7, 1.2, 0.9, 0.0, 0.0, 0, 0, 0.0, 0.0)
        rep = integral_rep_check(IntegralRepSpec(RepKind.REP_A, 0, p), RULE64)
        assert 1e-5 < abs(quad_value(rep) - 1.0) < 1e-3
