"""Operator calculus tests: the finite-difference reference, the compiled
shifted-instance form, exact grid application, composition order, and the
difference-differential equations that must annihilate the series."""

from types import SimpleNamespace

import numpy as np
import pytest

import appell4.operators as operators
from appell4.errors import InvalidOperatorError, MarginError
from appell4.kernels import pochhammer
from appell4.operators import (
    OperatorExpr,
    OpKind,
    apply_expr_to_params,
    big_theta_t,
    big_theta_t1,
    big_theta_t2,
    compile_expr,
    delta_t1,
    identity_expr,
    mul_x,
    mul_y,
    phi_y,
    rho_t,
    rho_t1,
    rho_t2,
    scale,
    scaled_big_theta_t,
    scaled_big_theta_t1,
    scaled_big_theta_t2,
    shift_param,
    shifted_instance,
    theta_x,
)
from appell4.series import (F41Params, F42Params, TruncationPolicy,
                            coefficient_grid, eval_f41, param_columns)


def apply_numeric(op, f, p) -> complex:
    """Apply one primitive numerically: the reference the exact grid
    application is checked against.

    f is a closure over the single params field the primitive acts on
    (op.name: t1/t2/t for the t-operators, the shifted field for
    shift_param, which is also rho; x for theta_x, y for phi_y); p supplies
    the base field values.  scale and mul evaluate f at the unshifted base
    (x, or y for mul_y).
    """
    kind = op.kind
    # a t-operator names the field it acts on: delta_t1.name == "t1"
    fld = op.name
    if kind is OpKind.DELTA:
        t = getattr(p, fld)
        return f(t + 1) - f(t)
    if kind is OpKind.BIG_THETA:
        t = getattr(p, fld)
        return t * (f(t) - f(t - 1))
    if kind is OpKind.SCALED_BIG_THETA:
        t = getattr(p, fld)
        k = int(getattr(p, "k" + fld[1:]))
        if k < 1:
            raise InvalidOperatorError(
                f"{kind.value}_{fld} is undefined at k = {k}; needs k >= 1")
        return t * (f(t) - f(t - 1)) / k
    if kind is OpKind.THETA_X:
        x = p.x
        h = 1e-5 * max(1.0, abs(x))
        return x * (f(x + h) - f(x - h)) / (2 * h)
    if kind is OpKind.PHI_Y:
        y = p.y
        h = 1e-5 * max(1.0, abs(y))
        return y * (f(y + h) - f(y - h)) / (2 * h)
    if kind is OpKind.SHIFT_PARAM:
        return f(getattr(p, op.name) + op.offset)
    if kind is OpKind.SCALE:
        return op.constant * f(p.x)
    if kind is OpKind.MUL_X:
        return p.x * f(p.x)
    if kind is OpKind.MUL_Y:
        return p.y * f(p.y)
    raise InvalidOperatorError(f"unknown primitive kind {kind!r}")


def rel(actual, expected):
    return abs(actual - expected) / max(abs(expected), 1e-300)


P = F41Params(1.1, 0.8, 1.7, 2.3, 2.5, 1.5, 1, 1, 0.1, 0.1)
PT = F41Params(1.2, 0.7, 1.5, 1.9, 4, 4, 1, 1, 0.3, 0.2)  # terminating


def const(c) -> OperatorExpr:
    return OperatorExpr.of(coeff=c)


class TestPrimitives:
    def test_shift_param_validation(self):
        with pytest.raises(InvalidOperatorError):
            shift_param("", 1)
        with pytest.raises(InvalidOperatorError):
            shift_param("a", 0.5)
        op = shift_param("c1", -2)
        assert op.kind is OpKind.SHIFT_PARAM and op.offset == -2

    def test_scale_validation(self):
        with pytest.raises(InvalidOperatorError):
            scale(float("inf"))
        assert scale(2).constant == 2.0 + 0.0j

    def test_primitives_hashable(self):
        assert len({delta_t1, delta_t1, rho_t2, scale(2), scale(2)}) == 3

    def test_nine_kinds(self):
        assert len(OpKind) == 9

    def test_rho_is_a_shift(self):
        assert rho_t1 == shift_param("t1", -1)
        assert rho_t2 == shift_param("t2", -1)
        assert rho_t == shift_param("t", -1)

    @pytest.mark.parametrize("field", ["t1", "t2", "t"])
    def test_t_operators_name_their_field(self, field):
        for stem in ("delta", "big_theta", "scaled_big_theta"):
            op = getattr(operators, f"{stem}_{field}")
            assert op.kind is OpKind(stem) and op.name == field

    def test_scaled_big_theta_at_k_zero_names_its_field(self):
        p = P.replace(k1=0)
        with pytest.raises(InvalidOperatorError, match="t1") as err:
            compile_expr(OperatorExpr.of(scaled_big_theta_t1), p, 4, 4)
        assert str(err.value) == ("scaled_big_theta_t1 is undefined at "
                                  "k = 0; needs k >= 1")


class TestApplyNumeric:
    def test_delta_square_example(self):
        out = apply_numeric(delta_t1, lambda t: t * t,
                            SimpleNamespace(t1=3))
        assert out == 7

    def test_big_theta_linear_example(self):
        out = apply_numeric(big_theta_t1, lambda t: t, SimpleNamespace(t1=5))
        assert out == 5

    def test_eigen_relation_example(self):
        t, n, k = 1.3 + 0.2j, 2, 3

        def g(tv):
            return (-1) ** (n * k) * pochhammer(-tv, n * k)

        lhs = apply_numeric(big_theta_t, g, SimpleNamespace(t=t))
        assert rel(lhs, n * k * g(t)) < 1e-12

    def test_eigen_relation_200_draws(self):
        rng = np.random.default_rng(200)
        worst = 0.0
        for _ in range(200):
            t = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            n = int(rng.integers(0, 7))
            k = int(rng.integers(0, 5))

            def g(tv, n=n, k=k):
                return (-1) ** (n * k) * pochhammer(-tv, n * k)

            lhs = apply_numeric(big_theta_t, g, SimpleNamespace(t=t))
            rhs = n * k * g(t)
            worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1.0))
        assert worst < 1e-12

    def test_rho_and_shift(self):
        ns = SimpleNamespace(t2=4.0, a=1.5)
        assert apply_numeric(rho_t2, lambda t: t * t, ns) == 9.0
        assert apply_numeric(shift_param("a", 3), lambda a: a * 10, ns) == 45.0

    def test_scaled_big_theta_requires_k(self):
        ns = SimpleNamespace(t1=2.0, k1=0)
        with pytest.raises(InvalidOperatorError):
            apply_numeric(scaled_big_theta_t1, lambda t: t, ns)

    def test_scaled_big_theta_divides(self):
        ns = SimpleNamespace(t=2.0, k=2)
        out = apply_numeric(scaled_big_theta_t, lambda t: t * t, ns)
        assert out == 2.0 * (4.0 - 1.0) / 2

    def test_theta_x_finite_difference(self):
        ns = SimpleNamespace(x=0.3)
        out = apply_numeric(theta_x, lambda x: x ** 3, ns)
        assert rel(out, 3 * 0.3 ** 3) < 1e-9

    def test_mul_ops(self):
        ns = SimpleNamespace(x=0.3, y=0.5)
        assert apply_numeric(mul_x, lambda x: 2.0, ns) == 0.6
        assert apply_numeric(mul_y, lambda y: 2.0, ns) == 1.0


def applied(op, p, M=8, N=8):
    return apply_expr_to_params(OperatorExpr.of(op), p, M, N)


def grid_err(actual, expected):
    """Largest cell error relative to the largest expected cell."""
    return (float(np.abs(actual - expected).max())
            / float(np.abs(expected).max()))


class TestTermwise:
    """Index weights of single primitives on pure series instances."""

    def test_spec_weights(self):
        g = coefficient_grid(P, 8, 8).coeffs
        ms, ns = np.arange(9)[:, None], np.arange(9)[None, :]
        assert np.array_equal(applied(theta_x, P), ms * g)
        assert np.array_equal(applied(phi_y, P), ns * g)
        p42 = F42Params(1, 1, 2, 2, 1.5, 2, 0.1, 0.1)
        g42 = coefficient_grid(p42, 8, 8).coeffs
        assert grid_err(applied(scaled_big_theta_t, p42), (ms + ns) * g42) \
            < 1e-12

    def test_big_theta_eigen_weights(self):
        # big_theta_t1 acts on a pure instance with eigenvalue m * k1
        p = F41Params(1, 1, 2, 2, 1.5, 2.5, 3, 2, 0.1, 0.1)
        g = coefficient_grid(p, 8, 8).coeffs
        ms, ns = np.arange(9)[:, None], np.arange(9)[None, :]
        assert grid_err(applied(big_theta_t1, p), 3 * ms * g) < 1e-12
        assert grid_err(applied(big_theta_t2, p), 2 * ns * g) < 1e-12
        assert grid_err(applied(scaled_big_theta_t1, p), ms * g) < 1e-12
        assert grid_err(applied(scaled_big_theta_t2, p), ns * g) < 1e-12

    def test_rho_shift_descriptor(self):
        compiled = compile_expr(OperatorExpr.of(rho_t1), P, 3, 3)
        (path, dm, dn), = compiled
        q = shifted_instance(P, path)
        assert path == (("t1", -1),)
        assert q.t1 == P.t1 - 1 and q.t2 == P.t2 and (dm, dn) == (0, 0)
        assert np.all(compiled[path, 0, 0] == 1)

    def test_mul_x_index_shift(self):
        compiled = compile_expr(OperatorExpr.of(mul_x), P, 3, 3)
        assert list(compiled) == [((), 1, 0)]

    def test_delta_weight_k1(self):
        # at k1 = 1, delta_t1 is diagonal with weight m / (t1 - m + 1)
        g = coefficient_grid(P, 8, 8).coeffs
        ms = np.arange(9)[:, None]
        assert grid_err(applied(delta_t1, P), ms / (P.t1 - ms + 1) * g) \
            < 1e-12


class TestInstanceKeys:
    """compile_expr keys its entries by the shifted instances' paths from
    p, each the path of the first one met among those with its net offsets:
    structural keys, the same at every value of p."""

    def test_two_shift_orders_meet_in_one_key(self):
        a_then_b = OperatorExpr.of(shift_param("b", 1), shift_param("a", 1))
        b_then_a = OperatorExpr.of(shift_param("a", 1), shift_param("b", 1))
        compiled = compile_expr(a_then_b + 2.0 * b_then_a, P, 3, 3)
        (path, dm, dn), = compiled
        q = shifted_instance(P, path)
        assert path == (("b", 1), ("a", 1))
        assert (q.a, q.b, q.t1, dm, dn) == (P.a + 1, P.b + 1, P.t1, 0, 0)
        assert compiled[path, 0, 0] == 3.0

    def test_a_shift_back_to_p_is_p(self):
        compiled = compile_expr(OperatorExpr.of(rho_t1, shift_param("t1", 1)),
                                P, 3, 3)
        (path, dm, dn), = compiled
        assert shifted_instance(P, path) is P and (path, dm, dn) == ((), 0, 0)

    def test_columns_compile_as_each_entry_alone(self):
        # p with its fields as (D, 1, 1) columns compiles to the same keys
        # at every D, and entry d of each weight keeps its bytes when entry
        # d is compiled as a column of one
        ps = [P, P.replace(a=0.3 - 0.9j, t1=-1.7 + 0.2j),
              P.replace(b=2.1 + 0.4j, t2=0.6 - 1.1j)]

        def compiled(cols):
            expr = OperatorExpr.of(big_theta_t1, scaled_big_theta_t2) @ (
                OperatorExpr.of(theta_x) + OperatorExpr.of(scale(cols.a)))
            return compile_expr(expr, cols, 5, 4)

        whole = compiled(param_columns(ps))
        for d, p in enumerate(ps):
            alone = compiled(param_columns([p]))
            assert list(alone) == list(whole)
            for key, w in alone.items():
                got = np.broadcast_to(whole[key], (3, 6, 5))[d]
                assert got.tobytes() == np.broadcast_to(w, (1, 6, 5)).tobytes()
        assert len(whole) == 4


class TestApplyGrid:
    def test_identity_expression(self):
        g = coefficient_grid(P, 8, 8)
        out = apply_expr_to_params(identity_expr, P, 8, 8)
        assert np.array_equal(out, g.coeffs)

    def test_theta_scales_by_m(self):
        g = coefficient_grid(P, 8, 8)
        out = apply_expr_to_params(OperatorExpr.of(theta_x), P, 8, 8)
        assert np.array_equal(out, g.coeffs * np.arange(9)[:, None])

    def test_mul_x_shifts_rows(self):
        g = coefficient_grid(P, 8, 8)
        out = apply_expr_to_params(OperatorExpr.of(mul_x), P, 8, 8)
        assert np.all(out[0, :] == 0)
        assert np.array_equal(out[1:, :], g.coeffs[:-1, :])

    def test_margin_error(self):
        deep = OperatorExpr.of(mul_x, mul_x, mul_x)
        with pytest.raises(MarginError):
            apply_expr_to_params(deep, P, 1, 1)

    def test_order_matters(self):
        AB = apply_expr_to_params(OperatorExpr.of(big_theta_t1, delta_t1),
                                  P, 8, 8)
        BA = apply_expr_to_params(OperatorExpr.of(delta_t1, big_theta_t1),
                                  P, 8, 8)
        assert float(np.abs(AB - BA).max()) > 1e-8

    def test_big_theta_cube_requests_each_shift_once(self, monkeypatch):
        # the recursive realization requested 8 grids (one per leaf)
        requested = []
        grid = operators._grid_coeffs

        def counting(q, M, N):
            requested.append(q.t1)
            return grid(q, M, N)

        monkeypatch.setattr(operators, "_grid_coeffs", counting)
        cube = OperatorExpr.of(big_theta_t1, big_theta_t1, big_theta_t1)
        apply_expr_to_params(cube, P, 6, 6)
        assert sorted(requested, key=lambda t: t.real) == \
            [P.t1 - j for j in (3, 2, 1, 0)]

    def test_exact_vs_numeric_on_terminating(self):
        pol = TruncationPolicy(10, 10)
        xp = np.power(PT.x, np.arange(11))[:, None]
        yp = np.power(PT.y, np.arange(11))[None, :]
        cases = [
            (delta_t1, lambda v: eval_f41(PT.replace(t1=v), pol).value),
            (rho_t1, lambda v: eval_f41(PT.replace(t1=v), pol).value),
            (big_theta_t2, lambda v: eval_f41(PT.replace(t2=v), pol).value),
            (scaled_big_theta_t1,
             lambda v: eval_f41(PT.replace(t1=v), pol).value),
            (shift_param("a", 2),
             lambda v: eval_f41(PT.replace(a=v), pol).value),
            (mul_x, lambda v: eval_f41(PT.replace(x=v), pol).value),
        ]
        for op, closure in cases:
            numeric = apply_numeric(op, closure, PT)
            exact = (applied(op, PT, 10, 10) * xp * yp).sum()
            assert rel(numeric, exact) < 1e-9, op.kind

    def test_theta_fd_matches_termwise(self):
        pol = TruncationPolicy(10, 10)
        numeric = apply_numeric(
            theta_x, lambda v: eval_f41(PT.replace(x=v), pol).value, PT)
        g = coefficient_grid(PT, 10, 10).coeffs
        xp = np.power(PT.x, np.arange(11))[:, None]
        yp = np.power(PT.y, np.arange(11))[None, :]
        exact = (g * np.arange(11)[:, None] * xp * yp).sum()
        assert rel(numeric, exact) < 1e-6


def dd_expr_f41_x(p: F41Params) -> OperatorExpr:
    th1 = OperatorExpr.of(scaled_big_theta_t1)
    th2 = OperatorExpr.of(scaled_big_theta_t2)
    left = OperatorExpr.of(big_theta_t1) @ (th1 + const(p.c1 - 1))
    cval = p.k1 * (-1) ** p.k1 * pochhammer(-p.t1, p.k1)
    right = cval * (OperatorExpr.of(mul_x, *[rho_t1] * p.k1)
                    @ (th1 + th2 + const(p.a)) @ (th1 + th2 + const(p.b)))
    return left - right


def dd_expr_f41_y(p: F41Params) -> OperatorExpr:
    th1 = OperatorExpr.of(scaled_big_theta_t1)
    th2 = OperatorExpr.of(scaled_big_theta_t2)
    left = OperatorExpr.of(big_theta_t2) @ (th2 + const(p.c2 - 1))
    cval = p.k2 * (-1) ** p.k2 * pochhammer(-p.t2, p.k2)
    right = cval * (OperatorExpr.of(mul_y, *[rho_t2] * p.k2)
                    @ (th1 + th2 + const(p.a)) @ (th1 + th2 + const(p.b)))
    return left - right


def dd_expr_f42_x(p: F42Params) -> OperatorExpr:
    th = OperatorExpr.of(scaled_big_theta_t)
    tx = OperatorExpr.of(theta_x)
    left = tx @ (tx + const(p.c1 - 1))
    cval = (-1) ** p.k * pochhammer(-p.t, p.k)
    right = cval * (OperatorExpr.of(mul_x, *[rho_t] * p.k)
                    @ (th + const(p.a)) @ (th + const(p.b)))
    return left - right


class TestDifferenceDifferentialEquations:
    def test_f41_equations_annihilate(self):
        rng = np.random.default_rng(15)
        for _ in range(6):
            vals = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                    for _ in range(6)]
            a, b, c1, c2, t1, t2 = vals
            p = F41Params(a, b, c1 + 3.3, c2 + 3.3, t1, t2,
                          int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                          0.3, 0.2)
            for builder in (dd_expr_f41_x, dd_expr_f41_y):
                res = apply_expr_to_params(builder(p), p, 8, 8)
                half = apply_expr_to_params(
                    OperatorExpr(builder(p).terms[:1]), p, 8, 8)
                scale_ = max(float(np.abs(half).max()),
                             float(np.abs(res - half).max()), 1e-300)
                assert float(np.abs(res).max()) / scale_ < 1e-10

    def test_f42_equation_annihilates(self):
        rng = np.random.default_rng(16)
        for _ in range(6):
            vals = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                    for _ in range(5)]
            a, b, c1, c2, t = vals
            p = F42Params(a, b, c1 + 3.3, c2 + 3.3, t,
                          int(rng.integers(1, 4)), 0.3, 0.2)
            res = apply_expr_to_params(dd_expr_f42_x(p), p, 8, 8)
            half = apply_expr_to_params(
                OperatorExpr(dd_expr_f42_x(p).terms[:1]), p, 8, 8)
            scale_ = max(float(np.abs(half).max()),
                         float(np.abs(res - half).max()), 1e-300)
            assert float(np.abs(res).max()) / scale_ < 1e-10
