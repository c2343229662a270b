"""Declarative registry of printed relations for the two discrete analogues,
with a residual-based verifier and a whole-catalog auditor.

Families:
  A  difference-differential equations annihilating each analogue;
  B  difference and differential formulas (r-th order, one axis at a time);
  C  partial-derivative formulas, including the composed-argument variants
     where the inner argument is the product of the outer two;
  D  recursion sums connecting a parameter shifted by s to telescoping sums;
  E  first-order contiguous relations in two realizations (index weights,
     and scaled t-difference weights);
  F  second-order contiguous ledgers combining pairs of family-E relations.

Families A and B are one builder per formula over the axis rows `_AXES`:
the t, k and c fields, index weight and multiplier of each variable.

Entries whose printed text is internally inconsistent are registered twice:
once exactly as printed (expected to fail everywhere) and once with the
minimal one-symbol correction, cross-linked through twin ids.  Verification
compares both sides cellwise on a truncation rectangle; every operator is
applied exactly (no finite differences), so residuals are pure floating
round-off when a relation holds.

`audit_catalog` runs its draws in chunks bounded by grid cells: it plans a
chunk (draws, side terms, compiled operators), puts every grid the chunk
requests into the grid cache at once (`series.cache_grids`), then compares
draw by draw from the cache, so rows, residuals and errors are those of one
draw after another.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, fields, replace as _dc_replace
from enum import Enum
from functools import lru_cache
from math import pi
from typing import Callable, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ConstraintError, InvalidOperatorError
from .kernels import pochhammer
from .operators import (
    OperatorExpr,
    OpKind,
    PrimitiveOp,
    apply_compiled,
    compile_expr,
    identity_expr,
    mul_x,
    mul_y,
    phi_y,
    require_margin,
    scale,
    scaled_big_theta_t,
    scaled_big_theta_t1,
    scaled_big_theta_t2,
    shift_param,
    theta_x,
)
# not called here since every term is compiled before its grid is built, but
# kept as a module name: the layer tracer in perfbench wraps it
from .operators import apply_expr_to_params  # noqa: F401
from .series import (_GRID_CACHE_BYTES, F41Params, F42Params, cache_grids,
                     coefficient_grid)

Params = Union[F41Params, F42Params]


# ---------------------------------------------------------------------------
# enums and domain types
# ---------------------------------------------------------------------------

class Family(str, Enum):
    A_DDEQ = "A_ddeq"
    B_DIFF_FORMULAS = "B_diff_formulas"
    C_PARTIAL_FORMULAS = "C_partial_formulas"
    D_RECURSION_SUMS = "D_recursion_sums"
    E_FIRST_ORDER = "E_first_order"
    F_SECOND_ORDER = "F_second_order"


class Target(str, Enum):
    F41 = "F41"
    F42 = "F42"


class ExpectedStatus(str, Enum):
    VERIFIED = "verified"
    SUSPECTED_TYPO = "suspected_typo"


class VerificationMode(str, Enum):
    COEFFICIENTWISE = "coefficientwise"
    SUMMED_TERMINATING = "summed_terminating"
    INTEGRAL = "integral"  # produced by the quadrature cross-checks only


class Composition(str, Enum):
    """How a function instance's printed arguments map to the outer grid."""

    NONE = "none"
    SECOND_IS_XY = "second_is_xy"   # printed arguments (x, x*y)
    FIRST_IS_XY = "first_is_xy"     # printed arguments (x*y, y)


@dataclass(frozen=True)
class InstanceSpec:
    """One function occurrence: its parameters and argument composition."""

    params: Params
    composition: Composition = Composition.NONE


@dataclass(frozen=True)
class SideTerm:
    """One resolved summand: scalar coefficient, operator, function instance."""

    coeff: complex
    expr: OperatorExpr
    instance: InstanceSpec


@dataclass(frozen=True)
class ParamPoint:
    """A sampled parameter point plus the free integers r and s."""

    params: Params
    r: int = 1
    s: int = 1

    def __post_init__(self):
        for name in ("r", "s"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ConstraintError(f"{name} must be an integer >= 1, got {v!r}")


SideBuilder = Callable[[ParamPoint], Tuple[SideTerm, ...]]


@dataclass(frozen=True)
class Constraints:
    """Parameter-domain requirements of one identity.

    Exact k values pin an axis (the printed relation only claims that case);
    min_k guards the scaled t-difference operator, which divides by k;
    odd_k_sum restricts to the parity where a printed sign slip actually
    bites, so a suspected entry fails at every admissible draw.
    """

    k1: Optional[int] = None
    k2: Optional[int] = None
    k: Optional[int] = None
    min_k: int = 0
    odd_k_sum: bool = False
    uses_r: bool = False
    uses_s: bool = False
    note: str = ""

    def validate(self, point: ParamPoint) -> None:
        p = point.params
        for name, want in (("k1", self.k1), ("k2", self.k2), ("k", self.k)):
            if want is None:
                continue
            have = getattr(p, name, None)
            if have is None:
                raise ConstraintError(f"constraint on {name} does not apply to "
                                      f"{type(p).__name__}")
            if have != want:
                raise ConstraintError(f"identity requires {name} = {want}, got {have}")
        if self.min_k:
            for name in ("k1", "k2", "k"):
                have = getattr(p, name, None)
                if have is not None and have < self.min_k:
                    raise ConstraintError(f"identity requires {name} >= {self.min_k}, "
                                          f"got {have}")
        if self.odd_k_sum:
            if not isinstance(p, F41Params):
                raise ConstraintError("odd k-sum constraint applies to the "
                                      "two-axis analogue only")
            if (p.k1 + p.k2) % 2 == 0:
                raise ConstraintError("identity is registered for odd k1 + k2 "
                                      f"only, got k1 = {p.k1}, k2 = {p.k2}")


@dataclass(frozen=True)
class Identity:
    """One registry entry: builders for both sides plus audit metadata."""

    id: str
    family: Family
    target: Target
    lhs: SideBuilder
    rhs: SideBuilder
    constraints: Constraints = Constraints()
    expected_status: ExpectedStatus = ExpectedStatus.VERIFIED
    anchor: str = ""
    justification: str = ""
    twin_id: Optional[str] = None
    notes: str = ""

    def __post_init__(self):
        if not self.anchor:
            raise ValueError(f"identity {self.id} must cite its registry location")
        if self.expected_status is ExpectedStatus.SUSPECTED_TYPO and \
                not self.justification:
            raise ValueError(f"identity {self.id} is marked suspected_typo "
                             "without a written justification")


@dataclass(frozen=True)
class RelationReport:
    """Residual report for one identity at one parameter point."""

    identity_id: str
    params: dict
    mode: VerificationMode
    max_abs_residual: float
    scale: float
    rel_residual: float
    passed: bool
    cells_checked: int
    tolerance: float

    def as_dict(self) -> dict:
        return {
            "identity_id": self.identity_id,
            "params": self.params,
            "mode": self.mode.value,
            "max_abs_residual": self.max_abs_residual,
            "scale": self.scale,
            "rel_residual": self.rel_residual,
            "pass": self.passed,
            "cells_checked": self.cells_checked,
            "tolerance": self.tolerance,
        }


# ---------------------------------------------------------------------------
# expression-building helpers
# ---------------------------------------------------------------------------

def _const(v) -> OperatorExpr:
    return OperatorExpr.of(scale(v))


def _pow_expr(op, n: int) -> OperatorExpr:
    return OperatorExpr.of(*([op] * n))


def _weight_product(op, offsets) -> OperatorExpr:
    # (op + offsets[0])(op + offsets[1])... ; factors commute (index-diagonal)
    out = identity_expr
    for off in offsets:
        out = out @ (OperatorExpr.of(op) + _const(off))
    return out


def _falling_power(op, r: int) -> OperatorExpr:
    # op (op - 1) ... (op - r + 1)
    return _weight_product(op, [-i for i in range(r)])


_TARGET_PARAMS = {Target.F41: F41Params, Target.F42: F42Params}
_WHICH = {Target.F41: "first", Target.F42: "second"}


def _target_of(p: Params) -> Target:
    return Target.F41 if isinstance(p, F41Params) else Target.F42


# realization of the abstract weights used by families E and F
_PSI, _TH, _PH = "psi", "th", "ph"

_DIFFERENTIAL = {
    _PSI: OperatorExpr.of(theta_x) + OperatorExpr.of(phi_y),
    _TH: OperatorExpr.of(theta_x),
    _PH: OperatorExpr.of(phi_y),
}

_REALIZATIONS = {
    (Target.F41, "differential"): _DIFFERENTIAL,
    (Target.F42, "differential"): _DIFFERENTIAL,
    (Target.F41, "difference"): {
        _PSI: OperatorExpr.of(scaled_big_theta_t1) + OperatorExpr.of(scaled_big_theta_t2),
        _TH: OperatorExpr.of(scaled_big_theta_t1),
        _PH: OperatorExpr.of(scaled_big_theta_t2),
    },
    (Target.F42, "difference"): {
        # the c-parameter rows keep the index weights even in the
        # difference list; only the a/b rows use the scaled t-difference
        _PSI: OperatorExpr.of(scaled_big_theta_t),
        _TH: OperatorExpr.of(theta_x),
        _PH: OperatorExpr.of(phi_y),
    },
}


def _token_expr(token, realization, p: Params) -> OperatorExpr:
    base, opname, off = token
    val = getattr(p, base) + off
    if not opname:
        return _const(val)
    return realization[opname] + _const(val)


def _shifted(p: Params, shift) -> Params:
    if shift is None:
        return p
    name, off = shift
    return p.replace(**{name: getattr(p, name) + off})


def _ledger_side(tokens, shift, realization) -> SideBuilder:
    def build(pt: ParamPoint) -> Tuple[SideTerm, ...]:
        p = pt.params
        expr = identity_expr
        for token in tokens:
            expr = expr @ _token_expr(token, realization, p)
        return (SideTerm(1.0, expr, InstanceSpec(_shifted(p, shift))),)
    return build


# ---------------------------------------------------------------------------
# axis rows: the fields and operators of each variable of each analogue
# ---------------------------------------------------------------------------

class _Axis(NamedTuple):
    """One variable of one analogue: the t, k and c fields that carry it,
    its index weight and its multiplier."""

    var: str
    t: str
    k: str
    c: str
    weight: PrimitiveOp
    mul: PrimitiveOp


_AXES = {
    Target.F41: (_Axis("x", "t1", "k1", "c1", theta_x, mul_x),
                 _Axis("y", "t2", "k2", "c2", phi_y, mul_y)),
    Target.F42: (_Axis("x", "t", "k", "c1", theta_x, mul_x),
                 _Axis("y", "t", "k", "c2", phi_y, mul_y)),
}


# ---------------------------------------------------------------------------
# family A: difference-differential equations
# ---------------------------------------------------------------------------

def _ddeq_rhs(axis: _Axis, target: Target, by_k: bool) -> SideBuilder:
    # [k] (-1)^k (-t)_k mul rho_t^k (psi + a)(psi + b), psi the analogue's
    # scaled t-difference weight; the first analogue carries the factor k
    psi = _REALIZATIONS[(target, "difference")][_PSI]

    def rhs(pt):
        p = pt.params
        t, k = getattr(p, axis.t), getattr(p, axis.k)
        e = OperatorExpr.of(axis.mul, *[shift_param(axis.t, -1)] * k) @ \
            (psi + _const(p.a)) @ (psi + _const(p.b))
        c = (k if by_k else 1) * (-1.0) ** k * pochhammer(-t, k)
        return (SideTerm(c, e, InstanceSpec(p)),)
    return rhs


def _ddeq_f41(axis: _Axis):
    # big_theta_t (scaled_big_theta_t + c - 1) on the left
    big = OperatorExpr.of(PrimitiveOp(OpKind.BIG_THETA, axis.t))
    scaled = OperatorExpr.of(PrimitiveOp(OpKind.SCALED_BIG_THETA, axis.t))

    def lhs(pt):
        p = pt.params
        e = big @ (scaled + _const(getattr(p, axis.c) - 1))
        return (SideTerm(1.0, e, InstanceSpec(p)),)
    return lhs, _ddeq_rhs(axis, Target.F41, by_k=True)


def _ddeq_f42(axis: _Axis):
    # the index weight w (w + c - 1) on the left
    w = OperatorExpr.of(axis.weight)

    def lhs(pt):
        p = pt.params
        e = w @ (w + _const(getattr(p, axis.c) - 1))
        return (SideTerm(1.0, e, InstanceSpec(p)),)
    return lhs, _ddeq_rhs(axis, Target.F42, by_k=False)


def _a_entries():
    out = []
    for target, builder in ((Target.F41, _ddeq_f41),
                            (Target.F42, _ddeq_f42)):
        for i, axis in enumerate(_AXES[target], start=1):
            ident_id = f"{target.value}.ddeq.{i}"
            lhs, rhs = builder(axis)
            out.append(Identity(
                ident_id, Family.A_DDEQ, target, lhs, rhs,
                Constraints(min_k=1),
                anchor=f"{_WHICH[target]} analogue: difference-differential "
                f"equation list, item {i} ({axis.var} variable)",
                notes="one scaled t-difference factor is printed without "
                "its variable subscript; read as the same t operator"
                if ident_id == "F42.ddeq.2" else ""))
    return out


# ---------------------------------------------------------------------------
# family B: difference and differential formulas
# ---------------------------------------------------------------------------

def _difference_power(axis: _Axis):
    # delta_t^r F = (a)_r (b)_r / (c)_r mul^r F(a + r, b + r, c + r), k = 1
    delta = PrimitiveOp(OpKind.DELTA, axis.t)

    def lhs(pt):
        return (SideTerm(1.0, _pow_expr(delta, pt.r),
                         InstanceSpec(pt.params)),)

    def rhs(pt):
        p, r = pt.params, pt.r
        cv = getattr(p, axis.c)
        c = pochhammer(p.a, r) * pochhammer(p.b, r) / pochhammer(cv, r)
        inst = p.replace(a=p.a + r, b=p.b + r, **{axis.c: cv + r})
        return (SideTerm(c, _pow_expr(axis.mul, r), InstanceSpec(inst)),)
    return lhs, rhs


def _weight_power(axis: _Axis):
    # the r-th falling index-weight power against mul^r of the instance
    # with a, b, c raised by r and t lowered by r k
    def lhs(pt):
        return (SideTerm(1.0, _falling_power(axis.weight, pt.r),
                         InstanceSpec(pt.params)),)

    def rhs(pt):
        p, r = pt.params, pt.r
        t, k, cv = (getattr(p, f) for f in (axis.t, axis.k, axis.c))
        c = (-1.0) ** (r * k) * pochhammer(p.a, r) * pochhammer(p.b, r) * \
            pochhammer(-t, r * k) / pochhammer(cv, r)
        inst = p.replace(a=p.a + r, b=p.b + r,
                         **{axis.c: cv + r, axis.t: t - r * k})
        return (SideTerm(c, _pow_expr(axis.mul, r), InstanceSpec(inst)),)
    return lhs, rhs


def _b_entries():
    (x1, y1), (x2, y2) = _AXES[Target.F41], _AXES[Target.F42]
    theta_note = ("the r-th index-weight power is read as the falling product "
                  "weight m (m - 1) ... (m - r + 1), the exact image of the "
                  "r-th plain derivative scaled by x^r")
    first = "first analogue: difference/differential formula theorem, part "
    second = "second analogue: difference/differential formula list, "
    # id, builder, axis, whether the entry pins the axis's k to 1, anchor
    rows = [
        ("F41.thm3.1.a", _difference_power, x1, True, first + "a"),
        ("F41.thm3.1.b", _difference_power, y1, True, first + "b"),
        ("F41.thm3.1.c", _weight_power, x1, False, first + "c"),
        ("F41.thm3.1.d", _weight_power, y1, False, first + "d"),
        ("F42.thm5.1.a", _weight_power, x2, False, second + "part a"),
        ("F42.thm5.1.b", _weight_power, y2, False, second + "part b"),
        ("F42.thm5.1.c", _weight_power, x2, True,
         second + "particular case a"),
        ("F42.thm5.1.d", _weight_power, y2, True,
         second + "particular case b"),
    ]
    out = []
    for ident_id, builder, axis, pinned, anchor in rows:
        lhs, rhs = builder(axis)
        out.append(Identity(
            ident_id, Family.B_DIFF_FORMULAS, Target(ident_id[:3]), lhs, rhs,
            Constraints(uses_r=True, **({axis.k: 1} if pinned else {})),
            anchor=anchor,
            notes=theta_note if builder is _weight_power else ""))
    return out


# ---------------------------------------------------------------------------
# family C: partial-derivative formulas
# ---------------------------------------------------------------------------

def _c_raise(op, pname: str, comp: Composition):
    # d^r/dz^r [z^(p + r - 1) F] = z^(p - 1) (p)_r F(p -> p + r); after the
    # shared power prefactor is folded in, the left side is the index-weight
    # product (w + p)(w + p + 1)...(w + p + r - 1) on the outer grid
    def lhs(pt):
        p, r = pt.params, pt.r
        beta = getattr(p, pname)
        e = _weight_product(op, [beta + i for i in range(r)])
        return (SideTerm(1.0, e, InstanceSpec(p, comp)),)

    def rhs(pt):
        p, r = pt.params, pt.r
        beta = getattr(p, pname)
        inst = p.replace(**{pname: beta + r})
        return (SideTerm(pochhammer(beta, r), identity_expr, InstanceSpec(inst, comp)),)

    return lhs, rhs


def _c_lower(op, pname: str):
    # d^r/dz^r [z^(c - 1) F] = (-1)^r (1 - c)_r z^(c - r - 1) F(c -> c - r)
    def lhs(pt):
        p, r = pt.params, pt.r
        cval = getattr(p, pname)
        e = _weight_product(op, [cval - 1 - i for i in range(r)])
        return (SideTerm(1.0, e, InstanceSpec(p)),)

    def rhs(pt):
        p, r = pt.params, pt.r
        cval = getattr(p, pname)
        inst = p.replace(**{pname: cval - r})
        c = (-1.0) ** r * pochhammer(1 - cval, r)
        return (SideTerm(c, identity_expr, InstanceSpec(inst)),)

    return lhs, rhs


def _c_entries():
    rows = [
        ("a", _c_raise(theta_x, "b", Composition.SECOND_IS_XY),
         "x-derivative raising b on arguments (x, x y)"),
        ("b", _c_raise(phi_y, "b", Composition.FIRST_IS_XY),
         "y-derivative raising b on arguments (x y, y)"),
        ("c", _c_raise(theta_x, "a", Composition.SECOND_IS_XY),
         "x-derivative raising a on arguments (x, x y)"),
        ("d", _c_raise(phi_y, "a", Composition.FIRST_IS_XY),
         "y-derivative raising a on arguments (x y, y)"),
        ("e", _c_lower(theta_x, "c1"), "x-derivative lowering c1"),
        ("f", _c_lower(phi_y, "c2"), "y-derivative lowering c2"),
    ]
    out = []
    for target, stem in ((Target.F41, "F41.thm3.2"), (Target.F42, "F42.thm5.2")):
        for letter, (lhs, rhs), what in rows:
            out.append(Identity(
                f"{stem}.{letter}", Family.C_PARTIAL_FORMULAS, target,
                lhs, rhs, Constraints(uses_r=True),
                anchor=f"{_WHICH[target]} analogue: partial-derivative formula "
                f"theorem, part {letter} ({what})"))
    return out


# ---------------------------------------------------------------------------
# family D: recursion sums
# ---------------------------------------------------------------------------

def _d_scales(p: Params):
    # per-axis sign/t-factor coefficient and the t-shift of the sum instances
    out = ()
    for axis in _AXES[_target_of(p)]:
        t, k = getattr(p, axis.t), getattr(p, axis.k)
        out += ((-1.0) ** k * pochhammer(-t, k), {axis.t: t - k})
    return out


def _plain(p: Params) -> SideTerm:
    return SideTerm(1.0, identity_expr, InstanceSpec(p))


def _d_shift_lhs(pname: str, sign: int) -> SideBuilder:
    def lhs(pt):
        p = pt.params
        return (SideTerm(1.0, identity_expr, InstanceSpec(
            p.replace(**{pname: getattr(p, pname) + sign * pt.s}))),)
    return lhs


def _d_ab_rhs(shift_name: str, coeff_name: str, sign: int) -> SideBuilder:
    # raising (sign +1, r = 1..s) or lowering (sign -1, r = 0..s-1) one of
    # a/b while the other parameter supplies the coefficient
    def rhs(pt):
        p, s = pt.params, pt.s
        sx, shx, sy, shy = _d_scales(p)
        cpar = getattr(p, coeff_name)
        other = {"a": {"b": p.b + 1}, "b": {"a": p.a + 1}}[shift_name]
        terms = [_plain(p)]
        rng = range(1, s + 1) if sign > 0 else range(s)
        for r in rng:
            moved = {shift_name: getattr(p, shift_name) + sign * r}
            terms.append(SideTerm(
                sign * sx * cpar / p.c1, OperatorExpr.of(mul_x),
                InstanceSpec(p.replace(c1=p.c1 + 1, **moved, **other, **shx))))
            terms.append(SideTerm(
                sign * sy * cpar / p.c2, OperatorExpr.of(mul_y),
                InstanceSpec(p.replace(c2=p.c2 + 1, **moved, **other, **shy))))
        return tuple(terms)
    return rhs


def _d4_rhs_f41_printed(pt):
    # as printed, the y-sum coefficient reuses the first axis's sign exponent
    p, s = pt.params, pt.s
    sx, shx, sy, shy = _d_scales(p)
    sy_printed = (-1.0) ** p.k1 * pochhammer(-p.t2, p.k2)
    terms = [_plain(p)]
    for r in range(s):
        terms.append(SideTerm(
            -sx * p.a / p.c1, OperatorExpr.of(mul_x),
            InstanceSpec(p.replace(a=p.a + 1, b=p.b - r, c1=p.c1 + 1, **shx))))
        terms.append(SideTerm(
            -sy_printed * p.a / p.c2, OperatorExpr.of(mul_y),
            InstanceSpec(p.replace(a=p.a + 1, b=p.b - r, c2=p.c2 + 1, **shy))))
    return tuple(terms)


def _d5_rhs(printed_extra_sum: bool) -> SideBuilder:
    def rhs(pt):
        p, s = pt.params, pt.s
        sx, shx, sy, shy = _d_scales(p)
        terms = [_plain(p)]
        for r in range(1, s + 1):
            den = (p.c1 - r) * (p.c1 - r + 1)
            inst = p.replace(a=p.a + 1, b=p.b + 1, c1=p.c1 + 2 - r)
            terms.append(SideTerm(sx * p.a * p.b / den, OperatorExpr.of(mul_x),
                                  InstanceSpec(inst.replace(**shx))))
            if printed_extra_sum:
                terms.append(SideTerm(sy * p.a * p.b / den, OperatorExpr.of(mul_y),
                                      InstanceSpec(inst.replace(**shy))))
        return tuple(terms)
    return rhs


def _d_entries():
    out = []
    for target, stem in ((Target.F41, "F41.thm4"), (Target.F42, "F42.thm5.3")):
        which = _WHICH[target]
        uses_s = Constraints(uses_s=True)

        def anchor(i, suffix=""):
            return f"{which} analogue: recursion-sum theorem, formula {i}{suffix}"

        out.append(Identity(f"{stem}.1", Family.D_RECURSION_SUMS, target,
                            _d_shift_lhs("a", +1), _d_ab_rhs("a", "b", +1),
                            uses_s, anchor=anchor(1)))
        out.append(Identity(f"{stem}.2", Family.D_RECURSION_SUMS, target,
                            _d_shift_lhs("a", -1), _d_ab_rhs("a", "b", -1),
                            uses_s, anchor=anchor(2)))
        out.append(Identity(f"{stem}.3", Family.D_RECURSION_SUMS, target,
                            _d_shift_lhs("b", +1), _d_ab_rhs("b", "a", +1),
                            uses_s, anchor=anchor(3)))
        if target is Target.F41:
            out.append(Identity(
                f"{stem}.4", Family.D_RECURSION_SUMS, target,
                _d_shift_lhs("b", -1), _d4_rhs_f41_printed,
                Constraints(uses_s=True, odd_k_sum=True),
                expected_status=ExpectedStatus.SUSPECTED_TYPO,
                anchor=anchor(4, " (as printed)"),
                justification="the y-sum coefficient prints the x-axis sign "
                "exponent; the two exponents agree only for even k1 + k2, so "
                "the entry is registered on the odd-parity domain where the "
                "printed form fails at every draw while the one-symbol "
                "correction passes",
                twin_id=f"{stem}.4c"))
            out.append(Identity(
                f"{stem}.4c", Family.D_RECURSION_SUMS, target,
                _d_shift_lhs("b", -1), _d_ab_rhs("b", "a", -1),
                uses_s, anchor=anchor(4, " (corrected sign exponent)"),
                twin_id=f"{stem}.4"))
        else:
            out.append(Identity(
                f"{stem}.4", Family.D_RECURSION_SUMS, target,
                _d_shift_lhs("b", -1), _d_ab_rhs("b", "a", -1),
                uses_s, anchor=anchor(4),
                notes="the x-sum's shifted argument is printed as a "
                "two-variable t list although this analogue has a single t; "
                "registered under the evident reading t - k"))
        out.append(Identity(
            f"{stem}.5", Family.D_RECURSION_SUMS, target,
            _d_shift_lhs("c1", -1), _d5_rhs(printed_extra_sum=True),
            uses_s, expected_status=ExpectedStatus.SUSPECTED_TYPO,
            anchor=anchor(5, " (as printed)"),
            justification="the printed second sum repeats the first sum's "
            "raised-c1 instances under a y prefactor; the telescoping that "
            "proves the formula produces the x-sum only, and the extra sum "
            "breaks every generic draw",
            twin_id=f"{stem}.5c"))
        out.append(Identity(
            f"{stem}.5c", Family.D_RECURSION_SUMS, target,
            _d_shift_lhs("c1", -1), _d5_rhs(printed_extra_sum=False),
            uses_s, anchor=anchor(5, " (second sum dropped)"),
            twin_id=f"{stem}.5"))
    return out


# ---------------------------------------------------------------------------
# families E and F: first- and second-order contiguous ledgers
# ---------------------------------------------------------------------------

# tokens are (parameter, weight, offset); weight "" is a plain scalar factor
_E_ROWS = [
    ([("a", "", 0)], ("a", 1), [("a", _PSI, 0)], None),
    ([("a", _PSI, -1)], ("a", -1), [("a", "", -1)], None),
    ([("b", "", 0)], ("b", 1), [("b", _PSI, 0)], None),
    ([("b", _PSI, -1)], ("b", -1), [("b", "", -1)], None),
    ([("c1", "", -1)], ("c1", -1), [("c1", _TH, -1)], None),
    ([("c1", _TH, 0)], ("c1", 1), [("c1", "", 0)], None),
    ([("c2", "", -1)], ("c2", -1), [("c2", _PH, -1)], None),
    ([("c2", _PH, 0)], ("c2", 1), [("c2", "", 0)], None),
]

# the shared 28-row second-order pattern; the difference lists print exactly
# this, the differential lists deviate at entries 10, 13, 24 and 25
_F_ROWS = [
    ([("a", "", 0), ("a", "", -1)], ("a", 1),
     [("a", _PSI, 0), ("a", _PSI, -1)], ("a", -1)),
    ([("a", "", 0), ("b", "", -1)], ("a", 1),
     [("a", _PSI, 0), ("b", _PSI, -1)], ("b", -1)),
    ([("a", "", 0), ("c1", "", 0)], ("a", 1),
     [("a", _PSI, 0), ("c1", _TH, 0)], ("c1", 1)),
    ([("a", "", 0), ("c2", "", 0)], ("a", 1),
     [("a", _PSI, 0), ("c2", _PH, 0)], ("c2", 1)),
    ([("a", "", 0), ("b", _PSI, 0)], ("a", 1),
     [("b", "", 0), ("a", _PSI, 0)], ("b", 1)),
    ([("a", "", 0), ("c1", _TH, -1)], ("a", 1),
     [("c1", "", -1), ("a", _PSI, 0)], ("c1", -1)),
    ([("a", "", 0), ("c2", _PH, -1)], ("a", 1),
     [("c2", "", -1), ("a", _PSI, 0)], ("c2", -1)),
    ([("a", _PSI, -1), ("b", _PSI, 0)], ("a", -1),
     [("b", "", 0), ("a", "", -1)], ("b", 1)),
    ([("a", _PSI, -1), ("c1", _TH, -1)], ("a", -1),
     [("c1", "", -1), ("a", "", -1)], ("c1", -1)),
    ([("a", _PSI, -1), ("c2", _PH, -1)], ("a", -1),
     [("c2", "", -1), ("a", "", -1)], ("c2", -1)),
    ([("b", "", -1), ("a", _PSI, -1)], ("a", -1),
     [("a", "", -1), ("b", _PSI, -1)], ("b", -1)),
    ([("c1", "", 0), ("a", _PSI, -1)], ("a", -1),
     [("a", "", -1), ("c1", _TH, 0)], ("c1", 1)),
    ([("c2", "", 0), ("a", _PSI, -1)], ("a", -1),
     [("a", "", -1), ("c2", _PH, 0)], ("c2", 1)),
    ([("b", "", 0), ("b", "", -1)], ("b", 1),
     [("b", _PSI, 0), ("b", _PSI, -1)], ("b", -1)),
    ([("b", "", 0), ("c1", _TH, -1)], ("b", 1),
     [("c1", "", -1), ("b", _PSI, 0)], ("c1", -1)),
    ([("b", "", 0), ("c2", _PH, -1)], ("b", 1),
     [("c2", "", -1), ("b", _PSI, 0)], ("c2", -1)),
    ([("b", "", 0), ("c1", "", 0)], ("b", 1),
     [("c1", _TH, 0), ("b", _PSI, 0)], ("c1", 1)),
    ([("b", "", 0), ("c2", "", 0)], ("b", 1),
     [("c2", _PH, 0), ("b", _PSI, 0)], ("c2", 1)),
    ([("b", _PSI, -1), ("c1", _TH, -1)], ("b", -1),
     [("c1", "", -1), ("b", "", -1)], ("c1", -1)),
    ([("b", _PSI, -1), ("c2", _PH, -1)], ("b", -1),
     [("c2", "", -1), ("b", "", -1)], ("c2", -1)),
    ([("c1", "", 0), ("b", _PSI, -1)], ("b", -1),
     [("b", "", -1), ("c1", _TH, 0)], ("c1", 1)),
    ([("c2", "", 0), ("b", _PSI, -1)], ("b", -1),
     [("b", "", -1), ("c2", _PH, 0)], ("c2", 1)),
    ([("c1", "", 0), ("c1", "", -1)], ("c1", -1),
     [("c1", _TH, -1), ("c1", _TH, 0)], ("c1", 1)),
    ([("c1", "", -1), ("c2", _PH, -1)], ("c1", -1),
     [("c2", "", -1), ("c1", _TH, -1)], ("c2", -1)),
    ([("c2", "", 0), ("c1", "", -1)], ("c1", -1),
     [("c1", _TH, -1), ("c2", _PH, 0)], ("c2", 1)),
    ([("c1", _TH, 0), ("c2", _PH, -1)], ("c1", 1),
     [("c1", "", 0), ("c2", "", -1)], ("c2", -1)),
    ([("c2", "", 0), ("c1", _TH, 0)], ("c1", 1),
     [("c1", "", 0), ("c2", _PH, 0)], ("c2", 1)),
    ([("c2", "", 0), ("c2", "", -1)], ("c2", -1),
     [("c2", _PH, -1), ("c2", _PH, 0)], ("c2", 1)),
]


def _swap_token(row, side: int, index: int, token):
    row = list(row)
    tokens = list(row[side])
    tokens[index] = token
    row[side] = tokens
    return tuple(row)


# entry number -> (printed row, corrected row or None, justification/notes)
_F_DIFFERENTIAL_TYPOS = {
    13: (_swap_token(_F_ROWS[12], 2, 1, ("c1", _PH, 0)),
         _F_ROWS[12],
         "the raised-c2 side prints the factor on c1; the surrounding "
         "c-entries and the matching difference-list entry put it on c2, the "
         "printed pairing fails at every generic draw, and the one-symbol "
         "change passes"),
    24: (_swap_token(_F_ROWS[23], 2, 1, ("c1", _PH, -1)),
         _F_ROWS[23],
         "the lowered-c2 side prints c1 with the y-index weight; matching "
         "the lowered-c1 factor on the left requires the x-index weight "
         "(as the difference list prints), and only that swap passes"),
    25: (_swap_token(_F_ROWS[24], 2, 0, ("c1", _PH, -1)),
         _F_ROWS[24],
         "the raised-c2 side prints c1 with the y-index weight; the "
         "first-order relation chain requires the x-index weight on c1 "
         "(as the difference list prints), and only that swap passes"),
}

_F_DUPLICATE_NOTE = ("printed entry repeats entry 7 verbatim and passes; the "
                     "difference list's entry 10 instead pairs the lowered-a "
                     "instance with the lowered-c2 instance")


def _e_entries():
    out = []
    for target in (Target.F41, Target.F42):
        which = _WHICH[target]
        for flavor, tag in (("differential", "diffE"), ("difference", "ddE")):
            realization = _REALIZATIONS[(target, flavor)]
            guard = Constraints() if flavor == "differential" else Constraints(min_k=1)
            for i, (lt, ls, rt, rs) in enumerate(_E_ROWS, start=1):
                notes = ""
                if target is Target.F42 and flavor == "difference" and i >= 5:
                    notes = ("printed with the continuous index weight even in "
                             "the difference list; registered as printed")
                out.append(Identity(
                    f"{target.value}.{tag}.{i}", Family.E_FIRST_ORDER, target,
                    _ledger_side(lt, ls, realization),
                    _ledger_side(rt, rs, realization),
                    guard,
                    anchor=f"{which} analogue: first-order {flavor} relation "
                    f"list, item {i}",
                    notes=notes))
    return out


def _f_entries():
    out = []
    for target in (Target.F41, Target.F42):
        which = _WHICH[target]

        # differential ledger: 28 printed rows with the shared deviations
        realization = _REALIZATIONS[(target, "differential")]
        for i, row in enumerate(_F_ROWS, start=1):
            ident_id = f"{target.value}.diffrec.{i:02d}"
            anchor = (f"{which} analogue: second-order differential ledger, "
                      f"entry {i:02d}")
            if i == 10:
                printed = _F_ROWS[6]
                out.append(Identity(
                    ident_id, Family.F_SECOND_ORDER, target,
                    _ledger_side(printed[0], printed[1], realization),
                    _ledger_side(printed[2], printed[3], realization),
                    anchor=anchor, notes=_F_DUPLICATE_NOTE))
                continue
            if i in _F_DIFFERENTIAL_TYPOS:
                printed, corrected, why = _F_DIFFERENTIAL_TYPOS[i]
                out.append(Identity(
                    ident_id, Family.F_SECOND_ORDER, target,
                    _ledger_side(printed[0], printed[1], realization),
                    _ledger_side(printed[2], printed[3], realization),
                    expected_status=ExpectedStatus.SUSPECTED_TYPO,
                    anchor=anchor + " (as printed)", justification=why,
                    twin_id=ident_id + "c"))
                out.append(Identity(
                    ident_id + "c", Family.F_SECOND_ORDER, target,
                    _ledger_side(corrected[0], corrected[1], realization),
                    _ledger_side(corrected[2], corrected[3], realization),
                    anchor=anchor + " (one-symbol correction)",
                    twin_id=ident_id))
                continue
            out.append(Identity(
                ident_id, Family.F_SECOND_ORDER, target,
                _ledger_side(row[0], row[1], realization),
                _ledger_side(row[2], row[3], realization),
                anchor=anchor))

        # difference ledger: clean; the second analogue stops after the b block
        realization = _REALIZATIONS[(target, "difference")]
        count = 28 if target is Target.F41 else 22
        for i, row in enumerate(_F_ROWS[:count], start=1):
            out.append(Identity(
                f"{target.value}.ddrec.{i:02d}", Family.F_SECOND_ORDER, target,
                _ledger_side(row[0], row[1], realization),
                _ledger_side(row[2], row[3], realization),
                Constraints(min_k=1),
                anchor=f"{which} analogue: second-order difference ledger, "
                f"entry {i:02d}"))
    return out


@lru_cache(maxsize=1)
def builtin_catalog() -> Tuple[Identity, ...]:
    return tuple(_a_entries() + _b_entries() + _c_entries() +
                 _d_entries() + _e_entries() + _f_entries())


@lru_cache(maxsize=1)
def catalog_by_id() -> dict:
    return {ident.id: ident for ident in builtin_catalog()}


def select_identities(family: Optional[Family] = None,
                      target: Optional[Target] = None,
                      include_suspected: bool = True) -> Tuple[Identity, ...]:
    out = []
    for ident in builtin_catalog():
        if family is not None and ident.family is not family:
            continue
        if target is not None and ident.target is not target:
            continue
        if not include_suspected and \
                ident.expected_status is ExpectedStatus.SUSPECTED_TYPO:
            continue
        out.append(ident)
    return tuple(out)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def _compose_grid(arr: np.ndarray, comp: Composition) -> np.ndarray:
    M, N = arr.shape[0] - 1, arr.shape[1] - 1
    out = np.zeros_like(arr)
    if comp is Composition.SECOND_IS_XY:
        # F(x, x y): cell (u, v) collects the source cell (u - v, v)
        for v in range(min(M, N) + 1):
            out[v:M + 1, v] = arr[:M + 1 - v, v]
    else:
        # F(x y, y): cell (u, v) collects the source cell (u, v - u)
        for u in range(min(M, N) + 1):
            out[u, u:N + 1] = arr[u, :N + 1 - u]
    return out


def _compile_term(term: SideTerm, M: int, N: int) -> dict:
    """compile_expr of the term's operator on its instance, checked: every
    index shift fits, and a composed-argument grid takes diagonal factors."""
    spec = term.instance
    compiled = compile_expr(term.expr, spec.params, M, N)
    require_margin(compiled, M, N)
    if spec.composition is not Composition.NONE:
        # a composed-argument grid is no series instance of its own: only
        # the index-diagonal factors (theta_x, phi_y, scale) act on it
        diagonal = (spec.params, 0, 0)
        if any(key != diagonal for key in compiled):
            raise InvalidOperatorError("only index-diagonal factors act on "
                                       "composed-argument grids")
    return compiled


def _term_grid(term: SideTerm, M: int, N: int, compiled: dict) -> np.ndarray:
    """The term's grid; compiled is _compile_term(term, M, N)."""
    spec = term.instance
    if spec.composition is Composition.NONE:
        return complex(term.coeff) * apply_compiled(compiled, M, N)
    diagonal = (spec.params, 0, 0)
    base = np.asarray(coefficient_grid(spec.params, M, N).coeffs)
    grid = _compose_grid(base, spec.composition)
    return complex(term.coeff) * (compiled.get(diagonal, 0.0) * grid)


def _poly_value(grid: np.ndarray, x: complex, y: complex) -> complex:
    xp = np.power(complex(x), np.arange(grid.shape[0]))
    yp = np.power(complex(y), np.arange(grid.shape[1]))
    return complex(xp @ grid @ yp)


def _is_nonneg_int(v: complex) -> bool:
    return abs(v.imag) < 1e-9 and abs(v.real - round(v.real)) < 1e-9 \
        and round(v.real) >= 0


def _summed_supported(p: Params, M: int, N: int, slack: int = 3) -> bool:
    # termwise sums are exact only when every instance terminates inside the
    # rectangle; slack absorbs the t-raising of iterated forward differences
    for axis, size in zip(_AXES[_target_of(p)], (M, N)):
        t, k = getattr(p, axis.t), getattr(p, axis.k)
        if k < 1 or not _is_nonneg_int(t) or \
                round(t.real) // k + slack > size:
            return False
    return True


def point_to_dict(point: ParamPoint) -> dict:
    p = point.params
    out = {"target": _target_of(p).value}
    for name in (f.name for f in fields(p)):
        v = getattr(p, name)
        out[name] = v if isinstance(v, int) else [float(v.real), float(v.imag)]
    out["r"] = point.r
    out["s"] = point.s
    return out


def _check_point(ident: Identity, point: ParamPoint) -> None:
    if not isinstance(point.params, _TARGET_PARAMS[ident.target]):
        raise ConstraintError(f"identity {ident.id} targets "
                              f"{ident.target.value}, got "
                              f"{type(point.params).__name__}")
    ident.constraints.validate(point)


@dataclass(frozen=True)
class _PlannedDraw:
    """One point with both sides built and every term compiled, as
    (term, compiled) pairs per side."""

    point: ParamPoint
    lhs: tuple
    rhs: tuple

    def grid_keys(self, M: int, N: int) -> list:
        """The (params, M, N) grid requests of the comparison, in order."""
        keys = []
        for term, compiled in self.lhs + self.rhs:
            if term.instance.composition is Composition.NONE:
                keys += [(q, M, N) for q, _, _ in compiled]
            else:
                keys.append((term.instance.params, M, N))
        return keys


def _plan(ident: Identity, point: ParamPoint, M: int, N: int,
          ) -> _PlannedDraw:
    """Check point against ident, build both sides and compile every term:
    everything verify_identity does before it requests a grid."""
    _check_point(ident, point)
    sides = ident.lhs(point), ident.rhs(point)
    lhs, rhs = (tuple((t, _compile_term(t, M, N)) for t in terms)
                for terms in sides)
    return _PlannedDraw(point, lhs, rhs)


def verify_identity(ident: Identity, point: ParamPoint, M: int = 12,
                    N: int = 12, tolerance: float = 1e-10,
                    mode: VerificationMode = VerificationMode.COEFFICIENTWISE,
                    *, _planned: Optional[_PlannedDraw] = None,
                    ) -> RelationReport:
    """Build both sides on the truncation rectangle and report residuals.

    Cellwise comparison is exact up to floating round-off; summed mode
    additionally compares the two sides' numeric sums, which requires every
    instance to terminate inside the rectangle.  Both sides are built and
    compiled (_plan) before any grid is requested; audit_catalog passes the
    plan it already made for point.
    """
    mode = VerificationMode(mode)
    if _planned is None:
        _planned = _plan(ident, point, M, N)
    lhs, rhs = _planned.lhs, _planned.rhs
    lhs_grids = [_term_grid(t, M, N, c) for t, c in lhs]
    rhs_grids = [_term_grid(t, M, N, c) for t, c in rhs]
    zero = np.zeros((M + 1, N + 1), dtype=np.complex128)
    lhs_total = sum(lhs_grids, zero)
    rhs_total = sum(rhs_grids, zero)

    magnitudes = [float(np.abs(g).max()) for g in lhs_grids + rhs_grids]
    magnitudes += [float(np.abs(lhs_total).max()), float(np.abs(rhs_total).max())]
    max_abs = float(np.abs(lhs_total - rhs_total).max())

    if mode is VerificationMode.SUMMED_TERMINATING:
        specs = [t.instance.params for t, _ in lhs + rhs]
        if not all(_summed_supported(p, M, N) for p in specs):
            raise ConstraintError(
                "summed mode needs terminating t with support (plus shift "
                "slack) inside the rectangle for every instance")
        x, y = point.params.x, point.params.y
        lhs_vals = [_poly_value(g, x, y) for g in lhs_grids]
        rhs_vals = [_poly_value(g, x, y) for g in rhs_grids]
        magnitudes += [abs(v) for v in lhs_vals + rhs_vals]
        max_abs = max(max_abs, abs(sum(lhs_vals) - sum(rhs_vals)))

    scale_ = max(magnitudes, default=0.0)
    rel = max_abs / max(scale_, 1e-300)
    return RelationReport(
        identity_id=ident.id,
        params=point_to_dict(point),
        mode=mode,
        max_abs_residual=max_abs,
        scale=scale_,
        rel_residual=rel,
        passed=bool(rel <= tolerance),
        cells_checked=(M + 1) * (N + 1),
        tolerance=tolerance,
    )


def verify_recursion_sum(ident: Identity, point: ParamPoint, s: int,
                         M: int = 12, N: int = 12, tolerance: float = 1e-10,
                         mode: VerificationMode = VerificationMode.COEFFICIENTWISE,
                         ) -> RelationReport:
    """Family-D verification with an explicit number of telescoping steps."""
    if ident.family is not Family.D_RECURSION_SUMS:
        raise ConstraintError(f"identity {ident.id} is not a recursion sum")
    # ParamPoint rejects an s that is no integer >= 1
    return verify_identity(ident, _dc_replace(point, s=s), M, N, tolerance, mode)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamSampler:
    """Deterministic rejection sampler for audit parameter points.

    Each (identity, draw index) pair seeds its own generator, so per-identity
    draw sequences never depend on catalog order.  Rejection keeps every
    sampled parameter away from the integer lattice (all printed relations
    are generic-parameter statements and several denominators would otherwise
    vanish), and keeps c1 distinct from c2 so one-symbol c-swaps actually
    change the relation.
    """

    seed: int = 0
    draws: int = 50
    magnitude: float = 2.0
    radius_lo: float = 0.05
    radius_hi: float = 0.4
    k_choices: Tuple[int, ...] = (1, 2, 3)
    r_choices: Tuple[int, ...] = (1, 2, 3)
    s_choices: Tuple[int, ...] = (1, 2, 3)
    terminating_units: Tuple[int, ...] = (4, 5, 6)

    def rng_for(self, ident_id: str, j: int) -> random.Random:
        return random.Random(f"{self.seed}:{ident_id}:{j}")

    @staticmethod
    def _off_lattice(rng: random.Random, mag: float, min_dist: float) -> complex:
        while True:
            z = complex(rng.uniform(-mag, mag), rng.uniform(-mag, mag))
            if abs(z - round(z.real)) >= min_dist:
                return z

    def _arg(self, rng: random.Random) -> complex:
        radius = rng.uniform(self.radius_lo, self.radius_hi)
        angle = rng.uniform(0.0, 2.0 * pi)
        return complex(radius * np.cos(angle), radius * np.sin(angle))

    def draw(self, ident: Identity, j: int, terminating: bool = False,
             ) -> ParamPoint:
        rng = self.rng_for(ident.id, j)
        cons = ident.constraints
        a = self._off_lattice(rng, self.magnitude, 0.05)
        b = self._off_lattice(rng, self.magnitude, 0.05)
        while True:
            c1 = self._off_lattice(rng, self.magnitude, 0.1)
            c2 = self._off_lattice(rng, self.magnitude, 0.1)
            if abs(c1 - c2) >= 0.05:
                break
        x, y = self._arg(rng), self._arg(rng)
        r = rng.choice(self.r_choices) if cons.uses_r else 1
        s = rng.choice(self.s_choices) if cons.uses_s else 1

        # k, then t, for the fields of each axis: k1, k2, t1, t2, or k and t
        t_k = {axis.t: axis.k for axis in _AXES[ident.target]}
        ks = {}
        for name in t_k.values():
            want = getattr(cons, name)
            ks[name] = want if want is not None else \
                rng.choice(self.k_choices)
        while cons.odd_k_sum and sum(ks.values()) % 2 == 0:
            ks = {name: rng.choice(self.k_choices) for name in ks}
        ts = {}
        for name, k in t_k.items():
            if terminating:
                ts[name] = complex(ks[k] * rng.choice(self.terminating_units))
            else:
                ts[name] = self._off_lattice(rng, self.magnitude, 0.05)
        params = _TARGET_PARAMS[ident.target](a, b, c1, c2, x=x, y=y, **ts,
                                              **ks)
        return ParamPoint(params, r=r, s=s)


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuditSummary:
    """Per-identity audit rows in catalog order, plus flagged id sets."""

    rows: Tuple[dict, ...]
    failing_everywhere: Tuple[str, ...]
    status_contradictions: Tuple[str, ...]

    def to_json(self) -> str:
        return json.dumps(list(self.rows), indent=2)


def _row_status(ident: Identity, draws: int, passes: int) -> str:
    suspected = ident.expected_status is ExpectedStatus.SUSPECTED_TYPO
    if passes == draws:
        return "status_contradiction" if suspected else "ok"
    if passes == 0:
        return "typo_confirmed" if suspected else "fail"
    return "mixed"


# grid cells one audit chunk plans before it compares: 775 grids of 13 x 13,
# 2.6 MB with their cache entries, so that a chunk fits the grid cache and
# no planned grid is evicted before its comparison reads it.  A chunk's plan
# holds about 9 KB per draw besides its grids; on a 2-core x86-64 host,
# chunks of 256 to 1,024 grids cut the seed-3 acceptance audit alike
_PLAN_CELLS = _GRID_CACHE_BYTES // 16 // 2


def audit_catalog(sampler: ParamSampler, M: int = 12, N: int = 12,
                  tolerance: float = 1e-10,
                  identities: Optional[Sequence[Identity]] = None,
                  ) -> AuditSummary:
    """Run every identity at the sampler's draws and summarize the outcomes.

    The draws are taken in catalog order, in chunks of at most _PLAN_CELLS
    grid cells (one draw at least), each in three phases:
      plan     draw the point, build both sides and compile every term;
      build    put every grid the chunk requests into the grid cache, as
               lanes where they are many (series.cache_grids);
      compare  verify_identity on the planned sides, from cached grids.
    Plan and build raise nothing: a draw whose plan raises is verified from
    scratch in its turn and raises there, as a grid build that raises does
    when its grid is requested.  A draw too large for a chunk alone requests
    its grids as it compares.
    """
    if identities is None:
        identities = builtin_catalog()
    if sampler.draws <= 0:
        return AuditSummary((), (), ())
    worst = [0.0] * len(identities)
    passes = [0] * len(identities)
    # a planned draw also holds a few KB of sides and weights whatever the
    # rectangle, so a grid counts as at least 13 x 13 cells
    per_chunk = _PLAN_CELLS // max((M + 1) * (N + 1), 13 * 13)

    def compare(chunk, keys):
        if len(keys) <= per_chunk:
            cache_grids(keys)
        for i, ident, j, planned in chunk:
            point = planned.point if planned else sampler.draw(ident, j)
            report = verify_identity(ident, point, M, N, tolerance,
                                     _planned=planned)
            worst[i] = max(worst[i], report.rel_residual)
            passes[i] += int(report.passed)

    chunk, keys = [], {}
    for i, ident in enumerate(identities):
        for j in range(sampler.draws):
            try:
                planned = _plan(ident, sampler.draw(ident, j), M, N)
            except Exception:
                planned = None  # compare repeats the draw and raises there
            mine = dict.fromkeys(planned.grid_keys(M, N) if planned else ())
            fresh = sum(key not in keys for key in mine)
            if chunk and len(keys) + fresh > per_chunk:
                compare(chunk, list(keys))
                chunk, keys = [], {}
            chunk.append((i, ident, j, planned))
            keys.update(mine)
    compare(chunk, list(keys))

    rows = []
    failing = []
    contradictions = []
    for i, ident in enumerate(identities):
        status = _row_status(ident, sampler.draws, passes[i])
        if passes[i] == 0:
            failing.append(ident.id)
        if status == "status_contradiction":
            contradictions.append(ident.id)
        rows.append({
            "id": ident.id,
            "paper_anchor": ident.anchor,
            "draws": sampler.draws,
            "passes": passes[i],
            "worst_rel_residual": worst[i],
            "status": status,
        })
    return AuditSummary(tuple(rows), tuple(failing), tuple(contradictions))
