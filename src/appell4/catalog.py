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

Side builders read a point whose fields are columns, one entry per draw
(`series.param_columns`).  `audit_catalog` judges each identity's draws in
draw groups, the draws that share r, s and the k fields and so share their
terms and compiled keys: it builds the sides and compiles each term once
per group, builds the grids of a pass of groups at once as lanes
(`series.build_stacks`), then compares each term over the group's stack of
grids.  numpy rounds each draw as it rounds it in a group of one, a lane's
bytes do not depend on its batch, and a lone `verify_identity` is a group
of one,
so a residual depends neither on the grouping nor on whether the audit
reached it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace as _dc_replace
from enum import Enum
from functools import lru_cache
from math import cos, inf, pi, sin
from typing import Callable, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ConstraintError, InvalidOperatorError
from .kernels import _is_exact_nonpositive_int, pochhammer
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
    shifted_instance,
    theta_x,
)
# not called here since every term is compiled before its grid is built, but
# kept as a module name: the layer tracer in perfbench wraps it
from .operators import apply_expr_to_params  # noqa: F401
from .series import (F41Params, F42Params, build_stacks, coefficient_grid,
                     param_columns, param_entry)

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
class SideTerm:
    """One resolved summand: scalar coefficient, operator, and the function
    occurrence it acts on, as its parameters and argument composition."""

    coeff: complex
    expr: OperatorExpr
    params: Params
    composition: Composition = Composition.NONE


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

    @classmethod
    def judged(cls, identity_id: str, params: dict, mode: VerificationMode,
               max_abs: float, scale: float, cells: int,
               tolerance: float) -> "RelationReport":
        """The report of residual max_abs against scale, the one pass rule:
        max_abs / max(scale, 1e-300) at most tolerance."""
        _require_tolerance(tolerance)
        rel = max_abs / max(scale, 1e-300)
        return cls(identity_id, params, mode, max_abs, scale, rel,
                   bool(rel <= tolerance), cells, tolerance)


def _require_tolerance(tolerance: float) -> None:
    """ValueError (exit 2 in the CLI) for a NaN, infinite or negative
    tolerance, which would fail or pass every residual alike."""
    if not 0.0 <= tolerance < inf:
        raise ValueError("tolerance must be finite and nonnegative, got "
                         f"{tolerance!r}")


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


def _pochhammer(v: np.ndarray, length: int) -> np.ndarray:
    """pochhammer(v, length) of each entry of the column v, taken by the
    scalar kernel entry by entry, so each keeps its bytes and its errors."""
    return np.array([pochhammer(z, length) for z in v.ravel().tolist()],
                    dtype=np.complex128).reshape(v.shape)


def _quotient(num, den):
    """num / den over columns, with the ZeroDivisionError that Python's
    complex division raises where den has an exact zero."""
    if not np.all(den):
        raise ZeroDivisionError("complex division by zero")
    return num / den


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


def _ledger(row, realization) -> Tuple[SideBuilder, SideBuilder]:
    """Both sides of a ledger row (tokens, shift, tokens, shift): each the
    product of its tokens' factors on its shifted instance."""
    def side(tokens, shift) -> SideBuilder:
        def build(pt: ParamPoint) -> Tuple[SideTerm, ...]:
            p = pt.params
            expr = identity_expr
            for token in tokens:
                expr = expr @ _token_expr(token, realization, p)
            return (SideTerm(1.0, expr, _shifted(p, shift)),)
        return build
    return side(*row[:2]), side(*row[2:])


def _typo_pair(ident_id: str, family: Family, target: Target, anchor: str,
               printed, corrected, label: str, justification: str) -> list:
    """An entry as printed, expected to fail, and its correction, twin
    `<id>c`, cross-linked; printed and corrected are (lhs, rhs) or (lhs,
    rhs, constraints)."""
    return [Identity(ident_id, family, target, *printed,
                     expected_status=ExpectedStatus.SUSPECTED_TYPO,
                     anchor=anchor + " (as printed)",
                     justification=justification, twin_id=ident_id + "c"),
            Identity(ident_id + "c", family, target, *corrected,
                     anchor=f"{anchor} ({label})", twin_id=ident_id)]


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
        c = (k if by_k else 1) * (-1.0) ** k * _pochhammer(-t, k)
        return (SideTerm(c, e, p),)
    return rhs


def _ddeq_f41(axis: _Axis):
    # big_theta_t (scaled_big_theta_t + c - 1) on the left
    big = OperatorExpr.of(PrimitiveOp(OpKind.BIG_THETA, axis.t))
    scaled = OperatorExpr.of(PrimitiveOp(OpKind.SCALED_BIG_THETA, axis.t))

    def lhs(pt):
        p = pt.params
        e = big @ (scaled + _const(getattr(p, axis.c) - 1))
        return (SideTerm(1.0, e, p),)
    return lhs, _ddeq_rhs(axis, Target.F41, by_k=True)


def _ddeq_f42(axis: _Axis):
    # the index weight w (w + c - 1) on the left
    w = OperatorExpr.of(axis.weight)

    def lhs(pt):
        p = pt.params
        e = w @ (w + _const(getattr(p, axis.c) - 1))
        return (SideTerm(1.0, e, p),)
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
        return (SideTerm(1.0, _pow_expr(delta, pt.r), pt.params),)

    def rhs(pt):
        p, r = pt.params, pt.r
        cv = getattr(p, axis.c)
        c = _quotient(_pochhammer(p.a, r) * _pochhammer(p.b, r),
                      _pochhammer(cv, r))
        inst = p.replace(a=p.a + r, b=p.b + r, **{axis.c: cv + r})
        return (SideTerm(c, _pow_expr(axis.mul, r), inst),)
    return lhs, rhs


def _weight_power(axis: _Axis):
    # the r-th falling index-weight power against mul^r of the instance
    # with a, b, c raised by r and t lowered by r k
    def lhs(pt):
        return (SideTerm(1.0, _falling_power(axis.weight, pt.r), pt.params),)

    def rhs(pt):
        p, r = pt.params, pt.r
        t, k, cv = (getattr(p, f) for f in (axis.t, axis.k, axis.c))
        c = _quotient((-1.0) ** (r * k) * _pochhammer(p.a, r)
                      * _pochhammer(p.b, r) * _pochhammer(-t, r * k),
                      _pochhammer(cv, r))
        inst = p.replace(a=p.a + r, b=p.b + r,
                         **{axis.c: cv + r, axis.t: t - r * k})
        return (SideTerm(c, _pow_expr(axis.mul, r), inst),)
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
        return (SideTerm(1.0, e, p, comp),)

    def rhs(pt):
        p, r = pt.params, pt.r
        beta = getattr(p, pname)
        inst = p.replace(**{pname: beta + r})
        return (SideTerm(_pochhammer(beta, r), identity_expr, inst, comp),)

    return lhs, rhs


def _c_lower(op, pname: str):
    # d^r/dz^r [z^(c - 1) F] = (-1)^r (1 - c)_r z^(c - r - 1) F(c -> c - r)
    def lhs(pt):
        p, r = pt.params, pt.r
        cval = getattr(p, pname)
        e = _weight_product(op, [cval - 1 - i for i in range(r)])
        return (SideTerm(1.0, e, p),)

    def rhs(pt):
        p, r = pt.params, pt.r
        cval = getattr(p, pname)
        inst = p.replace(**{pname: cval - r})
        c = (-1.0) ** r * _pochhammer(1 - cval, r)
        return (SideTerm(c, identity_expr, inst),)

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

def _d_scales(p: Params, y_sign_axis: int = 1):
    # per-axis sign/t-factor coefficient and the t-shift of the sum
    # instances; the y axis's sign exponent is the k of axis y_sign_axis
    axes = _AXES[_target_of(p)]
    out = ()
    for axis, signed in zip(axes, (axes[0], axes[y_sign_axis])):
        t, k = getattr(p, axis.t), getattr(p, axis.k)
        out += ((-1.0) ** getattr(p, signed.k) * _pochhammer(-t, k),
                {axis.t: t - k})
    return out


def _plain(p: Params) -> SideTerm:
    return SideTerm(1.0, identity_expr, p)


def _d_shift_lhs(pname: str, sign: int) -> SideBuilder:
    def lhs(pt):
        p = pt.params
        return (_plain(p.replace(**{pname: getattr(p, pname) + sign * pt.s})),)
    return lhs


def _d_ab_rhs(shift_name: str, coeff_name: str, sign: int,
              y_sign_axis: int = 1) -> SideBuilder:
    # raising (sign +1, r = 1..s) or lowering (sign -1, r = 0..s-1) one of
    # a/b while the other parameter supplies the coefficient; the y-sum's
    # sign exponent is the k of axis y_sign_axis (_d_scales)
    def rhs(pt):
        p, s = pt.params, pt.s
        sx, shx, sy, shy = _d_scales(p, y_sign_axis)
        cpar = getattr(p, coeff_name)
        other = {"a": {"b": p.b + 1}, "b": {"a": p.a + 1}}[shift_name]
        terms = [_plain(p)]
        rng = range(1, s + 1) if sign > 0 else range(s)
        for r in rng:
            moved = {shift_name: getattr(p, shift_name) + sign * r}
            terms.append(SideTerm(
                _quotient(sign * sx * cpar, p.c1), OperatorExpr.of(mul_x),
                p.replace(c1=p.c1 + 1, **moved, **other, **shx)))
            terms.append(SideTerm(
                _quotient(sign * sy * cpar, p.c2), OperatorExpr.of(mul_y),
                p.replace(c2=p.c2 + 1, **moved, **other, **shy)))
        return tuple(terms)
    return rhs


def _d5_rhs(printed_extra_sum: bool) -> SideBuilder:
    def rhs(pt):
        p, s = pt.params, pt.s
        sx, shx, sy, shy = _d_scales(p)
        terms = [_plain(p)]
        for r in range(1, s + 1):
            den = (p.c1 - r) * (p.c1 - r + 1)
            inst = p.replace(a=p.a + 1, b=p.b + 1, c1=p.c1 + 2 - r)
            terms.append(SideTerm(_quotient(sx * p.a * p.b, den),
                                  OperatorExpr.of(mul_x), inst.replace(**shx)))
            if printed_extra_sum:
                terms.append(SideTerm(_quotient(sy * p.a * p.b, den),
                                      OperatorExpr.of(mul_y),
                                      inst.replace(**shy)))
        return tuple(terms)
    return rhs


def _d_entries():
    out = []
    for target, stem in ((Target.F41, "F41.thm4"), (Target.F42, "F42.thm5.3")):
        which = _WHICH[target]
        uses_s = Constraints(uses_s=True)

        def anchor(i):
            return f"{which} analogue: recursion-sum theorem, formula {i}"

        # the shifted parameter, its direction and the coefficient parameter
        for i, (pname, sign, cname) in enumerate(
                (("a", +1, "b"), ("a", -1, "b"), ("b", +1, "a")), start=1):
            out.append(Identity(f"{stem}.{i}", Family.D_RECURSION_SUMS, target,
                                _d_shift_lhs(pname, sign),
                                _d_ab_rhs(pname, cname, sign),
                                uses_s, anchor=anchor(i)))
        if target is Target.F41:
            out += _typo_pair(
                f"{stem}.4", Family.D_RECURSION_SUMS, target, anchor(4),
                # as printed, the y-sum's sign takes the x axis's exponent
                (_d_shift_lhs("b", -1), _d_ab_rhs("b", "a", -1, y_sign_axis=0),
                 Constraints(uses_s=True, odd_k_sum=True)),
                (_d_shift_lhs("b", -1), _d_ab_rhs("b", "a", -1), uses_s),
                "corrected sign exponent",
                "the y-sum coefficient prints the x-axis sign "
                "exponent; the two exponents agree only for even k1 + k2, so "
                "the entry is registered on the odd-parity domain where the "
                "printed form fails at every draw while the one-symbol "
                "correction passes")
        else:
            out.append(Identity(
                f"{stem}.4", Family.D_RECURSION_SUMS, target,
                _d_shift_lhs("b", -1), _d_ab_rhs("b", "a", -1),
                uses_s, anchor=anchor(4),
                notes="the x-sum's shifted argument is printed as a "
                "two-variable t list although this analogue has a single t; "
                "registered under the evident reading t - k"))
        out += _typo_pair(
            f"{stem}.5", Family.D_RECURSION_SUMS, target, anchor(5),
            (_d_shift_lhs("c1", -1), _d5_rhs(printed_extra_sum=True), uses_s),
            (_d_shift_lhs("c1", -1), _d5_rhs(printed_extra_sum=False),
             uses_s),
            "second sum dropped",
            "the printed second sum repeats the first sum's "
            "raised-c1 instances under a y prefactor; the telescoping that "
            "proves the formula produces the x-sum only, and the extra sum "
            "breaks every generic draw")
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


# entry number -> (printed row, justification); the shared row corrects it
_F_DIFFERENTIAL_TYPOS = {
    13: (_swap_token(_F_ROWS[12], 2, 1, ("c1", _PH, 0)),
         "the raised-c2 side prints the factor on c1; the surrounding "
         "c-entries and the matching difference-list entry put it on c2, the "
         "printed pairing fails at every generic draw, and the one-symbol "
         "change passes"),
    24: (_swap_token(_F_ROWS[23], 2, 1, ("c1", _PH, -1)),
         "the lowered-c2 side prints c1 with the y-index weight; matching "
         "the lowered-c1 factor on the left requires the x-index weight "
         "(as the difference list prints), and only that swap passes"),
    25: (_swap_token(_F_ROWS[24], 2, 0, ("c1", _PH, -1)),
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
            for i, row in enumerate(_E_ROWS, start=1):
                notes = ""
                if target is Target.F42 and flavor == "difference" and i >= 5:
                    notes = ("printed with the continuous index weight even in "
                             "the difference list; registered as printed")
                out.append(Identity(
                    f"{target.value}.{tag}.{i}", Family.E_FIRST_ORDER, target,
                    *_ledger(row, realization), guard,
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
            if i in _F_DIFFERENTIAL_TYPOS:
                printed, why = _F_DIFFERENTIAL_TYPOS[i]
                out += _typo_pair(ident_id, Family.F_SECOND_ORDER, target,
                                  anchor, _ledger(printed, realization),
                                  _ledger(row, realization),
                                  "one-symbol correction", why)
                continue
            duplicate = i == 10  # prints entry 7 again
            out.append(Identity(
                ident_id, Family.F_SECOND_ORDER, target,
                *_ledger(_F_ROWS[6] if duplicate else row, realization),
                anchor=anchor, notes=_F_DUPLICATE_NOTE if duplicate else ""))

        # difference ledger: clean; the second analogue stops after the b block
        realization = _REALIZATIONS[(target, "difference")]
        count = 28 if target is Target.F41 else 22
        for i, row in enumerate(_F_ROWS[:count], start=1):
            out.append(Identity(
                f"{target.value}.ddrec.{i:02d}", Family.F_SECOND_ORDER, target,
                *_ledger(row, realization), Constraints(min_k=1),
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
    """The grid, or each grid of a stack, at the composed arguments."""
    M, N = arr.shape[-2] - 1, arr.shape[-1] - 1
    out = np.zeros_like(arr)
    if comp is Composition.SECOND_IS_XY:
        # F(x, x y): cell (u, v) collects the source cell (u - v, v)
        for v in range(min(M, N) + 1):
            out[..., v:M + 1, v] = arr[..., :M + 1 - v, v]
    else:
        # F(x y, y): cell (u, v) collects the source cell (u, v - u)
        for u in range(min(M, N) + 1):
            out[..., u, u:N + 1] = arr[..., u, :N + 1 - u]
    return out


class _Term(NamedTuple):
    """A side term compiled: the term, its compile_expr result and the
    instance whose grids each key reads, in key order (a composed term
    reads its own instance)."""

    term: SideTerm
    compiled: dict
    instances: list


class _Group(NamedTuple):
    """A draw group planned: its number of draws, both sides' compiled
    terms, and every instance the comparison reads, in term order."""

    draws: int
    lhs: tuple
    rhs: tuple
    instances: list


_DIAGONAL = ((), 0, 0)


def _compile_term(term: SideTerm, M: int, N: int) -> _Term:
    """compile_expr of the term's operator on its instance, checked: every
    index shift fits, and a composed-argument grid takes diagonal factors."""
    compiled = compile_expr(term.expr, term.params, M, N)
    require_margin(compiled, M, N)
    if term.composition is Composition.NONE:
        return _Term(term, compiled, [shifted_instance(term.params, path)
                                      for path, _, _ in compiled])
    # a composed-argument grid is no series instance of its own: only the
    # index-diagonal factors (theta_x, phi_y, scale) act on it
    if any(key != _DIAGONAL for key in compiled):
        raise InvalidOperatorError("only index-diagonal factors act on "
                                   "composed-argument grids")
    return _Term(term, compiled, [term.params])


def _plan(ident: Identity, points: Sequence[ParamPoint], M: int, N: int,
          ) -> _Group:
    """Check a draw group (points sharing r, s and the k fields) against
    ident, build both sides once on the points' fields as columns
    (series.param_columns) and compile every term once: everything a
    verdict does before it builds a grid.  numpy rounds each draw's
    coefficients and weights as it rounds them in a group of one."""
    _check_point(ident, points[0])
    point = ParamPoint(param_columns([pt.params for pt in points]),
                       points[0].r, points[0].s)
    # the sides' arithmetic does not warn, as Python's on numbers does not;
    # a division by an exact zero raises (_quotient)
    with np.errstate(over="ignore", invalid="ignore"):
        lhs, rhs = (tuple(_compile_term(t, M, N) for t in terms)
                    for terms in (ident.lhs(point), ident.rhs(point)))
    return _Group(len(points), lhs, rhs,
                  [q for t in lhs + rhs for q in t.instances])


def _instance_grids(q: Params, stack: np.ndarray, finite: np.ndarray,
                    M: int, N: int) -> np.ndarray:
    """q's grid per draw: its stack of lanes (build_stacks), where each grid
    that is not finite as a lane is requested alone (coefficient_grid),
    which builds it or raises as that build does."""
    for j in np.flatnonzero(~finite):
        stack[j] = coefficient_grid(param_entry(q, j), M, N).coeffs
    return stack


def _term_grids(t: _Term, stacks, M: int, N: int) -> np.ndarray:
    """The term's grid per draw, (D, M+1, N+1), from build_stacks' stack of
    each of its instances."""
    grids = [_instance_grids(q, stack, finite, M, N)
             for q, (stack, finite) in zip(t.instances, stacks)]
    # np.multiply keeps the operand order: coeff * temp may run as temp *=
    # coeff on a temporary of 256 KiB or more, which numpy can round apart,
    # so a draw's bytes would depend on the size of its group
    if t.term.composition is Composition.NONE:
        return np.multiply(t.term.coeff,
                           apply_compiled(t.compiled, grids, M, N))
    grid = _compose_grid(grids[0], t.term.composition)
    return np.multiply(t.term.coeff,
                       np.multiply(t.compiled.get(_DIAGONAL, 0.0), grid))


def _fold_max(values: list) -> np.ndarray:
    """Python's max over values, draw by draw: a value replaces the maximum
    so far only where it is greater, so a NaN after the first never does."""
    out = values[0]
    for v in values[1:]:
        out = np.where(v > out, v, out)
    return out


def _compare(group: _Group, stacks: list, M: int, N: int) -> tuple:
    """Both sides' term grids and, per draw, the largest residual cell
    |lhs - rhs| and the scale: the largest cell of any term grid or side
    total.  stacks are build_stacks' of group.instances."""
    stacks = iter(stacks)
    lhs_grids, rhs_grids = (
        [_term_grids(t, [next(stacks) for _ in t.instances], M, N)
         for t in terms] for terms in (group.lhs, group.rhs))
    zero = np.zeros((M + 1, N + 1), dtype=np.complex128)
    lhs_total = sum(lhs_grids, zero)
    rhs_total = sum(rhs_grids, zero)
    cells = (-2, -1)
    scale = _fold_max([np.abs(g).max(axis=cells) for g in
                       lhs_grids + rhs_grids + [lhs_total, rhs_total]])
    max_abs = np.abs(lhs_total - rhs_total).max(axis=cells)
    return lhs_grids, rhs_grids, max_abs, scale


def _poly_value(grid: np.ndarray, x: complex, y: complex) -> complex:
    xp = np.power(complex(x), np.arange(grid.shape[0]))
    yp = np.power(complex(y), np.arange(grid.shape[1]))
    return complex(xp @ grid @ yp)


# termwise sums are exact only when every instance terminates inside the
# rectangle; the slack absorbs the t-raising of iterated forward differences
_SUMMED_SLACK = 3


def _summed_supported(p: Params, M: int, N: int) -> bool:
    """p holds the columns of one draw."""
    for axis, size in zip(_AXES[_target_of(p)], (M, N)):
        t, k = complex(getattr(p, axis.t).item()), getattr(p, axis.k)
        if k < 1 or not _is_exact_nonpositive_int(-t) or \
                int(t.real) // k + _SUMMED_SLACK > size:
            return False
    return True


def point_to_dict(point: ParamPoint) -> dict:
    p = point.params
    out = {"target": _target_of(p).value}
    for name in p._FIELDS:
        v = getattr(p, name)
        out[name] = v if isinstance(v, int) else [v.real, v.imag]
    out["r"] = point.r
    out["s"] = point.s
    return out


def _check_point(ident: Identity, point: ParamPoint) -> None:
    if not isinstance(point.params, _TARGET_PARAMS[ident.target]):
        raise ConstraintError(f"identity {ident.id} targets "
                              f"{ident.target.value}, got "
                              f"{type(point.params).__name__}")
    ident.constraints.validate(point)


def verify_identity(ident: Identity, point: ParamPoint, M: int = 12,
                    N: int = 12, tolerance: float = 1e-10,
                    mode: VerificationMode = VerificationMode.COEFFICIENTWISE,
                    ) -> RelationReport:
    """Build both sides on the truncation rectangle and report residuals.

    Cellwise comparison is exact up to floating round-off; summed mode
    additionally compares the two sides' numeric sums, which requires every
    instance to terminate inside the rectangle.  The point is verified as
    the audit verifies a draw group, as a group of one: plan, build its
    grids as lanes (series.build_stacks), compare.
    """
    mode = VerificationMode(mode)
    group = _plan(ident, [point], M, N)
    lhs_grids, rhs_grids, max_abs, scale = _compare(
        group, build_stacks(group.instances, M, N), M, N)
    max_abs, magnitudes = float(max_abs.flat[0]), [float(scale.flat[0])]

    if mode is VerificationMode.SUMMED_TERMINATING:
        if not all(_summed_supported(t.term.params, M, N)
                   for t in group.lhs + group.rhs):
            raise ConstraintError(
                "summed mode needs terminating t with support (plus shift "
                "slack) inside the rectangle for every instance")
        x, y = point.params.x, point.params.y
        lhs_vals = [_poly_value(g[0], x, y) for g in lhs_grids]
        rhs_vals = [_poly_value(g[0], x, y) for g in rhs_grids]
        magnitudes += [abs(v) for v in lhs_vals + rhs_vals]
        max_abs = max(max_abs, abs(sum(lhs_vals) - sum(rhs_vals)))

    return RelationReport.judged(ident.id, point_to_dict(point), mode,
                                 max_abs, max(magnitudes),
                                 (M + 1) * (N + 1), tolerance)


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

# the draw rule: a, b, c1, c2 and t off the lattice with parts within
# _MAGNITUDE, x and y at a radius in _RADII, k, r and s from _CHOICES, and a
# terminating t k times one of _TERMINATING_UNITS
_MAGNITUDE = 2.0
_RADII = (0.05, 0.4)
_CHOICES = (1, 2, 3)
_TERMINATING_UNITS = (4, 5, 6)


def _off_lattice(rng: random.Random, min_dist: float) -> complex:
    while True:
        z = complex(rng.uniform(-_MAGNITUDE, _MAGNITUDE),
                    rng.uniform(-_MAGNITUDE, _MAGNITUDE))
        if abs(z - round(z.real)) >= min_dist:
            return z


def _arg(rng: random.Random) -> complex:
    radius = rng.uniform(*_RADII)
    angle = rng.uniform(0.0, 2.0 * pi)
    return complex(radius * cos(angle), radius * sin(angle))


@dataclass(frozen=True)
class ParamSampler:
    """Deterministic rejection sampler for audit parameter points.

    Each (identity, draw index) pair seeds its own generator, so per-identity
    draw sequences never depend on catalog order.  Rejection keeps a, b, c1,
    c2 and a non-terminating t away from the integer lattice (all printed
    relations are generic-parameter statements and several denominators
    would otherwise vanish), and keeps c1 distinct from c2 so one-symbol
    c-swaps actually change the relation.
    """

    seed: int = 0
    draws: int = 50

    def draw(self, ident: Identity, j: int, terminating: bool = False,
             ) -> ParamPoint:
        rng = random.Random(f"{self.seed}:{ident.id}:{j}")
        cons = ident.constraints
        a, b = _off_lattice(rng, 0.05), _off_lattice(rng, 0.05)
        while True:
            c1, c2 = _off_lattice(rng, 0.1), _off_lattice(rng, 0.1)
            if abs(c1 - c2) >= 0.05:
                break
        x, y = _arg(rng), _arg(rng)
        r = rng.choice(_CHOICES) if cons.uses_r else 1
        s = rng.choice(_CHOICES) if cons.uses_s else 1

        # k, then t, for the fields of each axis: k1, k2, t1, t2, or k and t
        t_k = {axis.t: axis.k for axis in _AXES[ident.target]}
        ks = {}
        for name in t_k.values():
            want = getattr(cons, name)
            ks[name] = want if want is not None else rng.choice(_CHOICES)
        while cons.odd_k_sum and sum(ks.values()) % 2 == 0:
            ks = {name: rng.choice(_CHOICES) for name in ks}
        ts = {}
        for name, k in t_k.items():
            if terminating:
                ts[name] = complex(ks[k] * rng.choice(_TERMINATING_UNITS))
            else:
                ts[name] = _off_lattice(rng, 0.05)
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


# grid cells one audit pass plans before it compares: 775 grids of 13 x 13,
# 2 MiB of grids that the pass holds until its last comparison, beside its
# groups' weights, which take no more (a draw's weight is at most one grid
# per grid it reads).  An eighth of a pass also bounds the draws an entry
# holds before it plans a group.  On a 2-core x86-64 host, in process, the
# seed-3 acceptance audit took 0.90, 0.84 and 0.82 s of CPU in passes of
# 512, 775 and 1,024 grids, and 1.03 s in passes of 256, whose entries
# hold at most 32 draws and so split their groups
_PLAN_CELLS = 2 ** 17


def _draw_groups(sampler: ParamSampler, ident: Identity, most: int):
    """The sampler's draws of ident in groups that share r, s and the k
    fields.  At most `most` draws are held: once that many are, the largest
    group is given (the first of the largest); the others follow the last
    draw, in the order of their first draws."""
    groups, held = {}, 0
    for j in range(sampler.draws):
        point = sampler.draw(ident, j)
        p = point.params
        key = (point.r, point.s) + tuple(getattr(p, k) for k in p._KS)
        groups.setdefault(key, []).append(point)
        held += 1
        if held == most:
            group = groups.pop(max(groups, key=lambda k: len(groups[k])))
            held -= len(group)
            yield group
    yield from groups.values()


def audit_catalog(sampler: ParamSampler, M: int = 12, N: int = 12,
                  tolerance: float = 1e-10,
                  identities: Optional[Sequence[Identity]] = None,
                  ) -> AuditSummary:
    """Run every identity at the sampler's draws and summarize the outcomes.

    An identity's draws are judged in draw groups, the draws that share r,
    s and the k fields, whose terms and keys are therefore alike.  The
    groups are taken in catalog order, in passes of at most _PLAN_CELLS
    grid cells (one draw at least), each in three phases:
      plan     draw the points; build both sides of each group once on its
               fields as columns and compile every term once (_plan);
      build    build every grid the pass reads as lanes, the instances of
               one structure in wide batches (series.build_stacks);
      compare  one apply_compiled per term over the group's stack of
               grids, and each draw's residual and scale (_compare).
    Each draw rounds as it does in a group of one, which is what a lone
    verify_identity judges, so every residual is that of verify_identity
    at the same draw, bit for bit.  An identity one of whose groups raises,
    in any phase, is verified draw by draw in its turn, so the error is
    that of its first failing draw.
    """
    _require_tolerance(tolerance)
    if identities is None:
        identities = builtin_catalog()
    if sampler.draws <= 0:
        return AuditSummary((), (), ())
    worst = [0.0] * len(identities)
    passes = [0] * len(identities)
    alone = set()
    # a draw also holds its point and its share of its group's sides and
    # weights whatever the rectangle, so a grid counts as at least 13 x 13
    # cells
    per_pass = max(1, _PLAN_CELLS // max((M + 1) * (N + 1), 13 * 13))
    # an entry holds at most an eighth of a pass in draws before it plans
    # its largest group, so its held draws and a group's columns do not
    # grow with --draws (a catalog draw reads 2 to 9 grids); a group whose
    # grids exceed a pass is planned again in pieces that fit
    most = max(1, per_pass // 8)

    def verify_alone(i: int) -> None:
        ident = identities[i]
        alone.add(i)
        worst[i], passes[i] = 0.0, 0
        for j in range(sampler.draws):
            report = verify_identity(ident, sampler.draw(ident, j), M, N,
                                     tolerance)
            worst[i] = max(worst[i], report.rel_residual)
            passes[i] += int(report.passed)

    def compare(planned: list) -> None:
        stacks = iter(build_stacks(
            [q for _, group in planned if group for q in group.instances],
            M, N))
        for i, group in planned:
            mine = [next(stacks) for _ in group.instances] if group else ()
            if i in alone:
                continue
            try:
                judged = group and _compare(group, mine, M, N)
            except Exception:
                judged = None
            if not judged:
                verify_alone(i)  # raises at the first draw that raises
                continue
            _, _, max_abs, scale = judged
            with np.errstate(over="ignore"):
                rel = max_abs / np.where(1e-300 > scale, 1e-300, scale)
            worst[i] = max([worst[i], *rel.tolist()])
            passes[i] += int(np.count_nonzero(rel <= tolerance))

    def plan():
        """(identity index, planned group) in catalog order; a group of
        None where planning raised, after which the identity plans no
        more."""
        for i, ident in enumerate(identities):
            try:
                for points in _draw_groups(sampler, ident, most):
                    group = _plan(ident, points, M, N)
                    step = max(1, per_pass // len(group.instances))
                    if group.draws <= step:
                        yield i, group
                        continue
                    # its grids exceed a pass: planned again in pieces
                    for lo in range(0, len(points), step):
                        yield i, _plan(ident, points[lo:lo + step], M, N)
            except Exception:
                yield i, None

    planned, grids = [], 0
    for i, group in plan():
        more = group.draws * len(group.instances) if group else 0
        if planned and grids + more > per_pass:
            compare(planned)
            planned, grids = [], 0
        planned.append((i, group))
        grids += more
    compare(planned)

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
