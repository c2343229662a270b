"""Discrete and differential operator calculus for the series engine.

Primitives: forward difference delta_t f = f(t+1) - f(t), backward shift
rho_t f = f(t-1), their combination big_theta_t f = t * (f(t) - f(t-1)),
the Euler operators theta_x = x d/dx and phi_y = y d/dy, parameter shifts,
scalar multiples, and multiplication by x or y.  The scaled primitives
(1/k) big_theta exist separately so that k = 0 callers never build them.

An operator expression applied to a series instance is compiled into a
combination of shifted instances: each parameter-shifted coefficient grid,
moved by the index shifts of mul_x and mul_y, enters once with a weight
array that carries the theta/phi index factors and the t-operator scalars.
Applying the expression is one multiply-add per shifted instance, so every
operator acts exactly (no finite differences).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Tuple

import numpy as np

from .errors import InvalidOperatorError, MarginError
from .series import _grid_coeffs


class OpKind(str, Enum):
    DELTA_T1 = "delta_t1"
    DELTA_T2 = "delta_t2"
    DELTA_T = "delta_t"
    RHO_T1 = "rho_t1"
    RHO_T2 = "rho_t2"
    RHO_T = "rho_t"
    BIG_THETA_T1 = "big_theta_t1"
    BIG_THETA_T2 = "big_theta_t2"
    BIG_THETA_T = "big_theta_t"
    SCALED_BIG_THETA_T1 = "scaled_big_theta_t1"
    SCALED_BIG_THETA_T2 = "scaled_big_theta_t2"
    SCALED_BIG_THETA_T = "scaled_big_theta_t"
    THETA_X = "theta_x"
    PHI_Y = "phi_y"
    SHIFT_PARAM = "shift_param"
    SCALE = "scale"
    MUL_X = "mul_x"
    MUL_Y = "mul_y"


@dataclass(frozen=True)
class PrimitiveOp:
    kind: OpKind
    name: str = ""
    offset: int = 0
    constant: complex = 1.0

    def __post_init__(self):
        if self.kind is OpKind.SHIFT_PARAM:
            if not self.name:
                raise InvalidOperatorError("shift_param needs a field name")
            if not isinstance(self.offset, int):
                raise InvalidOperatorError("shift offsets must be integers")
        if self.kind is OpKind.SCALE:
            c = complex(self.constant)
            if not (np.isfinite(c.real) and np.isfinite(c.imag)):
                raise InvalidOperatorError("scale constants must be finite")
            object.__setattr__(self, "constant", c)


delta_t1 = PrimitiveOp(OpKind.DELTA_T1)
delta_t2 = PrimitiveOp(OpKind.DELTA_T2)
delta_t = PrimitiveOp(OpKind.DELTA_T)
rho_t1 = PrimitiveOp(OpKind.RHO_T1)
rho_t2 = PrimitiveOp(OpKind.RHO_T2)
rho_t = PrimitiveOp(OpKind.RHO_T)
big_theta_t1 = PrimitiveOp(OpKind.BIG_THETA_T1)
big_theta_t2 = PrimitiveOp(OpKind.BIG_THETA_T2)
big_theta_t = PrimitiveOp(OpKind.BIG_THETA_T)
scaled_big_theta_t1 = PrimitiveOp(OpKind.SCALED_BIG_THETA_T1)
scaled_big_theta_t2 = PrimitiveOp(OpKind.SCALED_BIG_THETA_T2)
scaled_big_theta_t = PrimitiveOp(OpKind.SCALED_BIG_THETA_T)
theta_x = PrimitiveOp(OpKind.THETA_X)
phi_y = PrimitiveOp(OpKind.PHI_Y)
mul_x = PrimitiveOp(OpKind.MUL_X)
mul_y = PrimitiveOp(OpKind.MUL_Y)


def shift_param(name: str, offset: int) -> PrimitiveOp:
    return PrimitiveOp(OpKind.SHIFT_PARAM, name=name, offset=offset)


def scale(constant) -> PrimitiveOp:
    return PrimitiveOp(OpKind.SCALE, constant=constant)


@dataclass(frozen=True)
class OperatorExpr:
    """Sum of scalar-weighted ordered products of primitives.

    terms = ((coeff, (op, ...)), ...); factor tuples apply right-to-left,
    so (A, B) means A after B.  No simplification is performed: the
    t-operators do not commute with parameter-dependent coefficients.
    """

    terms: Tuple[Tuple[complex, Tuple[PrimitiveOp, ...]], ...]

    @staticmethod
    def of(*factors: PrimitiveOp, coeff=1.0) -> "OperatorExpr":
        return OperatorExpr(((complex(coeff), tuple(factors)),))

    def __add__(self, other: "OperatorExpr") -> "OperatorExpr":
        return OperatorExpr(self.terms + other.terms)

    def __sub__(self, other: "OperatorExpr") -> "OperatorExpr":
        return self + (-1.0) * other

    def __rmul__(self, c) -> "OperatorExpr":
        return OperatorExpr(tuple((complex(c) * co, fa) for co, fa in self.terms))

    def __matmul__(self, other: "OperatorExpr") -> "OperatorExpr":
        # operator product: right factor acts first
        return OperatorExpr(tuple((ca * cb, fa + fb)
                                  for ca, fa in self.terms
                                  for cb, fb in other.terms))


identity_expr = OperatorExpr.of()


# ---------------------------------------------------------------------------
# compilation to shifted instances
# ---------------------------------------------------------------------------

_T_FIELD = {
    OpKind.DELTA_T1: "t1", OpKind.RHO_T1: "t1", OpKind.BIG_THETA_T1: "t1",
    OpKind.SCALED_BIG_THETA_T1: "t1",
    OpKind.DELTA_T2: "t2", OpKind.RHO_T2: "t2", OpKind.BIG_THETA_T2: "t2",
    OpKind.SCALED_BIG_THETA_T2: "t2",
    OpKind.DELTA_T: "t", OpKind.RHO_T: "t", OpKind.BIG_THETA_T: "t",
    OpKind.SCALED_BIG_THETA_T: "t",
}

_K_FIELD = {
    OpKind.SCALED_BIG_THETA_T1: "k1",
    OpKind.SCALED_BIG_THETA_T2: "k2",
    OpKind.SCALED_BIG_THETA_T: "k",
}

_DELTAS = (OpKind.DELTA_T1, OpKind.DELTA_T2, OpKind.DELTA_T)
_RHOS = (OpKind.RHO_T1, OpKind.RHO_T2, OpKind.RHO_T)
_BIG_THETAS = (OpKind.BIG_THETA_T1, OpKind.BIG_THETA_T2, OpKind.BIG_THETA_T)


class _Instances:
    """The shifted instances met while compiling one expression, numbered
    by value.  Entries are keyed by these numbers: hashing the parameter
    dataclasses on every merge made compilation markedly slower."""

    def __init__(self, p):
        self.params = [p]
        self._number = {p: 0}
        self._shifts = {}

    def shift(self, i: int, name: str, offset) -> int:
        key = (i, name, offset)
        j = self._shifts.get(key)
        if j is None:
            q = self.params[i]
            q = q.replace(**{name: getattr(q, name) + offset})
            j = self._number.setdefault(q, len(self.params))
            if j == len(self.params):
                self.params.append(q)
            self._shifts[key] = j
        return j


def _add(entries: dict, key, w) -> None:
    prev = entries.get(key)
    entries[key] = w if prev is None else prev + w


def _step(op: PrimitiveOp, entries: dict, inst: _Instances, ms, ns) -> dict:
    """Entries after one more factor, the next one inward."""
    out = {}
    kind = op.kind
    for (i, dm, dn), w in entries.items():
        if kind is OpKind.SCALE:
            _add(out, (i, dm, dn), op.constant * w)
        elif kind is OpKind.THETA_X:
            _add(out, (i, dm, dn), w * (ms - dm))
        elif kind is OpKind.PHI_Y:
            _add(out, (i, dm, dn), w * (ns - dn))
        elif kind is OpKind.MUL_X:
            _add(out, (i, dm + 1, dn), w)
        elif kind is OpKind.MUL_Y:
            _add(out, (i, dm, dn + 1), w)
        elif kind is OpKind.SHIFT_PARAM:
            _add(out, (inst.shift(i, op.name, op.offset), dm, dn), w)
        elif kind in _RHOS:
            _add(out, (inst.shift(i, _T_FIELD[kind], -1), dm, dn), w)
        elif kind in _DELTAS:
            _add(out, (inst.shift(i, _T_FIELD[kind], 1), dm, dn), w)
            _add(out, (i, dm, dn), -w)
        elif kind in _BIG_THETAS or kind in _K_FIELD:
            fld = _T_FIELD[kind]
            q = inst.params[i]
            t = getattr(q, fld)
            if kind in _K_FIELD:
                k = int(getattr(q, _K_FIELD[kind]))
                if k < 1:
                    raise InvalidOperatorError(
                        f"{kind.value} is undefined at k = {k}; needs k >= 1")
                t = t / k
            _add(out, (i, dm, dn), t * w)
            _add(out, (inst.shift(i, fld, -1), dm, dn), -t * w)
        else:
            raise InvalidOperatorError(f"unknown primitive kind {kind!r}")
    return out


def compile_expr(e: OperatorExpr, p, M: int, N: int) -> dict:
    """The expression applied to the series instance p, as a combination of
    shifted instances: {(q, dm, dn): weight}, where q are the shifted
    parameters, (dm, dn) the index shift and weight an (M+1, N+1) array in
    output coordinates.  The applied grid is the sum over keys of weight
    times the grid of q moved down by dm rows and right by dn columns.

    Factors are read outermost first.  theta_x and phi_y weigh a cell by the
    index of the function they act on, which is the output index minus the
    mul_x / mul_y shifts met so far; delta and big_theta split an entry into
    two instances with t and k read from the instance they act on.  Equal
    keys are merged, so each distinct shifted grid appears once.
    """
    ms = np.arange(M + 1, dtype=np.complex128)[:, None]
    ns = np.arange(N + 1, dtype=np.complex128)[None, :]
    inst = _Instances(p)
    total = {}
    for coeff, factors in e.terms:
        entries = {(0, 0, 0): coeff}
        for op in factors:
            entries = _step(op, entries, inst, ms, ns)
        for key, w in entries.items():
            _add(total, key, w)
    return {(inst.params[i], dm, dn): np.full((M + 1, N + 1), w,
                                             dtype=np.complex128)
            for (i, dm, dn), w in total.items()}


def require_margin(compiled: dict, M: int, N: int) -> None:
    """MarginError unless the rectangle absorbs every index shift."""
    dm = max((key[1] for key in compiled), default=0)
    dn = max((key[2] for key in compiled), default=0)
    if dm > M or dn > N:
        raise MarginError(f"rectangle ({M}, {N}) cannot absorb index shifts "
                          f"({dm}, {dn})")


def apply_expr_to_params(e: OperatorExpr, p, M: int, N: int) -> np.ndarray:
    """Exact coefficient grid of the expression applied to the series
    instance p, on the rectangle [0..M] x [0..N]."""
    compiled = compile_expr(e, p, M, N)
    require_margin(compiled, M, N)
    return apply_compiled(compiled, M, N)


def apply_compiled(compiled: dict, M: int, N: int) -> np.ndarray:
    """The applied grid of a compile_expr result that passed
    require_margin: one multiply-add per shifted instance, in its order."""
    acc = np.zeros((M + 1, N + 1), dtype=np.complex128)
    for (q, dm, dn), w in compiled.items():
        g = _grid_coeffs(q, M, N)
        acc[dm:, dn:] += w[dm:, dn:] * g[:M + 1 - dm, :N + 1 - dn]
    return acc
