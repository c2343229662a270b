"""Discrete and differential operator calculus for the series engine.

Primitives: forward difference delta_t f = f(t+1) - f(t), backward shift
rho_t f = f(t-1), their combination big_theta_t f = t * (f(t) - f(t-1)),
the Euler operators theta_x = x d/dx and phi_y = y d/dy, parameter shifts,
scalar multiples, and multiplication by x or y.  The scaled primitives
(1/k) big_theta exist separately so that k = 0 callers never build them.
Each t-operator names the t field it acts on (delta_t1 acts on t1), and
rho_t is the parameter shift of that field by -1.

An operator expression applied to a series instance is compiled into a
combination of shifted instances: each parameter-shifted coefficient grid,
moved by the index shifts of mul_x and mul_y, enters once with a weight
that carries the theta/phi index factors and the t-operator scalars.
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
    DELTA = "delta"
    BIG_THETA = "big_theta"
    SCALED_BIG_THETA = "scaled_big_theta"
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


def shift_param(name: str, offset: int) -> PrimitiveOp:
    return PrimitiveOp(OpKind.SHIFT_PARAM, name=name, offset=offset)


def scale(constant) -> PrimitiveOp:
    return PrimitiveOp(OpKind.SCALE, constant=constant)


delta_t1 = PrimitiveOp(OpKind.DELTA, "t1")
delta_t2 = PrimitiveOp(OpKind.DELTA, "t2")
delta_t = PrimitiveOp(OpKind.DELTA, "t")
rho_t1 = shift_param("t1", -1)
rho_t2 = shift_param("t2", -1)
rho_t = shift_param("t", -1)
big_theta_t1 = PrimitiveOp(OpKind.BIG_THETA, "t1")
big_theta_t2 = PrimitiveOp(OpKind.BIG_THETA, "t2")
big_theta_t = PrimitiveOp(OpKind.BIG_THETA, "t")
scaled_big_theta_t1 = PrimitiveOp(OpKind.SCALED_BIG_THETA, "t1")
scaled_big_theta_t2 = PrimitiveOp(OpKind.SCALED_BIG_THETA, "t2")
scaled_big_theta_t = PrimitiveOp(OpKind.SCALED_BIG_THETA, "t")
theta_x = PrimitiveOp(OpKind.THETA_X)
phi_y = PrimitiveOp(OpKind.PHI_Y)
mul_x = PrimitiveOp(OpKind.MUL_X)
mul_y = PrimitiveOp(OpKind.MUL_Y)


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
        elif kind is OpKind.DELTA:
            _add(out, (inst.shift(i, op.name, 1), dm, dn), w)
            _add(out, (i, dm, dn), -w)
        elif kind is OpKind.BIG_THETA or kind is OpKind.SCALED_BIG_THETA:
            q = inst.params[i]
            t = getattr(q, op.name)
            if kind is OpKind.SCALED_BIG_THETA:
                # k from the field matching t: t1 -> k1, t2 -> k2, t -> k
                k = int(getattr(q, "k" + op.name[1:]))
                if k < 1:
                    raise InvalidOperatorError(
                        f"{kind.value}_{op.name} is undefined at k = {k}; "
                        "needs k >= 1")
                t = t / k
            _add(out, (i, dm, dn), t * w)
            _add(out, (inst.shift(i, op.name, -1), dm, dn), -t * w)
        else:
            raise InvalidOperatorError(f"unknown primitive kind {kind!r}")
    return out


def compile_expr(e: OperatorExpr, p, M: int, N: int) -> dict:
    """The expression applied to the series instance p, as a combination of
    shifted instances: {(q, dm, dn): weight}, where q are the shifted
    parameters, (dm, dn) the index shift and weight a scalar, column, row
    or array that broadcasts to (M+1, N+1), in output coordinates.  The
    applied grid is the sum over keys of weight times the grid of q moved
    down by dm rows and right by dn columns.

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
    return {(inst.params[i], dm, dn): w for (i, dm, dn), w in total.items()}


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
        if isinstance(w, np.ndarray):
            # the output window of the weight; a row or column keeps its
            # axis of length one (np.broadcast_to costs 5 us more per call)
            w = w[dm * (w.shape[0] > 1):, dn * (w.shape[1] > 1):]
        acc[dm:, dn:] += w * g[:M + 1 - dm, :N + 1 - dn]
    return acc
