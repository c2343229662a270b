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

Constants and parameters may be numbers or complex128 columns shaped
(D, 1, 1), one entry per draw (`series.param_columns`): an expression is
then compiled once for D instances, its weights broadcast against the
(M+1, N+1) index columns to (D, M+1, N+1), and applied to a stack of D
grids.  numpy's elementwise arithmetic rounds each entry as it rounds
that entry in a column of one.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
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


def _number(c):
    """c as a complex, or as it is if it is a column (an ndarray)."""
    return c if isinstance(c, np.ndarray) else complex(c)


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
            c = _number(self.constant)
            if not (cmath.isfinite(c) if type(c) is complex
                    else np.isfinite(c).all()):
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
        return OperatorExpr(((_number(coeff), tuple(factors)),))

    def __add__(self, other: "OperatorExpr") -> "OperatorExpr":
        return OperatorExpr(self.terms + other.terms)

    def __sub__(self, other: "OperatorExpr") -> "OperatorExpr":
        return self + (-1.0) * other

    def __rmul__(self, c) -> "OperatorExpr":
        return OperatorExpr(tuple((_number(c) * co, fa) for co, fa in self.terms))

    def __matmul__(self, other: "OperatorExpr") -> "OperatorExpr":
        # operator product: right factor acts first
        return OperatorExpr(tuple((ca * cb, fa + fb)
                                  for ca, fa in self.terms
                                  for cb, fb in other.terms))


identity_expr = OperatorExpr.of()


# ---------------------------------------------------------------------------
# compilation to shifted instances
# ---------------------------------------------------------------------------

def _add(entries: dict, key, w) -> None:
    prev = entries.get(key)
    entries[key] = w if prev is None else prev + w


def _step(op: PrimitiveOp, entries: dict, shift, p, ms, ns) -> dict:
    """Entries after one more factor, the next one inward; shift(path, name,
    offset) is the key path of the instance at path from p with that field
    moved by offset."""
    out = {}
    kind = op.kind
    for (path, dm, dn), w in entries.items():
        if kind is OpKind.SCALE:
            _add(out, (path, dm, dn), op.constant * w)
        elif kind is OpKind.THETA_X:
            _add(out, (path, dm, dn), w * (ms - dm))
        elif kind is OpKind.PHI_Y:
            _add(out, (path, dm, dn), w * (ns - dn))
        elif kind is OpKind.MUL_X:
            _add(out, (path, dm + 1, dn), w)
        elif kind is OpKind.MUL_Y:
            _add(out, (path, dm, dn + 1), w)
        elif kind is OpKind.SHIFT_PARAM:
            _add(out, (shift(path, op.name, op.offset), dm, dn), w)
        elif kind is OpKind.DELTA:
            _add(out, (shift(path, op.name, 1), dm, dn), w)
            _add(out, (path, dm, dn), -w)
        elif kind is OpKind.BIG_THETA or kind is OpKind.SCALED_BIG_THETA:
            t = _moved(getattr(p, op.name), op.name, path)
            if kind is OpKind.SCALED_BIG_THETA:
                # k from the field matching t: t1 -> k1, t2 -> k2, t -> k
                kname = "k" + op.name[1:]
                k = int(_moved(getattr(p, kname), kname, path))
                if k < 1:
                    raise InvalidOperatorError(
                        f"{kind.value}_{op.name} is undefined at k = {k}; "
                        "needs k >= 1")
                t = t / k
            _add(out, (path, dm, dn), t * w)
            _add(out, (shift(path, op.name, -1), dm, dn), -t * w)
        else:
            raise InvalidOperatorError(f"unknown primitive kind {kind!r}")
    return out


@lru_cache(maxsize=16)
def _index_columns(M: int, N: int):
    """compile_expr's index column 0..M and row 0..N: complex, read-only."""
    ms = np.arange(M + 1, dtype=np.complex128)[:, None]
    ns = np.arange(N + 1, dtype=np.complex128)[None, :]
    ms.flags.writeable = ns.flags.writeable = False
    return ms, ns


def compile_expr(e: OperatorExpr, p, M: int, N: int) -> dict:
    """The expression applied to the series instance p, as a combination of
    shifted instances: {(path, dm, dn): weight}, where path is the shifted
    instance as the (field, offset) steps that form it from p
    (shifted_instance), (dm, dn) the index shift and weight a scalar,
    column, row or array that broadcasts to (M+1, N+1), in output
    coordinates.  The applied grid is the sum over keys of weight times the
    grid of the instance moved down by dm rows and right by dn columns.

    Factors are read outermost first.  theta_x and phi_y weigh a cell by the
    index of the function they act on, which is the output index minus the
    mul_x / mul_y shifts met so far; delta and big_theta split an entry into
    two instances with t and k read from the instance they act on.  A
    shifted instance with the net offsets of one met before is that one and
    takes its path, so its keys merge and each distinct shifted grid appears
    once.  The keys are thus structural: they depend on the expression and
    on the k fields of p, not on its values, and a p whose fields are
    columns compiles once for all its entries.
    """
    ms, ns = _index_columns(M, N)
    # first: net offsets -> the path of the first instance met with them
    first, shifted = {(): ()}, {}

    def shift(path, name: str, offset):
        r = shifted.get((path, name, offset))
        if r is None:
            moved = path + ((name, offset),)
            r = shifted[path, name, offset] = first.setdefault(_net(moved),
                                                               moved)
        return r

    total = {}
    for coeff, factors in e.terms:
        entries = {((), 0, 0): coeff}
        for op in factors:
            entries = _step(op, entries, shift, p, ms, ns)
        for key, w in entries.items():
            _add(total, key, w)
    return total


def _net(path) -> tuple:
    """The net offset of each field a path moves, by field name, zeros left
    out."""
    net = {}
    for name, offset in path:
        net[name] = net.get(name, 0) + offset
    return tuple(sorted(item for item in net.items() if item[1]))


def _moved(v, name: str, path):
    """The field value v after the steps of path on field name, in order."""
    for f, offset in path:
        if f == name:
            v = v + offset
    return v


def shifted_instance(p, path):
    """The instance a compile_expr key path names: p with each field moved
    by its steps, in order, so each value is formed by the same additions
    whichever order the fields take."""
    if not path:
        return p
    return p.replace(**{name: _moved(getattr(p, name), name, path)
                        for name in dict(path)})


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
    grids = [_grid_coeffs(shifted_instance(p, path), M, N)
             for path, _, _ in compiled]
    return apply_compiled(compiled, grids, M, N)


def apply_compiled(compiled: dict, grids: list, M: int, N: int) -> np.ndarray:
    """The applied grid of a compile_expr result that passed
    require_margin, given the grid of each key's instance on the rectangle,
    in key order: one multiply-add per shifted instance.  For a column
    instance each grid is a stack (D, M+1, N+1), one grid per entry, and so
    is the applied grid."""
    shape = grids[0].shape if grids else (M + 1, N + 1)
    acc = np.zeros(shape, dtype=np.complex128)
    for ((_, dm, dn), w), g in zip(compiled.items(), grids):
        if isinstance(w, np.ndarray):
            # the output window of the weight; a row or column keeps its
            # axis of length one (np.broadcast_to costs 5 us more per call)
            w = w[..., dm * (w.shape[-2] > 1):, dn * (w.shape[-1] > 1):]
        acc[..., dm:, dn:] += w * g[..., :M + 1 - dm, :N + 1 - dn]
    return acc
