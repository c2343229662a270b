"""Gauss-Laguerre quadrature and the integral-representation cross-checks.

The two-axis analogue with equal steps k1 = k2 = k has two integral
representations obtained by trading one coupled rising factorial for a
Gamma integral: with weight e^{-u} on (0, inf),

    F = (1/Gamma(a)) integral e^{-u} u^(a-1) G_b(u) du          (rep_a)
    F = (1/Gamma(b)) integral e^{-u} u^(b-1) G_a(u) du          (rep_b)

where G_p(u) is the Kampe de Feriet function with coupled numerator (p),
axis numerator sequences (-t1 + i)/k and (-t2 + i)/k for i = 0..k-1, empty
coupled denominator, axis denominators c1 and c2, at arguments
(-k)^k u x and (-k)^k u y (plain u x, u y when k = 0, where the sequences
are empty).

For k >= 1 the check is restricted to terminating t (nonnegative integers):
the inner series is then a polynomial in u and the Gauss rule integrates it
exactly.  For non-integer t the inner series diverges as u grows, so the
printed representation is formal and is not checked numerically.

`laguerre_rule` builds each order once per process; the shared rule's node
and weight arrays are read-only.  `integral_rep_check` requests its inner
grid once per check, prepares it once for summation
(`series._prepared_grid`) and chooses its support once (`series._support`)
from its largest node's arguments, which bound every node's: where all
their powers are finite, the grid is cut to the leading anti-diagonals that
hold its nonzero cells.  The checked inner series terminates, so it is a
polynomial, of total degree at most 12 in the benchmark's checks.  Each
node's `integrand_kdf` sums that grid at its own arguments, one point in
1-D arrays.  A cut is exact, since every term past it is a zero times
finite powers and adds +0 to each total; a check whose powers may not all
be finite sums the whole grid at every node and raises as before.  A
node's value is that of `evaluate` bit for bit, without the growth
diagnostics, and equals that of a call that prepares the grid itself.  No
prepared grid outlives its check.  A NaN or infinite x or y is a
ValueError, as in `evaluate`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .catalog import (ParamPoint, RelationReport, VerificationMode,
                      _require_tolerance, point_to_dict)
from .errors import (ConstraintError, OverflowSignalError,
                     QuadratureConvergenceError, RegimeError)
from .kernels import _is_exact_nonpositive_int, gamma
# eval_kdf stays a module name although integrand_kdf sums through
# _sum_points: the perfbench layer tracer wraps it by name
from .series import (EVAL_POLICY, F41Params, KdfParams, TruncationPolicy,
                     _prepared_grid, _require_finite, _sum_points, _support,
                     eval_f41, eval_kdf)

_MAX_ORDER = 256
_MOMENT_SPOTS = (1, 2, 5, 10)


@dataclass(frozen=True)
class LaguerreRule:
    """Nodes and weights for integral of e^(-u) f(u) over (0, inf)."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int

    def __post_init__(self):
        nodes, weights = self.nodes, self.weights
        if len(nodes) != self.order or len(weights) != self.order:
            raise QuadratureConvergenceError("rule arrays do not match order")
        if not (np.all(nodes > 0) and np.all(np.diff(nodes) > 0)):
            raise QuadratureConvergenceError("nodes must be positive and "
                                             "strictly increasing")
        if abs(float(weights.sum()) - 1.0) > 1e-14:
            raise QuadratureConvergenceError("weights must sum to 1 (the "
                                             "total mass of e^(-u))")
        for j in _MOMENT_SPOTS:
            if j > 2 * self.order - 1:
                continue
            moment = float(weights @ nodes ** j)
            if abs(moment - math.factorial(j)) > 1e-12 * math.factorial(j):
                raise QuadratureConvergenceError(
                    f"moment {j} off by more than 1e-12 relative")


def _christoffel_weights(nodes: np.ndarray) -> np.ndarray:
    """w_i = 1 / sum_j p_j(u_i)^2 over the orthonormal Laguerre polynomials.

    This is the same quantity as the squared first eigenvector components of
    the Jacobi matrix, but the recurrence keeps tiny edge weights accurate in
    log scale (dense eigenvectors drown them in roundoff, and the integrand
    checks multiply them by exponentially growing inner values).
    """
    n = len(nodes)
    x = nodes.astype(np.float64)
    p_prev = np.ones_like(x)
    p_cur = x - 1.0
    log_scale = np.zeros_like(x)
    with np.errstate(divide="ignore"):
        log_sum = 2.0 * (np.log(np.abs(p_prev)) + log_scale)
        for j in range(1, n):
            log_sum = np.logaddexp(
                log_sum, 2.0 * (np.log(np.abs(p_cur)) + log_scale))
            if j == n - 1:
                break
            p_next = ((x - (2.0 * j + 1.0)) * p_cur - j * p_prev) / (j + 1.0)
            p_prev, p_cur = p_cur, p_next
            mag = np.maximum(np.abs(p_prev), np.abs(p_cur))
            big = mag > 1e120
            if big.any():
                factor = np.where(big, mag, 1.0)
                p_prev = p_prev / factor
                p_cur = p_cur / factor
                log_scale = log_scale + np.where(big, np.log(factor), 0.0)
    return np.exp(-log_sum)


def _require_order(order) -> None:
    """ValueError (exit 2 in the CLI) for an order that is not an integer in
    [2, 256]."""
    if not isinstance(order, int) or isinstance(order, bool) or \
            not 2 <= order <= _MAX_ORDER:
        raise ValueError(f"order must be an integer in [2, {_MAX_ORDER}], "
                         f"got {order!r}")


def laguerre_rule(order: int) -> LaguerreRule:
    """Golub-Welsch construction from the Laguerre recurrence coefficients.

    An order that is not an integer in [2, 256] is a ValueError (exit 2 in
    the CLI).  Each order is built once per process and shared: its node
    and weight arrays are read-only."""
    # checked before the cache, which would take 64.0 or True for 64 or 1
    _require_order(order)
    return _build_rule(order)


@lru_cache(maxsize=_MAX_ORDER)
def _build_rule(order: int) -> LaguerreRule:
    j = np.arange(order, dtype=np.float64)
    jacobi = np.diag(2.0 * j + 1.0) + np.diag(j[1:], 1) + np.diag(j[1:], -1)
    try:
        nodes = np.linalg.eigvalsh(jacobi)
    except np.linalg.LinAlgError as exc:
        raise QuadratureConvergenceError(
            f"eigen-iteration failed at order {order}: {exc}") from exc
    weights = _christoffel_weights(nodes)
    total = float(weights.sum())
    if abs(total - 1.0) > 1e-12:
        raise QuadratureConvergenceError(
            f"weight mass {total} too far from 1 at order {order}")
    # the exact weights sum to the zeroth moment 1; remove the summation drift
    weights = weights / total
    nodes.flags.writeable = weights.flags.writeable = False
    return LaguerreRule(nodes=nodes, weights=weights, order=order)


class RepKind(str, Enum):
    REP_A = "rep_a"   # Gamma integral taken in a; inner numerator carries b
    REP_B = "rep_b"   # Gamma integral taken in b; inner numerator carries a


@dataclass(frozen=True)
class IntegralRepSpec:
    """Which representation to check, at which equal-step parameters."""

    which: RepKind
    k: int
    params: F41Params

    def __post_init__(self):
        p = self.params
        _require_finite("x", p.x)
        _require_finite("y", p.y)
        object.__setattr__(self, "which", RepKind(self.which))
        if p.k1 != self.k or p.k2 != self.k:
            raise ConstraintError("the representations assume equal steps: "
                                  f"need k1 = k2 = {self.k}, got "
                                  f"({p.k1}, {p.k2})")
        if self.which is RepKind.REP_A and p.a.real <= 0:
            raise ConstraintError("rep_a needs Re(a) > 0 for the Gamma "
                                  "integral to converge")
        if self.which is RepKind.REP_B and p.b.real <= 0:
            raise ConstraintError("rep_b needs Re(b) > 0 for the Gamma "
                                  "integral to converge")


def _require_terminating(spec: IntegralRepSpec) -> None:
    """RegimeError unless t1 and t2 are exactly nonnegative integers."""
    p = spec.params
    for name in ("t1", "t2"):
        t = getattr(p, name)
        if not _is_exact_nonpositive_int(-t):
            raise RegimeError(
                f"k = {spec.k} >= 1 needs nonnegative integer {name} (the "
                f"inner series must terminate), got {t}")


def _inner_kdf(spec: IntegralRepSpec) -> KdfParams:
    """The inner Kampe de Feriet parameters, at x = y = 0."""
    p = spec.params
    coupled = p.b if spec.which is RepKind.REP_A else p.a
    if spec.k >= 1:
        _require_terminating(spec)
        B = tuple((-p.t1 + i) / spec.k for i in range(spec.k))
        C = tuple((-p.t2 + i) / spec.k for i in range(spec.k))
    else:
        B = C = ()
    return KdfParams(A=(coupled,), B=B, C=C, D=(), E=(p.c1,), F=(p.c2,))


def integrand_kdf(spec: IntegralRepSpec, u: float,
                  pol: TruncationPolicy = EVAL_POLICY, *,
                  _prepared=None) -> complex:
    """Inner Kampe de Feriet value at integration variable u, whose
    arguments are (-k)^k u x and (-k)^k u y (u x and u y at k = 0).

    _prepared is the inner grid as integral_rep_check prepares it once for
    all its nodes, with the support it chose (series._support): a cut grid
    serves only points within the reach it was cut for.  Without it the
    whole grid is requested and prepared here, and the value is the same,
    bit for bit."""
    if _prepared is None:
        _prepared = _prepared_grid(_inner_kdf(spec), pol)
    p = spec.params
    arg = (-spec.k) ** spec.k * u
    return _sum_points(_prepared, arg * p.x, arg * p.y, False)[0]


def integral_rep_check(spec: IntegralRepSpec, rule: LaguerreRule,
                       pol: TruncationPolicy = EVAL_POLICY,
                       tolerance: float = 1e-8) -> RelationReport:
    """Quadrature value of the representation against the direct series.

    A bad tolerance is a ValueError before anything is summed, and wins
    over a non-terminating t, as in the CLI."""
    _require_tolerance(tolerance)
    p = spec.params
    if spec.k >= 1:
        _require_terminating(spec)
        # inner polynomial degree in u, then the u^(a-1) Gamma-piece on top
        degree = int(p.t1.real) // spec.k + int(p.t2.real) // spec.k
        if rule.order < degree // 2 + 1:
            raise ConstraintError(
                f"order {rule.order} cannot integrate the degree-{degree} "
                "terminating integrand exactly")
    exponent = p.a if spec.which is RepKind.REP_A else p.b
    # the nodes increase, so the last one's arguments bound every node's
    reach = (-spec.k) ** spec.k * float(rule.nodes[-1])
    inner = _support(_prepared_grid(_inner_kdf(spec), pol), reach * p.x,
                     reach * p.y)
    contribs = np.empty(rule.order, dtype=np.complex128)
    for i, (u, w) in enumerate(zip(rule.nodes.tolist(),
                                   rule.weights.tolist())):
        try:
            power = cmath.exp((exponent - 1.0) * math.log(u))
        except OverflowError:
            raise OverflowSignalError(f"u^{exponent - 1} exceeds the double "
                                      f"range at node u = {u}") from None
        value = integrand_kdf(spec, u, pol, _prepared=inner)
        contribs[i] = w * power * value
    quad = complex(contribs.sum() / gamma(exponent))
    direct = eval_f41(p, pol).value

    scale = max(abs(quad), abs(direct), float(np.abs(contribs).max()))
    return RelationReport.judged(
        f"F41.intrep.{spec.which.value}",
        {**point_to_dict(ParamPoint(p)), "order": rule.order,
         "quadrature_value": [quad.real, quad.imag],
         "series_value": [direct.real, direct.imag]},
        VerificationMode.INTEGRAL, abs(quad - direct), scale, rule.order,
        tolerance)
