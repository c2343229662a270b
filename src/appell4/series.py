"""Double power-series engine for the two discrete F4 analogues.

The first analogue carries separate discrete parameters per variable: its
(m, n) coefficient is

    (a)_{m+n} (b)_{m+n} (-1)^{m k1} (-t1)_{m k1} (-1)^{n k2} (-t2)_{n k2}
    -----------------------------------------------------------------------
                      (c1)_m (c2)_n m! n!

The second analogue couples them through a single pair (t, k), replacing the
two t-factors by (-1)^{(m+n) k} (-t)_{(m+n) k}.  Both reduce to classical F4
at k = 0.  Coefficients factor as W[m+n] * U[m] * V[n]; grids are built from
ratio recurrences on the three 1-D arrays with periodic from-scratch anchors
as drift control.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Union

import numpy as np

from .errors import OverflowSignalError, PoleError, UnsupportedKError
from .kernels import factorial, log_pochhammer, pochhammer


class ConvergenceRegionWarning(UserWarning):
    """Evaluation requested outside the guaranteed convergence region."""


def _as_complex(v) -> complex:
    return complex(v)


def _require_off_pole(name: str, c: complex) -> None:
    if c.imag == 0.0 and c.real <= 0.0 and c.real == math.floor(c.real):
        raise PoleError(f"{name} = {c} is a nonpositive integer (pole lattice)")


def _require_k(name: str, k) -> int:
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {k!r}")
    return int(k)


@dataclass(frozen=True)
class F41Params:
    """Parameters of the first discrete analogue (separate t1/k1 and t2/k2)."""

    a: complex
    b: complex
    c1: complex
    c2: complex
    t1: complex
    t2: complex
    k1: int
    k2: int
    x: complex
    y: complex

    def __post_init__(self):
        for name in ("a", "b", "c1", "c2", "t1", "t2", "x", "y"):
            object.__setattr__(self, name, _as_complex(getattr(self, name)))
        object.__setattr__(self, "k1", _require_k("k1", self.k1))
        object.__setattr__(self, "k2", _require_k("k2", self.k2))
        _require_off_pole("c1", self.c1)
        _require_off_pole("c2", self.c2)

    def replace(self, **kw) -> "F41Params":
        vals = {f: getattr(self, f) for f in
                ("a", "b", "c1", "c2", "t1", "t2", "k1", "k2", "x", "y")}
        vals.update(kw)
        return F41Params(**vals)


@dataclass(frozen=True)
class F42Params:
    """Parameters of the second discrete analogue (single coupled t/k)."""

    a: complex
    b: complex
    c1: complex
    c2: complex
    t: complex
    k: int
    x: complex
    y: complex

    def __post_init__(self):
        for name in ("a", "b", "c1", "c2", "t", "x", "y"):
            object.__setattr__(self, name, _as_complex(getattr(self, name)))
        object.__setattr__(self, "k", _require_k("k", self.k))
        _require_off_pole("c1", self.c1)
        _require_off_pole("c2", self.c2)

    def replace(self, **kw) -> "F42Params":
        vals = {f: getattr(self, f) for f in
                ("a", "b", "c1", "c2", "t", "k", "x", "y")}
        vals.update(kw)
        return F42Params(**vals)


@dataclass(frozen=True)
class KdfParams:
    """Kampe de Feriet parameters: sequences A..F and arguments (x, y).

    A and D couple the two summation indices ((.)_{m+n}); B and E weight the
    first index, C and F the second.  D, E, F entries must avoid the
    nonpositive integers.
    """

    A: tuple = ()
    B: tuple = ()
    C: tuple = ()
    D: tuple = ()
    E: tuple = ()
    F: tuple = ()
    x: complex = 0.0
    y: complex = 0.0

    def __post_init__(self):
        for name in ("A", "B", "C", "D", "E", "F"):
            seq = tuple(_as_complex(v) for v in getattr(self, name))
            object.__setattr__(self, name, seq)
        object.__setattr__(self, "x", _as_complex(self.x))
        object.__setattr__(self, "y", _as_complex(self.y))
        for name in ("D", "E", "F"):
            for v in getattr(self, name):
                _require_off_pole(f"{name} entry", v)


SeriesParams = Union[F41Params, F42Params, KdfParams]


class TruncationMode(str, Enum):
    """How much of the truncation rectangle is summed.

    FIXED_RECTANGLE sums every anti-diagonal.  ADAPTIVE stops after three
    consecutive anti-diagonals whose absolute block sum falls below
    tail_tol times the partial sum; it still builds the full rectangle and
    computes every block sum, and only shortens the sum.
    """

    FIXED_RECTANGLE = "fixed_rectangle"
    ADAPTIVE = "adaptive"


@dataclass(frozen=True)
class TruncationPolicy:
    """Truncation rectangle [0..max_m] x [0..max_n] and stopping mode."""

    max_m: int = 40
    max_n: int = 40
    tail_tol: float = 1e-12
    mode: TruncationMode = TruncationMode.FIXED_RECTANGLE

    def __post_init__(self):
        object.__setattr__(self, "mode", TruncationMode(self.mode))
        if self.max_m < 0 or self.max_n < 0:
            raise ValueError("truncation bounds must be nonnegative")


EVAL_POLICY = TruncationPolicy(max_m=40, max_n=40)


@dataclass(frozen=True)
class GridProvenance:
    """Descriptor of the parameters a grid was generated from."""

    kind: str
    params: object
    max_m: int
    max_n: int


@dataclass
class CoefficientGrid:
    """Term coefficients A[m, n] (x^m y^n factors removed) on a rectangle."""

    coeffs: np.ndarray
    provenance: GridProvenance

    @property
    def max_m(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def max_n(self) -> int:
        return self.coeffs.shape[1] - 1


@dataclass(frozen=True)
class EvaluationResult:
    value: complex
    terms_used: int
    tail_estimate: float
    divergence_flag: bool
    max_term_ratio: float


@dataclass(frozen=True)
class DivergenceReport:
    """Empirical growth diagnostics along anti-diagonals.

    block_ratios[d-1] is the ratio of absolute term-block sums on diagonals
    d and d-1; directional_max_ratios[d] is the largest single-cell
    directional term ratio on diagonal d.  Flags are derived from the block
    sequence (single corner cells of a convergent double series can show
    large directional ratios without threatening the sum).
    """

    block_ratios: tuple
    directional_max_ratios: tuple
    divergence_flag: bool
    monotone_growth: bool


def _sign_pow(e: int) -> float:
    return -1.0 if e % 2 else 1.0


# ---------------------------------------------------------------------------
# scratch (direct Pochhammer) term coefficients: the drift-control oracle
# ---------------------------------------------------------------------------

def scratch_coefficient_f41(p: F41Params, m: int, n: int) -> complex:
    num = (pochhammer(p.a, m + n) * pochhammer(p.b, m + n)
           * _sign_pow(m * p.k1) * pochhammer(-p.t1, m * p.k1)
           * _sign_pow(n * p.k2) * pochhammer(-p.t2, n * p.k2))
    return (num / pochhammer(p.c1, m) / pochhammer(p.c2, n) / factorial(m)
            / factorial(n))


def scratch_coefficient_f42(p: F42Params, m: int, n: int) -> complex:
    num = (pochhammer(p.a, m + n) * pochhammer(p.b, m + n)
           * _sign_pow((m + n) * p.k) * pochhammer(-p.t, (m + n) * p.k))
    return (num / pochhammer(p.c1, m) / pochhammer(p.c2, n) / factorial(m)
            / factorial(n))


def scratch_coefficient_kdf(p: KdfParams, m: int, n: int) -> complex:
    acc = 1.0 + 0.0j
    for v in p.A:
        acc *= pochhammer(v, m + n)
    for v in p.B:
        acc *= pochhammer(v, m)
    for v in p.C:
        acc *= pochhammer(v, n)
    for v in p.D:
        acc /= pochhammer(v, m + n)
    for v in p.E:
        acc /= pochhammer(v, m)
    for v in p.F:
        acc /= pochhammer(v, n)
    return acc / (factorial(m) * factorial(n))


# ---------------------------------------------------------------------------
# separable 1-D factor arrays with ratio recurrences and scratch anchors
# ---------------------------------------------------------------------------

# distance between from-scratch anchors in each 1-D factor array; one anchor
# per 4 entries of W, U and V bounds recurrence drift on roughly every 16th
# grid cell of the separable product
_ANCHOR_STRIDE = 4


@dataclass(frozen=True)
class _ChainSpec:
    """One separable factor array: value and log-space generators."""

    length: int
    ratio_at: object     # i -> arr[i+1] / arr[i]
    scratch_at: object   # i -> arr[i] by direct Pochhammer products
    log_scratch_at: object  # i -> (log arr[i], is_zero)


def _segments(length: int):
    for start in range(0, length + 1, _ANCHOR_STRIDE):
        stop = min(start + _ANCHOR_STRIDE - 1, length)
        yield start, stop


def _chain_linear(spec: _ChainSpec) -> np.ndarray:
    """arr[i+1] = arr[i] * ratio_at(i), re-anchored from scratch every
    _ANCHOR_STRIDE entries; may contain inf/nan at extreme scales."""
    arr = np.empty(spec.length + 1, dtype=np.complex128)
    for start, stop in _segments(spec.length):
        arr[start] = spec.scratch_at(start)
        for i in range(start, stop):
            arr[i + 1] = arr[i] * spec.ratio_at(i)
    return arr


def _chain_log(spec: _ChainSpec):
    """Log-space variant for scales beyond the double range; returns
    (logs, zero_mask)."""
    logs = np.zeros(spec.length + 1, dtype=np.complex128)
    zero = np.zeros(spec.length + 1, dtype=bool)
    for start, stop in _segments(spec.length):
        lg, is_zero = spec.log_scratch_at(start)
        logs[start], zero[start] = lg, is_zero
        for i in range(start, stop):
            if zero[i]:
                zero[i + 1] = True
                continue
            r = spec.ratio_at(i)
            if r == 0:
                zero[i + 1] = True
            else:
                logs[i + 1] = logs[i] + cmath.log(r)
    return logs, zero


def _t_factor_ratio(t: complex, k: int, i: int) -> complex:
    """Ratio ((-1)^{(i+1)k} (-t)_{(i+1)k}) / ((-1)^{ik} (-t)_{ik})."""
    acc = _sign_pow(k)
    for j in range(k):
        acc *= -t + i * k + j
    return acc


_IPI = 1j * math.pi


def _log_t_factor(t: complex, k: int, i: int):
    """(log, is_zero) of (-1)^{ik} (-t)_{ik}."""
    lp = log_pochhammer(-t, i * k)
    return lp.log + _IPI * ((i * k) % 2), lp.is_zero


def _f41_specs(p: F41Params, M: int, N: int):
    def w_ratio(l):
        return (p.a + l) * (p.b + l)

    def w_scratch(l):
        return pochhammer(p.a, l) * pochhammer(p.b, l)

    def w_log(l):
        la, lb = log_pochhammer(p.a, l), log_pochhammer(p.b, l)
        return la.log + lb.log, la.is_zero or lb.is_zero

    def u_like(t, k, c):
        def ratio(m):
            return _t_factor_ratio(t, k, m) / ((c + m) * (m + 1))

        def scratch(m):
            return (_sign_pow(m * k) * pochhammer(-t, m * k)
                    / (pochhammer(c, m) * factorial(m)))

        def log_scratch(m):
            lt, is_zero = _log_t_factor(t, k, m)
            return (lt - log_pochhammer(c, m).log
                    - log_pochhammer(1.0, m).log, is_zero)

        return ratio, scratch, log_scratch

    return (_ChainSpec(M + N, w_ratio, w_scratch, w_log),
            _ChainSpec(M, *u_like(p.t1, p.k1, p.c1)),
            _ChainSpec(N, *u_like(p.t2, p.k2, p.c2)))


def _f42_specs(p: F42Params, M: int, N: int):
    def w_ratio(l):
        return (p.a + l) * (p.b + l) * _t_factor_ratio(p.t, p.k, l)

    def w_scratch(l):
        return (pochhammer(p.a, l) * pochhammer(p.b, l)
                * _sign_pow(l * p.k) * pochhammer(-p.t, l * p.k))

    def w_log(l):
        la, lb = log_pochhammer(p.a, l), log_pochhammer(p.b, l)
        lt, t_zero = _log_t_factor(p.t, p.k, l)
        return la.log + lb.log + lt, la.is_zero or lb.is_zero or t_zero

    def u_like(c):
        def ratio(m):
            return 1.0 / ((c + m) * (m + 1))

        def scratch(m):
            return 1.0 / (pochhammer(c, m) * factorial(m))

        def log_scratch(m):
            return -log_pochhammer(c, m).log - log_pochhammer(1.0, m).log, False

        return ratio, scratch, log_scratch

    return (_ChainSpec(M + N, w_ratio, w_scratch, w_log),
            _ChainSpec(M, *u_like(p.c1)),
            _ChainSpec(N, *u_like(p.c2)))


def _kdf_specs(p: KdfParams, M: int, N: int):
    def seq_spec(length, num_seq, den_seq, index_factorial):
        def ratio(i):
            acc = 1.0 + 0.0j
            for v in num_seq:
                acc *= v + i
            for v in den_seq:
                acc /= v + i
            if index_factorial:
                acc /= i + 1
            return acc

        def scratch(i):
            acc = 1.0 + 0.0j
            for v in num_seq:
                acc *= pochhammer(v, i)
            for v in den_seq:
                acc /= pochhammer(v, i)
            if index_factorial:
                acc /= factorial(i)
            return acc

        def log_scratch(i):
            acc = 0.0 + 0.0j
            is_zero = False
            for v in num_seq:
                lp = log_pochhammer(v, i)
                acc += lp.log
                is_zero = is_zero or lp.is_zero
            for v in den_seq:
                acc -= log_pochhammer(v, i).log
            if index_factorial:
                acc -= log_pochhammer(1.0, i).log
            return acc, is_zero

        return _ChainSpec(length, ratio, scratch, log_scratch)

    return (seq_spec(M + N, p.A, p.D, False),
            seq_spec(M, p.B, p.E, True),
            seq_spec(N, p.C, p.F, True))


_KIND = {F41Params: "F41", F42Params: "F42", KdfParams: "KdF"}
_SPECS = {F41Params: _f41_specs, F42Params: _f42_specs, KdfParams: _kdf_specs}


@lru_cache(maxsize=4096)
def _grid_coeffs(p: SeriesParams, M: int, N: int) -> np.ndarray:
    try:
        specs = _SPECS[type(p)]
    except KeyError:
        raise TypeError(f"unsupported parameter type {type(p)!r}") from None
    wspec, uspec, vspec = specs(p, M, N)
    idx = np.arange(M + 1)[:, None] + np.arange(N + 1)[None, :]

    # linear assembly first; its intermediates can overflow even when the
    # final coefficients are representable, so fall back to log space then
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            W = _chain_linear(wspec)
            U = _chain_linear(uspec)
            V = _chain_linear(vspec)
            coeffs = W[idx] * U[:, None] * V[None, :]
        ok = bool(np.isfinite(coeffs).all())
    except OverflowSignalError:
        ok = False
    if not ok:
        Wl, Wz = _chain_log(wspec)
        Ul, Uz = _chain_log(uspec)
        Vl, Vz = _chain_log(vspec)
        logs = Wl[idx] + Ul[:, None] + Vl[None, :]
        zero = Wz[idx] | Uz[:, None] | Vz[None, :]
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = np.exp(logs)
        coeffs[zero] = 0.0
        if not np.isfinite(coeffs).all():
            raise OverflowSignalError(
                "coefficient grid exceeds the floating range")
    coeffs.flags.writeable = False
    return coeffs


def coefficient_grid(p: SeriesParams, M: int, N: int) -> CoefficientGrid:
    """Grid of term coefficients A[m, n], 0 <= m <= M, 0 <= n <= N."""
    if M < 0 or N < 0:
        raise ValueError("grid bounds must be nonnegative")
    coeffs = _grid_coeffs(p, M, N)
    return CoefficientGrid(coeffs, GridProvenance(_KIND[type(p)], p, M, N))


# ---------------------------------------------------------------------------
# evaluation with anti-diagonal block diagnostics
# ---------------------------------------------------------------------------

# numpy sums a run of n reals pairwise (Higham, Accuracy and Stability of
# Numerical Algorithms, sec. 4.2): below 8 reals one by one from zero; up to
# 128 in 8 interleaved accumulators seeded with the first block, folded as a
# tree, then the leftover reals one by one; above 128 as the sum of the two
# halves split at n/2 rounded down to a multiple of 8.  The plans below replay
# that order for every anti-diagonal at once, so each block sum is bit for bit
# the np.trace of its diagonal and reports do not move in the last digit.
_PW_UNROLL = 8
_PW_BLOCKSIZE = 128


class _PairwiseRows:
    """Sums of ragged rows in numpy's pairwise order.

    `rows` holds one array of flat source indices per row; `unit` is the
    number of reals per entry (2 for complex).  Calling the plan on a flat
    source array whose last entry is zero returns the row sums.  Zero
    padding is exact: x + 0 == x, and the final + 0.0 gives an all-zero row
    numpy's +0 sign.
    """

    def __init__(self, rows, unit: int, zero: int):
        width = _PW_UNROLL // unit          # entries per block
        leaves, joins = [], []              # joins: (left, right, height)

        def node(idx):
            """(reference, height); leaves are numbered 0, 1, ..., joins
            -1, -2, ..."""
            n = len(idx) * unit
            if n <= _PW_BLOCKSIZE:
                leaves.append(idx)
                return len(leaves) - 1, 0
            half = n // 2 - n // 2 % _PW_UNROLL
            (left, hl), (right, hr) = (node(idx[:half // unit]),
                                       node(idx[half // unit:]))
            joins.append((left, right, 1 + max(hl, hr)))
            return -len(joins), joins[-1][2]

        roots = [node(np.asarray(idx, dtype=np.intp))[0] for idx in rows]
        nblocks = max([len(idx) // width for idx in leaves
                       if len(idx) >= width] + [1])
        self.blocks = np.full((len(leaves), nblocks, width), zero, np.intp)
        self.rest = np.full((len(leaves), width - 1), zero, np.intp)
        for i, idx in enumerate(leaves):
            # a run shorter than one block is all rest, summed from zero
            cut = len(idx) - len(idx) % width if len(idx) >= width else 0
            self.blocks[i].flat[:cut] = idx[:cut]
            self.rest[i, :len(idx) - cut] = idx[cut:]

        def number(ref: int) -> int:
            return ref if ref >= 0 else len(leaves) - 1 - ref

        self.levels = []
        for h in sorted({j[2] for j in joins}):
            level = [(number(-1 - i), number(left), number(right))
                     for i, (left, right, height) in enumerate(joins)
                     if height == h]
            self.levels.append(tuple(np.array(v, dtype=np.intp)
                                     for v in zip(*level)))
        self.nodes = len(leaves) + len(joins)
        self.roots = np.array([number(r) for r in roots], dtype=np.intp)

    def __call__(self, src: np.ndarray) -> np.ndarray:
        blocks = src[self.blocks]
        acc = blocks[:, 0].copy()
        for j in range(1, blocks.shape[1]):
            acc += blocks[:, j]
        while acc.shape[1] > 1:
            acc = acc[:, 0::2] + acc[:, 1::2]
        leaf = acc[:, 0]
        rest = src[self.rest]
        for j in range(rest.shape[1]):
            leaf += rest[:, j]
        sums = np.empty(self.nodes, dtype=src.dtype)
        sums[:len(leaf)] = leaf
        for out, left, right in self.levels:
            sums[out] = sums[left] + sums[right]
        return sums[self.roots] + 0.0


@dataclass(frozen=True)
class _DiagonalPlan:
    """Anti-diagonal layout of an (M+1) x (N+1) grid, read through
    np.fliplr: flat index m (N+1) + N - n of term (m, n), the zero appended
    at flat index (M+1)(N+1).  Row d of `gather` is diagonal d in
    np.diagonal order (m increasing), padded with that zero."""

    gather: np.ndarray
    complex_sums: _PairwiseRows
    real_sums: _PairwiseRows


@lru_cache(maxsize=16)
def _diagonal_plan(M: int, N: int) -> _DiagonalPlan:
    zero = (M + 1) * (N + 1)
    rows = []
    for d in range(M + N + 1):
        ms = np.arange(max(0, d - N), min(d, M) + 1)
        rows.append(ms * (N + 1) + N - (d - ms))
    gather = np.full((len(rows), min(M, N) + 1), zero, np.intp)
    for d, idx in enumerate(rows):
        gather[d, :len(idx)] = idx
    return _DiagonalPlan(gather, _PairwiseRows(rows, 2, zero),
                         _PairwiseRows(rows, 1, zero))


def _with_zero(a: np.ndarray) -> np.ndarray:
    """Flat copy of a (any strides, C order) with a zero appended."""
    out = np.zeros(a.size + 1, dtype=a.dtype)
    out[:-1].reshape(a.shape)[...] = a
    return out


def _diagonal_stats(terms: np.ndarray):
    """Per anti-diagonal d = m + n: the sum of terms, the sum of their
    absolute values and the count of nonzero terms, as arrays, with the
    rounding of np.trace on the diagonals of np.fliplr(terms)."""
    plan = _diagonal_plan(terms.shape[0] - 1, terms.shape[1] - 1)
    flipped = np.fliplr(terms)
    # np.abs rounds differently on contiguous and on strided complex input
    # in the last bit; the flipped view is what the block sums always read
    abs_src = _with_zero(np.abs(flipped))
    return (plan.complex_sums(_with_zero(flipped)), plan.real_sums(abs_src),
            np.count_nonzero(abs_src[plan.gather], axis=1))


def _final_quartile(seq):
    if not seq:
        return []
    return list(seq[-max(1, math.ceil(len(seq) / 4)):])


def _block_ratios(abs_blocks):
    ratios = []
    for prev, cur in zip(abs_blocks, abs_blocks[1:]):
        if prev == 0.0:
            ratios.append(0.0 if cur == 0.0 else math.inf)
        else:
            ratios.append(cur / prev)
    return ratios


def _sum_terms(coeffs: np.ndarray, x: complex, y: complex,
               pol: TruncationPolicy) -> EvaluationResult:
    M = coeffs.shape[0] - 1
    N = coeffs.shape[1] - 1
    xp = np.power(complex(x), np.arange(M + 1), dtype=np.complex128)
    yp = np.power(complex(y), np.arange(N + 1), dtype=np.complex128)
    terms = coeffs * xp[:, None] * yp[None, :]

    # anti-diagonal block sums in increasing total degree
    block_sums, abs_blocks, nonzero_counts = _diagonal_stats(terms)
    abs_blocks = abs_blocks.tolist()
    nonzero_counts = nonzero_counts.tolist()

    total = 0.0 + 0.0j
    terms_used = 0
    last_d = M + N
    if pol.mode is TruncationMode.ADAPTIVE:
        quiet = 0
        for d in range(M + N + 1):
            total += block_sums[d]
            terms_used += nonzero_counts[d]
            if d > 0 and abs_blocks[d] < pol.tail_tol * max(abs(total), 1e-300):
                quiet += 1
            else:
                quiet = 0
            if quiet >= 3:
                last_d = d
                break
    else:
        total = sum(block_sums)
        terms_used = sum(nonzero_counts)

    if not (np.isfinite(total.real) and np.isfinite(total.imag)):
        raise OverflowSignalError("partial sum exceeds the floating range")

    # growth statistics only over complete anti-diagonals: past d = min(M, N)
    # the rectangle clips diagonals, which would fake decaying block sums
    included_abs = abs_blocks[:min(last_d, M, N) + 1]
    ratios = _block_ratios(included_abs)
    tail_q = _final_quartile(ratios)
    divergence_flag = bool(tail_q) and all(r > 1.0 for r in tail_q)
    max_term_ratio = max(ratios, default=0.0)

    if included_abs[-1] == 0.0:
        tail_estimate = 0.0
    elif ratios and ratios[-1] < 1.0:
        rho = ratios[-1]
        tail_estimate = included_abs[-1] * rho / (1.0 - rho)
    else:
        tail_estimate = math.inf

    return EvaluationResult(value=complex(total), terms_used=terms_used,
                            tail_estimate=float(tail_estimate),
                            divergence_flag=divergence_flag,
                            max_term_ratio=float(max_term_ratio))


def _without_args(p: SeriesParams) -> SeriesParams:
    """p with x = y = 0: the grid cache key, since coefficients do not
    depend on the arguments."""
    return dataclasses.replace(p, x=0j, y=0j)


def evaluate(p: SeriesParams,
             pol: TruncationPolicy = EVAL_POLICY) -> EvaluationResult:
    """Truncated sum of either analogue or a Kampe de Feriet series, with
    growth diagnostics."""
    coeffs = _grid_coeffs(_without_args(p), pol.max_m, pol.max_n)
    return _sum_terms(coeffs, p.x, p.y, pol)


# the documented per-function names of the one evaluator
eval_f41 = eval_f42 = eval_kdf = evaluate


def eval_f4_classic(a, b, c1, c2, x, y,
                    pol: TruncationPolicy = EVAL_POLICY) -> EvaluationResult:
    """Truncated classical F4 (k = 0 specialization of either analogue)."""
    inside, margin = convergence_region(x, y)
    if not inside:
        warnings.warn(
            f"sqrt|x| + sqrt|y| >= 1 (margin {margin:.3g}): no convergence "
            "guarantee; returning the flagged partial sum",
            ConvergenceRegionWarning, stacklevel=2)
    p = F41Params(a=a, b=b, c1=c1, c2=c2, t1=0.0, t2=0.0, k1=0, k2=0, x=x, y=y)
    return evaluate(p, pol)


# ---------------------------------------------------------------------------
# reductions to Kampe de Feriet form (k, k1, k2 restricted to {0, 1})
# ---------------------------------------------------------------------------

def reduce_to_kdf(p: Union[F41Params, F42Params]):
    """KdfParams (arguments already sign-transformed) plus the sign pair.

    Returns (kdf_params, (sx, sy)) with kdf_params.x = sx * p.x and
    kdf_params.y = sy * p.y.
    """
    if isinstance(p, F41Params):
        if p.k1 not in (0, 1) or p.k2 not in (0, 1):
            raise UnsupportedKError(f"reduction needs k1, k2 in {{0, 1}}, "
                                    f"got ({p.k1}, {p.k2})")
        B = (-p.t1,) if p.k1 == 1 else ()
        C = (-p.t2,) if p.k2 == 1 else ()
        sx = -1 if p.k1 == 1 else 1
        sy = -1 if p.k2 == 1 else 1
        kdf = KdfParams(A=(p.a, p.b), B=B, C=C, D=(), E=(p.c1,), F=(p.c2,),
                        x=sx * p.x, y=sy * p.y)
        return kdf, (sx, sy)
    if isinstance(p, F42Params):
        if p.k not in (0, 1):
            raise UnsupportedKError(f"reduction needs k in {{0, 1}}, got {p.k}")
        if p.k == 0:
            kdf = KdfParams(A=(p.a, p.b), E=(p.c1,), F=(p.c2,), x=p.x, y=p.y)
            return kdf, (1, 1)
        # coefficient (-1)^{m+n} (-t)_{m+n} forces the (-x, -y) transform
        kdf = KdfParams(A=(p.a, p.b, -p.t), E=(p.c1,), F=(p.c2,),
                        x=-p.x, y=-p.y)
        return kdf, (-1, -1)
    raise TypeError(f"unsupported parameter type {type(p)!r}")


# ---------------------------------------------------------------------------
# convergence region and growth diagnostics
# ---------------------------------------------------------------------------

def convergence_region(x, y):
    """(inside, margin) for the classical region sqrt|x| + sqrt|y| < 1."""
    margin = 1.0 - math.sqrt(abs(complex(x))) - math.sqrt(abs(complex(y)))
    return margin > 0.0, margin


def divergence_diagnostic(p: Union[F41Params, F42Params], M: int) -> DivergenceReport:
    """Anti-diagonal growth report on the square rectangle [0..M]^2."""
    if M < 8:
        raise ValueError("divergence diagnostic needs M >= 8")
    coeffs = _grid_coeffs(_without_args(p), M, M)
    xp = np.power(complex(p.x), np.arange(M + 1), dtype=np.complex128)
    yp = np.power(complex(p.y), np.arange(M + 1), dtype=np.complex128)
    terms = coeffs * xp[:, None] * yp[None, :]
    abs_coeffs = np.abs(coeffs)
    plan = _diagonal_plan(M, M)
    abs_blocks = plan.real_sums(_with_zero(np.fliplr(np.abs(terms)))).tolist()

    # largest term ratio one step along m or n, over cells with a nonzero
    # coefficient; fmax drops the NaN of an overflowed ratio times a zero
    # argument, as the scalar max over cells did
    with np.errstate(over="ignore", invalid="ignore"):
        down = np.divide(abs_coeffs[1:, :], abs_coeffs[:-1, :],
                         out=np.zeros((M, M + 1)),
                         where=abs_coeffs[:-1, :] != 0.0) * abs(p.x)
        right = np.divide(abs_coeffs[:, 1:], abs_coeffs[:, :-1],
                          out=np.zeros((M + 1, M)),
                          where=abs_coeffs[:, :-1] != 0.0) * abs(p.y)
    best = np.zeros((M + 1, M + 1))
    np.fmax(best[:-1, :], down, out=best[:-1, :])
    np.fmax(best[:, :-1], right, out=best[:, :-1])
    directional = _with_zero(np.fliplr(best))[plan.gather].max(axis=1)

    # ratios over complete anti-diagonals only (d <= M on the square)
    ratios = _block_ratios(abs_blocks[:M + 1])
    tail = _final_quartile(ratios)
    divergence_flag = bool(tail) and all(r > 1.0 for r in tail)
    monotone = (divergence_flag and len(tail) >= 2
                and all(b > a for a, b in zip(tail, tail[1:])))
    return DivergenceReport(block_ratios=tuple(ratios),
                            directional_max_ratios=tuple(directional.tolist()),
                            divergence_flag=divergence_flag,
                            monotone_growth=monotone)
