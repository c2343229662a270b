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
as drift control.  The anchors of a symbol are prefixes of one running
product (`pochhammer_prefixes`); each equals its scratch value bit for bit,
so the drift control is that of separate `pochhammer` calls.

One engine builds the arrays of every family, Kampe de Feriet (KdF) series
included, from `_chains`: each array is a length, numerator symbols and
denominator groups.  A symbol, the rising factorial (v)_i or the t-factor
(-1)^{ik} (-t)_{ik}, gives its ratios, scratch values (`pochhammer`) and logs
with exact zero flags (`log_pochhammer_prefixes`).  The fold order fixes
every grid's rounding, signed zeros included: numerators multiply left to
right from the first symbol (a t-factor's sign is a factor of its own); each
denominator group is multiplied out and divided by once (F41/F42: (c)_m m!
together; KdF: each D, E, F entry and the factorial alone); logs add the
numerator logs from the first and subtract each denominator log in turn;
only KdF products start from 1.  Every factor is a Python complex, the
signs, that 1 and the factorial's symbol (1)_i included, so lanes compute in
complex alone.  A grid is built by the linear route (ratio recurrences from
the anchors) unless a factor array or the product leaves the double range;
then by the log route, which reuses the ratios the linear attempt folded.

Grids are cached by (params, M, N) in one least-recently-used cache bounded
by bytes (_GRID_CACHE_BYTES), shared by single requests and batch builds.
`cache_grids` fills it for many requests at once: grids of one rectangle,
when there are _LANE_MIN or more, are built as lanes (`kernels.Lanes`), with
the chains of one structure batched across grids and families, each lane
bit for bit the grid that the scalar engine builds alone (`_build_grid`);
a lane that meets an exact zero, a renormalisation break, a zero or NaN
divisor or a non-finite grid is built by the scalar engine instead.

`evaluate` sums one point; `evaluate_many` sums one grid at many arguments
(x, y), as the CLI sweep needs, and `evaluate_values` gives the same values
without the growth diagnostics, as `quadrature` needs.  Both request the grid
keyed without x and y, and sum the terms of a stack of points, shape
(P, M+1, N+1), in one pass: each anti-diagonal's block sum, absolute sum and
nonzero count replays numpy's pairwise summation per point, so every result
equals that of the point summed alone, bit for bit.  A stack holds at most
_CHUNK_CELLS term cells (one point at least), and a truncation rectangle at
most _MAX_CELLS cells.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import warnings
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from operator import add, mul, neg, sub, truediv
from typing import Union

import numpy as np

from .errors import OverflowSignalError, PoleError, UnsupportedKError
from .kernels import (_LANES_EXACT, Lanes, _is_exact_nonpositive_int,
                      factorial, log_pochhammer_prefixes, pochhammer,
                      pochhammer_prefix_lanes, pochhammer_prefixes)
# not called here since every grid log comes from log_pochhammer_prefixes, but
# kept as a module name: the layer tracer in perfbench wraps it
from .kernels import log_pochhammer  # noqa: F401


class ConvergenceRegionWarning(UserWarning):
    """Evaluation requested outside the guaranteed convergence region."""


def _require_off_pole(name: str, c: complex) -> None:
    if _is_exact_nonpositive_int(c):
        raise PoleError(f"{name} = {c} is a nonpositive integer (pole lattice)")


def _require_finite(name: str, v: complex) -> None:
    if not cmath.isfinite(v):
        raise ValueError(f"{name} = {v} is not finite")


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
            object.__setattr__(self, name, complex(getattr(self, name)))
        for name in ("a", "b", "c1", "c2", "t1", "t2"):
            _require_finite(name, getattr(self, name))
        object.__setattr__(self, "k1", _require_k("k1", self.k1))
        object.__setattr__(self, "k2", _require_k("k2", self.k2))
        _require_off_pole("c1", self.c1)
        _require_off_pole("c2", self.c2)

    replace = dataclasses.replace


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
            object.__setattr__(self, name, complex(getattr(self, name)))
        for name in ("a", "b", "c1", "c2", "t"):
            _require_finite(name, getattr(self, name))
        object.__setattr__(self, "k", _require_k("k", self.k))
        _require_off_pole("c1", self.c1)
        _require_off_pole("c2", self.c2)

    replace = dataclasses.replace


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
            seq = tuple(complex(v) for v in getattr(self, name))
            for v in seq:
                _require_finite(f"{name} entry", v)
            object.__setattr__(self, name, seq)
        object.__setattr__(self, "x", complex(self.x))
        object.__setattr__(self, "y", complex(self.y))
        for name in ("D", "E", "F"):
            for v in getattr(self, name):
                _require_off_pole(f"{name} entry", v)

    replace = dataclasses.replace


SeriesParams = Union[F41Params, F42Params, KdfParams]


# cells one truncation rectangle may hold: 2**18 complex cells (512 x 512)
# are 4 MiB per array, and an evaluation holds a few arrays of that size.  On
# a 2-core x86-64 host one 512 x 512 eval took 0.13 s of CPU and peaked at
# 67 MB, against 31 MB at the default 41 x 41; every test and benchmark
# workload stays at or below 61 x 61
_MAX_CELLS = 2 ** 18


def _require_rectangle(M: int, N: int) -> None:
    """ValueError for a rectangle [0..M] x [0..N] with a negative bound or
    more than _MAX_CELLS cells, checked before anything is allocated (exit
    2 in the CLI)."""
    if M < 0 or N < 0:
        raise ValueError("truncation bounds must be nonnegative")
    if (M + 1) * (N + 1) > _MAX_CELLS:
        raise ValueError(f"truncation rectangle {M + 1} x {N + 1} exceeds "
                         f"{_MAX_CELLS} cells")


@dataclass(frozen=True)
class TruncationPolicy:
    """Truncation rectangle [0..max_m] x [0..max_n]; every anti-diagonal is
    summed."""

    max_m: int = 40
    max_n: int = 40

    def __post_init__(self):
        _require_rectangle(self.max_m, self.max_n)


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


def _sign_pow(e: int) -> complex:
    return -1 + 0j if e % 2 else 1 + 0j


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
# one coefficient engine: separable factor arrays read from symbol tables
# ---------------------------------------------------------------------------

# distance between from-scratch anchors in each 1-D factor array; one anchor
# per 4 entries of W, U and V bounds recurrence drift on roughly every 16th
# grid cell of the separable product.  An anchor read from a running product
# is still its scratch value, bit for bit, so the bound is unchanged
_ANCHOR_STRIDE = 4

_IPI = 1j * math.pi


# A symbol gives, over a list of indices i, its ratios (value at i + 1 over
# value at i), its scratch values as factor columns multiplied in order, and
# its logs with exact zero flags.

class _Rising:
    """The rising factorial (v)_i."""

    def __init__(self, v: complex):
        self.v = v

    def ratios(self, idx):
        return [[self.v + i for i in idx]]

    def values(self, idx):
        return [pochhammer_prefixes(self.v, idx)]

    def logs(self, idx):
        lps = log_pochhammer_prefixes(self.v, idx)
        return [lp.log for lp in lps], [lp.is_zero for lp in lps]

    def lane_key(self):
        return _Rising

    @staticmethod
    def lane_ratios(symbols, idx):
        return [Lanes.of([s.v for s in symbols]).add_int(np.array(idx))]

    @staticmethod
    def lane_values(symbols, idx):
        return [pochhammer_prefix_lanes(Lanes.of([s.v for s in symbols]), idx)]


class _TFactor:
    """The t-factor (-1)^{ik} (-t)_{ik}; the sign is its own column."""

    def __init__(self, t: complex, k: int):
        self.t, self.k = t, k

    def ratios(self, idx):
        # (-1)^k (-t + ik + 0) ... (-t + ik + k - 1); the + 0 stays, as it
        # turns a -0.0 part into +0.0
        k, t, sign = self.k, -self.t, _sign_pow(self.k)
        out = []
        for i in idx:
            r = sign
            for j in range(k):
                r *= t + i * k + j
            out.append(r)
        return [out]

    def values(self, idx):
        k = self.k
        return [[_sign_pow(i * k) for i in idx],
                pochhammer_prefixes(-self.t, [i * k for i in idx])]

    def logs(self, idx):
        k = self.k
        lps = log_pochhammer_prefixes(-self.t, [i * k for i in idx])
        return ([lp.log + _IPI * ((i * k) % 2) for lp, i in zip(lps, idx)],
                [lp.is_zero for lp in lps])

    def lane_key(self):
        return _TFactor, self.k

    @staticmethod
    def lane_ratios(symbols, idx):
        k = symbols[0].k
        t, ik = -Lanes.of([s.t for s in symbols]), np.array(idx) * k
        r = Lanes.of([_sign_pow(k)] * len(idx), row=True)
        for j in range(k):
            r = r * t.add_int(ik).add_int(j)
        return [r]

    @staticmethod
    def lane_values(symbols, idx):
        k = symbols[0].k
        signs = Lanes.of([_sign_pow(i * k) for i in idx], row=True)
        t = -Lanes.of([s.t for s in symbols])
        return [signs, pochhammer_prefix_lanes(t, [i * k for i in idx])]


class _One:
    """The leading 1 of the Kampe de Feriet products."""

    def ratios(self, idx):
        return [[1.0 + 0.0j] * len(idx)]

    values = ratios

    def logs(self, idx):
        return [0.0 + 0.0j] * len(idx), [False] * len(idx)

    def lane_key(self):
        return _One

    @staticmethod
    def lane_ratios(symbols, idx):
        return [Lanes.of([1 + 0j] * len(idx), row=True)]

    lane_values = lane_ratios


# i! = (1)_i
_FACTORIAL, _ONE = _Rising(1 + 0j), _One()


def _chains(p: SeriesParams, M: int, N: int):
    """Factor arrays W (over m + n), U (over m) and V (over n) of p, each
    (length, numerator symbols, denominator groups)."""
    if type(p) is F41Params:
        return ((M + N, (_Rising(p.a), _Rising(p.b)), ()),
                (M, (_TFactor(p.t1, p.k1),), ((_Rising(p.c1), _FACTORIAL),)),
                (N, (_TFactor(p.t2, p.k2),), ((_Rising(p.c2), _FACTORIAL),)))
    if type(p) is F42Params:
        return ((M + N, (_Rising(p.a), _Rising(p.b), _TFactor(p.t, p.k)), ()),
                (M, (), ((_Rising(p.c1), _FACTORIAL),)),
                (N, (), ((_Rising(p.c2), _FACTORIAL),)))
    if type(p) is KdfParams:
        def chain(length, nums, dens, *factorial):
            return (length, (_ONE, *map(_Rising, nums)),
                    tuple((_Rising(v),) for v in dens) + factorial)

        return (chain(M + N, p.A, p.D),
                chain(M, p.B, p.E, (_FACTORIAL,)),
                chain(N, p.C, p.F, (_FACTORIAL,)))
    raise TypeError(f"unsupported parameter type {type(p)!r}")


@lru_cache(maxsize=128)
def _indices(length: int):
    """Anchor indices, and the indices i whose ratio steps to entry i + 1."""
    return (range(0, length + 1, _ANCHOR_STRIDE),
            tuple(i for i in range(length) if (i + 1) % _ANCHOR_STRIDE))


def _fold(chain, kind: str, idx) -> list:
    """Ratios or scratch values of a factor array at idx: the numerator
    columns multiplied left to right from the first (1 if none), then
    divided once by the product of each denominator group."""
    _, nums, dens = chain
    acc = _product(nums, kind, idx) or [1 + 0j] * len(idx)
    for group in dens:
        acc = map(truediv, acc, _product(group, kind, idx))
    return list(acc)


def _product(symbols, kind: str, idx):
    """Elementwise product of the symbols' columns, left to right (None for
    no symbol)."""
    acc = None
    for s in symbols:
        for col in getattr(s, kind)(idx):
            acc = col if acc is None else map(mul, acc, col)
    return acc


def _fold_logs(chain, idx):
    """(logs, zero flags) of a factor array at idx: the numerator logs added
    from the first (the first denominator log negated if none), then each
    denominator symbol's log subtracted in turn."""
    _, nums, dens = chain
    num = [s.logs(idx) for s in nums]
    den = [s.logs(idx)[0] for group in dens for s in group]
    if num:
        acc = reduce(partial(map, add), [logs for logs, _ in num])
        zero = [any(z) for z in zip(*[flags for _, flags in num])]
    else:
        acc, zero = map(neg, den.pop(0)), [False] * len(idx)
    for logs in den:
        acc = map(sub, acc, logs)
    return list(acc), zero


def _chain_linear(chain, ratios) -> np.ndarray:
    """arr[i+1] = arr[i] * ratio(i), re-anchored from scratch every
    _ANCHOR_STRIDE entries; may contain inf/nan at extreme scales."""
    anchors, steps = _indices(chain[0])
    arr = [0j] * (chain[0] + 1)
    arr[::_ANCHOR_STRIDE] = _fold(chain, "values", anchors)
    # Python complex products round as numpy's scalar ones; numpy's array
    # complex multiply does not always
    for i, r in zip(steps, ratios):
        arr[i + 1] = arr[i] * r
    return np.array(arr, dtype=np.complex128)


def _chain_log(chain, ratios):
    """Log-space variant for scales beyond the double range; returns
    (logs, zero_mask)."""
    anchors, steps = _indices(chain[0])
    logs, zero = [0j] * (chain[0] + 1), [False] * (chain[0] + 1)
    logs[::_ANCHOR_STRIDE], zero[::_ANCHOR_STRIDE] = _fold_logs(chain, anchors)
    for i, r in zip(steps, ratios):
        if zero[i] or r == 0:
            zero[i + 1] = True
        else:
            logs[i + 1] = logs[i] + cmath.log(r)
    return np.array(logs, dtype=np.complex128), np.array(zero)


_KIND = {F41Params: "F41", F42Params: "F42", KdfParams: "KdF"}


def _build_grid(p: SeriesParams, M: int, N: int) -> np.ndarray:
    """The grid of p on [0..M] x [0..N], built alone: the reference that
    lanes reproduce, and the route of every lane they cannot."""
    chains = _chains(p, M, N)
    # each chain's ratios, folded once for both routes
    ratios = [_fold(chain, "ratios", _indices(chain[0])[1])
              for chain in chains]
    idx = np.arange(M + 1)[:, None] + np.arange(N + 1)[None, :]

    # linear assembly first; its intermediates can overflow even when the
    # final coefficients are representable, so fall back to log space then.
    # Every entry of W, U and V meets some cell of the product, so the first
    # factor array that is not finite settles the fallback
    coeffs, arrays = None, []
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for chain, r in zip(chains, ratios):
                arrays.append(_chain_linear(chain, r))
                if not np.isfinite(arrays[-1]).all():
                    break
            else:
                W, U, V = arrays
                coeffs = W[idx] * U[:, None] * V[None, :]
    except OverflowSignalError:
        pass
    if coeffs is None or not np.isfinite(coeffs).all():
        (Wl, Wz), (Ul, Uz), (Vl, Vz) = map(_chain_log, chains, ratios)
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


# ---------------------------------------------------------------------------
# lanes: many grids built at once, each bit for bit as _build_grid builds it
# ---------------------------------------------------------------------------

def _product_lanes(positions, kind: str, idx):
    """_product over lanes: positions hold one symbol per lane each."""
    acc = None
    for symbols in positions:
        for col in getattr(symbols[0], "lane_" + kind)(symbols, idx):
            acc = col if acc is None else acc * col
    return acc


def _fold_lanes(chains, kind: str, idx) -> Lanes:
    """_fold of chains of one structure, one chain per lane, in its order."""
    nums = list(zip(*(c[1] for c in chains)))
    dens = [list(zip(*group)) for group in zip(*(c[2] for c in chains))]
    acc = _product_lanes(nums, kind, idx) or \
        Lanes.of([1 + 0j] * len(idx), row=True)
    for group in dens:
        acc = acc / _product_lanes(group, kind, idx)
    return acc


def _chain_lanes(chains):
    """_chain_linear of chains of one structure, one chain per lane: the
    arrays as rows, and the lanes _chain_linear must compute itself."""
    length = chains[0][0]
    anchors, steps = _indices(length)
    values = _fold_lanes(chains, "values", anchors)
    ratios = _fold_lanes(chains, "ratios", steps)
    shape = (len(chains), length + 1)
    re, im = np.empty(shape), np.empty(shape)
    re[:, ::_ANCHOR_STRIDE] = values.re
    im[:, ::_ANCHOR_STRIDE] = values.im
    # a step i + 1 = (i mod stride) + 1 follows its predecessor: the steps at
    # one offset from their anchors run together, offset after offset
    per_block = _ANCHOR_STRIDE - 1
    for o in range(per_block):
        nxt = (Lanes(re[:, o:length:_ANCHOR_STRIDE],
                     im[:, o:length:_ANCHOR_STRIDE])
               * Lanes(ratios.re[:, o::per_block], ratios.im[:, o::per_block]))
        re[:, o + 1::_ANCHOR_STRIDE] = nxt.re
        im[:, o + 1::_ANCHOR_STRIDE] = nxt.im
    arr = np.empty(shape, dtype=np.complex128)
    arr.real, arr.imag = re, im
    return arr, np.zeros(len(chains), dtype=bool) | values.bad | ratios.bad


def _chain_key(chain):
    length, nums, dens = chain
    return (length, tuple(s.lane_key() for s in nums),
            tuple(tuple(s.lane_key() for s in group) for group in dens))


def _structure(p: SeriesParams):
    """What fixes the structure of p's chains besides the rectangle: its
    type, its integer steps and the lengths of its sequences."""
    return (type(p),) + tuple(v if type(v) is int else len(v)
                              for v in vars(p).values()
                              if type(v) is not complex)


# grids whose final product numpy forms as one stack: its temporaries take
# about 8 KB per 13 x 13 grid
_PRODUCT_LANES = 128


def _factor_lanes(params, M: int, N: int):
    """_chain_linear of the three chains of every p of params: W, U and V
    with one row per p, and the rows that _build_grid must build instead.

    Chains of one structure (length, symbol kinds, t-factor steps) run as
    one batch of lanes, across grids and families."""
    arrays = [np.empty((len(params), length + 1), dtype=np.complex128)
              for length in (M + N, M, N)]
    bad = np.zeros(len(params), dtype=bool)
    alike = {}
    for g, p in enumerate(params):
        alike.setdefault(_structure(p), []).append(g)
    batches = {}
    for rows in alike.values():
        chains = [_chains(params[g], M, N) for g in rows]
        for part, chain in enumerate(chains[0]):
            batch = batches.setdefault(_chain_key(chain), ([], [], []))
            batch[0].extend(rows)
            batch[1].extend([part] * len(rows))
            batch[2].extend(c[part] for c in chains)
    for rows, parts, chains in batches.values():
        rows, parts = np.array(rows), np.array(parts)
        arr, chain_bad = _chain_lanes(chains)
        for part in set(parts.tolist()):
            sel = parts == part
            arrays[part][rows[sel]] = arr[sel]
            bad[rows[sel]] |= chain_bad[sel]
    return arrays, bad


def _grid_lanes(params, M: int, N: int):
    """(p, grid) for every p of params on [0..M] x [0..N], grid None where
    _build_grid must build it instead.  The final product is numpy's,
    stacked, as _build_grid forms it grid by grid."""
    with np.errstate(all="ignore"):
        (W, U, V), bad = _factor_lanes(params, M, N)
    idx = np.arange(M + 1)[:, None] + np.arange(N + 1)[None, :]
    for lo in range(0, len(params), _PRODUCT_LANES):
        hi = lo + _PRODUCT_LANES
        with np.errstate(all="ignore"):
            coeffs = W[lo:hi, idx] * U[lo:hi, :, None] * V[lo:hi, None, :]
        ok = ~bad[lo:hi] & np.isfinite(coeffs).all(axis=(1, 2))
        for p, grid, good in zip(params[lo:hi], coeffs, ok):
            yield p, grid.copy() if good else None


# fewest grids of one rectangle worth building as lanes: a batch costs a
# fixed number of numpy calls whatever its width.  On a 2-core x86-64 host,
# mixed F41/F42 13 x 13 grids took 246 us each in batches of 32, 130 us in
# batches of 64 and 49 us in batches of 775, against 150-180 us alone
_LANE_MIN = 64


def cache_grids(keys) -> None:
    """Put the grid of every (p, M, N) of keys into the grid cache, as the
    most recently used entries; raises nothing.

    Missing grids of one rectangle are built as lanes when there are at
    least _LANE_MIN of them, the others alone.  A grid whose build raises
    is left out, so that its request raises the same error."""
    missing = {}
    for key in dict.fromkeys(keys):
        if not _GRIDS.touch(key):
            missing.setdefault(key[1:], []).append(key[0])
    for (M, N), params in missing.items():
        built = ((p, None) for p in params)
        if _LANES_EXACT and len(params) >= _LANE_MIN:
            built = _grid_lanes(params, M, N)
        for p, grid in built:
            if grid is None:
                try:
                    grid = _build_grid(p, M, N)
                except Exception:
                    continue
            grid.flags.writeable = False
            _GRIDS.add((p, M, N), grid)


# ---------------------------------------------------------------------------
# the grid cache
# ---------------------------------------------------------------------------

GridCacheInfo = namedtuple("GridCacheInfo",
                           "hits misses currsize nbytes max_bytes")


class _GridCache:
    """Least-recently-used cache of read-only grids keyed by (p, M, N),
    bounded by bytes: each entry costs its grid's bytes and _ENTRY_BYTES.

    Calling it requests a grid: a hit returns the cached array, a miss
    builds it with _build_grid.  cache_grids fills it through `add` and
    `touch`, which count as neither."""

    def __init__(self, build, max_bytes: int):
        self.__wrapped__ = build
        self.max_bytes = max_bytes
        self.cache_clear()

    def __call__(self, p: SeriesParams, M: int, N: int) -> np.ndarray:
        key = (p, M, N)
        grid = self._grids.get(key)
        if grid is None:
            self.misses += 1
            grid = self.__wrapped__(p, M, N)
            self.add(key, grid)
        else:
            self.hits += 1
            self._grids.move_to_end(key)
        return grid

    def touch(self, key) -> bool:
        """Whether key is cached; if so it becomes the most recently used."""
        if key not in self._grids:
            return False
        self._grids.move_to_end(key)
        return True

    def add(self, key, grid: np.ndarray) -> None:
        """Cache grid under key, evicting the least recently used grids
        until the bytes fit the bound (grid too, if it alone exceeds it)."""
        old = self._grids.pop(key, None)
        if old is not None:
            self.nbytes -= old.nbytes + _ENTRY_BYTES
        self._grids[key] = grid
        self.nbytes += grid.nbytes + _ENTRY_BYTES
        while self.nbytes > self.max_bytes:
            self.nbytes -= self._grids.popitem(last=False)[1].nbytes + \
                _ENTRY_BYTES

    def cache_info(self) -> GridCacheInfo:
        return GridCacheInfo(self.hits, self.misses, len(self._grids),
                             self.nbytes, self.max_bytes)

    def cache_clear(self) -> None:
        self._grids = OrderedDict()
        self.hits = self.misses = self.nbytes = 0


# bytes the grid cache holds: 1,254 grids of 13 x 13 (an audit chunk and a
# half), 152 of 41 x 41, 6,393 of 1 x 1, none of 512 x 512 (4 MiB alone).
# Its 4,096-entry predecessor could hold 16 GiB of 512 x 512 grids.  On a
# 2-core x86-64 host the seed-3 acceptance audit peaked at 57-62 MB with
# room for 4,096 grids of 13 x 13 (11 MB), against 47.7 MB before batching
_GRID_CACHE_BYTES = 2 ** 22

# bytes an entry holds besides its grid's: key, parameters, array header;
# 579 bytes measured for an F41 entry with a 1 x 1 grid
_ENTRY_BYTES = 640

# every grid request goes through this name, which a tracer may wrap;
# cache_grids fills the cache through _GRIDS
_GRIDS = _grid_coeffs = _GridCache(_build_grid, _GRID_CACHE_BYTES)


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


def _pairwise_tree(n: int, unit: int):
    """numpy's pairwise tree over a run of n entries of unit reals each:
    its leaves as (start, stop) entry slices in order, its joins as (left,
    right, height) in the order they are made (leaves referenced as 0, 1,
    ..., joins as -1, -2, ...), and its root."""
    leaves, joins = [], []

    def node(lo, hi):
        """(reference, height) of the node over entries lo to hi."""
        n = (hi - lo) * unit
        if n <= _PW_BLOCKSIZE:
            leaves.append((lo, hi))
            return len(leaves) - 1, 0
        mid = lo + (n // 2 - n // 2 % _PW_UNROLL) // unit
        (left, hl), (right, hr) = node(lo, mid), node(mid, hi)
        joins.append((left, right, 1 + max(hl, hr)))
        return -len(joins), joins[-1][2]

    return leaves, joins, node(0, n)[0]


def _starts(counts: np.ndarray) -> np.ndarray:
    """Where each of runs of these lengths starts when laid end to end."""
    return np.cumsum(counts) - counts


class _PairwiseRows:
    """Sums of ragged rows in numpy's pairwise order.

    Row r is gather[r, :lengths[r]], flat source indices; `unit` is the
    number of reals per entry (2 for complex).  Calling the plan on a source
    array whose first axis is flat and ends in a zero returns the row sums;
    trailing axes (one per point of a stack) are summed alongside.  Zero
    padding is exact: x + 0 == x, and the final + 0.0 gives an all-zero row
    numpy's +0 sign.

    Rows of one length share one tree (_pairwise_tree).  Nodes are numbered
    leaves first, then joins, row after row, each row's in the order its
    tree makes them; the layout is built by array operations over all rows
    at once, so its Python work grows with the longest row, not with the
    number of rows.
    """

    def __init__(self, gather: np.ndarray, lengths: np.ndarray, unit: int,
                 zero: int):
        width = _PW_UNROLL // unit          # entries per block
        trees = [_pairwise_tree(n, unit) for n in range(lengths.max() + 1)]
        # the trees' leaves (start, stop), joins (left, right, height) and
        # roots, tree by tree in order of length
        spans = np.array([leaf for t in trees for leaf in t[0]],
                         dtype=np.intp).reshape(-1, 2)
        links = np.array([join for t in trees for join in t[1]],
                         dtype=np.intp).reshape(-1, 3)
        tree_roots = np.array([t[2] for t in trees], dtype=np.intp)

        def per_row(per_tree):
            """Items counted per tree, over all rows in row order: the row
            of each item, its place in the tables above, and the items per
            row."""
            per_tree = np.array(per_tree, dtype=np.intp)
            items = per_tree[lengths]
            row = np.repeat(np.arange(len(items)), items)
            shift = _starts(per_tree)[lengths] - _starts(items)
            return row, np.arange(items.sum()) + shift[row], items

        leaf_row, leaf_at, leaves = per_row([len(t[0]) for t in trees])
        join_row, join_at, joins = per_row([len(t[1]) for t in trees])
        first_leaf = _starts(leaves)
        first_join = len(leaf_row) + _starts(joins)

        def number(refs, rows):
            return np.where(refs >= 0, first_leaf[rows] + refs,
                            first_join[rows] - 1 - refs)

        # every entry, leaf after leaf: its leaf, its place in the leaf, and
        # whether it sits in a block (a run shorter than one block is all
        # rest, summed from zero)
        start, stop = spans[leaf_at].T
        n = stop - start
        cut = n - n % width
        leaf = np.repeat(np.arange(len(n)), n)
        at = np.arange(n.sum()) - np.repeat(_starts(n), n)
        idx = gather[leaf_row[leaf], start[leaf] + at]
        block = at < cut[leaf]
        # leaves last, so that every add below runs over all leaves at once
        self.blocks = np.full((max(int(n.max()) // width, 1), width, len(n)),
                              zero, np.intp)
        self.blocks[at[block] // width, at[block] % width, leaf[block]] = \
            idx[block]
        self.rest = np.full((width - 1, len(n)), zero, np.intp)
        self.rest[(at - cut[leaf])[~block], leaf[~block]] = idx[~block]
        left, right, height = links[join_at].T
        out = len(n) + np.arange(len(height))
        left, right = number(left, join_row), number(right, join_row)
        self.levels = [(out[height == h], left[height == h],
                        right[height == h])
                       for h in sorted(set(height.tolist()))]
        self.nodes = len(n) + len(height)
        self.roots = number(tree_roots[lengths], np.arange(len(lengths)))

    def __call__(self, src: np.ndarray) -> np.ndarray:
        # numpy reduces over a leading axis in order, from 0 (its pairwise
        # order is only along the fast axis); the zero's sign is immaterial
        # under the final + 0.0
        acc = np.add.reduce(src.take(self.blocks, axis=0), axis=0)
        while len(acc) > 1:
            acc = acc[0::2] + acc[1::2]
        leaf = np.add.reduce(np.concatenate(
            (acc, src.take(self.rest, axis=0))), axis=0)
        if not self.levels:
            return leaf + 0.0
        sums = np.empty((self.nodes,) + src.shape[1:], dtype=src.dtype)
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
    d = np.arange(M + N + 1)[:, None]
    first = np.maximum(0, d - N)            # m of the first term of d
    lengths = np.minimum(d, M) - first + 1
    ms = first + np.arange(min(M, N) + 1)
    gather = np.where(ms - first < lengths, ms * (N + 2) + N - d, zero)
    lengths = lengths[:, 0]
    return _DiagonalPlan(gather, _PairwiseRows(gather, lengths, 2, zero),
                         _PairwiseRows(gather, lengths, 1, zero))


def _with_zero(a: np.ndarray) -> np.ndarray:
    """Flat copy of a grid (any strides, C order) with a zero appended; a
    (P, M+1, N+1) stack of grids gives one such column per point."""
    if a.ndim == 3:
        a = a.transpose(1, 2, 0)
    out = np.zeros((a.shape[0] * a.shape[1] + 1,) + a.shape[2:], dtype=a.dtype)
    out[:-1].reshape(a.shape)[...] = a
    return out


def _diagonal_stats(terms: np.ndarray):
    """Per anti-diagonal d = m + n: the sum of terms and the sum of their
    absolute values, as arrays, with the rounding of np.trace on the
    diagonals of np.fliplr(terms); and the count of nonzero terms.

    terms is one (M+1) x (N+1) grid, or a (P, M+1, N+1) stack of the grids
    of P points; each sum then has a trailing axis of P, each point's column
    what its grid alone gives, bit for bit, and the count is one per
    point."""
    rows, cols = terms.shape[-2:]
    if rows == 1 and cols > 1:
        # np.abs rounds complex input in the last bit one way in its SIMD
        # loop and another in its scalar loop.  np.abs(np.fliplr(grid)) takes
        # the SIMD loop, except for a single row of two or more terms: numpy
        # reads that flipped view as 1-D with a negative stride, which only
        # the scalar loop takes.  Every point of a stack is read the same way
        row = np.ascontiguousarray(terms).reshape(-1)
        abs_terms = np.abs(row[::-1])[::-1].reshape(terms.shape)
    else:
        abs_terms = np.abs(terms)
    plan = _diagonal_plan(rows - 1, cols - 1)
    return (_diagonal_sums(terms),
            plan.real_sums(_with_zero(abs_terms[..., ::-1])),
            np.count_nonzero(abs_terms, axis=(-2, -1)))


def _diagonal_sums(terms: np.ndarray) -> np.ndarray:
    """The first statistic of _diagonal_stats(terms) alone: the sum of the
    terms on each anti-diagonal."""
    rows, cols = terms.shape[-2:]
    plan = _diagonal_plan(rows - 1, cols - 1)
    return plan.complex_sums(_with_zero(terms[..., ::-1]))


def _final_quartile(seq):
    if not seq:
        return []
    return list(seq[-max(1, math.ceil(len(seq) / 4)):])


def _block_ratios(abs_blocks):
    return [cur / prev if prev != 0.0 else 0.0 if cur == 0.0 else math.inf
            for prev, cur in zip(abs_blocks, abs_blocks[1:])]


def _summary(total: complex, abs_blocks: list, terms_used: int, M: int,
             N: int) -> EvaluationResult:
    """One point's result from its sum and absolute block sums."""
    # growth statistics only over complete anti-diagonals: past d = min(M, N)
    # the rectangle clips diagonals, which would fake decaying block sums
    included_abs = abs_blocks[:min(M, N) + 1]
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

    return EvaluationResult(value=total, terms_used=terms_used,
                            tail_estimate=float(tail_estimate),
                            divergence_flag=divergence_flag,
                            max_term_ratio=float(max_term_ratio))


def _sum_terms(coeffs: np.ndarray, xs: np.ndarray, ys: np.ndarray,
               diagnostics: bool) -> list:
    """Results (values alone without diagnostics) of the terms
    coeffs[m, n] x^m y^n at each pair of the 1-D complex arrays xs and ys,
    summed as one (P, M+1, N+1) stack."""
    M = coeffs.shape[0] - 1
    N = coeffs.shape[1] - 1
    # a point outside the floating range overflows its powers, terms and
    # sums; it raises below, and no point warns on its own or another's
    # behalf
    with np.errstate(over="ignore", invalid="ignore"):
        xp = np.power(xs[:, None], np.arange(M + 1), dtype=np.complex128)
        yp = np.power(ys[:, None], np.arange(N + 1), dtype=np.complex128)
        terms = coeffs * xp[:, :, None] * yp[:, None, :]
        # anti-diagonal block sums in increasing total degree
        if diagnostics:
            block_sums, abs_blocks, nonzero_counts = _diagonal_stats(terms)
        else:
            block_sums = _diagonal_sums(terms)
        # the blocks added left to right, as Python's sum adds them from 0
        # (no block sum is -0.0, so starting from the first is the same)
        totals = np.cumsum(block_sums, axis=0)[-1]
    if not np.isfinite(totals).all():
        raise OverflowSignalError("partial sum exceeds the floating range")
    if not diagnostics:
        return totals.tolist()
    return [_summary(*stats, M, N) for stats in zip(
        totals.tolist(), abs_blocks.T.tolist(),
        nonzero_counts.tolist())]


def _without_args(p: SeriesParams) -> SeriesParams:
    """p with x = y = 0 (p itself if so already): the grid cache key, since
    coefficients do not depend on the arguments."""
    return p if p.x == 0 and p.y == 0 else p.replace(x=0j, y=0j)


# term cells evaluate_many sums as one stack: 8 points of the default 41 x 41
# rectangle, whatever the number of points.  A stack holds a few complex
# arrays of this many cells (215 KB each).  On a 2-core x86-64 host an 11 x 11
# sweep took 15 ms one point at a time, 8.5 ms in stacks of 6 or 8 points,
# and 14 ms in stacks of 12 or 16, which also grew the peak memory
_CHUNK_CELLS = 8 * 41 * 41


def _sum_stacks(p: SeriesParams, xs, ys, pol: TruncationPolicy,
                diagnostics: bool) -> list:
    xs = np.asarray(xs, dtype=np.complex128)
    ys = np.asarray(ys, dtype=np.complex128)
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise ValueError("xs and ys must be sequences of equal length")
    if not len(xs):
        return []
    coeffs = _grid_coeffs(_without_args(p), pol.max_m, pol.max_n)
    step = max(1, _CHUNK_CELLS // coeffs.size)
    results = []
    for i in range(0, len(xs), step):
        results += _sum_terms(coeffs, xs[i:i + step], ys[i:i + step],
                              diagnostics)
    return results


def evaluate_many(p: SeriesParams, xs, ys,
                  pol: TruncationPolicy = EVAL_POLICY) -> list:
    """evaluate(p.replace(x=x, y=y), pol) for each pair of xs and ys, bit
    for bit, from one grid request; p's own arguments are not used.

    The points are summed in stacks of at most _CHUNK_CELLS term cells (one
    point at least), each reduced in one pass.  A point whose partial sum
    leaves the floating range raises OverflowSignalError, as in evaluate."""
    return _sum_stacks(p, xs, ys, pol, True)


def evaluate_values(p: SeriesParams, xs, ys,
                    pol: TruncationPolicy = EVAL_POLICY) -> list:
    """The values of evaluate_many(p, xs, ys, pol), bit for bit, without
    the growth diagnostics: no absolute block sums, term counts or ratios,
    which take about half of a point's time."""
    return _sum_stacks(p, xs, ys, pol, False)


def evaluate(p: SeriesParams,
             pol: TruncationPolicy = EVAL_POLICY) -> EvaluationResult:
    """Truncated sum of either analogue or a Kampe de Feriet series, with
    growth diagnostics."""
    return evaluate_many(p, (p.x,), (p.y,), pol)[0]


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
