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
with exact zero flags (`kernels._log_prefixes`, two lists).  The factorial
(1)_i depends on the indices alone, so its columns are made once per index
list and shared by every build (`_Factorial`).  The fold order fixes
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
A linear attempt whose anchors are not all finite takes no ratio step.

Grid requests (`_grid_coeffs`) go through a small least-recently-used cache
keyed by (params, M, N).  `build_grids` builds many grids of one rectangle
at once for a caller that holds them, without the cache, as lanes
(`kernels.Lanes`).  The grids of one structure make one set of chains from
their parameters read as columns (`_Columns`), one complex128 entry per
grid, and chains of one structure are batched across these groups and
families.  Each lane is bit for bit the grid that the scalar engine builds
alone (`_build_grid`); a lane that meets an exact zero, a renormalisation
break, a zero or NaN divisor or a non-finite grid is built by the scalar
engine instead.

`evaluate` sums one point; `evaluate_many` sums one grid at many arguments
(x, y), as the CLI sweep needs.  A call requests its grid once, keyed
without x and y, and prepares it once (`_prepare`): its cells are gathered
into the order of `_diagonal_plan`, a zero leading each anti-diagonal.  The
plan, built once per shape, also holds the exponents of x and y that each
entry takes.  The one summation kernel, `_sum_terms`, forms a point's terms
in that order, sums each anti-diagonal as one `reduceat` segment, which
numpy adds pairwise as it adds any reduction, and adds the blocks left to
right.  Points are summed in stacks of at most _CHUNK_CELLS term cells, a
lone point as a stack of one; each point sums as it does alone, bit for
bit.  `quadrature` prepares its inner grid once per check (`_prepared_grid`),
chooses its support once from its largest node's arguments (`_support`)
and sums each node from that (`_sum_points`, values alone).  The inner
series of a checked representation terminates, so its nonzero cells lie on
a few leading anti-diagonals; where every power of those arguments is
finite, the grid is cut after the last of them.  That is exact: past it
every term is a zero times finite powers, and each block sum there is +0,
which leaves every total as it is.  Otherwise every node sums the whole
grid.  A truncation rectangle holds at most _MAX_CELLS cells.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from operator import add, itemgetter, mul, neg, sub, truediv
from typing import NamedTuple, Union

import numpy as np

from .errors import OverflowSignalError, PoleError, UnsupportedKError
from .kernels import (Lanes, _is_exact_nonpositive_int, _log_prefixes,
                      factorial, pochhammer, pochhammer_prefix_lanes,
                      pochhammer_prefixes)
# not called here since every grid log comes from _log_prefixes, but kept as
# a module name: the layer tracer in perfbench wraps it
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


class _Params:
    """F41Params and F42Params: one check routine for __init__ and replace,
    in one order (complex conversion of all but the k fields, finiteness
    but for x and y, the k fields, c1 and c2 off the pole lattice), and the
    dataclass hash, computed once into a slot that vars(p) does not show."""

    __slots__ = ("__dict__", "_hash")

    def __post_init__(self):
        self._check(self._ALL)

    def _check(self, names) -> None:
        d, checked = self.__dict__, names.__contains__
        for name in filter(checked, self._COMPLEX):
            d[name] = complex(d[name])
        for name in filter(checked, self._FINITE):
            _require_finite(name, d[name])
        for name in filter(checked, self._KS):
            d[name] = _require_k(name, d[name])
        for name in filter(checked, ("c1", "c2")):
            _require_off_pole(name, d[name])
        object.__setattr__(self, "_hash", hash(self._values(d)))

    def replace(self, **changes):
        """dataclasses.replace(self, **changes), with its values, types and
        errors, checking only the changed fields."""
        for name in changes:
            if name not in self._ALL:
                raise TypeError(f"{type(self).__qualname__}.__init__() got an "
                                f"unexpected keyword argument '{name}'")
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__, **changes)
        new._check(changes)
        return new

    def __hash__(self):
        return self._hash

    def __reduce__(self):  # copy and pickle: the slot refuses __setattr__
        return type(self), self._values(self.__dict__)


def _field_tables(cls):
    """cls with the field names each check reads, the getter of its field
    tuple (an itemgetter takes no self) and the hash of _Params."""
    cls._FIELDS = tuple(f.name for f in dataclasses.fields(cls))
    cls._ALL = frozenset(cls._FIELDS)
    cls._KS = tuple(n for n in cls._FIELDS if n[0] == "k")
    cls._COMPLEX = tuple(n for n in cls._FIELDS if n[0] != "k")
    cls._FINITE = tuple(n for n in cls._COMPLEX if n not in ("x", "y"))
    cls._values = itemgetter(*cls._FIELDS)
    cls.__hash__ = _Params.__hash__
    return cls


@_field_tables
@dataclass(frozen=True)
class F41Params(_Params):
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


@_field_tables
@dataclass(frozen=True)
class F42Params(_Params):
    """Parameters of the second discrete analogue (single coupled t/k)."""

    a: complex
    b: complex
    c1: complex
    c2: complex
    t: complex
    k: int
    x: complex
    y: complex


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
        return _log_prefixes(self.v, idx)

    def lane_key(self):
        return _Rising

    @staticmethod
    def lane_ratios(symbols, idx):
        return [_lanes([s.v for s in symbols]).add_int(np.array(idx))]

    @staticmethod
    def lane_values(symbols, idx):
        return [pochhammer_prefix_lanes(_lanes([s.v for s in symbols]), idx)]


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
        logs, zeros = _log_prefixes(-self.t, [i * k for i in idx])
        return [log + _IPI * ((i * k) % 2) for log, i in zip(logs, idx)], zeros

    def lane_key(self):
        return _TFactor, self.k

    @staticmethod
    def lane_ratios(symbols, idx):
        k = symbols[0].k
        t, ik = -_lanes([s.t for s in symbols]), np.array(idx) * k
        r = Lanes.of([_sign_pow(k)] * len(idx), row=True)
        for j in range(k):
            r = r * t.add_int(ik).add_int(j)
        return [r]

    @staticmethod
    def lane_values(symbols, idx):
        k = symbols[0].k
        signs = Lanes.of([_sign_pow(i * k) for i in idx], row=True)
        t = -_lanes([s.t for s in symbols])
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


def _shared(columns):
    """The symbol method `columns`, cached per index list, its columns as
    tuples: every build that reads them shares them."""
    # a rectangle reads the factorial at 4 index lists (anchors and steps
    # of M and of N): 32 hold those of 8 rectangles
    @lru_cache(maxsize=32)
    def cached(self, idx):
        return tuple(map(tuple, columns(self, idx)))
    return cached


class _Factorial(_Rising):
    """The factorial i! = (1)_i, whose columns depend on the indices alone:
    each is built once per index list."""

    def __init__(self):
        super().__init__(1 + 0j)

    ratios = _shared(_Rising.ratios)
    values = _shared(_Rising.values)
    logs = _shared(_Rising.logs)


_FACTORIAL, _ONE = _Factorial(), _One()


def _chains(p: SeriesParams, M: int, N: int):
    """Factor arrays W (over m + n), U (over m) and V (over n) of p, each
    (length, numerator symbols, denominator groups).  For the _Columns of a
    structure group, each symbol holds a column with one entry per grid."""
    cls, factorial = type(p), _FACTORIAL
    if cls is _Columns:
        cls, factorial = p.cls, p.factorial
    if cls is F41Params:
        return ((M + N, (_Rising(p.a), _Rising(p.b)), ()),
                (M, (_TFactor(p.t1, p.k1),), ((_Rising(p.c1), factorial),)),
                (N, (_TFactor(p.t2, p.k2),), ((_Rising(p.c2), factorial),)))
    if cls is F42Params:
        return ((M + N, (_Rising(p.a), _Rising(p.b), _TFactor(p.t, p.k)), ()),
                (M, (), ((_Rising(p.c1), factorial),)),
                (N, (), ((_Rising(p.c2), factorial),)))
    if cls is KdfParams:
        def chain(length, nums, dens, *last):
            return (length, (_ONE, *map(_Rising, nums)),
                    tuple((_Rising(v),) for v in dens) + last)

        return (chain(M + N, p.A, p.D),
                chain(M, p.B, p.E, (factorial,)),
                chain(N, p.C, p.F, (factorial,)))
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
    _ANCHOR_STRIDE entries; may contain inf/nan at extreme scales.  An
    anchor that is not finite already makes the array so: then no ratio
    step is taken, and the entries between anchors stay 0."""
    anchors, steps = _indices(chain[0])
    arr = [0j] * (chain[0] + 1)
    arr[::_ANCHOR_STRIDE] = values = _fold(chain, "values", anchors)
    if all(map(cmath.isfinite, values)):
        # Python complex products round as numpy's scalar ones; numpy's
        # array complex multiply does not always
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

class _Columns:
    """The parameters of one structure group, as _chains reads them: the k
    fields as the group's ints, every other field as a complex128 column
    with one entry per grid in group order, and each KdF sequence as one
    column per position.  The factorial is a ones column, so that every
    symbol of a lane batch holds a column."""

    def __init__(self, group):
        self.cls = type(group[0])
        if self.cls is KdfParams:
            for name in ("A", "B", "C", "D", "E", "F"):
                table = np.array([getattr(p, name) for p in group],
                                 dtype=np.complex128)
                setattr(self, name, tuple(table.T))
        else:
            for name in self.cls._KS:
                setattr(self, name, getattr(group[0], name))
            for name in self.cls._FINITE:
                setattr(self, name, np.array([getattr(p, name) for p in group],
                                             dtype=np.complex128))
        self.factorial = _Rising(np.ones(len(group), dtype=np.complex128))


def _lanes(columns) -> Lanes:
    """One lane per entry of the columns, laid end to end."""
    return Lanes.of(np.concatenate(columns))


def _product_lanes(positions, kind: str, idx):
    """_product over lanes: positions hold one symbol per group each, and
    the symbols' columns laid end to end are the lanes."""
    acc = None
    for symbols in positions:
        for col in getattr(symbols[0], "lane_" + kind)(symbols, idx):
            acc = col if acc is None else acc * col
    return acc


def _fold_lanes(chains, kind: str, idx) -> Lanes:
    """_fold of chains of one structure whose symbols hold columns, in
    _fold's order."""
    nums = list(zip(*(c[1] for c in chains)))
    dens = [list(zip(*group)) for group in zip(*(c[2] for c in chains))]
    acc = _product_lanes(nums, kind, idx) or \
        Lanes.of([1 + 0j] * len(idx), row=True)
    for group in dens:
        acc = acc / _product_lanes(group, kind, idx)
    return acc


def _chain_lanes(chains, lanes: int):
    """_chain_linear of chains of one structure whose symbols hold columns,
    `lanes` entries laid end to end: the arrays as rows, one per lane, and
    the lanes _chain_linear must compute itself."""
    length = chains[0][0]
    anchors, steps = _indices(length)
    values = _fold_lanes(chains, "values", anchors)
    ratios = _fold_lanes(chains, "ratios", steps)
    shape = (lanes, length + 1)
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
    return arr, np.zeros(lanes, dtype=bool) | values.bad | ratios.bad


def _chain_key(chain):
    length, nums, dens = chain
    return (length, tuple(s.lane_key() for s in nums),
            tuple(tuple(s.lane_key() for s in group) for group in dens))


def _structure(p: SeriesParams):
    """What fixes the structure of p's chains besides the rectangle: its
    type, its integer steps and the lengths of its sequences (fields only)."""
    if type(p) is KdfParams:
        return (KdfParams,) + tuple(map(len, (p.A, p.B, p.C, p.D, p.E, p.F)))
    return (type(p),) + tuple(getattr(p, name) for name in p._KS)


# grids whose final product numpy forms as one stack: its temporaries take
# about 8 KB per 13 x 13 grid
_PRODUCT_LANES = 128


def _factor_lanes(params, M: int, N: int):
    """_chain_linear of the three chains of every p of params: W, U and V
    with one row per p, and the rows that _build_grid must build instead.

    The params of one _structure make one chain set from their _Columns.
    Chains of one structure (length, symbol kinds, t-factor steps) run as
    one batch of lanes, across groups and families."""
    arrays = [np.empty((len(params), length + 1), dtype=np.complex128)
              for length in (M + N, M, N)]
    bad = np.zeros(len(params), dtype=bool)
    alike = {}
    for g, p in enumerate(params):
        alike.setdefault(_structure(p), []).append(g)
    batches = {}
    for rows in alike.values():
        chains = _chains(_Columns([params[g] for g in rows]), M, N)
        for part, chain in enumerate(chains):
            batch = batches.setdefault(_chain_key(chain), ([], [], []))
            batch[0].extend(rows)
            batch[1].extend([part] * len(rows))
            batch[2].append(chain)
    for rows, parts, chains in batches.values():
        arr, chain_bad = _chain_lanes(chains, len(rows))
        rows, parts = np.array(rows), np.array(parts)
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
            yield p, grid if good else None


def build_grids(params, M: int, N: int) -> dict:
    """{p: grid} of the M x N grid of every distinct p in params, each
    read-only; raises nothing and touches no cache.

    The grids are built as lanes, and a lane that fails alone.  A p whose
    build raises is left out, so that its request raises the same error."""
    params = list(dict.fromkeys(params))
    grids = {}
    for p, grid in _grid_lanes(params, M, N):
        if grid is None:
            try:
                grid = _build_grid(p, M, N)
            except Exception:
                continue
        grid.flags.writeable = False
        grids[p] = grid
    return grids


# every grid request goes through this name, which a tracer may wrap.  Its
# repeats come from one command at a time: eval and sweep request one grid
# and quadcheck two (its inner KdF grid, once per check, and the direct
# series' grid), none twice; a verify_identity outside the audit requests
# its shifted instances, whose repeats fall at reuse distance 0 to 3; the
# audit's grids come from build_grids.  Four grids keep every such repeat
# and hold at most 16 MiB (512 x 512)
_grid_coeffs = lru_cache(maxsize=4)(_build_grid)


def coefficient_grid(p: SeriesParams, M: int, N: int) -> CoefficientGrid:
    """Grid of term coefficients A[m, n], 0 <= m <= M, 0 <= n <= N."""
    _require_rectangle(M, N)
    coeffs = _grid_coeffs(p, M, N)
    return CoefficientGrid(coeffs, GridProvenance(_KIND[type(p)], p, M, N))


# ---------------------------------------------------------------------------
# evaluation with anti-diagonal block diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _DiagonalPlan:
    """Anti-diagonal layout of an (M+1) x (N+1) grid, flat index m (N+1) + n
    of term (m, n) and a zero appended at flat index (M+1)(N+1).  `order`
    lists each diagonal d in turn, that zero first and then its terms in
    np.diagonal order (m increasing, flat index m N + d); diagonal d begins
    at order[starts[d]].  `rows` and `cols` give the exponents of x and y
    that each entry takes, 0 and 0 for the zeros (x^0 y^0 is exactly 1 at
    every argument, so a zero stays +0), and `m` and `n` are the exponents
    0..M and 0..N.  A rectangle holds at most _MAX_CELLS cells, so every
    index fits in an int32."""

    order: np.ndarray
    starts: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    m: np.ndarray
    n: np.ndarray


@lru_cache(maxsize=16)
def _diagonal_plan(M: int, N: int) -> _DiagonalPlan:
    m, n, d = (np.arange(size, dtype=np.int32) for size in (M + 1, N + 1,
                                                            M + N + 1))
    first = np.maximum(0, d - N)            # m of the first term of d
    lengths = np.minimum(d, M) - first + 2  # the zero and the terms
    starts = np.cumsum(lengths, dtype=np.int32) - lengths
    # entry j of diagonal d is term (first + j - 1, d - first - j + 1)
    rows = np.arange(starts[-1] + lengths[-1], dtype=np.int32) + np.repeat(
        first - starts - 1, lengths)
    cols = np.repeat(d, lengths) - rows
    rows[starts] = cols[starts] = 0
    order = rows * (N + 1) + cols
    order[starts] = (M + 1) * (N + 1)
    return _DiagonalPlan(order, starts, rows, cols, m, n)


def _in_plan_order(grid: np.ndarray, plan: _DiagonalPlan) -> np.ndarray:
    """The cells of a grid in plan order, a zero leading each diagonal."""
    # the zeros' index, one past the last cell, clips to it until replaced
    ordered = grid.take(plan.order, mode="clip")
    ordered[plan.starts] = 0
    return ordered


class _Prepared(NamedTuple):
    """A coefficient grid prepared for _sum_terms: its cells in the order of
    its _diagonal_plan, the plan's exponent indices `rows` and `cols` at
    native intp width (numpy casts int32 indices on every take, and the
    cached plan stays int32 to stay small), its diagonal `starts` and the
    exponents `m` and `n` the entries take."""

    cells: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    starts: np.ndarray
    m: np.ndarray
    n: np.ndarray


def _prepare(coeffs: np.ndarray) -> _Prepared:
    """A coefficient grid prepared for _sum_terms."""
    plan = _diagonal_plan(coeffs.shape[0] - 1, coeffs.shape[1] - 1)
    return _Prepared(_in_plan_order(coeffs, plan), plan.rows.astype(np.intp),
                     plan.cols.astype(np.intp), plan.starts, plan.m, plan.n)


def _support(grid: _Prepared, x: complex, y: complex) -> _Prepared:
    """grid for the values of _sum_points at points no larger than x and y:
    where every power of x and y is finite (_finite_powers), cut to its
    leading anti-diagonals that hold every nonzero cell, a NaN cell counting
    as nonzero, and to the exponents they take; whole otherwise.

    The cut is exact.  Past it every cell is an exact zero, so at a point
    whose powers x^m and y^n are all finite each dropped term is a zero and
    each dropped block sum, led by its +0, is +0 + 0j.  No block sum or
    running total has a -0 part (see _sum_terms), so adding those blocks
    leaves every total as it is, inf and NaN included."""
    if not (_finite_powers(x, len(grid.m) - 1)
            and _finite_powers(y, len(grid.n) - 1)):
        return grid
    nonzero = np.flatnonzero(grid.cells)
    last = nonzero[-1] if len(nonzero) else 0
    # the diagonals up to that of the last nonzero entry, and their entries;
    # diagonal d takes exponents up to d
    kept = int(np.searchsorted(grid.starts, last, side="right"))
    end = grid.starts[kept] if kept < len(grid.starts) else len(grid.cells)
    return _Prepared(grid.cells[:end], grid.rows[:end], grid.cols[:end],
                     grid.starts[:kept], grid.m[:kept], grid.n[:kept])


def _finite_powers(v: complex, top: int) -> bool:
    """Whether np.power certainly forms every power v^0 .. v^top finite.
    True when |v|^top <= 1e300: no product np.power forms on the way, by
    repeated squaring or as exp(m log v), is then much larger, far inside
    the double range, and so at every argument no larger than v.  False for
    a NaN or infinite v, and for finite v past that bound."""
    return abs(v) <= 1e300 ** (1 / max(top, 1))


def _growth(abs_blocks: list):
    """The divergence rule over the absolute sums of complete diagonals:
    the ratios of consecutive sums, their final quartile, and whether no
    ratio in that quartile is at most 1 (NaN, of overflowed sums, is not)."""
    ratios = [cur / prev if prev != 0.0 else 0.0 if cur == 0.0 else math.inf
              for prev, cur in zip(abs_blocks, abs_blocks[1:])]
    tail = ratios[-max(1, math.ceil(len(ratios) / 4)):] if ratios else []
    return ratios, tail, bool(tail) and not any(r <= 1.0 for r in tail)


def _summary(total: complex, abs_blocks: list, terms_used: int, M: int,
             N: int) -> EvaluationResult:
    """One point's result from its sum and absolute block sums."""
    # growth statistics only over complete anti-diagonals: past d = min(M, N)
    # the rectangle clips diagonals, which would fake decaying block sums
    included_abs = abs_blocks[:min(M, N) + 1]
    ratios, _, divergence_flag = _growth(included_abs)
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


# a point outside the floating range overflows its powers, terms and sums;
# its caller raises, and no point warns on its own or another's behalf
@np.errstate(over="ignore", invalid="ignore")
def _sum_terms(grid: _Prepared, xs, ys, diagnostics: bool):
    """Sums of the terms c[m, n] x^m y^n of a prepared grid at one point,
    given as two complex numbers xs and ys, or at a stack of P points,
    given as two (P, 1) complex columns; the arrays below then have a
    leading axis of points, and one point has none.

    Returns the totals, the block sums of the anti-diagonals in increasing
    total degree and, with diagnostics, their absolute block sums and the
    counts of nonzero terms (None and None without).  Each diagonal, led by
    its zero, is one np.add.reduceat segment: reduceat starts a segment from
    its first entry and adds the rest pairwise, as any np.add reduction does
    (Higham, Accuracy and Stability of Numerical Algorithms, sec. 4.2), and
    np.trace adds the same terms from np.add's identity +0.0.  So each block
    sum is bit for bit the np.trace of its diagonal of np.fliplr of the
    point's term grid, and each point of a stack sums as it does alone.  A
    support prefix (_support) gives the block sums of its own diagonals."""
    cells, rows, cols, starts, m, n = grid
    xp = np.power(xs, m, dtype=np.complex128)
    yp = np.power(ys, n, dtype=np.complex128)
    # (c x^m) y^n, formed in place
    terms = xp.take(rows, axis=-1)
    np.multiply(cells, terms, out=terms)
    np.multiply(terms, yp.take(cols, axis=-1), out=terms)
    block_sums = np.add.reduceat(terms, starts, axis=-1)
    # the blocks added left to right, as Python's sum adds them from 0 (no
    # block sum is -0.0, so starting from the first is the same), by
    # np.cumsum's ufunc without its wrapper
    totals = np.add.accumulate(block_sums, axis=-1)[..., -1]
    if not diagnostics:
        return totals, block_sums, None, None
    if len(m) == 1 < len(n):
        # np.abs rounds complex input in the last bit one way in its SIMD
        # loop and another in its scalar loop.  np.abs(np.fliplr(term grid))
        # takes the SIMD loop, except for a single row of two or more terms:
        # numpy reads that flipped view as 1-D with a negative stride, which
        # only the scalar loop takes.  Every point of a stack is read the
        # same way
        flat = terms.reshape(-1)
        abs_terms = np.abs(flat[::-1])[::-1].reshape(terms.shape)
    else:
        abs_terms = np.abs(terms)
    return (totals, block_sums, np.add.reduceat(abs_terms, starts, axis=-1),
            np.count_nonzero(abs_terms, axis=-1))


def _sum_points(grid: _Prepared, xs, ys, diagnostics: bool) -> list:
    """Results (values alone without diagnostics) of _sum_terms at its
    points, one per point; OverflowSignalError if a partial sum leaves the
    floating range."""
    totals, _, abs_blocks, counts = _sum_terms(grid, xs, ys, diagnostics)
    totals = totals.reshape(-1).tolist()
    if not all(map(cmath.isfinite, totals)):
        raise OverflowSignalError("partial sum exceeds the floating range")
    if not diagnostics:
        return totals
    M, N = len(grid.m) - 1, len(grid.n) - 1
    return [_summary(*stats, M, N) for stats in zip(
        totals, abs_blocks.reshape(len(totals), -1).tolist(),
        counts.reshape(-1).tolist())]


def _without_args(p: SeriesParams) -> SeriesParams:
    """p with x = y = 0 (p itself if so already): the grid cache key, since
    coefficients do not depend on the arguments."""
    return p if p.x == 0 and p.y == 0 else p.replace(x=0j, y=0j)


# term cells evaluate_many sums as one stack: 8 points of the default 41 x 41
# rectangle, whatever the number of points.  A stack holds a few complex
# arrays of about this many cells (226 KB each).  On a 2-core x86-64 host an
# 11 x 11 sweep took 11.2 ms one point at a time, 6.9-7.7 ms in stacks of 4
# to 16 points and 10.5 ms in stacks of 32; its traced peak grew from 0.75
# MB at 8 points to 1.09 MB at 16
_CHUNK_CELLS = 8 * 41 * 41


def _prepared_grid(p: SeriesParams, pol: TruncationPolicy):
    """p's coefficient grid for pol, requested keyed without x and y, and
    prepared for _sum_terms; a caller holds it only while it sums."""
    return _prepare(_grid_coeffs(_without_args(p), pol.max_m, pol.max_n))


def evaluate_many(p: SeriesParams, xs, ys,
                  pol: TruncationPolicy = EVAL_POLICY) -> list:
    """evaluate(p.replace(x=x, y=y), pol) for each pair of xs and ys, bit
    for bit, from one grid request; p's own arguments are not used.

    The points are summed in stacks of at most _CHUNK_CELLS term cells (one
    point at least), each reduced in one pass.  A point whose partial sum
    leaves the floating range raises OverflowSignalError, as in evaluate.
    A NaN or infinite argument is a ValueError instead: it makes a partial
    sum non-finite wherever the rectangle holds a power of it past the
    zeroth, and is looked for only then."""
    xs = np.asarray(xs, dtype=np.complex128)
    ys = np.asarray(ys, dtype=np.complex128)
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise ValueError("xs and ys must be sequences of equal length")
    if not len(xs):
        return []
    grid = _prepared_grid(p, pol)
    step = max(1, _CHUNK_CELLS // ((pol.max_m + 1) * (pol.max_n + 1)))
    xs, ys = xs[:, None], ys[:, None]
    results = []
    try:
        for i in range(0, len(xs), step):
            results += _sum_points(grid, xs[i:i + step], ys[i:i + step], True)
    except OverflowSignalError:
        # refused as divergence_diagnostic and the CLI refuse it, but only
        # once a sum has failed, so a finite call pays nothing
        for name, values in (("x", xs), ("y", ys)):
            for v in values.ravel().tolist():
                _require_finite(name, v)
        raise
    return results


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
    _require_rectangle(M, M)
    _require_finite("x", p.x)
    _require_finite("y", p.y)
    coeffs = _grid_coeffs(_without_args(p), M, M)
    abs_coeffs = np.abs(coeffs)
    # an argument near the floating range overflows the powers, terms and
    # block sums, whose NaN ratios _growth counts as growth.  Of the term
    # ratios one step along m or n, over cells with a nonzero coefficient,
    # fmax drops the NaN of an overflowed ratio times a zero argument, so no
    # maximum is NaN and the zero that leads each diagonal leaves it alone
    abs_blocks = _sum_terms(_prepare(coeffs), complex(p.x), complex(p.y),
                            True)[2].tolist()
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
    plan = _diagonal_plan(M, M)
    directional = np.maximum.reduceat(_in_plan_order(best, plan), plan.starts)

    # ratios over complete anti-diagonals only (d <= M on the square)
    ratios, tail, divergence_flag = _growth(abs_blocks[:M + 1])
    # a NaN ratio counts as growth here too, as it does in _growth
    monotone = (divergence_flag and len(tail) >= 2
                and all(not b <= a for a, b in zip(tail, tail[1:])))
    return DivergenceReport(block_ratios=tuple(ratios),
                            directional_max_ratios=tuple(directional.tolist()),
                            divergence_flag=divergence_flag,
                            monotone_growth=monotone)
