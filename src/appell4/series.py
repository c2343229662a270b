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
list and shared by every build (`_Factorial`).  The fold order fixes the
rounding of every grid built alone, signed zeros included: numerators
multiply left to right from the first symbol (a t-factor's sign is a factor
of its own); each denominator group is multiplied out and divided by once
(F41/F42: (c)_m m! together; KdF: each D, E, F entry and the factorial
alone); logs add the numerator logs from the first and subtract each
denominator log in turn; only KdF products start from 1.  Every factor is a
Python complex, the signs, that 1 and the factorial's symbol (1)_i
included.  A grid is built by the linear route (ratio recurrences from the
anchors) unless a factor array or the product leaves the double range;
then by the log route, which reuses the ratios the linear attempt folded.
A linear attempt whose anchors are not all finite takes no ratio step.

Grid requests (`_grid_coeffs`) go through a small least-recently-used cache
keyed by (params, M, N).  `build_stacks`, the grid supply of every catalog
verdict, builds many grids of one rectangle at once for a caller that
holds them, without the cache, as lanes: numpy arrays with one row per
grid.  A params may hold its fields as columns, one entry per draw
(`param_columns`); its grids are then a stack, one per entry.  The grids
of one structure make one set of chains from their parameters read as
columns (`_columns`), one complex128 entry per grid.
Each factor array is a leading 1 and one `np.cumprod` of its step ratios,
which each symbol gives as an array (`column_ratios`), and the grid is the
broadcast product.  A lane's bytes do not depend on the other lanes, and
they are not `_build_grid`'s: a running product rounds once per step and
stays within a few units of 1e-15 of the exact coefficients on audit-like
grids, where the scalar chains drift to about 1e-13.  A grid that is not
finite as a lane is flagged; its request builds it alone with the scalar
engine.

`evaluate` sums one point; `evaluate_many` sums one grid at many arguments
(x, y), as the CLI sweep needs.  A call requests its grid once, keyed
without x and y, and prepares it once (`_prepare`): its cells are gathered
into the order of `_diagonal_plan`, a zero leading each anti-diagonal.  The
plan, built once per shape, also holds the exponents of x and y that each
entry takes.  The one summation kernel, `_sum_terms`, forms a point's terms
in that order, sums each anti-diagonal as one `reduceat` segment, which
numpy adds pairwise as it adds any reduction, and adds the blocks left to
right.  Points are summed in stacks of at most _CHUNK_CELLS term cells, a
lone point as a stack of one, and the points of a sweep's |x| row share
their factors c x^m; each point sums as it does alone, bit for bit.  The
divergence rule then judges the points of a call in array passes of a
bounded size (`_judge`).  `quadrature` sums its inner grid once per check
(`_sum_terms`) and takes the block sums as the coefficients of a
polynomial in its integration variable, which each node evaluates by
Horner's rule.  A truncation rectangle holds at most _MAX_CELLS cells.
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
from .kernels import (_is_exact_nonpositive_int, _log_prefixes, factorial,
                      pochhammer, pochhammer_prefixes)
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
    dataclass hash, computed once into a slot that vars(p) does not show.

    An instance made by param_columns holds columns: it is not hashed, and
    its replace checks every entry of a changed column, raising the error
    of the first entry that fails."""

    __slots__ = ("__dict__", "_hash")

    def __post_init__(self):
        self._check(self._ALL)

    def _check(self, names) -> None:
        d, checked = self.__dict__, names.__contains__
        if isinstance(d["a"], np.ndarray):
            return self._check_columns(names)
        for name in filter(checked, self._COMPLEX):
            d[name] = complex(d[name])
        for name in filter(checked, self._FINITE):
            _require_finite(name, d[name])
        for name in filter(checked, self._KS):
            d[name] = _require_k(name, d[name])
        for name in filter(checked, ("c1", "c2")):
            _require_off_pole(name, d[name])
        object.__setattr__(self, "_hash", hash(self._values(d)))

    def _check_columns(self, names) -> None:
        """_check of the changed columns: the first entry of a column that
        fails a check raises that check's error."""
        d, checked = self.__dict__, names.__contains__
        for name in filter(checked, self._FINITE):
            v = d[name]
            if not np.isfinite(v).all():
                _require_finite(name, complex(v[~np.isfinite(v)][0]))
        for name in filter(checked, self._KS):
            d[name] = _require_k(name, d[name])
        for name in filter(checked, ("c1", "c2")):
            c = d[name]
            if (c.imag == 0.0).any():
                pole = (c.imag == 0.0) & (c.real <= 0.0) & \
                    (c.real == np.floor(c.real))
                if pole.any():
                    _require_off_pole(name, complex(c[pole][0]))

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


def param_columns(params):
    """The F41Params or F42Params in params, which share their k fields, as
    one instance of their type whose every other field is a complex128
    column shaped (len(params), 1, 1), one entry per instance in order.
    It is checked as each entry was, and has no hash."""
    first = params[0]
    cols = object.__new__(type(first))
    cols.__dict__.update(first.__dict__)
    table = np.array([p._values(p.__dict__) for p in params],
                     dtype=np.complex128)
    for i, name in enumerate(first._FIELDS):
        if name not in first._KS:
            cols.__dict__[name] = table[:, i, None, None]
    return cols


def param_entry(cols, j: int):
    """Entry j of an instance that holds columns (param_columns), as an
    instance of its own."""
    return type(cols)(**{name: v if name in cols._KS else complex(v[j].item())
                         for name, v in cols.__dict__.items()})


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
# its logs with exact zero flags.  Over an array of steps, `column_ratios`
# gives its ratios as one numpy array, a row per grid where the symbol holds
# a column of parameters and one row for all where it holds a number.

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

    def column_ratios(self, steps):
        return np.add.outer(self.v, steps)


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

    def column_ratios(self, steps):
        k = self.k
        return reduce(np.multiply, [np.add.outer(-self.t, steps * k + j)
                                    for j in range(k)],
                      np.full(len(steps), _sign_pow(k)))


class _One:
    """The leading 1 of the Kampe de Feriet products."""

    def ratios(self, idx):
        return [[1.0 + 0.0j] * len(idx)]

    values = ratios

    def logs(self, idx):
        return [0.0 + 0.0j] * len(idx), [False] * len(idx)

    def column_ratios(self, steps):
        return np.ones(len(steps), dtype=np.complex128)


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
    (length, numerator symbols, denominator groups).  For the _columns of a
    structure group, each symbol but the factorial holds a column with one
    entry per grid."""
    cls, factorial = type(p), _FACTORIAL
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
    """The grid of p on [0..M] x [0..N], built alone: every grid request,
    and every lane that is not finite."""
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
# lanes: many grids built at once as numpy arrays, one row per grid
# ---------------------------------------------------------------------------

def _columns(group):
    """The parameters of one structure group as one instance of their type,
    as _chains reads it: the k fields as the group's ints, every other
    field but x and y as a complex128 column with one entry per lane, the
    entries of each member in group order (one for a number, each of a
    param_columns column in turn), and each KdF sequence as one column per
    position.  It makes no check and has no hash."""
    cls = type(group[0])
    cols = object.__new__(cls)
    if cls is KdfParams:
        for name in ("A", "B", "C", "D", "E", "F"):
            table = np.array([getattr(p, name) for p in group],
                             dtype=np.complex128)
            cols.__dict__[name] = tuple(table.T)
        return cols
    for name in cls._KS:
        cols.__dict__[name] = getattr(group[0], name)
    for name in cls._FINITE:
        cols.__dict__[name] = np.concatenate(
            [getattr(p, name) for p in group], axis=None)
    return cols


def _chain_rows(chain, lanes: int) -> np.ndarray:
    """The factor array of a chain whose symbols hold columns, one row per
    lane: a leading 1, then the running product (np.cumprod) of its step
    ratios, the numerator symbols' ratio columns multiplied left to right
    and divided by each denominator group's product in turn.  An exact zero
    ratio stays an exact zero of the array.  The products are np.multiply
    calls, which keep their operand order: the * operator may reuse a large
    temporary right operand as its output and multiply b * a, which numpy
    can round apart from a * b, so a lane's row would depend on how many
    lanes there are."""
    length, nums, dens = chain
    steps = np.arange(length)

    def product(symbols):
        return reduce(np.multiply, [s.column_ratios(steps) for s in symbols])

    ratios = product(nums) if nums else 1.0
    for group in dens:
        ratios = np.divide(ratios, product(group))
    rows = np.empty((lanes, length + 1), dtype=np.complex128)
    rows[:, 0] = 1.0
    np.cumprod(np.broadcast_to(ratios, (lanes, length)), axis=1,
               out=rows[:, 1:])
    return rows


def _structure(p: SeriesParams):
    """What fixes the structure of p's chains besides the rectangle: its
    type, its integer steps and the lengths of its sequences (fields only)."""
    if type(p) is KdfParams:
        return (KdfParams,) + tuple(map(len, (p.A, p.B, p.C, p.D, p.E, p.F)))
    return (type(p),) + tuple(getattr(p, name) for name in p._KS)


# grids whose final product numpy forms as one stack: its temporaries take
# about 8 KB per 13 x 13 grid
_PRODUCT_LANES = 128


def build_stacks(params, M: int, N: int) -> list:
    """The M x N grids of each p in params as lanes: per p, a stack with one
    grid per entry of its columns (one for a number, see param_columns),
    and a flag per grid, True where it is finite.  Touches no cache.

    The params of one _structure make one chain set from their _columns,
    and each chain one _chain_rows; the final product is numpy's, stacked,
    as _build_grid forms it grid by grid.  A grid that is not finite as a
    lane is left to its request (coefficient_grid), which builds it alone.
    The rectangle is checked as coefficient_grid checks it, once there is
    a grid to build."""
    alike = {}
    for i, p in enumerate(params):
        alike.setdefault(_structure(p), []).append(i)
    if alike:
        _require_rectangle(M, N)
    idx = np.arange(M + 1)[:, None] + np.arange(N + 1)[None, :]
    out = [None] * len(params)
    for members in alike.values():
        group = [params[i] for i in members]
        sizes = [np.size(getattr(p, "a", 0)) for p in group]
        lanes = sum(sizes)
        coeffs = np.empty((lanes, M + 1, N + 1), dtype=np.complex128)
        with np.errstate(all="ignore"):
            W, U, V = (_chain_rows(chain, lanes)
                       for chain in _chains(_columns(group), M, N))
            for lo in range(0, lanes, _PRODUCT_LANES):
                hi = lo + _PRODUCT_LANES
                np.multiply(np.multiply(W[lo:hi, idx], U[lo:hi, :, None]),
                            V[lo:hi, None, :], out=coeffs[lo:hi])
        finite = np.isfinite(coeffs).all(axis=(1, 2))
        lo = 0
        for i, size in zip(members, sizes):
            out[i] = coeffs[lo:lo + size], finite[lo:lo + size]
            lo += size
    return out


def build_grids(params, M: int, N: int) -> dict:
    """{p: grid} of the M x N grid of every distinct p in params that is
    finite as a lane (build_stacks), each read-only."""
    params = list(dict.fromkeys(params))
    grids = {}
    for p, (stack, finite) in zip(params, build_stacks(params, M, N)):
        if finite[0]:
            grid = stack[0]
            grid.flags.writeable = False
            grids[p] = grid
    return grids


# every grid request goes through this name, which a tracer may wrap.  Its
# repeats come from one command at a time: eval and sweep request one grid
# and quadcheck two (its inner KdF grid, once per check, and the direct
# series' grid), none twice; verify_identity and the audit take their grids
# from build_stacks and request only those not finite as lanes.  Four grids
# keep every such repeat and hold at most 16 MiB (512 x 512)
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


def _growth(abs_blocks: np.ndarray):
    """The divergence rule over the absolute sums of complete diagonals, a
    (P, K) array with one row per point: the ratios of consecutive sums
    (a zero over a zero is 0, anything else over a zero inf), their final
    quartile, and whether no ratio in that quartile is at most 1, each per
    row.  NaN, of overflowed sums, is not at most 1: the least ratio of a
    quartile is taken with NaN passed over, inf if all are NaN."""
    prev, cur = abs_blocks[:, :-1], abs_blocks[:, 1:]
    with np.errstate(all="ignore"):
        ratios = cur / prev
    zero = prev == 0.0
    ratios[zero] = math.inf
    ratios[zero & (cur == 0.0)] = 0.0
    count = ratios.shape[1]
    if not count:
        return ratios, ratios, np.zeros(len(ratios), dtype=bool)
    tail = ratios[:, count - max(1, math.ceil(count / 4)):]
    return ratios, tail, np.fmin.reduce(tail, axis=1, initial=math.inf) > 1.0


def _judge(totals: np.ndarray, abs_blocks: np.ndarray, counts: np.ndarray,
           M: int, N: int) -> list:
    """The results of P points from their sums (P,), absolute block sums
    (P, min(M, N) + 1 or more, of which the rule reads the first
    min(M, N) + 1) and nonzero term counts (P,): the divergence rule runs
    once over all points, with the IEEE operations of one point judged
    alone, in its order.  OverflowSignalError if a sum left the floating
    range."""
    values = totals.tolist()
    if not all(map(cmath.isfinite, values)):
        raise OverflowSignalError("partial sum exceeds the floating range")
    # growth statistics only over complete anti-diagonals: past d = min(M, N)
    # the rectangle clips diagonals, which would fake decaying block sums
    included = abs_blocks[:, :min(M, N) + 1]
    ratios, _, flags = _growth(included)
    if ratios.shape[1]:
        # the largest ratio as Python's max takes it: a leading NaN stays,
        # and a later one is passed over
        top = np.maximum(ratios[:, 0], np.fmax.reduce(
            ratios[:, 1:], axis=1, initial=-math.inf)).tolist()
        last_ratios = ratios[:, -1].tolist()
    else:
        top, last_ratios = [0.0] * len(values), [math.inf] * len(values)
    # the geometric tail past the last complete diagonal
    tails = [0.0 if last == 0.0 else last * rho / (1.0 - rho) if rho < 1.0
             else math.inf
             for last, rho in zip(included[:, -1].tolist(), last_ratios)]
    return list(map(EvaluationResult, values, counts.tolist(), tails,
                    flags.tolist(), top))


# a point outside the floating range overflows its powers, terms and sums;
# its caller raises, and no point warns on its own or another's behalf
@np.errstate(over="ignore", invalid="ignore")
def _sum_terms(grid: _Prepared, xs, ys, diagnostics: bool):
    """Sums of the terms c[m, n] x^m y^n of a prepared grid at one point,
    given as two complex numbers xs and ys, or at a stack of P points,
    given as a (P, 1) complex column ys and either a like column xs or one
    complex xs shared by the stack; the arrays below then have a leading
    axis of points, and one point has none.

    Returns the totals, the block sums of the anti-diagonals in increasing
    total degree and, with diagnostics, their absolute block sums and the
    counts of nonzero terms (None and None without).  Each diagonal, led by
    its zero, is one np.add.reduceat segment: reduceat starts a segment from
    its first entry and adds the rest pairwise, as any np.add reduction does
    (Higham, Accuracy and Stability of Numerical Algorithms, sec. 4.2), and
    np.trace adds the same terms from np.add's identity +0.0.  So each block
    sum is bit for bit the np.trace of its diagonal of np.fliplr of the
    point's term grid, and each point of a stack sums as it does alone."""
    cells, rows, cols, starts, m, n = grid
    xp = np.power(xs, m, dtype=np.complex128)
    yp = np.power(ys, n, dtype=np.complex128)
    # (c x^m) y^n: c x^m once for a shared x, then times the gathered y^n
    # in place.  numpy's complex multiply rounds a * b and b * a apart, so
    # each product keeps its operand order and its ufunc call: `a * temp`
    # may run as temp *= a
    cx = xp.take(rows, axis=-1)
    np.multiply(cells, cx, out=cx)
    terms = yp.take(cols, axis=-1)
    np.multiply(cx, terms, out=terms)
    del cx  # as large as the terms for a column of x: not kept beside them
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
    # np.count_nonzero along an axis, without its dtype checks
    return (totals, block_sums, np.add.reduceat(abs_terms, starts, axis=-1),
            np.add.reduce(abs_terms != 0.0, axis=-1, dtype=np.intp))


def _without_args(p: SeriesParams) -> SeriesParams:
    """p with x = y = 0 (p itself if so already): the grid cache key, since
    coefficients do not depend on the arguments."""
    return p if p.x == 0 and p.y == 0 else p.replace(x=0j, y=0j)


# term cells evaluate_many sums as one stack: 8 points of the default 41 x 41
# rectangle, whatever the number of points.  A stack holds a few complex
# arrays of about this many cells (226 KB each).  On a 2-core x86-64 host an
# 11 x 11 sweep (a stack within one |x| row) took 8.0 ms of CPU one point at
# a time, 4.4 ms in stacks of 4, 4.0 ms in stacks of 8 and 3.5 ms in stacks
# of 11 to 32 points (a row's 11 at most); its traced peak grew from 0.55 MB
# at 8 points to 0.71 MB at 11
_CHUNK_CELLS = 8 * 41 * 41


def _prepared_grid(p: SeriesParams, pol: TruncationPolicy):
    """p's coefficient grid for pol, requested keyed without x and y, and
    prepared for _sum_terms; a caller holds it only while it sums."""
    return _prepare(_grid_coeffs(_without_args(p), pol.max_m, pol.max_n))


def evaluate_many(p: SeriesParams, xs, ys,
                  pol: TruncationPolicy = EVAL_POLICY) -> list:
    """evaluate(p.replace(x=x, y=y), pol) at many arguments, bit for bit,
    from one grid request; p's own arguments are not used.  The arguments
    are the pairs of two sequences xs and ys of equal length, or each x of
    an (X, 1) column xs with each y of a sequence ys, in row-major order (x
    by x, each with every y).

    The points are summed in stacks of at most _CHUNK_CELLS term cells (one
    point at least), each reduced in one pass; a stack of the column form
    holds y values of one x, whose factors c x^m of the terms it forms
    once.  The points are judged in array passes over their absolute block
    sums, each of up to _CHUNK_CELLS of them.  A point whose partial sum
    leaves the floating range raises OverflowSignalError, as in evaluate,
    once its pass is judged.  A NaN or infinite argument is a ValueError instead: it makes
    a partial sum non-finite wherever the rectangle holds a power of it
    past the zeroth, and is looked for only then."""
    xs = np.asarray(xs, dtype=np.complex128)
    ys = np.asarray(ys, dtype=np.complex128)
    if ys.ndim != 1 or xs.shape != ys.shape and xs.shape[1:] != (1,):
        raise ValueError("xs and ys must be sequences of equal length, or "
                         "a column and a sequence")
    if not xs.size or not ys.size:
        return []
    grid = _prepared_grid(p, pol)
    M, N = pol.max_m, pol.max_n
    step = max(1, _CHUNK_CELLS // ((M + 1) * (N + 1)))
    column = ys[:, None]
    if xs.ndim == 1:
        stacks = [(xs[i:i + step, None], column[i:i + step])
                  for i in range(0, len(ys), step)]
    else:
        stacks = [(x, column[i:i + step]) for x in xs.ravel().tolist()
                  for i in range(0, len(ys), step)]
    # the points judged in one array pass: their absolute sums of complete
    # diagonals, the only block sums the rule reads, fill at most
    # _CHUNK_CELLS doubles (an 11 x 11 sweep of 41 x 41 is one pass), so
    # neither memory nor the sums before a failed one grow with the points
    width = min(M, N) + 1
    points = ys.size * (xs.size if xs.ndim == 2 else 1)
    batch = min(points, max(step, _CHUNK_CELLS // width))
    totals = np.empty(batch, dtype=np.complex128)
    included = np.empty((batch, width))
    counts = np.empty(batch, dtype=np.intp)
    results, end = [], 0
    try:
        for x, y in stacks:
            if end + len(y) > batch:
                results += _judge(totals[:end], included[:end], counts[:end],
                                  M, N)
                end = 0
            start, end = end, end + len(y)
            totals[start:end], _, abs_blocks, counts[start:end] = \
                _sum_terms(grid, x, y, True)
            included[start:end] = abs_blocks[:, :width]
        return results + _judge(totals[:end], included[:end], counts[:end],
                                M, N)
    except OverflowSignalError:
        # refused as divergence_diagnostic and the CLI refuse it, but only
        # once a sum has failed, so a finite call pays nothing
        for name, values in (("x", xs), ("y", ys)):
            for v in values.ravel().tolist():
                _require_finite(name, v)
        raise


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
                            True)[2]
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
    ratios, tail, flags = _growth(abs_blocks[None, :M + 1])
    divergence_flag, tail = bool(flags[0]), tail[0]
    # a NaN ratio counts as growth here too, as it does in _growth
    monotone = (divergence_flag and len(tail) >= 2
                and not (tail[1:] <= tail[:-1]).any())
    return DivergenceReport(block_ratios=tuple(ratios[0].tolist()),
                            directional_max_ratios=tuple(directional.tolist()),
                            divergence_flag=divergence_flag,
                            monotone_growth=monotone)
