"""Scalar numeric kernels: complex log-gamma and shifted factorials.

Everything here is plain double precision.  The shifted factorial
(Pochhammer symbol) (a)_l = a (a+1) ... (a+l-1) is computed by a direct
product for short lengths and through the complex log-gamma for long ones,
with an explicit fallback near the negative-integer lattice where the
log-gamma difference loses meaning.  `pochhammer_prefixes` gives (a)_l for
a nondecreasing list of lengths from one running product, each value bit
for bit the one-length result; `pochhammer` is its one-length case, so the
direct-product policy lives in one place.

`Lanes` carries one Python complex number per lane as float64 arrays of real
and imaginary parts, and computes with CPython's scalar complex rules, so
that a batch of lanes gives each lane's scalar result bit for bit (numpy's
own complex multiply and divide round differently).  Lanes carry complex
numbers only; the one mixed rule they repeat, a complex plus an int, is
checked against the running interpreter at import.  `pochhammer_prefix_lanes`
is `pochhammer_prefixes` over lanes; a lane whose scalar routine would leave
the direct product is marked for the scalar routine instead.  One exact
lattice predicate, `_is_exact_nonpositive_int`, has an array form
(`_nonpositive_int_lanes`) and underlies both zero tests of (a)_l.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import OverflowSignalError, PoleError

# Direct products are exact enough (and cheap) up to this length; beyond it
# the log route avoids O(l) work per call and intermediate overflow.
_DIRECT_LIMIT = 64

# Largest magnitude allowed in a direct product before switching to logs.
_RENORM_LIMIT = 1e250

# log(2*pi)/2
_HALF_LOG_TWO_PI = 0.9189385332046727

# Lanczos approximation, g = 7, 9 terms.
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _is_exact_nonpositive_int(z: complex) -> bool:
    """True when z sits exactly on {0, -1, -2, ...}."""
    if z.imag != 0.0:
        return False
    re = z.real
    return re <= 0.0 and re == math.floor(re)


def _nonpositive_int_lanes(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """_is_exact_nonpositive_int elementwise over the real and imaginary
    parts of finite values."""
    return (im == 0.0) & (re <= 0.0) & (re == np.floor(re))


def _log_sin_pi(z: complex) -> complex:
    """log(sin(pi z)), stable for large |Im z| where sin itself overflows."""
    ipz = 1j * math.pi * z
    if z.imag > 0.0:
        # sin(pi z) = e^{-i pi z} (e^{2 i pi z} - 1) / (2i), |e^{2 i pi z}| < 1
        return -ipz + cmath.log(cmath.exp(2 * ipz) - 1.0) - cmath.log(2j)
    # mirror form, |e^{-2 i pi z}| <= 1
    return ipz + cmath.log(1.0 - cmath.exp(-2 * ipz)) - cmath.log(2j)


def log_gamma(z: complex) -> complex:
    """Principal-value complex log-gamma (Lanczos, reflection for Re z < 0.5).

    Raises PoleError on the nonpositive integers.
    """
    z = complex(z)
    if _is_exact_nonpositive_int(z):
        raise PoleError(f"log_gamma pole at z = {z}")
    if z.real < 0.5:
        # reflection: log G(z) = log pi - log sin(pi z) - log G(1 - z)
        return math.log(math.pi) - _log_sin_pi(z) - log_gamma(1.0 - z)
    w = z - 1.0
    acc = complex(_LANCZOS[0])
    for i in range(1, len(_LANCZOS)):
        acc += _LANCZOS[i] / (w + i)
    t = w + 7.5
    return _HALF_LOG_TWO_PI + (w + 0.5) * cmath.log(t) - t + cmath.log(acc)


def gamma(z: complex) -> complex:
    """Gamma function via exp(log_gamma); raises OverflowSignalError if the
    magnitude exceeds the floating range."""
    lg = log_gamma(z)
    if lg.real > 709.0:
        raise OverflowSignalError(f"gamma({z}) exceeds double range")
    return cmath.exp(lg)


@dataclass(frozen=True)
class LogPochhammer:
    """log of (a)_l together with an exact zero flag.

    When is_zero is True the product contains a factor equal to 0 and the
    log field is meaningless (set to 0).
    """

    log: complex
    is_zero: bool


def _poch_is_zero(a: complex, l: int) -> bool:
    """Exact zero test: (a)_l = 0 iff a is one of 0, -1, ..., -(l-1)."""
    return l != 0 and _is_exact_nonpositive_int(a) and -(l - 1) <= a.real


def _poch_is_zero_lanes(re: np.ndarray, im: np.ndarray, l: int) -> np.ndarray:
    """_poch_is_zero elementwise over the real and imaginary parts of finite
    values."""
    return (l != 0) & _nonpositive_int_lanes(re, im) & (-(l - 1) <= re)


def _near_nonpositive_lattice(z: complex) -> bool:
    """True when z lies within distance 0.5 of {0, -1, -2, ...}."""
    nearest = round(z.real)
    if nearest > 0:
        return False
    return math.hypot(z.real - nearest, z.imag) < 0.5


def _direct_log_sum(a: complex, l: int) -> complex:
    return sum(cmath.log(a + j) for j in range(l))


def log_pochhammer(a: complex, l: int) -> LogPochhammer:
    """log (a)_l with exact zero detection.

    Computed as log_gamma(a + l) - log_gamma(a) away from the
    negative-integer lattice; within distance 0.5 of it the log-gamma
    difference is replaced by a direct sum of factor logs.
    """
    a = complex(a)
    if l < 0:
        raise ValueError("pochhammer length must be nonnegative")
    if l == 0:
        return LogPochhammer(0.0 + 0.0j, False)
    if _poch_is_zero(a, l):
        return LogPochhammer(0.0 + 0.0j, True)
    if _near_nonpositive_lattice(a) or _near_nonpositive_lattice(a + l):
        return LogPochhammer(_direct_log_sum(a, l), False)
    return LogPochhammer(log_gamma(a + l) - log_gamma(a), False)


def pochhammer_prefixes(a: complex, lengths) -> list:
    """[pochhammer(a, l) for l in lengths] from one running product.

    lengths must be nonnegative and must not decrease.  The direct product
    (a+0) (a+1) ... is carried from one length to the next, so each value is
    the prefix that a product started from 1 computes, bit for bit, and the
    whole list costs O(max length) multiplies.  An exact zero of (a)_l
    short-circuits; once a partial product leaves the renormalised range,
    that length and every longer one take the log route, as does every
    length beyond _DIRECT_LIMIT.  Raises OverflowSignalError when a value
    exceeds the double range.
    """
    a = complex(a)
    out = []
    acc, done, direct, last = 1.0 + 0.0j, 0, True, 0
    for l in lengths:
        if l < last:
            raise ValueError("pochhammer lengths must be nonnegative and "
                             "nondecreasing")
        last = l
        if l == 0:
            out.append(1.0 + 0.0j)
            continue
        if _poch_is_zero(a, l):
            out.append(0.0 + 0.0j)
            continue
        if direct and l <= _DIRECT_LIMIT:
            while done < l:
                acc *= a + done
                done += 1
                if not (abs(acc.real) < _RENORM_LIMIT
                        and abs(acc.imag) < _RENORM_LIMIT):
                    direct = False
                    break
            if direct:
                out.append(acc)
                continue
        lp = log_pochhammer(a, l)
        if lp.log.real > 709.0:
            raise OverflowSignalError(
                f"pochhammer({a}, {l}) exceeds double range")
        out.append(cmath.exp(lp.log))
    return out


def pochhammer(a: complex, l: int) -> complex:
    """Shifted factorial (a)_l = a (a+1) ... (a+l-1), with (a)_0 = 1.

    Direct product for l <= 64; exp(log_pochhammer) beyond that.  Raises
    OverflowSignalError when the value exceeds the double range.
    """
    return pochhammer_prefixes(a, (l,))[0]


def factorial(m: int) -> complex:
    """m! through the same product machinery ((1)_m)."""
    return pochhammer(1.0, m)


# ---------------------------------------------------------------------------
# lanes: CPython's scalar complex arithmetic over float64 arrays
# ---------------------------------------------------------------------------

class Lanes:
    """One Python complex number per lane, with CPython's scalar rounding.

    `re` and `im` hold the real and imaginary parts per lane.  Arrays
    broadcast, so a lane's values may run along a second axis.  `bad` (False
    for none) marks, per lane along the first axis, the lanes whose scalar
    computation raises or takes another route: an exact zero divisor, a NaN
    divisor, or a pochhammer_prefix_lanes lane that the scalar routine does
    not compute by the direct product.  Their values are meaningless.
    """

    __slots__ = ("re", "im", "bad")

    def __init__(self, re, im, bad=False):
        self.re, self.im, self.bad = re, im, bad

    @classmethod
    def of(cls, values, row: bool = False) -> "Lanes":
        """The lanes of a sequence of complex numbers: one per lane as a
        column, or with row, one row that every lane shares."""
        arr = np.array(values, dtype=np.complex128)
        arr = arr[None, :] if row else arr[:, None]
        return cls(arr.real, arr.imag)

    def __neg__(self) -> "Lanes":
        return Lanes(-self.re, -self.im, self.bad)

    def add_int(self, ints) -> "Lanes":
        """z + i for integers i: the real parts add i, and the imaginary
        parts add 0.0, which turns -0.0 into +0.0 (`_LANES_EXACT` says
        whether the running interpreter does)."""
        return Lanes(self.re + ints, self.im + 0.0, self.bad)

    def __mul__(self, other: "Lanes") -> "Lanes":
        ar, ai, br, bi = self.re, self.im, other.re, other.im
        return Lanes(ar * br - ai * bi, ar * bi + ai * br,
                     self.bad | other.bad)

    def __truediv__(self, other: "Lanes") -> "Lanes":
        """_Py_c_quot: Smith's two branches, chosen by |br| >= |bi|; a zero
        divisor (ZeroDivisionError) and a NaN divisor (a NaN quotient) mark
        their lanes."""
        ar, ai, br, bi = self.re, self.im, other.re, other.im
        first = np.abs(br) >= np.abs(bi)
        second = np.abs(bi) >= np.abs(br)
        ratio = bi / br
        denom = br + bi * ratio
        re1, im1 = (ar + ai * ratio) / denom, (ai - ar * ratio) / denom
        ratio = br / bi
        denom = br * ratio + bi
        re2, im2 = (ar * ratio + ai) / denom, (ai * ratio - ar) / denom
        bad = ((first & (br == 0.0)) | ~(first | second)).any(axis=-1)
        return Lanes(np.where(first, re1, re2), np.where(first, im1, im2),
                     self.bad | other.bad | bad)


def _interpreter_adds_ints_as_complex() -> bool:
    """True when this interpreter computes a complex z plus an int i as
    z + complex(i, 0.0), as Lanes.add_int does (CPython 3.14 adds i to the
    real part alone)."""
    zs = (complex(1.0, -0.0), complex(-0.0, math.inf), complex(math.inf, 1.0),
          complex(-2.5, 0.0))
    return all(repr(z + i) == repr(z + complex(i, 0.0))
               for z in zs for i in (1, 0, -3))


_LANES_EXACT = _interpreter_adds_ints_as_complex()


def pochhammer_prefix_lanes(a: Lanes, lengths) -> Lanes:
    """pochhammer_prefixes(a, lengths) of every lane of the column a, as
    columns in the order of lengths.

    Lengths up to _DIRECT_LIMIT come from one running product over all
    lanes; a longer length takes the scalar log route lane by lane.  Marked
    bad are the lanes where (a)_l is an exact zero, where a partial product
    leaves the renormalised range, and where a log-route value raises: the
    scalar routine short-circuits, switches route or raises there.
    """
    re, im = a.re[:, 0], a.im[:, 0]
    lanes = len(re)
    top = lengths[-1] if lengths else 0
    bad = _poch_is_zero_lanes(re, im, top) | a.bad
    direct = max([l for l in lengths if l <= _DIRECT_LIMIT], default=0)
    # the running product after 0, 1, ..., direct factors (a + 0) (a + 1) ...
    acc_re = np.empty((lanes, direct + 1))
    acc_im = np.empty((lanes, direct + 1))
    acc_re[:, 0], acc_im[:, 0] = 1.0, 0.0
    f_im = im + 0.0
    for done in range(direct):
        pr, pi, f_re = acc_re[:, done], acc_im[:, done], re + done
        acc_re[:, done + 1] = pr * f_re - pi * f_im
        acc_im[:, done + 1] = pr * f_im + pi * f_re
    bad |= ~((np.abs(acc_re[:, 1:]) < _RENORM_LIMIT)
             & (np.abs(acc_im[:, 1:]) < _RENORM_LIMIT)).all(axis=1)
    direct_cols = [min(l, direct) for l in lengths]
    out_re, out_im = acc_re[:, direct_cols], acc_im[:, direct_cols]
    for col, l in enumerate(lengths):
        if l <= _DIRECT_LIMIT:
            continue
        for lane in np.flatnonzero(~bad):
            try:
                v = pochhammer(complex(re[lane], im[lane]), l)
            except Exception:
                bad[lane] = True
            else:
                out_re[lane, col], out_im[lane, col] = v.real, v.imag
    return Lanes(out_re, out_im, bad)
