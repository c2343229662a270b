"""Scalar numeric kernels: complex log-gamma and shifted factorials.

Everything here is plain double precision.  The shifted factorial
(Pochhammer symbol) (a)_l = a (a+1) ... (a+l-1) is computed by a direct
product for short lengths and through the complex log-gamma for long ones,
with an explicit fallback near the negative-integer lattice where the
log-gamma difference loses meaning.  `pochhammer_prefixes` gives (a)_l for
a nondecreasing list of lengths from one running product, each value bit
for bit the one-length result; `pochhammer` is its one-length case, so the
direct-product policy lives in one place.  `_log_prefixes` is its log
counterpart: one log_gamma(a) per list and one carried direct log sum near
the lattice, the logs and their exact zero flags as two lists, with no
object per length.  `pochhammer_prefixes`, the grid engine and
`log_pochhammer`, its one-length case as a `LogPochhammer`, read those
lists.  A length enters from outside only through `pochhammer` and
`log_pochhammer`, which check it: an int or a numpy integer, never a bool,
and not negative; any other raises ValueError.  The prefix functions read
the nondecreasing int lengths their callers build unchecked.  One exact
lattice predicate, `_is_exact_nonpositive_int`, underlies every zero test
of (a)_l.
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
# the terms after the first, with their indices: coefficient i over w + i
_LANCZOS_TERMS = tuple(enumerate(_LANCZOS))[1:]


def _is_exact_nonpositive_int(z: complex) -> bool:
    """True when z sits exactly on {0, -1, -2, ...}."""
    if z.imag != 0.0:
        return False
    re = z.real
    return re <= 0.0 and re == math.floor(re)


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
    for i, coeff in _LANCZOS_TERMS:
        acc += coeff / (w + i)
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


def _near_nonpositive_lattice(z: complex) -> bool:
    """True when z lies within distance 0.5 of {0, -1, -2, ...}."""
    nearest = round(z.real)
    if nearest > 0:
        return False
    return math.hypot(z.real - nearest, z.imag) < 0.5


def _check_length(l) -> None:
    """ValueError unless the length l is an int (a numpy integer too, a bool
    not) and not negative."""
    if type(l) is not int and (isinstance(l, bool) or not isinstance(
            l, (int, np.integer))) or l < 0:
        raise ValueError("a pochhammer length must be a nonnegative "
                         f"integer, got {l!r}")


def _log_prefixes(a: complex, lengths):
    """The logs of (a)_l for l in lengths and their exact zero flags, as two
    lists; a flagged log is 0.

    Whether a is an exact lattice point is tested once.  log_gamma(a) is
    computed once, at the first length that takes the log-gamma route.
    Near the lattice the direct sum of factor logs, added left to right
    from the int 0 as Python's sum adds on 3.11, is carried from one length
    to the next, so each entry is the sum a separate call computes.  The
    lengths are nonnegative ints and do not decrease."""
    logs, zeros = [], []
    lattice = _is_exact_nonpositive_int(a)
    near_a = lg_a = None
    acc, done = 0, 0
    for l in lengths:
        if l == 0 or lattice and -(l - 1) <= a.real:
            logs.append(0j)
            zeros.append(bool(l))
            continue
        zeros.append(False)
        if near_a is None:
            near_a = _near_nonpositive_lattice(a)
        # a point at real part 0.5 or more is not near the lattice
        if near_a or (a.real + l < 0.5
                      and _near_nonpositive_lattice(a + l)):
            while done < l:
                acc = acc + cmath.log(a + done)
                done += 1
            logs.append(acc)
            continue
        if lg_a is None:
            lg_a = log_gamma(a)
        logs.append(log_gamma(a + l) - lg_a)
    return logs, zeros


def log_pochhammer(a: complex, l: int) -> LogPochhammer:
    """log (a)_l with exact zero detection: _log_prefixes of one length."""
    _check_length(l)
    logs, zeros = _log_prefixes(complex(a), (l,))
    return LogPochhammer(logs[0], zeros[0])


def pochhammer_prefixes(a: complex, lengths) -> list:
    """[pochhammer(a, l) for l in lengths] from one running product.

    lengths are nonnegative ints and do not decrease.  The direct product
    (a+0) (a+1) ... is carried from one length to the next, so each value
    is the prefix that a product started from 1 computes, bit for bit, and
    the whole list costs O(max length) multiplies.  An exact zero of (a)_l
    short-circuits; once a partial product leaves the renormalised range,
    that length and every longer one take the log route (_log_prefixes),
    as does every length beyond _DIRECT_LIMIT.  OverflowSignalError is
    raised at the first value that exceeds the double range.
    """
    a = complex(a)
    lattice = _is_exact_nonpositive_int(a)
    out = []
    acc, done = 1.0 + 0.0j, 0
    lengths = iter(lengths)
    for l in lengths:
        if l == 0:
            out.append(1.0 + 0.0j)
            continue
        if lattice and -(l - 1) <= a.real:
            out.append(0.0 + 0.0j)
            continue
        if l <= _DIRECT_LIMIT:
            while done < l:
                acc *= a + done
                done += 1
                if not (abs(acc.real) < _RENORM_LIMIT
                        and abs(acc.imag) < _RENORM_LIMIT):
                    break
            else:
                out.append(acc)
                continue
        # this length and every later one leave the direct product
        rest = [l, *lengths]
        for l, log, zero in zip(rest, *_log_prefixes(a, rest)):
            if zero:
                out.append(0.0 + 0.0j)
                continue
            if log.real > 709.0:
                raise OverflowSignalError(
                    f"pochhammer({a}, {l}) exceeds double range")
            out.append(cmath.exp(log))
        break
    return out


def pochhammer(a: complex, l: int) -> complex:
    """Shifted factorial (a)_l = a (a+1) ... (a+l-1), with (a)_0 = 1.

    Direct product for l <= 64; exp(log_pochhammer) beyond that.  Raises
    OverflowSignalError when the value exceeds the double range.
    """
    _check_length(l)
    return pochhammer_prefixes(a, (l,))[0]


def factorial(m: int) -> complex:
    """m! through the same product machinery ((1)_m)."""
    return pochhammer(1.0, m)
