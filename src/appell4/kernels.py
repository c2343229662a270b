"""Scalar numeric kernels: complex log-gamma and shifted factorials.

Everything here is plain double precision.  The shifted factorial
(Pochhammer symbol) (a)_l = a (a+1) ... (a+l-1) is computed by a direct
product for short lengths and through the complex log-gamma for long ones,
with an explicit fallback near the negative-integer lattice where the
log-gamma difference loses meaning.  `pochhammer_prefixes` gives (a)_l for
a nondecreasing list of lengths from one running product, each value bit
for bit the one-length result; `pochhammer` is its one-length case, so the
direct-product policy lives in one place.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

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
    """Exact zero test: (a)_l = 0 iff a is a real exact integer in
    {0, -1, ..., -(l-1)}."""
    if l == 0 or a.imag != 0.0:
        return False
    re = a.real
    if re != math.floor(re):
        return False
    return -(l - 1) <= re <= 0.0


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
