"""Oracle tests for the scalar numeric kernels.

Expected values are frozen literals (40-digit mpmath computations, rounded to
double) plus independent runtime cross-checks against mpmath and against
direct product loops.
"""

import cmath
import math
import random
import struct
from operator import mul as operator_mul, truediv as operator_truediv

import mpmath as mp
import pytest

import numpy as np

from appell4 import kernels
from appell4.errors import OverflowSignalError, PoleError
from appell4.kernels import (
    Lanes,
    LogPochhammer,
    factorial,
    gamma,
    log_gamma,
    log_pochhammer,
    pochhammer,
    pochhammer_prefix_lanes,
    pochhammer_prefixes,
)


def rel(actual, expected):
    expected = complex(expected)
    scale = max(abs(expected), 1e-300)
    return abs(complex(actual) - expected) / scale


# log branches may legitimately differ by 2*pi*i*k; compare modulo that.
def rel_mod_branch(actual, expected):
    diff = complex(actual) - complex(expected)
    k = round(diff.imag / (2 * math.pi))
    diff -= 2j * math.pi * k
    scale = max(abs(complex(expected)), 1.0)
    return abs(diff) / scale


class TestLogGamma:
    # frozen mpmath literals
    CASES = [
        (0.5 + 0.0j, 0.5723649429247001 + 0j),
        (3.7 + 1.2j, 1.209632153003244 + 1.4270217020402787j),
        (-2.3 + 0.4j, -0.40520869521992325 - 8.456233662870943j),
        (1e6 + 0.0j, 12815504.569147611 + 0j),
        (0.5 - 300.0j, -470.3199595052643 - 1411.1348812858391j),
        (-7.5 + 0.0j, -8.404537371451598 - 25.132741228718345j),
    ]

    @pytest.mark.parametrize("z,expected", CASES)
    def test_frozen_literals(self, z, expected):
        assert rel_mod_branch(log_gamma(z), expected) < 1e-12

    def test_against_mpmath_random(self):
        rng = random.Random(7)
        mp.mp.dps = 30
        for _ in range(100):
            z = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
            if abs(z.imag) < 1e-3 and z.real <= 0.5:
                continue
            ref = mp.loggamma(mp.mpc(z.real, z.imag))
            assert rel_mod_branch(log_gamma(z), complex(ref)) < 1e-12

    def test_pole_raises(self):
        for z in (0.0, -1.0, -2.0, -7.0):
            with pytest.raises(PoleError):
                log_gamma(z)

    def test_large_argument(self):
        # |z| up to 1e6 keeps ~1e-13 relative accuracy
        mp.mp.dps = 30
        for z in (1e6 + 0j, 12345.5 - 2345.25j, -1000.5 + 7j):
            ref = complex(mp.loggamma(mp.mpc(z.real, z.imag)))
            assert rel_mod_branch(log_gamma(z), ref) < 1e-12


class TestGamma:
    def test_frozen(self):
        assert rel(gamma(1.5), 0.886226925452758 + 0j) < 1e-13
        assert rel(gamma(2.5 + 1j), 0.7747621045510836 + 0.7076312043795926j) < 1e-13

    def test_positive_integers(self):
        assert rel(gamma(5.0), 24.0) < 1e-14


class TestPochhammer:
    def test_spec_examples(self):
        assert pochhammer(3.0, 2) == pytest.approx(12.0)
        assert pochhammer(-2.0, 4) == 0.0
        # direct-product loop comparison at 1e-12
        a = 0.5 + 0.5j
        loop = 1.0 + 0.0j
        for j in range(30):
            loop *= a + j
        assert rel(pochhammer(a, 30), loop) < 1e-12

    def test_frozen_literals(self):
        assert rel(pochhammer(0.5 + 0.5j, 30),
                   -3.3096807756758217e+31 + 2.7328149041581684e+31j) < 1e-12
        assert rel(pochhammer(-2.5, 7), -12.3046875 + 0j) < 1e-13
        # l = 100 exercises the log route
        assert rel(pochhammer(1.25 - 2j, 100),
                   -1.2590551540404204e+159 - 9.464945486799647e+158j) < 1e-11
        # near the negative lattice in real part, log route with fallback
        assert rel(pochhammer(-0.3 + 0.1j, 80),
                   -5.785104079919442e+115 - 1.3935931380530168e+115j) < 1e-11

    def test_empty_product(self):
        assert pochhammer(123.4, 0) == 1.0

    def test_zero_detection_exact_only(self):
        assert pochhammer(-5.0, 6) == 0.0
        assert pochhammer(-5.0, 5) != 0.0  # factors stop at -1
        assert pochhammer(-5.0 + 1e-13j, 6) != 0.0  # not exactly real
        assert pochhammer(-5.0000000001, 6) != 0.0  # not exactly integral

    def test_step_recurrence_invariant(self):
        # (a)_{l+1} = (a)_l * (a + l), relative 1e-13 for |a| <= 10, l <= 40
        rng = random.Random(11)
        for _ in range(50):
            a = complex(rng.uniform(-10, 10), rng.uniform(-3, 3))
            if abs(a.imag) < 1e-6:
                a += 0.37j
            val = pochhammer(a, 0)
            for l in range(40):
                val = val * (a + l)
                assert rel(pochhammer(a, l + 1), val) < 1e-13

    def test_multiplication_theorem(self):
        # (alpha)_{k m} = k^{k m} * prod_{i=0}^{k-1} ((alpha + i)/k)_m, rel 1e-11
        rng = random.Random(13)
        for k in (1, 2, 3):
            for _ in range(20):
                alpha = complex(rng.uniform(-4, 4), rng.uniform(-2, 2))
                if abs(alpha.imag) < 1e-6:
                    alpha += 0.29j
                for m in range(11):
                    lhs = pochhammer(alpha, k * m)
                    rhs = complex(k) ** (k * m)
                    for i in range(k):
                        rhs *= pochhammer((alpha + i) / k, m)
                    assert rel(lhs, rhs) < 1e-11

    def test_log_vs_direct(self):
        # exp(log_pochhammer) matches pochhammer to 1e-12
        rng = random.Random(17)
        for _ in range(60):
            a = complex(rng.uniform(-6, 6), rng.uniform(-4, 4))
            if abs(a.imag) < 1e-6:
                a += 0.41j
            l = rng.randrange(1, 50)
            lp = log_pochhammer(a, l)
            assert isinstance(lp, LogPochhammer)
            assert not lp.is_zero
            assert rel(cmath.exp(lp.log), pochhammer(a, l)) < 1e-12

    def test_log_pochhammer_zero_flag(self):
        lp = log_pochhammer(-3.0, 5)
        assert lp.is_zero
        assert log_pochhammer(-3.0, 3).is_zero is False

    def test_log_pochhammer_frozen(self):
        lp = log_pochhammer(1.25 - 2j, 100)
        assert rel_mod_branch(lp.log, 366.56537511050755 - 8.780157875358j) < 1e-12

    def test_lattice_fallback_accuracy(self):
        # points within 0.5 of the nonpositive lattice use the direct log sum
        mp.mp.dps = 30
        for a in (-4.2 + 0.05j, -0.1 - 0.2j, -9.9 + 0.3j):
            for l in (5, 37, 90):
                ref = complex(mp.rf(mp.mpc(a.real, a.imag), l))
                assert rel(pochhammer(a, l), ref) < 1e-11

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            pochhammer(1.0, -1)


class TestFactorial:
    def test_small(self):
        for m, want in [(0, 1.0), (1, 1.0), (5, 120.0), (10, 3628800.0)]:
            assert rel(factorial(m), want) < 1e-13

    def test_large_matches_math(self):
        assert rel(factorial(120), math.factorial(120)) < 1e-11


def scalar_pochhammer(a, l):
    """The one-length direct-product loop that pochhammer_prefixes replaced,
    kept as its reference: exact zero first, a fresh product for l <= 64
    that gives up past 1e250, the log route otherwise."""
    a = complex(a)
    if l == 0:
        return 1.0 + 0.0j
    if a.imag == 0.0 and a.real == math.floor(a.real) \
            and -(l - 1) <= a.real <= 0.0:
        return 0.0 + 0.0j
    if l <= 64:
        acc = 1.0 + 0.0j
        for j in range(l):
            acc *= a + j
            if not (abs(acc.real) < 1e250 and abs(acc.imag) < 1e250):
                break
        else:
            return acc
    lp = log_pochhammer(a, l)
    if lp.log.real > 709.0:
        raise OverflowSignalError(f"pochhammer({a}, {l}) exceeds double range")
    return cmath.exp(lp.log)


def exact(z):
    """The bytes of a complex value, so that signed zeros and NaN payloads
    count."""
    return struct.pack("<dd", z.real, z.imag)


def prefix_corpus(count=4000):
    """Seeded (a, nondecreasing lengths): lattice integers with either zero
    sign, values near the lattice, magnitudes up to 1e120 whose products
    pass 1e250, and lengths up to 140 on both sides of 64."""
    rng = random.Random(20261018)
    for _ in range(count):
        a = rng.choice((
            lambda: complex(-rng.randint(0, 70), rng.choice((0.0, -0.0))),
            lambda: complex(rng.choice((0.0, -0.0)), rng.choice((0.0, -0.0))),
            lambda: complex(-rng.randint(0, 70)
                            + rng.choice((1e-12, -1e-12, 1e-9, 0.5)),
                            rng.choice((0.0, -0.0, 1e-300, -1e-13))),
            lambda: complex(rng.choice((1e60, -1e60, 1e80, 3e83, 1e120))
                            * rng.uniform(0.5, 2.0),
                            rng.choice((0.0, -0.0, rng.uniform(-1e100, 1e100)))),
            lambda: complex(rng.uniform(-90, 90), rng.uniform(-40, 40)),
            lambda: complex(rng.uniform(-3, 3), rng.choice((0.0, -0.0))),
        ))()
        top = rng.choice((8, 64, 70, 140))
        lengths = sorted(rng.randint(0, top) for _ in range(rng.randint(1, 12)))
        yield a, lengths


class TestPochhammerPrefixes:
    def test_equals_the_scalar_loop_bit_for_bit(self):
        seen = {"zero": 0, "direct": 0, "renorm": 0, "long": 0,
                "overflow": 0}
        for a, lengths in prefix_corpus():
            want = []
            try:
                for l in lengths:
                    want.append(exact(scalar_pochhammer(a, l)))
            except OverflowSignalError:
                seen["overflow"] += 1
                with pytest.raises(OverflowSignalError):
                    pochhammer_prefixes(a, lengths)
                continue
            assert [exact(v) for v in pochhammer_prefixes(a, lengths)] == want
            assert [exact(pochhammer(a, l)) for l in lengths] == want
            seen["zero"] += exact(0j) in want
            seen["direct"] += max(lengths) <= 64
            # |a| >= 5e59 passes 1e250 within five factors
            seen["renorm"] += abs(a) >= 5e59 and any(5 <= l <= 64
                                                      for l in lengths)
            seen["long"] += max(lengths) > 64
        # the corpus reaches every branch
        assert min(seen.values()) >= 50, seen

    def test_renorm_break_takes_every_longer_length_to_logs(self):
        # the product leaves the direct range at length 3; a later factor
        # near zero cannot bring length 4 back to the direct product
        a = complex(1e90)
        values = pochhammer_prefixes(a, [1, 2, 3, 4])
        assert [exact(v) for v in values] == \
            [exact(scalar_pochhammer(a, l)) for l in (1, 2, 3, 4)]

    def test_lengths_must_not_decrease(self):
        with pytest.raises(ValueError):
            pochhammer_prefixes(1.5, [3, 2])
        with pytest.raises(ValueError):
            pochhammer_prefixes(1.5, [-1])


def lane_operands(count=20000):
    """Seeded floats: signed zeros, subnormals, magnitudes from 1e-300 to
    1e300 of either sign, inf, NaN and ordinary values."""
    rng = random.Random(271828)
    special = (0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, math.inf,
               -math.inf, math.nan, 1.0, -1.0)
    out = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.3:
            out.append(rng.choice(special))
        elif kind < 0.65:
            out.append(rng.choice((1.0, -1.0)) * rng.uniform(1.0, 10.0)
                       * 10.0 ** rng.randint(-300, 299))
        else:
            out.append(rng.uniform(-8.0, 8.0))
    return out


def lane_values(z: Lanes):
    """The lanes of a column as Python complex numbers."""
    return [complex(r, i) for r, i in zip(z.re[:, 0].tolist(),
                                          z.im[:, 0].tolist())]


def lane_bad(z: Lanes, count):
    return np.broadcast_to(z.bad, (count,)).tolist()


def python_op(op, x, y):
    try:
        return op(x, y)
    except ZeroDivisionError:
        return None


@pytest.mark.skipif(not kernels._LANES_EXACT,
                    reason="this interpreter does not add an int to a "
                    "complex as complex(i, 0.0)")
class TestLanesAgainstTheInterpreter:
    """Each lane op against the running interpreter's scalar op, by repr:
    CPython 3.14 changed the mixed int/complex rule, so a stored table would
    not do."""

    def operands(self):
        f = lane_operands()
        zs = [complex(a, b) for a, b in zip(f[0::4], f[1::4])]
        ws = [complex(a, b) for a, b in zip(f[2::4], f[3::4])]
        return zs, ws

    def check(self, op, xs, ys):
        """Lanes equal the interpreter's results by repr; for a quotient, a
        lane is marked exactly where the divisor is zero (ZeroDivisionError)
        or has a NaN part (_Py_c_quot's NaN branch).  The number of lanes
        compared."""
        with np.errstate(all="ignore"):
            got = op(Lanes.of(xs), Lanes.of(ys))
        bad = lane_bad(got, len(xs))
        compared = 0
        for x, y, g, b in zip(xs, ys, lane_values(got), bad):
            want = python_op(op, x, y)
            d = complex(y)
            if op is operator_truediv and (
                    want is None or math.isnan(d.real) or math.isnan(d.imag)):
                assert b, (x, y)
                continue
            assert not b and repr(g) == repr(want), (x, y, g, want)
            compared += 1
        return compared

    def test_mul(self):
        zs, ws = self.operands()
        assert self.check(operator_mul, zs, ws) == len(zs)

    def test_div(self):
        zs, ws = self.operands()
        ws[::50] = [complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0),
                    complex(-0.0, -0.0)] * (len(ws[::50]) // 4) + \
            [0j] * (len(ws[::50]) % 4)
        assert self.check(operator_truediv, zs, ws) > len(zs) // 2

    def test_add_int(self):
        zs, _ = self.operands()
        ints = np.array([(i % 201) - 100 for i in range(len(zs))])
        with np.errstate(all="ignore"):
            got = Lanes.of(zs).add_int(ints[:, None])
        assert [repr(g) for g in lane_values(got)] == \
            [repr(z + int(i)) for z, i in zip(zs, ints)]

    def test_zero_divisor_marks_exactly_its_lanes(self):
        num = Lanes.of([1 + 2j, 3.0 - 1j, 0j, -2.5 + 0j])
        den = Lanes.of([0j, complex(-0.0, 0.0), 2.0 + 0j, complex(0.0, -0.0)])
        with np.errstate(all="ignore"):
            assert (num / den).bad.tolist() == [True, True, False, True]

    def test_negation(self):
        zs, _ = self.operands()
        with np.errstate(all="ignore"):
            negated = -Lanes.of(zs)
        assert [repr(g) for g in lane_values(negated)] == \
            [repr(-z) for z in zs]


def leaves_the_direct_route(a, lengths):
    """Whether pochhammer_prefixes(a, lengths) takes anything but the
    direct product up to _DIRECT_LIMIT: an exact zero, a partial product
    out of the renormalised range, or a longer length that raises."""
    if kernels._poch_is_zero(a, lengths[-1]):
        return True
    acc = 1.0 + 0.0j
    for d in range(max([l for l in lengths if l <= kernels._DIRECT_LIMIT],
                       default=0)):
        acc *= a + d
        if not (abs(acc.real) < kernels._RENORM_LIMIT
                and abs(acc.imag) < kernels._RENORM_LIMIT):
            return True
    try:
        pochhammer_prefixes(a, lengths)
    except OverflowSignalError:
        return True
    return False


class TestPochhammerPrefixLanes:
    def test_equals_the_scalar_routine_or_marks_the_lane(self):
        corpus = list(prefix_corpus(1500))
        values = [a for a, _ in corpus]
        seen = {"lane": 0, "marked": 0, "long": 0}
        for _, lengths in corpus[:16]:
            with np.errstate(all="ignore"):
                got = pochhammer_prefix_lanes(Lanes.of(values), lengths)
            for lane, a in enumerate(values):
                marked = leaves_the_direct_route(a, lengths)
                assert got.bad[lane] == marked, (a, lengths)
                if marked:
                    seen["marked"] += 1
                    continue
                seen["lane"] += 1
                seen["long"] += lengths[-1] > kernels._DIRECT_LIMIT
                assert [exact(complex(r, i)) for r, i in
                        zip(got.re[lane], got.im[lane])] == \
                    [exact(v) for v in pochhammer_prefixes(a, lengths)]
        assert min(seen.values()) >= 1000, seen


def lattice_corpus(count=20000):
    """Seeded values: the nonpositive integers with either zero sign in
    either part, large negative integers, values within 1e-12 of the
    lattice, subnormal parts and ordinary values."""
    rng = random.Random(314159)
    signed_zero = (0.0, -0.0)
    for _ in range(count):
        yield rng.choice((
            lambda: complex(-rng.randint(0, 40), rng.choice(signed_zero)),
            lambda: complex(rng.choice(signed_zero), rng.choice(signed_zero)),
            lambda: complex(-float(rng.randint(1, 2 ** 60)),
                            rng.choice(signed_zero)),
            lambda: complex(-rng.randint(0, 40) + rng.choice(
                (1e-12, -1e-12, 5e-324, -5e-324, 2.0 ** -40)),
                rng.choice(signed_zero)),
            lambda: complex(-rng.randint(0, 40), rng.choice(
                (5e-324, -5e-324, 1e-300, 1e-12))),
            lambda: complex(rng.choice((5e-324, -5e-324, 2.2e-308)),
                            rng.choice(signed_zero)),
            lambda: complex(rng.randint(1, 40), rng.choice(signed_zero)),
            lambda: complex(rng.uniform(-40.0, 40.0), rng.uniform(-1.0, 1.0)),
        ))()


class TestLatticePredicate:
    """The scalar predicates and their array forms are one predicate."""

    def test_array_form_agrees(self):
        zs = list(lattice_corpus())
        re = np.array([z.real for z in zs])
        im = np.array([z.imag for z in zs])
        mask = kernels._nonpositive_int_lanes(re, im).tolist()
        assert mask == [kernels._is_exact_nonpositive_int(z) for z in zs]
        assert 2000 < sum(mask) < len(zs) - 2000
        for l in (0, 1, 2, 7, 41, 10 ** 6, 2 ** 62):
            got = np.broadcast_to(kernels._poch_is_zero_lanes(re, im, l),
                                  re.shape).tolist()
            assert got == [kernels._poch_is_zero(z, l) for z in zs], l

    def test_zero_test_is_the_lattice_test_bounded_by_the_length(self):
        for z in lattice_corpus(4000):
            for l in (0, 1, 3, 40):
                want = (l > 0 and z.imag == 0.0 and z.real <= 0.0
                        and z.real.is_integer() and z.real > -l)
                assert kernels._poch_is_zero(z, l) == want, (z, l)
