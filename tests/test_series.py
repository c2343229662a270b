"""Series engine tests: frozen oracles, grid recurrence vs scratch, the six
Kampe de Feriet reductions, truncation policies, and growth diagnostics."""

import cmath
import copy
import dataclasses
import hashlib
import importlib.util
import math
import os
import pickle
import random
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import appell4.catalog as catalog
import appell4.kernels as kernels
import appell4.series as series
from appell4.errors import OverflowSignalError, PoleError, UnsupportedKError
from appell4.series import (
    ConvergenceRegionWarning,
    CoefficientGrid,
    F41Params,
    F42Params,
    KdfParams,
    TruncationPolicy,
    coefficient_grid,
    convergence_region,
    divergence_diagnostic,
    eval_f41,
    eval_f42,
    eval_f4_classic,
    eval_kdf,
    evaluate,
    evaluate_many,
    reduce_to_kdf,
    scratch_coefficient_f41,
    scratch_coefficient_f42,
    scratch_coefficient_kdf,
)
from test_mpmath_oracle import truth_error


def rel(actual, expected):
    return abs(actual - expected) / max(abs(expected), 1e-300)


def grid_rel(actual: np.ndarray, expected: np.ndarray) -> float:
    scale = np.maximum(np.abs(expected), 1e-300)
    return float(np.max(np.abs(actual - expected) / scale))


P41 = F41Params(a=1.1 + 0.2j, b=0.9, c1=1.3, c2=1.7, t1=2.6, t2=1.4,
                k1=2, k2=1, x=0.15, y=0.1)
P42 = F42Params(a=1.1 + 0.2j, b=0.9, c1=1.3, c2=1.7, t=2.6, k=2,
                x=0.15, y=0.1)


class TestParams:
    def test_pole_validation(self):
        with pytest.raises(PoleError):
            F41Params(1, 1, 0.0, 2, 1, 1, 1, 1, 0.1, 0.1)
        with pytest.raises(PoleError):
            F41Params(1, 1, 2, -3.0, 1, 1, 1, 1, 0.1, 0.1)
        with pytest.raises(PoleError):
            F42Params(1, 1, 2, -1, 1.5, 1, 0.1, 0.1)
        with pytest.raises(PoleError):
            KdfParams(A=(1,), E=(1.5,), F=(-2.0,))

    def test_near_pole_accepted(self):
        F41Params(1, 1, 1e-9, 2, 1, 1, 1, 1, 0.1, 0.1)
        KdfParams(E=(-2 + 1e-12j,))

    def test_k_validation(self):
        with pytest.raises(ValueError):
            F41Params(1, 1, 2, 2, 1, 1, -1, 0, 0.1, 0.1)
        with pytest.raises(ValueError):
            F41Params(1, 1, 2, 2, 1, 1, 1.5, 0, 0.1, 0.1)
        with pytest.raises(ValueError):
            F42Params(1, 1, 2, 2, 1, -2, 0.1, 0.1)

    def test_replace(self):
        q = P41.replace(a=P41.a + 1, t1=P41.t1 - 2)
        assert q.a == P41.a + 1 and q.t1 == P41.t1 - 2 and q.b == P41.b

    def test_hashable(self):
        assert hash(P41) == hash(P41.replace())
        assert len({P42, P42.replace(), P42.replace(t=0.5)}) == 2


def random_params(rng):
    """A random F41 or F42 point with complex, float and int values."""
    def value():
        return rng.choice([complex(rng.uniform(-3, 3), rng.uniform(-3, 3)),
                           rng.uniform(-3, 3), rng.randint(1, 4)])
    k = [rng.randint(0, 3) for _ in range(2)]
    if rng.random() < 0.5:
        return F41Params(*(value() for _ in range(6)), *k, value(), value())
    return F42Params(*(value() for _ in range(5)), k[0], value(), value())


def random_changes(rng, p):
    """One to four fields of p with new values of every accepted type."""
    names = rng.sample(p._FIELDS, rng.randint(1, 4))
    return {name: rng.choice([rng.randint(0, 5), np.int64(rng.randint(0, 5))])
            if name.startswith("k") else
            rng.choice([complex(rng.uniform(-3, 3), rng.uniform(-3, 3)),
                        rng.uniform(-3, 3), rng.randint(1, 9),
                        np.float64(rng.uniform(-3, 3)), getattr(p, name) + 1])
            for name in names}


def replaced(replace, p, changes):
    """The instance replace(p, **changes), or its error's type and text."""
    try:
        return replace(p, **changes)
    except Exception as err:  # noqa: BLE001 - compared as type and text
        return type(err), str(err)


class TestParamInstances:
    """F41Params/F42Params.replace checks only the fields it changes, and
    each instance hashes once; both agree with dataclasses.replace."""

    @staticmethod
    def same(q, r):
        assert type(q) is type(r)
        if isinstance(q, tuple):  # an error: type and message
            assert q == r
            return
        for name in q._FIELDS:
            a, b = getattr(q, name), getattr(r, name)
            assert type(a) is type(b) and repr(a) == repr(b), name
        if all(v == v for v in vars(q).values()):  # a NaN equals no copy
            assert q == r and hash(q) == hash(r)
        assert hash(q) == hash(dataclasses.astuple(q))
        assert list(vars(q)) == list(q._FIELDS)

    def test_replace_equals_dataclasses_replace(self):
        rng = random.Random(11)
        for _ in range(400):
            p = random_params(rng)
            changes = random_changes(rng, p)
            self.same(replaced(type(p).replace, p, changes),
                      replaced(dataclasses.replace, p, changes))

    @pytest.mark.parametrize("changes", [
        {"c1": 0}, {"c1": -2}, {"c2": -2.0 + 0j}, {"a": math.nan},
        {"t1": math.inf}, {"k1": -1}, {"k1": True}, {"k2": 1.5},
        {"z": 1}, {"a": 1, "z": 2, "w": 3}, {"a": "x"}, {"a": None},
        {"c1": 0, "a": math.nan}, {"c2": -1, "k1": -1},
        {"k2": -1, "t2": math.nan}, {"b": None, "a": "x"},
        {"c2": 0, "c1": -3}, {"x": math.nan}])
    def test_errors_are_those_of_dataclasses_replace(self, changes):
        p = F41Params(1.3 + 0.2j, 0.7, 2.1, 1.6 - 0.3j, 2.4, 5.5, 3, 1,
                      0.1, 0.2)
        want = replaced(dataclasses.replace, p, changes)
        self.same(replaced(F41Params.replace, p, changes), want)
        f42 = {("t" if name.startswith("t") else "k" if name.startswith("k")
                else name): v for name, v in changes.items()}
        q = F42Params(1.3 + 0.2j, 0.7, 2.1, 1.6 - 0.3j, 2.4, 2, 0.1, 0.2)
        self.same(replaced(F42Params.replace, q, f42),
                  replaced(dataclasses.replace, q, f42))

    @pytest.mark.parametrize("changes,err,text", [
        ({"c1": 0}, PoleError, "c1 = 0j is a nonpositive integer"),
        ({"c1": -2}, PoleError, "c1 = (-2+0j) is a nonpositive integer"),
        ({"a": math.nan}, ValueError, "a = (nan+0j) is not finite"),
        ({"k1": -1}, ValueError, "k1 must be a nonnegative integer, got -1"),
        ({"k1": True}, ValueError, "k1 must be a nonnegative integer, got "
         "True"),
        ({"z": 0}, TypeError, "F41Params.__init__() got an unexpected "
         "keyword argument 'z'"),
        ({"c1": 0, "a": math.nan}, ValueError, "a = (nan+0j) is not finite"),
        ({"c2": 0, "k2": -1}, ValueError, "k2 must be a nonnegative"),
        ({"b": None, "a": "x"}, ValueError, "complex() arg is a malformed"),
    ])
    def test_error_kinds(self, changes, err, text):
        # in __post_init__'s order: conversion, finiteness, k, poles
        with pytest.raises(err) as raised:
            P41.replace(**changes)
        assert str(raised.value).startswith(text)

    def test_values_are_converted(self):
        rng = random.Random(3)
        for _ in range(100):
            p = random_params(rng)
            q = p.replace(**random_changes(rng, p))
            for r in (p, q):
                assert [type(getattr(r, name)) for name in r._FIELDS] == \
                    [int if name in r._KS else complex for name in r._FIELDS]

    def test_every_field_stays_frozen(self):
        rng = random.Random(5)
        for _ in range(20):
            p = random_params(rng)
            q = p.replace(**random_changes(rng, p)) if rng.random() < 0.5 \
                else p
            hash(q)
            for name in q._FIELDS + ("_hash",):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(q, name, 1)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(q, name)

    def test_copy_and_pickle_keep_value_and_hash(self):
        for p in (P41, P42, P42.replace(k=np.int64(3))):
            for q in (copy.copy(p), copy.deepcopy(p),
                      pickle.loads(pickle.dumps(p))):
                self.same(q, p)

    def test_structure_reads_the_fields(self):
        # the lane structure of a grid: type, k steps, KdF sequence lengths
        kdf = KdfParams(A=(1.3, 0.2), C=(0.5,), E=(1.6,), F=(2.5, 0.5))
        for p in (P41, P42, kdf):
            before = series._structure(p)
            hash(p)
            assert series._structure(p) == before
            if not isinstance(p, KdfParams):
                assert series._structure(p.replace(a=p.a + 1)) == before
        assert series._structure(P41) == (F41Params, 2, 1)
        assert series._structure(P42) == (F42Params, 2)
        assert series._structure(kdf) == (KdfParams, 2, 0, 1, 0, 1, 2)


def term_f41(p, m, n):
    return scratch_coefficient_f41(p, m, n) * p.x ** m * p.y ** n


def term_f42(p, m, n):
    return scratch_coefficient_f42(p, m, n) * p.x ** m * p.y ** n


class TestTerms:
    def test_term_f41_frozen(self):
        # mpmath double-sum oracle, 40 digits
        expected = -0.001544518303556459 - 0.0007030641233684206j
        assert rel(term_f41(P41, 3, 2), expected) < 1e-13

    def test_term_f42_frozen(self):
        expected = -0.8478739972074469 - 0.3859519095376923j
        assert rel(term_f42(P42, 2, 3), expected) < 1e-13

    def test_term_zero_indices(self):
        assert term_f41(P41, 0, 0) == 1.0 + 0.0j
        assert term_f42(P42, 0, 0) == 1.0 + 0.0j

    def test_terminating_term_vanishes(self):
        p = P41.replace(t1=4.0, k1=1)
        assert term_f41(p, 5, 0) == 0.0
        assert term_f41(p, 4, 0) != 0.0


class TestGrid:
    def test_grid_matches_scratch_f41(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(25):
            vals = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                    for _ in range(6)]
            a, b, c1, c2, t1, t2 = vals
            p = F41Params(a, b, c1 + 3.5, c2 + 3.5, t1, t2,
                          int(rng.integers(0, 4)), int(rng.integers(0, 4)),
                          0.1, 0.1)
            g = coefficient_grid(p, 20, 20).coeffs
            for _ in range(10):
                m = int(rng.integers(0, 21))
                n = int(rng.integers(0, 21))
                worst = max(worst, rel(g[m, n],
                                       scratch_coefficient_f41(p, m, n)))
        assert worst < 1e-12

    def test_grid_matches_scratch_f42(self):
        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(25):
            vals = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                    for _ in range(5)]
            a, b, c1, c2, t = vals
            p = F42Params(a, b, c1 + 3.5, c2 + 3.5, t,
                          int(rng.integers(0, 4)), 0.1, 0.1)
            g = coefficient_grid(p, 20, 20).coeffs
            for _ in range(10):
                m = int(rng.integers(0, 21))
                n = int(rng.integers(0, 21))
                worst = max(worst, rel(g[m, n],
                                       scratch_coefficient_f42(p, m, n)))
        assert worst < 1e-12

    def test_grid_matches_scratch_kdf(self):
        p = KdfParams(A=(1.2,), B=(0.7,), C=(0.9,), D=(2.2,), E=(1.4,),
                      F=(1.6,), x=0.15, y=0.2)
        g = coefficient_grid(p, 15, 15).coeffs
        worst = max(rel(g[m, n], scratch_coefficient_kdf(p, m, n))
                    for m in range(0, 16, 3) for n in range(0, 16, 3))
        assert worst < 1e-12

    def test_log_fallback_path(self):
        # linear W overflows here; the log route must still match scratch
        p = F42Params(1.5, 2.5, 3.1, 2.7, 2.9 + 1.9j, 3, 0.1, 0.1)
        g = coefficient_grid(p, 20, 20).coeffs
        assert np.isfinite(g).all()
        assert rel(g[20, 20], scratch_coefficient_f42(p, 20, 20)) < 1e-12

    def test_grid_overflow_signal(self):
        p = F42Params(1.5, 2.5, 3.1, 2.7, 50.5, 3, 0.1, 0.1)
        with pytest.raises(OverflowSignalError):
            coefficient_grid(p, 40, 40)

    def test_provenance_and_shape(self):
        g = coefficient_grid(P41, 6, 9)
        assert isinstance(g, CoefficientGrid)
        assert g.coeffs.shape == (7, 10)
        assert g.max_m == 6 and g.max_n == 9
        assert g.provenance.kind == "F41"
        assert g.provenance.params == P41
        assert not g.coeffs.flags.writeable

    def test_terminating_zeros(self):
        p = F41Params(1.2, 0.7, 1.5, 1.9, 4, 4, 1, 1, 0.3, 0.2)
        g = coefficient_grid(p, 10, 10).coeffs
        assert g[5, 0] == 0 and g[0, 5] == 0 and g[7, 7] == 0
        assert g[4, 4] != 0


class TestEval:
    def test_classic_f4_frozen(self):
        r = eval_f4_classic(1.1, 0.8, 1.7, 2.3, 0.08, 0.05)
        assert rel(r.value, 1.067786582252617) < 1e-14
        assert not r.divergence_flag
        assert r.tail_estimate < 1e-20

    def test_classic_f4_complex_frozen(self):
        p = F41Params(1.1 + 0.3j, 0.8 - 0.2j, 1.7 + 0.1j, 2.3, 0, 0, 0, 0,
                      0.06 + 0.02j, 0.04 - 0.01j)
        r = eval_f41(p)
        assert rel(r.value,
                   1.0544830593692167 + 0.007088636863948348j) < 1e-14

    def test_classic_f4_second_frozen(self):
        r = eval_f4_classic(0.5, 1.5, 1.25, 0.75, 0.12, 0.03)
        assert rel(r.value, 1.1263702925846384) < 1e-14

    def test_region_warning(self):
        with pytest.warns(ConvergenceRegionWarning):
            eval_f4_classic(1, 1, 2, 2, 0.5, 0.5,
                            TruncationPolicy(10, 10))

    def test_kdf_general_frozen(self):
        p = KdfParams(A=(1.2,), B=(0.7,), C=(0.9,), D=(2.2,), E=(1.4,),
                      F=(1.6,), x=0.15, y=0.2)
        r = eval_kdf(p)
        assert rel(r.value, 1.1105153950459765) < 1e-13

    def test_terminating_exact(self):
        p = F41Params(1.2, 0.7, 1.5, 1.9, 4, 4, 1, 1, 0.3, 0.2)
        r = eval_f41(p, TruncationPolicy(20, 20))
        assert rel(r.value, 33.36524528650769) < 1e-13
        assert r.terms_used == 25
        assert r.tail_estimate == 0.0
        assert not r.divergence_flag
        # enlarging the rectangle adds nothing
        r2 = eval_f41(p, TruncationPolicy(35, 35))
        assert rel(r2.value, r.value) < 1e-15

    def test_origin_counts_single_term(self):
        r = eval_f41(P41.replace(x=0.0, y=0.0), TruncationPolicy(20, 20))
        assert r.value == 1.0 + 0.0j
        assert r.terms_used == 1
        assert r.tail_estimate == 0.0

    def test_symmetry_swap(self):
        p = F41Params(1.1 + 0.2j, 0.9, 1.3, 1.7, 2.6, 1.4, 1, 1, 0.05, 0.03)
        q = F41Params(1.1 + 0.2j, 0.9, 1.7, 1.3, 1.4, 2.6, 1, 1, 0.03, 0.05)
        pol = TruncationPolicy(24, 24)
        assert rel(eval_f41(p, pol).value, eval_f41(q, pol).value) < 1e-13

    def test_tail_estimate_bounds_remainder(self):
        p = F41Params(1.1, 0.8, 1.7, 2.3, 0, 0, 0, 0, 0.15, 0.1)
        small = eval_f41(p, TruncationPolicy(18, 18))
        big = eval_f41(p, TruncationPolicy(60, 60))
        remainder = abs(big.value - small.value)
        assert remainder < 10 * small.tail_estimate + 1e-18
        assert small.tail_estimate < 1e-8

    def test_eval_f42_equals_f41_at_k0(self):
        p1 = F41Params(1.1, 0.8, 1.7, 2.3, 5, 7, 0, 0, 0.08, 0.05)
        p2 = F42Params(1.1, 0.8, 1.7, 2.3, 9, 0, 0.08, 0.05)
        pol = TruncationPolicy(24, 24)
        assert rel(eval_f41(p1, pol).value, eval_f42(p2, pol).value) < 1e-14

    def test_analogues_differ_at_k1(self):
        p1 = F41Params(1.1, 0.8, 1.7, 2.3, 2.6, 2.6, 1, 1, 0.05, 0.04)
        p2 = F42Params(1.1, 0.8, 1.7, 2.3, 2.6, 1, 0.05, 0.04)
        g1 = coefficient_grid(p1, 4, 4).coeffs
        g2 = coefficient_grid(p2, 4, 4).coeffs
        # coupled vs separate discrete factors first differ at (1, 1)
        assert rel(g1[1, 0], g2[1, 0]) < 1e-14
        assert abs(g1[1, 1] - g2[1, 1]) > 1e-6 * abs(g2[1, 1])


class TestReductions:
    @pytest.mark.parametrize("k1,k2", [(0, 0), (1, 0), (0, 1), (1, 1)])
    def test_f41_reduction_cellwise(self, k1, k2):
        p = F41Params(1.2 + 0.1j, 0.9, 1.6, 2.1, 1.37, 2.21, k1, k2,
                      0.07, 0.06)
        kdf, (sx, sy) = reduce_to_kdf(p)
        assert kdf.x == sx * p.x and kdf.y == sy * p.y
        g = coefficient_grid(p, 12, 12).coeffs
        gk = coefficient_grid(kdf, 12, 12).coeffs
        ms = np.arange(13)[:, None]
        ns = np.arange(13)[None, :]
        back = gk * np.power(float(sx), ms) * np.power(float(sy), ns)
        assert grid_rel(g, back) < 1e-11

    @pytest.mark.parametrize("k", [0, 1])
    def test_f42_reduction_cellwise(self, k):
        p = F42Params(1.2 + 0.1j, 0.9, 1.6, 2.1, 1.37, k, 0.07, 0.06)
        kdf, (sx, sy) = reduce_to_kdf(p)
        g = coefficient_grid(p, 12, 12).coeffs
        gk = coefficient_grid(kdf, 12, 12).coeffs
        ms = np.arange(13)[:, None]
        ns = np.arange(13)[None, :]
        back = gk * np.power(float(sx), ms) * np.power(float(sy), ns)
        assert grid_rel(g, back) < 1e-11

    def test_f42_k1_needs_negated_arguments(self):
        # the coupled k=1 coefficient carries (-1)^{m+n}: the sign transform
        # must be (-1, -1), and the summed values must agree too
        p = F42Params(1.2, 0.9, 1.6, 2.1, 1.37, 1, 0.07, 0.06)
        kdf, signs = reduce_to_kdf(p)
        assert signs == (-1, -1)
        assert kdf.A == (1.2 + 0j, 0.9 + 0j, -1.37 + 0j)
        pol = TruncationPolicy(24, 24)
        assert rel(eval_f42(p, pol).value, eval_kdf(kdf, pol).value) < 1e-12

    def test_k0_reduction_equals_classic(self):
        p = F41Params(0.5, 1.5, 1.25, 0.75, 3, 3, 0, 0, 0.12, 0.03)
        kdf, _ = reduce_to_kdf(p)
        r = eval_kdf(kdf, TruncationPolicy(40, 40))
        assert rel(r.value, 1.1263702925846384) < 1e-14

    def test_unsupported_k(self):
        with pytest.raises(UnsupportedKError):
            reduce_to_kdf(P41)  # k1 = 2
        with pytest.raises(UnsupportedKError):
            reduce_to_kdf(P42)  # k = 2


# (a, b, c, x, y) with |x|, |y| <= 0.15, so that the composite arguments
# x (1 - y), y (1 - x) stay inside the F4 convergence region
BAILEY_POINTS = (
    (1.1 + 0.2j, 0.7 - 0.3j, 1.6 + 0.4j, 0.12, 0.1),
    (0.4, 1.3, 2.2, -0.15, 0.08),
    (2.3 - 0.5j, -0.6 + 0.2j, 0.8 - 0.7j, 0.1 + 0.1j, -0.05 + 0.1j),
    (1.7, 2.4, 3.1, 0.15, 0.15),
    (-1.4 + 0.3j, 0.9, 1.25 + 1.1j, 0.05j, 0.13),
    (0.6 + 1.2j, 1.8 - 0.9j, -0.35 + 0.5j, -0.1 - 0.1j, 0.1 - 0.1j),
    (3.2, -2.7 + 0.4j, 1.9, 0.15j, -0.15),
    (1.5, 1.5, 0.5 + 0.1j, -0.15, -0.15),
)


class TestBaileyProduct:
    """At k = 0 both analogues are classical F4, which satisfies
    F4(a, b; c, a+b-c+1; x(1-y), y(1-x)) = 2F1(a, b; c; x) 2F1(a, b;
    a+b-c+1; y) (DLMF 16.16); 2F1 is the analogue at y = 0.  A value-level
    check of summation, truncation and tail_estimate."""

    @pytest.mark.parametrize("make", [
        lambda a, b, c1, c2, x, y: F41Params(a, b, c1, c2, 0.7 + 0.1j, 1.9,
                                             0, 0, x, y),
        lambda a, b, c1, c2, x, y: F42Params(a, b, c1, c2, 2.3 - 0.4j, 0,
                                             x, y)], ids=["F41", "F42"])
    def test_product_formula(self, make):
        sharp = 0
        for a, b, c, x, y in BAILEY_POINTS:
            c2 = a + b - c + 1
            lhs = evaluate(make(a, b, c, c2, x * (1 - y), y * (1 - x)))
            first = evaluate(make(a, b, c, 2.5, x, 0)).value
            second = evaluate(make(a, b, c2, 2.5, y, 0)).value
            residual = rel(first * second, lhs.value)
            tail = lhs.tail_estimate / abs(lhs.value)
            assert residual <= tail + 1e-13, (a, b, c, x, y, residual, tail)
            if tail <= 1e-15:
                assert residual <= 1e-13, (a, b, c, x, y, residual)
                sharp += 1
        assert sharp >= 3


class TestRegionAndDivergence:
    def test_region_examples(self):
        inside, margin = convergence_region(0.25, 0.25)
        assert not inside and abs(margin) < 1e-15
        inside, margin = convergence_region(0.04, 0.04)
        assert inside and abs(margin - 0.6) < 1e-15
        inside, _ = convergence_region(0.0, 0.0)
        assert inside

    def test_diagnostic_requires_depth(self):
        with pytest.raises(ValueError):
            divergence_diagnostic(P41, 7)

    def test_convergent_classic_not_flagged(self):
        p = F41Params(1, 1, 2, 2, 0, 0, 0, 0, 0.1, 0.1)
        rep = divergence_diagnostic(p, 20)
        assert not rep.divergence_flag
        assert not rep.monotone_growth
        assert all(r < 1 for r in rep.block_ratios[-5:])

    def test_discrete_growth_flagged(self):
        p = F41Params(1, 1, 2, 2, 1.3, 1.0, 1, 0, 0.05, 0.0)
        rep = divergence_diagnostic(p, 40)
        assert rep.divergence_flag
        assert rep.monotone_growth
        assert rep.block_ratios[-1] > 1

    def test_terminating_ratios_reach_zero(self):
        p = F41Params(1.2, 0.7, 1.5, 1.9, 4, 4, 1, 1, 0.3, 0.2)
        rep = divergence_diagnostic(p, 12)
        assert rep.block_ratios[-1] == 0.0
        assert not rep.divergence_flag

    def test_overflowed_series_flagged_without_warnings(self):
        # x^2 overflows: the block sums turn infinite and their ratios NaN
        p = F41Params(1, 1, 2, 2, 0, 0, 0, 0, 1e200, 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = divergence_diagnostic(p, 10)
        assert math.isnan(rep.block_ratios[-1])
        assert rep.divergence_flag and rep.monotone_growth

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_arguments_refused(self, bad):
        with pytest.raises(ValueError, match="x = "):
            divergence_diagnostic(P41.replace(x=bad), 10)
        with pytest.raises(ValueError, match="y = "):
            divergence_diagnostic(P41.replace(y=complex(0.1, bad)), 10)

    def test_directional_maxima_reported(self):
        p = F41Params(1, 1, 2, 2, 0, 0, 0, 0, 0.1, 0.1)
        rep = divergence_diagnostic(p, 12)
        assert len(rep.directional_max_ratios) == 25
        assert rep.directional_max_ratios[0] > 0

    @pytest.mark.parametrize("p", [
        F41Params(1, 1, 2, 2, 0, 0, 0, 0, 0.1, 0.1),
        F41Params(1, 1, 2, 2, 1.3, 1.0, 1, 0, 0.05, 0.0),
        F41Params(1.2, 0.7, 1.5, 1.9, 4, 4, 1, 1, 0.3, 0.2),
        F41Params(0.5 + 1j, -2.5, 1.5, 0.3, 6, 2.5, 2, 1, 0.0, 1e200),
        F42Params(1.5, -3, 0.7, 1.1, 2, 1, 0.2 - 0.1j, 0.4),
        F42Params(2.1, 0.9, 1.4, 2.6, 1e3, 1, 0.0, 0.0)])
    @pytest.mark.parametrize("M", [8, 13, 40])
    def test_directional_maxima_match_the_cell_loop(self, p, M):
        # per cell: the term ratio one step along m and along n, where the
        # coefficient is nonzero and the ratio is no NaN; per diagonal: the
        # largest, or 0
        a = np.abs(series._grid_coeffs(series._without_args(p), M, M))
        a = a.tolist()
        steps = ((1, 0, abs(p.x)), (0, 1, abs(p.y)))
        want = []
        for d in range(2 * M + 1):
            best = 0.0
            for m in range(max(0, d - M), min(d, M) + 1):
                n = d - m
                for dm, dn, arg in steps:
                    if m + dm <= M and n + dn <= M and a[m][n] != 0.0:
                        ratio = a[m + dm][n + dn] / a[m][n] * arg
                        if not math.isnan(ratio):
                            best = max(best, ratio)
            want.append(best)
        with np.errstate(all="ignore"):
            got = divergence_diagnostic(p, M).directional_max_ratios
        assert got == tuple(want)

    def test_eval_flag_matches_diagnostic(self):
        p = F41Params(1, 1, 2, 2, 1.3, 1.0, 1, 0, 0.05, 0.0)
        r = eval_f41(p, TruncationPolicy(40, 40))
        assert r.divergence_flag
        assert r.max_term_ratio > 1


def diagonal_stats_loop(terms):
    """Reference anti-diagonal statistics: one np.trace / np.diagonal call
    per diagonal of the flipped grid, the loop series._sum_terms ran before
    the statistics were computed in one pass."""
    M = terms.shape[0] - 1
    N = terms.shape[1] - 1
    flipped = np.fliplr(terms)
    block_sums = [np.trace(flipped, offset=N - d) for d in range(M + N + 1)]
    abs_flipped = np.abs(flipped)
    abs_blocks = [float(np.trace(abs_flipped, offset=N - d))
                  for d in range(M + N + 1)]
    nonzero_counts = [int(np.count_nonzero(
        np.diagonal(abs_flipped, offset=N - d))) for d in range(M + N + 1)]
    return block_sums, abs_blocks, nonzero_counts


def random_terms(rng, rows, cols):
    """Complex grid with magnitudes 1e-30..1e30, random phases and 30%
    exact zeros."""
    mag = 10.0 ** rng.uniform(-30, 30, size=(rows, cols))
    phase = np.exp(2j * np.pi * rng.random((rows, cols)))
    terms = mag * phase
    terms[rng.random((rows, cols)) < 0.3] = 0.0
    return terms


def term_grid(coeffs, x, y):
    """The terms c[m, n] x^m y^n of one point as a grid, each formed as
    (c[m, n] x^m) y^n."""
    with np.errstate(all="ignore"):
        xp = np.power(x, np.arange(coeffs.shape[0]), dtype=np.complex128)
        yp = np.power(y, np.arange(coeffs.shape[1]), dtype=np.complex128)
        return coeffs * xp[:, None] * yp[None, :]


def random_points(rng, count):
    """Two 1-D arrays xs, ys of count points with moduli 0.1..2 and random
    phases."""
    return 10.0 ** rng.uniform(-1, 0.3, (2, count)) * \
        np.exp(2j * np.pi * rng.random((2, count)))


def judged(grid, xs, ys):
    """The results series._judge gives for the points of one
    series._sum_terms call, a lone point read as a stack of one."""
    totals, _, abs_blocks, counts = series._sum_terms(grid, xs, ys, True)
    return series._judge(np.reshape(totals, -1),
                         np.reshape(abs_blocks, (np.size(totals), -1)),
                         np.reshape(counts, -1), len(grid.m) - 1,
                         len(grid.n) - 1)


def stack_values(grid, xs, ys):
    """The values alone of the points of one series._sum_terms call, as
    evaluate_many refuses them: OverflowSignalError if one is not finite."""
    values = series._sum_terms(grid, xs, ys, False)[0].tolist()
    if not all(map(cmath.isfinite, values)):
        raise OverflowSignalError("partial sum exceeds the floating range")
    return values


def kernel_stats(coeffs, xs=1 + 0j, ys=1 + 0j):
    """The block sums, absolute block sums and nonzero counts that the
    kernel series._sum_terms gives for the coefficient grid coeffs at one
    point, two complex numbers, or at the 1-D arrays xs and ys of a stack
    of points, each result then with a leading axis of points.  At the
    default x = y = 1 each term is its coefficient times (1 + 0j) twice."""
    grid = series._prepare(coeffs)
    if np.ndim(xs):
        xs, ys = xs[:, None], ys[:, None]
    return series._sum_terms(grid, xs, ys, True)[1:]


class TestDiagonalStats:
    """The kernel's anti-diagonal statistics must equal the per-diagonal
    loop exactly: the block sums feed every value report, which must not
    move in the last digit.  These grids are read at x = y = 1, where each
    finite coefficient is its own term."""

    def assert_matches_loop(self, terms):
        block_sums, abs_blocks, counts = kernel_stats(terms)
        ref_sums, ref_abs, ref_counts = diagonal_stats_loop(terms)
        assert block_sums.dtype == np.complex128
        assert np.array_equal(block_sums, np.array(ref_sums))
        assert abs_blocks.tolist() == ref_abs
        assert counts == sum(ref_counts)

    def test_random_grids_bitwise(self):
        rng = np.random.default_rng(2024)
        fixed = [(1, 1), (1, 41), (41, 1), (1, 2), (3, 1), (41, 41),
                 (13, 13), (7, 30), (30, 7), (65, 9)]
        shapes = fixed + [tuple(int(v) for v in rng.integers(1, 50, size=2))
                          for _ in range(500)]
        for rows, cols in shapes:
            self.assert_matches_loop(random_terms(rng, rows, cols))

    def test_long_diagonals_take_the_split(self):
        # diagonals of 140 entries hold 280 (complex) and 140 (float) reals,
        # past the 128-real block: both sums split into halves
        rng = np.random.default_rng(7)
        for shape in ((140, 140), (140, 80), (80, 140)):
            self.assert_matches_loop(random_terms(rng, *shape))

    def test_negative_zeros_sum_to_positive_zero(self):
        # np.trace starts from +0, so a diagonal of -0 parts sums to +0.
        # No complex product has both parts -0; -0 + 0j times 1 + 0j keeps
        # its -0 real part
        coeffs = np.full((7, 12), complex(-0.0, 0.0))
        assert np.signbit(term_grid(coeffs, 1, 1).real).all()
        block_sums, abs_blocks, counts = kernel_stats(coeffs)
        assert not np.signbit(block_sums.real).any()
        assert not np.signbit(block_sums.imag).any()
        assert not abs_blocks.any() and counts == 0


def diagonal_plan_loop(M, N):
    """Reference _diagonal_plan order and starts: one diagonal at a time, in
    a loop, the appended zero first."""
    zero = (M + 1) * (N + 1)
    order, starts = [], []
    for d in range(M + N + 1):
        starts.append(len(order))
        order.append(zero)
        order += [m * (N + 1) + d - m
                  for m in range(max(0, d - N), min(d, M) + 1)]
    return order, starts


class TestDiagonalPlan:
    """The plan lists each diagonal as the per-diagonal loop does, and its
    sums are np.trace's, bit for bit, at shapes whose diagonals split up to
    three times (511 x 511) or not at all (4000 x 0)."""

    @pytest.mark.parametrize("M,N", [(0, 0), (1, 1), (40, 40), (511, 511),
                                     (300, 7), (7, 300), (4000, 0),
                                     (0, 4000)])
    def test_plan_matches_the_row_loops(self, M, N):
        plan = series._diagonal_plan.__wrapped__(M, N)
        order, starts = diagonal_plan_loop(M, N)
        assert plan.order.tolist() == order
        assert plan.starts.tolist() == starts
        rng = np.random.default_rng(M * 7919 + N)
        coeffs = random_terms(rng, M + 1, N + 1)
        for xs, ys in ((1 + 0j, 1 + 0j), random_points(rng, 2)):
            sums, abs_sums, counts = kernel_stats(coeffs, xs, ys)
            sums = sums.reshape(-1, M + N + 1)
            abs_sums = abs_sums.reshape(-1, M + N + 1)
            for j, (x, y) in enumerate(zip(np.ravel(xs), np.ravel(ys))):
                ref_sums, ref_abs, ref_counts = diagonal_stats_loop(
                    term_grid(coeffs, x, y))
                assert sums[j].tobytes() == np.array(ref_sums).tobytes()
                assert abs_sums[j].tobytes() == np.array(ref_abs).tobytes()
                assert np.ravel(counts)[j] == sum(ref_counts)

    def test_thin_rectangles_are_cheap(self):
        # one diagonal per cell: the per-row loops took 2.8-3.0 s of CPU.
        # The plan holds three int32 indices per cell and four per
        # diagonal: 3.2 MB at 511 x 511 and 8.4 MB at 262143 x 0
        for M, N, most in ((262143, 0, 10e6), (0, 262143, 10e6),
                           (511, 511, 4e6)):
            tracemalloc.start()
            try:
                start = time.process_time()
                plan = series._diagonal_plan.__wrapped__(M, N)
                cpu = time.process_time() - start
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert cpu < 1.0
            assert held < most, (M, N, held)
            assert len(plan.starts) == M + N + 1


class TestStackedDiagonalStats:
    def test_each_point_of_a_stack_sums_as_alone(self):
        # single rows take numpy's scalar abs loop, every other shape its
        # SIMD loop; a stack must keep each point's rounding either way
        rng = np.random.default_rng(99)
        shapes = [(1, 1), (1, 2), (1, 41), (41, 1), (2, 2), (41, 41),
                  (7, 30), (30, 7), (70, 3)]
        for rows, cols in shapes:
            coeffs = random_terms(rng, rows, cols)
            for points in (1, 2, 5):
                xs, ys = random_points(rng, points)
                sums, abs_sums, counts = kernel_stats(coeffs, xs, ys)
                assert sums.shape == abs_sums.shape == (
                    points, rows + cols - 1)
                assert counts.shape == (points,)
                for j, (x, y) in enumerate(zip(xs, ys)):
                    one = kernel_stats(coeffs, x, y)
                    ref_sums, ref_abs, ref_counts = diagonal_stats_loop(
                        term_grid(coeffs, x, y))
                    assert sums[j].tobytes() == one[0].tobytes() == \
                        np.array(ref_sums).tobytes()
                    assert abs_sums[j].tolist() == one[1].tolist() == \
                        ref_abs
                    assert counts[j] == one[2] == sum(ref_counts)

    def test_single_rows_and_columns_match_one_point_calls(self):
        # M = 0 or N = 0: a single row of two or more terms takes numpy's
        # scalar abs loop and every other shape its SIMD loop, which round
        # differently; a stack of P points is P one-point calls, results
        # by repr and every sum by its bytes
        rng = np.random.default_rng(41)
        for rows, cols in ((1, 1), (1, 2), (1, 3), (1, 41), (1, 300),
                           (2, 1), (3, 1), (41, 1), (300, 1)):
            grid = series._prepare(random_terms(rng, rows, cols))
            for points in (2, 3, 8):
                xs, ys = random_points(rng, points)
                stack = series._sum_terms(grid, xs[:, None], ys[:, None],
                                          True)
                results = judged(grid, xs[:, None], ys[:, None])
                assert len(results) == points
                for j, (x, y) in enumerate(zip(xs, ys)):
                    alone = series._sum_terms(grid, x, y, True)
                    assert repr(judged(grid, x, y)) == repr(results[j:j + 1])
                    for got, want in zip(stack, alone):
                        assert got[j].tobytes() == want.tobytes()

    def test_thin_rectangles_stay_small(self):
        # two points of a 3000 x 1 grid must not allocate a buffer that
        # grows with 3000 squared
        rng = np.random.default_rng(3)
        for rows, cols in ((3000, 1), (1, 3000), (3000, 2), (2, 3000)):
            coeffs = random_terms(rng, rows, cols)
            # on the unit circle, whose powers stay finite
            xs, ys = np.exp(2j * np.pi * rng.random((2, 2)))
            tracemalloc.start()
            try:
                sums, abs_sums, counts = kernel_stats(coeffs, xs, ys)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 40 * 2 * coeffs.nbytes
            for j, (x, y) in enumerate(zip(xs, ys)):
                ref_sums, ref_abs, ref_counts = diagonal_stats_loop(
                    term_grid(coeffs, x, y))
                assert sums[j].tobytes() == np.array(ref_sums).tobytes()
                assert abs_sums[j].tolist() == ref_abs
                assert counts[j] == sum(ref_counts)


SPECIAL_PARTS = (0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308)

# shapes whose diagonals split numpy's pairwise sum (more than 64 complex or
# 128 real entries) up to three times, or that have one diagonal per cell
SPLIT_SHAPES = ((65, 65), (129, 129), (140, 80), (80, 140), (257, 257),
                (512, 512), (511, 300), (4000, 1), (1, 4000), (2, 3000))


def hostile_terms(rng, shape):
    """Complex terms of any shape whose real and imaginary parts are each
    of either sign with magnitudes 1e-300..1e300, with a random share of
    them set to +-0, +-inf, NaN or +-1e308."""
    span = rng.choice((30, 300))
    rate = rng.choice((0.0, 0.02, 0.2, 0.9))
    specials = SPECIAL_PARTS[:rng.integers(2, len(SPECIAL_PARTS) + 1)]
    terms = np.empty(shape, np.complex128)
    for part in (terms.real, terms.imag):
        part[...] = rng.choice((-1.0, 1.0), shape) * \
            10.0 ** rng.uniform(-span, span, shape)
        hit = rng.random(shape) < rate
        part[hit] = rng.choice(specials, int(hit.sum()))
    return terms


def check_diagonal_corpus(count, seed=14):
    """Check the kernel's sums of count seeded hostile coefficient grids
    against the np.trace loop of diagonal_stats_loop over each point's term
    grid, bytes and NaN included: one point at x = y = 1, where each term
    is its coefficient times (1 + 0j) twice (so an infinite coefficient
    reaches the sums with a NaN part, and a -0 part may turn +0), and stacks
    of one and of three points on the unit circle, each point's row compared
    with its grid.
    Every tenth shape is one of SPLIT_SHAPES, the rest are up to 60 x 60.
    Returns the case count and a SHA-256 digest of every result's bytes,
    each NaN read as math.nan: no report prints the sign or payload of a
    NaN, and a summation that keeps every other bit but adds in another
    operand order can flip them."""
    rng = np.random.default_rng(seed)
    digest = hashlib.sha256()
    with np.errstate(all="ignore"):
        for i in range(count):
            shape = SPLIT_SHAPES[i // 10 % len(SPLIT_SHAPES)] if i % 10 == 0 \
                else tuple(int(v) for v in rng.integers(1, 61, size=2))
            points = (None, 1, 3)[i % 3]
            coeffs = hostile_terms(rng, shape)
            xs, ys = (1 + 0j, 1 + 0j) if points is None else \
                np.exp(2j * np.pi * rng.random((2, points)))
            sums, abs_sums, counts = kernel_stats(coeffs, xs, ys)
            digest.update(repr((points, shape)).encode())
            for stat in (sums, abs_sums):
                reals = np.array(stat).view(np.float64)
                reals[np.isnan(reals)] = math.nan
                digest.update(reals.tobytes())
            digest.update(np.asarray(counts, np.int64).tobytes())
            sums = sums.reshape(-1, sum(shape) - 1)
            abs_sums = abs_sums.reshape(-1, sum(shape) - 1)
            for j, (x, y) in enumerate(zip(np.ravel(xs), np.ravel(ys))):
                ref_sums, ref_abs, ref_counts = diagonal_stats_loop(
                    term_grid(coeffs, x, y))
                assert sums[j].tobytes() == \
                    np.array(ref_sums).tobytes(), (i, j)
                assert abs_sums[j].tobytes() == \
                    np.array(ref_abs).tobytes(), (i, j)
                assert np.ravel(counts)[j] == sum(ref_counts), (i, j)
    return count, digest.hexdigest()


class TestDiagonalCorpus:
    """Diagonal sums of hostile values are np.trace's, bit for bit.  The
    full corpus is check_diagonal_corpus(3000); this slice keeps a few
    seconds and meets every split shape twice."""

    def test_corpus_slice(self):
        count, _ = check_diagonal_corpus(200)
        assert count == 200


def reference_evaluate(p, pol):
    """One point as the evaluator summed it before points were stacked:
    np.trace per anti-diagonal and Python's sum of the blocks."""
    coeffs = series._grid_coeffs(series._without_args(p), pol.max_m,
                                 pol.max_n)
    M, N = pol.max_m, pol.max_n
    with np.errstate(all="ignore"):
        xp = np.power(complex(p.x), np.arange(M + 1), dtype=np.complex128)
        yp = np.power(complex(p.y), np.arange(N + 1), dtype=np.complex128)
        terms = coeffs * xp[:, None] * yp[None, :]
        block_sums, abs_blocks, counts = diagonal_stats_loop(terms)
        total = sum(block_sums)
    if not (np.isfinite(total.real) and np.isfinite(total.imag)):
        raise OverflowSignalError("partial sum exceeds the floating range")
    return reference_summary(complex(total), abs_blocks, sum(counts), M, N)


def reference_growth(abs_blocks):
    """The divergence rule of one point, list by list: the ratios of its
    consecutive absolute block sums, their final quartile and the flag,
    raised when no ratio of the quartile is at most 1 (a NaN ratio, of
    sums that overflowed, counts as growth)."""
    ratios = [0.0 if prev == 0.0 and cur == 0.0 else
              math.inf if prev == 0.0 else cur / prev
              for prev, cur in zip(abs_blocks, abs_blocks[1:])]
    quartile = ratios[-max(1, math.ceil(len(ratios) / 4)):] if ratios else []
    return (ratios, quartile,
            bool(quartile) and not any(r <= 1.0 for r in quartile))


def reference_summary(total, abs_blocks, terms_used, M, N):
    """One point's result from its sum, its absolute block sums (a list of
    Python floats) and its nonzero term count, judged alone in Python."""
    included = abs_blocks[:min(M, N) + 1]
    ratios, _, flag = reference_growth(included)
    if included[-1] == 0.0:
        tail = 0.0
    elif ratios and ratios[-1] < 1.0:
        tail = included[-1] * ratios[-1] / (1.0 - ratios[-1])
    else:
        tail = math.inf
    return series.EvaluationResult(total, terms_used, float(tail), flag,
                                   float(max(ratios, default=0.0)))


def argument_corpus(rng, count):
    def one():
        return rng.choice((
            lambda: 0.0, lambda: -0.0, lambda: complex(-0.0, -0.0),
            lambda: complex(0.0, -0.0), lambda: rng.uniform(-0.6, 0.6),
            lambda: complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)),
            lambda: complex(rng.uniform(-3, 3), rng.uniform(-3, 3)),
            lambda: rng.choice((1e-300, 5.0, -40.0)),
        ))()

    return [one() for _ in range(count)], [one() for _ in range(count)]


class TestEvaluateMany:
    """A stack of points gives each point's result bit for bit, compared by
    repr: per-point evaluate, and the per-diagonal np.trace reference."""

    def corpus(self, seed=17):
        rng = random.Random(seed)
        shapes = ((0, 0), (0, 9), (9, 0), (1, 12), (12, 1), (5, 17),
                  (17, 5), (12, 12), (40, 40))
        requests = [(p, M, N) for p, M, N in golden_grid_requests(90)
                    if M <= 24 and N <= 24]
        for i, (p, _, _) in enumerate(requests):
            yield p, TruncationPolicy(*shapes[i % len(shapes)]), rng

    @staticmethod
    def outcome(results):
        try:
            return [repr(r) for r in results()]
        except OverflowSignalError:
            return "overflow"

    def assert_matches(self, p, pol, xs, ys):
        outcome = self.outcome
        points = [p.replace(x=x, y=y) for x, y in zip(xs, ys)]
        many = outcome(lambda: evaluate_many(p, xs, ys, pol))
        assert many == outcome(lambda: [evaluate(q, pol) for q in points])
        assert many == outcome(lambda: [reference_evaluate(q, pol)
                                        for q in points])
        # the values alone, all points in one stack
        grid = series._prepared_grid(p, pol)
        columns = np.array([xs, ys], dtype=np.complex128)[:, :, None]
        assert outcome(lambda: stack_values(grid, *columns)) \
            == outcome(lambda: [r.value for r in evaluate_many(p, xs, ys,
                                                                pol)])

    def test_seeded_corpus(self):
        results = set()
        for p, pol, rng in self.corpus():
            try:
                series._grid_coeffs(series._without_args(p), pol.max_m,
                                    pol.max_n)
            except OverflowSignalError:
                continue
            xs, ys = argument_corpus(rng, rng.choice((1, 2, 7, 30)))
            self.assert_matches(p, pol, xs, ys)
            results.add(pol.max_m * 100 + pol.max_n)
        assert len(results) >= 8

    def test_point_counts_around_the_stack_size(self):
        rng = random.Random(5)
        p = F41Params(1.1 + 0.2j, 0.9, 1.3, 1.7, 2.6, 1.4, 1, 1, 0.0, 0.0)
        for pol in (TruncationPolicy(40, 40), TruncationPolicy(3, 25)):
            chunk = series._CHUNK_CELLS // ((pol.max_m + 1) * (pol.max_n + 1))
            # and around the points judged in one pass
            batch = series._CHUNK_CELLS // (min(pol.max_m, pol.max_n) + 1)
            for count in sorted({0, 1, chunk - 1, chunk, chunk + 1, 256,
                                 batch - 1, batch, batch + 1}):
                xs, ys = argument_corpus(rng, count)
                self.assert_matches(p, pol, xs, ys)

    def test_memory_does_not_grow_with_the_points(self):
        # a point's judged block sums are those of its complete diagonals
        # alone, one on a 0 x 4095 rectangle, and are judged in passes of
        # at most _CHUNK_CELLS of them; all 4096 of each of 600 points
        # take 19.7 MB.  The traced peak read 1.93 MB at 6 points, nearly
        # all of it one stack's arrays, and 2.00 MB at 600
        p = F41Params(1.1, 0.8, 1.7, 2.3, 0, 0, 0, 0, 0.0, 0.0)
        pol = TruncationPolicy(0, 4095)
        rng = np.random.default_rng(8)
        xs, ys = 0.5 * random_points(rng, 600)
        # the grid and its plan, cached, are built outside the trace
        evaluate_many(p, xs[:1], ys[:1], pol)
        tracemalloc.start()
        try:
            results = evaluate_many(p, xs, ys, pol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(results) == 600
        assert peak < 3e6, peak

    def test_an_overflow_stops_the_sums_at_its_pass(self, monkeypatch):
        # the stacks summed before an overflowing point's pass is judged
        # are one pass's, not the call's
        p = F41Params(1.1, 0.8, 1.7, 2.3, 0, 0, 0, 0, 0.0, 0.0)
        calls, kernel = [], series._sum_terms
        monkeypatch.setattr(series, "_sum_terms", lambda *args: (
            calls.append(1), kernel(*args))[1])
        with pytest.raises(OverflowSignalError):
            evaluate_many(p, [1e200] + [0.1] * 2000, [0.0] + [0.1] * 2000)
        assert len(calls) <= series._CHUNK_CELLS // 41 // 8 + 1

    def test_small_stacks_on_every_shape(self, monkeypatch):
        # three points' cells per stack at 13 x 13 cuts the corpus into
        # stacks of every size on each rectangle
        monkeypatch.setattr(series, "_CHUNK_CELLS", 3 * 13 * 13)
        for p, pol, rng in self.corpus(seed=18):
            try:
                series._grid_coeffs(series._without_args(p), pol.max_m,
                                    pol.max_n)
            except OverflowSignalError:
                continue
            xs, ys = argument_corpus(rng, rng.choice((4, 9)))
            self.assert_matches(p, pol, xs, ys)

    def assert_grid_matches(self, p, pol, xs, ys):
        """evaluate_many of a column of xs and a row of ys gives each point
        of that grid, x by x, the bits of reference_evaluate."""
        many = self.outcome(lambda: evaluate_many(
            p, np.array(xs, dtype=np.complex128)[:, None], ys, pol))
        assert many == self.outcome(lambda: [
            reference_evaluate(p.replace(x=x, y=y), pol)
            for x in xs for y in ys])
        return many

    @pytest.mark.parametrize("chunk", [None, 3 * 13 * 13])
    def test_column_and_row_on_the_corpus(self, chunk, monkeypatch):
        # the second stack size cuts each row into stacks of every size
        if chunk is not None:
            monkeypatch.setattr(series, "_CHUNK_CELLS", chunk)
        shapes = set()
        for p, pol, rng in self.corpus(seed=19):
            try:
                series._grid_coeffs(series._without_args(p), pol.max_m,
                                    pol.max_n)
            except OverflowSignalError:
                continue
            xs = argument_corpus(rng, rng.choice((1, 2, 4)))[0]
            ys = argument_corpus(rng, rng.choice((1, 3, 9)))[1]
            if self.assert_grid_matches(p, pol, xs, ys) != "overflow":
                shapes.add((pol.max_m, pol.max_n))
        assert len(shapes) >= 8

    def test_stacks_past_the_elision_size(self):
        # one point of 128 x 128 is a stack of 16,639 complex entries (266
        # KB), and numpy elides `a * temp` into a temporary operand of 256
        # KiB or more and of a's shape, where the product rounds as
        # temp * a.  Complex arguments give every product two nonzero
        # imaginary parts, which is where complex multiplication rounds its
        # operands apart.  The grid is read as a column and a row, and as
        # the pairs of its points
        pol = TruncationPolicy(127, 127)
        assert (128 * 128 + 255) * 16 >= 256 * 1024
        p = F41Params(0.6 + 0.3j, 0.8 - 0.2j, 1.3 + 0.1j, 1.7, 0, 0, 0, 0,
                      0, 0)
        rng = np.random.default_rng(23)
        xs, ys = (10.0 ** rng.uniform(-2, -0.7, (2, 11)) *
                  np.exp(2j * np.pi * rng.random((2, 11)))).tolist()
        xs = xs[:2]
        grid = self.assert_grid_matches(p, pol, xs, ys)
        assert grid != "overflow"
        assert self.outcome(lambda: evaluate_many(
            p, [x for x in xs for _ in ys], ys * len(xs), pol)) == grid

    def test_no_points_requests_no_grid(self):
        series._grid_coeffs.cache_clear()
        assert evaluate_many(P41, [], []) == []
        assert evaluate_many(P41, np.zeros((0, 1)), [0.1]) == []
        assert evaluate_many(P41, [[0.1]], []) == []
        assert series._grid_coeffs.cache_info().misses == 0

    def test_one_grid_for_all_points(self):
        series._grid_coeffs.cache_clear()
        results = evaluate_many(P41.replace(x=0.3), [0.1, 0.2, -0.1j],
                                [0.05, 0.0, 0.1])
        assert len(results) == 3
        assert series._grid_coeffs.cache_info().misses == 1

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            evaluate_many(P41, [0.1, 0.2], [0.1])

    def test_other_shapes_rejected(self):
        # only pairs of equal length, or a column and a sequence
        for xs, ys in (([[0.1, 0.2]], [0.1]), ([[0.1]], [[0.1]]),
                       (0.1, [0.1]), ([0.1], 0.1), ([[[0.1]]], [0.1])):
            with pytest.raises(ValueError, match="column"):
                evaluate_many(P41, xs, ys)

    def test_overflowing_point_raises_without_warnings(self):
        p = F41Params(1.1, 0.8, 1.7, 2.3, 0, 0, 0, 0, 0.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowSignalError):
                evaluate_many(p, [0.1, 1e200, 0.2], [0.1, 0.0, 0.1])
            with pytest.raises(OverflowSignalError):
                evaluate(p.replace(x=1e200, y=-1e300))
            # the finite points of a stack alone are fine
            assert len(evaluate_many(p, [0.1, 0.2], [0.1, 0.1])) == 2

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     complex(0.1, math.inf),
                                     complex(math.nan, 0.1)])
    def test_non_finite_arguments_are_value_errors(self, bad):
        # as divergence_diagnostic and the CLI refuse them, not as overflow
        p = F41Params(1, 1, 2, 2, 0, 0, 0, 0, 0.1, 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^x = .* is not finite"):
                evaluate(p.replace(x=bad))
            with pytest.raises(ValueError, match="^y = .* is not finite"):
                evaluate(p.replace(y=bad))
            with pytest.raises(ValueError, match="^x = .* is not finite"):
                evaluate_many(p, [0.1, bad], [0.1, 0.1])
            # also behind a finite point that overflows first, in another
            # stack
            with pytest.raises(ValueError, match="^y = .* is not finite"):
                evaluate_many(p, [1e200] + [0.1] * 20, [0.1] * 20 + [bad])


class TestArrayGrowthRule:
    """series._judge runs the divergence rule over every point of a call
    at once, and series._growth is its per-diagonal part; each row must
    give what the list code of reference_summary gives for it alone, bit
    for bit, NaN included."""

    # absolute block sums along the diagonals of one point, nine for the
    # nine complete diagonals of 8 x 8; each row is repeated or cut to the
    # shape's M + N + 1 diagonals
    ROWS = {
        "all zero": [0.0] * 9,
        "zero then nonzero": [0.0, 0.0, 3.0, 1.0, 0.5, 0.2, 0.1, 0.05, 0.01],
        "leading NaN ratio": [math.nan] + [2.0 ** i for i in range(8)],
        "leading inf over inf": [math.inf] * 2 + [0.5 ** i for i in range(7)],
        "later NaN": [1.0, 0.5, 0.25, math.nan, 0.1, 0.05, 0.025, 0.0125,
                      0.00625],
        "NaN last": [2.0 ** i for i in range(8)] + [math.nan],
        "inf blocks": [1.0, math.inf, 2.0, 4.0, math.inf, 1.0, 2.0, 4.0, 8.0],
        "ratio of exactly 1": [2.0] * 9,
        "growth": [3.0 ** i for i in range(9)],
        "decay": [0.5 ** i for i in range(9)],
        "zeros past a polynomial": [2.0, 1.0, 0.5] + [0.0] * 6,
        "overflowing ratio": [1e-300, 1e300, 1e-300, 1e300] + [1.0] * 5,
    }
    SHAPES = ((8, 8), (12, 12), (8, 3), (3, 8), (5, 17), (0, 8), (8, 0),
              (0, 0), (1, 1), (2, 2))

    @staticmethod
    def fitted(row, width):
        return (row * width)[:width]

    def assert_rows_match(self, rows, M, N):
        width = M + N + 1
        rows = [self.fitted(row, width) for row in rows]
        totals = np.array([complex(i, -i) for i in range(len(rows))])
        counts = np.arange(len(rows)) * 3
        got = series._judge(totals, np.array(rows), counts, M, N)
        want = [reference_summary(complex(i, -i), row, 3 * i, M, N)
                for i, row in enumerate(rows)]
        assert list(map(repr, got)) == list(map(repr, want))
        ratios, tail, flags = series._growth(
            np.array(rows)[:, :min(M, N) + 1])
        for i, row in enumerate(rows):
            ref_ratios, ref_tail, ref_flag = reference_growth(
                row[:min(M, N) + 1])
            assert ratios[i].tobytes() == np.array(ref_ratios).tobytes()
            assert tail[i].tobytes() == np.array(ref_tail).tobytes()
            assert flags[i] == ref_flag
            # and each row judged alone
            assert repr(series._judge(totals[i:i + 1], np.array(rows[i:i + 1]),
                                      counts[i:i + 1], M, N)) == \
                repr(want[i:i + 1])

    @pytest.mark.parametrize("M,N", SHAPES)
    def test_named_rows(self, M, N):
        self.assert_rows_match(list(self.ROWS.values()), M, N)

    def test_named_rows_take_their_branches(self):
        # the rows reach each outcome the rule has, on 8 x 8
        got = dict(zip(self.ROWS, series._judge(
            np.zeros(len(self.ROWS), complex),
            np.array([self.fitted(r, 17) for r in self.ROWS.values()]),
            np.zeros(len(self.ROWS), int), 8, 8)))
        assert not got["all zero"].divergence_flag
        assert got["all zero"].tail_estimate == 0.0
        assert got["all zero"].max_term_ratio == 0.0
        assert got["zero then nonzero"].max_term_ratio == math.inf
        assert got["leading NaN ratio"].divergence_flag
        assert math.isnan(got["leading NaN ratio"].max_term_ratio)
        assert math.isnan(got["leading inf over inf"].max_term_ratio)
        assert got["later NaN"].max_term_ratio == 0.5
        assert got["NaN last"].divergence_flag
        assert got["NaN last"].tail_estimate == math.inf
        assert got["NaN last"].max_term_ratio == 2.0
        assert got["inf blocks"].max_term_ratio == math.inf
        assert not got["ratio of exactly 1"].divergence_flag
        assert got["ratio of exactly 1"].tail_estimate == math.inf
        assert got["growth"].divergence_flag
        assert got["decay"].tail_estimate == 0.5 ** 8
        assert got["zeros past a polynomial"].tail_estimate == 0.0
        assert got["overflowing ratio"].max_term_ratio == math.inf

    def test_seeded_rows(self):
        # zeros, NaN and inf at every rate, many rows per call
        rng = np.random.default_rng(31)
        for M, N in self.SHAPES:
            width = M + N + 1
            for rate in (0.0, 0.1, 0.5, 0.9):
                rows = 10.0 ** rng.uniform(-300, 300, (20, width))
                hit = rng.random((20, width)) < rate
                rows[hit] = rng.choice((0.0, math.nan, math.inf),
                                       int(hit.sum()))
                self.assert_rows_match(rows.tolist(), M, N)

    def test_a_sum_outside_the_range_raises(self):
        for bad in (complex(math.inf, 0), complex(0, math.nan)):
            with pytest.raises(OverflowSignalError):
                series._judge(np.array([1 + 0j, bad]), np.ones((2, 9)),
                              np.ones(2, int), 4, 4)


class TestCellBudget:
    """Only the guard's arithmetic: no rectangle near the budget is
    allocated."""

    def test_budget_boundary(self):
        assert series._MAX_CELLS == 512 * 512
        series._require_rectangle(511, 511)
        series._require_rectangle(0, series._MAX_CELLS - 1)
        series._require_rectangle(series._MAX_CELLS - 1, 0)
        for M, N in ((512, 511), (511, 512), (0, series._MAX_CELLS),
                     (10 ** 12, 10 ** 12), (10 ** 30, 0)):
            with pytest.raises(ValueError, match="exceeds"):
                series._require_rectangle(M, N)

    def test_negative_bounds(self):
        for M, N in ((-1, 0), (0, -1), (-5, 10 ** 12)):
            with pytest.raises(ValueError, match="nonnegative"):
                series._require_rectangle(M, N)

    def test_policy_checks_the_budget(self):
        TruncationPolicy(511, 511)
        with pytest.raises(ValueError, match="exceeds"):
            TruncationPolicy(1000, 1000)

    def test_library_grids_check_the_budget_before_building(self):
        p = F41Params(-3, .5, 2, 2, 1, 1, 0, 0, .1, .1)
        misses = series._grid_coeffs.cache_info().misses
        with pytest.raises(ValueError, match="exceeds"):
            coefficient_grid(p, 512, 512)
        with pytest.raises(ValueError, match="exceeds"):
            divergence_diagnostic(p, 512)
        with pytest.raises(ValueError, match="nonnegative"):
            coefficient_grid(p, -1, 3)
        assert series._grid_coeffs.cache_info().misses == misses


class TestGridCacheKey:
    def test_arguments_share_one_grid(self):
        series._grid_coeffs.cache_clear()
        eval_f41(P41)
        eval_f41(P41.replace(x=-0.2 + 0.1j, y=0.05))
        info = series._grid_coeffs.cache_info()
        assert (info.misses, info.hits) == (1, 1)


class TestAnchors:
    def test_linear_build_makes_no_scalar_pochhammer_call(self, monkeypatch):
        # every anchor is a prefix of one running product per symbol; none
        # is a scalar call of its own, and the linear path takes no log
        calls = []
        for name in ("pochhammer", "_log_prefixes"):
            fn = getattr(series, name)
            monkeypatch.setattr(series, name, lambda *a, fn=fn, name=name:
                                calls.append(name) or fn(*a))
        p = F41Params(1.3 + 0.2j, 0.7, 2.1, 1.6 - 0.3j, 2.4, 5.5, 3, 3,
                      0.0, 0.0)
        coeffs = series._grid_coeffs.__wrapped__(p, 12, 12)
        assert calls == []
        assert np.isfinite(coeffs).all()
        for m, n in ((0, 0), (4, 8), (12, 12), (7, 3)):
            assert rel(coeffs[m, n], scratch_coefficient_f41(p, m, n)) < 1e-13

    def test_log_build_calls_the_log_prefixes(self, monkeypatch):
        # the hook of the test above fires: an F42 k = 1 40 x 40 build takes
        # the log route, one _log_prefixes call per symbol of W, U and V,
        # and no scalar log_pochhammer call.  U and V read the factorial at
        # one index list, whose logs are made once: a cold build makes 6
        # calls and a warm one 5
        calls = []
        for name in ("log_pochhammer", "_log_prefixes"):
            fn = getattr(series, name)
            monkeypatch.setattr(series, name, lambda *a, fn=fn, name=name:
                                calls.append(name) or fn(*a))
        series._Factorial.logs.cache_clear()
        for want in (6, 5):
            calls.clear()
            series._grid_coeffs.__wrapped__(eval_cold_f42_params()[0], 40, 40)
            assert calls == ["_log_prefixes"] * want


class TestComplexChains:
    def test_every_column_holds_complex_values(self):
        # lanes carry complex numbers only: a float factor would split the
        # scalar rounding from theirs wherever the interpreter's mixed
        # float/complex rules differ from complex(f, 0.0)
        kdf = KdfParams(A=(1.3,), B=(0.7,), C=(2.4 - 1j,), D=(2.1,),
                        E=(1.6,), F=(0.5 + 0.5j,))
        seen = set()
        for k in range(4):
            for p in (F41Params(1.3, 0.7, 2.1, 1.6, 2.4, 5.5, k, 3 - k, 0, 0),
                      F42Params(1.3, 0.7, 2.1, 1.6, 2.4, k, 0, 0), kdf):
                for chain in series._chains(p, 6, 5):
                    length, nums, dens = chain
                    for kind, idx in (("ratios", range(length)),
                                      ("values", range(length + 1))):
                        for s in nums + sum(dens, ()):
                            seen.add(type(s))
                            for col in getattr(s, kind)(idx):
                                assert {type(v) for v in col} == {complex}, \
                                    (p, s, kind)
                        assert {type(v) for v in
                                series._fold(chain, kind, idx)} == {complex}
        assert seen == {series._Rising, series._TFactor, series._One,
                        series._Factorial}


def golden_grid_requests(count=360):
    """Seeded (params, M, N) grid requests over F41, F42 and KdF: real (with
    either sign of zero) and complex parameters, k from 0 to 3, terminating
    t, numerators on the nonpositive integers (KdF B and C entries
    included), large parameters that take the log-space path or overflow
    it, and shapes from 0 x N to 40 x 40."""
    rng = random.Random(4)

    def value(real):
        v = rng.choice((
            lambda: complex(rng.randint(-6, 6)),
            lambda: complex(-rng.randint(0, 6)),
            lambda: complex(rng.randint(-6, 6) + 0.5),
            lambda: complex(rng.uniform(10.0, 60.0) * rng.choice((1, -1))),
            lambda: complex(rng.choice((1e-200, 1e60, -1e60, 1e120))),
            lambda: complex(rng.uniform(-3.0, 3.0)),
        ))()
        return complex(v.real, rng.choice((0.0, -0.0)) if real
                       else rng.uniform(-3.0, 3.0))

    def off_pole(real):
        while True:
            v = value(real)
            if not (v.imag == 0.0 and v.real <= 0.0 and v.real.is_integer()):
                return v

    def t_value(k, real):
        return (complex(rng.randint(0, 8)) if k and rng.random() < 0.4
                else value(real))

    def seq(make, most=3):
        return tuple(make() for _ in range(rng.randint(0, most)))

    shapes = ((0, 0), (0, 7), (9, 0), (0, 40), (1, 1), (5, 3), (12, 12),
              (20, 20), (40, 40), (40, 6))
    for i in range(count):
        real = rng.random() < 0.5
        M, N = (rng.choice(shapes) if rng.random() < 0.5
                else (rng.randint(0, 24), rng.randint(0, 24)))
        if i % 3 == 0:
            k1, k2 = rng.randint(0, 3), rng.randint(0, 3)
            p = F41Params(value(real), value(real), off_pole(real),
                          off_pole(real), t_value(k1, real),
                          t_value(k2, real), k1, k2, 0.0, 0.0)
        elif i % 3 == 1:
            k = rng.randint(0, 3)
            p = F42Params(value(real), value(real), off_pole(real),
                          off_pole(real), t_value(k, real), k, 0.0, 0.0)
        else:
            def numerator():
                return (complex(-rng.randint(0, 8)) if rng.random() < 0.4
                        else value(real))

            p = KdfParams(A=seq(lambda: value(real)), B=seq(numerator),
                          C=seq(numerator), D=seq(lambda: off_pole(real), 2),
                          E=seq(lambda: off_pole(real), 2),
                          F=seq(lambda: off_pole(real), 2))
        yield p, M, N


class TestGridBits:
    """Every grid keeps its bytes, signed zeros included: value reports and
    the benchmark's references pin the engine's rounding."""

    # SHA-256 of the coefficient bytes (b"overflow" for a grid that raises
    # OverflowSignalError) of golden_grid_requests(), in order
    GOLDEN = "5090e8606740c9a3713c16542af1cd1c9a52a1701bab6fa70ca40f35c7bc97c1"

    def test_grid_bytes(self, monkeypatch):
        log_calls = []
        log_prefixes = series._log_prefixes
        monkeypatch.setattr(
            series, "_log_prefixes",
            lambda *a: log_calls.append(a) or log_prefixes(*a))
        build = series._grid_coeffs.__wrapped__   # no cache in between
        digest = hashlib.sha256()
        paths = {"linear": 0, "log": 0, "overflow": 0}
        for p, M, N in golden_grid_requests():
            before = len(log_calls)
            try:
                digest.update(build(p, M, N).tobytes())
            except OverflowSignalError:
                digest.update(b"overflow")
                paths["overflow"] += 1
            else:
                paths["log" if len(log_calls) > before else "linear"] += 1
        assert min(paths.values()) >= 20, paths
        assert digest.hexdigest() == self.GOLDEN


def eval_cold_f42_params():
    """The F42 parameters of the eval-cold pool of the benchmark
    (perfbench/bench_inputs.py): k = 1 with non-terminating t, whose 40 x 40
    grids take the log-space path."""
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", "bench_inputs.py")
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    bench_inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_inputs)
    params = []
    for argv in bench_inputs.pools()["eval"]:
        flags = dict(zip(argv[1::2], argv[2::2]))
        if flags["--fn"] == "F42":
            params.append(F42Params(*(complex(flags["--" + name]) for name in
                                      ("a", "b", "c1", "c2", "t")),
                                    int(flags["--k"]), 0.0, 0.0))
    return params


class TestLogBuildCost:
    def test_log_builds_fold_once(self, monkeypatch):
        # the linear attempt stops at W, the first factor array that is not
        # finite, and each symbol takes one log_gamma of its base per list
        # of lengths: 3 _chain_linear and 252.2 log_gamma calls per build
        # before
        calls = {"linear": 0, "log_gamma": 0, "logs": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for owner, attr, name in ((series, "_chain_linear", "linear"),
                                  (kernels, "log_gamma", "log_gamma"),
                                  (series, "_log_prefixes", "logs")):
            monkeypatch.setattr(owner, attr,
                                counted(name, getattr(owner, attr)))
        params = eval_cold_f42_params()
        assert len(params) == 512
        log_gamma = 0
        for p in params:
            calls.update(linear=0, log_gamma=0, logs=0)
            series._build_grid(p, 40, 40)
            assert calls["linear"] == 1 and calls["logs"] > 0, p
            log_gamma += calls["log_gamma"]
        assert log_gamma / len(params) <= 130

    def test_warm_builds_make_no_factorial_log(self, monkeypatch):
        # the factorial's columns are made once per index list, so a warm
        # build makes no log_gamma call for (1)_l: at most 94 calls per
        # build on the mean, 116 when every build made the factorial's logs
        params = eval_cold_f42_params()
        series._build_grid(params[0], 40, 40)
        calls, bases = [], []
        log_gamma, log_prefixes = kernels.log_gamma, series._log_prefixes
        monkeypatch.setattr(kernels, "log_gamma",
                            lambda z: calls.append(z) or log_gamma(z))
        monkeypatch.setattr(series, "_log_prefixes",
                            lambda a, idx: bases.append(a)
                            or log_prefixes(a, idx))
        for p in params:
            series._build_grid(p, 40, 40)
        assert len(calls) / len(params) <= 94
        assert 1 + 0j not in bases and len(bases) == 5 * len(params)

    def test_a_non_finite_anchor_takes_no_ratio_step(self):
        # W of an eval-cold F42 grid holds an infinite anchor: its linear
        # attempt is not finite whatever the steps, and takes none of them
        W, U, _ = series._chains(eval_cold_f42_params()[0], 40, 40)
        for chain, finite in ((W, False), (U, True)):
            steps = series._indices(chain[0])[1]
            ratios = series._fold(chain, "ratios", steps)
            taken = []
            arr = series._chain_linear(chain, (taken.append(r) or r
                                               for r in ratios))
            assert np.isfinite(arr).all() == finite
            assert len(taken) == (len(steps) if finite else 0)


LANE_SHAPES = ((12, 12), (0, 7), (9, 0), (40, 40), (5, 3), (20, 16),
               (16, 20), (1, 1), (40, 6))
LANE_KINDS = ("generic", "signed-zero", "lattice", "large")


def lane_grid_corpus(count, seed=7):
    """Seeded (kind, params, M, N) over F41, F42 and KdF, with k from 0 to
    4 and the shapes of LANE_SHAPES.  Kinds: generic complex parameters;
    signed-zero, real parameters with either sign of zero; lattice, a
    numerator on the nonpositive integers (an exact zero of its symbol);
    large, magnitudes from 1e60 to 1e200 that take the log-space path or
    overflow it."""
    rng = random.Random(seed)

    def value(kind):
        if kind == "signed-zero":
            return complex(rng.choice((rng.randint(-6, 6),
                                       rng.randint(-6, 6) + 0.5,
                                       rng.uniform(-3.0, 3.0))),
                           rng.choice((0.0, -0.0)))
        if kind == "large" and rng.random() < 0.5:
            return complex(rng.choice((1, -1)) * 10.0 ** rng.randint(60, 200),
                           rng.choice((0.0, -0.0, rng.uniform(-3.0, 3.0))))
        return complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))

    def off_pole(kind):
        while True:
            v = value(kind)
            if not (v.imag == 0.0 and v.real <= 0.0 and v.real.is_integer()):
                return v

    def lattice():
        return complex(-rng.randint(0, 6), rng.choice((0.0, -0.0)))

    for i in range(count):
        kind = LANE_KINDS[i % len(LANE_KINDS)]
        M, N = rng.choice(LANE_SHAPES)
        num = [value(kind) for _ in range(3)]
        if kind == "lattice":
            num[rng.randrange(3)] = lattice()
        family = rng.randrange(3)
        if family == 0:
            k1, k2 = rng.randint(0, 4), rng.randint(0, 4)
            t2 = -lattice() if kind == "lattice" and rng.random() < 0.3 \
                else value(kind)
            p = F41Params(num[0], num[1], off_pole(kind), off_pole(kind),
                          -num[2], t2, k1, k2, 0.0, 0.0)
        elif family == 1:
            p = F42Params(num[0], num[1], off_pole(kind), off_pole(kind),
                          -num[2], rng.randint(0, 4), 0.0, 0.0)
        else:
            def seq(make, most):
                return tuple(make() for _ in range(rng.randint(0, most)))

            lead = rng.randrange(3)
            parts = [seq(lambda: value(kind), 2) for _ in range(3)]
            parts[lead] = (num[lead],) + parts[lead]
            p = KdfParams(A=parts[0], B=parts[1], C=parts[2],
                          D=seq(lambda: off_pole(kind), 1),
                          E=seq(lambda: off_pole(kind), 2),
                          F=seq(lambda: off_pole(kind), 2))
        yield kind, p, M, N


def check_lane_corpus(count, seed=7):
    """Build lane_grid_corpus(count, seed) as lanes, one batch per shape,
    and check each grid against the running-product truth
    (tests/test_mpmath_oracle.py): a lane's grid within 1e-13 of the truth
    relative to its largest cell, with every exact zero of the truth; a
    grid that is not finite as a lane is absent.  Returns the count of each
    kind and outcome, and the worst lane error."""
    by_shape = {}
    for kind, p, M, N in lane_grid_corpus(count, seed):
        by_shape.setdefault((M, N), {})[p] = kind
    seen = dict.fromkeys(LANE_KINDS + ("lane", "absent"), 0)
    worst = 0.0
    for (M, N), kinds in by_shape.items():
        grids = series.build_grids(kinds, M, N)
        for p, kind in kinds.items():
            seen[kind] += 1
            if p not in grids:
                seen["absent"] += 1
                continue
            seen["lane"] += 1
            err = truth_error(p, grids[p])
            assert err <= 1e-13, (p, M, N, err)
            worst = max(worst, err)
    return seen, worst


class TestGridLanes:
    """Grids built as lanes are the series' coefficients to a few units of
    1e-15, each the same bytes whatever the batch.  The full 60,000-grid
    corpus is check_lane_corpus(60000); this slice keeps a few seconds."""

    def test_corpus_slice(self):
        seen, worst = check_lane_corpus(2400)
        assert min(seen.values()) >= 50, seen
        assert worst <= 1e-13, worst

    def test_build_grids_gives_the_scalar_bytes(self):
        # build_grids holds the finite lanes alone, read-only and outside
        # the cache; the catalog requests a grid that is not finite as a
        # lane, which gives the grid the scalar engine builds alone or
        # raises as that build does
        params = [p for _, p, _, _ in lane_grid_corpus(1200, 8)]
        series._grid_coeffs.cache_clear()
        grids = series.build_grids(params + params[:5], 12, 12)
        info = series._grid_coeffs.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
        seen = {"lane": 0, "scalar": 0, "absent": 0}
        for p in params:
            if p in grids:
                assert not grids[p].flags.writeable
                seen["lane"] += 1
                continue
            if type(p) is KdfParams:
                continue  # no catalog entry reads a KdF grid
            q = series.param_columns([p])
            (stack, finite), = series.build_stacks([q], 12, 12)
            assert not finite[0]
            try:
                want = series._build_grid(p, 12, 12)
            except OverflowSignalError as exc:
                with pytest.raises(OverflowSignalError) as got:
                    catalog._instance_grids(q, stack, finite, 12, 12)
                assert str(got.value) == str(exc)
                seen["absent"] += 1
                continue
            got = catalog._instance_grids(q, stack, finite, 12, 12)[0]
            assert got.tobytes() == want.tobytes()
            seen["scalar"] += 1
        assert seen["lane"] > 500 and min(seen.values()) >= 10, seen
        assert len(grids) == seen["lane"]

    def test_a_grid_keeps_its_bytes_in_any_batch(self):
        # all params at once, shuffled batches of 7 and one grid alone give
        # each grid the same bytes, at every shape of the corpus
        rng = random.Random(5)
        by_shape = {}
        for _, p, M, N in lane_grid_corpus(1600, 9):
            by_shape.setdefault((M, N), []).append(p)
        compared = 0
        for (M, N), params in by_shape.items():
            whole = series.build_grids(params, M, N)
            shuffled = rng.sample(params, len(params))
            for lo in range(0, len(shuffled), 7):
                part = series.build_grids(shuffled[lo:lo + 7], M, N)
                assert part.keys() == {p for p in shuffled[lo:lo + 7]
                                       if p in whole}
                for p, grid in part.items():
                    assert grid.tobytes() == whole[p].tobytes(), (p, M, N)
                    compared += 1
            for p in params[:10]:
                alone = series.build_grids([p], M, N)
                assert alone.keys() == whole.keys() & {p}
                if p in alone:
                    assert alone[p].tobytes() == whole[p].tobytes(), (p, M, N)
        assert compared > 1000


class TestColumns:
    """A structure group's parameters as the columns its one chain set
    holds."""

    def test_columns_follow_the_group(self):
        group = [p for _, p, _, _ in lane_grid_corpus(400, 11)
                 if type(p) is F41Params and (p.k1, p.k2) == (1, 2)]
        assert len(group) > 3
        cols = series._columns(group)
        assert (type(cols), cols.k1, cols.k2) == (F41Params, 1, 2)
        for name in ("a", "b", "c1", "c2", "t1", "t2"):
            col = getattr(cols, name)
            assert col.dtype == np.complex128 and col.shape == (len(group),)
            assert col.tolist() == [getattr(p, name) for p in group]

    def test_columns_keep_signed_zeros(self):
        group = [F42Params(complex(re, im), 0.5, 1.5, 2.5, complex(im, re), 3,
                           0, 0)
                 for re in (0.0, -0.0, 1.25) for im in (0.0, -0.0)]
        cols = series._columns(group)
        for name in ("a", "t"):
            col = getattr(cols, name)
            want = [getattr(p, name) for p in group]
            assert np.signbit(col.real).tolist() == \
                [math.copysign(1, v.real) < 0 for v in want]
            assert np.signbit(col.imag).tolist() == \
                [math.copysign(1, v.imag) < 0 for v in want]

    def test_kdf_sequences_give_one_column_per_position(self):
        group = [KdfParams(A=(1.5 + i, -0.0 - 1j * i), B=(0.25 * i,),
                           E=(2.5 + i,)) for i in range(5)]
        cols = series._columns(group)
        assert len(cols.A) == 2 and len(cols.B) == 1 and cols.C == ()
        assert cols.D == () and len(cols.E) == 1 and cols.F == ()
        for name in ("A", "B", "E"):
            for pos, col in enumerate(getattr(cols, name)):
                assert col.dtype == np.complex128
                assert col.tolist() == [getattr(p, name)[pos] for p in group]
        assert np.signbit(cols.A[1].real).all()

    def test_mixed_families_match_the_scalar_build(self):
        # the two engines agree to rounding, cell for cell relative to the
        # grid's largest cell, exact zeros included, when the families of
        # a batch are mixed
        by_shape = {}
        for kind, p, M, N in lane_grid_corpus(4000, 12):
            if kind in ("signed-zero", "lattice"):
                by_shape.setdefault((M, N), []).append(p)
        lanes = 0
        for (M, N), params in by_shape.items():
            assert {type(p) for p in params} == \
                {F41Params, F42Params, KdfParams}
            for p, grid in series.build_grids(params, M, N).items():
                lanes += 1
                want = series._build_grid(p, M, N)
                assert ((grid == 0) == (want == 0)).all(), (p, M, N)
                assert np.abs(grid - want).max() <= \
                    1e-12 * np.abs(want).max(), (p, M, N)
        assert lanes > 500


class TestGridCacheBound:
    def test_holds_at_most_maxsize_grids(self):
        series._grid_coeffs.cache_clear()
        maxsize = series._grid_coeffs.cache_info().maxsize
        for i in range(maxsize + 3):
            series._grid_coeffs(P41.replace(a=1.5 + i), 2, 2)
        info = series._grid_coeffs.cache_info()
        assert (info.misses, info.currsize) == (maxsize + 3, maxsize)

    def test_largest_rectangle_is_built_once(self):
        # the byte-bounded cache this replaced kept no 512 x 512 grid
        pol = TruncationPolicy(511, 511)
        p = F41Params(-3, 0.8, 1.7, 2.3, 0, 0, 0, 0, 0.0, 0.0)
        series._grid_coeffs.cache_clear()
        first = evaluate_many(p, [0.1], [0.05], pol)[0].value
        assert evaluate_many(p, [0.1], [0.05], pol)[0].value == first
        info = series._grid_coeffs.cache_info()
        assert (info.misses, info.hits) == (1, 1)
