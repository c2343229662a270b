"""Independent oracle: mpmath, at higher precision, against the engine.

Every other check of the package compares the engine with itself or with
scratch coefficients built from the same `pochhammer`; these compare it with
mpmath's own Appell F4 and rising factorials.
"""

import contextlib
import importlib.util
import io
import json
import os
import random

import mpmath as mp
import numpy as np
import pytest

import appell4.series as series
from appell4.cli import main
from appell4.quadrature import laguerre_rule
from appell4.series import F41Params, F42Params, KdfParams, eval_f4_classic

# classical F4 points: complex parameters, arguments well inside the region
# sqrt|x| + sqrt|y| < 1, where 40 x 40 terms leave a tail far below 1e-16
F4_POINTS = [
    (1.5, 0.5, 2.5, 1.5, 0.1, 0.1),
    (0.7 + 0.2j, 1.3 - 0.4j, 2.25, 1.85, 0.05 + 0.02j, 0.03),
    (-0.6 + 0.3j, 2.1, 1.4 - 0.5j, 0.8 + 0.9j, -0.08, 0.06 - 0.04j),
    (3.2, -1.7 + 0.1j, 2.9 + 1.1j, 3.3, 0.02j, -0.1 + 0.05j),
    (0.25, 0.75, -0.5 + 0.5j, 1.5 - 1.5j, 0.12, -0.07),
    (1.9 - 1.2j, 0.4 + 0.8j, 0.6, 2.2 + 0.3j, -0.04 - 0.04j, 0.09),
]


@pytest.mark.parametrize("point", F4_POINTS)
def test_classical_f4_against_mpmath_appellf4(point):
    got = eval_f4_classic(*point).value
    with mp.workdps(30):
        want = complex(mp.appellf4(*[mp.mpc(v) for v in point]))
    assert abs(got - want) <= 1e-13 * abs(want)


def exact_grid(p, M, N):
    """Coefficients of p on [0..M] x [0..N] from running products at the
    working precision (grid_factors), as W[m + n] U[m] V[n]."""
    W, U, V = grid_factors(p, M, N)
    return [[W[m + n] * U[m] * V[n] for n in range(N + 1)]
            for m in range(M + 1)]


def audit_like_params(rng, count):
    """Generic complex parameters as the audit draws them, k from 1 to 3,
    and Kampe de Feriet parameters with one to two entries in each
    numerator sequence and up to one in each denominator sequence."""
    def cz():
        return complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))

    def seq(least, most):
        return tuple(cz() for _ in range(rng.randint(least, most)))

    out = []
    for i in range(count):
        if i % 3 == 1:
            out.append(F41Params(cz(), cz(), cz(), cz(), cz(), cz(),
                                 rng.randint(1, 3), rng.randint(1, 3), 0, 0))
        elif i % 3 == 2:
            out.append(KdfParams(A=seq(1, 2), B=seq(1, 2), C=seq(1, 2),
                                 D=seq(0, 1), E=seq(0, 1), F=seq(0, 1)))
        else:
            out.append(F42Params(cz(), cz(), cz(), cz(), cz(),
                                 rng.randint(1, 3), 0, 0))
    return out


def test_lane_grids_against_mpmath_rising_factorials():
    # criterion 1, tightened: every cell of a grid built as a lane within
    # 1e-14 of the exact coefficient (the scalar chains of _build_grid
    # drift to 1.2e-13 on such grids)
    params = audit_like_params(random.Random(12), 36)
    checked = list(series.build_grids(params, 12, 12).items())
    assert len(checked) == len(params)
    worst = 0.0
    with mp.workdps(30):
        for p, grid in checked:
            for m, row in enumerate(exact_grid(p, 12, 12)):
                for n, want in enumerate(row):
                    err = abs(mp.mpc(grid[m, n]) - want) / abs(want)
                    worst = max(worst, float(err))
    assert worst <= 1e-14, worst
    assert {type(p) for p, _ in checked} == {F41Params, F42Params, KdfParams}
    steps = {getattr(p, name) for p, _ in checked
             for name in ("k", "k1", "k2") if hasattr(p, name)}
    assert steps == {1, 2, 3}


def pool_ops(kind, indices):
    """The argv lists of perfbench's pool kind at the given indices
    (perfbench/bench_inputs.py, loaded from its path)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "bench_inputs", os.path.join(root, "perfbench", "bench_inputs.py"))
    bench_inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_inputs)
    pool = bench_inputs.pools()[kind]
    return [pool[i] for i in indices]


def rising(v, length):
    """[(v)_0, ..., (v)_length] as one running product in mpmath; mp.rf
    loses every digit at large |v| (mpmath 1.3.0 gives mp.rf(1e200, 3) as
    1)."""
    out = [mp.mpc(1)]
    for i in range(length):
        out.append(out[-1] * (v + i))
    return out


def t_factor(t, k, length):
    """[(-1)^(ik) (-t)_(ik) for i in 0..length]."""
    r = rising(-t, length * k)
    return [(-1) ** (i * k) * r[i * k] for i in range(length + 1)]


def binary_split(z):
    """z as (c, e) with z = c 2^e, where c is a complex float whose larger
    part has magnitude in [1/2, 1); (0j, 0) for z = 0."""
    parts = [x._mpf_ for x in (z.real, z.imag) if x]
    if not parts:
        return 0j, 0
    e = max(exp + bits for _, _, exp, bits in parts)
    return complex(mp.ldexp(z.real, -e), mp.ldexp(z.imag, -e)), e


def truth_error(p, grid):
    """The largest |grid - truth| over the cells of grid, relative to the
    largest cell of the truth, the coefficients of p from running products
    at 30 digits (grid_factors); inf where a cell that is exactly 0 in the
    truth is not 0 in grid.  The truth's cells are formed in floats from
    binary_split factors, so the figure holds to a few units of 1e-16
    wherever the truth overflows or underflows the double range."""
    M, N = grid.shape[0] - 1, grid.shape[1] - 1
    with mp.workdps(30):
        (cw, ew), (cu, eu), (cv, ev) = (
            map(np.array, zip(*map(binary_split, f)))
            for f in grid_factors(p, M, N))
    idx = np.arange(M + 1)[:, None] + np.arange(N + 1)[None, :]
    c = cw[idx] * cu[:, None] * cv[None, :]
    e = ew[idx] + eu[:, None] + ev[None, :]
    if (grid[c == 0] != 0).any():
        return np.inf
    top = e[c != 0].max()

    def scaled(z, shift):
        return np.ldexp(z.real, shift) + 1j * np.ldexp(z.imag, shift)

    truth = scaled(c, e - top)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.abs(scaled(grid, -top) - truth).max()
                     / np.abs(truth).max())


def as_mp(value):
    """A report field in mpmath: [re, im] pairs as mpc, a list of pairs
    as a list, an int as it is."""
    if isinstance(value, int):
        return value
    if all(isinstance(v, list) for v in value):
        return [mp.mpc(*v) for v in value]
    return mp.mpc(*value)


def product_coefficients(fn, params, M, N):
    """W over m + n, U over m and V over n, whose products W[m + n] U[m]
    V[n] are the coefficients of an eval report's function at its params,
    from running products at the working precision."""
    return truth_factors(fn, {name: as_mp(value)
                              for name, value in params.items()}, M, N)


def grid_factors(p, M, N):
    """product_coefficients of a parameter object p: its complex fields as
    mpmath numbers, each sequence as a list of them."""
    fields = {name: value if isinstance(value, int)
              else [mp.mpc(v) for v in value] if isinstance(value, tuple)
              else mp.mpc(value) for name, value in vars(p).items()}
    return truth_factors(series._KIND[type(p)], fields, M, N)


def truth_factors(fn, p, M, N):
    """W, U and V of the function fn ("F41", "F42", "F4" or "KdF") at the
    fields p, mpmath numbers, from running products at the working
    precision."""
    fact_m, fact_n = rising(1, M), rising(1, N)
    if fn == "KdF":
        arrays = []
        for num, den, length, last in (("A", "D", M + N, ()),
                                       ("B", "E", M, (fact_m,)),
                                       ("C", "F", N, (fact_n,))):
            acc = [mp.mpc(1)] * (length + 1)
            for v in p[num]:
                acc = [w * r for w, r in zip(acc, rising(v, length))]
            for den_values in [rising(v, length) for v in p[den]] + list(last):
                acc = [w / r for w, r in zip(acc, den_values)]
            arrays.append(acc)
        return arrays
    W = [r * s for r, s in zip(rising(p["a"], M + N), rising(p["b"], M + N))]
    U = [1 / (r * f) for r, f in zip(rising(p["c1"], M), fact_m)]
    V = [1 / (r * f) for r, f in zip(rising(p["c2"], N), fact_n)]
    if fn == "F41":
        U = [u * s for u, s in zip(U, t_factor(p["t1"], p["k1"], M))]
        V = [v * s for v, s in zip(V, t_factor(p["t2"], p["k2"], N))]
    elif fn == "F42":
        W = [w * s for w, s in zip(W, t_factor(p["t"], p["k"], M + N))]
    return W, U, V


# eval pool ops summed against the truth: the first 32 hold every function,
# op 47 (KdF) has kappa = sum|terms| / |sum| = 3.6e5, and op 477 (F42, log
# route) had the largest error relative to kappa over ops 0-639
ORACLE_OPS = list(range(32)) + [47, 477]


def test_eval_pool_sums_against_a_product_truth():
    # criterion 1's cell bound carried through a sum: each 41 x 41 value
    # within 1e-12 sum|terms| of the truncated sum at 60 digits
    worst = {}
    with mp.workdps(60):
        for argv in pool_ops("eval", ORACLE_OPS):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(argv) == 0
            report = json.loads(out.getvalue())
            fn, params = report["function"], report["params"]
            W, U, V = product_coefficients(fn, params, 40, 40)
            x, y = mp.mpc(*params["x"]), mp.mpc(*params["y"])
            U = [u * x ** m for m, u in enumerate(U)]
            V = [v * y ** n for n, v in enumerate(V)]
            total, size = mp.mpc(0), mp.mpf(0)
            for m, u in enumerate(U):
                for n, v in enumerate(V):
                    term = W[m + n] * u * v
                    total += term
                    size += abs(term)
            err = abs(mp.mpc(*report["value"]) - total) / size
            assert err <= 1e-12, (argv, float(err))
            worst[fn] = max(worst.get(fn, 0.0), float(err))
    assert set(worst) == {"F41", "F42", "F4", "KdF"}, worst


def quadcheck_truth(report, rule):
    """The quadrature value a quadcheck report's rule gives exactly, its
    float nodes and weights taken as exact: the sum over nodes u of
    w u^(e-1) P(u) / Gamma(e), where e is the Gamma exponent and P(u) the
    inner Kampe de Feriet series on the 41 x 41 rectangle at arguments
    kappa u x and kappa u y, kappa = (-k)^k, its coefficients from running
    products at the working precision."""
    raw = report["params"]
    p = {name: as_mp(raw[name]) for name in ("a", "b", "x", "y")}
    rep_a = report["identity_id"].endswith("rep_a")
    exponent = p["a"] if rep_a else p["b"]
    # the inner parameters as the engine forms them, in floats
    k = raw["k1"]
    B, C = ([[z.real, z.imag] for z in ((-complex(*raw[t]) + i) / k
                                        for i in range(k))]
            for t in ("t1", "t2"))
    W, U, V = product_coefficients("KdF", {
        "A": [raw["b"] if rep_a else raw["a"]], "B": B, "C": C, "D": [],
        "E": [raw["c1"]], "F": [raw["c2"]]}, 40, 40)
    kappa = (-k) ** k
    U = [u * (kappa * p["x"]) ** m for m, u in enumerate(U)]
    V = [v * (kappa * p["y"]) ** n for n, v in enumerate(V)]
    # P(u) = sum_d B_d u^d, B_d the anti-diagonal sums at u = 1
    blocks = [W[d] * mp.fsum(U[m] * V[d - m]
                             for m in range(max(0, d - 40), min(d, 40) + 1))
              for d in range(81)]
    total = mp.mpc(0)
    for u, w in zip(rule.nodes.tolist(), rule.weights.tolist()):
        u = mp.mpf(u)
        value = mp.mpc(0)
        for b in reversed(blocks):
            value = value * u + b
        total += mp.mpf(w) * mp.power(u, exponent - 1) * value
    return total / mp.gamma(exponent)


# the first 8 operations of each quadcheck pool, the worst two of
# quadcheck64 against this truth (ops 50 and 52), and the two quadcheck
# argvs of tests/test_cli.py's golden hashes, the second non-terminating
QUADCHECK_OPS = (pool_ops("quadcheck256", range(8))
                 + pool_ops("quadcheck64", [*range(8), 50, 52]) + [
    ["quadcheck", "--k", "1", "--order", "64", "--a", "3", "--b", "2",
     "--c1", "1.7", "--c2", "2.3", "--t1", "3", "--t2", "3", "--x", "0.3",
     "--y", "0.2"],
    ["quadcheck", "--order", "256", "--a", "2", "--b", "0.7+0.1j",
     "--c1", "1.2", "--c2", "0.9-0.2j", "--x", "0.05+0.01j", "--y", "0.04"]])


def test_quadcheck_values_against_a_product_truth():
    # each quadrature value within 1e-13 of what its own rule gives at 60
    # digits: the engine's error is rounding alone (worst 1.6e-14 over all
    # 128 pool checks)
    for argv in QUADCHECK_OPS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        report = json.loads(out.getvalue())
        with mp.workdps(60):
            truth = quadcheck_truth(
                report, laguerre_rule(report["params"]["order"]))
            err = abs(mp.mpc(*report["params"]["quadrature_value"]) - truth)
            assert err <= 1e-13 * abs(truth), (argv, float(err / abs(truth)))
