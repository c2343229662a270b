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
from appell4.series import F41Params, F42Params, eval_f4_classic

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
    """Coefficients of p on [0..M] x [0..N] from mpmath rising factorials
    at the working precision, as W[m + n] U[m] V[n]."""
    rf = mp.rf
    W = [rf(p.a, d) * rf(p.b, d) for d in range(M + N + 1)]
    U = [1 / (rf(p.c1, m) * mp.factorial(m)) for m in range(M + 1)]
    V = [1 / (rf(p.c2, n) * mp.factorial(n)) for n in range(N + 1)]
    if isinstance(p, F41Params):
        U = [u * (-1) ** (m * p.k1) * rf(-p.t1, m * p.k1)
             for m, u in enumerate(U)]
        V = [v * (-1) ** (n * p.k2) * rf(-p.t2, n * p.k2)
             for n, v in enumerate(V)]
    else:
        W = [w * (-1) ** (d * p.k) * rf(-p.t, d * p.k)
             for d, w in enumerate(W)]
    return [[W[m + n] * U[m] * V[n] for n in range(N + 1)]
            for m in range(M + 1)]


def audit_like_params(rng, count):
    """Generic complex parameters as the audit draws them, k from 1 to 3."""
    def cz():
        return complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))

    out = []
    for i in range(count):
        if i % 2:
            out.append(F41Params(cz(), cz(), cz(), cz(), cz(), cz(),
                                 rng.randint(1, 3), rng.randint(1, 3), 0, 0))
        else:
            out.append(F42Params(cz(), cz(), cz(), cz(), cz(),
                                 rng.randint(1, 3), 0, 0))
    return out


def test_lane_grids_against_mpmath_rising_factorials():
    # criterion 1: every cell within 1e-12 of the exact coefficient
    params = audit_like_params(random.Random(12), 40)
    built = list(series._grid_lanes(params, 12, 12))
    assert all(grid is not None for _, grid in built)
    checked = built[::3]
    worst = 0.0
    with mp.workdps(30):
        for p, grid in checked:
            for m, row in enumerate(exact_grid(p, 12, 12)):
                for n, want in enumerate(row):
                    err = abs(mp.mpc(grid[m, n]) - want) / abs(want)
                    worst = max(worst, float(err))
    assert worst <= 1e-12, worst
    assert {type(p) for p, _ in checked} == {F41Params, F42Params}
    steps = {getattr(p, name) for p, _ in checked
             for name in ("k", "k1", "k2") if hasattr(p, name)}
    assert steps == {1, 2, 3}


def eval_pool_ops(indices):
    """The argv lists of perfbench's eval pool at the given indices
    (perfbench/bench_inputs.py, loaded from its path)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "bench_inputs", os.path.join(root, "perfbench", "bench_inputs.py"))
    bench_inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_inputs)
    pool = bench_inputs.pools()["eval"]
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
    p = {name: as_mp(value) for name, value in params.items()}
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
        for argv in eval_pool_ops(ORACLE_OPS):
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
