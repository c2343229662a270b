"""Independent oracle: mpmath, at higher precision, against the engine.

Every other check of the package compares the engine with itself or with
scratch coefficients built from the same `pochhammer`; these compare it with
mpmath's own Appell F4 and rising factorials.
"""

import random

import mpmath as mp
import numpy as np
import pytest

import appell4.series as series
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
