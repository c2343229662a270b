"""Deterministic operation pools for the three workloads.

Every workload draws its operations from a fixed pool whose reference
outputs are stored in ``references.json``.  The pools never change with the
run seed; the seed only chooses the order in which a run walks its pool, so
any seed gives a reproducible operation list whose outputs can be checked.

An operation is an argv list for ``appell4.cli.main``.  Every operation in a
pool has its own parameters, so inside one interpreter no operation can be
served from a coefficient grid that an earlier operation cached.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

AUDIT_POOL = 16
ROUND_POOL = 64
EVAL_POOL = 2048

WORKLOADS = ("audit-acceptance", "args-reuse", "eval-cold")
# units one worker interpreter runs: one audit per fresh interpreter, and
# enough rounds or evals that the grid cache grows as in a real CLI session
UNITS_PER_WORKER = {"audit-acceptance": 1, "args-reuse": 8, "eval-cold": 512}
# percentile reported as op_tail_ms: the highest with at least ten units
# beyond it at the unit counts a run reaches (thousands of evals, about 50
# rounds); a run holds only a few audits, so there it is the slowest one
TAIL_PERCENTILE = {"audit-acceptance": 100, "args-reuse": 75, "eval-cold": 99}


def _cx(z: complex) -> str:
    return repr(complex(z))


def _off_lattice(rng: random.Random, mag: float = 2.0,
                 min_dist: float = 0.1) -> complex:
    while True:
        z = complex(rng.uniform(-mag, mag), rng.uniform(-mag, mag))
        if abs(z - round(z.real)) >= min_dist:
            return z


def _arg(rng: random.Random, lo: float, hi: float) -> complex:
    radius = rng.uniform(lo, hi)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return complex(radius * math.cos(angle), radius * math.sin(angle))


def audit_op(seed: int) -> list:
    return ["audit", "--draws", "50", "--include-suspected",
            "--seed", str(seed)]


def quadcheck_op(rng: random.Random, order: int) -> list:
    """Equal-step quadcheck whose verdict is meaningful at 1e-10.

    The Gamma exponent is a positive integer, so u^(exponent-1) is a
    polynomial; for k >= 1 the t's are terminating, and for k = 0 the
    coupled numerator of the inner series is a nonpositive integer.  The
    integrand is then a polynomial that the Gauss rule integrates exactly.
    """
    which = rng.choice(("rep_a", "rep_b"))
    k = rng.choice((0, 1, 2))
    exponent = complex(rng.randint(1, 4))
    other = (complex(-rng.randint(1, 6)) if k == 0 else _off_lattice(rng))
    a, b = (exponent, other) if which == "rep_a" else (other, exponent)
    t1 = complex(k * rng.randint(2, 6))
    t2 = complex(k * rng.randint(2, 6))
    c1, c2 = _off_lattice(rng), _off_lattice(rng)
    x, y = _arg(rng, 0.05, 0.4), _arg(rng, 0.05, 0.4)
    argv = ["quadcheck", "--which", which, "--k", str(k)]
    for name, v in (("a", a), ("b", b), ("c1", c1), ("c2", c2),
                    ("t1", t1), ("t2", t2), ("x", x), ("y", y)):
        argv += [f"--{name}", _cx(v)]
    return argv + ["--order", str(order), "--tolerance", "1e-10"]


def sweep_op(rng: random.Random) -> list:
    """11 x 11 sweep over |x|, |y| in [0, 0.5] at the default 40 x 40."""
    k = rng.choice((0, 1))
    argv = ["sweep", "--lo", "0", "--hi", "0.5", "--step", "0.05",
            "--k", str(k)]
    for name in ("a", "b", "c1", "c2", "t"):
        argv += [f"--{name}", _cx(_off_lattice(rng))]
    return argv


def eval_op(rng: random.Random, fn: str) -> list:
    """One 40 x 40 eval; F42 uses k = 1 with non-terminating t, which
    overflows the linear grid assembly and takes the log-space path."""
    a, b, c1, c2 = (_off_lattice(rng) for _ in range(4))
    if fn == "F4":
        x, y = _arg(rng, 0.02, 0.2), _arg(rng, 0.02, 0.2)
    else:
        x, y = _arg(rng, 0.05, 0.4), _arg(rng, 0.05, 0.4)
    argv = ["eval", "--fn", fn]
    if fn == "KdF":
        seqs = {"A": (a, b), "B": (_off_lattice(rng),), "E": (c1,),
                "F": (c2,)}
        for name, seq in seqs.items():
            argv += [f"--{name}", ",".join(_cx(v) for v in seq)]
    else:
        for name, v in (("a", a), ("b", b), ("c1", c1), ("c2", c2)):
            argv += [f"--{name}", _cx(v)]
    if fn == "F41":
        argv += ["--t1", _cx(_off_lattice(rng)), "--t2",
                 _cx(_off_lattice(rng)), "--k1", str(rng.choice((0, 1, 2))),
                 "--k2", str(rng.choice((0, 1, 2)))]
    elif fn == "F42":
        argv += ["--t", _cx(_off_lattice(rng)), "--k", "1"]
    return argv + ["--x", _cx(x), "--y", _cx(y)]


def pools() -> dict:
    """Every pool, keyed by operation kind, in pool order."""
    rng = random.Random("appell4-perfbench-pools")
    rounds = [(quadcheck_op(rng, 256), quadcheck_op(rng, 64), sweep_op(rng))
              for _ in range(ROUND_POOL)]
    fns = ("F41", "F42", "F4", "KdF")
    return {
        "audit": [audit_op(s) for s in range(AUDIT_POOL)],
        "quadcheck256": [r[0] for r in rounds],
        "quadcheck64": [r[1] for r in rounds],
        "sweep": [r[2] for r in rounds],
        "eval": [eval_op(rng, fns[i % 4]) for i in range(EVAL_POOL)],
    }


def pools_digest(p: dict) -> str:
    return hashlib.sha256(json.dumps(p, sort_keys=True).encode()).hexdigest()


def unit_order(workload: str, seed: int) -> list:
    """The run's order of pool indices; one index is one timed unit."""
    size = {"audit-acceptance": AUDIT_POOL, "args-reuse": ROUND_POOL,
            "eval-cold": EVAL_POOL}[workload]
    order = list(range(size))
    random.Random(f"{workload}:{seed}").shuffle(order)
    return order


def unit_ops(workload: str, index: int) -> list:
    """(kind, pool index) pairs that make one timed unit of a workload."""
    if workload == "audit-acceptance":
        return [("audit", index)]
    if workload == "args-reuse":
        return [("quadcheck256", index), ("quadcheck64", index),
                ("sweep", index)]
    return [("eval", index)]
