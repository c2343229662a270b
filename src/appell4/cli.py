"""Batch front door: evaluate the functions, audit the identity catalog,
check the integral representations, and sweep convergence diagnostics.

Commands: eval, audit, quadcheck, sweep.  Reports are JSON (complex numbers
as [re, im] pairs, floats with 17 significant digits, fixed key order);
sweeps are CSV.  Exit codes: 0 success, 1 a requested check failed, 2
parse/config error, 3 evaluation or precondition error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from .catalog import (Family, ParamPoint, ParamSampler, Target,
                      _require_tolerance, audit_catalog, point_to_dict,
                      select_identities)
from .errors import Appell4Error
from .quadrature import (IntegralRepSpec, RepKind, _require_order,
                         _require_terminating, integral_rep_check,
                         laguerre_rule)
from .series import (F41Params, F42Params, KdfParams, TruncationPolicy,
                     _require_finite, _require_rectangle, convergence_region,
                     eval_f4_classic, eval_f41, eval_f42, eval_kdf,
                     evaluate_many)

_OK, _CHECK_FAILED, _CONFIG_ERROR, _EVAL_ERROR = 0, 1, 2, 3
_ENV_SEED = "APPELL4_SEED"

_FAMILY_LETTERS = {
    "A": Family.A_DDEQ, "B": Family.B_DIFF_FORMULAS,
    "C": Family.C_PARTIAL_FORMULAS, "D": Family.D_RECURSION_SUMS,
    "E": Family.E_FIRST_ORDER, "F": Family.F_SECOND_ORDER,
}


# ---------------------------------------------------------------------------
# deterministic JSON
# ---------------------------------------------------------------------------

def _atom(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        f = float(v)
        if math.isnan(f) or math.isinf(f):
            return json.dumps(str(f))
        return format(f, ".17g")
    if v is None:
        return "null"
    if isinstance(v, str):
        return json.dumps(v)
    raise TypeError(f"unsupported JSON atom {type(v)!r}")


def dump_json(v, indent: int = 0) -> str:
    """Fixed key order, [re, im] complex pairs, 17-significant-digit floats."""
    pad = "  " * indent
    if isinstance(v, complex):
        return dump_json([v.real, v.imag], indent)
    if isinstance(v, dict):
        if not v:
            return "{}"
        inner = ",\n".join(f"{pad}  {json.dumps(str(k))}: {dump_json(x, indent + 1)}"
                           for k, x in v.items())
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(v, (list, tuple, np.ndarray)):
        seq = list(v)
        if not seq:
            return "[]"
        inner = ",\n".join(f"{pad}  {dump_json(x, indent + 1)}" for x in seq)
        return "[\n" + inner + "\n" + pad + "]"
    return _atom(v)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_DEFAULTS = {
    "eval": {
        "fn": "F41", "a": "1", "b": "1", "c1": "2", "c2": "2",
        "t1": "1", "t2": "1", "t": "1", "k1": 0, "k2": 0, "k": 0,
        "x": "0", "y": "0",
        "A": "", "B": "", "C": "", "D": "", "E": "", "F": "",
        "m_max": 40, "n_max": 40, "out": None,
    },
    "audit": {
        "seed": None, "draws": 20, "m_max": 12, "n_max": 12,
        "tolerance": 1e-10, "family": None, "target": None,
        "include_suspected": False, "out": None,
    },
    "quadcheck": {
        "which": "rep_a", "k": 0, "a": "1", "b": "1", "c1": "2", "c2": "2",
        "t1": "1", "t2": "1", "x": "0", "y": "0",
        "order": 64, "tolerance": 1e-8, "m_max": 40, "n_max": 40, "out": None,
    },
    "sweep": {
        "lo": 0.0, "hi": 0.5, "step": 0.1, "a": "1", "b": "1",
        "c1": "2", "c2": "2", "t": "1", "k": 0,
        "m_max": 40, "n_max": 40, "out": None,
    },
}


# built on first use and kept: building costs more than a cold eval, and
# parse_args leaves the parser unchanged
@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="appell4",
        description="Evaluate and verify the discrete analogues of the "
                    "fourth Appell function.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON file of flag values; explicit "
                       "flags win on conflict")
        p.add_argument("--out", help="also write the report to this path")
        p.add_argument("--M", dest="m_max", type=int, help="row truncation")
        p.add_argument("--N", dest="n_max", type=int, help="column truncation")

    p_eval = sub.add_parser("eval", help="evaluate one function value")
    p_eval.add_argument("--fn", choices=("F41", "F42", "F4", "KdF"))
    for name in ("a", "b", "c1", "c2", "t1", "t2", "t", "x", "y"):
        p_eval.add_argument(f"--{name}")
    for name in ("k1", "k2", "k"):
        p_eval.add_argument(f"--{name}", type=int)
    for name in ("A", "B", "C", "D", "E", "F"):
        p_eval.add_argument(f"--{name}", help="comma-separated sequence "
                            "(KdF only)")
    add_common(p_eval)

    p_audit = sub.add_parser("audit", help="verify catalog identities at "
                             "sampled parameters")
    p_audit.add_argument("--seed", type=int)
    p_audit.add_argument("--draws", type=int)
    p_audit.add_argument("--tolerance", type=float)
    p_audit.add_argument("--family", choices=sorted(_FAMILY_LETTERS) +
                         [f.value for f in Family])
    p_audit.add_argument("--target", choices=[t.value for t in Target])
    p_audit.add_argument("--include-suspected", dest="include_suspected",
                         action="store_true", default=None,
                         help="also audit entries registered as printed typos")
    add_common(p_audit)

    p_quad = sub.add_parser("quadcheck", help="integral representation vs "
                            "direct series")
    p_quad.add_argument("--which", choices=[r.value for r in RepKind])
    p_quad.add_argument("--k", type=int)
    for name in ("a", "b", "c1", "c2", "t1", "t2", "x", "y"):
        p_quad.add_argument(f"--{name}")
    p_quad.add_argument("--order", type=int)
    p_quad.add_argument("--tolerance", type=float)
    add_common(p_quad)

    p_sweep = sub.add_parser("sweep", help="convergence-region and "
                             "divergence-flag grid")
    for name in ("lo", "hi", "step"):
        p_sweep.add_argument(f"--{name}", type=float)
    for name in ("a", "b", "c1", "c2", "t"):
        p_sweep.add_argument(f"--{name}")
    p_sweep.add_argument("--k", type=int)
    add_common(p_sweep)
    return parser


def _flags(command: str) -> dict:
    """The command's flags by destination, as its subparser defines them."""
    sub, = (action for action in _build_parser()._actions
            if isinstance(action, argparse._SubParsersAction))
    return {action.dest: action for action in sub.choices[command]._actions}


def _config_value(action: argparse.Action, val):
    """A config file's value, checked as its flag checks its text: a switch
    takes true or false; another flag reads str(val) with its type (str if
    none), so 1.7 is no int and true no count, then checks its choices."""
    if action.nargs == 0:
        ok = isinstance(val, bool)
    else:
        try:
            val = (action.type or str)(str(val))
            ok = action.choices is None or val in action.choices
        except ValueError:
            ok = False
    if not ok:
        raise ValueError(f"config key {action.dest!r} cannot take {val!r}")
    return val


def _resolve_config(args: argparse.Namespace) -> dict:
    """The command's defaults, overridden by --config, overridden by flags."""
    command = args.command
    merged = dict(_DEFAULTS[command])
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        for key, val in loaded.items():
            if key not in merged:
                raise ValueError(f"unknown config key {key!r} for {command}")
            if val is not None:  # null keeps the default
                merged[key] = _config_value(_flags(command)[key], val)
    for key in merged:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    return merged


def _cplx(v: str) -> complex:
    return complex(v.strip().replace(" ", ""))


def _seq(text) -> tuple:
    text = str(text).strip()
    if not text:
        return ()
    return tuple(_cplx(part) for part in text.split(","))


def _arguments(o: dict) -> tuple:
    """The arguments x and y, each finite (ValueError, exit 2, otherwise):
    the library takes a NaN or infinite argument, and its sum overflows."""
    x, y = _cplx(o["x"]), _cplx(o["y"])
    _require_finite("x", x)
    _require_finite("y", y)
    return x, y


def _emit(text: str, out_path: Optional[str]) -> None:
    sys.stdout.write(text + "\n")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _params_json(p) -> dict:
    d = point_to_dict(ParamPoint(p))
    for key in ("target", "r", "s"):
        d.pop(key)
    return d


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_eval(o: dict) -> int:
    pol = TruncationPolicy(int(o["m_max"]), int(o["n_max"]))
    fn = o["fn"]
    a, b, c1, c2 = (_cplx(o[n]) for n in ("a", "b", "c1", "c2"))
    x, y = _arguments(o)
    if fn == "F41":
        p = F41Params(a, b, c1, c2, _cplx(o["t1"]), _cplx(o["t2"]),
                      int(o["k1"]), int(o["k2"]), x, y)
        res, params = eval_f41(p, pol), _params_json(p)
    elif fn == "F42":
        p = F42Params(a, b, c1, c2, _cplx(o["t"]), int(o["k"]), x, y)
        res, params = eval_f42(p, pol), _params_json(p)
    elif fn == "F4":
        res = eval_f4_classic(a, b, c1, c2, x, y, pol)
        params = {"a": a, "b": b, "c1": c1, "c2": c2, "x": x, "y": y}
    else:
        kdf = KdfParams(A=_seq(o["A"]), B=_seq(o["B"]), C=_seq(o["C"]),
                        D=_seq(o["D"]), E=_seq(o["E"]), F=_seq(o["F"]),
                        x=x, y=y)
        res = eval_kdf(kdf, pol)
        params = {name: list(getattr(kdf, name))
                  for name in ("A", "B", "C", "D", "E", "F")}
        params.update(x=x, y=y)
    report = {
        "function": fn,
        "params": params,
        "value": [res.value.real, res.value.imag],
        "terms_used": res.terms_used,
        "tail_estimate": res.tail_estimate,
        "divergence_flag": res.divergence_flag,
    }
    _emit(dump_json(report), o["out"])
    return _OK


def cmd_audit(o: dict) -> int:
    seed = o["seed"]
    if seed is None:
        seed = int(os.environ.get(_ENV_SEED, 42))
    family = None
    if o["family"] is not None:
        family = _FAMILY_LETTERS.get(str(o["family"])) or Family(o["family"])
    target = Target(o["target"]) if o["target"] is not None else None
    idents = select_identities(family=family, target=target,
                               include_suspected=bool(o["include_suspected"]))
    draws = int(o["draws"])
    if draws < 1:
        raise ValueError(f"draws must be at least 1, got {draws}")
    sampler = ParamSampler(seed=int(seed), draws=draws)
    M, N = int(o["m_max"]), int(o["n_max"])
    _require_rectangle(M, N)
    summary = audit_catalog(sampler, M, N, float(o["tolerance"]), idents)
    _emit(dump_json(list(summary.rows)), o["out"])
    bad = [row for row in summary.rows if row["status"] in ("fail", "mixed")]
    return _CHECK_FAILED if bad else _OK


def cmd_quadcheck(o: dict) -> int:
    # a bad order or tolerance (exit 2) wins over every other error, and a
    # bad spec or non-terminating t (exit 3) is found before the rule is built
    order = int(o["order"])
    _require_order(order)
    _require_tolerance(float(o["tolerance"]))
    k = int(o["k"])
    p = F41Params(_cplx(o["a"]), _cplx(o["b"]), _cplx(o["c1"]), _cplx(o["c2"]),
                  _cplx(o["t1"]), _cplx(o["t2"]), k, k, *_arguments(o))
    spec = IntegralRepSpec(RepKind(o["which"]), k, p)
    pol = TruncationPolicy(int(o["m_max"]), int(o["n_max"]))
    if k >= 1:
        _require_terminating(spec)
    report = integral_rep_check(spec, laguerre_rule(order), pol,
                                float(o["tolerance"]))
    _emit(dump_json(report.as_dict()), o["out"])
    return _OK if report.passed else _CHECK_FAILED


# points per sweep axis; the grid evaluates the square of this many
_SWEEP_MAX_POINTS = 201


def _sweep_axis(lo: float, hi: float, step: float) -> list:
    """|x| (and |y|) values of a sweep: lo, lo + step, ... up to hi.

    Raises ValueError for bad or non-finite bounds or more than
    _SWEEP_MAX_POINTS points, before any list is built."""
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ValueError(f"sweep bounds must be finite: lo={lo}, hi={hi}, "
                         f"step={step}")
    if step <= 0 or hi < lo or lo < 0:
        raise ValueError(f"bad sweep bounds: lo={lo}, hi={hi}, step={step}")
    span = (hi - lo) / step
    # the first test also rejects the infinite span of a subnormal step,
    # which round() cannot take
    if not span < _SWEEP_MAX_POINTS or round(span) + 1 > _SWEEP_MAX_POINTS:
        raise ValueError(f"sweep from {lo} to {hi} by {step} exceeds "
                         f"{_SWEEP_MAX_POINTS} points per axis")
    count = int(round(span)) + 1
    return [lo + i * step for i in range(count) if lo + i * step <= hi + 1e-12]


def cmd_sweep(o: dict) -> int:
    values = _sweep_axis(float(o["lo"]), float(o["hi"]), float(o["step"]))
    pol = TruncationPolicy(int(o["m_max"]), int(o["n_max"]))
    a, b, c1, c2, t = (_cplx(o[n]) for n in ("a", "b", "c1", "c2", "t"))
    k = int(o["k"])
    xs = [ax for ax in values for _ in values]
    ys = values * len(values)
    results = evaluate_many(F41Params(a, b, c1, c2, t, t, k, k, 0, 0),
                            xs, ys, pol)
    lines = ["abs_x,abs_y,inside,margin,divergence"]
    for ax, ay, res in zip(xs, ys, results):
        inside, margin = convergence_region(ax, ay)
        lines.append(",".join((
            format(ax, ".17g"), format(ay, ".17g"),
            str(inside).lower(), format(margin, ".17g"),
            str(res.divergence_flag).lower())))
    _emit("\n".join(lines), o["out"])
    return _OK


_HANDLERS = {"eval": cmd_eval, "audit": cmd_audit,
             "quadcheck": cmd_quadcheck, "sweep": cmd_sweep}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return _CONFIG_ERROR if exc.code else _OK
    try:
        options = _resolve_config(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _CONFIG_ERROR
    try:
        return _HANDLERS[args.command](options)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _CONFIG_ERROR
    except Appell4Error as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return _EVAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
