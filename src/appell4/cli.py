"""Batch front door: evaluate the functions, audit the identity catalog,
check the integral representations, and sweep convergence diagnostics.

Commands: eval, audit, quadcheck, sweep.  Reports are JSON (complex numbers
as [re, im] pairs, floats with 17 significant digits, fixed key order);
sweeps are CSV.  Exit codes: 0 success, 1 a requested check failed, 2
parse/config error (an `--out` path that cannot be written included), 3
evaluation or precondition error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings
from itertools import product
from typing import Optional

import numpy as np

from .catalog import (Family, ParamSampler, Target, _require_tolerance,
                      audit_catalog, select_identities)
from .errors import Appell4Error
from .quadrature import (IntegralRepSpec, RepKind, _require_order,
                         _require_terminating, integral_rep_check,
                         laguerre_rule)
from .series import (ConvergenceRegionWarning, F41Params, F42Params,
                     KdfParams, TruncationPolicy, _require_finite,
                     _require_rectangle, eval_f4_classic, eval_f41, eval_f42,
                     eval_kdf, evaluate_many)

_OK, _CHECK_FAILED, _CONFIG_ERROR, _EVAL_ERROR = 0, 1, 2, 3
_ENV_SEED = "APPELL4_SEED"

_FAMILY_LETTERS = {f.name[0]: f for f in Family}


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

# the text flags' defaults, the same in every command that takes them
_TEXT_DEFAULTS = {"a": "1", "b": "1", "c1": "2", "c2": "2", "t1": "1",
                  "t2": "1", "t": "1", "x": "0", "y": "0"}
_INT, _FLOAT = {"type": int}, {"type": float}
_OPTION = {"m_max": "--M", "n_max": "--N",
           "include_suspected": "--include-suspected"}


def _text(names: str) -> dict:
    return {name: (_TEXT_DEFAULTS[name], {}) for name in names.split()}


def _rectangle(size: int) -> dict:
    return {"out": (None, {"help": "also write the report to this path"}),
            "m_max": (size, {"type": int, "help": "row truncation"}),
            "n_max": (size, {"type": int, "help": "column truncation"})}


# each command's help and its flags in --help order, as {destination:
# (default, add_argument keywords)}; the flag is --<destination> unless
# _OPTION names it, and the config file takes the destinations as keys
_COMMANDS = {
    "eval": ("evaluate one function value", {
        "fn": ("F41", {"choices": ("F41", "F42", "F4", "KdF")}),
        **_text("a b c1 c2 t1 t2 t x y"),
        "k1": (0, _INT), "k2": (0, _INT), "k": (0, _INT),
        **{name: ("", {"help": "comma-separated sequence (KdF only)"})
           for name in "ABCDEF"},
        **_rectangle(40)}),
    "audit": ("verify catalog identities at sampled parameters", {
        "seed": (None, _INT), "draws": (20, _INT),
        "tolerance": (1e-10, _FLOAT),
        "family": (None, {"choices": sorted(_FAMILY_LETTERS) +
                          [f.value for f in Family]}),
        "target": (None, {"choices": [t.value for t in Target]}),
        "include_suspected": (False, {
            "action": "store_true",
            "help": "also audit entries registered as printed typos"}),
        **_rectangle(12)}),
    "quadcheck": ("integral representation vs direct series", {
        "which": ("rep_a", {"choices": [r.value for r in RepKind]}),
        "k": (0, _INT), **_text("a b c1 c2 t1 t2 x y"),
        "order": (64, _INT), "tolerance": (1e-8, _FLOAT),
        **_rectangle(40)}),
    "sweep": ("convergence-region and divergence-flag grid", {
        "lo": (0.0, _FLOAT), "hi": (0.5, _FLOAT), "step": (0.1, _FLOAT),
        **_text("a b c1 c2 t"), "k": (0, _INT),
        **_rectangle(40)}),
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
    for command, (text, rows) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for dest, (_, keywords) in rows.items():
            if dest == "out":
                p.add_argument("--config", help="JSON file of flag values; "
                               "explicit flags win on conflict")
            # every default is None, so that a flag left out keeps the
            # config file's value
            p.add_argument(_OPTION.get(dest, "--" + dest), dest=dest,
                           default=None, **keywords)
    return parser


def _config_value(key: str, keywords: dict, val):
    """A config file's value, checked as its flag checks its text: a switch
    takes true or false; another flag reads str(val) with its type (str if
    none), so 1.7 is no int and true no count, then checks its choices."""
    if "action" in keywords:
        ok = isinstance(val, bool)
    else:
        try:
            val = keywords.get("type", str)(str(val))
            choices = keywords.get("choices")
            ok = choices is None or val in choices
        except ValueError:
            ok = False
    if not ok:
        raise ValueError(f"config key {key!r} cannot take {val!r}")
    return val


def _resolve_config(args: argparse.Namespace) -> dict:
    """The command's defaults, overridden by --config, overridden by flags."""
    command = args.command
    rows = _COMMANDS[command][1]
    merged = {dest: default for dest, (default, _) in rows.items()}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        for key, val in loaded.items():
            if key not in merged:
                raise ValueError(f"unknown config key {key!r} for {command}")
            if val is not None:  # null keeps the default
                merged[key] = _config_value(key, rows[key][1], val)
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
        res, params = eval_f41(p, pol), vars(p)
    elif fn == "F42":
        p = F42Params(a, b, c1, c2, _cplx(o["t"]), int(o["k"]), x, y)
        res, params = eval_f42(p, pol), vars(p)
    elif fn == "F4":
        # the region warning is one stderr line on every call, printed
        # before an evaluation error's
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ConvergenceRegionWarning)
            try:
                res = eval_f4_classic(a, b, c1, c2, x, y, pol)
            finally:
                for w in caught:
                    print(f"warning: {w.message}", file=sys.stderr)
        params = {"a": a, "b": b, "c1": c1, "c2": c2, "x": x, "y": y}
    else:
        p = KdfParams(*(_seq(o[n]) for n in "ABCDEF"), x=x, y=y)
        res, params = eval_kdf(p, pol), vars(p)
    report = {
        "function": fn,
        "params": params,
        "value": res.value,
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
# a flag as the CSV spells it
_BOOL = {False: "false", True: "true"}


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
    # each |x| row with every |y|, in the order of the lines below
    results = evaluate_many(F41Params(a, b, c1, c2, t, t, k, k, 0, 0),
                            np.array(values)[:, None], values, pol)
    # each axis value formatted once and its square root taken once: the
    # margin is then convergence_region's, 1 - sqrt|x| - sqrt|y|, as |v| of
    # a real v >= 0 is v
    axis = [(format(v, ".17g"), math.sqrt(v)) for v in values]
    lines = ["abs_x,abs_y,inside,margin,divergence"]
    for ((tx, rx), (ty, ry)), res in zip(product(axis, repeat=2), results):
        margin = 1.0 - rx - ry
        lines.append(f"{tx},{ty},{_BOOL[margin > 0.0]},{margin:.17g},"
                     f"{_BOOL[res.divergence_flag]}")
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
        if options["out"]:
            # an unwritable path fails before the command runs; a command
            # that fails later leaves the file empty, as a redirection does
            open(options["out"], "w", encoding="utf-8").close()
    except (OSError, ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _CONFIG_ERROR
    try:
        return _HANDLERS[args.command](options)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _CONFIG_ERROR
    except Appell4Error as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return _EVAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
