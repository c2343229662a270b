"""In-process alternating timings of two checkouts' pool commands.

    python3 tools/layer_pairs.py --parent DIR --change DIR \\
        [--kinds quadcheck256 quadcheck64 sweep eval audit] [--ops 38] \\
        [--record BENCH_<slug>.json]

DIR is the root of an appell4 checkout.  The src/appell4 package of each is
loaded into this one interpreter under its own name (appell4_parent,
appell4_change), so both sides share the process, the numpy build and the
host's state of the moment.  Operation i of each command kind comes from
the benchmark pools (perfbench/bench_inputs.py of the change checkout);
it runs through each side's cli.main, one side right after the other, and
the side that goes first alternates from one operation to the next.  A
side's reading is the CPU time (time.process_time) of its call.  Every pool
operation has its own parameters, so no side serves one from a grid it
cached earlier.  Before timing, each side runs the last pool operation of
each kind once, which builds its quadrature rules.

For the quadcheck kinds the CPU of each side's integral_rep_check call is
read too and divided by the rule's order: the per-node CPU in us.  For
sweep the CPU of each side's evaluate_many call is read and divided by the
number of results it returns: the per-point CPU in us.  For audit the CPU
of each side's three catalog phases is summed over the audit: plan_s
(`_plan`: sides built and terms compiled), build_s (`build_stacks`) and
compare_s (`_compare`), and grid_us is build_s per grid built; the worst
residual of the audit's `ok` rows is read as worst_ok_e15, in units of
1e-15.  A call that raises is not read.  An audit takes seconds and its
pool holds 16, so audit runs only when --kinds names it, with an --ops of
at most 15 (the last operation warms up).  Each operation of the change
is checked against the parent's as the benchmark checks it against its
references, through summarize and mismatch of
perfbench/run.py (of the change checkout, loaded from its path): the same
exit code and pinned fields, values within its relative tolerance.  The
tool stops at the first operation that fails that check, and counts the
operations whose exit code or stdout changed bytes.

Prints, per kind and measure, each side's median and inclusive quartiles,
the median of the per-operation ratios change / parent and the pairs the
change won (read lower), and per kind the operations that changed bytes.
With --record FILE those figures, with each side's readings, are written
into that JSON file (created if missing) under "layers".  The standard
library and numpy alone are used.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import os
import statistics
import sys
import time

import numpy as np

from bench_pairs import SIDES, spread, write_record

KINDS = ("quadcheck256", "quadcheck64", "sweep", "eval", "audit")
# the kinds run when --kinds is not given: all but audit
DEFAULT_KINDS = KINDS[:4]


def load_module(name: str, path: str, package=None):
    """The module or package (its directory given as package) at path,
    registered under name."""
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=[package] if package else None)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def timed(fn, readings: list, units):
    """fn, recording the CPU seconds of each call that returns divided by
    units(result, *args) in readings."""
    def call(*args, **kwargs):
        start = time.process_time()
        result = fn(*args, **kwargs)
        readings.append((time.process_time() - start) / units(result, *args))
        return result
    return call


def load_cli(root: str, side: str):
    """The cli module of a checkout's src/appell4, loaded as appell4_<side>,
    with its integral_rep_check and evaluate_many wrapped to record each
    call's CPU per node and per point in the returned lists, and the
    catalog's plan, build and compare phases to record each call's CPU
    (timed_phase)."""
    package = os.path.join(root, "src", "appell4")
    load_module(f"appell4_{side}", os.path.join(package, "__init__.py"),
                package)
    cli = importlib.import_module(f"appell4_{side}.cli")
    readings = {"node_us": [], "point_us": []}
    cli.integral_rep_check = timed(cli.integral_rep_check,
                                   readings["node_us"],
                                   lambda _, spec, rule, *args: rule.order)
    cli.evaluate_many = timed(cli.evaluate_many, readings["point_us"],
                              lambda results, *args: len(results))
    catalog = importlib.import_module(f"appell4_{side}.catalog")
    phases = readings["phases"] = []
    for phase, name in (("plan_s", "_plan"), ("build_s", "build_stacks"),
                        ("compare_s", "_compare")):
        setattr(catalog, name, timed_phase(getattr(catalog, name), phase,
                                           phases))
    return cli, readings


def timed_phase(fn, phase: str, phases: list):
    """fn, recording (phase, CPU seconds, grids) of each call in phases,
    grids being those a build call builds: one per entry of each params'
    columns (one for a params of numbers)."""
    def call(*args, **kwargs):
        start = time.process_time()
        result = fn(*args, **kwargs)
        grids = sum(int(np.size(getattr(p, "a", 0))) for p in args[0]) \
            if phase == "build_s" else 0
        phases.append((phase, time.process_time() - start, grids))
        return result
    return call


def audit_readings(readings: dict, stdout: str) -> dict:
    """plan_s, build_s, compare_s, grid_us and worst_ok_e15 of the audit
    just run, its phase calls taken from readings."""
    out = dict.fromkeys(("plan_s", "build_s", "compare_s"), 0.0)
    grids = 0
    for phase, cpu, built in readings["phases"]:
        out[phase] += cpu
        grids += built
    readings["phases"].clear()
    out["grid_us"] = out["build_s"] * 1e6 / grids
    out["worst_ok_e15"] = 1e15 * max(row["worst_rel_residual"]
                                     for row in json.loads(stdout)
                                     if row["status"] == "ok")
    return out


def run_op(cli, argv) -> tuple:
    """(CPU seconds, exit code, stdout) of one cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.process_time()
        code = cli.main(argv)
        cpu = time.process_time() - start
    return cpu, code, out.getvalue()


def compare(runs: dict) -> dict:
    """Each side's spread, the median per-pair ratio and the pairs won."""
    pairs = list(zip(runs["parent"], runs["change"]))
    return {**{side: spread(runs[side]) for side in SIDES},
            "median_ratio": round(statistics.median(c / p for p, c in pairs),
                                  4),
            "change_lower_pairs": sum(c < p for p, c in pairs),
            "pairs": len(pairs)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--kinds", nargs="+", choices=KINDS,
                        default=DEFAULT_KINDS)
    parser.add_argument("--ops", type=int, default=38,
                        help="operations per kind, from the pool's first")
    parser.add_argument("--record",
                        help="JSON file whose \"layers\" entry to write")
    args = parser.parse_args(argv)
    roots = {side: os.path.abspath(getattr(args, side)) for side in SIDES}
    pools = load_module("bench_inputs", os.path.join(
        roots["change"], "perfbench", "bench_inputs.py")).pools()
    bench = load_module("bench_run", os.path.join(roots["change"],
                                                  "perfbench", "run.py"))
    if not 1 <= args.ops < min(len(pools[kind]) for kind in args.kinds):
        raise SystemExit("--ops must leave each pool's last operation for "
                         "the warm-up")
    sides = {side: load_cli(roots[side], side) for side in SIDES}
    for kind in args.kinds:
        for cli, _ in sides.values():
            run_op(cli, pools[kind][-1])
    for _, readings in sides.values():
        for values in readings.values():
            values.clear()

    command_ms = {kind: {side: [] for side in SIDES} for kind in args.kinds}
    audits = {side: [] for side in SIDES}
    changed = dict.fromkeys(args.kinds, 0)
    for i in range(args.ops):
        for kind in args.kinds:
            ops = {}
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                cpu, code, stdout = run_op(sides[side][0], pools[kind][i])
                command_ms[kind][side].append(cpu * 1e3)
                if kind == "audit":
                    audits[side].append(audit_readings(sides[side][1],
                                                       stdout))
                ops[side] = {"code": code, "stdout": stdout, "error": None}
            why = bench.mismatch(kind, ops["change"],
                                 bench.summarize(kind, ops["parent"]))
            if why is not None:
                raise SystemExit(f"{kind} {i}: the change does not match "
                                 f"the parent: {why}")
            changed[kind] += ops["parent"] != ops["change"]

    us = {measure: {side: [s * 1e6 for s in sides[side][1][measure]]
                    for side in SIDES} for measure in ("node_us", "point_us")}
    layers = {}
    for kind in args.kinds:
        layers[kind] = {"command_ms": compare(command_ms[kind])}
        if kind.startswith("quadcheck"):
            # the checks ran in pool order, kinds interleaved
            quad = [k for k in args.kinds if k.startswith("quadcheck")]
            step, first = len(quad), quad.index(kind)
            layers[kind]["node_us"] = compare(
                {side: us["node_us"][side][first::step] for side in SIDES})
        if kind == "sweep":
            layers[kind]["point_us"] = compare(us["point_us"])
        if kind == "audit":
            for measure in ("plan_s", "build_s", "compare_s", "grid_us",
                            "worst_ok_e15"):
                layers[kind][measure] = compare(
                    {side: [a[measure] for a in audits[side]]
                     for side in SIDES})
    for kind, measures in layers.items():
        print(f"{kind:13} {changed[kind]} of {args.ops} "
              "operations changed bytes, each within the benchmark's "
              f"relative tolerance {bench.VALUE_RTOL:g}")
        for measure, entry in measures.items():
            print(f"{kind:13} {measure:10} "
                  + "  ".join(f"{side} {entry[side]['median']:.4g} "
                              f"[{entry[side]['q1']:.4g}, "
                              f"{entry[side]['q3']:.4g}]" for side in SIDES)
                  + f"  ratio {entry['median_ratio']:.3f}  won "
                  f"{entry['change_lower_pairs']}/{entry['pairs']}")
    if args.record:
        record = {}
        if os.path.exists(args.record):
            with open(args.record, encoding="utf-8") as fh:
                record = json.load(fh)
        record["layers"] = {
            "method": f"tools/layer_pairs.py, {args.ops} operations per "
                      "kind from the start of each pool, both checkouts in "
                      "one interpreter, the side that runs first "
                      "alternating per operation; command_ms is the CPU of "
                      "cli.main, node_us the CPU of integral_rep_check "
                      "divided by the rule's order, point_us the CPU of "
                      "the sweep's evaluate_many divided by its points, "
                      "plan_s, build_s and compare_s the CPU of an audit's "
                      "plan, build and compare phases, grid_us build_s per "
                      "grid built and "
                      "worst_ok_e15 the audit's worst residual of an ok "
                      "row in units of 1e-15. "
                      "Quartiles are "
                      "inclusive; median_ratio is the median of change / "
                      "parent over the pairs. ops_changed_bytes counts "
                      "the operations whose exit code or stdout differ, "
                      "each within perfbench's reference tolerance.",
            **{kind: {"ops_changed_bytes": changed[kind], **measures}
               for kind, measures in layers.items()}}
        write_record(args.record, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
