"""In-process alternating timings of two checkouts' pool commands.

    python3 tools/layer_pairs.py --parent DIR --change DIR \\
        [--kinds quadcheck256 quadcheck64 sweep eval] [--ops 38] \\
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
read too and divided by the rule's order: the per-node CPU in us.  Both
sides must give the same exit code and stdout for every operation, or the
tool stops.

Prints, per kind and measure, each side's median and inclusive quartiles,
the median of the per-operation ratios change / parent and the pairs the
change won (read lower).  With --record FILE those figures, with each
side's readings, are written into that JSON file (created if missing)
under "layers".  The standard library and numpy alone are used.
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

from bench_pairs import SIDES, spread, write_record

KINDS = ("quadcheck256", "quadcheck64", "sweep", "eval")


def load_module(name: str, path: str, package=None):
    """The module or package (its directory given as package) at path,
    registered under name."""
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=[package] if package else None)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_cli(root: str, side: str):
    """The cli module of a checkout's src/appell4, loaded as appell4_<side>,
    with its integral_rep_check wrapped to record each call's CPU per node
    in the returned list."""
    package = os.path.join(root, "src", "appell4")
    load_module(f"appell4_{side}", os.path.join(package, "__init__.py"),
                package)
    cli = importlib.import_module(f"appell4_{side}.cli")
    per_node, check = [], cli.integral_rep_check

    def timed_check(spec, rule, *args, **kwargs):
        start = time.process_time()
        try:
            return check(spec, rule, *args, **kwargs)
        finally:
            per_node.append((time.process_time() - start) / rule.order)

    cli.integral_rep_check = timed_check
    return cli, per_node


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
    parser.add_argument("--kinds", nargs="+", choices=KINDS, default=KINDS)
    parser.add_argument("--ops", type=int, default=38,
                        help="operations per kind, from the pool's first")
    parser.add_argument("--record",
                        help="JSON file whose \"layers\" entry to write")
    args = parser.parse_args(argv)
    roots = {side: os.path.abspath(getattr(args, side)) for side in SIDES}
    pools = load_module("bench_inputs", os.path.join(
        roots["change"], "perfbench", "bench_inputs.py")).pools()
    if not 1 <= args.ops < min(len(pools[kind]) for kind in args.kinds):
        raise SystemExit("--ops must leave each pool's last operation for "
                         "the warm-up")
    sides = {side: load_cli(roots[side], side) for side in SIDES}
    for kind in args.kinds:
        for cli, _ in sides.values():
            run_op(cli, pools[kind][-1])
    for _, per_node in sides.values():
        per_node.clear()

    command_ms = {kind: {side: [] for side in SIDES} for kind in args.kinds}
    for i in range(args.ops):
        for kind in args.kinds:
            outputs = {}
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                cpu, *outputs[side] = run_op(sides[side][0], pools[kind][i])
                command_ms[kind][side].append(cpu * 1e3)
            if outputs["parent"] != outputs["change"]:
                raise SystemExit(f"{kind} {i}: the sides' exit codes or "
                                 "stdout differ")

    node_us = {side: [us * 1e6 for us in sides[side][1]] for side in SIDES}
    layers = {}
    for kind in args.kinds:
        layers[kind] = {"command_ms": compare(command_ms[kind])}
        if kind.startswith("quadcheck"):
            # the checks ran in pool order, kinds interleaved
            quad = [k for k in args.kinds if k.startswith("quadcheck")]
            step, first = len(quad), quad.index(kind)
            layers[kind]["node_us"] = compare(
                {side: node_us[side][first::step] for side in SIDES})
    for kind, measures in layers.items():
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
                      "divided by the rule's order. Quartiles are "
                      "inclusive; median_ratio is the median of change / "
                      "parent over the pairs.",
            **layers}
        write_record(args.record, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
