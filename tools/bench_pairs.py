"""Alternating parent/change runs of the benchmark, written as BENCH_<slug>.json.

    python3 tools/bench_pairs.py --parent DIR --change DIR --slug SLUG \\
        --seeds 9501 9502 ... --workloads args-reuse eval-cold \\
        --what "what the change does" --host "machine and versions"

DIR is the root of an appell4 checkout; each run is
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``
started from that root, so each side runs its own benchmark files, with T
the run_seconds of BENCHMARK.json, which both checkouts must agree on.
Pair i runs seed i of the list on every workload, one run per side, and the
side that runs first alternates from pair to pair.  The file is rewritten after
every pair, so an interrupted run keeps the pairs it finished.

Per workload the file holds each metric's median and inclusive quartiles
over the runs of each side, the runs themselves, the pairs in which the
change read lower (change_lower_pairs), the change of the median in
percent and the parent's interquartile range; the failed operations of
each side; beside peak_rss_mb, each run's operation count, which that
reading grows with; and each side's host readings with their median and
quartiles: the p50 of the host reference loop that run.py times before
every worker, so that a pair can be read against the host's speed of the
moment.  The standard library alone is used.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
# the line run.py prints above its JSON, with the host loop's p50 in seconds
HOST_LINE = re.compile(r"host reference loop before each worker "
                       r"\(context\): p50 (\S+) s")


def run_seconds(root: str) -> float:
    """The run length BENCHMARK.json at a checkout's root sets."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)["run_seconds"]


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one untraced run, a JSON object, with the
    p50 of its host reference loop added as host_s."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", f"{seconds:g}",
         "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{root}: {workload} seed {seed} exited "
                         f"{proc.returncode}\n{proc.stderr[-2000:]}")
    host = [m.group(1) for m in map(HOST_LINE.match, lines) if m]
    if not host:
        raise SystemExit(f"{root}: {workload} seed {seed} printed no host "
                         "reference loop line")
    return {**json.loads(lines[-1]), "host_s": float(host[0])}


def spread(runs: list) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive") \
        if len(runs) > 1 else (runs[0],) * 3
    return {"median": round(statistics.median(runs), 5),
            "q1": round(q1, 5), "q3": round(q3, 5),
            "runs": [round(v, 5) for v in runs]}


def write_record(path: str, record: dict) -> None:
    """record as indented JSON, each list of runs on one line."""
    text = re.sub(r"\[[^][{}]*\]",
                  lambda m: re.sub(r"\s+", " ", m.group(0))
                  .replace("[ ", "[").replace(" ]", "]"),
                  json.dumps(record, indent=1))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def summarize(results: dict, seeds: list) -> dict:
    """One workload's record from its runs, results[side] in pair order."""
    parent, change = results["parent"], results["change"]
    metrics = {}
    for name in parent[0]["metrics"]:
        runs = {side: [r["metrics"][name]["value"] for r in results[side]]
                for side in SIDES}
        entry = {side: spread(runs[side]) for side in SIDES}
        if name == "peak_rss_mb":
            for side in SIDES:
                entry[side]["ops"] = [r["attempted"] for r in results[side]]
        base = entry["parent"]
        entry["change_lower_pairs"] = sum(
            c < p for p, c in zip(runs["parent"], runs["change"]))
        entry["median_change_pct"] = round(
            100.0 * (entry["change"]["median"] - base["median"])
            / base["median"], 2) if base["median"] else None
        entry["parent_iqr"] = round(base["q3"] - base["q1"], 5)
        metrics[name] = entry
    return {"pairs": len(parent), "seeds": seeds[:len(parent)],
            "failed": {side: sum(r["failed"] for r in results[side])
                       for side in SIDES},
            "correct": all(r["correct"] for r in parent + change),
            "host_s": {side: spread([r["host_s"] for r in results[side]])
                       for side in SIDES},
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--slug", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--what", required=True,
                        help="what the change does, for the file's record")
    parser.add_argument("--host", required=True,
                        help="the machine and versions, for the record")
    parser.add_argument("--out", default=".",
                        help="directory of BENCH_<slug>.json")
    args = parser.parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    seconds = {run_seconds(root) for root in roots.values()}
    if len(seconds) != 1:
        raise SystemExit(f"the checkouts' BENCHMARK.json disagree on "
                         f"run_seconds: {sorted(seconds)}")
    seconds = seconds.pop()
    path = os.path.join(args.out, f"BENCH_{args.slug}.json")
    method = (f"perfbench/run.py --seconds {seconds:g} --trace 0, one "
              "run per side per pair, parent and change checkouts in "
              "separate directories, alternating which side runs first "
              "(the parent in even pairs); pair i uses the i-th seed on "
              "every workload. Quartiles are the inclusive method over the "
              "runs; change_lower_pairs counts the pairs in which the "
              "change read lower. peak_rss_mb lists each run's operation "
              "count as ops. host_s is the p50 of each run's host "
              "reference loop, timed before each worker.")
    results = {w: {side: [] for side in SIDES} for w in args.workloads}
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in args.workloads:
            for side in order:
                out = run_once(roots[side], workload, seed, seconds)
                results[workload][side].append(out)
                print(f"pair {i + 1} seed {seed} {workload} {side}: "
                      + ", ".join(f"{k} {v['value']:.5g}"
                                  for k, v in out["metrics"].items())
                      + f", ops {out['attempted']}, failed {out['failed']}"
                      + f", host {out['host_s']:.4g} s",
                      flush=True)
        write_record(path, {
            "change": args.what, "host": args.host, "method": method,
            "workloads": {w: summarize(results[w], args.seeds)
                          for w in args.workloads}})
    return 0


if __name__ == "__main__":
    sys.exit(main())
