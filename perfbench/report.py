"""Run every workload, untraced and traced, and print all their metrics.

    python3 perfbench/report.py [--seed N] [--seconds S]

Run from the root of an appell4 checkout.  Each of the six runs is one
``run.py`` invocation; its full output is printed, then one table of every
metric by workload.  Exits 1 when any run fails or finds a wrong output.
"""

import argparse
import json
import os
import subprocess
import sys

import bench_inputs

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args()
    rows, ok = [], True
    for workload in bench_inputs.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, RUN, "--workload", workload, "--seed",
                 str(args.seed), "--seconds", str(args.seconds), "--trace",
                 str(trace)], capture_output=True, text=True)
            sys.stdout.write(proc.stdout + proc.stderr + "\n")
            if proc.returncode != 0:
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            rows.append((workload, f"fail_ratio (trace {trace})",
                         result["failed"] / result["attempted"], "ratio"))
            rows += [(workload, name, m["value"], m["unit"])
                     for name, m in result["metrics"].items()]
    for workload, name, value, unit in rows:
        print(f"{workload:18s} {name:36s} {value:>14.6g} {unit}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
