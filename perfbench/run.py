"""appell4 benchmark: the CLI timed in-process, checked against references.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of an appell4 checkout (it imports ``src/appell4``).
Workloads (see README.md for why each exists):

  audit-acceptance  ``audit --draws 50 --include-suspected`` over all 181
                    entries; one fresh interpreter per audit
  args-reuse        rounds of quadcheck at order 256, quadcheck at order 64
                    and an 11 x 11 sweep, each with its own parameters
  eval-cold         single 40 x 40 evals of F41, F42 (log-space path), F4
                    and KdF in equal shares, each with its own parameters

The load is a closed loop with one client: the harness starts one worker
interpreter at a time (bench_worker.py), waits for it, and the worker calls
``appell4.cli.main(argv)`` for one operation after another.

With ``--trace 0`` the run times the workload for ``--seconds`` and prints
the end-to-end metrics.  With ``--trace 1`` it runs a fixed number of units
twice, untraced and traced (bench_trace.py), so that the counts repeat
exactly at a fixed seed, and prints the per-layer metrics.  Every operation
is checked against references.json, which make_references.py generated
from the commit before the benchmark.  The last line of stdout is one JSON
object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bench_inputs  # noqa: E402
from bench_trace import layer_metrics  # noqa: E402

WORKER = os.path.join(HERE, "bench_worker.py")
REFERENCES = os.path.join(HERE, "references.json")
# every worker must end this long after the harness started, so a hung
# operation ends the run (without a result) inside its time limit
RUN_LIMIT_S = 170
_STARTED = time.monotonic()
TRACE_UNITS = {"audit-acceptance": 1, "args-reuse": 8, "eval-cold": 1024}
VALUE_RTOL = 1e-12
VALUE_KEYS = ("value", "quadrature_value", "series_value")


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


# ---------------------------------------------------------------------------
# workers
# ---------------------------------------------------------------------------

def spawn(root: str, units: list, trace: bool = False) -> dict:
    """Run units of argv lists in one fresh worker interpreter."""
    env = dict(os.environ)
    # set-up is measured as an installed package sees it, with bytecode
    # caches (written under the checkout's src/, which git ignores)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    # one thread per worker, so the process CPU time is the operation's own
    # and no idle BLAS thread spins into it
    env["OPENBLAS_NUM_THREADS"] = "1"
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    request = {"units": units, "trace": trace}
    try:
        proc = subprocess.run([sys.executable, WORKER], input=json.dumps(request),
                              capture_output=True, text=True, cwd=root, env=env,
                              timeout=RUN_LIMIT_S - (time.monotonic() - _STARTED))
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"run exceeded {RUN_LIMIT_S} s") from exc
    if proc.returncode != 0:
        raise HarnessError(f"worker exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not os.path.abspath(result["appell4_file"]).startswith(src + os.sep):
        raise HarnessError(f"imported {result['appell4_file']}, not {src}")
    return result


def reference_loop_s() -> float:
    """A fixed pure-Python loop; its time shows drift in host speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def summarize(kind: str, op: dict) -> dict:
    """The fields of one operation's output that references pin down."""
    out = {"code": op["code"]}
    if op["error"] is not None:
        out["error"] = op["error"]
        return out
    text = op["stdout"]
    if kind == "sweep":
        out["sha256"] = hashlib.sha256(text.encode()).hexdigest()
        return out
    doc = json.loads(text)
    if kind == "audit":
        out["rows"] = [[r["id"], r["passes"], r["status"]] for r in doc]
    elif kind == "eval":
        out.update(terms_used=doc["terms_used"],
                   divergence_flag=doc["divergence_flag"], value=doc["value"])
    else:
        out.update(passed=doc["pass"],
                   quadrature_value=doc["params"]["quadrature_value"],
                   series_value=doc["params"]["series_value"])
    return out


def _close(got, ref) -> bool:
    try:
        g, r = complex(*got), complex(*ref)
    except TypeError:
        return got == ref
    return abs(g - r) <= VALUE_RTOL * abs(r)


def mismatch(kind: str, op: dict, ref: dict):
    """None when the operation matches its reference, else the reason."""
    try:
        got = summarize(kind, op)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    if set(got) != set(ref):
        return f"fields {sorted(got)} != reference {sorted(ref)}"
    for key, want in ref.items():
        ok = _close(got[key], want) if key in VALUE_KEYS else got[key] == want
        if not ok:
            return f"{key}: got {str(got[key])[:200]}, want {str(want)[:200]}"
    return None


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Nearest-rank percentile q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def tail_percentile(n: int):
    """The highest of p99, p90 and p75 with at least ten samples beyond it."""
    for q in (99, 90, 75):
        if n - math.ceil(q / 100.0 * n) >= 10:
            return q
    return None


def describe(values, unit_scale: float, unit: str) -> str:
    n = len(values)
    text = f"p50 {statistics.median(values) * unit_scale:.6g} {unit}"
    q = tail_percentile(n)
    if q is not None:
        text += f", p{q} {percentile(values, q) * unit_scale:.6g} {unit}"
    else:
        text += f", max {max(values) * unit_scale:.6g} {unit} (no percentile " \
                "has ten samples beyond it)"
    return text + f", n={n}"


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

class Run:
    """Operation bookkeeping shared by timed and traced runs."""

    def __init__(self, workload: str, refs: dict):
        self.workload = workload
        self.refs = refs
        self.attempted = 0
        self.failures = []

    def argvs(self, pools: dict, index: int) -> list:
        return [pools[kind][i] for kind, i in bench_inputs.unit_ops(
            self.workload, index)]

    def check_unit(self, index: int, ops: list) -> None:
        for (kind, i), op in zip(bench_inputs.unit_ops(self.workload, index), ops):
            self.attempted += 1
            why = mismatch(kind, op, self.refs[kind][i])
            if why is not None:
                self.failures.append(f"{kind}[{i}]: {why} "
                                     f"{op['stderr'].strip()[:200]}")

    def compare_stdout(self, index: int, first: list, second: list,
                       what: str) -> None:
        """Count each operation of a repeated unit whose bytes differ."""
        for (kind, i), a, b in zip(bench_inputs.unit_ops(self.workload, index),
                                   first, second):
            self.attempted += 1
            if (a["code"], a["stdout"]) != (b["code"], b["stdout"]):
                self.failures.append(f"{kind}[{i}]: {what} stdout differs")


def timed_run(root: str, workload: str, seed: int, seconds: float,
              pools: dict, run: Run) -> tuple:
    """Worker interpreters in seed order until the time is up.

    Each worker runs a fixed number of units, so its peak memory depends on
    the operations alone and not on how fast they ran.  A set-up-only
    interpreter runs before each worker, which spreads the set-up samples
    over the whole run.
    """
    order = bench_inputs.unit_order(workload, seed)
    per_worker = bench_inputs.UNITS_PER_WORKER[workload]
    spawn(root, [])  # untimed: byte-compiles the checkout once

    start = time.perf_counter()
    deadline = start + seconds
    done = []          # (pool index, ops)
    setups, rss, worker_s, host = [], [], [], []
    context = None
    while not worker_s or (time.perf_counter()
                           + statistics.median(worker_s) <= deadline):
        t0 = time.perf_counter()
        host.append(reference_loop_s())
        setup_only = spawn(root, [])
        pos = len(done) % len(order)
        chunk = order[pos:pos + per_worker]
        result = spawn(root, [run.argvs(pools, i) for i in chunk])
        worker_s.append(time.perf_counter() - t0)
        setups += [setup_only, result]
        rss.append(result["maxrss_mb"])
        context = context or result
        for index, ops in zip(chunk, result["units"]):
            run.check_unit(index, ops)
            done.append((index, ops))

    # determinism probe: the first unit again in a fresh interpreter
    first_index, first_ops = done[0]
    again = spawn(root, [run.argvs(pools, first_index)])
    run.compare_stdout(first_index, first_ops, again["units"][0], "repeated")

    setup_cpu = [r["setup_cpu_s"] for r in setups]
    unit_cpu = [sum(op["cpu_seconds"] for op in ops) for _, ops in done]
    unit_wall = [sum(op["seconds"] for op in ops) for _, ops in done]
    tail = bench_inputs.TAIL_PERCENTILE[workload]
    metrics = {
        "setup_s": (statistics.median(setup_cpu), "s"),
        "op_cpu_p50_ms": (1e3 * statistics.median(unit_cpu), "ms"),
        "op_cpu_tail_ms": (1e3 * percentile(unit_cpu, tail), "ms"),
        "peak_rss_mb": (max(rss), "MB"),
    }
    lines = [f"host reference loop before each worker (context): "
             f"{describe(host, 1.0, 's')}",
             f"setup CPU (import appell4 + builtin_catalog): "
             f"{describe(setup_cpu, 1.0, 's')}",
             f"setup wall: {describe([r['setup_s'] for r in setups], 1.0, 's')}",
             f"units: {len(done)} in {time.perf_counter() - start:.1f} s; "
             f"op_cpu_tail_ms is p{tail}",
             f"unit wall: {describe(unit_wall, 1e3, 'ms')} (wall minus CPU "
             "is time the host gave the CPU to others)"]
    by_kind = {}
    for index, ops in done:
        for (kind, _), op in zip(bench_inputs.unit_ops(workload, index), ops):
            by_kind.setdefault(kind, []).append(op["seconds"])
    names = {"audit": ("audit_s", 1.0, "s"),
             "quadcheck256": ("quadcheck256_s", 1.0, "s"),
             "quadcheck64": ("quadcheck64_s", 1.0, "s"),
             "sweep": ("sweep_s", 1.0, "s"), "eval": ("eval_ms", 1e3, "ms")}
    for kind, values in by_kind.items():
        name, scale, unit = names[kind]
        lines.append(f"{name} (wall): {describe(values, scale, unit)}")
    return metrics, lines, context


def traced_run(root: str, workload: str, seed: int, pools: dict,
               run: Run) -> tuple:
    """A fixed list of units, untraced then traced in fresh interpreters."""
    chunk = bench_inputs.unit_order(workload, seed)[:TRACE_UNITS[workload]]
    argvs = [run.argvs(pools, i) for i in chunk]
    host = [reference_loop_s()]
    plain = spawn(root, argvs)
    host.append(reference_loop_s())
    traced = spawn(root, argvs, trace=True)
    for index, a, b in zip(chunk, plain["units"], traced["units"]):
        run.check_unit(index, b)
        run.compare_stdout(index, a, b, "traced")

    def total(result, clock="cpu_seconds"):
        return sum(op[clock] for ops in result["units"] for op in ops)

    metrics = layer_metrics(traced["trace"], total(traced), total(plain))
    grid_s = traced["trace"]["stats"].get("series.grid", (0, 0.0))[1]
    lines = [f"traced units: {len(chunk)} (fixed per workload, so counts "
             "repeat exactly at a fixed seed)",
             f"CPU time untraced {total(plain):.4f} s, traced "
             f"{total(traced):.4f} s",
             f"host reference loop before each: "
             f"{host[0]:.4f} s, {host[1]:.4f} s",
             f"grid requests incl. kernels: {grid_s:.4f} s, "
             f"{100 * grid_s / total(traced, 'seconds'):.1f}% of traced wall "
             "time (spans are timed on the wall clock)"]
    return metrics, lines, traced


def machine_lines(context: dict) -> list:
    return [
        f"machine: nproc={os.cpu_count()} python={context['python']} "
        f"numpy={context['numpy']} blas={context['blas']} "
        f"OPENBLAS_NUM_THREADS={context['blas_threads_env']} "
        f"worker_threads={context['threads']}",
        "load: closed loop, one client; one worker interpreter at a time, "
        f"{context['threads']} thread(s) each, on {os.cpu_count()} CPUs",
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=bench_inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "appell4", "cli.py")):
        print(f"no appell4 source under {root}/src; run from the root of an "
              "appell4 checkout", file=sys.stderr)
        return 2
    with open(REFERENCES, encoding="utf-8") as fh:
        refs = json.load(fh)
    pools = bench_inputs.pools()
    if bench_inputs.pools_digest(pools) != refs["pools_sha256"]:
        print("references.json was made from other pools; rerun "
              "make_references.py at the reference commit", file=sys.stderr)
        return 2

    run = Run(args.workload, refs)
    try:
        if args.trace:
            metrics, lines, context = traced_run(root, args.workload,
                                                 args.seed, pools, run)
        else:
            metrics, lines, context = timed_run(root, args.workload, args.seed,
                                                args.seconds, pools, run)
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for line in machine_lines(context) + lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(f"fail_ratio: {len(run.failures) / run.attempted:.6g} "
          f"({len(run.failures)} of {run.attempted} operations)")
    for failure in run.failures[:20]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
