"""Regenerate references.json: the checked fields of every pool operation.

    python3 perfbench/make_references.py

Run it from the root of an appell4 checkout at the commit whose outputs are
the reference (the references in the repository come from the commit before
the benchmark existed).  Each pool runs in fresh worker interpreters; this
takes a few minutes, most of it in the 16 audits.
"""

import json
import os
import sys

import run as bench
import bench_inputs


def main() -> int:
    root = os.getcwd()
    pools = bench_inputs.pools()
    refs = {"pools_sha256": bench_inputs.pools_digest(pools)}
    for kind, argvs in pools.items():
        if kind == "audit":
            results = [bench.spawn(root, [[argv]])["units"][0][0]
                       for argv in argvs]
        else:
            results = [ops[0] for ops in
                       bench.spawn(root, [[argv] for argv in argvs])["units"]]
        refs[kind] = [bench.summarize(kind, op) for op in results]
        codes = sorted({op["code"] for op in results}, key=str)
        print(f"{kind}: {len(results)} operations, exit codes {codes}",
              file=sys.stderr)
    with open(bench.REFERENCES, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        fh.write(f'"pools_sha256": {json.dumps(refs.pop("pools_sha256"))},\n')
        for n, (kind, entries) in enumerate(refs.items()):
            body = ",\n".join(json.dumps(e, separators=(",", ":"))
                              for e in entries)
            sep = "," if n < len(refs) - 1 else ""
            fh.write(f'"{kind}": [\n{body}\n]{sep}\n')
        fh.write("}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
