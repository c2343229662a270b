"""One fresh interpreter that sets appell4 up and runs operations in-process.

Reads a JSON request on stdin:

    {"units": [[argv, ...], ...], "trace": bool}

times ``import appell4`` plus ``builtin_catalog()`` (wall and CPU), then calls
``appell4.cli.main(argv)`` for each operation with stdout and stderr
captured, and prints one JSON object with the results.  With
``"trace": true`` the layer wrappers of bench_trace are installed around
the operations.

Run it from the root of an appell4 checkout with ``src`` on PYTHONPATH.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def _threads() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _blas() -> str:
    import numpy as np
    try:
        info = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def main() -> int:
    request = json.loads(sys.stdin.read())
    start, cpu_start = time.perf_counter(), time.process_time()
    import appell4
    from appell4.catalog import builtin_catalog
    builtin_catalog()
    setup_s = time.perf_counter() - start
    setup_cpu_s = time.process_time() - cpu_start

    from appell4 import cli
    call = cli.main
    tracer = None
    if request.get("trace"):
        from bench_trace import Tracer
        tracer = Tracer()
        call = tracer.wrap("cli.main", cli.main)

    units = []
    with tracer.installed() if tracer else contextlib.nullcontext():
        for argvs in request["units"]:
            ops = []
            for argv in argvs:
                out, err = io.StringIO(), io.StringIO()
                t0, c0 = time.perf_counter(), time.process_time()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = call(argv)
                        error = None
                    except Exception as exc:  # a crash is a failed operation
                        code, error = None, repr(exc)
                ops.append({"seconds": time.perf_counter() - t0,
                            "cpu_seconds": time.process_time() - c0, "code": code,
                            "stdout": out.getvalue(), "stderr": err.getvalue(),
                            "error": error})
            units.append(ops)

    result = {
        "setup_s": setup_s,
        "setup_cpu_s": setup_cpu_s,
        "units": units,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "threads": _threads(),
        "appell4_file": appell4.__file__,
        "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__,
        "blas": _blas(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "trace": tracer.as_dict() if tracer else None,
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
