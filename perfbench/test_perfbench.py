"""Self-tests of the benchmark harness (not of appell4).

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import contextlib
import io
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_inputs  # noqa: E402
import bench_trace  # noqa: E402
import run as bench  # noqa: E402


def test_unit_order_is_a_function_of_the_seed():
    for workload in bench_inputs.WORKLOADS:
        first = bench_inputs.unit_order(workload, 7)
        assert first == bench_inputs.unit_order(workload, 7)
        assert first != bench_inputs.unit_order(workload, 8)
        assert sorted(first) == list(range(len(first)))


def test_pools_match_the_stored_references():
    pools = bench_inputs.pools()
    assert pools == bench_inputs.pools()
    with open(bench.REFERENCES, encoding="utf-8") as fh:
        refs = json.load(fh)
    assert bench_inputs.pools_digest(pools) == refs["pools_sha256"]
    for kind, argvs in pools.items():
        assert len(refs[kind]) == len(argvs)
        assert len({json.dumps(a) for a in argvs}) == len(argvs), kind


class _Clock:
    """Advances one second per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_subtracts_nested_children():
    tracer = bench_trace.Tracer(clock=_Clock())
    leaf = tracer.wrap("leaf", lambda: None)
    mid = tracer.wrap("mid", lambda: (leaf(), leaf()))
    top = tracer.wrap("top", lambda: (mid(), leaf()))
    top()
    calls, inclusive, self_s = zip(*(tracer.stats[n] for n in ("top", "mid", "leaf")))
    assert calls == (1, 1, 3)
    # each span spans its own two readings plus two per span inside it
    assert inclusive == (9.0, 5.0, 3.0)
    assert self_s == (3.0, 3.0, 3.0)
    assert sum(self_s) == inclusive[0]


def _attributes():
    spans, grid_spans, verify_span = bench_trace.boundaries()
    return {(id(owner), attr): owner.__dict__[attr]
            for owner, attr, _ in spans + grid_spans + (verify_span,)}


def _call(argv):
    from appell4 import cli
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    return code, out.getvalue()


def test_wrappers_are_restored_even_after_an_error():
    before = _attributes()
    tracer = bench_trace.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert _attributes() != before
            _call(bench_inputs.pools()["eval"][0])
            raise RuntimeError("stop")
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def _traced_counts(argvs):
    from appell4 import series
    series._grid_coeffs.cache_clear()
    tracer = bench_trace.Tracer()
    with tracer.installed():
        outputs = [_call(argv) for argv in argvs]
    return tracer.counters, {n: s[0] for n, s in tracer.stats.items()}, outputs


def test_counts_repeat_and_tracing_leaves_stdout_alone():
    from appell4 import series
    pools = bench_inputs.pools()
    argvs = pools["eval"][:8] + pools["quadcheck64"][:1]
    first = _traced_counts(argvs)
    assert first == _traced_counts(argvs)
    series._grid_coeffs.cache_clear()
    assert first[2] == [_call(argv) for argv in argvs]
    counters, calls, _ = first
    assert calls["series.grid"] == (counters["grid.requests.series"]
                                    + counters.get("grid.requests.operators", 0))
    assert calls["quadrature.integrand"] == 64


def test_reference_check_tolerates_only_round_off():
    op = {"code": 0, "error": None, "stderr": "", "stdout": json.dumps(
        {"value": [1.0, 2.0], "terms_used": 5, "divergence_flag": False})}
    ref = bench.summarize("eval", op)
    assert bench.mismatch("eval", op, ref) is None
    near = dict(op, stdout=op["stdout"].replace("1.0", "1.000000000000001"))
    assert bench.mismatch("eval", near, ref) is None
    far = dict(op, stdout=op["stdout"].replace("1.0", "1.00000000001"))
    assert "value" in bench.mismatch("eval", far, ref)
    assert "code" in bench.mismatch("eval", dict(op, code=3), ref)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert bench.tail_percentile(1000) == 99
    assert bench.tail_percentile(200) == 90
    assert bench.tail_percentile(40) == 75
    assert bench.tail_percentile(39) is None
    assert bench.percentile([3.0, 1.0, 2.0], 50) == 2.0
