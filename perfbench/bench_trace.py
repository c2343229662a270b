"""Outside-in layer trace of appell4.

The benchmark does not change the program.  It replaces, for the length of
a traced run, the module attributes through which appell4 calls each layer
with timing wrappers, and puts the originals back afterwards.  Spans nest on
one stack: a span's self time is its duration minus the durations of the
spans opened inside it.

Spans are aggregated per name (calls, inclusive and self seconds) instead of
being kept one by one, because an acceptance audit opens more than a
million kernel spans.  The few series that need a distribution (grid build
times, verification times per family) keep their samples.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager


def boundaries() -> tuple:
    """(owner, attribute, span name) for every name through which appell4
    calls into a layer.  The grid interface appears twice: as series uses it
    and as operators imported it by name; its third field names the caller.
    The last entry is verify_identity, which also records the family."""
    import appell4.catalog as catalog
    import appell4.cli as cli
    import appell4.operators as operators
    import appell4.quadrature as quadrature
    import appell4.series as series

    spans = (
        (catalog, "pochhammer", "kernels.pochhammer"),
        (series, "pochhammer", "kernels.pochhammer"),
        (series, "log_pochhammer", "kernels.log_pochhammer"),
        (cli, "eval_f41", "series.sum"),
        (cli, "eval_f42", "series.sum"),
        (cli, "eval_kdf", "series.sum"),
        (cli, "eval_f4_classic", "series.sum"),
        (quadrature, "eval_f41", "series.sum"),
        (quadrature, "eval_kdf", "series.sum"),
        (catalog, "apply_expr_to_params", "operators.apply"),
        (cli, "audit_catalog", "catalog.audit"),
        (catalog.ParamSampler, "draw", "catalog.draw"),
        (cli, "laguerre_rule", "quadrature.rule"),
        (cli, "integral_rep_check", "quadrature.check"),
        (quadrature, "integrand_kdf", "quadrature.integrand"),
        (cli, "dump_json", "cli.dump_json"),
    )
    grid_spans = ((series, "_grid_coeffs", "series"),
                  (operators, "_grid_coeffs", "operators"))
    return spans, grid_spans, (catalog, "verify_identity", "catalog.verify")


SMALL_CELLS = 13 * 13
LARGE_CELLS = 41 * 41
FAMILIES = "ABCDEF"


class Tracer:
    """Span stack plus per-name aggregates, counters and sample series."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}     # span name -> [calls, inclusive s, self s]
        self.counters = {}
        self.samples = {}
        self._stack = []    # child seconds accumulated by each open span

    def _enter(self) -> float:
        self._stack.append(0.0)
        return self.clock()

    def _exit(self, name: str, start: float) -> float:
        dur = self.clock() - start
        child = self._stack.pop()
        if self._stack:
            self._stack[-1] += dur
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        return dur

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0,))[0]

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            start = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, start)
        return traced

    def wrap_grid(self, caller: str, fn):
        """Grid requests; a request is a build when the lru_cache under it
        counted a miss, and a build took the log-space path when it called
        log_pochhammer (only that path does)."""
        def traced(p, M, N):
            misses = fn.cache_info().misses
            logs = self.calls("kernels.log_pochhammer")
            start = self._enter()
            try:
                return fn(p, M, N)
            finally:
                dur = self._exit("series.grid", start)
                self.count(f"grid.requests.{caller}")
                if fn.cache_info().misses != misses:
                    cells = (M + 1) * (N + 1)
                    self.count("grid.builds")
                    self.count("grid.cells_built", cells)
                    if self.calls("kernels.log_pochhammer") != logs:
                        self.count("grid.log_builds")
                        self.sample("grid.build_s.log", dur)
                    elif cells <= SMALL_CELLS:
                        self.sample("grid.build_s.small", dur)
                    elif cells >= LARGE_CELLS:
                        self.sample("grid.build_s.large", dur)
        return traced

    def wrap_verify(self, fn):
        def traced(ident, *args, **kwargs):
            start = self._enter()
            try:
                return fn(ident, *args, **kwargs)
            finally:
                dur = self._exit("catalog.verify", start)
                self.sample(f"verify_s.{ident.family.name[0]}", dur)
        return traced

    @contextmanager
    def installed(self):
        """Wrap every layer boundary for the body; always restore."""
        spans, grid_spans, verify_span = boundaries()
        saved = []
        try:
            for owner, attr, name in spans:
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
            for owner, attr, caller in grid_spans:
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, self.wrap_grid(caller, getattr(owner, attr)))
            owner, attr, _ = verify_span
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, self.wrap_verify(getattr(owner, attr)))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def as_dict(self) -> dict:
        return {"stats": self.stats, "counters": self.counters,
                "samples": self.samples}


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(trace: dict, traced_s: float, untraced_s: float) -> dict:
    """The per-layer metrics of one traced run, by name: (value, unit)."""
    stats, counters, samples = trace["stats"], trace["counters"], trace["samples"]

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def self_s(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[2] for n in names)

    requests = (counters.get("grid.requests.series", 0)
                + counters.get("grid.requests.operators", 0))
    builds = counters.get("grid.builds", 0)
    verifies = calls("catalog.verify")
    out = {
        "kernels.pochhammer.calls": (calls("kernels.pochhammer"), "count"),
        "kernels.pochhammer.self_s": (self_s("kernels.pochhammer"), "s"),
        "kernels.log_pochhammer.calls": (calls("kernels.log_pochhammer"), "count"),
        "kernels.log_pochhammer.self_s": (self_s("kernels.log_pochhammer"), "s"),
        "series.grid.requests": (requests, "count"),
        "series.grid.builds": (builds, "count"),
        "series.grid.hit_ratio": ((requests - builds) / requests
                                  if requests else 0.0, "ratio"),
        "series.grid.cells_built": (counters.get("grid.cells_built", 0), "count"),
        "series.grid.build_us.small": (
            1e6 * _p50(samples.get("grid.build_s.small")), "us"),
        "series.grid.build_us.large": (
            1e6 * _p50(samples.get("grid.build_s.large")), "us"),
        "series.grid.build_us.log": (
            1e6 * _p50(samples.get("grid.build_s.log")), "us"),
        "series.grid.log_share": (counters.get("grid.log_builds", 0) / builds
                                  if builds else 0.0, "ratio"),
        "series.grid.self_s": (self_s("series.grid"), "s"),
        "series.sum.calls": (calls("series.sum"), "count"),
        "series.sum.self_s": (self_s("series.sum"), "s"),
        "operators.apply.calls": (calls("operators.apply"), "count"),
        "operators.apply.self_s": (self_s("operators.apply"), "s"),
        "operators.grid_requests_per_verify": (
            counters.get("grid.requests.operators", 0) / verifies
            if verifies else 0.0, "ratio"),
        "catalog.verify.calls": (verifies, "count"),
        "catalog.verify.self_s": (self_s("catalog.verify"), "s"),
        "catalog.draw.self_s": (self_s("catalog.draw"), "s"),
    }
    for fam in FAMILIES:
        durations = samples.get(f"verify_s.{fam}", [])
        out[f"catalog.family_s.{fam}"] = (sum(durations), "s")
        out[f"catalog.verify_ms.{fam}"] = (1e3 * _p50(durations), "ms")
    out.update({
        "quadrature.rule.self_s": (self_s("quadrature.rule"), "s"),
        "quadrature.integrand.calls": (calls("quadrature.integrand"), "count"),
        "quadrature.check.self_s": (
            self_s("quadrature.check", "quadrature.integrand"), "s"),
        "cli.self_s": (self_s("cli.main", "cli.dump_json"), "s"),
        "cli.dump_json.self_s": (self_s("cli.dump_json"), "s"),
        "trace_overhead": (traced_s / untraced_s, "ratio"),
    })
    return out
