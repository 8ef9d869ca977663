"""Outside-in tracing: spans around the calls into each layer.

The library is not edited.  Each traced name is replaced, for the duration
of a traced pass, in the namespace where its caller looks it up (e.g.
``preserver_lab.verifiers.sample`` or ``numpy.linalg.svd``), by a wrapper
that records a span named ``<layer>.<function>``.  The map callable the
benchmark hands to the library is wrapped as ``preservers.map_query``.

Spans are aggregated as they close, so memory stays flat however many
samples a battery draws: per span name the call count, total time and
self time (span time minus the time its direct child spans cover), per
(parent, child) pair the call count, and per name the bytes of ``str``
results (for ``dumps_stable``).
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

# Layer of every module whose public functions are traced.
LAYER = {
    "preserver_lab.domains": "domains",
    "preserver_lab.preservers": "preservers",
    "preserver_lab.core_linalg": "core_linalg",
    "preserver_lab.verifiers": "verifiers",
    "preserver_lab.recovery": "recovery",
    "preserver_lab.mapspec": "mapspec",
    "preserver_lab.jsonio": "jsonio",
    "preserver_lab.cli": "cli",
}
KERNEL_FUNCS = ("det", "inv", "eigvalsh", "svd", "qr", "matrix_power")

# Calls from a module to its own public functions, which a cross-module scan
# cannot see.  dumps_stable recurses through its own module and is traced
# only where the CLI calls it.
SAME_MODULE_CALLS = {
    "preserver_lab.domains": ("sample", "mix_seed"),
    "preserver_lab.core_linalg": ("determinant", "matrix_residual"),
    "preserver_lab.verifiers": ("verify_det_identity", "verify_trace_identity", "unitalize"),
    "preserver_lab.recovery": ("build_linear_rep", "rank_one_split", "roundtrip_residual", "recover"),
}
# Canonical maps run apply_preserver inside their own __call__; that time
# belongs to the map query span, so preservers' own namespace stays as is.
UNTRACED_CALLERS = ("preserver_lab.preservers",)
MAP_QUERY = "preservers.map_query"


class Tracer:
    """Aggregating span recorder; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.pair_calls = Counter()
        self.result_bytes = Counter()
        self._stack = []  # [name, child_time] per open span

    def wrap(self, name, fn, wrap_result_as=None):
        """Return a callable that runs ``fn`` inside a span called ``name``.

        The wrapper returns ``fn``'s result and lets its exception through
        unchanged.  With ``wrap_result_as``, a callable result is itself
        wrapped under that span name (used for maps built by the CLI).
        """
        stack, clock = self._stack, self.clock

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - frame[1]
                self.pair_calls[(parent, name)] += 1
            if isinstance(result, str):
                self.result_bytes[name] += len(result.encode())
            if wrap_result_as is not None and callable(result):
                result = self.wrap(wrap_result_as, result)
            return result

        traced.__wrapped__ = fn
        traced.span_name = name
        return traced

    def install(self):
        """Patch every call site; returns a list of (namespace, name, original)."""
        import numpy

        patches = []

        def patch(ns, attr, span, **kw):
            original = getattr(ns, attr)
            if hasattr(original, "span_name"):
                return
            patches.append((ns, attr, original))
            setattr(ns, attr, self.wrap(span, original, **kw))

        for f in KERNEL_FUNCS:
            patch(numpy.linalg, f, f"kernel.{f}")
        for caller in LAYER:
            if caller in UNTRACED_CALLERS:
                continue
            mod = importlib.import_module(caller)
            for attr, span in call_sites(mod).items():
                extra = {"wrap_result_as": MAP_QUERY} if span == "mapspec.realize_map" else {}
                patch(mod, attr, span, **extra)
        return patches

    @staticmethod
    def uninstall(patches):
        for ns, attr, original in reversed(patches):
            setattr(ns, attr, original)


def call_sites(mod) -> dict:
    """{name in ``mod``'s namespace: span name} for every traced callee."""
    sites = {}
    for attr, obj in vars(mod).items():
        home = getattr(obj, "__module__", None)
        if (callable(obj) and not isinstance(obj, type) and home in LAYER
                and attr in getattr(importlib.import_module(home), "__all__", ())
                and (home != mod.__name__ or attr in SAME_MODULE_CALLS.get(home, ()))):
            sites[attr] = f"{LAYER[home]}.{attr}"
    return sites


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-op layer numbers named as in BENCHMARK.json's per_layer list."""
    def calls(name):
        return tracer.calls[name] / ops

    def self_ms(*names):
        return sum(tracer.self_time[n] for n in names) * 1e3 / ops

    inv_calls = tracer.calls["domains.sample_invertible"]
    draws = tracer.pair_calls[("domains.sample_invertible", "domains.sample")]
    out = {
        "domains.sample.calls_per_op": (calls("domains.sample"), "calls/op"),
        "domains.sample.self_ms_per_op": (self_ms("domains.sample"), "ms/op"),
        "domains.sample_invertible.attempts_per_call":
            (draws / inv_calls if inv_calls else 0.0, "draws/call"),
        "domains.mix_seed.self_ms_per_op": (self_ms("domains.mix_seed"), "ms/op"),
        "preservers.map_query.calls_per_op": (calls(MAP_QUERY), "calls/op"),
        "preservers.map_query.self_ms_per_op": (self_ms(MAP_QUERY), "ms/op"),
    }
    for f in ("determinant", "numeric_rank"):
        out[f"core_linalg.{f}.calls_per_op"] = (calls(f"core_linalg.{f}"), "calls/op")
        out[f"core_linalg.{f}.self_ms_per_op"] = (self_ms(f"core_linalg.{f}"), "ms/op")
    out["core_linalg.residual.self_ms_per_op"] = (
        self_ms("core_linalg.scalar_residual", "core_linalg.matrix_residual"), "ms/op")
    for f in ("takagi_factor", "pd_sqrt"):
        out[f"core_linalg.{f}.self_ms_per_op"] = (self_ms(f"core_linalg.{f}"), "ms/op")
    for f in KERNEL_FUNCS:
        out[f"kernel.{f}.calls_per_op"] = (calls(f"kernel.{f}"), "calls/op")
        out[f"kernel.{f}.self_ms_per_op"] = (self_ms(f"kernel.{f}"), "ms/op")
    for f in ("verify_det_identity", "verify_trace_identity", "unitalize"):
        out[f"verifiers.{f}.self_ms_per_op"] = (self_ms(f"verifiers.{f}"), "ms/op")
    for f in ("build_linear_rep", "rank_one_split", "roundtrip_residual", "recover"):
        out[f"recovery.{f}.self_ms_per_op"] = (self_ms(f"recovery.{f}"), "ms/op")
    for f in ("realize_map", "recovery_to_json"):
        out[f"mapspec.{f}.self_ms_per_op"] = (self_ms(f"mapspec.{f}"), "ms/op")
    out["jsonio.dumps_stable.self_ms_per_op"] = (self_ms("jsonio.dumps_stable"), "ms/op")
    out["jsonio.dumps_stable.bytes_per_op"] = (
        tracer.result_bytes["jsonio.dumps_stable"] / ops, "B/op")
    return out


def self_time_shares(tracer: Tracer, top: int = 8) -> list:
    """The spans holding the largest shares of all traced self time."""
    total = sum(tracer.self_time.values()) or 1.0
    ranked = sorted(tracer.self_time.items(), key=lambda kv: -kv[1])[:top]
    return [(name, round(t / total, 4)) for name, t in ranked]
