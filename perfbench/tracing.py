"""Spans around calls into each layer of the program, and the per-layer
metrics computed from them.

:func:`install` wraps public functions and methods of the program from
the outside, so no program file changes.  Each wrapper is installed
where its caller looks the function up: callers that import a function
by name keep their own module attribute, so wrapping the defining
module alone misses them.  For example ``apply_hazard_free`` is wrapped
in ``repro.protocols.base`` and ``repro.engine.sparse_async``, its two
callers, not in ``repro.core.hazard``.

A span records its name, start, end, parent span and the root span of
its call tree (the trace id shared by one request or one operation).
Spans stay in memory until :func:`summarize` turns them into metrics
and :func:`dump` writes them out.  A span that runs inside another span
of the same name is marked nested and is not counted again: its time is
already inside the outer span.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

#: engine classes whose route counts are reported as ``engine.runs.<name>``.
ENGINE_CLASSES = (
    "CountsSequentialEngine",
    "CountsContinuousEngine",
    "EnsembleCountsSequentialEngine",
    "EnsembleCountsContinuousEngine",
    "SequentialEngine",
    "ContinuousEngine",
    "SparseSequentialEngine",
    "SparseContinuousEngine",
)

#: below this n the counts engines apply one tick per batch.
SMALL_N = 512


class Tracer:
    """In-memory span recorder shared by every thread of one process."""

    def __init__(self):
        self.spans: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, annotate: Optional[Callable] = None) -> Callable:
        """*fn* with a span named *name* around every call.

        *annotate(args, result)* returns extra span fields; it runs
        after the span has ended, so its cost is not inside the span.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span_id = next(tracer._ids)
            span = {
                "id": span_id,
                "parent": parent["id"] if parent else None,
                "trace": parent["trace"] if parent else span_id,
                "name": name,
                "nested": any(s["name"] == name for s in stack),
            }
            stack.append(span)
            span["start_ns"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end_ns"] = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append(span)
            if annotate is not None:
                span.update(annotate(args, result))
            return result

        return traced

    def patch(self, owner: Any, attr: str, name: str, annotate: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by its traced form (classmethods kept)."""
        raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, annotate)))
        else:
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), annotate))


# -- annotations ----------------------------------------------------------
def _engine_fields(args, result) -> Dict[str, Any]:
    runs = result if isinstance(result, list) else [result]
    n = runs[0].final.n if runs else 0
    ticks = sum(run.parallel_time * run.final.n for run in runs)
    return {"engine": type(args[0]).__name__, "n": n, "ticks": ticks}


def _cache_get_fields(args, result) -> Dict[str, Any]:
    return {"hit": result is not None}


def _cache_put_fields(args, result) -> Dict[str, Any]:
    return {"bytes": os.path.getsize(result)}


def _hazard_fields(args, result) -> Dict[str, Any]:
    return {"cuts": int(result)}


def _submit_fields(args, result) -> Dict[str, Any]:
    return {"served": result.get("served")}


def _run_simulate_fields(args, result) -> Dict[str, Any]:
    job = args[1]
    return {"queue_wait_s": job.started - job.created}


def _owners(classes, attr: str) -> list:
    """The classes that define *attr* themselves, along every MRO given."""
    found = []
    for cls in classes:
        for owner in cls.__mro__:
            if attr in vars(owner) and owner not in found:
                found.append(owner)
    return found


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary of the program (call once)."""
    import repro.api.cache as cache
    import repro.api.campaign as campaign
    import repro.api.registry as registry
    import repro.api.results as results
    import repro.api.runner as runner
    import repro.api.serve.server as server
    import repro.core.hazard_kernel as hazard_kernel
    import repro.engine as engine
    import repro.engine.sparse_async as sparse_async
    import repro.graphs.topology as topology
    import repro.protocols.base as protocols_base

    # api.serve
    tracer.patch(server.SimulationService, "submit_simulate", "api.serve.submit_simulate", _submit_fields)
    tracer.patch(server.SimulationService, "_run_simulate", "api.serve.run_simulate", _run_simulate_fields)
    tracer.patch(server.SimulationService, "health_payload", "api.serve.healthz")
    # api.campaign: the benchmark and callers reach it through the module.
    tracer.patch(campaign, "run_campaign", "api.campaign.run_campaign")
    # api.cache
    tracer.patch(cache.ResultCache, "get_payload", "api.cache.get_payload", _cache_get_fields)
    tracer.patch(cache.ResultCache, "put", "api.cache.put", _cache_put_fields)
    # api.runner: the executors import simulate at call time from the
    # runner module, and simulate calls the module-global resolve.
    tracer.patch(runner, "simulate", "api.runner.simulate")
    tracer.patch(runner, "resolve", "api.runner.resolve")
    for module in (cache, campaign, server):
        tracer.patch(module, "spec_key", "api.runner.serialize")
    tracer.patch(results.SimulationResult, "to_dict", "api.runner.serialize")
    tracer.patch(results.SimulationResult, "from_dict", "api.runner.serialize")
    # graphs: resolve builds topologies through the registry object.
    tracer.patch(registry.TOPOLOGIES, "build", "graphs.build")
    topology_classes = []
    pending = [topology.Topology]
    while pending:
        cls = pending.pop()
        if cls not in topology_classes:  # a class may inherit from two topologies
            topology_classes.append(cls)
            pending.extend(cls.__subclasses__())
    for cls in topology_classes:
        for attr in [a for a in vars(cls) if a.startswith("sample_")]:
            tracer.patch(cls, attr, "graphs.sample")
    # engine
    engine_classes = [getattr(engine, name) for name in engine.__all__ if name.endswith("Engine")]
    for attr in ("run", "run_ensemble", "run_replicated"):
        for owner in _owners(engine_classes, attr):
            tracer.patch(owner, attr, "engine.run", _engine_fields)
    # core.hazard, at its two call sites; the compiled kernels by class.
    tracer.patch(protocols_base, "apply_hazard_free", "core.hazard.apply", _hazard_fields)
    tracer.patch(sparse_async, "apply_hazard_free", "core.hazard.apply", _hazard_fields)
    kernel_classes = [
        value for value in vars(hazard_kernel).values()
        if isinstance(value, type) and issubclass(value, hazard_kernel.TickKernel)
    ]
    for owner in _owners(kernel_classes, "apply"):
        tracer.patch(owner, "apply", "core.hazard_kernel.apply")
    # protocols: the counts transition matrices, on every loaded class
    # defining them (importing repro registers every protocol module).
    protocol_classes = [
        value
        for name, module in list(sys.modules.items())
        if name.startswith("repro.protocols.")
        for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == name
    ]
    for attr in ("tick_transition_matrix", "tick_transition_matrices"):
        for owner in _owners(protocol_classes, attr):
            tracer.patch(owner, attr, "protocols.transition")


# -- metrics --------------------------------------------------------------
def _ms(ns: float) -> float:
    return ns / 1e6


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return ordered[min(rank, len(ordered)) - 1]


def after_marker(spans: List[Dict[str, Any]], marker: str, nth: int) -> List[Dict[str, Any]]:
    """The spans that start at or after the *nth* (1-based) *marker* span.

    The serve side calls ``/healthz`` once more after warming its cache,
    so the traced metrics cover the request schedule alone.
    """
    starts = sorted(s["start_ns"] for s in spans if s["name"] == marker)
    if len(starts) < nth:
        return spans
    return [s for s in spans if s["start_ns"] >= starts[nth - 1]]


def summarize(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer metrics of one pass (or one serve schedule)."""
    child_ns: Dict[int, int] = {}
    for span in spans:
        if span["parent"] is not None:
            child_ns[span["parent"]] = child_ns.get(span["parent"], 0) + span["end_ns"] - span["start_ns"]
    by_name: Dict[str, List[Dict[str, Any]]] = {}
    for span in spans:
        if not span["nested"]:
            by_name.setdefault(span["name"], []).append(span)

    def dur(span) -> int:
        return span["end_ns"] - span["start_ns"]

    def self_ns(span) -> int:
        return dur(span) - child_ns.get(span["id"], 0)

    def named(name: str) -> List[Dict[str, Any]]:
        return by_name.get(name, [])

    def total_ms(name: str) -> float:
        return _ms(sum(dur(s) for s in named(name)))

    def median_ms(selected) -> float:
        values = [_ms(v) for v in selected]
        return statistics.median(values) if values else 0.0

    gets = named("api.cache.get_payload")
    hazard = named("core.hazard.apply")
    engine_runs = named("engine.run")
    engine_ticks = sum(s["ticks"] for s in engine_runs)
    engine_ns = sum(dur(s) for s in engine_runs)
    metrics = {
        "api.serve.hit_handler_ms": median_ms(
            self_ns(s) for s in named("api.serve.submit_simulate") if s["served"] == "cache"
        ),
        "api.serve.queue_wait_p99_ms": 1e3 * percentile(
            [s["queue_wait_s"] for s in named("api.serve.run_simulate")], 99
        ),
        "api.cache.get_hit_ms": median_ms(dur(s) for s in gets if s["hit"]),
        "api.cache.get_miss_ms": median_ms(dur(s) for s in gets if not s["hit"]),
        "api.cache.put_ms": median_ms(dur(s) for s in named("api.cache.put")),
        "api.cache.bytes_written": float(sum(s["bytes"] for s in named("api.cache.put"))),
        "api.campaign.self_ms": _ms(sum(self_ns(s) for s in named("api.campaign.run_campaign"))),
        "api.runner.resolve_self_ms": _ms(sum(self_ns(s) for s in named("api.runner.resolve"))),
        "api.runner.serialize_ms": total_ms("api.runner.serialize"),
        "graphs.build_ms": total_ms("graphs.build"),
        "graphs.sample_calls": float(len(named("graphs.sample"))),
        "graphs.sample_ms": total_ms("graphs.sample"),
        "engine.run_ms": _ms(engine_ns),
        "engine.ns_per_tick": engine_ns / engine_ticks if engine_ticks else 0.0,
        "engine.runs_n_lt_512": float(sum(1 for s in engine_runs if s["n"] < SMALL_N)),
        "engine.runs_n_ge_512": float(sum(1 for s in engine_runs if s["n"] >= SMALL_N)),
        "core.hazard.apply_calls": float(len(hazard)),
        "core.hazard.apply_ms": total_ms("core.hazard.apply"),
        "core.hazard.cuts": float(sum(s["cuts"] for s in hazard)),
        "core.hazard.cuts_per_call": sum(s["cuts"] for s in hazard) / len(hazard) if hazard else 0.0,
        "core.hazard_kernel.apply_ms": total_ms("core.hazard_kernel.apply"),
        "protocols.transition_calls": float(len(named("protocols.transition"))),
        "protocols.transition_ms": total_ms("protocols.transition"),
    }
    for name in ENGINE_CLASSES:
        metrics[f"engine.runs.{name}"] = float(sum(1 for s in engine_runs if s["engine"] == name))
    return metrics


def dump(spans: List[Dict[str, Any]], path: str) -> None:
    """Write the spans as JSON lines."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span, sort_keys=True) + "\n")
