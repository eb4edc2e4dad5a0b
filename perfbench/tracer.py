"""In-memory span recorder and the layer boundaries the benchmark traces.

Spans are recorded from *outside* the program: :func:`install` replaces
public functions and methods of ``repro.workloads``, ``repro.core``,
``repro.ctrl``, ``repro.sim``, ``repro.hw`` and ``repro.service`` with
wrappers that open one span per call (one span per ``next()`` for
generators), so no file under ``src/`` changes.  Each span has a name,
a start and end (``time.perf_counter``, i.e. CLOCK_MONOTONIC on Linux, so
spans from the daemon process line up with the client's), the span that
caused it and the op id of the benchmark operation it belongs to.  Spans
stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import statistics
import sys
import threading
import time
from typing import Dict, List

#: (module, attribute path, span name).  Every traced layer boundary.
TARGETS = (
    ("repro.core.vectorized", "scheme_batch_activity", "core.batch_encode"),
    ("repro.core.streaming", "BatchStreamingEncoder.push",
     "core.stream_push"),
    ("repro.core.streaming", "BatchStreamingEncoder.flush",
     "core.stream_flush"),
    ("repro.ctrl.controller", "transactions_from_source",
     "ctrl.transactions"),
    ("repro.ctrl.controller", "MemoryController.submit", "ctrl.submit"),
    ("repro.ctrl.controller", "MemoryController.flush", "ctrl.flush"),
    ("repro.workloads.source", "BytesTraceSource.chunks",
     "workloads.source_read"),
    ("repro.workloads.source", "FileTraceSource.chunks",
     "workloads.source_read"),
    ("repro.workloads.source", "SyntheticTraceSource.chunks",
     "workloads.source_read"),
    ("repro.workloads.source", "RegistryTraceSource.chunks",
     "workloads.source_read"),
    ("repro.workloads.population", "BurstPopulation.iter_packed",
     "workloads.population"),
    ("repro.workloads.population", "RandomPopulation.iter_packed",
     "workloads.population"),
    ("repro.workloads.population", "RandomPopulation.digest",
     "workloads.population"),
    ("repro.workloads.population", "ExplicitPopulation.digest",
     "workloads.population"),
    ("repro.sim.experiments", "run_experiment", "sim.run_experiment"),
    ("repro.sim.experiments", "run_replay", "sim.run_replay"),
    ("repro.hw.synthesis", "synthesize", "hw.synthesize"),
    ("repro.hw.activity", "measure_activity", "hw.measure_activity"),
    ("repro.service.daemon", "ExperimentService.handle", "service.handle"),
    ("repro.service.diskcache", "DiskActivityCache.get", "service.cache_get"),
    ("repro.service.diskcache", "DiskActivityCache.store",
     "service.cache_store"),
    ("repro.service.client", "ServiceClient.request", "service.request"),
)


def _provenance_counts(result) -> Dict[str, int]:
    """Encode/replay and cache-hit counts of a run_experiment/run_replay."""
    provenance = result.provenance
    return {"encodes": int(provenance.get("encodes",
                                          provenance.get("replays", 0))),
            "cache_hits": int(provenance.get("cache_hits", 0))}


#: Span name -> function computing counts from the wrapped call's result.
COUNTERS = {"sim.run_experiment": _provenance_counts,
            "sim.run_replay": _provenance_counts}


class Tracer:
    """Collects spans; thread-safe, one parent stack per thread.

    A span is the list ``[id, name, start, end, parent, op, counts]``;
    ``parent`` 0 means a root and ``op`` 0 means outside any benchmark op.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        span = [next(self._ids), name, time.perf_counter(), 0.0,
                stack[-1] if stack else 0, self.op, None]
        stack.append(span[0])
        return span

    def end(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, name: str, function):
        counter = COUNTERS.get(name)
        if inspect.isgeneratorfunction(function):
            @functools.wraps(function)
            def generator_wrapper(*args, **kwargs):
                iterator = function(*args, **kwargs)
                while True:
                    span = self.begin(name)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        self.end(span)
                    yield item
            return generator_wrapper

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self.end(span)
            if counter is not None:
                span[6] = counter(result)
            return result
        return wrapper


def _replace_everywhere(original, replacement) -> None:
    """Rebind every loaded module global that holds *original* (modules,
    the benchmark's own included, import public functions by name, e.g.
    ``from ..sim.experiments import run_experiment``)."""
    for module in list(sys.modules.values()):
        if module is None:
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every boundary in :data:`TARGETS` with spans."""
    for module_name, path, span_name in TARGETS:
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, method = path.split(".")
            owner = getattr(module, class_name)
            original = vars(owner)[method]
            setattr(owner, method, tracer.wrap(span_name, original))
        else:
            original = getattr(module, path)
            _replace_everywhere(original, tracer.wrap(span_name, original))


# -- per-layer metrics -------------------------------------------------------

#: Per-layer ``*_s`` metric -> span name; each is self time per op (the
#: span's time minus its children's), so together with the op span's own
#: self time (``trace.unattributed_frac``) they add up to op wall time.
SELF_SECONDS = {
    "core.stream_push_s": "core.stream_push",
    "core.stream_flush_s": "core.stream_flush",
    "core.batch_encode_s": "core.batch_encode",
    "ctrl.transactions_s": "ctrl.transactions",
    "ctrl.submit_self_s": "ctrl.submit",
    "ctrl.flush_self_s": "ctrl.flush",
    "workloads.source_read_s": "workloads.source_read",
    "workloads.population_s": "workloads.population",
    "sim.run_experiment_self_s": "sim.run_experiment",
    "sim.run_replay_self_s": "sim.run_replay",
    "hw.measure_activity_s": "hw.measure_activity",
    "hw.synthesize_self_s": "hw.synthesize",
    "service.handle_self_s": "service.handle",
    "service.cache_get_s": "service.cache_get",
    "service.cache_store_s": "service.cache_store",
}

#: Per-layer ``*_calls`` metric -> span name (calls per op).
CALLS = {
    "core.stream_push_calls": "core.stream_push",
    "core.batch_encode_calls": "core.batch_encode",
    "service.cache_get_calls": "service.cache_get",
    "service.cache_store_calls": "service.cache_store",
}

#: Span name of the benchmark's own per-op root span.
OP_SPAN = "op"

#: Rounding slack in the sum of child durations before a span's self
#: time counts as negative.
OVERLAP_TOLERANCE_S = 1e-9


def layer_metrics(spans: List[list], overhead_frac: float) -> Dict[str, float]:
    """Per-layer metrics from the spans of the traced ops.

    Raises ``ValueError`` when a span's children outlast it (they
    overlap it or each other, so its self time is negative) or when the
    self times do not add up to the op wall time (a span escaped its op).
    """
    spans = [span for span in spans if span[5]]
    child_time: Dict[int, float] = {}
    for span in spans:
        if span[4]:
            child_time[span[4]] = (child_time.get(span[4], 0.0)
                                   + span[3] - span[2])
    self_time: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    handle_ms: List[float] = []
    transport_ms: List[float] = []
    op_wall = 0.0
    counts = {"encodes": 0, "cache_hits": 0}
    for span in spans:
        name = span[1]
        own = span[3] - span[2] - child_time.get(span[0], 0.0)
        if own < -OVERLAP_TOLERANCE_S:
            raise ValueError(f"children of span {span[0]} ({name}) outlast "
                             f"it by {-own:.6f}s")
        self_time[name] = self_time.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        if name == OP_SPAN:
            op_wall += span[3] - span[2]
        elif name == "service.handle":
            handle_ms.append((span[3] - span[2]) * 1e3)
        elif name == "service.request":
            transport_ms.append(own * 1e3)
        if span[6]:
            for key, value in span[6].items():
                counts[key] += value
    n_ops = calls.get(OP_SPAN, 0)
    if not n_ops:
        raise ValueError("no traced op completed")
    accounted = sum(self_time.values())
    if abs(accounted - op_wall) > 1e-6 * max(op_wall, 1.0):
        raise ValueError(f"spans account for {accounted:.6f}s of "
                         f"{op_wall:.6f}s op wall time")
    metrics = {name: self_time.get(span, 0.0) / n_ops
               for name, span in SELF_SECONDS.items()}
    metrics.update({name: calls.get(span, 0) / n_ops
                    for name, span in CALLS.items()})
    lookups = counts["encodes"] + counts["cache_hits"]
    metrics["sim.encodes"] = counts["encodes"] / n_ops
    metrics["sim.cache_hits"] = counts["cache_hits"] / n_ops
    metrics["sim.lookups"] = lookups / n_ops
    metrics["sim.hit_ratio"] = (counts["cache_hits"] / lookups
                                if lookups else 0.0)
    metrics["service.handle_ms"] = (statistics.median(handle_ms)
                                    if handle_ms else 0.0)
    metrics["service.transport_ms"] = (statistics.median(transport_ms)
                                       if transport_ms else 0.0)
    metrics["trace.unattributed_frac"] = self_time[OP_SPAN] / op_wall
    metrics["trace.overhead_frac"] = overhead_frac
    return metrics
