"""Span tracing for the benchmark's traced runs (``--trace 1``).

The program carries no spans of its own, so this module records them from
outside: :func:`install` replaces public functions and methods of the
``workloads``, ``sim``, ``tracedb``, ``core``, ``retrieval``, ``llm``,
``analytics`` and ``serve`` layers with wrappers that time each call.
Functions a module imports by name are patched in that module (the use
site), so ``repro.core.pipeline.make_entry`` is wrapped as well as
``repro.tracedb.database.make_entry``.

A span is ``[id, name, start, end, parent, request_id, attrs]``.  Spans are
kept in memory and written out once, at the end (:meth:`Tracer.dump`).
The parent is the innermost open span of the same thread, and the request
id is the one the serving wrapper set for that thread, so a served
request's spans can be told apart from set-up work.  :func:`layer_metrics`
turns spans into per-layer figures: a span's self time is its duration
minus the durations of its children.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence


class Tracer:
    """In-memory span recorder; records only while :attr:`enabled`."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[list] = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, attrs: Optional[Dict[str, Any]],
             function: Callable, args: tuple, kwargs: dict) -> Any:
        """Run ``function(*args, **kwargs)`` inside one span."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        request_id = getattr(self._local, "request_id", None)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append([span_id, name, start, end, parent,
                               request_id, attrs])

    def wrap(self, owner: Any, attribute: str,
             name: Callable[[tuple], str],
             attrs: Optional[Callable[[tuple, dict], Dict]] = None,
             request: Optional[Callable[[tuple], str]] = None) -> None:
        """Replace ``owner.attribute`` by a traced wrapper."""
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            if request is None:
                return tracer.call(name(args),
                                   attrs(args, kwargs) if attrs else None,
                                   original, args, kwargs)
            previous = getattr(tracer._local, "request_id", None)
            tracer._local.request_id = request(args)
            try:
                return tracer.call(name(args), None, original, args, kwargs)
            finally:
                tracer._local.request_id = previous

        setattr(owner, attribute, traced)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def _constant(name: str) -> Callable[[tuple], str]:
    return lambda _args: name


def _replay_name(args: tuple) -> str:
    return ("sim.replay_stats" if args[0].detail == "stats"
            else "sim.replay_full")


def _batch_name(args: tuple) -> str:
    specs = args[1]
    return ("sim.replay_stats" if specs and specs[0].detail == "stats"
            else "sim.replay_full")


def _first_request_id(args: tuple) -> str:
    requests = args[1]
    first = requests[0] if requests else None
    return getattr(first, "request_id", "") or ""


#: (module, owner path, span name, attrs) of every wrapped public callable.
_TARGETS = (
    ("repro.workloads.generator", "WorkloadGenerator.generate",
     _constant("workloads.generate"), None),
    ("repro.workloads.ingest", "import_trace_file",
     _constant("workloads.ingest"), None),
    ("repro.sim.engine", "SimulationEngine.run", _replay_name,
     lambda args, _kw: {"accesses": len(args[1]), "cells": 1}),
    ("repro.sim.batch", "BatchSimulator.run", _batch_name,
     lambda args, _kw: {"accesses": len(args[0].trace) * len(args[1]),
                        "cells": len(args[1])}),
    ("repro.core.pipeline", "make_entry", _constant("tracedb.materialise"),
     None),
    ("repro.tracedb.database", "make_entry",
     _constant("tracedb.materialise"), None),
    ("repro.tracedb.schema", "AccessLog.to_table",
     _constant("tracedb.materialise"), None),
    ("repro.tracedb.store", "TraceStore.save",
     _constant("tracedb.store_save"), None),
    ("repro.tracedb.store", "TraceStore.load",
     _constant("tracedb.store_load"), None),
    ("repro.core.pipeline", "CacheMind.ask_request_many",
     _constant("core.ask"), None),
    ("repro.core.experiment", "ExperimentRunner.run",
     _constant("core.experiment"), None),
    ("repro.core.plan", "QueryPlanner.plan", _constant("core.plan"), None),
    ("repro.core.generate", "AnswerGenerator.generate",
     _constant("core.generate"), None),
    ("repro.retrieval.sieve", "SieveRetriever.retrieve",
     _constant("retrieval.sieve"), None),
    ("repro.retrieval.ranger", "RangerRetriever.retrieve",
     _constant("retrieval.ranger"), None),
    ("repro.retrieval.embedding", "EmbeddingRetriever.retrieve",
     _constant("retrieval.embedding"), None),
    ("repro.retrieval.embedding", "EmbeddingRetriever.build_index",
     _constant("retrieval.embedding_index"), None),
    ("repro.analytics.backends", "BaseTabularStore.execute",
     _constant("analytics.query"), None),
    ("repro.llm.memory", "ConversationMemory.context_block",
     _constant("llm.memory"), lambda args, _kw: {"items": len(args[0])}),
    ("repro.llm.memory", "ConversationMemory.add_turn",
     _constant("llm.memory"), None),
)


def install(tracer: Tracer) -> Tracer:
    """Wrap every traced layer boundary; returns ``tracer``."""
    for module_name, path, name, attrs in _TARGETS:
        owner: Any = importlib.import_module(module_name)
        *owners, attribute = path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        tracer.wrap(owner, attribute, name, attrs)
    from repro.serve.service import CacheMindService
    tracer.wrap(CacheMindService, "ask_batch", _constant("serve.ask"),
                request=_first_request_id)
    return tracer


# ----------------------------------------------------------------------
# per-layer figures
# ----------------------------------------------------------------------
#: span names reported as ``<name>_s`` (self seconds) and ``<name>.calls``.
TIMED_LAYERS = ("sim.replay_full", "sim.replay_stats", "tracedb.materialise",
                "tracedb.store_save", "tracedb.store_load",
                "workloads.generate", "workloads.ingest", "core.ask",
                "core.experiment", "core.plan", "core.generate",
                "retrieval.sieve", "retrieval.ranger", "retrieval.embedding",
                "retrieval.embedding_index", "analytics.query", "llm.memory",
                "serve.ask")


def _quarter_means(values: Sequence[float]) -> tuple:
    """Means of the first and the last quarter of ``values``."""
    quarter = max(1, len(values) // 4)
    return (statistics.fmean(values[:quarter]),
            statistics.fmean(values[-quarter:]))


def layer_metrics(rounds: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer figures from traced rounds, normalised per operation.

    Each round is ``{"spans": [...], "ops": n, "counters": {...}}``; the
    counters are ``cache_hits``/``cache_misses``, ``record_opens``,
    ``wait_ms`` (summed over requests), ``requests`` and ``retries``.
    Self times and call counts are divided by the operations of all
    rounds; ``ns_per_access`` divides the outermost replay spans' wall time
    by the accesses they replayed.
    """
    ops = sum(round_["ops"] for round_ in rounds) or 1
    self_s: Dict[str, float] = {name: 0.0 for name in TIMED_LAYERS}
    calls: Dict[str, int] = {name: 0 for name in TIMED_LAYERS}
    replay = {"sim.replay_full": [0.0, 0], "sim.replay_stats": [0.0, 0]}
    cells = 0
    span_count = 0
    memory_self: List[float] = []
    memory_items: List[float] = []
    quarters: Dict[str, List[tuple]] = {"self": [], "items": []}
    for round_ in rounds:
        spans = round_["spans"]
        span_count += len(spans)
        by_id = {span[0]: span for span in spans}
        child_time: Dict[int, float] = {}
        for span in spans:
            if span[4] is not None:
                child_time[span[4]] = (child_time.get(span[4], 0.0)
                                       + span[3] - span[2])
        memory_spans = []
        for span in spans:
            span_id, name, start, end, parent = span[:5]
            own = end - start - child_time.get(span_id, 0.0)
            if name in self_s:
                self_s[name] += own
                parent_span = by_id.get(parent)
                if parent_span is None or parent_span[1] != name:
                    calls[name] += 1
            if name == "llm.memory":
                memory_spans.append((start, own, span[6]))
            if name in replay:
                ancestor = by_id.get(parent)
                while ancestor is not None and not ancestor[1].startswith(
                        "sim."):
                    ancestor = by_id.get(ancestor[4])
                if ancestor is None:
                    replay[name][0] += end - start
                    replay[name][1] += span[6]["accesses"]
                    cells += span[6]["cells"]
        memory_spans.sort(key=lambda item: item[0])
        round_self = [own for _start, own, _attrs in memory_spans]
        round_items = [attrs["items"] for _start, _own, attrs
                       in memory_spans if attrs]
        memory_self.extend(round_self)
        memory_items.extend(round_items)
        if round_self:
            quarters["self"].append(_quarter_means(round_self))
        if round_items:
            quarters["items"].append(_quarter_means(round_items))
    metrics: Dict[str, float] = {}
    for name in TIMED_LAYERS:
        metrics[f"{name}_s"] = self_s[name] / ops
        metrics[f"{name}.calls"] = calls[name] / ops
    metrics["sim.simulations"] = cells / ops
    for name, suffix in (("sim.replay_full", "full"),
                         ("sim.replay_stats", "stats")):
        seconds, accesses = replay[name]
        metrics[f"sim.ns_per_access_{suffix}"] = (
            seconds / accesses * 1e9 if accesses else 0.0)
    metrics["llm.memory_items"] = (statistics.fmean(memory_items)
                                   if memory_items else 0.0)
    # Quarters are taken per round (each round is a fresh session), then
    # averaged, so growth within a session shows as q4 > q1.
    for key, name in (("self", "llm.memory_s"),
                      ("items", "llm.memory_items")):
        pairs = quarters[key] or [(0.0, 0.0)]
        metrics[f"{name}.q1"] = statistics.fmean(pair[0] for pair in pairs)
        metrics[f"{name}.q4"] = statistics.fmean(pair[1] for pair in pairs)
    counters: Dict[str, float] = {}
    for round_ in rounds:
        for key, value in round_.get("counters", {}).items():
            counters[key] = counters.get(key, 0) + value
    lookups = counters.get("cache_hits", 0) + counters.get("cache_misses", 0)
    metrics["sim.cache_hit_ratio"] = (counters.get("cache_hits", 0) / lookups
                                      if lookups else 0.0)
    metrics["tracedb.store_record_opens"] = counters.get("record_opens",
                                                         0) / ops
    requests = counters.get("requests", 0)
    metrics["serve.wait_ms"] = (counters.get("wait_ms", 0.0) / requests
                                if requests else 0.0)
    metrics["serve.retries"] = counters.get("retries", 0) / ops
    metrics["trace.spans"] = span_count / ops
    return metrics
