"""Spans recorded around the calls the benchmark makes into each layer.

The program under test is not modified.  The traced run reaches every
layer through a public seam instead:

* serving: a :class:`~repro.core.service.DiagnosisService` subclass
  (``cache_key`` / ``lookup`` / ``diagnose``), a
  :class:`~repro.serve.store.ResultStore` subclass, a
  :class:`~repro.core.pipeline.PipelineObserver` for stage times, and
  :class:`~repro.llm.client.LLMClient` / :class:`~repro.rag.retriever.
  Retriever` subclasses handed to ``IOAgent(client=, retriever=)``;
* simulation: the per-operation entry points of the runtime, filesystem,
  Darshan instrument and DXT collector are replaced on their classes for
  the life of the traced process (:func:`install_sim_tracing`).

A span is ``(id, name, start, end, parent, request, agg_child)``.  Spans
live in memory and are handed to the orchestrator when the run ends.
Per-operation simulation layers would create millions of spans, so they
are aggregated to a call count, busy time and the time of their nested
aggregated calls (``agg_child``), which gives self time without spans.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

__all__ = [
    "Tracer",
    "NullTracer",
    "traced_service",
    "install_sim_tracing",
    "layer_table",
]


class _Frame:
    __slots__ = ("sid", "name", "parent", "start", "agg_child")

    def __init__(self, sid: int | None, name: str, parent: int | None, start: float) -> None:
        self.sid = sid
        self.name = name
        self.parent = parent
        self.start = start
        self.agg_child = 0.0


class Tracer:
    """Span recorder for one traced run.

    The benchmark drives one request at a time (a closed loop with one
    client), so the request in flight and the open pipeline stage are
    process-wide: ``request`` labels every span, and a span opened on a
    thread with nothing open (a pipeline worker pool thread) is parented
    to the open stage, else to the request.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, int | None, float]] = []
        self.aggregates: dict[str, list[float]] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self.request: int | None = None
        self.request_span: int | None = None
        self.stage_span: int | None = None
        self.diagnose_entered: float | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> _Frame:
        stack = self._stack()
        if stack:
            parent = stack[-1].sid
        elif self.stage_span is not None:
            parent = self.stage_span
        else:
            parent = self.request_span
        with self._lock:
            sid = self._next
            self._next += 1
        frame = _Frame(sid, name, parent, time.perf_counter())
        stack.append(frame)
        return frame

    def close(self, frame: _Frame) -> float:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        record = (frame.sid, frame.name, frame.start, end, frame.parent, self.request,
                  frame.agg_child)
        with self._lock:
            self.spans.append(record)
        return end

    def add_span(self, name: str, start: float, end: float, parent: int | None) -> None:
        """Record an interval that is not a call (e.g. queue wait)."""
        with self._lock:
            sid = self._next
            self._next += 1
            self.spans.append((sid, name, start, max(start, end), parent, self.request, 0.0))

    @contextmanager
    def span(self, name: str) -> Iterator[_Frame]:
        frame = self.open(name)
        try:
            yield frame
        finally:
            self.close(frame)

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` recorded as one span per call."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(frame)

        return traced

    def aggregate(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` recorded as count + busy + nested time, no span per call.

        A call nested in another call of the same layer is not counted
        again (its time is already inside the outer call).
        """
        agg = self.aggregates.setdefault(name, [0, 0.0, 0.0])
        stack_of = self._stack
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            if stack and stack[-1].name == name:
                return fn(*args, **kwargs)
            frame = _Frame(None, name, None, clock())
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - frame.start
                stack.pop()
                agg[0] += 1
                agg[1] += dt
                agg[2] += frame.agg_child
                if stack:
                    stack[-1].agg_child += dt

        return traced

    # -- requests ---------------------------------------------------------

    def begin_request(self, index: int, name: str) -> _Frame:
        self.request = index
        self.request_span = None
        self.stage_span = None
        self.diagnose_entered = None
        frame = self.open(name)
        self.request_span = frame.sid
        return frame

    def end_request(self, frame: _Frame, submit_returned: float | None) -> None:
        if submit_returned is not None and self.diagnose_entered is not None:
            self.add_span(
                "serve.server.queue_wait", submit_returned, self.diagnose_entered, frame.sid
            )
        self.close(frame)
        self.request_span = None

    def export(self) -> dict[str, Any]:
        return {
            "spans": [list(s) for s in self.spans],
            "aggregates": {k: list(v) for k, v in self.aggregates.items()},
            "counters": dict(self.counters),
        }


class NullTracer:
    """The untraced run: the same calls, nothing recorded."""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield None

    def begin_request(self, index: int, name: str) -> None:
        return None

    def end_request(self, frame: None, submit_returned: float | None) -> None:
        return None


def traced_service(tracer: Tracer, store_root: str) -> Any:
    """A ``DiagnosisService`` equal to the server's default, with seams traced.

    Same tool name and config as ``DiagnosisServer(store=...)`` builds,
    so cache keys and store entries are interchangeable with the
    untraced run.
    """
    from repro.core.agent import IOAgent, IOAgentConfig
    from repro.core.pipeline import PipelineObserver
    from repro.core.service import DiagnosisService
    from repro.llm.client import LLMClient
    from repro.rag.index import build_default_index
    from repro.rag.retriever import Retriever
    from repro.serve.store import ResultStore

    class TracedClient(LLMClient):
        def complete(self, prompt, model, call_id=""):  # type: ignore[no-untyped-def]
            frame = tracer.open("llm.client")
            try:
                return super().complete(prompt, model, call_id)
            finally:
                tracer.close(frame)

    class TracedRetriever(Retriever):
        def retrieve(self, description):  # type: ignore[no-untyped-def]
            frame = tracer.open("rag.retriever")
            try:
                return super().retrieve(description)
            finally:
                tracer.close(frame)

    class TracedStore(ResultStore):
        def get(self, key):  # type: ignore[no-untyped-def]
            frame = tracer.open("serve.store.get")
            try:
                return super().get(key)
            finally:
                tracer.close(frame)

        def put(self, key, report):  # type: ignore[no-untyped-def]
            frame = tracer.open("serve.store.put")
            try:
                return super().put(key, report)
            finally:
                tracer.close(frame)

    class StageSpans(PipelineObserver):
        def __init__(self) -> None:
            self.open_frames: dict[str, _Frame] = {}

        def on_stage_start(self, stage, ctx):  # type: ignore[no-untyped-def]
            frame = tracer.open(f"core.pipeline.{stage}")
            self.open_frames[stage] = frame
            tracer.stage_span = frame.sid

        def on_stage_end(self, stage, ctx, seconds):  # type: ignore[no-untyped-def]
            tracer.stage_span = None
            tracer.close(self.open_frames.pop(stage))

    class TracedService(DiagnosisService):
        def cache_key(self, log):  # type: ignore[no-untyped-def]
            frame = tracer.open("core.service.cache_key")
            try:
                return super().cache_key(log)
            finally:
                tracer.close(frame)

        def lookup(self, log, trace_id="trace"):  # type: ignore[no-untyped-def]
            frame = tracer.open("core.service.lookup")
            try:
                return super().lookup(log, trace_id)
            finally:
                tracer.close(frame)

        def diagnose(self, log, trace_id="trace", observers=()):  # type: ignore[no-untyped-def]
            frame = tracer.open("core.service.diagnose")
            tracer.diagnose_entered = frame.start
            try:
                return super().diagnose(log, trace_id, observers)
            finally:
                tracer.close(frame)

    config = IOAgentConfig()
    agent = IOAgent(
        config,
        client=TracedClient(seed=config.seed),
        retriever=TracedRetriever(build_default_index(), top_k=config.top_k),
    )
    return TracedService(
        tool=agent, config=config, observers=(StageSpans(),), store=TracedStore(store_root)
    )


def install_sim_tracing(tracer: Tracer) -> Callable[[], None]:
    """Trace the simulation layers on their classes; returns the undo."""
    from repro.darshan.dxt import DxtCollector
    from repro.darshan.instrument import DarshanInstrument
    from repro.darshan.segtable import SegmentTableBuilder
    from repro.sim.filesystem import LustreFileSystem, StripeLayout
    from repro.sim.runtime import IORuntime

    run = IORuntime.run
    counters = tracer.counters

    def runtime_run(self, ops):  # type: ignore[no-untyped-def]
        result = run(self, ops)
        counters["sim.ops"] += result.ops_executed
        return result

    patches: list[tuple[type, str, Callable[..., Any]]] = [
        (IORuntime, "run", tracer.wrap("sim.runtime", runtime_run)),
        (DarshanInstrument, "on_op",
         tracer.aggregate("darshan.instrument.on_op", DarshanInstrument.on_op)),
        (DarshanInstrument, "finalize",
         tracer.wrap("darshan.instrument.finalize", DarshanInstrument.finalize)),
        (DxtCollector, "on_op", tracer.aggregate("darshan.dxt.on_op", DxtCollector.on_op)),
        (SegmentTableBuilder, "build",
         tracer.wrap("darshan.segtable.build", SegmentTableBuilder.build)),
        (StripeLayout, "bytes_per_ost",
         tracer.aggregate("sim.filesystem", StripeLayout.bytes_per_ost)),
    ]
    for method in ("layout_for", "serving_ost", "ost_slowdown", "record_extent"):
        patches.append(
            (LustreFileSystem, method,
             tracer.aggregate("sim.filesystem", getattr(LustreFileSystem, method)))
        )
    originals = [(cls, attr, cls.__dict__[attr]) for cls, attr, _ in patches]
    for cls, attr, replacement in patches:
        setattr(cls, attr, replacement)

    def undo() -> None:
        for cls, attr, original in originals:
            setattr(cls, attr, original)

    return undo


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def layer_table(exported: dict[str, Any]) -> dict[str, list[float]]:
    """``name -> [count, busy_s, self_s]`` from an exported trace.

    Self time is a span's duration minus the union of its child spans
    (children may run in parallel on pool threads) minus the time of its
    aggregated child calls.
    """
    spans = exported["spans"]
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _sid, _name, start, end, parent, _req, _agg in spans:
        if parent is not None:
            children[parent].append((start, end))
    rows: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for sid, name, start, end, _parent, _req, agg_child in spans:
        duration = end - start
        inner = _covered(children.get(sid, []), start, end) + agg_child
        row = rows[name]
        row[0] += 1
        row[1] += duration
        row[2] += max(0.0, duration - inner)
    for name, (count, busy, nested) in exported["aggregates"].items():
        row = rows[name]
        row[0] += count
        row[1] += busy
        row[2] += max(0.0, busy - nested)
    return dict(rows)
