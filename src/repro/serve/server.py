"""The always-on serving core: bounded queue, coalescing, worker pool.

:class:`DiagnosisServer` turns the synchronous
:class:`~repro.core.service.DiagnosisService` facade into an asynchronous
request path:

* **bounded work queue with explicit backpressure** — ``submit`` either
  accepts a request or raises the typed :class:`QueueFullError`; nothing
  is ever silently dropped.  Accepted work drains through a fixed pool of
  worker threads;
* **in-flight coalescing** — concurrent requests for the same ``(trace
  digest, tool, config)`` key share one execution: the first request
  enqueues a run, every duplicate that arrives before it resolves attaches
  to the same :class:`PendingDiagnosis` entry.  A thundering herd of N
  identical requests costs exactly one pipeline run (and one LLM bill);
* **submit-time cache service** — requests whose key is already in the
  service's memory cache or persistent store resolve immediately without
  consuming a queue slot, including one whose run finished while it was
  being probed;
* **deterministic telemetry** — per-stage latency histograms (modeled from
  the run's LLM usage by default, measured wall seconds with
  ``wall_clock=True``), a queue-depth histogram sampled at every enqueue,
  and the request-accounting counters, exported as one
  :class:`~repro.serve.metrics.ServeSnapshot`;
* **stage totals** — each run's per-stage record (returned by
  :meth:`~repro.core.service.DiagnosisService.execute`) feeds the histograms
  and the lifetime totals (:meth:`DiagnosisServer.stage_metrics`).

Runs are named by content (:meth:`~repro.core.service.DiagnosisService.execute`),
and every result a caller receives is relabeled with *its* requested
``trace_id`` — coalescing and caching are invisible to response content.
"""

from __future__ import annotations

import copy
import threading
from collections import deque
from dataclasses import replace
from typing import TYPE_CHECKING, Sequence

from repro.core.pipeline import StageMetrics
from repro.core.report import DiagnosisReport
from repro.core.service import DiagnosisService
from repro.darshan.log import DarshanLog
from repro.llm.client import Usage
from repro.serve.metrics import (
    LATENCY_BUCKET_BOUNDS,
    QUEUE_DEPTH_BUCKET_BOUNDS,
    FixedBucketHistogram,
    LatencyModel,
    ServeCounters,
    ServeSnapshot,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.agent import IOAgentConfig
    from repro.serve.store import ResultStore

__all__ = [
    "ServeError",
    "QueueFullError",
    "ServerClosedError",
    "PendingDiagnosis",
    "DiagnosisServer",
]

# Modeled stage times: its default values are part of the snapshot schema.
_LATENCY = LatencyModel()


class ServeError(RuntimeError):
    """Base of every serving-layer failure."""


class QueueFullError(ServeError):
    """Typed backpressure rejection: the bounded work queue is at capacity.

    The canonical load-shedding signal — callers retry with backoff or
    shed the request themselves.  Carries the configured ``queue_depth``
    so the caller can report the limit it hit.
    """

    def __init__(self, queue_depth: int) -> None:
        super().__init__(
            f"work queue is full ({queue_depth} pending requests); retry later"
        )
        self.queue_depth = queue_depth


class ServerClosedError(ServeError):
    """The server no longer accepts submissions."""


class _Entry:
    """One unit of queued work, shared by every coalesced request."""

    __slots__ = ("key", "log", "event", "report", "error")

    def __init__(self, key: tuple[str, str, str], log: DarshanLog) -> None:
        self.key = key
        self.log = log
        self.event = threading.Event()
        self.report: DiagnosisReport | None = None
        self.error: BaseException | None = None

    def resolve(self, report: DiagnosisReport | None, error: BaseException | None) -> None:
        self.report = report
        self.error = error
        self.event.set()


class PendingDiagnosis:
    """A caller's handle on one submitted request (future-like).

    ``coalesced`` is True when this submission attached to an already
    in-flight run for the same key; ``served_from_cache`` when it resolved
    at submit time from the service's memory cache or persistent store.
    """

    def __init__(self, entry: _Entry, trace_id: str, *, coalesced: bool, cached: bool) -> None:
        self._entry = entry
        self.trace_id = trace_id
        self.coalesced = coalesced
        self.served_from_cache = cached

    def done(self) -> bool:
        return self._entry.event.is_set()

    def result(self, timeout: float | None = None) -> DiagnosisReport:
        """Block until resolved; the report is relabeled with our trace_id.

        Re-raises the run's exception for every attached request if the
        execution failed.
        """
        if not self._entry.event.wait(timeout):
            raise TimeoutError(f"diagnosis of {self.trace_id!r} still pending")
        if self._entry.error is not None:
            raise self._entry.error
        report = self._entry.report
        assert report is not None  # resolve() set exactly one of the two
        if report.trace_id != self.trace_id:
            report = replace(report, trace_id=self.trace_id)
        return report


class DiagnosisServer:
    """Queued, coalescing, metered serving front-end over a service.

    Either wraps an existing :class:`DiagnosisService` (``service=...``)
    or builds one from ``tool`` / ``config`` / ``store``.  Workers start
    immediately unless ``autostart=False`` — the deterministic driving
    mode (used by the CLI, the benchmark, and the byte-identical snapshot
    gate) submits the whole workload first, then calls :meth:`start`, so
    queue-depth observations and coalescing membership are pure functions
    of the workload, not of thread timing.
    """

    def __init__(
        self,
        service: DiagnosisService | None = None,
        *,
        tool: str = "ioagent",
        config: "IOAgentConfig | None" = None,
        store: "ResultStore | str | None" = None,
        queue_depth: int = 64,
        workers: int = 4,
        wall_clock: bool = False,
        autostart: bool = True,
    ) -> None:
        if queue_depth < 1:
            raise ValueError("queue_depth must be positive")
        if workers < 1:
            raise ValueError("workers must be positive")
        if service is None:
            service = DiagnosisService(tool=tool, config=config, store=store)
        self.service = service
        self.queue_depth = queue_depth
        self.n_workers = workers
        self.wall_clock = wall_clock

        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._queue: deque[_Entry] = deque()
        self._inflight: dict[tuple[str, str, str], _Entry] = {}
        self._active = 0  # entries popped but not yet resolved
        self._idle = threading.Condition(self._lock)
        self._closed = False
        self._started = False
        self._threads: list[threading.Thread] = []

        self.counters = ServeCounters()
        self._queue_depth_hist = FixedBucketHistogram(QUEUE_DEPTH_BUCKET_BOUNDS, unit="")
        self._request_hist = FixedBucketHistogram(LATENCY_BUCKET_BOUNDS)
        self._stage_hists: dict[str, FixedBucketHistogram] = {}
        self._stage_totals: dict[str, StageMetrics] = {}

        if autostart:
            self.start()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Start the worker pool (idempotent)."""
        with self._lock:
            if self._started or self._closed:
                return
            self._started = True
            for i in range(self.n_workers):
                thread = threading.Thread(
                    target=self._worker, name=f"diagnosis-worker-{i}", daemon=True
                )
                self._threads.append(thread)
                thread.start()

    def close(self) -> None:
        """Stop accepting work, drain the queue, join the workers."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._not_empty.notify_all()
        started = self._started
        if started:
            for thread in self._threads:
                thread.join()
        else:
            # Never-started server: nothing will drain; fail the queue.
            with self._lock:
                pending = list(self._queue)
                self._queue.clear()
            for entry in pending:
                self._finish(entry, None, ServerClosedError("server closed before start"))

    def __enter__(self) -> "DiagnosisServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- submission --------------------------------------------------------

    def submit(self, log: DarshanLog, trace_id: str = "trace") -> PendingDiagnosis:
        """Accept one diagnosis request (or reject it, typed).

        Resolution order: memory cache / persistent store (immediate),
        in-flight coalescing (free), queue admission (backpressure:
        :class:`QueueFullError` when ``queue_depth`` requests are already
        pending).  The content key is computed here, once; the probe, the
        coalescing table and the worker's store write all use it.

        Two guarantees hold however requests interleave with runs and
        with :meth:`close`.  A request whose content finishes running
        between its probe and its admission is served from the memory
        cache, not run again: a run caches its report before it leaves
        the in-flight table, and when no run of the key is in flight the
        memory cache is probed again under the server lock.  A request
        that would be queued after :meth:`close` raises
        :class:`ServerClosedError`, rather than waiting on an entry no
        worker takes.
        """
        with self._lock:
            if self._closed:
                raise ServerClosedError("server is closed")
        key = self.service.cache_key(log)
        cached = self.service.lookup(key, trace_id=trace_id)

        with self._lock:
            if cached is None:
                if self._closed:  # close() ran since the check above
                    raise ServerClosedError("server is closed")
                inflight = self._inflight.get(key)
                if inflight is not None:
                    self.counters.submitted += 1
                    self.counters.coalesced += 1
                    return PendingDiagnosis(inflight, trace_id, coalesced=True, cached=False)
                # Memory only: no store I/O under the server lock.
                cached = self.service.cached(key, trace_id)
            if cached is not None:
                entry = _Entry(key, log)
                entry.resolve(cached, None)
                self.counters.submitted += 1
                self.counters.cache_served += 1
                return PendingDiagnosis(entry, trace_id, coalesced=False, cached=True)
            if len(self._queue) >= self.queue_depth:
                self.counters.rejected += 1
                raise QueueFullError(self.queue_depth)
            entry = _Entry(key, log)
            self._inflight[key] = entry
            self._queue.append(entry)
            self.counters.submitted += 1
            self._queue_depth_hist.observe(len(self._queue))
            self._not_empty.notify()
            return PendingDiagnosis(entry, trace_id, coalesced=False, cached=False)

    def drain(self) -> None:
        """Block until every accepted request has resolved."""
        with self._idle:
            self._idle.wait_for(lambda: not self._queue and self._active == 0)

    def serve_all(
        self, requests: Sequence[tuple[DarshanLog, str]]
    ) -> list[DiagnosisReport]:
        """Deterministic driver: submit everything, then start and drain.

        On a not-yet-started server this makes queue depths and coalescing
        membership schedule-independent (the byte-identical snapshot mode);
        on a running server it degrades gracefully to submit-and-wait.
        Requests rejected by backpressure propagate as
        :class:`QueueFullError` — size ``queue_depth`` to the workload.
        """
        handles = [self.submit(log, trace_id) for log, trace_id in requests]
        self.start()
        return [handle.result() for handle in handles]

    # -- workers -----------------------------------------------------------

    def _worker(self) -> None:
        while True:
            with self._not_empty:
                while not self._queue and not self._closed:
                    self._not_empty.wait()
                if not self._queue and self._closed:
                    return
                entry = self._queue.popleft()
                self._active += 1
            report: DiagnosisReport | None = None
            stages: dict[str, StageMetrics] = {}
            error: BaseException | None = None
            try:
                report, stages = self.service.execute(entry.key, entry.log)
            except BaseException as exc:  # noqa: BLE001 - delivered to every waiter
                error = exc
            self._record_run(stages, report, error)
            self._finish(entry, report, error)

    def _finish(
        self, entry: _Entry, report: DiagnosisReport | None, error: BaseException | None
    ) -> None:
        with self._lock:
            self._inflight.pop(entry.key, None)
            self._active = max(0, self._active - 1)
            self._idle.notify_all()
        entry.resolve(report, error)

    def _record_run(
        self,
        stages: dict[str, StageMetrics],
        report: DiagnosisReport | None,
        error: BaseException | None,
    ) -> None:
        with self._lock:
            self.counters.executed += 1
            if error is not None:
                self.counters.failed += 1
            # Mirrors the service's persistence rule: clean results only.
            if self.service.store is not None and report is not None and not report.degraded:
                self.counters.store_writes += 1
            for stage, metrics in stages.items():
                self._stage_totals.setdefault(stage, StageMetrics()).merge(metrics)
        total = 0.0
        for stage, metrics in sorted(stages.items()):
            if self.wall_clock:
                seconds = metrics.seconds
            else:
                usage = Usage(
                    prompt_tokens=metrics.prompt_tokens,
                    completion_tokens=metrics.completion_tokens,
                    calls=metrics.calls,
                )
                seconds = _LATENCY.stage_seconds(usage)
            total += seconds
            hist = self._stage_hist(stage)
            hist.observe(seconds)
        if not stages and not self.wall_clock:
            # Tools without stages (and failed runs) still cost the model floor.
            total = _LATENCY.base_seconds
        self._request_hist.observe(total)

    def _stage_hist(self, stage: str) -> FixedBucketHistogram:
        with self._lock:
            hist = self._stage_hists.get(stage)
            if hist is None:
                hist = FixedBucketHistogram(LATENCY_BUCKET_BOUNDS)
                self._stage_hists[stage] = hist
            return hist

    # -- telemetry ---------------------------------------------------------

    def stage_metrics(self) -> dict[str, StageMetrics]:
        """Per-stage totals over every run this server executed (a copy)."""
        with self._lock:
            return copy.deepcopy(self._stage_totals)

    def metrics_snapshot(self) -> ServeSnapshot:
        """The current :class:`ServeSnapshot` (canonical-JSON exportable)."""
        with self._lock:
            counters = dict(self.counters.as_dict())
            stage_names = sorted(self._stage_hists)
        return ServeSnapshot(
            counters=counters,
            queue_depth=self._queue_depth_hist.as_dict(),
            request_latency=self._request_hist.as_dict(),
            stage_latency={
                name: self._stage_hists[name].as_dict() for name in stage_names
            },
            latency_mode="wall" if self.wall_clock else "modeled",
        )
