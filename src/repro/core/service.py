"""Production-style facade: cached, metered diagnosis of one trace.

:class:`DiagnosisService` is the entry point a deployment would sit
behind.  On top of any registered :class:`~repro.core.registry.DiagnosticTool`
it adds the concerns the paper's production story needs but that don't
belong inside a tool:

* **one execution path** — every caller's run goes through
  :meth:`DiagnosisService.execute`, which names the run by content: the
  tool runs under the first 12 hex digits of the trace digest, so report
  text is a function of content, tool and config, and the caller's
  ``trace_id`` is a label applied last;
* **caching** — per-trace results memoized by ``(trace digest, tool,
  config)``, so re-diagnosing an unchanged log is free; memory holds the
  ``MEMORY_CACHE_CAPACITY`` most recently used reports;
* **shared resources** — one tool instance (and therefore one memoized
  RAG index) serves the whole service lifetime instead of being rebuilt
  per call;
* **observability** — the observers given at construction or per call
  see every stage of a :class:`~repro.core.pipeline.PipelineTool` run.

Concurrency lives one layer up: :class:`~repro.serve.server.DiagnosisServer`
queues, coalesces and runs requests on its worker pool and folds each run's
per-stage record (:meth:`DiagnosisService.execute`) into its telemetry.  Batches
(:func:`repro.core.batch.diagnose_batch`) are one of its clients.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, replace
from threading import Lock
from typing import TYPE_CHECKING, Sequence

from repro.core.pipeline import PipelineObserver, PipelineTool, StageMetrics
from repro.core.registry import DiagnosticTool, get_tool
from repro.core.report import DiagnosisReport
from repro.darshan.log import DarshanLog
from repro.darshan.writer import iter_darshan_text, render_header
from repro.llm.client import Usage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.agent import IOAgentConfig
    from repro.serve.store import ResultStore

__all__ = ["MEMORY_CACHE_CAPACITY", "ServiceStats", "DiagnosisService", "trace_digest"]

# Reports one service keeps in memory; the least recently used is evicted
# first.  Far above the distinct traces any harness or gate puts through
# one service (at most the 77 registered scenarios), so only a
# long-running server evicts.
MEMORY_CACHE_CAPACITY = 1024


def trace_digest(log: DarshanLog) -> str:
    """Stable content digest of a Darshan log.

    Covers both evidence channels: the parser-text rendering of the
    counters and, when present, the DXT segment table — two logs with
    identical counters but different timelines must not share a cache
    entry.  A log parsed from exactly the text the writer would emit for
    it carries the sha256 of those bytes (``counter_table.memo``), which
    is used as long as its header still renders the same; any other log
    is hashed chunk by chunk as it is rendered, never held whole.
    """
    memo = log.counter_table.memo
    if memo is not None and memo.header == render_header(log.header):
        digest = memo.sha256.copy()
    else:
        digest = hashlib.sha256()
        for chunk in iter_darshan_text(log):
            digest.update(chunk.encode("utf-8"))
    if log.dxt_segments:
        from repro.darshan.dxt import dxt_digest

        if log.dxt_digest_cache is None:
            log.dxt_digest_cache = dxt_digest(log.dxt_segments)
        digest.update(log.dxt_digest_cache.encode("ascii"))
    return digest.hexdigest()


def _labeled(report: DiagnosisReport, trace_id: str | None) -> DiagnosisReport:
    """``report`` as handed to a caller: relabeled with its ``trace_id``."""
    if trace_id is None or report.trace_id == trace_id:
        return report
    return replace(report, trace_id=trace_id)


@dataclass(frozen=True)
class ServiceStats:
    """One coherent snapshot of a service's caching + spend state.

    The one accessor serve-mode and batch-mode metrics read through.
    ``usage`` is a point-in-time copy — mutating it does not touch the
    tool's accounting.
    """

    tool: str
    cache_hits: int
    cache_misses: int
    store_hits: int
    cached_reports: tuple[DiagnosisReport, ...]
    usage: Usage

    @property
    def requests(self) -> int:
        """Total diagnose() calls that consulted the cache."""
        return self.cache_hits + self.cache_misses + self.store_hits


class DiagnosisService:
    """Multi-trace diagnosis facade over a registered tool.

    ``tool`` may be a registry name (``"ioagent"``, ``"drishti"``,
    ``"ion"``) or an already-built :class:`DiagnosticTool` instance.  When
    a name is given, construction knobs come from ``config`` (threaded to
    factories that accept them; heuristic tools ignore what they don't
    take).

    ``store`` optionally backs the in-memory cache with a persistent
    :class:`~repro.serve.store.ResultStore` (a directory path is accepted
    and wrapped): lookups fall back memory → store → run, store hits are
    promoted into memory, and every non-degraded result is persisted, so
    a *fresh process* pointed at the same store serves known digests with
    zero LLM calls.  Memory holds at most ``MEMORY_CACHE_CAPACITY``
    reports and evicts the least recently used; an evicted key comes back
    from the store when one backs the service, and runs again otherwise.
    Cached and stored reports carry the run name; every report handed to
    a caller is a copy relabeled with its ``trace_id``.
    """

    def __init__(
        self,
        tool: str | DiagnosticTool = "ioagent",
        config: "IOAgentConfig | None" = None,
        observers: Sequence[PipelineObserver] = (),
        store: "ResultStore | str | None" = None,
    ) -> None:
        if config is None:
            from repro.core.agent import IOAgentConfig

            config = IOAgentConfig()
        self.config = config
        if isinstance(tool, str):
            tool = get_tool(
                tool, config=config, model=config.model, seed=config.seed
            )
        self.tool: DiagnosticTool = tool
        self.observers = tuple(observers)
        self._cache: OrderedDict[tuple[str, str, str], DiagnosisReport] = OrderedDict()
        self._cache_lock = Lock()
        self.cache_hits = 0
        self.cache_misses = 0
        self.store_hits = 0
        if isinstance(store, str):
            from repro.serve.store import ResultStore

            store = ResultStore(store)
        self.store = store

    # -- single trace ------------------------------------------------------

    def cache_key(self, log: DarshanLog) -> tuple[str, str, str]:
        """The content address of ``log`` under this service's tool.

        Keyed on the *tool's* effective config when it carries one: a tool
        instance built around a different config than the service default
        (an ablated use_dxt=False agent, say) must not alias the full
        tool's entries under the same trace digest.
        """
        config = getattr(self.tool, "config", None)
        if config is None:
            config = self.config
        return (trace_digest(log), self.tool.name, repr(config))

    def lookup(
        self, key: tuple[str, str, str], trace_id: str = "trace"
    ) -> DiagnosisReport | None:
        """Serve ``key`` from memory or the persistent store, or None.

        ``key`` is :meth:`cache_key` of the request's log, computed once
        by the caller.  Never runs the tool — this is the probe the
        serving layer uses to resolve requests at submit time without
        burning a queue slot.  Hits count toward ``cache_hits`` /
        ``store_hits``; misses count nothing (only an actual run records
        a miss).
        """
        hit = self.cached(key, trace_id)
        if hit is not None or self.store is None:
            return hit
        report = self.store.get(key)
        if report is None:
            return None
        with self._cache_lock:
            self.store_hits += 1
            # Promote: later identical requests hit memory.
            self._cache.setdefault(key, report)
            self._cache.move_to_end(key)
            if len(self._cache) > MEMORY_CACHE_CAPACITY:
                self._cache.popitem(last=False)
        return _labeled(report, trace_id)

    def cached(self, key: tuple[str, str, str], trace_id: str = "trace") -> DiagnosisReport | None:
        """Serve ``key`` from the memory cache alone, or None.

        The part of :meth:`lookup` that does no store I/O, so the serving
        layer can repeat it under its own lock.  A hit counts toward
        ``cache_hits`` and makes the entry the most recently used.
        """
        with self._cache_lock:
            report = self._cache.get(key)
            if report is None:
                return None
            self.cache_hits += 1
            self._cache.move_to_end(key)
        return _labeled(report, trace_id)

    def diagnose(
        self,
        log: DarshanLog,
        trace_id: str = "trace",
        observers: Sequence[PipelineObserver] = (),
    ) -> DiagnosisReport:
        """Diagnose one log, serving identical content from the cache/store.

        Caching is content-addressed — keyed by ``(trace digest, tool,
        config)`` — so resubmitting an identical log under a new name is a
        hit.  Hit or miss, the text is the same (see :meth:`execute`);
        only the label is the requested ``trace_id``.
        """
        key = self.cache_key(log)
        hit = self.lookup(key, trace_id)
        if hit is not None:
            return hit
        return self.execute(key, log, trace_id, observers)[0]

    def execute(
        self,
        key: tuple[str, str, str],
        log: DarshanLog,
        trace_id: str | None = None,
        observers: Sequence[PipelineObserver] = (),
    ) -> tuple[DiagnosisReport, dict[str, StageMetrics]]:
        """Run the tool on ``log`` and record a clean report under ``key``.

        The one place a tool runs for a caller: the miss path of
        :meth:`diagnose`, also taken by the serving layer's workers with
        the key their request computed at submit, so it neither probes
        nor digests.  The run is named by content — the tool runs under
        ``key[0][:12]``, the trace-digest prefix, which also seeds every
        LLM call of the run — and the cached and stored report carry that
        name.  Only the returned copy carries ``trace_id`` (``None``
        keeps the run name).  The run counts as a cache miss.  Returns
        the report and the run's ``stage_metrics`` (``{}`` for a tool
        that is not a :class:`~repro.core.pipeline.PipelineTool`).
        """
        report, stage_metrics = self._run_tool(log, key[0][:12], observers)
        with self._cache_lock:
            self.cache_misses += 1
            # Never cache a degraded report: the degradation came from
            # transient weather (faults, outages), not from the trace
            # content the key is addressed by — a later clean run of the
            # same digest must not be served a degraded answer.
            if not report.degraded:
                self._cache.setdefault(key, report)
                self._cache.move_to_end(key)
                if len(self._cache) > MEMORY_CACHE_CAPACITY:
                    self._cache.popitem(last=False)
        # Same rule for the persistent store (put() enforces it too); the
        # atomic write happens outside the cache lock.
        if self.store is not None and not report.degraded:
            self.store.put(key, report)
        return _labeled(report, trace_id), stage_metrics

    def _run_tool(
        self, log: DarshanLog, run_id: str, observers: Sequence[PipelineObserver]
    ) -> tuple[DiagnosisReport, dict[str, StageMetrics]]:
        if isinstance(self.tool, PipelineTool):
            # The observers see every stage of a pipeline-backed run.
            ctx = self.tool.run(log, run_id, observers=self.observers + tuple(observers))
            return ctx.build_report(), ctx.stage_metrics
        return self.tool.diagnose(log, trace_id=run_id), {}

    # -- stats (the one coherent accessor; see ServiceStats) ---------------

    def stats(self) -> ServiceStats:
        """One consistent :class:`ServiceStats` snapshot of this service.

        Counters and the cached-report tuple are read under the cache
        lock, so a snapshot taken mid-batch is internally consistent.
        """
        usage = self.tool.usage()
        with self._cache_lock:
            return ServiceStats(
                tool=self.tool.name,
                cache_hits=self.cache_hits,
                cache_misses=self.cache_misses,
                store_hits=self.store_hits,
                cached_reports=tuple(self._cache.values()),
                usage=Usage(
                    prompt_tokens=usage.prompt_tokens,
                    completion_tokens=usage.completion_tokens,
                    cost_usd=usage.cost_usd,
                    calls=usage.calls,
                ),
            )

    def clear_cache(self) -> None:
        """Drop the in-memory cache and reset counters (the store persists)."""
        with self._cache_lock:
            self._cache.clear()
            self.cache_hits = 0
            self.cache_misses = 0
            self.store_hits = 0
