"""Tests for the serving layer: queue, coalescing, store, telemetry.

Covers the four tentpole contracts — typed backpressure, N-identical-
requests-cost-one-run coalescing, the persistent content-addressed
result store (including cross-process replay with zero LLM calls in a
real subprocess), and byte-identical deterministic metrics snapshots —
plus the unified registry-lookup error surface and the reconciled
``ServiceStats`` accessor.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import DrishtiTool, IONTool
from repro.core.agent import IOAgent, IOAgentConfig
from repro.core.batch import diagnose_batch
from repro.core.pipeline import PipelineContext, StageMetrics
from repro.core.registry import ToolNotFoundError
from repro.core.report import DiagnosisReport
from repro.core.service import DiagnosisService, ServiceStats
from repro.llm.client import LLMClient, Usage
from repro.regression.series import SeriesDiagnosticTool
from repro.resilience import (
    CircuitBreaker,
    FaultPlanNotFoundError,
    FaultyLLMClient,
    RetryPolicy,
    get_fault_plan,
)
from repro.serve import (
    LATENCY_BUCKET_BOUNDS,
    DiagnosisServer,
    FixedBucketHistogram,
    LatencyModel,
    QueueFullError,
    ResultStore,
    ServerClosedError,
    report_from_dict,
    report_to_dict,
)
from repro.serve.store import store_filename
from repro.util.lookup import RegistryLookupError
from repro.workloads.scenarios import ScenarioNotFoundError, SeriesScenarioNotFoundError

REPO_ROOT = Path(__file__).resolve().parent.parent

# sha256 of the modeled snapshot after serving sb01 four times (seed 0):
# any change to how the server collects stage telemetry must keep it.
SB01_X4_SNAPSHOT_SHA256 = "f3dd0c243c575265a200a140f6a08140d60395e61773ce2833ba1f29d84cedf7"


def _service(**config_kwargs) -> DiagnosisService:
    config = IOAgentConfig(seed=0, **config_kwargs)
    return DiagnosisService(tool="ioagent", config=config)


def _degraded_service(store=None) -> DiagnosisService:
    """A service whose every run loses the merge channel (degraded reports)."""
    config = IOAgentConfig()
    client = FaultyLLMClient(
        get_fault_plan("merge-outage"),
        retry_policy=RetryPolicy(),
        breaker=CircuitBreaker(),
    )
    agent = IOAgent(config, client=client)
    return DiagnosisService(tool=agent, config=config, store=store)


# -- histograms + latency model ------------------------------------------


class TestFixedBucketHistogram:
    def test_observations_land_in_inclusive_upper_bound_buckets(self):
        hist = FixedBucketHistogram(bounds=(1.0, 2.0, 5.0))
        for value in (0.5, 1.0, 1.5, 5.0, 99.0):
            hist.observe(value)
        snap = hist.as_dict()
        assert snap["counts"] == [2, 1, 1, 1]  # last bucket = overflow
        assert snap["count"] == 5
        assert snap["min"] == 0.5 and snap["max"] == 99.0

    def test_bounds_must_be_ascending(self):
        with pytest.raises(ValueError):
            FixedBucketHistogram(bounds=(2.0, 1.0))
        with pytest.raises(ValueError):
            FixedBucketHistogram(bounds=())

    def test_empty_histogram_snapshot(self):
        snap = FixedBucketHistogram(bounds=(1.0,)).as_dict()
        assert snap["count"] == 0 and snap["min"] is None and snap["max"] is None

    def test_render_marks_only_nonempty_buckets(self):
        hist = FixedBucketHistogram(bounds=(1.0, 2.0))
        hist.observe(0.5)
        text = hist.render("lat")
        assert "n=1" in text and "<= 1s" in text and "<= 2s" not in text

    def test_snapshot_is_order_independent(self):
        a = FixedBucketHistogram()
        b = FixedBucketHistogram()
        values = [0.001, 5.0, 0.3, 0.3, 200.0]
        for v in values:
            a.observe(v)
        for v in reversed(values):
            b.observe(v)
        assert a.as_dict() == b.as_dict()

    def test_default_bounds_are_the_schema(self):
        assert FixedBucketHistogram().bounds == LATENCY_BUCKET_BOUNDS


class TestLatencyModel:
    def test_usage_maps_deterministically_to_seconds(self):
        model = LatencyModel()
        usage = Usage(prompt_tokens=10_000, completion_tokens=2_000, calls=2)
        expected = model.base_seconds + 2 * model.seconds_per_call + 1.0 + 1.0
        assert model.stage_seconds(usage) == pytest.approx(expected)
        assert model.stage_seconds(Usage()) == model.base_seconds


# -- result store --------------------------------------------------------


class TestResultStore:
    KEY = ("digest-abc", "ioagent", "IOAgentConfig()")

    def _report(self, **overrides):
        from repro.core.report import DiagnosisReport

        fields = dict(
            trace_id="t1",
            model="gpt-4o",
            text="diagnosis text",
            n_fragments=3,
            sources_retrieved=5,
            sources_kept=2,
            degraded=(),
        )
        fields.update(overrides)
        return DiagnosisReport(**fields)

    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        report = self._report()
        store.put(self.KEY, report)
        assert self.KEY in store and len(store) == 1
        loaded = store.get(self.KEY)
        assert report_to_dict(loaded) == report_to_dict(report)

    def test_missing_key_is_none(self, tmp_path):
        assert ResultStore(tmp_path).get(self.KEY) is None

    def test_degraded_reports_are_refused(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError, match="degraded"):
            store.put(self.KEY, self._report(degraded=("merge",)))
        assert len(store) == 0

    def test_corrupt_entry_is_a_miss_not_an_error(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(self.KEY, self._report())
        store.path_for(self.KEY).write_text("{torn wri", encoding="utf-8")
        assert store.get(self.KEY) is None

    def test_version_and_key_mismatches_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.put(self.KEY, self._report())
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["version"] = 999
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert store.get(self.KEY) is None
        # A (vanishingly unlikely) filename collision must not serve the
        # wrong key's report: the full key is checked, not just the hash.
        other = ("digest-other", "ioagent", "IOAgentConfig()")
        store.put(self.KEY, self._report())
        store.path_for(other).write_bytes(store.path_for(self.KEY).read_bytes())
        assert store.get(other) is None

    def test_clear_removes_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(self.KEY, self._report())
        assert store.clear() == 1
        assert len(store) == 0

    def test_filename_is_stable_and_key_addressed(self):
        assert store_filename(self.KEY) == store_filename(tuple(self.KEY))
        assert store_filename(self.KEY) != store_filename(("x", "ioagent", "c"))
        assert store_filename(self.KEY).endswith(".json")

    def test_report_dict_round_trip_preserves_degraded(self):
        report = self._report(degraded=("merge", "temporal"))
        assert report_from_dict(report_to_dict(report)).degraded == ("merge", "temporal")

    def test_same_key_writers_in_one_process_do_not_collide(self, tmp_path):
        # Concurrent diagnose() calls for one trace write one key from
        # several threads of one process at once.
        store = ResultStore(tmp_path)
        report = self._report()
        n_threads, puts = max(8, 2 * (os.cpu_count() or 1)), 50
        errors: list[Exception] = []

        def writer() -> None:
            for _ in range(puts):
                try:
                    store.put(self.KEY, report)
                except Exception as exc:  # noqa: BLE001 - collected, asserted below
                    errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer) for _ in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert report_to_dict(store.get(self.KEY)) == report_to_dict(report)
        assert sorted(p.name for p in tmp_path.iterdir()) == [store_filename(self.KEY)]


# -- service + store integration -----------------------------------------


class TestServiceStore:
    def test_fresh_service_replays_from_store_with_zero_llm_calls(self, tmp_path, sb01_trace):
        first = _service()
        first.store = ResultStore(tmp_path)
        first.diagnose(sb01_trace.log, trace_id=sb01_trace.trace_id)
        assert len(first.store) == 1

        # Same config as `first`: the key is (digest, tool, config repr).
        second = DiagnosisService(
            config=IOAgentConfig(seed=0), store=str(tmp_path)
        )
        report = second.diagnose(sb01_trace.log, trace_id="renamed")
        stats = second.stats()
        assert stats.store_hits == 1 and stats.cache_misses == 0
        assert stats.usage.calls == 0  # the replay burned no LLM budget
        assert report.trace_id == "renamed"

    def test_store_hit_promotes_into_memory(self, tmp_path, sb01_trace):
        _svc = _service()
        _svc.store = ResultStore(tmp_path)
        _svc.diagnose(sb01_trace.log, trace_id="a")

        second = DiagnosisService(
            config=IOAgentConfig(seed=0), store=str(tmp_path)
        )
        second.diagnose(sb01_trace.log, trace_id="b")
        second.diagnose(sb01_trace.log, trace_id="c")
        stats = second.stats()
        assert stats.store_hits == 1  # only the first lookup touched disk
        assert stats.cache_hits == 1

    def test_degraded_run_leaves_no_store_entry(self, tmp_path, sb01_trace):
        service = _degraded_service(store=str(tmp_path))
        report = service.diagnose(sb01_trace.log, trace_id=sb01_trace.trace_id)
        assert report.degraded == ("merge",)
        assert len(service.store) == 0

    def test_cross_process_replay_zero_llm_calls(self, tmp_path, sb01_trace):
        """Satellite contract: a second *process* serves from the store."""
        service = _service()
        service.store = ResultStore(tmp_path)
        original = service.diagnose(sb01_trace.log, trace_id=sb01_trace.trace_id)

        script = textwrap.dedent(
            """
            from repro.core.agent import IOAgentConfig
            from repro.core.service import DiagnosisService
            from repro.tracebench.build import build_trace
            from repro.tracebench.spec import TRACE_SPECS
            import sys

            spec = next(s for s in TRACE_SPECS if s.trace_id == "sb01-small-writes")
            trace = build_trace(spec, seed=0)
            service = DiagnosisService(
                config=IOAgentConfig(seed=0), store=sys.argv[1]
            )
            report = service.diagnose(trace.log, trace_id="second-process")
            stats = service.stats()
            assert stats.store_hits == 1, stats
            assert stats.cache_misses == 0, stats
            assert stats.usage.calls == 0, stats.usage
            print(report.text == sys.stdin.read())
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            input=original.text,
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "True"


# -- ServiceStats --------------------------------------------------------


class TestServiceStats:
    def test_stats_snapshot_is_coherent(self, sb01_trace):
        service = _service()
        service.diagnose(sb01_trace.log, trace_id="a")
        service.diagnose(sb01_trace.log, trace_id="b")
        stats = service.stats()
        assert isinstance(stats, ServiceStats)
        assert stats.tool == service.tool.name
        assert (stats.cache_hits, stats.cache_misses, stats.store_hits) == (1, 1, 0)
        assert stats.requests == 2
        assert len(stats.cached_reports) == 1
        assert stats.usage.calls > 0

    def test_stats_usage_is_a_defensive_copy(self, sb01_trace):
        service = _service()
        service.diagnose(sb01_trace.log, trace_id="a")
        stats = service.stats()
        before = stats.usage.calls
        stats.usage.calls += 1000
        assert service.stats().usage.calls == before

    def test_clear_cache_resets_counters(self, sb01_trace):
        service = _service()
        service.diagnose(sb01_trace.log, trace_id="a")
        service.clear_cache()
        stats = service.stats()
        assert stats.requests == 0 and stats.cached_reports == ()


# -- the server: queue, coalescing, lifecycle ----------------------------


class TestDiagnosisServer:
    def test_herd_of_identical_requests_costs_one_run(self, sb01_trace):
        service = _service()
        server = DiagnosisServer(service, workers=2, queue_depth=16)
        handles = [server.submit(sb01_trace.log, trace_id=f"req-{i}") for i in range(6)]
        reports = [h.result(timeout=120) for h in handles]
        server.close()
        assert server.counters.executed == 1
        assert server.counters.coalesced + server.counters.cache_served == 5
        assert all(r.text == reports[0].text for r in reports)
        # Every caller got its own trace id back, not the digest label.
        assert [r.trace_id for r in reports] == [f"req-{i}" for i in range(6)]

    def test_queue_full_is_a_typed_rejection(self, bench):
        a, b, c = (bench.get(t) for t in ("sb01-small-writes", "sb03-misaligned-writes", "sb05-metadata-storm"))
        server = DiagnosisServer(_service(), queue_depth=2, autostart=False)
        server.submit(a.log, trace_id="a")
        server.submit(b.log, trace_id="b")
        with pytest.raises(QueueFullError) as excinfo:
            server.submit(c.log, trace_id="c")
        assert excinfo.value.queue_depth == 2
        assert "retry later" in str(excinfo.value)
        assert server.counters.rejected == 1
        # Identical traffic still coalesces for free past the full queue.
        dup = server.submit(a.log, trace_id="a2")
        assert dup.coalesced
        server.close()

    def test_submit_time_cache_service_skips_the_queue(self, sb01_trace):
        service = _service()
        service.diagnose(sb01_trace.log, trace_id="warm")
        server = DiagnosisServer(service, autostart=False)
        handle = server.submit(sb01_trace.log, trace_id="hit")
        assert handle.served_from_cache and handle.done()
        assert handle.result().trace_id == "hit"
        assert server.counters.cache_served == 1
        server.close()

    def test_closed_server_rejects_submissions(self, sb01_trace):
        server = DiagnosisServer(_service(), autostart=False)
        pending = server.submit(sb01_trace.log, trace_id="orphan")
        server.close()
        with pytest.raises(ServerClosedError):
            server.submit(sb01_trace.log, trace_id="late")
        with pytest.raises(ServerClosedError):
            pending.result(timeout=5)

    def test_serve_all_is_deterministically_byte_identical(self, sb01_trace):
        def snapshot() -> str:
            server = DiagnosisServer(_service(), autostart=False)
            server.serve_all([(sb01_trace.log, f"r{i}") for i in range(4)])
            server.close()
            return server.metrics_snapshot().to_json()

        first, second = snapshot(), snapshot()
        assert first == second
        assert hashlib.sha256(first.encode("utf-8")).hexdigest() == SB01_X4_SNAPSHOT_SHA256
        payload = json.loads(first)
        assert payload["latency_mode"] == "modeled"
        assert payload["counters"]["submitted"] == 4
        assert payload["counters"]["executed"] == 1

    def test_wall_clock_mode_changes_only_the_mode_label(self, sb01_trace):
        server = DiagnosisServer(_service(), wall_clock=True, autostart=False)
        server.serve_all([(sb01_trace.log, "r0")])
        server.close()
        snap = server.metrics_snapshot()
        assert snap.latency_mode == "wall"
        assert snap.request_latency["count"] == 1

    def test_failed_run_propagates_to_every_waiter(self, sb01_trace):
        class ExplodingTool:
            name = "exploder"
            config = None

            def diagnose(self, log, trace_id="trace"):
                raise RuntimeError("boom")

            def usage(self):
                return Usage()

        service = DiagnosisService(tool=ExplodingTool(), config=IOAgentConfig(seed=0))
        server = DiagnosisServer(service, workers=1, autostart=False)
        handles = [server.submit(sb01_trace.log, trace_id=f"r{i}") for i in range(2)]
        server.start()
        for handle in handles:
            with pytest.raises(RuntimeError, match="boom"):
                handle.result(timeout=60)
        server.close()
        assert server.counters.failed == 1  # one run, both waiters told

    def test_validation(self):
        with pytest.raises(ValueError):
            DiagnosisServer(_service(), queue_depth=0)
        with pytest.raises(ValueError):
            DiagnosisServer(_service(), workers=0)

    def test_server_persists_through_its_store(self, tmp_path, sb01_trace):
        server = DiagnosisServer(
            tool="ioagent",
            config=IOAgentConfig(seed=0),
            store=str(tmp_path),
            autostart=False,
        )
        server.serve_all([(sb01_trace.log, "r0")])
        server.close()
        assert server.counters.store_writes == 1
        assert len(ResultStore(tmp_path)) == 1


class _KeyCountingService(DiagnosisService):
    """Counts trace digests: every cache_key call renders and hashes the log."""

    def __init__(self, store=None) -> None:
        super().__init__(config=IOAgentConfig(seed=0), store=store)
        self.keys: list[tuple[str, str, str]] = []

    def cache_key(self, log):
        key = super().cache_key(log)
        self.keys.append(key)
        return key


def _submit_and_wait(service, log, n=1):
    server = DiagnosisServer(service, autostart=False)
    handles = [server.submit(log, trace_id=f"r{i}") for i in range(n)]
    server.start()
    for handle in handles:
        handle.result(timeout=120)
    server.close()
    return server, handles


class _RunNameTool:
    """A cheap tool whose text is the run name it was given and its record count."""

    name = "run-name"
    config = None

    def diagnose(self, log, trace_id="trace"):
        text = f"{trace_id}/{len(log.records)}"
        return DiagnosisReport(trace_id=trace_id, model="none", text=text)

    def usage(self):
        return Usage()


_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.sampled_from((0, 0, 1))),
        st.tuples(st.just("start"), st.just(0)),
        st.tuples(st.just("result"), st.integers(0, 30)),
        st.tuples(st.just("resubmit"), st.integers(0, 30)),
    ),
    min_size=1,
    max_size=24,
)


class TestCoalescingInterleavings:
    """Any order of submit/start/result/resubmit on an ``autostart=False`` server."""

    @settings(max_examples=60, deadline=None)
    @given(steps=_STEPS)
    def test_each_caller_gets_its_own_id_and_the_content_text(self, bench, steps):
        logs = (bench.get("sb01-small-writes").log, bench.get("sb03-misaligned-writes").log)
        direct = DiagnosisService(tool=_RunNameTool())
        expected = [direct.diagnose(log, trace_id="direct").text for log in logs]
        handles: list[tuple[object, str, int]] = []  # (handle, trace id, content)
        started = False

        def check(i: int) -> None:
            handle, trace_id, content = handles[i]
            report = handle.result(timeout=60)
            assert report.trace_id == trace_id
            assert report.text == expected[content]

        def submit(content: int) -> None:
            trace_id = f"req-{len(handles)}"
            handles.append((server.submit(logs[content], trace_id=trace_id), trace_id, content))

        service = DiagnosisService(tool=_RunNameTool())
        with DiagnosisServer(service, workers=2, autostart=False) as server:
            for step, arg in steps:
                if step == "submit":
                    submit(arg)
                elif step == "start":
                    server.start()
                    started = True
                elif handles:
                    i = arg % len(handles)
                    if not (started or handles[i][0].done()):
                        continue  # nothing runs before start: result() would wait forever
                    check(i)
                    if step == "resubmit":
                        submit(handles[i][2])
                        assert handles[-1][0].served_from_cache
            server.start()
            for i in range(len(handles)):
                check(i)
        assert server.counters.executed == len({content for _, _, content in handles})


class _LateMissService(DiagnosisService):
    """Its probe misses, then returns only once ``on_miss`` has run."""

    def __init__(self) -> None:
        super().__init__(tool=_RunNameTool())
        self.on_miss = None

    def lookup(self, key, trace_id="trace"):
        report = super().lookup(key, trace_id)
        if report is None and self.on_miss is not None:
            self.on_miss()
        return report


class TestSubmitRaces:
    """``submit`` against runs finishing and ``close()``, at the worst moment."""

    def test_run_finishing_between_probe_and_admission_is_served_from_cache(self, sb01_trace):
        service = _LateMissService()
        server = DiagnosisServer(service, workers=1, autostart=False)
        first = server.submit(sb01_trace.log, trace_id="first")

        def finish_first_run() -> None:
            # The second request has missed; the run it missed finishes
            # now, caching its report and leaving the in-flight table.
            server.start()
            first.result(timeout=60)

        service.on_miss = finish_first_run
        second = server.submit(sb01_trace.log, trace_id="second")
        service.on_miss = None
        assert second.served_from_cache and second.done()
        assert second.result(timeout=5).trace_id == "second"
        assert second.result().text == first.result().text
        server.close()
        assert server.counters.executed == 1
        assert server.counters.cache_served == 1 and server.counters.submitted == 2
        assert service.stats().cache_hits == 1

    @pytest.mark.parametrize("autostart", [True, False])
    def test_submit_racing_close_raises(self, sb01_trace, autostart):
        service = _LateMissService()
        server = DiagnosisServer(service, workers=1, autostart=autostart)
        service.on_miss = server.close
        with pytest.raises(ServerClosedError):
            server.submit(sb01_trace.log, trace_id="late")
        assert server.counters.submitted == 0
        assert server.counters.executed == 0


def _key(i: int) -> tuple[str, str, str]:
    """A distinct content key, with no trace behind it to digest."""
    return (f"{i:064x}", "run-name", "None")


class TestMemoryCacheBound:
    """The memory cache keeps the ``MEMORY_CACHE_CAPACITY`` most recently used."""

    def test_capacity_plus_one_evicts_the_least_recently_used(self, sb01_trace):
        from repro.core.service import MEMORY_CACHE_CAPACITY

        service = DiagnosisService(tool=_RunNameTool())
        keys = [_key(i) for i in range(MEMORY_CACHE_CAPACITY)]
        for key in keys:
            service.execute(key, sb01_trace.log)
        assert service.lookup(keys[0]) is not None  # key 0 is now the most recent
        extra = _key(MEMORY_CACHE_CAPACITY)
        service.execute(extra, sb01_trace.log)

        stats = service.stats()
        assert len(stats.cached_reports) == MEMORY_CACHE_CAPACITY
        assert service.lookup(keys[1]) is None  # the least recently used went
        assert service.lookup(keys[0]) is not None
        assert service.lookup(extra) is not None
        assert service.stats().cache_misses == MEMORY_CACHE_CAPACITY + 1

    def test_evicted_key_is_served_as_a_store_hit(self, tmp_path, sb01_trace, monkeypatch):
        monkeypatch.setattr("repro.core.service.MEMORY_CACHE_CAPACITY", 2)
        service = DiagnosisService(tool=_RunNameTool(), store=str(tmp_path))
        keys = [_key(i) for i in range(3)]
        for key in keys:
            service.execute(key, sb01_trace.log)
        assert len(service.stats().cached_reports) == 2
        report = service.lookup(keys[0], trace_id="back")
        assert report is not None and report.trace_id == "back"
        assert report.text == f"{keys[0][0][:12]}/{len(sb01_trace.log.records)}"
        stats = service.stats()
        assert (stats.store_hits, stats.cache_hits, stats.cache_misses) == (1, 0, 3)
        # Promoted back into memory, evicting the least recently used (key 1).
        assert len(stats.cached_reports) == 2
        assert service.cached(keys[1]) is None
        assert service.cached(keys[0]) is not None and service.cached(keys[2]) is not None
        assert service.stats().cache_hits == 2

    def test_evicted_key_without_a_store_runs_again(self, bench, monkeypatch):
        monkeypatch.setattr("repro.core.service.MEMORY_CACHE_CAPACITY", 1)
        service = DiagnosisService(tool=_RunNameTool())
        logs = [bench.get(t).log for t in ("sb01-small-writes", "sb03-misaligned-writes")]
        first = service.diagnose(logs[0], trace_id="a")
        service.diagnose(logs[1], trace_id="b")
        again = service.diagnose(logs[0], trace_id="a")
        assert again == first
        assert service.stats().cache_misses == 3 and service.stats().cache_hits == 0


class TestOneContentKeyPerRequest:
    """Each request digests its trace once, from submit to the store write."""

    def test_cold_submit_runs_and_writes_the_store(self, tmp_path, sb01_trace):
        service = _KeyCountingService(store=str(tmp_path))
        server, _ = _submit_and_wait(service, sb01_trace.log)
        assert server.counters.executed == 1 and server.counters.store_writes == 1
        assert len(service.keys) == 1
        # The worker wrote the store under the key computed at submit.
        assert service.store.get(service.keys[0]) is not None

    def test_store_hit_submit(self, tmp_path, sb01_trace):
        _KeyCountingService(store=str(tmp_path)).diagnose(sb01_trace.log)
        service = _KeyCountingService(store=str(tmp_path))
        _, (handle,) = _submit_and_wait(service, sb01_trace.log)
        assert handle.served_from_cache and service.stats().store_hits == 1
        assert len(service.keys) == 1

    def test_memory_hit_submit(self, sb01_trace):
        service = _KeyCountingService()
        service.diagnose(sb01_trace.log)
        service.keys.clear()
        _, (handle,) = _submit_and_wait(service, sb01_trace.log)
        assert handle.served_from_cache and service.stats().cache_hits == 1
        assert len(service.keys) == 1

    def test_coalesced_duplicate(self, sb01_trace):
        service = _KeyCountingService()
        server, (_, duplicate) = _submit_and_wait(service, sb01_trace.log, n=2)
        assert duplicate.coalesced and server.counters.executed == 1
        assert len(service.keys) == 2  # one per request, none in the worker

    def test_direct_diagnose(self, tmp_path, sb01_trace):
        service = _KeyCountingService(store=str(tmp_path))
        service.diagnose(sb01_trace.log)
        assert service.stats().cache_misses == 1 and len(service.store) == 1
        assert len(service.keys) == 1


# -- a tool instance is keyed by its own settings ---------------------------


class TestToolSettingsKeyResults:
    """Two instances of one tool with different settings never share an entry."""

    @pytest.mark.parametrize(
        "make_tool",
        [IONTool, lambda model: SeriesDiagnosticTool(inner="ion", model=model)],
        ids=["ion", "series"],
    )
    def test_models_on_one_store_keep_separate_entries(self, tmp_path, sb01_trace, make_tool):
        for model in ("llama-3.1-70b", "gpt-4o"):
            service = DiagnosisService(tool=make_tool(model=model), store=str(tmp_path))
            report = service.diagnose(sb01_trace.log, trace_id=sb01_trace.trace_id)
            assert report.model == model
            assert service.stats().store_hits == 0 and service.stats().usage.calls == 1
        assert len(ResultStore(tmp_path)) == 2

    def test_drishti_settings_on_one_store_keep_separate_entries(self, tmp_path, sb01_trace):
        for include_ok in (False, True):
            tool = DrishtiTool(include_ok=include_ok)
            service = DiagnosisService(tool=tool, store=str(tmp_path))
            report = service.diagnose(sb01_trace.log, trace_id=sb01_trace.trace_id)
            assert service.stats().store_hits == 0
            assert report.text == tool.render_insights(sb01_trace.log)
        assert "✓ OK" in report.text
        assert len(ResultStore(tmp_path)) == 2

    def test_every_registered_tool_keys_sb01_alike_in_a_fresh_process(self, sb01_trace):
        script = textwrap.dedent(
            """
            import json
            from repro.core.registry import available_tools
            from repro.core.service import DiagnosisService
            from repro.tracebench.build import build_trace
            from repro.tracebench.spec import TRACE_SPECS

            spec = next(s for s in TRACE_SPECS if s.trace_id == "sb01-small-writes")
            log = build_trace(spec, seed=0).log
            keys = {n: DiagnosisService(tool=n).cache_key(log) for n in available_tools()}
            print(json.dumps(keys))
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        fresh = json.loads(proc.stdout)
        assert {"drishti", "ioagent", "ion", "series"} <= set(fresh)
        here = {n: list(DiagnosisService(tool=n).cache_key(sb01_trace.log)) for n in fresh}
        assert here == fresh


# -- batches are served; the server's stage totals -------------------------


class _ManyStageTool:
    """A cheap pipeline tool: one LLM call and one retry in each of ``STAGES`` stages."""

    name = "many-stage"
    config = None
    STAGES = 50

    def __init__(self) -> None:
        self.client = LLMClient(seed=0)

    def run(self, log, trace_id="trace", observers=()):
        ctx = PipelineContext(
            log=log, trace_id=trace_id, config=IOAgentConfig(), client=self.client
        )
        for i in range(self.STAGES):
            ctx.stage_metrics[f"s{i}"] = StageMetrics(seconds=0.001, calls=1, faults={"retry": 1})
        return ctx

    def diagnose(self, log, trace_id="trace"):
        return self.run(log, trace_id).build_report()

    def usage(self):
        return Usage()


class _IdentityKeyService(DiagnosisService):
    """Keys a request by its log object, so every distinct object is one run."""

    def cache_key(self, log):
        return (str(id(log)), self.tool.name, "")


class TestBatchesAreServed:
    """diagnose_batch scores what serve_all returns; stage totals are the server's."""

    def test_duplicate_content_in_one_batch_costs_one_run(self, sb01_trace):
        twin = dataclasses.replace(sb01_trace, trace_id="sb01-twin")
        service = _service()
        result = diagnose_batch(service, [sb01_trace, twin], workers=2)
        assert result.llm_calls == 287  # one sb01 run, not two
        assert service.stats().cache_misses == 1
        first, second = result.reports[sb01_trace.trace_id], result.reports["sb01-twin"]
        assert first.text == second.text
        assert (first.trace_id, second.trace_id) == (sb01_trace.trace_id, "sb01-twin")

    def test_batch_report_is_the_served_report(self, sb01_trace):
        batch = diagnose_batch(_service(), [sb01_trace])
        server = DiagnosisServer(_service(), autostart=False)
        (served,) = server.serve_all([(sb01_trace.log, "served")])
        server.close()
        assert batch.reports[sb01_trace.trace_id].text == served.text
        # The batch's stage telemetry is the server's.
        assert {s: m.calls for s, m in batch.stage_metrics.items()} == {
            s: m.calls for s, m in server.stage_metrics().items()
        }

    def test_server_stage_metrics_total_every_run_and_copy(self, bench):
        traces = [bench.get("sb01-small-writes"), bench.get("sb06-shared-file")]
        service = _service()
        server = DiagnosisServer(service, autostart=False)
        server.serve_all([(t.log, t.trace_id) for t in traces])
        server.close()
        totals = server.stage_metrics()
        assert sum(m.calls for m in totals.values()) == service.stats().usage.calls
        totals["describe"].calls += 1000
        assert server.stage_metrics()["describe"].calls == totals["describe"].calls - 1000

    def test_stage_totals_lose_no_update_under_many_workers(self):
        service = _IdentityKeyService(tool=_ManyStageTool(), config=IOAgentConfig(seed=0))
        n_runs, workers = 400, max(8, 2 * (os.cpu_count() or 1))
        server = DiagnosisServer(service, workers=workers, queue_depth=n_runs, autostart=False)
        logs = [object() for _ in range(n_runs)]
        handles = [server.submit(log, trace_id=f"r{i}") for i, log in enumerate(logs)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            server.start()
            for handle in handles:
                handle.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            server.close()
        assert server.counters.executed == n_runs
        totals = server.stage_metrics()
        assert len(totals) == _ManyStageTool.STAGES
        assert {(m.calls, m.retries, m.faults["retry"]) for m in totals.values()} == {
            (n_runs, n_runs, n_runs)
        }


# -- unified registry lookup errors --------------------------------------


class TestRegistryLookupErrors:
    def test_all_five_variants_share_the_base(self):
        from repro.analysis.registry import CheckNotFoundError

        for exc_type in (
            ToolNotFoundError,
            ScenarioNotFoundError,
            SeriesScenarioNotFoundError,
            FaultPlanNotFoundError,
            CheckNotFoundError,
        ):
            assert issubclass(exc_type, RegistryLookupError)
            assert issubclass(exc_type, KeyError)

    def test_message_names_the_unknown_and_the_options(self):
        exc = ToolNotFoundError("nope", available=("drishti", "ioagent"))
        assert "unknown tool 'nope'" in str(exc)
        assert "drishti, ioagent" in str(exc)

    def test_render_cli_is_the_one_formatter(self):
        exc = FaultPlanNotFoundError("nope", available=("llm-flaky",))
        rendered = exc.render_cli()
        assert rendered.startswith("error: unknown fault plan: nope")
        assert "available fault plans: llm-flaky" in rendered

    def test_scenario_hint_for_uppercase_difficulty(self):
        exc = ScenarioNotFoundError("HARD", available=())
        rendered = exc.render_cli()
        assert "did you mean 'hard'" in rendered
        assert "difficulty tiers: easy, medium, hard, control" in rendered

    def test_lookup_raises_are_catchable_as_before(self):
        from repro.core.registry import get_tool
        from repro.resilience.faults import get_fault_plan
        from repro.workloads.scenarios import get_series_scenario, select_scenarios

        with pytest.raises(ToolNotFoundError):
            get_tool("no-such-tool")
        with pytest.raises(ScenarioNotFoundError):
            select_scenarios(["no-such-selector"])
        with pytest.raises(SeriesScenarioNotFoundError):
            get_series_scenario("no-such-series")
        with pytest.raises(FaultPlanNotFoundError):
            get_fault_plan("no-such-plan")


# -- the serve CLI -------------------------------------------------------


class TestServeCli:
    def _run(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def test_serve_scenarios_coalesces_and_prints_metrics(self, capsys, tmp_path):
        out = tmp_path / "snap.json"
        code = self._run(
            "serve", "--scenarios", "sb01-small-writes", "--repeat", "3", "--out", str(out)
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "submitted=3 executed=1 coalesced=2" in captured.out
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["counters"]["executed"] == 1

    def test_serve_cli_snapshots_are_byte_identical(self, tmp_path, capsys):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert self._run("serve", "--scenarios", "sb01-small-writes", "--out", str(out)) == 0
            outs.append(out.read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1]

    def test_serve_unknown_selector_exits_2(self, capsys):
        assert self._run("serve", "--scenarios", "nope") == 2
        err = capsys.readouterr().err
        assert "error: unknown scenario selector: nope" in err

    def test_serve_unknown_tool_exits_2(self, capsys):
        assert self._run("serve", "--scenarios", "sb01-small-writes", "--tool", "nope") == 2
        err = capsys.readouterr().err
        assert "error: unknown tool: nope" in err
        assert "available tools:" in err

    def test_serve_without_inputs_exits_2(self, capsys):
        assert self._run("serve") == 2
        assert "pass trace files and/or --scenarios" in capsys.readouterr().err

    def test_serve_queue_overflow_exits_2_with_hint(self, capsys):
        code = self._run(
            "serve",
            "--scenarios",
            "sb01-small-writes,sb03-misaligned-writes",
            "--queue-depth",
            "1",
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "work queue is full" in err and "--queue-depth" in err

    def test_serve_store_replays_across_invocations(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert self._run("serve", "--scenarios", "sb01-small-writes", "--store", str(store)) == 0
        first = capsys.readouterr().out
        assert "executed=1" in first and "store_writes=1" in first
        assert self._run("serve", "--scenarios", "sb01-small-writes", "--store", str(store)) == 0
        second = capsys.readouterr().out
        assert "executed=0" in second and "cache=1" in second
