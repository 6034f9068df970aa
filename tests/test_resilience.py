"""Tests for the resilience layer: recovery policy, fault plans, degradation."""

from __future__ import annotations

import pytest

from repro.core.agent import IOAgent, IOAgentConfig
from repro.core.batch import diagnose_batch
from repro.core.service import DiagnosisService
from repro.llm.client import LLMClient, call_scope
from repro.resilience import (
    CircuitBreaker,
    CircuitOpenError,
    FaultPlan,
    FaultPlanNotFoundError,
    FaultSpec,
    FaultyLLMClient,
    LLMTimeoutError,
    PermanentLLMError,
    RetryPolicy,
    TransientLLMError,
    available_fault_plans,
    corrupt_trace_text,
    get_fault_plan,
    register_fault_plan,
    unregister_fault_plan,
)
from repro.resilience.faults import garble_text
from repro.util.rng import rng_for


def always(kind: str, **kwargs) -> FaultSpec:
    return FaultSpec(kind=kind, rate=1.0, **kwargs)


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy()
        for attempt in (1, 2, 3):
            raw = min(policy.base_delay * policy.multiplier ** (attempt - 1), policy.max_delay)
            a = policy.backoff(attempt, seed=7, call_id="c1")
            b = policy.backoff(attempt, seed=7, call_id="c1")
            assert a == b  # same (seed, call_id, attempt) -> same jitter
            assert raw * (1.0 - policy.jitter) <= a <= raw
        assert policy.backoff(1, seed=7, call_id="c1") != policy.backoff(1, seed=7, call_id="c2")

    def test_backoff_caps_at_max_delay(self):
        policy = RetryPolicy(base_delay=0.01, multiplier=10.0, max_delay=0.02, jitter=0.0)
        assert policy.backoff(5) == 0.02

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy().backoff(0)


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown_calls=2)
        assert breaker.record_failure() is False
        assert breaker.record_failure() is False
        assert breaker.record_failure() is True  # third consecutive failure trips
        assert breaker.state == "open"
        assert breaker.trips == 1
        assert not breaker.allow()
        assert not breaker.allow()  # cooldown_calls fast-fails
        assert breaker.state == "half-open"
        assert breaker.allow()  # the probe goes through
        breaker.record_success()
        assert breaker.state == "closed"

    def test_failed_probe_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_calls=1)
        assert breaker.record_failure() is True
        assert not breaker.allow()
        assert breaker.state == "half-open"
        assert breaker.record_failure() is True  # failed probe -> straight back open
        assert breaker.trips == 2

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        assert breaker.record_failure() is False  # the streak restarted


class TestFaultPlans:
    def test_spec_fires_deterministically_and_respects_scope(self):
        spec = FaultSpec(kind="llm-transient", rate=0.5, scope="/describe")
        assert not spec.fires_for(0, "t1/merge")  # out of scope: never
        fired = [spec.fires_for(0, f"t1/describe/{i}") for i in range(64)]
        assert fired == [spec.fires_for(0, f"t1/describe/{i}") for i in range(64)]
        assert any(fired) and not all(fired)  # rate 0.5 is neither 0 nor 1
        assert always("llm-transient").fires_for(0, "anything")
        assert not FaultSpec(kind="llm-transient", rate=0.0).fires_for(0, "anything")

    def test_registry_mirrors_scenarios(self):
        plan = FaultPlan(name="test-weather", specs=(always("llm-transient", param=1),))
        register_fault_plan(plan)
        try:
            assert "test-weather" in available_fault_plans()
            assert get_fault_plan("test-weather") is plan
            with pytest.raises(ValueError, match="already registered"):
                register_fault_plan(plan)
        finally:
            unregister_fault_plan("test-weather")
        with pytest.raises(FaultPlanNotFoundError, match="test-weather"):
            get_fault_plan("test-weather")

    def test_builtin_plans_reference_registered_kinds(self):
        from repro.resilience import available_fault_kinds, iter_fault_plans

        kinds = set(available_fault_kinds())
        for plan in iter_fault_plans():
            assert set(plan.kinds) <= kinds

    def test_garble_and_trace_damage_are_deterministic(self, sb01_trace):
        from repro.darshan.writer import render_darshan_text

        text = "a perfectly healthy completion " * 8
        assert garble_text(text, rng_for(0, "g")) == garble_text(text, rng_for(0, "g"))
        assert "�" in garble_text(text, rng_for(0, "g"))

        rendered = render_darshan_text(sb01_trace.log, include_dxt=True)
        plan = get_fault_plan("truncated-dxt")
        damage = corrupt_trace_text(rendered, plan, sb01_trace.trace_id)
        assert damage.damaged and "trace-truncate-dxt" in damage.applied
        assert damage.text == corrupt_trace_text(rendered, plan, sb01_trace.trace_id).text
        assert len(damage.text) < len(rendered)


class TestClientRecovery:
    def test_transient_faults_recover_transparently(self):
        plan = FaultPlan(name="t", specs=(always("llm-transient", param=2),))
        prompt = "TASK: plain\nhello"
        clean = LLMClient(seed=0).complete(prompt, model="gpt-4o", call_id="c1")
        client = FaultyLLMClient(plan, seed=0)
        out = client.complete(prompt, model="gpt-4o", call_id="c1")
        assert out.text == clean.text  # recovery is invisible to the caller
        metrics = client.resilience_metrics()
        assert metrics.retries >= 1
        assert metrics.transient_errors >= 1
        assert metrics.permanent_errors == 0

    def test_exhausted_attempts_surface_the_last_error(self):
        plan = FaultPlan(name="t", specs=(always("llm-transient", param=1),))
        client = FaultyLLMClient(plan, retry_policy=RetryPolicy(max_attempts=1))
        with pytest.raises(TransientLLMError):
            client.complete("TASK: plain\nhello", model="gpt-4o", call_id="c1")
        assert client.resilience_metrics().retries == 0

    def test_timeouts_are_counted_separately(self):
        plan = FaultPlan(name="t", specs=(always("llm-timeout", param=1),))
        client = FaultyLLMClient(plan, retry_policy=RetryPolicy(max_attempts=1))
        with pytest.raises(LLMTimeoutError):
            client.complete("TASK: plain\nhello", model="gpt-4o", call_id="c1")
        metrics = client.resilience_metrics()
        assert metrics.timeouts == 1 and metrics.transient_errors == 0

    def test_zero_budget_forbids_retries(self):
        plan = FaultPlan(name="t", specs=(always("llm-transient", param=1),))
        client = FaultyLLMClient(plan, retry_policy=RetryPolicy(budget=0.0))
        with pytest.raises(TransientLLMError):
            client.complete("TASK: plain\nhello", model="gpt-4o", call_id="c1")
        assert client.resilience_metrics().retries == 0

    def test_permanent_faults_trip_the_breaker_then_fast_fail(self):
        plan = FaultPlan(name="t", specs=(always("llm-permanent"),))
        client = FaultyLLMClient(plan, breaker=CircuitBreaker(failure_threshold=2))
        for call_id in ("c1", "c2"):
            with pytest.raises(PermanentLLMError):
                client.complete("TASK: plain\nhello", model="gpt-4o", call_id=call_id)
        with pytest.raises(CircuitOpenError):
            client.complete("TASK: plain\nhello", model="gpt-4o", call_id="c3")
        metrics = client.resilience_metrics()
        assert metrics.permanent_errors == 2
        assert metrics.circuit_trips == 1
        assert metrics.circuit_fast_fails == 1

    def test_garbled_completions_are_counted(self):
        plan = FaultPlan(name="t", specs=(always("llm-garble"),))
        client = FaultyLLMClient(plan)
        out = client.complete("TASK: plain\nhello " * 20, model="gpt-4o", call_id="c1")
        assert "�" in out.text
        assert client.resilience_metrics().garbled == 1


class TestListenerIsolation:
    def test_crashing_usage_listener_does_not_abort_completion(self):
        client = LLMClient(seed=0)
        seen: list[str] = []
        faults: list[str] = []

        def bad_listener(model: str, usage, call_id: str) -> None:
            seen.append(call_id)
            raise RuntimeError("observer bug")

        with call_scope(bad_listener, lambda event: faults.append(event.kind)):
            out = client.complete("TASK: plain\nhello", model="gpt-4o", call_id="c1")
        assert out.text  # the completion survived the observer crash
        assert seen == ["c1"]  # the listener ran up to its crash
        assert client.resilience_metrics().listener_errors == 1
        assert faults == ["listener-error"]  # the crash is published to the scope

    def test_crashing_fault_listener_does_not_break_recovery(self):
        plan = FaultPlan(name="t", specs=(always("llm-transient", param=1),))
        client = FaultyLLMClient(plan)

        def bad_listener(event) -> None:
            raise RuntimeError("observer bug")

        with call_scope(on_fault=bad_listener):
            out = client.complete("TASK: plain\nhello", model="gpt-4o", call_id="c1")
        assert out.text
        assert client.resilience_metrics().transient_errors >= 1


def _service(plan_name: str, **config_kwargs) -> DiagnosisService:
    config = IOAgentConfig(**config_kwargs)
    client = FaultyLLMClient(
        get_fault_plan(plan_name), retry_policy=RetryPolicy(), breaker=CircuitBreaker()
    )
    agent = IOAgent(config, client=client)
    return DiagnosisService(tool=agent, config=config)


class TestDegradation:
    def test_merge_outage_degrades_and_names_the_channel(self, sb01_trace):
        service = _service("merge-outage")
        report = service.diagnose(sb01_trace.log, trace_id=sb01_trace.trace_id)
        assert report.degraded == ("merge",)
        assert "DEGRADED" in report.render()
        assert "merge" in report.render()

    def test_degraded_reports_are_never_cached(self, sb01_trace):
        service = _service("merge-outage")
        service.diagnose(sb01_trace.log, trace_id=sb01_trace.trace_id)
        assert service.stats().cached_reports == ()
        service.diagnose(sb01_trace.log, trace_id=sb01_trace.trace_id)
        assert service.cache_hits == 0 and service.cache_misses == 2

    def test_cache_key_follows_the_tools_config(self, sb01_trace):
        # An ablated tool (use_dxt=False) behind a service configured with
        # the full config must not share cache entries with the full tool.
        full = IOAgentConfig()
        ablated_service = DiagnosisService(
            tool=IOAgent(IOAgentConfig(use_dxt=False)), config=full
        )
        full_service = DiagnosisService(tool=IOAgent(full), config=full)
        assert ablated_service.cache_key(sb01_trace.log) != full_service.cache_key(
            sb01_trace.log
        )

    def test_clean_runs_stay_undegraded_and_cache(self, sb01_trace):
        config = IOAgentConfig()
        service = DiagnosisService(tool=IOAgent(config), config=config)
        report = service.diagnose(sb01_trace.log, trace_id=sb01_trace.trace_id)
        assert report.degraded == ()
        assert "DEGRADED" not in report.render()
        assert len(service.stats().cached_reports) == 1

    def test_stage_metrics_attribute_retries(self, sb01_trace):
        service = _service("flaky-llm")
        result = diagnose_batch(service, [sb01_trace])
        assert sum(m.retries for m in result.stage_metrics.values()) > 0
        assert result.degraded_traces == {}  # transparent recovery

    def test_batch_surfaces_degraded_traces(self, sb01_trace):
        service = _service("merge-outage")
        result = diagnose_batch(service, [sb01_trace])
        assert result.degraded_traces == {sb01_trace.trace_id: ("merge",)}


class TestChaosDeterminism:
    def test_single_plan_sweep_reproduces(self):
        from repro.resilience.chaos import ChaosReport, run_chaos_plan

        runs = run_chaos_plan("temporal-crash", scenarios=("path01-random-small-reads",))
        again = run_chaos_plan("temporal-crash", scenarios=("path01-random-small-reads",))
        assert runs == again
        (run,) = runs
        assert run.completed and run.degraded == ("dxt-temporal",)
        report = ChaosReport(
            seed=0,
            plans=("temporal-crash",),
            scenarios=("path01-random-small-reads",),
            runs=runs,
        )
        assert report.digest == ChaosReport(
            seed=0,
            plans=("temporal-crash",),
            scenarios=("path01-random-small-reads",),
            runs=again,
        ).digest
