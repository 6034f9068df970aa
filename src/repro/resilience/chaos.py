"""The chaos harness: run the diagnosis service under a fault plan.

One :func:`run_chaos_plan` call is one weather experiment: build the
scenario traces, damage them per the plan's trace faults (through the
*lenient* parser, as a real ingest path would), build an
:class:`~repro.core.agent.IOAgent` around a
:class:`~repro.resilience.client.FaultyLLMClient` (plus circuit breaker
and stage-crash wrapping), and diagnose through a real
:class:`~repro.core.service.DiagnosisService` — the same facade a
deployment uses, so cache behavior is exercised too.

Scenarios are diagnosed one after another on the calling thread and every
call is seeded, so the resulting :class:`ChaosReport` is byte-identical
across processes for the same ``(plans, scenarios, seed)`` —
:func:`chaos_report_digest` is the fingerprint the chaos gate compares
across a subprocess re-run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

from repro.resilience.client import FaultyLLMClient
from repro.resilience.errors import InjectedStageError
from repro.resilience.faults import FaultPlan, corrupt_trace_text, get_fault_plan
from repro.resilience.retry import CircuitBreaker, RetryPolicy

__all__ = [
    "DEFAULT_CHAOS_SCENARIOS",
    "ChaosRun",
    "ChaosReport",
    "run_chaos_plan",
    "run_chaos",
    "chaos_report_digest",
]

# Counter-grounded pathology scenarios: their labels survive the loss of
# the DXT temporal channel, so single-channel-loss floors are meaningful.
DEFAULT_CHAOS_SCENARIOS = (
    "path01-random-small-reads",
    "path05-bursty-checkpoint",
    "path09-fsync-per-write",
)


@dataclass(frozen=True)
class ChaosRun:
    """Outcome of diagnosing one scenario under one fault plan."""

    plan: str
    scenario: str
    trace_id: str
    completed: bool  # the service returned a report (crash-free)
    error: str  # repr of the escaping exception when not completed
    degraded: tuple[str, ...]  # the report's lost evidence channels
    f1: float  # label accuracy of the (possibly degraded) report
    damage_applied: tuple[str, ...]  # trace fault kinds that actually fired
    parse_skipped: int  # lines the lenient parser dropped
    trace_digest: str  # digest of the log actually diagnosed
    clean_trace_digest: str  # digest of the undamaged log
    retries: int
    circuit_trips: int
    faults: tuple[tuple[str, int], ...]  # (fault kind, count), sorted
    cached_degraded: int  # degraded reports found in the service cache (must be 0)


@dataclass(frozen=True)
class ChaosReport:
    """The full sweep: every (plan, scenario) run plus its fingerprint."""

    seed: int
    plans: tuple[str, ...]
    scenarios: tuple[str, ...]
    runs: tuple[ChaosRun, ...]

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "plans": list(self.plans),
            "scenarios": list(self.scenarios),
            "runs": [asdict(run) for run in self.runs],
        }

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, fixed separators) — digest input."""
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    @property
    def digest(self) -> str:
        return chaos_report_digest(self)

    @property
    def all_completed(self) -> bool:
        return all(run.completed for run in self.runs)


def chaos_report_digest(report: ChaosReport) -> str:
    """SHA-256 of the canonical report JSON (no wall-clock inside)."""
    return hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()


class _CrashWrappedStage:
    """A pipeline stage that raises per the plan's ``stage-crash`` specs.

    Transparent otherwise: it forwards ``name`` and the failure contract,
    so the pipeline's degradation policy applies to the inner stage's
    declaration, not the wrapper's.
    """

    def __init__(self, inner, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan
        self.name: str = inner.name
        self.failure_mode: str = getattr(inner, "failure_mode", "abort")
        self.channel: str = getattr(inner, "channel", "")

    def run(self, ctx) -> None:
        for spec in self.plan.specs_for("stage"):
            if spec.scope != self.name:
                continue
            if spec.fires_for(self.plan.seed, f"{ctx.trace_id}/{self.name}"):
                raise InjectedStageError(
                    f"injected crash of stage {self.name!r} for trace "
                    f"{ctx.trace_id!r} ({self.plan.name})"
                )
        self.inner.run(ctx)


def _build_faulty_service(plan: FaultPlan, seed: int):
    """An IOAgent + DiagnosisService wired for chaos: serial, seeded, breakered."""
    from repro.core.agent import IOAgent, IOAgentConfig
    from repro.core.pipeline import DiagnosisPipeline, build_default_pipeline
    from repro.core.service import DiagnosisService

    config = IOAgentConfig(seed=seed)
    client = FaultyLLMClient(
        plan,
        seed=seed,
        retry_policy=RetryPolicy(),
        breaker=CircuitBreaker(),
    )
    pipeline = build_default_pipeline(config)
    if plan.specs_for("stage"):
        pipeline = DiagnosisPipeline(
            [_CrashWrappedStage(stage, plan) for stage in pipeline.stages]
        )
    agent = IOAgent(config, client=client, pipeline=pipeline)
    service = DiagnosisService(tool=agent, config=config)
    return service, client


def run_chaos_plan(
    plan: str | FaultPlan,
    scenarios: tuple[str, ...] = DEFAULT_CHAOS_SCENARIOS,
    seed: int = 0,
) -> tuple[ChaosRun, ...]:
    """Diagnose every scenario under one fault plan; never raises per-run."""
    from repro.core.service import trace_digest
    from repro.darshan.parser import parse_darshan_text_with_report
    from repro.darshan.writer import render_darshan_text
    from repro.evaluation.accuracy import match_stats
    from repro.tracebench.build import build_scenario

    if isinstance(plan, str):
        plan = get_fault_plan(plan)

    runs: list[ChaosRun] = []
    for scenario in scenarios:
        trace = build_scenario(scenario, seed=seed)
        clean_digest = trace_digest(trace.log)
        log = trace.log
        damage_applied: tuple[str, ...] = ()
        parse_skipped = 0
        if plan.specs_for("trace"):
            text = render_darshan_text(trace.log, include_dxt=True)
            damage = corrupt_trace_text(text, plan, trace.trace_id)
            if damage.damaged:
                log, parse_report = parse_darshan_text_with_report(
                    damage.text, lenient=True
                )
                damage_applied = damage.applied
                parse_skipped = parse_report.skipped_count

        service, client = _build_faulty_service(plan, seed)
        completed = True
        error = ""
        degraded: tuple[str, ...] = ()
        f1 = 0.0
        try:
            report = service.diagnose(log, trace_id=trace.trace_id)
            degraded = report.degraded
            f1 = match_stats(report.text, trace.labels).f1
        except Exception as exc:  # the gate asserts this never happens
            completed = False
            error = repr(exc)
        metrics = client.resilience_metrics()
        fault_counts = {k: v for k, v in metrics.as_dict().items() if v}
        runs.append(
            ChaosRun(
                plan=plan.name,
                scenario=scenario,
                trace_id=trace.trace_id,
                completed=completed,
                error=error,
                degraded=degraded,
                f1=round(f1, 6),
                damage_applied=damage_applied,
                parse_skipped=parse_skipped,
                trace_digest=trace_digest(log),
                clean_trace_digest=clean_digest,
                retries=metrics.retries,
                circuit_trips=metrics.circuit_trips,
                faults=tuple(sorted(fault_counts.items())),
                cached_degraded=sum(1 for r in service.stats().cached_reports if r.degraded),
            )
        )
    return tuple(runs)


def run_chaos(
    plans: tuple[str, ...] | None = None,
    scenarios: tuple[str, ...] = DEFAULT_CHAOS_SCENARIOS,
    seed: int = 0,
) -> ChaosReport:
    """Sweep fault plans over scenarios; default sweep = every pinned plan."""
    from repro.resilience.faults import available_fault_plans

    plan_names = plans if plans is not None else available_fault_plans()
    runs: list[ChaosRun] = []
    for name in plan_names:
        runs.extend(run_chaos_plan(name, scenarios=scenarios, seed=seed))
    return ChaosReport(
        seed=seed, plans=tuple(plan_names), scenarios=tuple(scenarios), runs=tuple(runs)
    )
