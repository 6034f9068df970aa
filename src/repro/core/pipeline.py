"""Composable diagnosis pipeline (the paper's Fig. 2, as an API).

The IOAgent flow — ``preprocess → summarize → describe → integrate →
diagnose → merge`` — used to live inside one method.  This module breaks
it into pluggable :class:`Stage` objects composed by a
:class:`DiagnosisPipeline`, so ablations swap stages instead of threading
booleans, new backbones plug in without touching orchestration, and every
stage's latency and token spend is observable.

Key pieces:

* :class:`PipelineContext` — the typed carrier threaded through stages:
  the Darshan log, summary fragments, per-fragment intermediate products,
  and the run's per-stage telemetry (``stage_metrics``);
* :class:`Stage` — the protocol every stage implements (``name`` +
  ``run(ctx)``); the six default stages live here too;
* :class:`PipelineObserver` — event hooks (``on_stage_start``,
  ``on_stage_end``, ``on_llm_call``) for telemetry and progress UIs;
* :class:`PipelineTool` — the contract of a tool whose diagnosis is one
  observable pipeline run (``run(log, trace_id, observers)``);
* :class:`DiagnosisPipeline` — runs stages in order, times them, and
  attributes every LLM call made in the run's
  :func:`~repro.llm.client.call_scope` to the stage running it;
* :func:`build_default_pipeline` — the paper-default stage list derived
  from an :class:`~repro.core.agent.IOAgentConfig`.

Determinism and threads: every LLM call is keyed by an explicit
``call_id``, so a report does not depend on the order or the thread its
calls run in.  The paper runs self-reflection and each tree-merge level in
parallel (§IV) to hide API round trips.  Here the SimLLM backend is
in-process, CPU-bound Python, so threads would overlap nothing and only
contend for the GIL: each stage works through its fragments in order on
the thread that runs the pipeline, and the serving layer's worker pool is
the one place that runs diagnoses concurrently.

Failure semantics (the resilience contract):

* every stage declares ``failure_mode`` — ``"abort"`` (its output is
  load-bearing; an exception still fails the run) or ``"degrade"`` (the
  pipeline records a :class:`StageFailure`, the report loses the stage's
  ``channel``, and diagnosis continues on the remaining evidence);
* the per-fragment stages (describe / integrate / diagnose) isolate
  *recovery-layer* failures (:class:`~repro.resilience.errors.
  ResilienceError` only — a genuine bug still propagates): the affected
  fragment is dropped and recorded, the rest of the trace is diagnosed;
* the merge stage falls back to plain concatenation when merging calls
  fail, so a report is always produced once fragment diagnoses exist;
* recovery-layer incidents (retries, circuit trips, injected faults) are
  attributed to the running stage through the run's call scope and
  surfaced through ``StageMetrics.faults`` and the ``on_fault_event``
  observer hook.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from threading import Lock
from typing import TYPE_CHECKING, Mapping, Protocol, Sequence, runtime_checkable

from repro.core.describe import context_sentences, describe_fragment
from repro.core.diagnose import diagnose_fragment
from repro.core.integrate import IntegrationResult, integrate_fragment
from repro.core.merge import one_step_merge, tree_merge
from repro.core.preprocess import ModuleTable, ModuleTables
from repro.core.report import DiagnosisReport
from repro.core.summaries import (
    SummaryFragment,
    app_context_facts,
    extract_fragments,
    extractor_source,
)
from repro.darshan.log import DarshanLog
from repro.llm.client import FaultEvent, LLMClient, Usage, call_scope
from repro.llm.facts import Fact
from repro.rag.retriever import Retriever
from repro.resilience.errors import ResilienceError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.agent import IOAgentConfig

__all__ = [
    "PipelineContext",
    "StageMetrics",
    "StageFailure",
    "Stage",
    "PipelineObserver",
    "PipelineTool",
    "DiagnosisPipeline",
    "PreprocessStage",
    "SummarizeStage",
    "TemporalStage",
    "DescribeStage",
    "IntegrateStage",
    "DiagnoseStage",
    "MergeStage",
    "DEFAULT_STAGE_ORDER",
    "DEFAULT_STAGE_CLASSES",
    "build_default_pipeline",
]

DEFAULT_STAGE_ORDER = (
    "preprocess",
    "summarize",
    "temporal",
    "describe",
    "integrate",
    "diagnose",
    "merge",
)


@dataclass(frozen=True)
class StageFailure:
    """One absorbed failure: what broke, and which evidence it cost.

    ``channel`` names the lost evidence — a whole channel for a degraded
    stage (``"dxt-temporal"``, ``"knowledge"``, ``"merge"``) or
    ``"fragment:<id>"`` for a dropped fragment — and feeds the report's
    ``degraded`` annotation.
    """

    stage: str
    channel: str
    error: str
    fragment_id: str = ""


@dataclass
class StageMetrics:
    """Latency, LLM spend and recovery incidents of one stage."""

    seconds: float = 0.0
    calls: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0
    cost_usd: float = 0.0
    # fault-event kind (e.g. "retry", "transient", "garbled") -> count.
    faults: dict[str, int] = field(default_factory=dict)

    @property
    def retries(self) -> int:
        return self.faults.get("retry", 0)

    @property
    def circuit_trips(self) -> int:
        return self.faults.get("circuit-trip", 0)

    def add_usage(self, usage: Usage) -> None:
        self.calls += usage.calls
        self.prompt_tokens += usage.prompt_tokens
        self.completion_tokens += usage.completion_tokens
        self.cost_usd += usage.cost_usd

    def merge(self, other: "StageMetrics") -> None:
        """Fold another run's totals for the same stage into this one."""
        self.seconds += other.seconds
        self.calls += other.calls
        self.prompt_tokens += other.prompt_tokens
        self.completion_tokens += other.completion_tokens
        self.cost_usd += other.cost_usd
        for kind, count in other.faults.items():
            self.faults[kind] = self.faults.get(kind, 0) + count


@dataclass
class PipelineContext:
    """Everything a stage may read or write while diagnosing one trace.

    Stages communicate exclusively through this object: earlier stages
    populate fields that later stages consume (``fragments`` feeds
    ``descriptions`` feeds ``integrations`` feeds ``diagnoses`` feeds
    ``merged_text``).  The pipeline itself fills ``stage_metrics``, the
    run's one telemetry record.
    """

    log: DarshanLog
    trace_id: str
    config: "IOAgentConfig"
    client: LLMClient
    retriever: Retriever | None = None

    # Stage products, in pipeline order.
    module_tables: Mapping[str, ModuleTable] = field(default_factory=dict)
    fragments: list[SummaryFragment] = field(default_factory=list)
    app_facts: list[Fact] = field(default_factory=list)
    context: str = ""
    descriptions: dict[str, str] = field(default_factory=dict)
    integrations: dict[str, IntegrationResult] = field(default_factory=dict)
    diagnoses: dict[str, str] = field(default_factory=dict)
    merged_text: str = ""

    # Telemetry: the run's record, one StageMetrics per stage in stage order.
    stage_metrics: dict[str, StageMetrics] = field(default_factory=dict)

    # Resilience: absorbed failures.
    stage_failures: list[StageFailure] = field(default_factory=list)
    failure_lock: Lock = field(default_factory=Lock, repr=False)

    def record_failure(
        self, stage: str, channel: str, error: str, fragment_id: str = ""
    ) -> None:
        """Log one absorbed failure (locked: a custom stage may fan out)."""
        failure = StageFailure(
            stage=stage, channel=channel, error=error, fragment_id=fragment_id
        )
        with self.failure_lock:
            self.stage_failures.append(failure)

    @property
    def degraded_channels(self) -> tuple[str, ...]:
        """Evidence channels lost to absorbed failures (sorted, unique).

        Sorted rather than arrival-ordered so the report stays
        byte-identical across thread schedules.
        """
        with self.failure_lock:
            channels = {f.channel for f in self.stage_failures if f.channel}
        return tuple(sorted(channels))

    @property
    def sources_retrieved(self) -> int:
        return sum(len(r.retrieved) for r in self.integrations.values())

    @property
    def sources_kept(self) -> int:
        return sum(len(r.kept_sources) for r in self.integrations.values())

    def fragment_sources(self, fragment_id: str) -> list[str]:
        """Knowledge sources kept for one fragment ([] when RAG is off)."""
        result = self.integrations.get(fragment_id)
        return list(result.kept_sources) if result is not None else []

    def build_report(self) -> DiagnosisReport:
        """Assemble the final report from the accumulated stage products."""
        return DiagnosisReport(
            trace_id=self.trace_id,
            model=self.config.model,
            text=self.merged_text,
            n_fragments=len(self.fragments),
            sources_retrieved=self.sources_retrieved,
            sources_kept=self.sources_kept,
            degraded=self.degraded_channels,
        )


@runtime_checkable
class Stage(Protocol):
    """One pipeline step: reads/writes the context, nothing else.

    Stages additionally declare their failure contract via two (class)
    attributes, defaulted by the pipeline when absent: ``failure_mode``
    (``"abort"`` — the default — or ``"degrade"``) and ``channel`` (the
    evidence channel a degraded stage costs; required non-empty when
    ``failure_mode == "degrade"``, enforced by the analysis suite's
    resilience-contract check).

    A stage that fans its work out across threads must run each item in a
    copy of the run's context (``contextvars.copy_context().run``), or its
    LLM calls are not counted for the run.
    """

    name: str

    def run(self, ctx: PipelineContext) -> None: ...


class PipelineObserver:
    """Event-hook base class; subclass and override what you need.

    All hooks are no-ops by default.  They fire on the thread that runs the
    pipeline.  An observer bound to a pipeline that several server workers
    run at once sees those runs concurrently, so stateful observers must
    synchronize their own accumulation.
    """

    def on_stage_start(self, stage: str, ctx: PipelineContext) -> None: ...

    def on_stage_end(self, stage: str, ctx: PipelineContext, seconds: float) -> None: ...

    def on_llm_call(
        self, stage: str, ctx: PipelineContext, model: str, usage: Usage, call_id: str
    ) -> None: ...

    def on_fault_event(
        self, stage: str, ctx: PipelineContext, event: FaultEvent
    ) -> None: ...


@runtime_checkable
class PipelineTool(Protocol):
    """A tool whose diagnosis is one observable pipeline run (``IOAgent``).

    The service runs every tool that has a ``run`` method through it, so
    observers see each stage and the run's ``stage_metrics`` reach the
    serving layer; any other tool runs through ``diagnose``.
    """

    def run(
        self,
        log: DarshanLog,
        trace_id: str = "trace",
        observers: Sequence[PipelineObserver] = (),
    ) -> PipelineContext: ...


# -- the six default stages ----------------------------------------------


class PreprocessStage:
    """Module-based pre-processor: the log's per-module tables.

    ``ctx.module_tables`` becomes a read-only
    :class:`~repro.core.preprocess.ModuleTables`, equal to
    :func:`~repro.core.preprocess.split_modules` of the log, whose tables
    are built on first access.  No default stage reads them (the summaries
    read the log's counter columns), so a run builds neither the tables
    nor the record rows they come from.
    """

    name = "preprocess"
    failure_mode = "abort"  # no later stage reads its tables; a failure is a bug
    channel = ""

    def run(self, ctx: PipelineContext) -> None:
        ctx.module_tables = ModuleTables(ctx.log)


class SummarizeStage:
    """Extract categorized JSON summary fragments + application context.

    Both read the log's counter columns; each fragment's ``code`` is its
    published extractor's source (see :mod:`repro.core.summaries`).
    """

    name = "summarize"
    failure_mode = "abort"  # without fragments there is nothing to diagnose
    channel = ""

    def run(self, ctx: PipelineContext) -> None:
        ctx.fragments = extract_fragments(ctx.log)
        ctx.app_facts = app_context_facts(ctx.log)
        ctx.context = context_sentences(ctx.app_facts)


class TemporalStage:
    """Fold DXT temporal evidence into the fragment stream.

    When the log carries DXT segments (simulated runs always do; parsed
    ``darshan-parser`` text does when it has a DXT section, as
    ``tracebench export --dxt`` and ``render_darshan_text(...,
    include_dxt=True)`` write it), the timeline analysis — burst/phase
    structure, per-rank time skew, concurrency, idle gaps, per-file
    throughput skew — becomes one more summary fragment
    (``DXT.timeline``) that the describe/diagnose stages treat exactly
    like a counter-derived one.  Without segments the stage is a no-op,
    so counter-only traces flow through unchanged.

    Temporal evidence is additive, so this stage *degrades*: if it fails,
    the run continues on counter evidence alone and the report is marked
    degraded on the ``dxt-temporal`` channel — exactly the ``use_dxt=False``
    ablation, arrived at involuntarily.
    """

    name = "temporal"
    failure_mode = "degrade"
    channel = "dxt-temporal"

    def run(self, ctx: PipelineContext) -> None:
        from repro.darshan.dxt import cached_temporal_facts, dxt_temporal_facts

        facts = cached_temporal_facts(ctx.log)
        if not facts:
            return
        ctx.fragments.append(
            SummaryFragment(
                module="DXT",
                category="timeline",
                facts=tuple(facts),
                code=extractor_source(dxt_temporal_facts),
            )
        )


class DescribeStage:
    """JSON fragment → natural-language description, one fragment at a time.

    Per-fragment isolation: a fragment whose calls exhaust the recovery
    layer (``ResilienceError`` only — real bugs still propagate) is
    dropped and recorded as a lost ``fragment:<id>`` channel; the rest of
    the trace is still diagnosed.
    """

    name = "describe"
    failure_mode = "abort"  # whole-stage crashes are real bugs
    channel = ""

    def run(self, ctx: PipelineContext) -> None:
        descriptions: dict[str, str] = {}
        for fragment in ctx.fragments:
            fid = fragment.fragment_id
            try:
                descriptions[fid] = describe_fragment(
                    fragment,
                    ctx.app_facts,
                    ctx.client,
                    ctx.config.model,
                    call_id=f"{ctx.trace_id}/{fid}/describe",
                )
            except ResilienceError as exc:
                ctx.record_failure(self.name, f"fragment:{fid}", repr(exc), fragment_id=fid)
        ctx.descriptions = descriptions


class IntegrateStage:
    """Retrieve + self-reflection-filter domain knowledge per fragment.

    Knowledge is an enhancement, not a prerequisite (``use_rag=False`` is
    a paper ablation) — so both a whole-stage failure and a per-fragment
    recovery exhaustion degrade to diagnosis-without-knowledge, recorded
    on the ``knowledge`` channel.
    """

    name = "integrate"
    failure_mode = "degrade"
    channel = "knowledge"

    def run(self, ctx: PipelineContext) -> None:
        cfg = ctx.config
        if ctx.retriever is None:
            ctx.integrations = {}
            return
        integrations: dict[str, IntegrationResult] = {}
        for fragment in ctx.fragments:
            fid = fragment.fragment_id
            if fid not in ctx.descriptions:  # fragment already dropped upstream
                continue
            try:
                integrations[fid] = integrate_fragment(
                    ctx.descriptions[fid],
                    ctx.retriever,
                    ctx.client,
                    reflection_model=cfg.reflection_model,
                    call_id=f"{ctx.trace_id}/{fid}",
                    use_reflection=cfg.use_reflection,
                )
            except ResilienceError as exc:
                ctx.record_failure(self.name, self.channel, repr(exc), fragment_id=fid)
        ctx.integrations = integrations


class DiagnoseStage:
    """Per-fragment diagnosis from description + surviving knowledge.

    Fragments dropped upstream are skipped; a fragment whose diagnosis
    calls exhaust recovery is dropped here with the same isolation as
    :class:`DescribeStage`.
    """

    name = "diagnose"
    failure_mode = "abort"
    channel = ""

    def run(self, ctx: PipelineContext) -> None:
        diagnoses: dict[str, str] = {}
        for fragment in ctx.fragments:
            fid = fragment.fragment_id
            if fid not in ctx.descriptions:  # fragment already dropped upstream
                continue
            try:
                diagnoses[fid] = diagnose_fragment(
                    ctx.descriptions[fid],
                    ctx.fragment_sources(fid),
                    ctx.context,
                    ctx.client,
                    ctx.config.model,
                    call_id=f"{ctx.trace_id}/{fid}/diagnose",
                )
            except ResilienceError as exc:
                ctx.record_failure(self.name, f"fragment:{fid}", repr(exc), fragment_id=fid)
        ctx.diagnoses = diagnoses


class MergeStage:
    """Merge fragment diagnoses into the final text (tree or one-step).

    A report must exist whenever fragment diagnoses exist, so merge never
    aborts on recovery-layer failure: if the merging calls exhaust
    recovery, the stage falls back to plain concatenation of the fragment
    diagnoses and records the lost ``merge`` channel (the findings are all
    there — only the cross-fragment synthesis is missing).
    """

    name = "merge"
    failure_mode = "abort"  # fallback below handles recovery-layer failures
    channel = ""

    def __init__(self, strategy: str = "tree") -> None:
        if strategy not in ("tree", "one-step"):
            raise ValueError("merge strategy must be 'tree' or 'one-step'")
        self.strategy = strategy

    def run(self, ctx: PipelineContext) -> None:
        cfg = ctx.config
        summaries = [
            ctx.diagnoses[f.fragment_id]
            for f in ctx.fragments
            if f.fragment_id in ctx.diagnoses
        ]
        if not summaries:
            if ctx.fragments:
                ctx.merged_text = (
                    "Diagnosis unavailable: every summary fragment was lost to "
                    "backend failures; no evidence survived to analyze."
                )
            else:
                ctx.merged_text = (
                    "No I/O activity was found in the trace; nothing to diagnose."
                )
            return
        try:
            if self.strategy == "tree":
                ctx.merged_text = tree_merge(
                    summaries, ctx.client, cfg.model, call_id_prefix=ctx.trace_id
                )
            else:
                ctx.merged_text = one_step_merge(
                    summaries, ctx.client, cfg.model, call_id_prefix=ctx.trace_id
                )
        except ResilienceError as exc:
            ctx.record_failure(self.name, "merge", repr(exc))
            ctx.merged_text = "\n\n".join(summaries)


# -- the pipeline itself --------------------------------------------------


class DiagnosisPipeline:
    """Runs stages in order over a :class:`PipelineContext`.

    The pipeline times each stage and attributes every LLM completion made
    while a stage runs to that stage (stages execute one after another, so
    a single "current stage" marker is sound).
    """

    def __init__(
        self,
        stages: Sequence[Stage],
        observers: Sequence[PipelineObserver] = (),
    ) -> None:
        self.stages: tuple[Stage, ...] = tuple(stages)
        self.observers: tuple[PipelineObserver, ...] = tuple(observers)
        names = [s.name for s in self.stages]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate stage names: {names}")

    @property
    def stage_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.stages)

    def run(
        self,
        log: DarshanLog,
        trace_id: str,
        *,
        config: "IOAgentConfig",
        client: LLMClient,
        retriever: Retriever | None = None,
        observers: Sequence[PipelineObserver] = (),
    ) -> PipelineContext:
        """Execute every stage over one trace; returns the full context.

        ``ctx.stage_metrics`` counts only the calls made in this run's
        context, so concurrent runs on one client never count each other's.
        ``observers`` extends (per call) the observers bound at construction.
        """
        ctx = PipelineContext(
            log=log, trace_id=trace_id, config=config, client=client, retriever=retriever
        )
        all_observers = self.observers + tuple(observers)
        current_stage = ""
        current_metrics = StageMetrics()
        usage_lock = Lock()

        def on_usage(model: str, usage: Usage, call_id: str) -> None:
            with usage_lock:
                current_metrics.add_usage(usage)
            for obs in all_observers:
                obs.on_llm_call(current_stage, ctx, model, usage, call_id)

        def on_fault(event: FaultEvent) -> None:
            with usage_lock:
                faults = current_metrics.faults
                faults[event.kind] = faults.get(event.kind, 0) + 1
            if event.kind == "garbled":
                # A mangled completion is corrupted evidence the pipeline
                # cannot repair: mark the channel lost so the report says
                # degraded and the service refuses to cache it.
                ctx.record_failure(current_stage, "llm-completions", repr(event))
            for obs in all_observers:
                obs.on_fault_event(current_stage, ctx, event)

        with call_scope(on_usage, on_fault):
            for stage in self.stages:
                current_stage = stage.name
                current_metrics = ctx.stage_metrics.setdefault(stage.name, StageMetrics())
                for obs in all_observers:
                    obs.on_stage_start(stage.name, ctx)
                started = time.perf_counter()
                try:
                    stage.run(ctx)
                except Exception as exc:
                    if getattr(stage, "failure_mode", "abort") != "degrade":
                        raise
                    # Degradable stage: absorb ANY failure (its evidence is
                    # additive), record the lost channel, keep diagnosing.
                    channel = getattr(stage, "channel", "") or stage.name
                    ctx.record_failure(stage.name, channel, repr(exc))
                finally:
                    elapsed = time.perf_counter() - started
                    current_metrics.seconds += elapsed
                    for obs in all_observers:
                        obs.on_stage_end(stage.name, ctx, elapsed)
        return ctx


# The default stage classes in pipeline order (the analysis suite's
# resilience-contract check audits their failure_mode/channel declarations).
DEFAULT_STAGE_CLASSES: tuple[type, ...] = (
    PreprocessStage,
    SummarizeStage,
    TemporalStage,
    DescribeStage,
    IntegrateStage,
    DiagnoseStage,
    MergeStage,
)


def build_default_pipeline(
    config: "IOAgentConfig",
    observers: Sequence[PipelineObserver] = (),
) -> DiagnosisPipeline:
    """The paper-default stage list for one config.

    Ablation switches map to stage composition: ``use_rag=False`` drops
    the integrate stage entirely, ``use_dxt=False`` drops the temporal
    stage (reproducing the paper's counter-only system exactly);
    ``merge_strategy`` picks the merge variant.  (``use_reflection``
    stays a parameter of the integrate stage because it alters behavior
    *within* the stage.)
    """
    stages: list[Stage] = [PreprocessStage(), SummarizeStage()]
    if config.use_dxt:
        stages.append(TemporalStage())
    stages.append(DescribeStage())
    if config.use_rag:
        stages.append(IntegrateStage())
    stages.append(DiagnoseStage())
    stages.append(MergeStage(strategy=config.merge_strategy))
    return DiagnosisPipeline(stages, observers=observers)
