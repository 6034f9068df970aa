"""Batch diagnosis with cost accounting (the paper's production concern).

The paper motivates IOAgent partly by cost: o1-preview is "largely
impractical for our large-scale use", and the design must make *open*
models viable.  This module runs any registered
:class:`~repro.core.registry.DiagnosticTool` over many traces and reports
per-backbone token/cost totals, so the "democratization" trade-off —
open-weights quality at zero marginal API cost vs. frontier quality at
list price — is measurable.

A batch is a scoring client of the serving layer: :func:`diagnose_batch`
serves the traces through a fresh
:class:`~repro.serve.server.DiagnosisServer`, so a trace gets the same
report as from ``serve`` and identical content in one batch runs once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.core.report import DiagnosisReport
from repro.tracebench.dataset import LabeledTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import StageMetrics
    from repro.core.service import DiagnosisService

__all__ = ["BatchResult", "diagnose_batch", "run_batch", "run_scenario_batch", "cost_comparison"]


@dataclass
class BatchResult:
    """Aggregate outcome of diagnosing a set of traces with one tool."""

    model: str
    tool: str = "ioagent"
    reports: dict[str, DiagnosisReport] = field(default_factory=dict)
    mean_f1: float = 0.0
    # difficulty tier -> mean F1 over the batch's traces of that tier.
    f1_by_difficulty: dict[str, float] = field(default_factory=dict)
    llm_calls: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0
    cost_usd: float = 0.0
    # requests answered from the service's cache or store at submit time.
    cache_hits: int = 0
    # stage name -> aggregate latency/usage over the batch's executed runs
    # (pipeline tools only; empty for heuristic/plain-prompt tools).
    stage_metrics: "dict[str, StageMetrics]" = field(default_factory=dict)

    @property
    def cost_per_trace(self) -> float:
        return self.cost_usd / max(1, len(self.reports))

    @property
    def degraded_traces(self) -> dict[str, tuple[str, ...]]:
        """Trace id -> lost evidence channels, for reports that degraded."""
        return {
            trace_id: report.degraded
            for trace_id, report in self.reports.items()
            if report.degraded
        }

    @property
    def total_seconds(self) -> float:
        """Summed per-stage wall-clock (0.0 when no stage metrics exist)."""
        return sum(m.seconds for m in self.stage_metrics.values())


def diagnose_batch(
    service: "DiagnosisService",
    traces: Sequence[LabeledTrace],
    workers: int | None = None,
) -> BatchResult:
    """Serve every trace through a fresh server; returns scored, metered results.

    ``workers`` sizes the server's pool (default 4).  LLM totals are the
    change in ``service.stats().usage``, which also covers tools that are
    not pipeline-backed.
    """
    from repro.evaluation.accuracy import f1_by_difficulty, match_stats
    from repro.serve.server import DiagnosisServer

    before = service.stats().usage
    with DiagnosisServer(
        service, workers=workers or 4, queue_depth=max(1, len(traces)), autostart=False
    ) as server:
        reports = server.serve_all([(trace.log, trace.trace_id) for trace in traces])
    usage = service.stats().usage
    scored = [(t.difficulty, match_stats(r.text, t.labels)) for t, r in zip(traces, reports)]
    return BatchResult(
        model=service.config.model,
        tool=service.tool.name,
        reports={trace.trace_id: report for trace, report in zip(traces, reports)},
        mean_f1=sum(stats.f1 for _, stats in scored) / max(1, len(scored)),
        f1_by_difficulty=f1_by_difficulty(scored),
        llm_calls=usage.calls - before.calls,
        prompt_tokens=usage.prompt_tokens - before.prompt_tokens,
        completion_tokens=usage.completion_tokens - before.completion_tokens,
        cost_usd=usage.cost_usd - before.cost_usd,
        cache_hits=server.counters.cache_served,
        stage_metrics=server.stage_metrics(),
    )


def run_batch(
    traces: list[LabeledTrace],
    model: str = "gpt-4o",
    reflection_model: str = "gpt-4o-mini",
    seed: int = 0,
    tool: str = "ioagent",
    **config_kwargs,
) -> BatchResult:
    """Diagnose every trace with one registered tool on one backbone."""
    from repro.core.agent import IOAgentConfig
    from repro.core.service import DiagnosisService

    config = IOAgentConfig(
        model=model, reflection_model=reflection_model, seed=seed, **config_kwargs
    )
    service = DiagnosisService(tool=tool, config=config)
    return diagnose_batch(service, traces)


def run_scenario_batch(
    selectors: tuple[str, ...] | list[str],
    model: str = "gpt-4o",
    seed: int = 0,
    tool: str = "ioagent",
    **config_kwargs,
) -> BatchResult:
    """Diagnose every scenario picked from the registry by ``selectors``.

    ``selectors`` are scenario names and/or tags (``"tracebench"``,
    ``"pathology"``, a difficulty tier, ...), resolved through the
    scenario registry — the batch runner needs no per-suite wiring.
    """
    from repro.tracebench.build import build_scenario_suite

    suite = build_scenario_suite(selectors, seed=seed)
    return run_batch(list(suite.traces), model=model, seed=seed, tool=tool, **config_kwargs)


def cost_comparison(
    traces: list[LabeledTrace],
    models: tuple[str, ...] = ("gpt-4o", "llama-3.1-70b"),
    seed: int = 0,
) -> dict[str, BatchResult]:
    """Run the same trace set through several backbones.

    The reflection model follows the backbone's ecosystem: proprietary
    backbones use gpt-4o-mini (as in the paper), open backbones reuse
    themselves so the whole pipeline stays free to run.
    """
    results: dict[str, BatchResult] = {}
    for model in models:
        from repro.llm.models import get_model

        reflection = model if get_model(model).open_source else "gpt-4o-mini"
        results[model] = run_batch(
            traces, model=model, reflection_model=reflection, seed=seed
        )
    return results
