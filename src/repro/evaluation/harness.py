"""The Table IV harness: run every tool over TraceBench and score it.

Tools evaluated (paper Table IV rows): Drishti, ION (gpt-4o backbone),
IOAgent-gpt-4o, and IOAgent-llama-3.1-70B.  Every tool is resolved from
the :mod:`repro.core.registry` and driven through its own
:class:`~repro.core.service.DiagnosisService` — the harness has no
tool-specific code, so adding a row to Table IV is one ``register_tool``
call, and a row's text for a trace is the one every other caller gets.
For each trace the diagnosis texts are ranked by the gpt-4o judge on
accuracy, utility, and interpretability with four prompt permutations,
then normalized per data source via Eq. (1)-(2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.registry import DiagnosticTool, get_tool
from repro.core.service import DiagnosisService
from repro.evaluation.ranking import JudgeConfig, rank_candidates
from repro.evaluation.scoring import normalized_scores
from repro.llm.client import LLMClient
from repro.tracebench.dataset import TraceBench

__all__ = [
    "default_tools",
    "EvaluationResult",
    "evaluate_tools",
    "evaluate_scenarios",
    "CRITERIA",
]

CRITERIA = ("accuracy", "utility", "interpretability")
SOURCE_TITLES = {
    "simple-bench": "Simple-Bench",
    "io500": "IO500",
    "real-applications": "Real-Applications",
    "pathology": "Pathology",
    "fuzz": "Fuzz",
}


def default_tools(seed: int = 0) -> list[DiagnosticTool]:
    """The paper's four Table IV rows, resolved from the registry."""
    return [
        get_tool("drishti"),
        get_tool("ion", model="gpt-4o", seed=seed),
        get_tool("ioagent", model="gpt-4o", seed=seed),
        get_tool("ioagent", model="llama-3.1-70b", seed=seed),
    ]


@dataclass
class EvaluationResult:
    """Everything the Table IV renderer (and the tests) need."""

    tool_names: list[str]
    # trace_id -> tool -> diagnosis text
    texts: dict[str, dict[str, str]] = field(default_factory=dict)
    # criterion -> trace_id -> tool -> mean rank
    ranks: dict[str, dict[str, dict[str, float]]] = field(default_factory=dict)
    # trace_id -> source
    trace_sources: dict[str, str] = field(default_factory=dict)
    # trace_id -> difficulty tier ('easy' | 'medium' | 'hard' | 'control')
    trace_difficulties: dict[str, str] = field(default_factory=dict)

    def sources(self) -> list[str]:
        seen: dict[str, None] = {}
        for src in self.trace_sources.values():
            seen.setdefault(src, None)
        return list(seen)

    def difficulties(self) -> list[str]:
        """Difficulty tiers present, in canonical easy→control order."""
        present = set(self.trace_difficulties.values())
        from repro.workloads.scenarios import DIFFICULTIES

        ordered = [d for d in DIFFICULTIES if d in present]
        return ordered + sorted(present - set(ordered))

    def normalized(
        self,
        criterion: str,
        source: str | None = None,
        difficulty: str | None = None,
    ) -> dict[str, float]:
        """NS(T, criterion, D) for D = one source/difficulty or the suite."""
        per_trace = [
            ranks
            for trace_id, ranks in self.ranks[criterion].items()
            if (source is None or self.trace_sources[trace_id] == source)
            and (
                difficulty is None
                or self.trace_difficulties.get(trace_id, "medium") == difficulty
            )
        ]
        return normalized_scores(per_trace)

    def accuracy_by_difficulty(self) -> dict[str, dict[str, float]]:
        """Normalized accuracy per difficulty tier: tier -> tool -> score."""
        return {
            tier: self.normalized("accuracy", difficulty=tier)
            for tier in self.difficulties()
        }

    def table4(self) -> dict[str, dict[str, dict[str, float]]]:
        """criterion (+ 'average') -> column -> tool -> normalized score."""
        columns = self.sources() + [None]  # None = Overall
        table: dict[str, dict[str, dict[str, float]]] = {}
        for criterion in CRITERIA:
            table[criterion] = {}
            for source in columns:
                key = SOURCE_TITLES.get(source, source) if source else "Overall"
                table[criterion][key] = self.normalized(criterion, source)
        # Average across the three criteria.
        table["average"] = {}
        for source in columns:
            key = SOURCE_TITLES.get(source, source) if source else "Overall"
            avg: dict[str, float] = {}
            for tool in self.tool_names:
                avg[tool] = sum(table[c][key][tool] for c in CRITERIA) / len(CRITERIA)
            table["average"][key] = avg
        return table


def evaluate_tools(
    bench: TraceBench,
    tools: Sequence[DiagnosticTool] | None = None,
    judge_config: JudgeConfig | None = None,
    judge_client: LLMClient | None = None,
    progress: Callable[[str], None] | None = None,
) -> EvaluationResult:
    """Run the full §VI evaluation and return scored results."""
    tools = list(tools) if tools is not None else default_tools(seed=bench.seed)
    services = [DiagnosisService(tool=tool) for tool in tools]
    judge_config = judge_config or JudgeConfig(seed=bench.seed)
    judge_client = judge_client or LLMClient(seed=bench.seed)
    result = EvaluationResult(tool_names=[t.name for t in tools])
    for criterion in CRITERIA:
        result.ranks[criterion] = {}

    for trace in bench:
        if progress:
            progress(f"diagnosing {trace.trace_id}")
        texts = {
            service.tool.name: service.diagnose(trace.log, trace_id=trace.trace_id).text
            for service in services
        }
        result.texts[trace.trace_id] = texts
        result.trace_sources[trace.trace_id] = trace.source
        result.trace_difficulties[trace.trace_id] = getattr(trace, "difficulty", "medium")
        for criterion in CRITERIA:
            truth = trace.labels if criterion == "accuracy" else None
            result.ranks[criterion][trace.trace_id] = rank_candidates(
                texts,
                criterion,
                client=judge_client,
                config=judge_config,
                truth_labels=truth,
                call_id=f"{trace.trace_id}",
            )
    return result


def evaluate_scenarios(
    selectors: Sequence[str] = ("tracebench",),
    seed: int = 0,
    tools: Sequence[DiagnosticTool] | None = None,
    judge_config: JudgeConfig | None = None,
    judge_client: LLMClient | None = None,
    progress: Callable[[str], None] | None = None,
) -> EvaluationResult:
    """Run the evaluation over scenarios picked from the registry.

    ``selectors`` are scenario names and/or tags (``"tracebench"``,
    ``"pathology"``, a difficulty tier, a source, ...); the suite is built
    fresh from the registry, so plugin scenarios registered before the
    call are first-class rows of the resulting table.
    """
    from repro.tracebench.build import build_scenario_suite

    suite = build_scenario_suite(selectors, seed=seed)
    return evaluate_tools(
        suite,
        tools=tools,
        judge_config=judge_config,
        judge_client=judge_client,
        progress=progress,
    )
