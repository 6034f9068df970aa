"""The analyzer's view of the knowledge base.

:class:`CheckContext` bundles every registry the checkers inspect — the
fact grammar, the expert-rule declarations, the Drishti trigger map, the
issue taxonomy, the scenario ground truth, and the tool registry — as
plain data plus two callables.  Checks never import the live modules
themselves: they see only the context, so tests can hand them a
deliberately broken context (a cyclic suppression relation, an orphan
fact kind, a scenario with a bogus root cause) and assert the precise
diagnostics.

``CheckContext.from_repo()`` builds the real context from the live
registries plus a light AST scan of the fact producers/consumers.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.llm.facts import Fact

__all__ = [
    "ScenarioInfo",
    "FaultPlanInfo",
    "StagePolicy",
    "CheckContext",
    "produced_fact_kinds",
    "consumed_fact_kinds",
]


@dataclass(frozen=True)
class ScenarioInfo:
    """The slice of a registered Scenario the invariant checks need."""

    name: str
    root_causes: frozenset[str]
    difficulty: str = "medium"
    source: str = ""


@dataclass(frozen=True)
class FaultPlanInfo:
    """The slice of a registered FaultPlan the resilience check needs."""

    name: str
    # (kind, rate, scope) per spec, in plan order.
    specs: tuple[tuple[str, float, str], ...]


@dataclass(frozen=True)
class StagePolicy:
    """One pipeline stage's declared failure contract."""

    name: str
    failure_mode: str  # 'abort' | 'degrade'
    channel: str  # evidence channel lost on degrade ('' for abort stages)


def _fact_kind_of_call(node: ast.Call) -> str | None:
    """The constant kind of a ``Fact(...)`` constructor call, if any."""
    func = node.func
    name = func.id if isinstance(func, ast.Name) else (
        func.attr if isinstance(func, ast.Attribute) else None
    )
    if name != "Fact":
        return None
    if node.args and isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str):
        return node.args[0].value
    for kw in node.keywords:
        if kw.arg == "kind" and isinstance(kw.value, ast.Constant) and isinstance(kw.value.value, str):
            return kw.value.value
    return None


def produced_fact_kinds(sources: Sequence[Path]) -> frozenset[str]:
    """Fact kinds constructed (``Fact("kind", ...)``) in the given files."""
    kinds: set[str] = set()
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                kind = _fact_kind_of_call(node)
                if kind is not None:
                    kinds.add(kind)
    return frozenset(kinds)


def consumed_fact_kinds(sources: Sequence[Path]) -> frozenset[str]:
    """Fact kinds read via ``kinds.get("kind")`` in the given files."""
    kinds: set[str] = set()
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "kinds"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                kinds.add(node.args[0].value)
    return frozenset(kinds)


@dataclass(frozen=True)
class CheckContext:
    """Everything the built-in checks look at, as inert data."""

    # -- fact grammar ------------------------------------------------------
    fact_kinds: tuple[str, ...]
    fact_examples: Mapping[str, dict]
    render: Callable[[Fact], str]
    extract: Callable[[str], list[Fact]]
    context_only_kinds: frozenset[str]
    produced_kinds: frozenset[str]
    consumed_kinds: frozenset[str]

    # -- expert rules ------------------------------------------------------
    rule_issues: Mapping[str, tuple[str, ...]]
    support_kinds: tuple[str, ...]
    temporal_rules: tuple[str, ...]
    suppressions: tuple[tuple[str, str], ...]
    deepest_cause_order: tuple[str, ...]

    # -- issue taxonomy ----------------------------------------------------
    issue_keys: tuple[str, ...]

    # -- Drishti baseline --------------------------------------------------
    trigger_names: tuple[str, ...]
    trigger_issues: Mapping[str, tuple[str, ...]]
    untriggered_issues: tuple[str, ...]

    # -- scenarios + tools -------------------------------------------------
    scenarios: tuple[ScenarioInfo, ...]
    tool_names: tuple[str, ...]
    reserved_cli_commands: frozenset[str]

    # The literal phrase every match of a kind's regex contains (None: none).
    fact_phrases: Mapping[str, str | None] = field(default_factory=dict)

    # -- resilience surface (fault registry + stage failure contracts) -----
    fault_kinds: tuple[str, ...] = ()
    fault_plans: tuple[FaultPlanInfo, ...] = ()
    stage_policies: tuple[StagePolicy, ...] = ()

    # -- source tree (for the AST lint rules) ------------------------------
    src_root: Path = Path("src")

    # Logical registry name -> repo-relative file, for diagnostics.
    locations: Mapping[str, str] = field(default_factory=dict)

    def location(self, registry: str) -> str | None:
        return self.locations.get(registry)

    @classmethod
    def from_repo(cls, root: Path | str | None = None) -> "CheckContext":
        """Build the context from the live registries of this checkout."""
        from repro.baselines.drishti import triggers as drishti_triggers
        from repro.core import issues as core_issues
        from repro.core.registry import available_tools
        from repro.llm import facts as llm_facts
        from repro.llm import reasoning as llm_reasoning
        from repro.workloads.scenarios import iter_scenarios, iter_series_scenarios

        if root is None:
            # src/repro/analysis/context.py -> repo root three levels up.
            root = Path(__file__).resolve().parents[3]
        root = Path(root)
        src_root = root / "src"
        repro_root = src_root / "repro"

        producer_files = (
            repro_root / "core" / "summaries.py",
            repro_root / "darshan" / "dxt.py",
            repro_root / "regression" / "drift.py",
        )
        consumer_files = (repro_root / "llm" / "reasoning.py",)

        # Series scenarios ground the longitudinal issue family; to the
        # checks they are just more scenarios with root causes.
        scenarios = tuple(
            ScenarioInfo(
                name=s.name,
                root_causes=frozenset(s.root_causes),
                difficulty=s.difficulty,
                source=s.source,
            )
            for s in (*iter_scenarios(), *iter_series_scenarios())
        )

        # Keep in sync with the reserved set in repro.cli.build_parser.
        reserved = frozenset(
            {
                "diagnose",
                "chat",
                "tracebench",
                "evaluate",
                "list-scenarios",
                "series",
                "serve",
                "fuzz",
                "chaos",
            }
        )

        from repro.core.pipeline import DEFAULT_STAGE_CLASSES
        from repro.resilience.faults import available_fault_kinds, iter_fault_plans

        fault_plans = tuple(
            FaultPlanInfo(
                name=plan.name,
                specs=tuple((s.kind, s.rate, s.scope) for s in plan.specs),
            )
            for plan in iter_fault_plans()
        )
        stage_policies = tuple(
            StagePolicy(
                name=stage_cls.name,
                failure_mode=getattr(stage_cls, "failure_mode", "abort"),
                channel=getattr(stage_cls, "channel", ""),
            )
            for stage_cls in DEFAULT_STAGE_CLASSES
        )

        return cls(
            fact_kinds=tuple(llm_facts.FACT_KINDS),
            fact_examples=dict(llm_facts.FACT_EXAMPLES),
            render=llm_facts.render_fact,
            extract=llm_facts.extract_facts,
            fact_phrases=dict(llm_facts.FACT_PHRASES),
            context_only_kinds=frozenset(llm_facts.CONTEXT_ONLY_KINDS),
            produced_kinds=produced_fact_kinds(producer_files),
            consumed_kinds=consumed_fact_kinds(consumer_files),
            rule_issues=dict(llm_reasoning.RULE_ISSUES),
            support_kinds=tuple(llm_reasoning.SUPPORT_KINDS),
            temporal_rules=tuple(llm_reasoning.TEMPORAL_RULES),
            suppressions=tuple(llm_reasoning.SUPPRESSIONS),
            deepest_cause_order=tuple(llm_reasoning.DEEPEST_CAUSE_ORDER),
            issue_keys=tuple(core_issues.ISSUE_KEYS),
            trigger_names=tuple(drishti_triggers.TRIGGERS),
            trigger_issues=dict(drishti_triggers.TRIGGER_ISSUES),
            untriggered_issues=tuple(drishti_triggers.UNTRIGGERED_ISSUES),
            scenarios=scenarios,
            tool_names=available_tools(),
            reserved_cli_commands=reserved,
            fault_kinds=available_fault_kinds(),
            fault_plans=fault_plans,
            stage_policies=stage_policies,
            src_root=src_root,
            locations={
                "facts": "src/repro/llm/facts.py",
                "reasoning": "src/repro/llm/reasoning.py",
                "issues": "src/repro/core/issues.py",
                "triggers": "src/repro/baselines/drishti/triggers.py",
                "scenarios": "src/repro/workloads/scenarios.py",
                "tools": "src/repro/core/registry.py",
                "faults": "src/repro/resilience/faults.py",
                "stages": "src/repro/core/pipeline.py",
            },
        )
