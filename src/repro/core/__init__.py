"""IOAgent core: the paper's primary contribution.

The pipeline (paper Fig. 2), one module per stage plus the composition
layer:

1. :mod:`repro.core.preprocess` — module-based pre-processor splitting a
   Darshan log into per-module CSV tables;
2. :mod:`repro.core.summaries` — per-module summary-extraction functions
   producing categorized JSON fragments (Table I coverage);
3. :mod:`repro.core.describe` — LLM transformation of JSON fragments into
   natural-language descriptions (Fig. 3);
4. :mod:`repro.core.integrate` — RAG retrieval + self-reflection filtering
   of domain knowledge per fragment;
5. :mod:`repro.core.diagnose` — fragment-level diagnosis with references;
6. :mod:`repro.core.merge` — pairwise tree merge (and the 1-step merge
   used only as the Fig. 6 ablation);
7. :mod:`repro.core.pipeline` — the composable Stage/DiagnosisPipeline
   subsystem that wires 1-6 together with observer hooks;
8. :mod:`repro.core.registry` — the `DiagnosticTool` protocol + registry;
9. :mod:`repro.core.agent` — IOAgent, a facade over the default pipeline;
10. :mod:`repro.core.service` — DiagnosisService: caching, the shared
    tool instance, pipeline observers, and each run's per-stage record;
11. :mod:`repro.core.session` — post-diagnosis interactive Q&A (Fig. 5).
"""

from repro.core.issues import ISSUE_KEYS, ISSUES, Issue, issue_by_key

__all__ = [
    "Issue",
    "ISSUES",
    "ISSUE_KEYS",
    "issue_by_key",
    "IOAgent",
    "IOAgentConfig",
    "DiagnosisReport",
    "DiagnosisPipeline",
    "PipelineContext",
    "PipelineObserver",
    "DiagnosisService",
    "DiagnosticTool",
    "register_tool",
    "get_tool",
    "available_tools",
    "InteractiveSession",
]


def __getattr__(name: str) -> object:
    # Lazy imports keep `import repro.core` cheap and avoid import cycles
    # with subpackages that only need the issue taxonomy.
    if name in ("IOAgent", "IOAgentConfig"):
        from repro.core.agent import IOAgent, IOAgentConfig

        return {"IOAgent": IOAgent, "IOAgentConfig": IOAgentConfig}[name]
    if name == "DiagnosisReport":
        from repro.core.report import DiagnosisReport

        return DiagnosisReport
    if name in ("DiagnosisPipeline", "PipelineContext", "PipelineObserver"):
        from repro.core import pipeline

        return getattr(pipeline, name)
    if name == "DiagnosisService":
        from repro.core.service import DiagnosisService

        return DiagnosisService
    if name in ("DiagnosticTool", "register_tool", "get_tool", "available_tools"):
        from repro.core import registry

        return getattr(registry, name)
    if name == "InteractiveSession":
        from repro.core.session import InteractiveSession

        return InteractiveSession
    raise AttributeError(name)
