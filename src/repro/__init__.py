"""repro — reproduction of *IOAgent: Democratizing Trustworthy HPC I/O
Performance Diagnosis Capability via LLMs* (IPDPS 2025).

Stable public API — ``repro.__all__`` is the blessed surface, pinned by
``tests/test_public_api.py``; everything else is internal and may move
between minor versions.  Four layers:

**Tools** (everything implements the
:class:`~repro.core.registry.DiagnosticTool` protocol: ``name``,
``diagnose(log, trace_id) -> DiagnosisReport``, ``usage()``):

* :class:`repro.core.agent.IOAgent` — the diagnosis agent (paper Fig. 2),
  a thin facade over the composable stage pipeline;
* :class:`repro.baselines.DrishtiTool` / :class:`repro.baselines.IONTool`
  — the comparison tools;
* :class:`repro.regression.series.SeriesDiagnosticTool` — the
  longitudinal wrapper (drift against an early-run baseline);
* :func:`repro.core.registry.get_tool` / ``register_tool`` /
  ``available_tools`` — the registry the CLI, batch runner, and Table IV
  harness resolve tools from; register your own tool and every driver
  picks it up.  Unknown names across *every* registry raise a
  :class:`repro.util.lookup.RegistryLookupError` subclass with one shared
  CLI rendering.

**Pipeline** (:mod:`repro.core.pipeline`):

* :class:`DiagnosisPipeline` composes pluggable stages (``preprocess →
  summarize → temporal → describe → integrate → diagnose → merge``) over a typed
  :class:`PipelineContext`, whose ``stage_metrics`` records each stage's
  latency, token spend and faults; :class:`PipelineObserver` hooks see
  the same events live.  Ablations swap stages, not booleans.

**Service** (:mod:`repro.core.service`):

* :class:`DiagnosisService` — production-style facade:
  content-addressed result caching keyed by
  ``(trace digest, tool, config)``, optional persistent
  :class:`~repro.serve.store.ResultStore` backing, shared memoized RAG
  index, and one coherent :class:`~repro.core.service.ServiceStats`
  snapshot.

**Serving** (:mod:`repro.serve`):

* :class:`~repro.serve.server.DiagnosisServer` — the one request path
  (batches are served through it too): bounded work queue with typed
  backpressure
  (:class:`~repro.serve.server.QueueFullError`), in-flight coalescing of
  identical requests, persistent content-addressed results, and
  deterministic fixed-bucket latency/queue-depth histograms
  (:class:`~repro.serve.metrics.ServeSnapshot`).

Substrate:

* :func:`repro.tracebench.build_tracebench` — the TraceBench suite (§V);
* :func:`repro.evaluation.evaluate_tools` — the Table IV harness;
* :func:`repro.workloads.scenarios.register_scenario` /
  ``select_scenarios`` — the scenario registry the evaluation and serve
  drivers select workloads from;
* :mod:`repro.sim` + :mod:`repro.darshan` — the simulated HPC substrate
  that generates Darshan traces offline;
* :mod:`repro.llm` — the deterministic, capability-tiered SimLLM substrate.
"""

__version__ = "9.0.0"  # major: PipelineContext.module_tables is a read-only, built-when-read mapping

__all__ = [
    # tools
    "IOAgent",
    "IOAgentConfig",
    "InteractiveSession",
    "DiagnosticTool",
    "register_tool",
    "get_tool",
    "available_tools",
    "DrishtiTool",
    "IONTool",
    "SeriesDiagnosticTool",
    # pipeline + reports
    "DiagnosisReport",
    "DiagnosisPipeline",
    # service
    "DiagnosisService",
    "ServiceStats",
    "trace_digest",
    # serving layer
    "DiagnosisServer",
    "PendingDiagnosis",
    "QueueFullError",
    "ResultStore",
    "ServeSnapshot",
    # registries + errors
    "register_scenario",
    "select_scenarios",
    "RegistryLookupError",
    # substrate
    "build_tracebench",
    "evaluate_tools",
    "LLMClient",
]


def __getattr__(name: str) -> object:
    # Lazy top-level exports: keep `import repro` light.
    if name in ("IOAgent", "IOAgentConfig"):
        from repro.core.agent import IOAgent, IOAgentConfig

        return {"IOAgent": IOAgent, "IOAgentConfig": IOAgentConfig}[name]
    if name == "InteractiveSession":
        from repro.core.session import InteractiveSession

        return InteractiveSession
    if name == "DiagnosisReport":
        from repro.core.report import DiagnosisReport

        return DiagnosisReport
    if name == "DiagnosisPipeline":
        from repro.core.pipeline import DiagnosisPipeline

        return DiagnosisPipeline
    if name in ("DiagnosisService", "ServiceStats", "trace_digest"):
        from repro.core import service

        return getattr(service, name)
    if name in ("DiagnosticTool", "register_tool", "get_tool", "available_tools"):
        from repro.core import registry

        return getattr(registry, name)
    if name in ("DrishtiTool", "IONTool"):
        import repro.baselines as baselines

        return getattr(baselines, name)
    if name == "SeriesDiagnosticTool":
        from repro.regression.series import SeriesDiagnosticTool

        return SeriesDiagnosticTool
    if name in (
        "DiagnosisServer",
        "PendingDiagnosis",
        "QueueFullError",
        "ResultStore",
        "ServeSnapshot",
    ):
        import repro.serve as serve

        return getattr(serve, name)
    if name in ("register_scenario", "select_scenarios"):
        from repro.workloads import scenarios

        return getattr(scenarios, name)
    if name == "RegistryLookupError":
        from repro.util.lookup import RegistryLookupError

        return RegistryLookupError
    if name == "build_tracebench":
        from repro.tracebench import build_tracebench

        return build_tracebench
    if name == "evaluate_tools":
        from repro.evaluation import evaluate_tools

        return evaluate_tools
    if name == "LLMClient":
        from repro.llm.client import LLMClient

        return LLMClient
    raise AttributeError(name)
