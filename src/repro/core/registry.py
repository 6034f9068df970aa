"""The `DiagnosticTool` protocol and the tool registry.

Every diagnosis tool in the repo — IOAgent, the Drishti heuristic
baseline, the plain-prompt ION baseline, and anything a future PR adds —
satisfies one uniform protocol:

* ``name`` — the row label used by the Table IV harness and the CLI;
* ``diagnose(log, trace_id) -> DiagnosisReport`` — one trace in, one
  structured report out;
* ``usage() -> Usage`` — cumulative LLM token/cost spend (zero for
  heuristic tools).

Tools register a *factory* under a short name, so callers construct them
uniformly (``get_tool("ioagent", model="llama-3.1-70b")``) and discovery
is programmatic (``available_tools()`` drives the CLI subcommands and
``--list-tools``).  Factories receive only the keyword arguments their
signature accepts, so generic callers can offer common knobs (``seed``,
``model``) without every tool having to take them.
"""

from __future__ import annotations

import inspect
from typing import Callable, Iterable, Protocol, runtime_checkable

from repro.core.report import DiagnosisReport
from repro.darshan.log import DarshanLog
from repro.llm.client import Usage
from repro.util.lookup import Registry, RegistryLookupError

__all__ = [
    "DiagnosticTool",
    "ToolNotFoundError",
    "register_tool",
    "unregister_tool",
    "get_tool",
    "get_tool_factory",
    "available_tools",
]


@runtime_checkable
class DiagnosticTool(Protocol):
    """Anything that can diagnose a Darshan log into a structured report.

    ``diagnose``'s ``trace_id`` is the run id: it labels the report and
    seeds the run.  :class:`~repro.core.service.DiagnosisService`, which
    every caller diagnoses through, passes the content-derived run name
    and relabels the copy it returns.
    """

    @property
    def name(self) -> str: ...

    def diagnose(self, log: DarshanLog, trace_id: str = "trace") -> DiagnosisReport: ...

    def usage(self) -> Usage: ...


ToolFactory = Callable[..., DiagnosticTool]


class ToolNotFoundError(RegistryLookupError):
    """Raised when ``get_tool`` is asked for a name nobody registered."""

    noun = "tool"
    available_label = "available tools"

    def __init__(self, unknown: str | Iterable[str], available: Iterable[str]) -> None:
        super().__init__(unknown, sorted(available))


# Built-in tools are resolved lazily so importing the registry stays cheap
# and free of cycles (agent → pipeline → core, baselines → llm).
_TOOLS: Registry[ToolFactory] = Registry(
    ToolNotFoundError,
    builtins=(
        "repro.core.agent",
        "repro.baselines.drishti.tool",
        "repro.baselines.ion",
        "repro.regression.series",
    ),
)
get_tool_factory = _TOOLS.__getitem__  # the raw factory, mainly for introspection
unregister_tool = _TOOLS.unregister


def register_tool(name: str, factory: ToolFactory, *, replace: bool = False) -> None:
    """Register ``factory`` under ``name``.

    Registering an existing name raises unless ``replace=True`` — silent
    shadowing of a comparison tool would corrupt evaluations.  Built-in
    tools load first, so a plugin taking a built-in's name fails here.
    """
    _TOOLS.register(name, factory, replace=replace)


def available_tools() -> tuple[str, ...]:
    """Registered tool names, sorted."""
    return tuple(sorted(_TOOLS))


def get_tool(name: str, **kwargs) -> DiagnosticTool:
    """Instantiate the tool registered under ``name``.

    Keyword arguments the factory's signature does not accept are dropped,
    so generic drivers (CLI, harness) can pass their full knob set to any
    tool.  Factories with a ``**kwargs`` catch-all receive everything.
    """
    factory = get_tool_factory(name)
    try:
        params = inspect.signature(factory).parameters
    except (TypeError, ValueError):  # builtins / C callables: pass through
        return factory(**kwargs)
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
        return factory(**kwargs)
    accepted = {
        k: v
        for k, v in kwargs.items()
        if k in params
        and params[k].kind
        in (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
    }
    return factory(**accepted)
