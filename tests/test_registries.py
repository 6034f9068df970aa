"""The contract every name registry shares, checked on all eight.

Tools, scenarios, run series, fault kinds, fault plans, analysis checks,
SimLLM task handlers and model profiles are each one
:class:`repro.util.lookup.Registry`: registration order is kept, a taken
name raises unless ``replace=True``, and an unknown name raises the
registry's own :class:`~repro.util.lookup.RegistryLookupError` subclass,
which the CLI renders and exits 2 on.  Load order is checked in a fresh
interpreter, where the built-ins have not been imported yet.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import pytest

from repro.analysis import registry as checks
from repro.analysis.registry import Check, CheckNotFoundError
from repro.cli import main
from repro.core import registry as tools
from repro.core.registry import ToolNotFoundError
from repro.darshan.writer import render_darshan_text
from repro.llm import engine, models
from repro.llm.engine import SimLLMEngine, TaskNotFoundError
from repro.llm.models import ModelNotFoundError, ModelProfile, get_model
from repro.resilience import faults
from repro.resilience.faults import (
    FaultKind,
    FaultKindNotFoundError,
    FaultPlan,
    FaultPlanNotFoundError,
    FaultSpec,
)
from repro.util.lookup import Registry, RegistryLookupError
from repro.workloads import scenarios
from repro.workloads.scenarios import (
    Scenario,
    ScenarioNotFoundError,
    SeriesScenario,
    SeriesScenarioNotFoundError,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Case:
    registry: Registry
    error: type[RegistryLookupError]
    make: Callable[[str], Any]  # a new entry named ``name``
    lookup: Callable[[str], Any]  # the public way to fetch one entry
    lists_names: bool = True  # whether the CLI block inlines the known names


def _run_task(name: str) -> str:
    return SimLLMEngine().run(f"TASK: {name}\n", get_model("gpt-4o"), "contract")[0]


CASES = {
    "tools": Case(tools._TOOLS, ToolNotFoundError, lambda name: object, tools.get_tool_factory),
    "scenarios": Case(
        scenarios._SCENARIOS,
        ScenarioNotFoundError,
        lambda name: Scenario(name, "contract", object, frozenset(), "control"),
        scenarios.get_scenario,
        lists_names=False,  # 77 names: the block points at `list-scenarios`
    ),
    "series": Case(
        scenarios._SERIES,
        SeriesScenarioNotFoundError,
        lambda name: SeriesScenario(
            name, "contract", "sb01-small-writes", "sb01-small-writes", 4, None, frozenset()
        ),
        scenarios.get_series_scenario,
    ),
    "fault-kinds": Case(
        faults._KINDS,
        FaultKindNotFoundError,
        lambda name: FaultKind(name, "llm"),
        faults.get_fault_kind,
    ),
    "fault-plans": Case(
        faults._PLANS,
        FaultPlanNotFoundError,
        lambda name: FaultPlan(name, (FaultSpec("llm-transient"),)),
        faults.get_fault_plan,
    ),
    "checks": Case(
        checks._CHECKS,
        CheckNotFoundError,
        lambda name: Check(name, lambda ctx: []),
        checks.get_check,
    ),
    "tasks": Case(engine._TASKS, TaskNotFoundError, lambda name: lambda *a: name, _run_task),
    "models": Case(
        models.MODEL_REGISTRY,
        ModelNotFoundError,
        lambda name: ModelProfile(name, 1000, 0.5, 0.1, 0.1, 0.5, 0.1, 0.0, 0.0),
        get_model,
    ),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


@pytest.fixture()
def added(case):
    """Names this test registers; each is removed again afterwards."""
    names: list[str] = []
    yield names
    for name in names:
        case.registry.unregister(name)


class TestRegistryContract:
    def test_each_registry_is_one_registry(self, case):
        assert isinstance(case.registry, Registry)
        assert case.registry.error is case.error
        assert issubclass(case.error, RegistryLookupError)
        assert issubclass(case.error, KeyError)

    def test_registration_order_is_kept(self, case, added):
        before = tuple(case.registry)
        added += ["zz_contract_b", "aa_contract_a"]
        for name in added:
            case.registry.register(name, case.make(name))
        assert tuple(case.registry) == before + ("zz_contract_b", "aa_contract_a")
        assert case.registry.entries()[-2:] == tuple(case.registry[n] for n in added)

    def test_duplicate_name_raises_unless_replace(self, case, added):
        added.append("contract_dup")
        first, second = case.make("contract_dup"), case.make("contract_dup")
        case.registry.register("contract_dup", first)
        with pytest.raises(ValueError, match="'contract_dup' is already registered"):
            case.registry.register("contract_dup", second)
        assert case.registry["contract_dup"] is first
        case.registry.register("contract_dup", second, replace=True)
        assert case.registry["contract_dup"] is second

    def test_unknown_name_raises_its_lookup_error(self, case):
        with pytest.raises(case.error) as exc:
            case.lookup("no_such_name")
        assert isinstance(exc.value, KeyError)
        assert exc.value.unknown == ("no_such_name",)
        assert sorted(exc.value.available) == sorted(case.registry)
        rendered = exc.value.render_cli()
        noun = case.error.cli_noun or case.error.noun
        assert rendered.startswith(f"error: unknown {noun}: no_such_name")
        if case.lists_names:
            assert all(name in rendered for name in case.registry)


def _fresh(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        timeout=120,
    )


class TestLoadOrder:
    """A first registration loads the built-ins, as a first lookup does."""

    def test_plugin_taking_a_builtin_tool_name_raises_at_its_call_site(self):
        proc = _fresh(
            """
            import sys
            from repro.core.registry import get_tool_factory, register_tool
            assert "repro.baselines.ion" not in sys.modules
            try:
                register_tool("ion", object)
            except ValueError as exc:
                print("raised:", exc)
            print(get_tool_factory("ion").__name__)
            """
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "raised: tool 'ion' is already registered (pass replace=True)",
            "IONTool",
        ]

    def test_task_registered_first_leaves_the_builtins_answerable(self):
        proc = _fresh(
            """
            import sys
            from repro.llm.client import LLMClient
            from repro.llm.engine import register_task
            assert "repro.llm.tasks" not in sys.modules
            register_task("contract_echo")(lambda text, model, rng: "echo")
            client = LLMClient()
            print(client.complete("TASK: contract_echo\\nhi", "gpt-4o", "c").text)
            print(bool(client.complete("TASK: describe\\nhi", "gpt-4o", "c").text))
            """
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["echo", "True"]

    def test_concurrent_first_lookups_wait_for_the_builtins(self):
        proc = _fresh(
            """
            import sys, threading
            from repro.llm.engine import _TASKS
            assert "repro.llm.tasks" not in sys.modules
            sys.setswitchinterval(1e-6)
            barrier, errors = threading.Barrier(8), []
            def first_lookup():
                barrier.wait()
                try:
                    _TASKS["describe"]
                except KeyError as exc:
                    errors.append(exc)
            threads = [threading.Thread(target=first_lookup) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            print(sum(thread.is_alive() for thread in threads), len(errors))
            """
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "0"]


@pytest.mark.parametrize("tool", ["ioagent", "ion"])
def test_unknown_model_on_the_cli_exits_2(tool, sb01_trace, tmp_path, capsys):
    path = tmp_path / "sb01.darshan.txt"
    path.write_text(render_darshan_text(sb01_trace.log), encoding="utf-8")
    assert main([tool, "--model", "nosuch", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown model: nosuch\n")
    assert f"known models: {', '.join(models.MODEL_REGISTRY)}" in err
