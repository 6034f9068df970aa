"""The scenario registry: workloads + ground truth as a uniform extension surface.

Where a ``DiagnosticTool`` (:mod:`repro.core.registry`) is "one trace in,
one report out", a :class:`Scenario` is "nothing in, one labeled trace
out" — a workload builder plus the expert ground truth (``root_causes``),
a difficulty tier, and free-form tags.  Everything that enumerates
workloads — the TraceBench build, the evaluation harness, the batch
runner, and the CLI — resolves scenarios through this registry, so adding
a workload to the whole system is one ``register_scenario`` call.

Built-in scenarios load lazily from three modules:

* :mod:`repro.tracebench.spec` — the paper's 40 TraceBench traces, tagged
  ``tracebench`` plus their source;
* :mod:`repro.workloads.pathologies` — the extended pathology tier (21
  scenarios, tagged ``pathology``), including a clean-baseline control;
* :mod:`repro.workloads.fuzz` — 16 generated compositions, tagged ``fuzz``.

Ordering is registration order (suite order), not alphabetical: the
TraceBench sources keep their paper grouping and tables stay comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

from repro.core.issues import ISSUE_KEYS
from repro.util.lookup import Registry, RegistryLookupError
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tracebench.dataset import LabeledTrace

__all__ = [
    "Scenario",
    "SeriesScenario",
    "ScenarioNotFoundError",
    "SeriesScenarioNotFoundError",
    "DIFFICULTIES",
    "register_scenario",
    "unregister_scenario",
    "get_scenario",
    "available_scenarios",
    "iter_scenarios",
    "available_tags",
    "select_scenarios",
    "build_scenario",
    "register_series_scenario",
    "unregister_series_scenario",
    "get_series_scenario",
    "available_series_scenarios",
    "iter_series_scenarios",
    "build_series",
]

# Tiers roughly track how much of the ground truth survives into counters:
# 'easy' single-issue traces, 'medium' realistic mis-tunings, 'hard'
# multi-issue or counter-ambiguous traces, 'control' issue-free baselines.
DIFFICULTIES = ("easy", "medium", "hard", "control")


def _check_ground_truth(noun: str, name: str, difficulty: str, root_causes: frozenset[str]) -> None:
    """Reject an empty name, an unknown difficulty or an unknown root cause."""
    if not name:
        raise ValueError(f"{noun} name must be non-empty")
    if difficulty not in DIFFICULTIES:
        raise ValueError(f"unknown difficulty {difficulty!r}; expected one of {DIFFICULTIES}")
    unknown = set(root_causes) - set(ISSUE_KEYS)
    if unknown:
        raise ValueError(f"unknown root causes for {name}: {sorted(unknown)}")


@dataclass(frozen=True)
class Scenario:
    """One registered workload with its expert ground truth.

    ``root_causes`` uses the Table II issue vocabulary
    (:data:`repro.core.issues.ISSUE_KEYS`); an empty set is legal and marks
    an issue-free control.  ``tags`` drive CLI/harness selection; a
    scenario also matches its own ``name``, ``source``, and ``difficulty``
    as selectors.
    """

    name: str
    source: str
    builder: Callable[[], Workload]
    root_causes: frozenset[str]
    difficulty: str = "medium"
    tags: tuple[str, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        _check_ground_truth("scenario", self.name, self.difficulty, self.root_causes)

    def selectors(self) -> frozenset[str]:
        """Every non-name token that selects this scenario."""
        return frozenset((self.source, self.difficulty, *self.tags))


class ScenarioNotFoundError(RegistryLookupError):
    """Raised for a scenario name (or selector) nobody registered."""

    noun = "scenario"
    available_label = "available"
    cli_noun = "scenario selector"

    def hints(self) -> tuple[str, ...]:
        lines = []
        # Difficulty selectors are case-sensitive like every other token;
        # a near-miss on one gets a targeted hint.
        for token in self.unknown:
            if token.lower() in DIFFICULTIES and token not in DIFFICULTIES:
                lines.append(
                    f"hint: difficulty tiers are lowercase — did you mean {token.lower()!r}?"
                )
        lines.append("selectors match a scenario name, tag, source, or difficulty;")
        lines.append(f"difficulty tiers: {', '.join(DIFFICULTIES)}")
        lines.append(f"available tags: {', '.join(available_tags())}")
        return tuple(lines)

    def available_cli_line(self) -> str:
        return "available scenarios: see `python -m repro list-scenarios`"


class SeriesScenarioNotFoundError(ScenarioNotFoundError):
    """Raised for a series-scenario name nobody registered.

    Subclasses :class:`ScenarioNotFoundError` so callers catching the
    single-trace variant keep working, but renders against the series
    registry (series have no tag/difficulty selector surface).
    """

    noun = "series scenario"
    available_label = "available series scenarios"
    cli_noun = "series scenario"

    def hints(self) -> tuple[str, ...]:
        return ()

    def available_cli_line(self) -> str:
        return f"available series scenarios: {self.options()}"


# Built-in scenarios resolve lazily so importing the registry stays cheap
# and cycle-free (spec -> workloads, pathologies -> patterns).
_SCENARIOS: Registry[Scenario] = Registry(
    ScenarioNotFoundError,
    builtins=("repro.tracebench.spec", "repro.workloads.pathologies", "repro.workloads.fuzz"),
    tokens=Scenario.selectors,
)
get_scenario = _SCENARIOS.__getitem__
unregister_scenario = _SCENARIOS.unregister


def register_scenario(scenario: Scenario, *, replace: bool = False) -> Scenario:
    """Register ``scenario`` under its name.

    Registering an existing name raises unless ``replace=True`` — silently
    shadowing a benchmark scenario would corrupt ground truth.  Built-in
    scenarios load first so a plugin collision with a benchmark name is
    caught here, at the plugin's call site, not inside a later query.
    """
    return _SCENARIOS.register(scenario.name, scenario, replace=replace)


def available_scenarios(tag: str | None = None) -> tuple[str, ...]:
    """Registered scenario names in registration (suite) order.

    ``tag`` filters by any selector token: a tag, a source, a difficulty
    tier, or an exact name.
    """
    return tuple(s.name for s in iter_scenarios(tag))


def iter_scenarios(tag: str | None = None) -> tuple[Scenario, ...]:
    """Registered :class:`Scenario` objects, optionally selector-filtered."""
    return _SCENARIOS.entries(tag)


def available_tags() -> tuple[str, ...]:
    """Every selector token (tags, sources, difficulties) in use, sorted."""
    tokens: set[str] = set()
    for scenario in _SCENARIOS.entries():
        tokens |= scenario.selectors()
    return tuple(sorted(tokens))


def select_scenarios(selectors: Iterable[str]) -> list[Scenario]:
    """Resolve selector tokens (names and/or tags) to scenarios, in order.

    Each token picks every scenario it matches; duplicates collapse while
    preserving first-match order.  Tokens matching nothing raise one
    :class:`ScenarioNotFoundError` listing all of them, so callers (the
    CLI among them) can show a single friendly error.
    """
    picked: dict[str, Scenario] = {}
    unknown: list[str] = []
    for token in selectors:
        matched = _SCENARIOS.entries(token)
        if not matched:
            unknown.append(token)
        for scenario in matched:
            picked.setdefault(scenario.name, scenario)
    if unknown:
        raise ScenarioNotFoundError(unknown, available_scenarios())
    return list(picked.values())


def build_scenario(scenario: Scenario | str, seed: int = 0) -> "LabeledTrace":
    """Run one scenario's workload and return the labeled trace."""
    from repro.tracebench.dataset import LabeledTrace

    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    workload = scenario.builder()
    log, _result = workload.run(seed=seed)
    return LabeledTrace(
        trace_id=scenario.name,
        source=scenario.source,
        log=log,
        labels=scenario.root_causes,
        description=scenario.description or workload.exe,
        difficulty=scenario.difficulty,
    )


# ---------------------------------------------------------------------------
# Series scenarios: whole run *sequences* with a declared inflection point.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesScenario:
    """One registered run series: a base workload that degrades mid-series.

    A series sequences two already-registered single-trace scenarios: runs
    before ``inflection_run`` build ``base``, runs from ``inflection_run``
    on build ``degraded`` (``inflection_run=None`` marks a control series
    that never degrades).  ``root_causes`` is the series-level ground
    truth — the ``trend_regression`` key plus whatever issues the
    degradation injects — against which the longitudinal channel is graded
    (see :mod:`repro.regression` and ``benchmarks/eval_gate.py``).

    Per-run seeds are ``seed + run_index``, so healthy runs carry natural
    run-to-run variation for the baseline to absorb.
    """

    name: str
    source: str
    base: str
    degraded: str
    n_runs: int
    inflection_run: int | None
    root_causes: frozenset[str]
    baseline_runs: int = 3
    difficulty: str = "medium"
    tags: tuple[str, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        _check_ground_truth("series scenario", self.name, self.difficulty, self.root_causes)
        if self.n_runs < 2:
            raise ValueError("a series needs at least two runs")
        if not 1 <= self.baseline_runs < self.n_runs:
            raise ValueError("baseline_runs must be in [1, n_runs)")
        if self.inflection_run is not None and not (
            self.baseline_runs <= self.inflection_run < self.n_runs
        ):
            raise ValueError(
                "inflection_run must land after the baseline window and "
                "before the series ends (or be None for a control)"
            )
        if self.inflection_run is None and "trend_regression" in self.root_causes:
            raise ValueError("a control series cannot claim trend_regression")
        if self.inflection_run is not None and "trend_regression" not in self.root_causes:
            raise ValueError("a degrading series must claim trend_regression")

    def scenario_for_run(self, run_index: int) -> Scenario:
        """The single-trace scenario backing run ``run_index``."""
        if self.inflection_run is not None and run_index >= self.inflection_run:
            return get_scenario(self.degraded)
        return get_scenario(self.base)


_SERIES: Registry[SeriesScenario] = Registry(
    SeriesScenarioNotFoundError,
    builtins=("repro.workloads.series",),
    tokens=lambda s: (s.source, s.difficulty, *s.tags),
)
get_series_scenario = _SERIES.__getitem__
unregister_series_scenario = _SERIES.unregister


def register_series_scenario(series: SeriesScenario, *, replace: bool = False) -> SeriesScenario:
    """Register ``series`` under its name (same contract as scenarios)."""
    return _SERIES.register(series.name, series, replace=replace)


def iter_series_scenarios(tag: str | None = None) -> tuple[SeriesScenario, ...]:
    """Registered series scenarios in registration order, tag-filtered."""
    return _SERIES.entries(tag)


def available_series_scenarios(tag: str | None = None) -> tuple[str, ...]:
    """Registered series names in registration order."""
    return tuple(s.name for s in iter_series_scenarios(tag))


def build_series(series: SeriesScenario | str, seed: int = 0) -> list["LabeledTrace"]:
    """Run every workload of a series, in run order.

    Run ``i`` gets trace id ``<series>/run<i>`` and seed ``seed + i``;
    each trace carries the *per-run* labels of its backing scenario (the
    series-level ground truth stays on the :class:`SeriesScenario`).
    """
    from repro.tracebench.dataset import LabeledTrace

    if isinstance(series, str):
        series = get_series_scenario(series)
    traces: list[LabeledTrace] = []
    for run_index in range(series.n_runs):
        backing = series.scenario_for_run(run_index)
        workload = backing.builder()
        log, _result = workload.run(seed=seed + run_index)
        traces.append(
            LabeledTrace(
                trace_id=f"{series.name}/run{run_index:02d}",
                source=series.source,
                log=log,
                labels=backing.root_causes,
                description=backing.description or workload.exe,
                difficulty=series.difficulty,
            )
        )
    return traces
