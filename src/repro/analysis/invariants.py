"""Domain invariant checks over the diagnosis knowledge base.

Each check verifies, without running a single simulation, that the
registries agree with each other:

* ``fact-grammar-roundtrip`` — every fact kind renders to NL and extracts
  back to the same data (the describe→diagnose contract), unambiguously,
  and its rendering holds the phrase its regex is anchored on;
* ``fact-kind-flow`` — every kind is produced by an extractor and either
  consumed by an expert rule or declared context-only (exact partition);
* ``suppression-dag`` — the deepest-cause suppression relation is a DAG
  with a declared total topological order and no unreachable rule;
* ``scenario-ground-truth`` — scenario labels are canonical issue keys and
  every issue key is grounded by at least one scenario;
* ``fuzz-ground-truth`` — the registered generated tier matches a
  deterministic regeneration of the pinned fuzz stream, labels included;
* ``issue-reachability`` — every issue key is reachable by at least one
  tool (expert rule, temporal fact path, or Drishti trigger);
* ``trigger-issue-map`` — the Drishti trigger↔issue mapping covers exactly
  the registered triggers and its coverage gap is the declared one;
* ``tool-registry`` — tool registrations are well-formed, collision-free,
  and reachable from the CLI;
* ``resilience-contract`` — fault plans reference only registered fault
  kinds, every kind is exercised by a pinned plan, stage-crash scopes
  name degradable stages, and every pipeline stage declares a coherent
  failure contract.
"""

from __future__ import annotations

import math

from repro.analysis.context import CheckContext
from repro.analysis.diagnostics import Diagnostic, error, warning
from repro.analysis.registry import register_check
from repro.llm.facts import Fact

__all__ = ["check_fact_grammar_roundtrip", "check_fact_kind_flow", "check_suppression_dag"]

_FLOAT_TOL = 1e-9


def _values_match(expected: object, got: object) -> bool:
    if isinstance(expected, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return math.isclose(expected, float(got), rel_tol=_FLOAT_TOL, abs_tol=1e-12)
    return bool(expected == got)


@register_check(
    "fact-grammar-roundtrip",
    description=(
        "every fact kind has an example that survives render -> extract unchanged "
        "and holds its regex's phrase"
    ),
    tags=("facts",),
)
def check_fact_grammar_roundtrip(ctx: CheckContext) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    file = ctx.location("facts")
    for kind in ctx.fact_kinds:
        example = ctx.fact_examples.get(kind)
        if example is None:
            out.append(error("fact-grammar-roundtrip", f"fact kind {kind!r} has no example payload", file=file))
            continue
        try:
            text = ctx.render(Fact(kind=kind, data=dict(example)))
        except Exception as exc:  # noqa: BLE001 - a crashing template is the finding
            out.append(
                error(
                    "fact-grammar-roundtrip",
                    f"fact kind {kind!r}: renderer crashed on its example: {exc}",
                    file=file,
                )
            )
            continue
        phrase = ctx.fact_phrases.get(kind)
        if phrase is not None and phrase not in text:
            out.append(
                error(
                    "fact-grammar-roundtrip",
                    f"fact kind {kind!r}: rendering {text!r} lacks the phrase {phrase!r} "
                    f"that extraction looks for before running the regex",
                    file=file,
                )
            )
        recovered = ctx.extract(text)
        same_kind = [f for f in recovered if f.kind == kind]
        others = sorted({f.kind for f in recovered} - {kind})
        if not same_kind:
            out.append(
                error(
                    "fact-grammar-roundtrip",
                    f"fact kind {kind!r}: extraction regex does not match its own "
                    f"rendering {text!r}",
                    file=file,
                )
            )
            continue
        if others:
            out.append(
                error(
                    "fact-grammar-roundtrip",
                    f"fact kind {kind!r}: rendering is ambiguous — also matched by "
                    f"{', '.join(repr(o) for o in others)}",
                    file=file,
                )
            )
        if len(same_kind) > 1:
            out.append(
                error(
                    "fact-grammar-roundtrip",
                    f"fact kind {kind!r}: rendering matched its own regex "
                    f"{len(same_kind)} times",
                    file=file,
                )
            )
        got = same_kind[0].data
        for name, expected in example.items():
            if name not in got:
                out.append(
                    error(
                        "fact-grammar-roundtrip",
                        f"fact kind {kind!r}: field {name!r} is lost in the round-trip",
                        file=file,
                    )
                )
            elif not _values_match(expected, got[name]):
                out.append(
                    error(
                        "fact-grammar-roundtrip",
                        f"fact kind {kind!r}: field {name!r} drifts in the round-trip "
                        f"({expected!r} -> {got[name]!r})",
                        file=file,
                    )
                )
        for name in set(got) - set(example):
            out.append(
                error(
                    "fact-grammar-roundtrip",
                    f"fact kind {kind!r}: extractor invents field {name!r} absent "
                    f"from the example payload",
                    file=file,
                )
            )
    for kind in set(ctx.fact_examples) - set(ctx.fact_kinds):
        out.append(
            error(
                "fact-grammar-roundtrip",
                f"example payload for unknown fact kind {kind!r}",
                file=file,
            )
        )
    return out


@register_check(
    "fact-kind-flow",
    description="every fact kind has a producer and is consumed by a rule or declared context-only",
    tags=("facts", "rules"),
)
def check_fact_kind_flow(ctx: CheckContext) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    facts_file = ctx.location("facts")
    reasoning_file = ctx.location("reasoning")
    kinds = set(ctx.fact_kinds)

    for kind in sorted(kinds - ctx.produced_kinds):
        out.append(
            error(
                "fact-kind-flow",
                f"fact kind {kind!r} has no producer: no extractor constructs it",
                file=facts_file,
            )
        )
    for kind in sorted(ctx.produced_kinds - kinds):
        out.append(
            error(
                "fact-kind-flow",
                f"extractors construct unknown fact kind {kind!r} (not in the grammar)",
                file=facts_file,
            )
        )

    rule_kinds = set(ctx.rule_issues)
    support = set(ctx.support_kinds)
    context_only = set(ctx.context_only_kinds)

    for name, group in (("RULE_ISSUES", rule_kinds), ("SUPPORT_KINDS", support)):
        for kind in sorted(group - kinds):
            out.append(
                error(
                    "fact-kind-flow",
                    f"{name} names unknown fact kind {kind!r}",
                    file=reasoning_file,
                )
            )
    for kind in sorted(context_only - kinds):
        out.append(
            error("fact-kind-flow", f"CONTEXT_ONLY_KINDS names unknown fact kind {kind!r}", file=facts_file)
        )

    for kind in sorted((rule_kinds & context_only) | (support & context_only) | (rule_kinds & support)):
        out.append(
            error(
                "fact-kind-flow",
                f"fact kind {kind!r} is declared in more than one role "
                f"(rule / support / context-only must be disjoint)",
                file=reasoning_file,
            )
        )

    orphans = kinds - rule_kinds - support - context_only
    for kind in sorted(orphans):
        out.append(
            error(
                "fact-kind-flow",
                f"orphan fact kind {kind!r}: no consuming rule and not declared "
                f"context-only — either add a rule in repro.llm.reasoning or add it "
                f"to CONTEXT_ONLY_KINDS",
                file=facts_file,
            )
        )

    declared_consumed = rule_kinds | support
    for kind in sorted(declared_consumed - ctx.consumed_kinds - (declared_consumed - kinds)):
        out.append(
            error(
                "fact-kind-flow",
                f"fact kind {kind!r} is declared consumed (RULE_ISSUES/SUPPORT_KINDS) "
                f"but no rule code reads it",
                file=reasoning_file,
            )
        )
    for kind in sorted(ctx.consumed_kinds - declared_consumed):
        out.append(
            error(
                "fact-kind-flow",
                f"rule code consumes fact kind {kind!r} that is not declared in "
                f"RULE_ISSUES or SUPPORT_KINDS",
                file=reasoning_file,
            )
        )
    return out


@register_check(
    "suppression-dag",
    description="the deepest-cause suppression relation is a DAG with a total topological order",
    tags=("rules",),
)
def check_suppression_dag(ctx: CheckContext) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    file = ctx.location("reasoning")
    rules = list(ctx.temporal_rules)
    rule_set = set(rules)

    if len(rules) != len(rule_set):
        dupes = sorted({r for r in rules if rules.count(r) > 1})
        out.append(
            error("suppression-dag", f"duplicate temporal rules declared: {dupes}", file=file)
        )

    for rule in rules:
        if rule not in ctx.fact_kinds:
            out.append(
                error(
                    "suppression-dag",
                    f"temporal rule {rule!r} is unreachable: no such fact kind exists "
                    f"to ever trigger it",
                    file=file,
                )
            )
        if rule not in ctx.rule_issues:
            out.append(
                error(
                    "suppression-dag",
                    f"temporal rule {rule!r} is unreachable: it emits no issue "
                    f"(missing from RULE_ISSUES)",
                    file=file,
                )
            )

    edges = list(ctx.suppressions)
    for winner, loser in edges:
        if winner == loser:
            out.append(
                error("suppression-dag", f"rule {winner!r} suppresses itself", file=file)
            )
        for endpoint in (winner, loser):
            if endpoint not in rule_set:
                out.append(
                    error(
                        "suppression-dag",
                        f"suppression edge ({winner!r} -> {loser!r}) references "
                        f"undeclared rule {endpoint!r}",
                        file=file,
                    )
                )

    # Cycle detection over the declared edges (restricted to known rules).
    graph: dict[str, list[str]] = {r: [] for r in rule_set}
    for winner, loser in edges:
        if winner in rule_set and loser in rule_set and winner != loser:
            graph[winner].append(loser)
    state: dict[str, int] = {}  # 0 unvisited / 1 on stack / 2 done
    cycle: list[str] = []

    def visit(node: str, path: list[str]) -> bool:
        state[node] = 1
        path.append(node)
        for nxt in graph[node]:
            if state.get(nxt, 0) == 1:
                cycle.extend(path[path.index(nxt):] + [nxt])
                return True
            if state.get(nxt, 0) == 0 and visit(nxt, path):
                return True
        path.pop()
        state[node] = 2
        return False

    for node in graph:
        if state.get(node, 0) == 0 and visit(node, []):
            break
    if cycle:
        out.append(
            error(
                "suppression-dag",
                f"suppression relation is cyclic: {' -> '.join(cycle)} — no "
                f"deepest cause exists",
                file=file,
            )
        )

    # The declared order must be a *total* topological linearization.
    order = list(ctx.deepest_cause_order)
    if sorted(order) != sorted(rule_set):
        missing = sorted(rule_set - set(order))
        extra = sorted(set(order) - rule_set)
        dupes = sorted({r for r in order if order.count(r) > 1})
        detail = "; ".join(
            part
            for part in (
                f"missing {missing}" if missing else "",
                f"undeclared {extra}" if extra else "",
                f"duplicated {dupes}" if dupes else "",
            )
            if part
        )
        out.append(
            error(
                "suppression-dag",
                f"DEEPEST_CAUSE_ORDER is not a total order over the temporal rules ({detail})",
                file=file,
            )
        )
    else:
        position = {rule: i for i, rule in enumerate(order)}
        for winner, loser in edges:
            if winner in position and loser in position and position[winner] >= position[loser]:
                out.append(
                    error(
                        "suppression-dag",
                        f"DEEPEST_CAUSE_ORDER contradicts suppression edge "
                        f"({winner!r} suppresses {loser!r} but is ordered after it)",
                        file=file,
                    )
                )
    return out


@register_check(
    "scenario-ground-truth",
    description="scenario labels are canonical issue keys; every issue key is grounded",
    tags=("scenarios",),
)
def check_scenario_ground_truth(ctx: CheckContext) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    file = ctx.location("scenarios")
    issue_keys = set(ctx.issue_keys)
    grounded: set[str] = set()
    for scenario in ctx.scenarios:
        unknown = sorted(set(scenario.root_causes) - issue_keys)
        if unknown:
            out.append(
                error(
                    "scenario-ground-truth",
                    f"scenario {scenario.name!r} labels unknown root cause(s): {unknown}",
                    file=file,
                )
            )
        grounded |= set(scenario.root_causes) & issue_keys
    for key in sorted(issue_keys - grounded):
        out.append(
            error(
                "scenario-ground-truth",
                f"issue key {key!r} is grounded by no scenario: nothing in the "
                f"benchmark can ever test its detection",
                file=file,
            )
        )
    if not ctx.scenarios:
        out.append(error("scenario-ground-truth", "no scenarios are registered", file=file))
    return out


@register_check(
    "fuzz-ground-truth",
    description="the registered fuzz tier matches a deterministic regeneration of the pinned stream",
    tags=("scenarios", "fuzz"),
)
def check_fuzz_ground_truth(ctx: CheckContext) -> list[Diagnostic]:
    """Extend the ground-truth invariant to *generated* scenarios.

    Regenerates the pinned fuzz stream (sampling only, no trace builds)
    and verifies the registry holds exactly those scenarios with exactly
    the derived labels — any drift between the sampler and what tests and
    CI actually evaluate is an error.  Also checks each adversarial
    pair's declared masked keys are labels its bare twin carries.
    """
    from repro.workloads import fuzz

    out: list[Diagnostic] = []
    file = "src/repro/workloads/fuzz.py"
    registered = {s.name: s for s in ctx.scenarios if s.source == fuzz.FUZZ_SOURCE}
    expected = {
        s.name: frozenset(s.root_causes)
        for s in fuzz.generate_scenarios() + fuzz.adversarial_scenarios()
    }
    for name, causes in sorted(expected.items()):
        info = registered.pop(name, None)
        if info is None:
            out.append(
                error(
                    "fuzz-ground-truth",
                    f"fuzz scenario {name!r} is in the pinned stream but not registered",
                    file=file,
                )
            )
        elif frozenset(info.root_causes) != causes:
            out.append(
                error(
                    "fuzz-ground-truth",
                    f"fuzz scenario {name!r} registered with labels "
                    f"{sorted(info.root_causes)} but the pinned stream derives "
                    f"{sorted(causes)}",
                    file=file,
                )
            )
    for name in sorted(registered):
        out.append(
            error(
                "fuzz-ground-truth",
                f"registered fuzz scenario {name!r} is not part of the pinned "
                f"stream regeneration",
                file=file,
            )
        )
    adversarial = {s.name: frozenset(s.root_causes) for s in fuzz.adversarial_scenarios()}
    for pair in fuzz.ADVERSARIAL_PAIRS:
        stray = pair.masked_keys - adversarial.get(pair.bare_name, frozenset())
        if stray:
            out.append(
                error(
                    "fuzz-ground-truth",
                    f"adversarial pair {pair.name!r} declares masked keys "
                    f"{sorted(stray)} its bare twin does not even carry",
                    file=file,
                )
            )
    return out


@register_check(
    "issue-reachability",
    description="every issue key is reachable by at least one tool",
    tags=("rules", "triggers"),
)
def check_issue_reachability(ctx: CheckContext) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    issue_keys = set(ctx.issue_keys)
    by_rules: set[str] = set()
    for kind, keys in ctx.rule_issues.items():
        for key in keys:
            if key not in issue_keys:
                out.append(
                    error(
                        "issue-reachability",
                        f"expert rule for {kind!r} emits unknown issue key {key!r}",
                        file=ctx.location("reasoning"),
                    )
                )
            else:
                by_rules.add(key)
    by_triggers = {
        key for keys in ctx.trigger_issues.values() for key in keys if key in issue_keys
    }
    for key in sorted(issue_keys - by_rules - by_triggers):
        out.append(
            error(
                "issue-reachability",
                f"issue key {key!r} is unreachable: no expert rule, temporal fact "
                f"path, or Drishti trigger can ever assert it",
                file=ctx.location("issues"),
            )
        )
    return out


@register_check(
    "trigger-issue-map",
    description="the Drishti trigger<->issue mapping is total, canonical, and gap-declared",
    tags=("triggers",),
)
def check_trigger_issue_map(ctx: CheckContext) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    file = ctx.location("triggers")
    registered = set(ctx.trigger_names)
    mapped = set(ctx.trigger_issues)
    for code in sorted(registered - mapped):
        out.append(
            error(
                "trigger-issue-map",
                f"trigger {code!r} is registered but missing from TRIGGER_ISSUES",
                file=file,
            )
        )
    for code in sorted(mapped - registered):
        out.append(
            error(
                "trigger-issue-map",
                f"TRIGGER_ISSUES maps unregistered trigger {code!r}",
                file=file,
            )
        )
    issue_keys = set(ctx.issue_keys)
    covered: set[str] = set()
    for code, keys in ctx.trigger_issues.items():
        for key in keys:
            if key not in issue_keys:
                out.append(
                    error(
                        "trigger-issue-map",
                        f"trigger {code!r} maps to unknown issue key {key!r}",
                        file=file,
                    )
                )
            else:
                covered.add(key)
    declared_gap = set(ctx.untriggered_issues)
    actual_gap = issue_keys - covered
    for key in sorted(actual_gap - declared_gap):
        out.append(
            error(
                "trigger-issue-map",
                f"issue key {key!r} has no trigger but is not declared in "
                f"UNTRIGGERED_ISSUES",
                file=file,
            )
        )
    for key in sorted(declared_gap - actual_gap):
        out.append(
            error(
                "trigger-issue-map",
                f"UNTRIGGERED_ISSUES declares {key!r} untriggered, but a trigger "
                f"maps to it (stale declaration)" if key in issue_keys else
                f"UNTRIGGERED_ISSUES names unknown issue key {key!r}",
                file=file,
            )
        )
    return out


_REQUIRED_TOOLS = ("drishti", "ioagent", "ion")


@register_check(
    "tool-registry",
    description="tool registrations are well-formed, complete, and CLI-reachable",
    tags=("tools",),
)
def check_tool_registry(ctx: CheckContext) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    file = ctx.location("tools")
    for name in _REQUIRED_TOOLS:
        if name not in ctx.tool_names:
            out.append(
                error(
                    "tool-registry",
                    f"built-in tool {name!r} is not registered — a Table IV row is gone",
                    file=file,
                )
            )
    for name in ctx.tool_names:
        if not name or not all(c.isalnum() or c in "-_" for c in name) or not name[0].isalpha():
            out.append(
                error(
                    "tool-registry",
                    f"tool name {name!r} is not a valid CLI token "
                    f"(letters, digits, '-', '_'; starts with a letter)",
                    file=file,
                )
            )
        if name in ctx.reserved_cli_commands and name != "diagnose":
            out.append(
                warning(
                    "tool-registry",
                    f"tool name {name!r} collides with a reserved CLI command and "
                    f"gets no subcommand",
                    file=file,
                )
            )
    return out


@register_check(
    "resilience-contract",
    description="fault plans use registered kinds, every kind is exercised, stages declare coherent failure contracts",
    tags=("resilience",),
)
def check_resilience_contract(ctx: CheckContext) -> list[Diagnostic]:
    """The chaos gate is only as honest as this wiring.

    A plan referencing an unregistered kind silently injects nothing; a
    registered kind no plan exercises is untested weather; a
    ``stage-crash`` aimed at an abort stage would crash the service the
    gate promises never crashes; and a stage declaring ``degrade`` with
    no channel would produce degraded reports that cannot say what they
    lost.
    """
    out: list[Diagnostic] = []
    faults_file = ctx.location("faults")
    stages_file = ctx.location("stages")
    kinds = set(ctx.fault_kinds)
    stage_by_name = {p.name: p for p in ctx.stage_policies}

    if not ctx.fault_plans:
        out.append(
            error("resilience-contract", "no fault plans are registered: the chaos gate sweeps nothing", file=faults_file)
        )
    exercised: set[str] = set()
    for plan in ctx.fault_plans:
        if not plan.specs:
            out.append(
                error(
                    "resilience-contract",
                    f"fault plan {plan.name!r} has no fault specs",
                    file=faults_file,
                )
            )
        for kind, rate, scope in plan.specs:
            if kind not in kinds:
                out.append(
                    error(
                        "resilience-contract",
                        f"fault plan {plan.name!r} uses unregistered fault kind {kind!r}",
                        file=faults_file,
                    )
                )
                continue
            exercised.add(kind)
            if not 0.0 <= rate <= 1.0:
                out.append(
                    error(
                        "resilience-contract",
                        f"fault plan {plan.name!r}: {kind!r} rate {rate} outside [0, 1]",
                        file=faults_file,
                    )
                )
            if kind == "stage-crash":
                policy = stage_by_name.get(scope)
                if policy is None:
                    out.append(
                        error(
                            "resilience-contract",
                            f"fault plan {plan.name!r}: stage-crash scope {scope!r} "
                            f"names no pipeline stage",
                            file=faults_file,
                        )
                    )
                elif policy.failure_mode != "degrade":
                    out.append(
                        error(
                            "resilience-contract",
                            f"fault plan {plan.name!r}: stage-crash targets "
                            f"{scope!r}, an abort stage — the sweep would crash the "
                            f"service the chaos gate asserts never crashes",
                            file=faults_file,
                        )
                    )
    for kind in sorted(kinds - exercised):
        out.append(
            error(
                "resilience-contract",
                f"fault kind {kind!r} is registered but exercised by no pinned "
                f"plan: that failure mode is never chaos-tested",
                file=faults_file,
            )
        )

    if not ctx.stage_policies:
        out.append(
            error("resilience-contract", "no stage failure contracts declared", file=stages_file)
        )
    for policy in ctx.stage_policies:
        if policy.failure_mode not in ("abort", "degrade"):
            out.append(
                error(
                    "resilience-contract",
                    f"stage {policy.name!r} declares unknown failure_mode "
                    f"{policy.failure_mode!r} (expected 'abort' or 'degrade')",
                    file=stages_file,
                )
            )
        if policy.failure_mode == "degrade" and not policy.channel:
            out.append(
                error(
                    "resilience-contract",
                    f"stage {policy.name!r} degrades but names no evidence channel — "
                    f"its degraded reports could not say what they lost",
                    file=stages_file,
                )
            )
    return out
