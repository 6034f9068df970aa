"""Tests for the `repro.analysis` static analyzer.

Three layers: the check registry itself, every built-in check against
the *real* repository (all green), and every built-in check against
deliberately broken fixture contexts (precise diagnostics, non-zero
exit). The fixtures are inert `CheckContext` values — no live registry
is ever monkeypatched.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    CheckContext,
    CheckNotFoundError,
    Diagnostic,
    available_checks,
    error,
    get_check,
    has_errors,
    register_check,
    run_checks,
    unregister_check,
)
from repro.analysis.cli import main as analysis_main
from repro.analysis.context import consumed_fact_kinds, produced_fact_kinds
from repro.analysis.typing_gate import (
    bucket_errors,
    check_ratchet_monotonic,
    evaluate_budgets,
    module_bucket,
    run_typing_gate,
)

REPO_ROOT = Path(__file__).resolve().parents[1]

EXPECTED_CHECKS = {
    "fact-grammar-roundtrip",
    "fact-kind-flow",
    "suppression-dag",
    "scenario-ground-truth",
    "issue-reachability",
    "trigger-issue-map",
    "tool-registry",
    "unseeded-random",
    "segtable-private",
    "service-locked-mutation",
    "threads-in-serve",
}


@pytest.fixture(scope="module")
def repo_ctx() -> CheckContext:
    return CheckContext.from_repo(REPO_ROOT)


def _errors(results: dict[str, list[Diagnostic]], name: str) -> list[str]:
    return [d.message for d in results[name] if d.severity == "error"]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_builtin_checks_registered(self) -> None:
        assert EXPECTED_CHECKS <= set(available_checks())

    def test_register_and_unregister(self) -> None:
        @register_check("test-dummy", description="dummy", tags=("test",))
        def dummy(ctx: CheckContext) -> list[Diagnostic]:
            return [error("test-dummy", "boom")]

        try:
            assert "test-dummy" in available_checks()
            check = get_check("test-dummy")
            assert check.description == "dummy"
        finally:
            unregister_check("test-dummy")
        assert "test-dummy" not in available_checks()

    def test_duplicate_registration_rejected(self) -> None:
        with pytest.raises(ValueError, match="already registered"):
            register_check("fact-kind-flow", lambda ctx: [])

    def test_unknown_check_error_lists_available(self) -> None:
        with pytest.raises(CheckNotFoundError, match="fact-kind-flow"):
            get_check("no-such-check")

    def test_crashing_check_becomes_diagnostic(self, repo_ctx: CheckContext) -> None:
        def crash(ctx: CheckContext) -> list[Diagnostic]:
            raise RuntimeError("kaboom")

        register_check("test-crash", crash)
        try:
            results = run_checks(repo_ctx, ["test-crash"])
        finally:
            unregister_check("test-crash")
        assert has_errors(results["test-crash"])
        assert "kaboom" in results["test-crash"][0].message

    def test_diagnostic_format_and_severity(self) -> None:
        diag = error("x", "msg", file="src/a.py", line=3)
        assert diag.format() == "src/a.py:3: error: [x] msg"
        with pytest.raises(ValueError, match="severity"):
            Diagnostic(check="x", message="m", severity="fatal")


# ---------------------------------------------------------------------------
# The real repository is invariant-clean
# ---------------------------------------------------------------------------


class TestRepoIsClean:
    def test_all_checks_green(self, repo_ctx: CheckContext) -> None:
        results = run_checks(repo_ctx)
        failing = {
            name: [d.format() for d in diags if d.severity == "error"]
            for name, diags in results.items()
            if has_errors(diags)
        }
        assert not failing, f"invariant violations in the live repo: {failing}"

    def test_cli_exits_zero_on_repo(self, capsys: pytest.CaptureFixture[str]) -> None:
        assert analysis_main(["--no-mypy"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_cli_list(self, capsys: pytest.CaptureFixture[str]) -> None:
        assert analysis_main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in EXPECTED_CHECKS:
            assert name in out

    def test_cli_unknown_check_exits_2(self, capsys: pytest.CaptureFixture[str]) -> None:
        assert analysis_main(["--no-mypy", "--checks", "nope"]) == 2

    def test_module_entry_point_fast(self) -> None:
        # The acceptance bar: the full domain leg through the real CLI
        # stays under the 5s fast-mode budget.
        import sys
        import time

        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--no-mypy", "-q"],
            cwd=REPO_ROOT,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
            timeout=60,
        )
        elapsed = time.monotonic() - start
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert elapsed < 5.0, f"analyzer took {elapsed:.1f}s (budget 5s)"


# ---------------------------------------------------------------------------
# Broken-fixture contexts: each invariant fires with a precise diagnostic
# ---------------------------------------------------------------------------


class TestBrokenFixtures:
    def test_cyclic_suppression(self, repo_ctx: CheckContext) -> None:
        bad = dataclasses.replace(
            repo_ctx,
            suppressions=repo_ctx.suppressions + (("dxt_idle", "dxt_ost_latency"),),
        )
        msgs = _errors(run_checks(bad, ["suppression-dag"]), "suppression-dag")
        assert any("cyclic" in m and "dxt_idle" in m for m in msgs)

    def test_order_contradicts_edge(self, repo_ctx: CheckContext) -> None:
        order = list(repo_ctx.deepest_cause_order)
        order[0], order[-1] = order[-1], order[0]
        bad = dataclasses.replace(repo_ctx, deepest_cause_order=tuple(order))
        msgs = _errors(run_checks(bad, ["suppression-dag"]), "suppression-dag")
        assert any("contradicts suppression edge" in m for m in msgs)

    def test_order_not_total(self, repo_ctx: CheckContext) -> None:
        bad = dataclasses.replace(
            repo_ctx, deepest_cause_order=repo_ctx.deepest_cause_order[:-1]
        )
        msgs = _errors(run_checks(bad, ["suppression-dag"]), "suppression-dag")
        assert any("not a total order" in m and "dxt_idle" in m for m in msgs)

    def test_unreachable_temporal_rule(self, repo_ctx: CheckContext) -> None:
        rule_issues = dict(repo_ctx.rule_issues)
        del rule_issues["dxt_idle"]
        bad = dataclasses.replace(repo_ctx, rule_issues=rule_issues)
        msgs = _errors(run_checks(bad, ["suppression-dag"]), "suppression-dag")
        assert any("unreachable" in m and "dxt_idle" in m for m in msgs)

    def test_self_suppression(self, repo_ctx: CheckContext) -> None:
        bad = dataclasses.replace(
            repo_ctx, suppressions=repo_ctx.suppressions + (("dxt_idle", "dxt_idle"),)
        )
        msgs = _errors(run_checks(bad, ["suppression-dag"]), "suppression-dag")
        assert any("suppresses itself" in m for m in msgs)

    def test_orphan_fact_kind(self, repo_ctx: CheckContext) -> None:
        bad = dataclasses.replace(
            repo_ctx,
            context_only_kinds=frozenset(repo_ctx.context_only_kinds - {"mount"}),
        )
        msgs = _errors(run_checks(bad, ["fact-kind-flow"]), "fact-kind-flow")
        assert any("orphan fact kind 'mount'" in m for m in msgs)

    def test_kind_in_two_roles(self, repo_ctx: CheckContext) -> None:
        bad = dataclasses.replace(
            repo_ctx,
            context_only_kinds=frozenset(repo_ctx.context_only_kinds | {"size_hist"}),
        )
        msgs = _errors(run_checks(bad, ["fact-kind-flow"]), "fact-kind-flow")
        assert any("more than one role" in m and "size_hist" in m for m in msgs)

    def test_unproduced_fact_kind(self, repo_ctx: CheckContext) -> None:
        bad = dataclasses.replace(
            repo_ctx, produced_kinds=frozenset(repo_ctx.produced_kinds - {"meta"})
        )
        msgs = _errors(run_checks(bad, ["fact-kind-flow"]), "fact-kind-flow")
        assert any("no producer" in m and "'meta'" in m for m in msgs)

    def test_undeclared_consumption(self, repo_ctx: CheckContext) -> None:
        rule_issues = dict(repo_ctx.rule_issues)
        del rule_issues["meta"]
        bad = dataclasses.replace(
            repo_ctx,
            rule_issues=rule_issues,
            context_only_kinds=frozenset(repo_ctx.context_only_kinds | {"meta"}),
        )
        msgs = _errors(run_checks(bad, ["fact-kind-flow"]), "fact-kind-flow")
        assert any("not declared in" in m and "'meta'" in m for m in msgs)

    def test_broken_roundtrip_example(self, repo_ctx: CheckContext) -> None:
        examples = dict(repo_ctx.fact_examples)
        examples["meta"] = {"wrong_field": 1}
        bad = dataclasses.replace(repo_ctx, fact_examples=examples)
        msgs = _errors(
            run_checks(bad, ["fact-grammar-roundtrip"]), "fact-grammar-roundtrip"
        )
        assert any("'meta'" in m for m in msgs)

    def test_phrase_missing_from_rendering(self, repo_ctx: CheckContext) -> None:
        phrases = dict(repo_ctx.fact_phrases)
        phrases["meta"] = " never rendered "
        bad = dataclasses.replace(repo_ctx, fact_phrases=phrases)
        msgs = _errors(
            run_checks(bad, ["fact-grammar-roundtrip"]), "fact-grammar-roundtrip"
        )
        assert len(msgs) == 1
        assert "'meta'" in msgs[0] and "lacks the phrase ' never rendered '" in msgs[0]

    def test_live_phrases_cover_every_kind(self, repo_ctx: CheckContext) -> None:
        assert set(repo_ctx.fact_phrases) == set(repo_ctx.fact_kinds)
        assert all(repo_ctx.fact_phrases.values())

    def test_missing_example(self, repo_ctx: CheckContext) -> None:
        examples = dict(repo_ctx.fact_examples)
        del examples["meta"]
        bad = dataclasses.replace(repo_ctx, fact_examples=examples)
        msgs = _errors(
            run_checks(bad, ["fact-grammar-roundtrip"]), "fact-grammar-roundtrip"
        )
        assert any("no example payload" in m and "'meta'" in m for m in msgs)

    def test_bad_scenario_root_cause(self, repo_ctx: CheckContext) -> None:
        from repro.analysis import ScenarioInfo

        bad = dataclasses.replace(
            repo_ctx,
            scenarios=repo_ctx.scenarios
            + (
                ScenarioInfo(
                    name="broken_fixture",
                    root_causes=frozenset({"not_an_issue_key"}),
                ),
            ),
        )
        msgs = _errors(
            run_checks(bad, ["scenario-ground-truth"]), "scenario-ground-truth"
        )
        assert any(
            "broken_fixture" in m and "not_an_issue_key" in m for m in msgs
        )

    def test_ungrounded_issue_key(self, repo_ctx: CheckContext) -> None:
        bad = dataclasses.replace(
            repo_ctx, issue_keys=repo_ctx.issue_keys + ("phantom_issue",)
        )
        msgs = _errors(
            run_checks(bad, ["scenario-ground-truth"]), "scenario-ground-truth"
        )
        assert any("phantom_issue" in m and "no scenario" in m for m in msgs)

    def test_unreachable_issue_key(self, repo_ctx: CheckContext) -> None:
        bad = dataclasses.replace(
            repo_ctx,
            issue_keys=repo_ctx.issue_keys + ("phantom_issue",),
            untriggered_issues=repo_ctx.untriggered_issues + ("phantom_issue",),
        )
        msgs = _errors(run_checks(bad, ["issue-reachability"]), "issue-reachability")
        assert any("phantom_issue" in m and "unreachable" in m for m in msgs)

    def test_trigger_map_gap_and_stale(self, repo_ctx: CheckContext) -> None:
        trigger_issues = dict(repo_ctx.trigger_issues)
        del trigger_issues["POSIX_SMALL_READS"]
        trigger_issues["NOT_A_TRIGGER"] = ("small_read",)
        bad = dataclasses.replace(repo_ctx, trigger_issues=trigger_issues)
        msgs = _errors(run_checks(bad, ["trigger-issue-map"]), "trigger-issue-map")
        assert any(
            "POSIX_SMALL_READS" in m and "missing from TRIGGER_ISSUES" in m
            for m in msgs
        )
        assert any("NOT_A_TRIGGER" in m and "unregistered" in m for m in msgs)

    def test_undeclared_trigger_gap(self, repo_ctx: CheckContext) -> None:
        bad = dataclasses.replace(repo_ctx, untriggered_issues=())
        msgs = _errors(run_checks(bad, ["trigger-issue-map"]), "trigger-issue-map")
        assert any("no_mpi" in m and "UNTRIGGERED_ISSUES" in m for m in msgs)

    def test_missing_builtin_tool(self, repo_ctx: CheckContext) -> None:
        bad = dataclasses.replace(
            repo_ctx, tool_names=tuple(n for n in repo_ctx.tool_names if n != "ion")
        )
        msgs = _errors(run_checks(bad, ["tool-registry"]), "tool-registry")
        assert any("'ion'" in m for m in msgs)

    def test_reserved_cli_collision_warns(self, repo_ctx: CheckContext) -> None:
        bad = dataclasses.replace(repo_ctx, tool_names=repo_ctx.tool_names + ("chat",))
        results = run_checks(bad, ["tool-registry"])
        warnings = [
            d for d in results["tool-registry"] if d.severity == "warning"
        ]
        assert any("'chat'" in d.message for d in warnings)


# ---------------------------------------------------------------------------
# AST lint rules on seeded fixture trees
# ---------------------------------------------------------------------------


def _lint_ctx(repo_ctx: CheckContext, tmp_path: Path, files: dict[str, str]) -> CheckContext:
    for rel, text in files.items():
        path = tmp_path / "src" / "repro" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return dataclasses.replace(repo_ctx, src_root=tmp_path / "src")


class TestLintRules:
    def test_unseeded_random_violations(
        self, repo_ctx: CheckContext, tmp_path: Path
    ) -> None:
        ctx = _lint_ctx(
            repo_ctx,
            tmp_path,
            {
                "core/bad.py": """\
                import random
                from random import choice
                import numpy as np

                x = np.random.rand(4)
                rng = np.random.default_rng()
                """,
                "util/rng.py": "import random  # exempt: the one sanctioned seed source\n",
                "core/good.py": """\
                import numpy as np

                rng = np.random.default_rng(123)
                """,
            },
        )
        diags = run_checks(ctx, ["unseeded-random"])["unseeded-random"]
        files_lines = {(d.file, d.line) for d in diags}
        assert ("src/repro/core/bad.py", 1) in files_lines  # import random
        assert ("src/repro/core/bad.py", 2) in files_lines  # from random import
        assert ("src/repro/core/bad.py", 5) in files_lines  # np.random.rand
        assert ("src/repro/core/bad.py", 6) in files_lines  # default_rng()
        assert not any(d.file.endswith("rng.py") for d in diags)
        assert not any(d.file.endswith("good.py") for d in diags)

    def test_segtable_private_violations(
        self, repo_ctx: CheckContext, tmp_path: Path
    ) -> None:
        ctx = _lint_ctx(
            repo_ctx,
            tmp_path,
            {
                "core/bad.py": """\
                from repro.darshan.segtable import _normalize_rows
                import repro.darshan.segtable as segtable
                from repro.darshan.countertable import _Row

                rows = segtable._columns
                """,
                "darshan/internal.py": """\
                from repro.darshan.segtable import _normalize_rows
                """,
                "core/good.py": """\
                from repro.darshan.segtable import SegmentTable
                """,
            },
        )
        diags = run_checks(ctx, ["segtable-private"])["segtable-private"]
        msgs = [d.message for d in diags]
        assert any("_normalize_rows" in m for m in msgs)
        assert any("segtable._columns" in m for m in msgs)
        assert any("'_Row' is a private name of repro.darshan.countertable" in m for m in msgs)
        assert not any(d.file and "darshan/" in d.file for d in diags)
        assert not any(d.file.endswith("good.py") for d in diags)

    def test_service_lock_rule(self, repo_ctx: CheckContext, tmp_path: Path) -> None:
        ctx = _lint_ctx(
            repo_ctx,
            tmp_path,
            {
                "core/service.py": """\
                class DiagnosisService:
                    def __init__(self):
                        self._cache = {}   # allowed: pre-sharing construction
                        self.cache_hits = 0

                    def good(self, key, value):
                        with self._cache_lock:
                            self._cache[key] = value
                            self.cache_hits += 1

                    def bad(self, key, value):
                        self._cache[key] = value
                        self.cache_hits += 1
                        self._cache.clear()
                """,
            },
        )
        diags = run_checks(ctx, ["service-locked-mutation"])["service-locked-mutation"]
        lines = sorted(d.line for d in diags)
        assert lines == [12, 13, 14]
        assert all("_cache_lock" in d.message for d in diags)

    def test_threads_in_serve_violations(
        self, repo_ctx: CheckContext, tmp_path: Path
    ) -> None:
        ctx = _lint_ctx(
            repo_ctx,
            tmp_path,
            {
                "core/bad.py": """\
                import threading
                from concurrent.futures import ThreadPoolExecutor
                import multiprocessing as mp
                from threading import Thread as T

                threading.Thread(target=print).start()
                """,
                "serve/pool.py": """\
                import threading
                from concurrent.futures import ThreadPoolExecutor

                threading.Thread(target=print).start()
                """,
                "core/good.py": """\
                import threading

                lock = threading.Lock()
                """,
            },
        )
        diags = run_checks(ctx, ["threads-in-serve"])["threads-in-serve"]
        assert sorted((d.file, d.line) for d in diags) == [
            ("src/repro/core/bad.py", line) for line in (2, 3, 4, 6)
        ]
        assert all("repro/serve/" in d.message for d in diags)

    def test_live_tree_is_lint_clean(self, repo_ctx: CheckContext) -> None:
        results = run_checks(
            repo_ctx,
            [
                "unseeded-random",
                "segtable-private",
                "service-locked-mutation",
                "threads-in-serve",
            ],
        )
        bad = [d.format() for diags in results.values() for d in diags]
        assert not bad, bad

    def test_clear_cache_resets_counters_under_lock(self) -> None:
        # Pinned regression: clear_cache used to reset the hit/miss
        # counters outside _cache_lock; the lint rule now guards it, and
        # this asserts the live file stays clean under that exact rule.
        import ast as ast_mod

        source = (REPO_ROOT / "src/repro/core/service.py").read_text()
        tree = ast_mod.parse(source)
        clear_cache = next(
            node
            for node in ast_mod.walk(tree)
            if isinstance(node, ast_mod.FunctionDef) and node.name == "clear_cache"
        )
        # Every statement in clear_cache (past the docstring) is inside
        # the with-lock block.
        body = [
            stmt
            for stmt in clear_cache.body
            if not (
                isinstance(stmt, ast_mod.Expr) and isinstance(stmt.value, ast_mod.Constant)
            )
        ]
        assert len(body) == 1
        assert isinstance(body[0], ast_mod.With)


# ---------------------------------------------------------------------------
# AST scanners
# ---------------------------------------------------------------------------


class TestScanners:
    def test_produced_and_consumed(self, tmp_path: Path) -> None:
        producer = tmp_path / "producer.py"
        producer.write_text(
            'from repro.llm.facts import Fact\n'
            'f1 = Fact("alpha", {"x": 1})\n'
            'f2 = Fact(kind="beta", data={})\n'
        )
        consumer = tmp_path / "consumer.py"
        consumer.write_text('val = kinds.get("alpha")\nother = kinds.get(name)\n')
        assert produced_fact_kinds([producer]) == {"alpha", "beta"}
        assert consumed_fact_kinds([consumer]) == {"alpha"}

    def test_real_producers_cover_grammar(self, repo_ctx: CheckContext) -> None:
        assert set(repo_ctx.fact_kinds) == set(repo_ctx.produced_kinds)


# ---------------------------------------------------------------------------
# Typing gate
# ---------------------------------------------------------------------------


class TestTypingGate:
    def test_module_bucketing(self) -> None:
        assert module_bucket("src/repro/core/service.py") == "core"
        assert module_bucket("src/repro/cli.py") == "cli"
        assert module_bucket("somewhere/else.py") == "<other>"

    def test_bucket_errors_parses_mypy_output(self) -> None:
        output = textwrap.dedent(
            """\
            src/repro/core/service.py:10: error: Incompatible types  [assignment]
            src/repro/core/agent.py:5:17: error: Missing return  [return]
            src/repro/llm/facts.py:2: error: boom  [misc]
            src/repro/llm/facts.py:3: note: See docs
            Found 3 errors in 3 files
            """
        )
        assert bucket_errors(output) == {"core": 2, "llm": 1}

    def test_evaluate_budgets(self) -> None:
        failures = evaluate_budgets({"core": 3, "llm": 1}, {"core": 2, "llm": 5})
        assert len(failures) == 1
        assert "repro/core" in failures[0] and "budget 2" in failures[0]

    def test_ratchet_file_is_valid_and_covers_packages(self) -> None:
        data = json.loads((REPO_ROOT / "mypy-ratchet.json").read_text())
        budgets = data["budgets"]
        assert all(isinstance(v, int) and v >= 0 for v in budgets.values())
        # The new analysis package starts — and must stay — strict.
        assert budgets["analysis"] == 0

    def test_ratchet_monotonic_on_checkout(self) -> None:
        assert check_ratchet_monotonic(REPO_ROOT) == []

    def test_ratchet_loosening_detected(self, tmp_path: Path) -> None:
        subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
        ratchet = tmp_path / "mypy-ratchet.json"
        ratchet.write_text(json.dumps({"budgets": {"core": 2, "llm": 0}}))
        subprocess.run(["git", "add", "-A"], cwd=tmp_path, check=True)
        subprocess.run(
            [
                "git",
                "-c",
                "user.email=t@t",
                "-c",
                "user.name=t",
                "commit",
                "-qm",
                "seed",
            ],
            cwd=tmp_path,
            check=True,
        )
        ratchet.write_text(json.dumps({"budgets": {"core": 5}}))
        violations = check_ratchet_monotonic(tmp_path)
        assert any("'core' loosened 2 -> 5" in v for v in violations)
        assert not any("'llm'" in v for v in violations)  # zero entry may drop

        ratchet.write_text(json.dumps({"budgets": {"llm": 0}}))
        violations = check_ratchet_monotonic(tmp_path)
        assert any("'core'" in v and "removed" in v for v in violations)

    def test_gate_skips_cleanly_without_mypy(
        self, tmp_path: Path, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        import repro.analysis.typing_gate as tg

        (tmp_path / "mypy-ratchet.json").write_text(json.dumps({"budgets": {}}))
        monkeypatch.setattr(tg, "mypy_available", lambda: False)
        result = run_typing_gate(tmp_path)
        assert result.ok and result.skipped
        assert "SKIPPED" in result.summary()
        required = run_typing_gate(tmp_path, require=True)
        assert not required.ok
        assert any("--require-mypy" in m for m in required.messages)

    def test_gate_fails_without_ratchet_file(self, tmp_path: Path) -> None:
        result = run_typing_gate(tmp_path)
        assert not result.ok
        assert any("mypy-ratchet.json" in m for m in result.messages)

    def test_gate_with_fake_mypy(
        self, tmp_path: Path, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        import repro.analysis.typing_gate as tg

        (tmp_path / "mypy-ratchet.json").write_text(
            json.dumps({"budgets": {"core": 0}})
        )
        monkeypatch.setattr(tg, "mypy_available", lambda: True)
        monkeypatch.setattr(
            tg,
            "run_mypy",
            lambda root: (1, "src/repro/core/x.py:1: error: bad  [misc]\n"),
        )
        result = run_typing_gate(tmp_path)
        assert not result.ok
        assert any("repro/core has 1 mypy errors" in m for m in result.messages)

        monkeypatch.setattr(tg, "run_mypy", lambda root: (0, ""))
        assert run_typing_gate(tmp_path).ok


# ---------------------------------------------------------------------------
# Pinned regressions surfaced while building the analyzer
# ---------------------------------------------------------------------------


class TestPinnedRegressions:
    def test_context_only_partition_exact(self, repo_ctx: CheckContext) -> None:
        # CONTEXT_ONLY_KINDS was derived from the actual rule dataflow;
        # pin the exact partition so a rule silently dropping a kind fails
        # here, not just in the analyzer.
        assert frozenset(repo_ctx.context_only_kinds) == frozenset(
            {"counts", "volume", "mount", "stripe", "dxt_timeline"}
        )
        assert set(repo_ctx.rule_issues) | set(repo_ctx.support_kinds) | set(
            repo_ctx.context_only_kinds
        ) == set(repo_ctx.fact_kinds)

    def test_drishti_gap_is_declared_exactly(self, repo_ctx: CheckContext) -> None:
        covered = {
            key for keys in repo_ctx.trigger_issues.values() for key in keys
        }
        # no_mpi is the paper's critique; trend_regression is structurally
        # out of reach for a single-trace tool (it lives across a series).
        assert set(repo_ctx.issue_keys) - covered == {"no_mpi", "trend_regression"}

    def test_fact_examples_roundtrip_live(self) -> None:
        from repro.llm.facts import (
            FACT_KINDS,
            example_fact,
            extract_facts,
            render_fact,
        )

        for kind in FACT_KINDS:
            fact = example_fact(kind)
            recovered = [
                f for f in extract_facts(render_fact(fact)) if f.kind == kind
            ]
            assert len(recovered) == 1, kind
