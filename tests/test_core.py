"""Tests for the IOAgent core pipeline."""

from __future__ import annotations

import inspect
import json
import os
from collections import Counter

import pytest

from repro.core.agent import IOAgent, IOAgentConfig
from repro.core.describe import context_sentences, describe_fragment
from repro.core.issues import ISSUE_KEYS, ISSUES, issue_by_key
from repro.core.merge import one_step_merge, tree_merge
from repro.core.preprocess import split_modules, write_module_csvs
from repro.core.session import InteractiveSession
from repro.core.summaries import (
    SUMMARY_COVERAGE,
    app_context_facts,
    extract_fragments,
    extractor_source,
)
from repro.llm.findings import Finding, parse_findings, render_findings


class TestIssues:
    def test_taxonomy_size(self):
        # The paper's 16 Table II issues plus the two time-domain
        # extension issues (lock_contention, io_stall) and the
        # longitudinal one (trend_regression).
        assert len(ISSUES) == 19
        assert len(set(ISSUE_KEYS)) == 19
        assert {"lock_contention", "io_stall", "trend_regression"} <= set(ISSUE_KEYS)

    def test_lookup(self):
        assert issue_by_key("small_write").label == "Small Write I/O Requests"
        with pytest.raises(KeyError):
            issue_by_key("nope")

    def test_aliases_lowercase(self):
        for issue in ISSUES:
            assert all(a == a.lower() for a in issue.aliases)


class TestPreprocess:
    def test_split_modules_covers_present_modules(self, sb01_trace):
        tables = split_modules(sb01_trace.log)
        assert set(tables) == {"POSIX", "MPIIO", "LUSTRE"}
        posix = tables["POSIX"]
        assert posix.rows and posix.columns[0].startswith("POSIX_")

    def test_csv_render_shape(self, sb01_trace):
        table = split_modules(sb01_trace.log)["POSIX"]
        lines = table.to_csv().strip().splitlines()
        assert len(lines) == len(table.rows) + 1
        assert lines[0].startswith("file,rank,")

    def test_write_module_csvs(self, sb01_trace, tmp_path):
        paths = write_module_csvs(sb01_trace.log, str(tmp_path))
        assert {os.path.basename(p) for p in paths} == {"posix.csv", "mpiio.csv", "lustre.csv"}
        for p in paths:
            assert os.path.getsize(p) > 0


class TestSummaries:
    def test_table1_coverage_matrix(self):
        """The Table I checkmarks, exactly."""
        assert SUMMARY_COVERAGE["POSIX"] == (
            "io_size", "request_count", "file_metadata", "rank", "alignment", "order", "mount",
        )
        assert SUMMARY_COVERAGE["MPIIO"] == (
            "io_size", "request_count", "file_metadata", "rank", "alignment",
        )
        assert SUMMARY_COVERAGE["STDIO"] == ("io_size", "request_count", "file_metadata")
        assert SUMMARY_COVERAGE["LUSTRE"] == ("mount", "stripe_setting", "server_usage")

    def test_fragments_have_code_and_json(self, sb01_trace):
        fragments = extract_fragments(sb01_trace.log)
        assert fragments
        for frag in fragments:
            assert "def extract_" in frag.code
            payload = frag.to_json()
            json.dumps(payload)  # JSON-serializable
            assert payload["module"] == frag.module

    def test_each_extractor_source_is_read_once(self, sb01_trace, monkeypatch):
        reads: Counter = Counter()
        getsource = inspect.getsource

        def counting_getsource(obj):
            reads[obj] += 1
            return getsource(obj)

        extractor_source.cache_clear()
        monkeypatch.setattr(inspect, "getsource", counting_getsource)
        first = [f.code for f in extract_fragments(sb01_trace.log)]
        second = [f.code for f in extract_fragments(sb01_trace.log)]
        assert first == second
        assert set(first) == {getsource(fn) for fn in reads}  # byte-identical text
        assert reads and max(reads.values()) == 1

    def test_sb01_has_small_write_signal(self, sb01_trace):
        fragments = {f.fragment_id: f for f in extract_fragments(sb01_trace.log)}
        size = fragments["POSIX.io_size"]
        fact = next(f for f in size.facts if f.kind == "size_hist" and f.get("direction") == "write")
        assert fact.get("small_fraction") > 0.9
        assert fact.get("n_requests") == 20000

    def test_app_context_facts(self, sb01_trace):
        facts = app_context_facts(sb01_trace.log)
        kinds = {f.kind for f in facts}
        assert kinds == {"app_context", "mpi_presence"}
        mpi = next(f for f in facts if f.kind == "mpi_presence")
        assert mpi.get("mpiio_used") is True


class TestDescribe:
    def test_description_carries_quantities(self, sb01_trace, client):
        fragments = {f.fragment_id: f for f in extract_fragments(sb01_trace.log)}
        desc = describe_fragment(
            fragments["POSIX.io_size"],
            app_context_facts(sb01_trace.log),
            client,
            "gpt-4o",
            call_id="t/desc",
        )
        assert "20000" in desc  # the Fig. 3 property: values preserved in NL
        assert "POSIX" in desc

    def test_context_sentences_renders_all(self, sb01_trace):
        text = context_sentences(app_context_facts(sb01_trace.log))
        assert "4 processes" in text


class TestMerge:
    def _summary(self, key: str) -> str:
        return render_findings(
            [Finding(issue_key=key, evidence=f"E-{key}", assessment="A", recommendation="R")]
        )

    def test_tree_merge_retains_all_findings(self, client):
        keys = ["small_write", "misaligned_write", "server_imbalance", "no_collective_write"]
        merged = tree_merge([self._summary(k) for k in keys], client, "gpt-4o", call_id_prefix="t")
        assert {f.issue_key for f in parse_findings(merged)} == set(keys)

    def test_tree_merge_dedupes(self, client):
        merged = tree_merge(
            [self._summary("small_write"), self._summary("small_write")],
            client,
            "gpt-4o",
            call_id_prefix="t",
        )
        assert len(parse_findings(merged)) == 1

    def test_one_step_merge_loses_middle_findings_on_weak_model(self, client):
        """The Fig. 6 phenomenon, llama-3-70b, 13 summaries."""
        keys = list(ISSUE_KEYS)[:13]
        summaries = [self._summary(k) for k in keys]
        one = one_step_merge(summaries, client, "llama-3-70b", call_id_prefix="t1")
        tree = tree_merge(summaries, client, "llama-3-70b", call_id_prefix="t2")
        kept_one = {f.issue_key for f in parse_findings(one)}
        kept_tree = {f.issue_key for f in parse_findings(tree)}
        assert len(kept_one) < len(keys)  # 1-step drops mid-positioned content
        assert keys[0] in kept_one and keys[-1] in kept_one  # anchors survive
        assert len(kept_tree) > len(kept_one)  # tree merge retains more

    def test_empty_merge_rejected(self, client):
        with pytest.raises(ValueError):
            tree_merge([], client, "gpt-4o")
        with pytest.raises(ValueError):
            one_step_merge([], client, "gpt-4o")


class TestAgentEndToEnd:
    def test_sb01_diagnosis_matches_labels(self, sb01_trace):
        agent = IOAgent(IOAgentConfig(model="gpt-4o", seed=0))
        report = agent.diagnose(sb01_trace.log, trace_id=sb01_trace.trace_id)
        assert report.issue_keys == sb01_trace.labels
        assert report.references  # RAG produced citations
        assert report.n_fragments >= 10
        assert report.sources_kept <= report.sources_retrieved

    def test_diagnosis_is_deterministic(self, sb01_trace):
        r1 = IOAgent(IOAgentConfig(seed=0)).diagnose(sb01_trace.log, trace_id="x")
        r2 = IOAgent(IOAgentConfig(seed=0)).diagnose(sb01_trace.log, trace_id="x")
        assert r1.text == r2.text

    def test_rag_off_drops_references(self, sb01_trace):
        agent = IOAgent(IOAgentConfig(use_rag=False, seed=0))
        report = agent.diagnose(sb01_trace.log, trace_id="norag")
        assert not report.references

    def test_one_step_strategy_wired(self, sb01_trace):
        agent = IOAgent(IOAgentConfig(merge_strategy="one-step", seed=0))
        report = agent.diagnose(sb01_trace.log, trace_id="onestep")
        assert report.text.startswith("# Merged I/O Performance Diagnosis")

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            IOAgentConfig(merge_strategy="bogus")
        with pytest.raises(ValueError):
            IOAgentConfig(top_k=0)

    def test_report_render_header(self, sb01_trace):
        report = IOAgent(IOAgentConfig(seed=0)).diagnose(sb01_trace.log, trace_id="sb01")
        rendered = report.render()
        assert rendered.startswith("I/O performance diagnosis for trace 'sb01'")


class TestInteractiveSession:
    def test_fix_question_yields_concrete_command(self, sb01_trace, client):
        """The Fig. 5 interaction: 'how do I fix it' → lfs setstripe."""
        agent = IOAgent(IOAgentConfig(seed=0), client=client)
        report = agent.diagnose(sb01_trace.log, trace_id=sb01_trace.trace_id)
        session = InteractiveSession(report=report, client=client)
        answer = session.ask("How can I fix the server load imbalance issue?")
        assert "lfs setstripe" in answer
        assert len(session.history) == 1

    def test_followup_uses_history(self, sb01_trace, client):
        agent = IOAgent(IOAgentConfig(seed=0), client=client)
        report = agent.diagnose(sb01_trace.log, trace_id=sb01_trace.trace_id)
        session = InteractiveSession(report=report, client=client)
        session.ask("What about the small writes?")
        second = session.ask("And the misaligned write requests?")
        assert "pad" in second.lower() or "align" in second.lower()
        assert len(session.history) == 2
