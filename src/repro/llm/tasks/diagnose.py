"""Fragment diagnosis task (paper §IV-B3, "first true diagnosis").

Input prompt: application context + the fragment's NL description + the
self-reflection-filtered knowledge sources.  The handler extracts facts
from the *visible* text (subject to the model's fact recall), applies the
expert rules, attaches references from the supplied sources by topic, and
— when no source refutes a topically-triggered misconception — may emit
the misconception, at the model's rate.  This is where RAG visibly earns
its keep: the same model without sources hallucinates more and cites
nothing.
"""

from __future__ import annotations

import re
import threading

import numpy as np

from repro.llm.engine import register_task
from repro.llm.facts import Fact, extract_facts
from repro.llm.findings import Finding, render_findings
from repro.llm.misconceptions import triggered_misconceptions
from repro.llm.models import ModelProfile
from repro.llm.reasoning import infer_findings
from repro.rag.corpus import topics_for_issue
from repro.util.rng import rng_for

__all__ = ["build_diagnose_prompt", "attach_references", "sample_facts"]

_SOURCE_RE = re.compile(
    r"^\[(?P<id>S\d+)\] \"(?P<title>[^\"]+)\" \((?P<rest>[^)]+)\)\nTopics: (?P<topics>.*)$",
    re.MULTILINE,
)


def build_diagnose_prompt(
    context_sentences: str, description: str, sources: list[str]
) -> str:
    """Assemble the fragment-diagnosis prompt."""
    source_block = "\n\n".join(sources) if sources else "(no sources retrieved)"
    return (
        "TASK: diagnose\n"
        "You are an HPC I/O performance expert. Based on the application "
        "context, the trace summary description, and the retrieved domain "
        "knowledge below, diagnose any I/O performance issues. Justify each "
        "diagnosis with the quantities observed and cite the sources that "
        "support it.\n\n"
        f"APPLICATION CONTEXT: {context_sentences}\n\n"
        "TRACE SUMMARY DESCRIPTION:\n"
        f"{description}\n\n"
        "RETRIEVED DOMAIN KNOWLEDGE:\n"
        f"{source_block}\n"
    )


def sample_facts(
    facts: list[Fact], recall: float, rng: np.random.Generator
) -> list[Fact]:
    """Keep each fact with probability ``recall`` (the model's attention)."""
    if recall >= 1.0:
        return list(facts)
    return [f for f in facts if rng.random() < recall]


# The (model, salt) whose recall draws this thread made last, with the draws.
_last_draws = threading.local()


def _recall_draws(model_name: str, salt: str) -> dict[tuple[str, str], float]:
    """The memo of draws for (model, salt), one entry per thread.

    A trace's fragments are diagnosed back to back on the run's thread
    under one salt, so each (kind, direction) is drawn once per trace and
    the next trace replaces the entry.  A draw is a pure function of its
    key, so the memo cannot change an answer; it is per thread because
    server workers diagnose different traces at the same time, and it
    holds one entry, so a repeat of the same content later is not served
    warm.
    """
    entry = getattr(_last_draws, "entry", None)
    if entry is None or entry[0] != (model_name, salt):
        entry = _last_draws.entry = ((model_name, salt), {})
    return entry[1]


def sample_facts_correlated(
    facts: list[Fact], recall: float, model_name: str, salt: str
) -> list[Fact]:
    """Recall sampling correlated *within* a trace.

    A model that overlooks a signal tends to overlook it consistently in
    one sitting: the keep/drop draw is keyed on (model, trace context,
    fact kind, direction), so the same evidence kind is missed in every
    fragment of a trace rather than independently per fragment — without
    this, the redundancy of facts across module fragments would let even
    weak models reach near-perfect issue recall.  Each key is drawn once
    per trace (see :func:`_recall_draws`).
    """
    if recall >= 1.0:
        return list(facts)
    draws = _recall_draws(model_name, salt)
    kept = []
    for f in facts:
        key = (f.kind, str(f.get("direction", "")))
        draw = draws.get(key)
        if draw is None:
            draw = draws[key] = rng_for(0, "fact-recall", model_name, salt, *key).random()
        if draw < recall:
            kept.append(f)
    return kept


def _parse_sources(visible: str) -> list[tuple[str, str, set[str]]]:
    """(doc_id, citation, topics) for every source block in the prompt."""
    out = []
    for m in _SOURCE_RE.finditer(visible):
        citation = f"[{m['id']}] {m['rest'].split(',')[0]}, \"{m['title']}\""
        topics = {t.strip() for t in m["topics"].split(",")}
        out.append((m["id"], citation, topics))
    return out


def attach_references(
    findings: list[Finding], sources: list[tuple[str, str, set[str]]], max_refs: int = 3
) -> list[Finding]:
    """Attach topically matching sources to each finding."""
    out = []
    for finding in findings:
        wanted = set(topics_for_issue(finding.issue_key))
        refs = tuple(
            citation for _, citation, topics in sources if topics & wanted
        )[:max_refs]
        out.append(
            Finding(
                issue_key=finding.issue_key,
                evidence=finding.evidence,
                assessment=finding.assessment,
                recommendation=finding.recommendation,
                references=refs or finding.references,
            )
        )
    return out


@register_task("diagnose")
def handle_diagnose(visible: str, model: ModelProfile, rng: np.random.Generator) -> str:
    # A fragment prompt is small and focused, which is precisely why the
    # pre-processor exists: attention per fact is far higher than over a
    # raw dump, modeled as a cube-root boost of the base recall.
    focused_recall = min(1.0, model.fact_recall ** (1.0 / 3.0))
    ctx_m = re.search(r"^APPLICATION CONTEXT: (.*)$", visible, re.MULTILINE)
    salt = ctx_m.group(1) if ctx_m else visible[:200]
    facts = sample_facts_correlated(
        extract_facts(visible), focused_recall, model.name, salt
    )
    findings = infer_findings(facts)
    sources = _parse_sources(visible)
    findings = attach_references(findings, sources)
    present_topics: set[str] = set()
    for _, _, topics in sources:
        present_topics |= topics

    lines: list[str] = []
    if findings:
        if model.verbosity > 0.6:
            lines.append(
                "Based on the observed quantities and the retrieved literature, "
                "the following issues are diagnosed for this aspect of the "
                "application's I/O behaviour:"
            )
        lines.append(render_findings(findings))
    else:
        lines.append(
            "No significant I/O performance issue is indicated by this summary "
            "fragment; the observed values are within expected ranges."
        )

    # Retrieved evidence suppresses misconceptions two ways: a source on
    # the misconception's own topic refutes it outright, and the mere
    # presence of grounding text strongly dampens free-associated claims
    # (the general hallucination-reduction effect of RAG).
    grounding = 0.12 if sources else 1.0
    for mis in triggered_misconceptions(facts):
        if mis.refuted_by_topic in present_topics:
            continue  # RAG evidence contradicts the popular belief
        if rng.random() < model.misconception_rate * grounding:
            lines.append(mis.text)
    return "\n\n".join(lines)
