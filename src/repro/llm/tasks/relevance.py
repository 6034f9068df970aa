"""Self-reflection relevance filter (paper §IV-B3).

A fast, cheap model (gpt-4o-mini in the paper) decides, per retrieved
source, whether it actually bears on the fragment being diagnosed — a more
nuanced judgment than raw cosine rank.  The handler extracts the facts
from the fragment description, derives the topics those facts implicate,
and accepts the source iff its topic coverage intersects; a small seeded
flip probability models the cheap model's imperfection.

A fragment's ~15 sources are judged back to back on the run's thread
(:func:`~repro.rag.reflection.reflect_filter`), each prompt carrying the
same description, so the handler derives a description's topics once per
fragment (see :func:`handle_relevance`).
"""

from __future__ import annotations

import re
import threading

import numpy as np

from repro.llm.engine import register_task
from repro.llm.facts import extract_facts
from repro.llm.models import ModelProfile
from repro.llm.reasoning import infer_findings
from repro.rag.corpus import topics_for_issue

__all__ = ["build_relevance_prompt", "fact_topics"]

_TOPICS_RE = re.compile(r"^Topics: (.*)$", re.MULTILINE)
_FLIP_PROB = 0.08

# Baseline topic implied by each fact kind, before any rule fires.
_KIND_TOPICS = {
    "size_hist": ("small-io",),
    "alignment": ("alignment",),
    "order": ("access-pattern", "repetition"),
    "meta": ("metadata",),
    "shared": ("shared-file",),
    "rank_balance": ("rank-balance",),
    "stripe": ("striping",),
    "server_usage": ("server-balance", "striping"),
    "stdio_share": ("stdio",),
    "mpi_ops": ("collective-io",),
    "mpi_presence": ("mpi",),
    "repetition": ("repetition", "burst-buffer"),
    "volume": ("general",),
    "counts": ("general",),
    "mount": ("general", "striping"),
    "app_context": ("general",),
}


# The last description judged on this thread, with its topics.
_last_judged = threading.local()


def fact_topics(description: str) -> set[str]:
    """Topics implicated by a fragment description's facts and findings.

    A pure function of the text: every fact regex plus every expert rule,
    which is most of a relevance judgment's cost.  The handler calls it
    once per fragment, not once per source (see :func:`handle_relevance`).
    """
    facts = extract_facts(description)
    topics: set[str] = set()
    for fact in facts:
        topics.update(_KIND_TOPICS.get(fact.kind, ()))
    for finding in infer_findings(facts):
        topics.update(topics_for_issue(finding.issue_key))
    return topics


def build_relevance_prompt(description: str, source_text: str) -> str:
    """Assemble the per-source self-reflection prompt."""
    return (
        "TASK: relevance\n"
        "Decide whether the following retrieved source is relevant to "
        "diagnosing the I/O behaviour described. Answer RELEVANT or "
        "IRRELEVANT with a one-line reason.\n\n"
        "FRAGMENT DESCRIPTION:\n"
        f"{description}\n\n"
        "SOURCE:\n"
        f"{source_text}\n"
    )


def _description_topics(description: str) -> frozenset[str]:
    """``fact_topics(description)``, derived once for equal texts judged in a row."""
    entry = getattr(_last_judged, "entry", None)
    if entry is None or entry[0] != description:
        entry = _last_judged.entry = (description, frozenset(fact_topics(description)))
    return entry[1]


@register_task("relevance")
def handle_relevance(visible: str, model: ModelProfile, rng: np.random.Generator) -> str:
    """Judge one source against one fragment description.

    The description's topics come from a one-entry memo per thread: the
    last description text judged on this thread and its
    :func:`fact_topics`.  A fragment's sources are judged back to back on
    one thread, so its topics are derived once and the next fragment
    replaces the entry.  The memo is keyed by the exact text, so it cannot
    change an answer.  It is per thread because server workers judge
    different fragments at the same time.  It holds one entry, so a
    derivation serves only the judgments that follow it back to back: a
    memo kept across requests would turn a repeat of the same content into
    a warm run.
    """
    parts = visible.split("FRAGMENT DESCRIPTION:", 1)
    if len(parts) < 2 or "SOURCE:" not in parts[1]:
        return "IRRELEVANT: the prompt does not contain a description and a source."
    description, source = parts[1].split("SOURCE:", 1)
    wanted = _description_topics(description)
    m = _TOPICS_RE.search(source)
    source_topics = (
        {t.strip() for t in m.group(1).split(",")} if m else set()
    )
    specific = source_topics - {"general"}
    relevant = bool(specific & wanted)
    if rng.random() < _FLIP_PROB:  # the cheap model's occasional misjudgment
        relevant = not relevant
    if relevant:
        overlap = sorted(specific & wanted) or sorted(source_topics)
        return f"RELEVANT: the source covers {', '.join(overlap)}, which matches the description."
    return "IRRELEVANT: the source's topics do not bear on the behaviours described."
