"""Domain Knowledge Integrator (paper §IV-B): retrieve + self-reflect.

For each fragment description: retrieve the top-15 nearest knowledge
chunks, then run the self-reflection filter — a cheaper model judging each
source's true relevance — over every retrieved source.  Roughly half the
sources are expected to be ruled out.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.llm.client import LLMClient
from repro.rag.index import SearchHit
from repro.rag.reflection import reflect_filter
from repro.rag.retriever import Retriever

__all__ = ["IntegrationResult", "integrate_fragment"]


@dataclass(frozen=True)
class IntegrationResult:
    """Sources that survived retrieval + reflection for one fragment."""

    retrieved: tuple[SearchHit, ...]
    kept_sources: tuple[str, ...]  # rendered source blocks fed to diagnosis

    @property
    def filtered_count(self) -> int:
        return len(self.retrieved) - len(self.kept_sources)


def integrate_fragment(
    description: str,
    retriever: Retriever,
    client: LLMClient,
    reflection_model: str,
    call_id: str,
    use_reflection: bool = True,
) -> IntegrationResult:
    """Retrieve knowledge for a fragment and filter it by self-reflection."""
    hits = retriever.retrieve(description)
    rendered = [Retriever.render_source(h) for h in hits]
    if not use_reflection:
        return IntegrationResult(retrieved=tuple(hits), kept_sources=tuple(rendered))
    kept = reflect_filter(
        description=description,
        sources=rendered,
        client=client,
        model=reflection_model,
        call_id_prefix=call_id,
    )
    return IntegrationResult(retrieved=tuple(hits), kept_sources=tuple(kept))
