"""Scalar references for the text work each model call and retrieval does.

``oracle_extract_facts`` runs every fact kind's regex over the whole
text, and ``oracle_embed`` hashes every query token and adds its weight
one bucket at a time; both are the implementations that
:func:`repro.llm.facts.extract_facts` (which runs a kind's regex only
where its phrase occurs) and :meth:`repro.rag.embedding.HashedTfIdfEmbedder.embed`
(which looks corpus tokens up in the fitted table and sums with one
``np.bincount``) replaced.  Tests and ``benchmarks/bench_facts.py`` hold
the two equal.
"""

from __future__ import annotations

import numpy as np

from repro.llm.facts import _SPEC, Fact
from repro.rag.embedding import HashedTfIdfEmbedder, _bucket, _tokenize

__all__ = ["oracle_extract_facts", "oracle_embed"]


def oracle_extract_facts(text: str) -> list[Fact]:
    """Every kind's regex over all of ``text``, hits in order of appearance."""
    hits: list[tuple[int, Fact]] = []
    for kind, (_, pattern, parse, _) in _SPEC.items():
        for m in pattern.finditer(text):
            hits.append((m.start(), Fact(kind=kind, data=parse(m))))
    hits.sort(key=lambda pair: pair[0])
    return [fact for _, fact in hits]


def oracle_embed(embedder: HashedTfIdfEmbedder, text: str) -> np.ndarray:
    """Embed ``text`` one token at a time with a fitted ``embedder``'s weights."""
    if not embedder._fitted:  # noqa: SLF001 - the oracle reads the fitted state
        raise RuntimeError("embedder must be fitted on the corpus first")
    vec = np.zeros(embedder.dim, dtype=np.float64)
    tokens = _tokenize(text)
    if not tokens:
        return vec
    for tok in tokens:
        b = _bucket(tok, embedder.dim)
        vec[b] += float(embedder._weights[b])  # noqa: SLF001
    norm = float(np.linalg.norm(vec))
    if norm > 0:
        vec /= norm
    return vec
