"""Text helpers shared by the RAG chunker and the judge."""

from __future__ import annotations

import re

__all__ = ["simple_tokens", "sentence_split"]

_WORD_RE = re.compile(r"[A-Za-z0-9_/.\-]+|[^\sA-Za-z0-9]")
_SENT_RE = re.compile(r"(?<=[.!?])\s+(?=[A-Z0-9])")


def simple_tokens(text: str) -> list[str]:
    """Split text into word-ish tokens (the SimLLM's token unit).

    Numbers, identifiers, and paths count as single tokens; punctuation is
    token-per-character.  This over-counts slightly relative to BPE, which
    is the conservative direction for modelling context-window overflow.
    """
    return _WORD_RE.findall(text)


def sentence_split(text: str) -> list[str]:
    """Split prose into sentences on terminal punctuation boundaries."""
    parts = [p.strip() for p in _SENT_RE.split(text.strip())]
    return [p for p in parts if p]

