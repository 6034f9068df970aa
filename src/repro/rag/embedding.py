"""Deterministic hashed TF-IDF embeddings.

Stands in for ``text-embedding-3-large``: tokens are hashed into a
fixed-dimension space (the "hashing trick"), weighted by TF-IDF fitted on
the corpus, and L2-normalized so cosine similarity is a dot product.  The
model is fully deterministic and dependency-free, and it preserves the one
property the pipeline needs: text about a topic lands near other text
about that topic, imperfectly — imperfectly matters, because the
self-reflection filter exists to clean up vector-retrieval noise.
"""

from __future__ import annotations

import hashlib
import math
import re

import numpy as np

__all__ = ["HashedTfIdfEmbedder"]

_TOKEN_RE = re.compile(r"[a-z0-9][a-z0-9\-/]{1,}")

# Ubiquitous words carry no topical signal; dropping them keeps the
# hashed space from being dominated by glue words.
_STOPWORDS = frozenset(
    """a an and are as at be by for from has have in into is it its of on or
    that the their this to was were will with the such so no not can""".split()
)


def _tokenize(text: str) -> list[str]:
    return [t for t in _TOKEN_RE.findall(text.lower()) if t not in _STOPWORDS]


def _bucket(token: str, dim: int) -> int:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=4).digest()
    return int.from_bytes(digest, "little") % dim


class HashedTfIdfEmbedder:
    """Hashing-trick TF-IDF embedder with cosine geometry."""

    def __init__(self, dim: int = 1024) -> None:
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = dim
        # The corpus's tokens and their buckets, and each bucket's IDF weight.
        self._buckets: dict[str, int] = {}
        self._weights = np.ones(dim, dtype=np.float64)
        self._fitted = False

    def fit(self, texts: list[str]) -> "HashedTfIdfEmbedder":
        """Fit IDF weights on the corpus (bucket-level document counts)."""
        n_docs = len(texts)
        df: dict[int, int] = {}
        table: dict[str, int] = {}
        for text in texts:
            buckets: set[int] = set()
            for tok in _tokenize(text):
                b = table.get(tok)
                if b is None:
                    b = table[tok] = _bucket(tok, self.dim)
                buckets.add(b)
            for b in buckets:
                df[b] = df.get(b, 0) + 1
        weights = np.ones(self.dim, dtype=np.float64)  # a bucket no document hit weighs 1
        for b, count in df.items():
            weights[b] = math.log((1 + n_docs) / (1 + count)) + 1.0
        self._buckets = table
        self._weights = weights
        self._fitted = True
        return self

    def embed(self, text: str) -> np.ndarray:
        """Embed one text; unit-norm unless the text is empty.

        A token the corpus holds takes its bucket from the fitted table;
        only other tokens are hashed, and the table never grows.  One
        ``np.bincount`` sums the weights, adding them in token order as
        a loop of ``vec[b] += weight`` would, so every float is the same.
        """
        if not self._fitted:
            raise RuntimeError("embedder must be fitted on the corpus first")
        tokens = _tokenize(text)
        if not tokens:
            return np.zeros(self.dim, dtype=np.float64)
        known = self._buckets.get
        buckets = np.array(
            [b if (b := known(tok)) is not None else _bucket(tok, self.dim) for tok in tokens],
            dtype=np.intp,
        )
        vec = np.bincount(buckets, weights=self._weights[buckets], minlength=self.dim)
        norm = float(np.linalg.norm(vec))
        if norm > 0:
            vec /= norm
        return vec

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        """Embed many texts into a (n, dim) matrix."""
        if not texts:
            return np.zeros((0, self.dim), dtype=np.float64)
        return np.stack([self.embed(t) for t in texts])
