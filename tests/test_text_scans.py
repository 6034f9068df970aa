"""The per-call text scans equal their scalar references.

``extract_facts`` runs a kind's regex only where the kind's phrase
occurs, ``HashedTfIdfEmbedder.embed`` looks corpus tokens up in its
fitted table, and the diagnose task draws each fact-recall key once per
trace.  Each must give exactly what the code it replaced gave:
``tests/prompt_oracle.py`` keeps the first two, and a fresh ``rng_for``
draw per fact is the third.
"""

from __future__ import annotations

import dataclasses
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from prompt_oracle import oracle_embed, oracle_extract_facts

from repro.llm.context import RESPONSE_RESERVE, fit_prompt
from repro.llm.facts import (
    FACT_EXAMPLES,
    FACT_KINDS,
    FACT_PHRASES,
    Fact,
    _required_phrase,
    extract_facts,
    render_fact,
)
from repro.llm.models import get_model
from repro.llm.tasks import diagnose as diagnose_task
from repro.rag.corpus import build_corpus
from repro.rag.index import build_default_index
from repro.rag.retriever import Retriever
from repro.util.rng import rng_for

# Strings a payload field may take: each grammar's alternatives, paths
# with odd characters, and text that no regex accepts.
_WORDS = ["POSIX", "MPIIO", "STDIO", "LUSTRE", "read", "write", "written", "burst-gap"]
_WORDS += ["read-then-write", "/scratch/app/out.dat", "/scratch/a b.dat", "lustre", "x", ""]
_WORDS += ["dxt.idle_fraction", "Extended tracing shows"]


def _field(value: object) -> st.SearchStrategy:
    """Random values of the example value's type."""
    if isinstance(value, bool):
        return st.booleans()
    if isinstance(value, int):
        return st.integers(-5, 10**12)
    if isinstance(value, float):
        return st.floats(-1.0, 1e7, allow_nan=False)
    if isinstance(value, list):
        return st.lists(st.integers(0, 300), min_size=1, max_size=4)
    return st.sampled_from(_WORDS) | st.just(value)


def _payload(kind: str) -> st.SearchStrategy:
    example = FACT_EXAMPLES[kind]
    return st.fixed_dictionaries({name: _field(value) for name, value in example.items()})


_rendered = st.sampled_from(FACT_KINDS).flatmap(
    lambda kind: _payload(kind).map(lambda data: render_fact(Fact(kind=kind, data=data)))
)


# Knowledge sources as a diagnosis prompt renders them.
_SOURCES = [
    Retriever.render_source(hit)
    for hit in build_default_index(0).search("small writes stripe metadata collective ranks", k=20)
]


# Noise: phrases and their halves, numbers, punctuation and line breaks.
_pieces = sorted({p for p in FACT_PHRASES.values() if p})
_noise = st.lists(
    st.sampled_from(_pieces).flatmap(
        lambda p: st.sampled_from([p, p[: len(p) // 2], p[len(p) // 2 :], p.upper()])
    )
    | st.text(alphabet="0123456789 .%()x-/\nabcPOSIXM", max_size=20),
    max_size=6,
).map("".join)


@st.composite
def _prompts(draw) -> str:
    parts = draw(st.lists(_rendered, max_size=30))
    parts += draw(st.lists(st.sampled_from(_SOURCES), max_size=4))
    parts += draw(st.lists(_noise, max_size=4))
    parts = draw(st.permutations(parts))
    text = draw(st.sampled_from([" ", "\n", "\n\n", ""])).join(parts)
    budget = draw(st.integers(10, 3000))
    model = dataclasses.replace(get_model("gpt-4o"), context_tokens=RESPONSE_RESERVE + budget)
    return fit_prompt(text, model).visible_text


def _outcome(extract, text: str):
    """The facts as ``repr`` (tells ``1`` from ``1.0``), or the error a parse raised."""
    try:
        return repr(extract(text))
    except ValueError as exc:  # a [0-9.]+ field such as "1.2.3" does not convert
        return ("raised", str(exc))


class TestAnchoredExtraction:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_prompts())
    def test_equals_oracle(self, text):
        assert _outcome(extract_facts, text) == _outcome(oracle_extract_facts, text)

    @pytest.mark.parametrize(
        ("pattern", "phrase"),
        [
            (r"ab(?P<x>\d+)cde", "cde"),
            (r"abc?def", "def"),  # "c" is optional: "ab" and "def" are separate runs
            (r"x(?:left|right) side", " side"),
            (r"left|right", None),  # one alternation: nothing is required
            (r"\d+", None),
            (r"file\(s\) on", "file(s) on"),
        ],
    )
    def test_required_phrase(self, pattern, phrase):
        assert _required_phrase(re.compile(pattern)) == phrase

    def test_ignore_case_has_no_phrase(self):
        assert _required_phrase(re.compile("abc", re.IGNORECASE)) is None


def _embedder():
    return build_default_index(0).embedder


_vocab = sorted(_embedder()._buckets)  # noqa: SLF001 - the fitted table's tokens
_tokens = st.lists(
    st.sampled_from(_vocab)
    | st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-/", min_size=1, max_size=12)
    | st.sampled_from(["the", "and", "of", "a"]),
    max_size=80,
)


class TestEmbedTable:
    @settings(max_examples=300, deadline=None)
    @given(_tokens, st.sampled_from([" ", ", ", "\n", ". "]), st.booleans())
    def test_equals_oracle_bit_for_bit(self, tokens, sep, upper):
        text = sep.join(tokens)
        if upper:
            text = text.upper()
        emb = _embedder()
        assert emb.embed(text).tobytes() == oracle_embed(emb, text).tobytes()

    def test_corpus_queries_and_empty_text(self):
        emb = _embedder()
        texts = ["", "   ", "...", "the and of"] + [d.body for d in build_corpus(0)[:10]]
        for text in texts:
            assert emb.embed(text).tobytes() == oracle_embed(emb, text).tobytes()

    def test_query_tokens_never_enter_the_table(self):
        emb = _embedder()
        before = dict(emb._buckets)  # noqa: SLF001
        emb.embed("zzqq-unseen-token 123456789 /scratch/never/seen.dat")
        assert emb._buckets == before  # noqa: SLF001


def _fresh_draws(facts, recall, model_name, salt):
    """The sampling before the memo: one fresh generator per fact."""
    kept = []
    for f in facts:
        key = (f.kind, str(f.get("direction", "")))
        if rng_for(0, "fact-recall", model_name, salt, *key).random() < recall:
            kept.append(f)
    return kept


_facts = st.lists(
    st.builds(
        Fact,
        kind=st.sampled_from(["size_hist", "order", "meta", "alignment"]),
        data=st.fixed_dictionaries({"direction": st.sampled_from(["read", "write"])})
        | st.just({}),
    ),
    max_size=12,
)


class TestRecallMemo:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(_facts, st.sampled_from(["ctx-a", "ctx-b"])), max_size=5),
        st.floats(0.0, 0.999),
    )
    def test_equals_a_fresh_draw_per_fact(self, calls, recall):
        for facts, salt in calls:
            got = diagnose_task.sample_facts_correlated(facts, recall, "gpt-4o", salt)
            assert got == _fresh_draws(facts, recall, "gpt-4o", salt)

    def test_draw_counts_equal_on_fresh_servers(self, monkeypatch):
        """The memo does not outlive a server: two cold passes draw alike."""
        from repro.serve import DiagnosisServer
        from repro.workloads.scenarios import build_scenario

        calls = []
        draw = diagnose_task.rng_for
        monkeypatch.setattr(diagnose_task, "rng_for", lambda *key: calls.append(key) or draw(*key))
        names = ("sb01-small-writes", "sb03-misaligned-writes", "path14-lock-convoy")
        logs = [build_scenario(n, seed=0).log for n in names]
        counts = []
        for _ in range(2):
            before = len(calls)
            server = DiagnosisServer(tool="ioagent", autostart=False, workers=1)
            server.serve_all([(log, f"t{i}") for i, log in enumerate(logs)])
            server.close()
            drawn = calls[before:]
            assert len(drawn) == len(set(drawn))  # each key once per trace
            counts.append(len(drawn))
        assert counts[0] == counts[1] > 0
