"""Prompt scanning: anchored fact extraction and table-backed query embedding against their oracles.

Every relevance judgment and fragment diagnosis reads facts out of its
prompt (``repro.llm.facts.extract_facts``), and every retrieval embeds
its query (``HashedTfIdfEmbedder.embed``).  The scalar references in
``tests/prompt_oracle.py`` run every fact regex over the whole text and
hash every query token; the library runs a kind's regex only where its
phrase occurs and looks corpus tokens up in the fitted table.  Per
trace, this benchmark records the inputs one cold diagnosis sends (the
texts handed to ``extract_facts`` and the queries handed to the index),
then the best-of-N process time of the oracle and of the library over
all of them, and the library's speedup: the median over the N rounds of
the oracle's time over the library's, for extraction and for embedding.

Before any timing, each input is checked: the library's facts must equal
the oracle's (their ``repr``) and its embedding the oracle's, bit for bit.

Tiers: ``full`` is the 15 traces of perfbench's serving mix at seed 0,
parsed from their text (three record-heavy, three with a DXT section,
nine light); ``small`` is path19 (heavy, with DXT), io500-06 (one file)
and ra05 (MPI-IO).  The checked-in ``BENCH_facts.json`` is the ``full``
tier, and CI gates the small tier against it::

    PYTHONPATH=src python benchmarks/bench_facts.py \\
        --tier small --out BENCH_facts.json \\
        --baseline benchmarks/BENCH_facts.json --max-regression 2.0

The gate compares the speedups over the oracles, which run in the same
process, so a slower machine does not trip it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from prompt_oracle import oracle_embed, oracle_extract_facts  # noqa: E402

from repro.core.service import DiagnosisService  # noqa: E402
from repro.darshan.parser import parse_darshan_text  # noqa: E402
from repro.darshan.writer import render_darshan_text  # noqa: E402
from repro.llm.facts import extract_facts  # noqa: E402
from repro.llm.tasks import diagnose as diagnose_task  # noqa: E402
from repro.llm.tasks import relevance as relevance_task  # noqa: E402
from repro.rag.index import VectorIndex, build_default_index  # noqa: E402
from repro.workloads.scenarios import build_scenario  # noqa: E402

# (scenario, render its DXT section): the serving mix, heavy traces first.
FULL = (
    ("sb05-metadata-storm", False),
    ("ra07-montage", False),
    ("path19-mds-vs-oss", True),
    ("path04-straggler-rank", True),
    ("path14-lock-convoy", True),
    ("path17-producer-consumer", True),
    ("sb03-misaligned-writes", False),
    ("sb09-stdio-write", False),
    ("io500-06-posix-random-1m", False),
    ("io500-11-posix-tuned-4m-32p", False),
    ("io500-19-mpiio-random-1m", False),
    ("ra01-amrex", False),
    ("ra05-openpmd-recollected", False),
    ("path09-fsync-per-write", False),
    ("fuzz-adv-smallwrite-masked", False),
)
SMALL = (
    ("path19-mds-vs-oss", True),
    ("io500-06-posix-random-1m", False),
    ("ra05-openpmd-recollected", False),
)
TIERS = {"full": FULL, "small": SMALL}


def trace_name(scenario: str, dxt: bool) -> str:
    return f"{scenario}+dxt" if dxt else scenario


def captured_inputs(text: str) -> tuple[list[str], list[str]]:
    """The texts handed to ``extract_facts`` and the queries searched in one cold diagnosis."""
    prompts: list[str] = []
    queries: list[str] = []

    def extract(visible: str):
        prompts.append(visible)
        return extract_facts(visible)

    search = VectorIndex.search
    saved = diagnose_task.extract_facts, relevance_task.extract_facts
    diagnose_task.extract_facts = relevance_task.extract_facts = extract
    VectorIndex.search = lambda index, query, k=15: queries.append(query) or search(index, query, k)
    try:
        DiagnosisService(tool="ioagent").diagnose(parse_darshan_text(text), "bench")
    finally:
        diagnose_task.extract_facts, relevance_task.extract_facts = saved
        VectorIndex.search = search
    return prompts, queries


def check(prompts: list[str], queries: list[str]) -> None:
    """The library's facts and embeddings equal the oracles' on every input."""
    for text in prompts:
        if repr(extract_facts(text)) != repr(oracle_extract_facts(text)):
            raise SystemExit("anchored extraction differs from the oracle")
    embedder = build_default_index(0).embedder
    for query in queries:
        if embedder.embed(query).tobytes() != oracle_embed(embedder, query).tobytes():
            raise SystemExit("table-backed embedding differs from the oracle")


def _timed(fn, inputs: list[str]) -> float:
    t0 = time.process_time()
    for item in inputs:
        fn(item)
    return time.process_time() - t0


def _pair(oracle, library, inputs: list[str], repeats: int) -> tuple[float, float, float]:
    """Best oracle and library times and the median per-round speedup.

    The two run in turn, so a round's pair sees one host speed.
    """
    rounds = [(_timed(oracle, inputs), _timed(library, inputs)) for _ in range(repeats)]
    return (
        min(o for o, _ in rounds),
        min(n for _, n in rounds),
        statistics.median(o / n for o, n in rounds),
    )


def run_trace(scenario: str, dxt: bool, seed: int, repeats: int) -> dict:
    text = render_darshan_text(build_scenario(scenario, seed=seed).log, include_dxt=dxt)
    prompts, queries = captured_inputs(text)
    check(prompts, queries)
    embedder = build_default_index(0).embedder
    ex_oracle, ex_lib, ex_speedup = _pair(oracle_extract_facts, extract_facts, prompts, repeats)
    em_oracle, em_lib, em_speedup = _pair(
        lambda q: oracle_embed(embedder, q), embedder.embed, queries, repeats
    )
    return {
        "trace": trace_name(scenario, dxt),
        "prompts": len(prompts),
        "queries": len(queries),
        "extract_oracle_s": round(ex_oracle, 6),
        "extract_s": round(ex_lib, 6),
        "extract_speedup": round(ex_speedup, 2),
        "embed_oracle_s": round(em_oracle, 6),
        "embed_s": round(em_lib, 6),
        "embed_speedup": round(em_speedup, 2),
    }


def check_baseline(results: list[dict], baseline: dict, max_regression: float) -> list[str]:
    """Traces whose speedup over an oracle fell by more than ``max_regression``x."""
    by_trace = {r["trace"]: r for r in baseline.get("results", [])}
    failures = []
    for row in results:
        base = by_trace.get(row["trace"])
        if base is None:
            continue
        for what in ("extract", "embed"):
            key = f"{what}_speedup"
            if base[key] / row[key] > max_regression:
                failures.append(
                    f"{row['trace']}: {what} {row[key]:.2f}x over the oracle vs baseline "
                    f"{base[key]:.2f}x (> {max_regression}x regression)"
                )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tier", choices=sorted(TIERS), default="full")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--out", default="BENCH_facts.json")
    parser.add_argument("--baseline", help="checked-in baseline JSON to gate against")
    parser.add_argument("--max-regression", type=float, default=2.0)
    args = parser.parse_args(argv)

    results = []
    print(
        f"{'trace':36s} prompts queries  extract: oracle    anchored ratio"
        f"   embed: oracle       table ratio"
    )
    for scenario, dxt in TIERS[args.tier]:
        row = run_trace(scenario, dxt, args.seed, args.repeats)
        results.append(row)
        print(
            f"{row['trace']:36s} {row['prompts']:7d} {row['queries']:7d} "
            f"{row['extract_oracle_s'] * 1e3:14.3f}ms {row['extract_s'] * 1e3:9.3f}ms "
            f"{row['extract_speedup']:5.2f}x {row['embed_oracle_s'] * 1e3:12.3f}ms "
            f"{row['embed_s'] * 1e3:9.3f}ms {row['embed_speedup']:5.2f}x"
        )

    payload = {
        "benchmark": "facts",
        "tier": args.tier,
        "seed": args.seed,
        "repeats": args.repeats,
        "results": results,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")

    if args.baseline:
        with open(args.baseline, encoding="utf-8") as fh:
            failures = check_baseline(results, json.load(fh), args.max_regression)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"speedups over the oracles within {args.max_regression}x of {args.baseline}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
