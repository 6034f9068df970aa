"""The published summary path: record rows and the published extractors.

``oracle_fragments`` is what :func:`repro.core.summaries.extract_fragments`
computed before the columnar twins: it builds the log's record rows and
runs each category's published extractor on them.  Tests and
``benchmarks/bench_summarize.py`` hold the twins equal to it.
"""

from __future__ import annotations

import json

from repro.core.summaries import (
    CATEGORY_EXTRACTORS,
    SUMMARY_COVERAGE,
    SummaryFragment,
    extractor_source,
)
from repro.darshan.log import DarshanLog

__all__ = ["oracle_fragments", "fragments_key"]


def oracle_fragments(log: DarshanLog) -> list[SummaryFragment]:
    """Every applicable fragment, from the published extractors on record rows."""
    fragments: list[SummaryFragment] = []
    for module, categories in SUMMARY_COVERAGE.items():
        if not log.records_for(module):
            continue
        for category in categories:
            published, _ = CATEGORY_EXTRACTORS[category]
            facts = published(log, module)
            if facts:
                fragments.append(
                    SummaryFragment(module, category, tuple(facts), extractor_source(published))
                )
    return fragments


def fragments_key(fragments: list[SummaryFragment]) -> list[tuple]:
    """What a fragment puts in a prompt: its JSON, its code, each fact's ``repr``.

    ``repr`` tells values apart by type and floats bit for bit, and reads
    equal for two NaN, where ``==`` would call two NaN facts different.
    """
    return [
        (json.dumps(f.to_json()), f.code, [repr(fact) for fact in f.facts]) for f in fragments
    ]
