"""Tree-based pairwise merging (paper §IV-C) and the 1-step ablation.

IOAgent merges diagnosis fragments strictly two at a time, level by level
up a tree — the structure of paper Fig. 2.  The pairs at one level are
independent; they run in order here (see :mod:`repro.core.pipeline` on
threads).  The 1-step merge (everything in one prompt) exists only
to reproduce the Fig. 6 comparison, where mid-positioned findings and
their references get lost.
"""

from __future__ import annotations

from repro.llm.client import LLMClient
from repro.llm.tasks.merge import build_merge_prompt

__all__ = ["tree_merge", "one_step_merge"]


def tree_merge(
    summaries: list[str],
    client: LLMClient,
    model: str,
    call_id_prefix: str = "",
) -> str:
    """Merge summaries pairwise, level by level."""
    if not summaries:
        raise ValueError("nothing to merge")
    level = list(summaries)
    depth = 0
    while len(level) > 1:
        pairs = [(level[i], level[i + 1]) for i in range(0, len(level) - 1, 2)]
        carry = [level[-1]] if len(level) % 2 == 1 else []
        level = [
            client.complete(
                build_merge_prompt([a, b]),
                model=model,
                call_id=f"{call_id_prefix}/merge/L{depth}/{i}",
            ).text
            for i, (a, b) in enumerate(pairs)
        ]
        level.extend(carry)
        depth += 1
    return level[0]


def one_step_merge(
    summaries: list[str],
    client: LLMClient,
    model: str,
    call_id_prefix: str = "",
) -> str:
    """Merge everything in a single prompt (the Fig. 6 failure mode)."""
    if not summaries:
        raise ValueError("nothing to merge")
    prompt = build_merge_prompt(list(summaries))
    return client.complete(prompt, model=model, call_id=f"{call_id_prefix}/merge/1step").text
