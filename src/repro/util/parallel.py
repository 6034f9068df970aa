"""Deterministic parallel map.

The paper runs all pairwise merges at each tree level in parallel, and the
self-reflection source filter "is run in parallel over all retrieved
sources" (§IV).  This helper provides that concurrency with thread pools
(the work units are pure-Python prompt evaluations, so threads suffice and
keep everything in-process and deterministic) while preserving input order
in the output, which the merger relies on.
Each item runs in a copy of the caller's :mod:`contextvars` context, so a
pipeline run's :func:`~repro.llm.client.call_scope` reaches the pool threads.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextvars import copy_context
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["parallel_map"]


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    max_workers: int | None = None,
) -> list[R]:
    """Apply ``fn`` to every item, concurrently, preserving input order.

    ``max_workers=None`` lets the executor pick; ``max_workers=1`` (or a
    single item) degrades to a plain serial loop, which keeps tracebacks
    simple in tests.  Exceptions propagate to the caller exactly as with
    the serial loop.
    """
    seq: Sequence[T] = list(items)
    if max_workers == 1 or len(seq) <= 1:
        return [fn(item) for item in seq]
    # Copied per item: two threads cannot enter one Context at once.
    context = copy_context()
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(lambda item: context.copy().run(fn, item), seq))
