"""The fault-injecting LLM client: weather for the recovery layer to survive.

:class:`FaultyLLMClient` subclasses :class:`~repro.llm.client.LLMClient`
and overrides its :meth:`~repro.llm.client.LLMClient._attempt` hook — the
single point where a physical call is placed — so everything above it
(retry loop, circuit breaker, accounting, call scopes) is *exactly* the
production code path.  Which calls fail, how deeply, and how completions
are garbled all derive from the plan's seed via ``rng_for``, never from
call order or wall clock, so a chaos run replays byte-identically.

Injection semantics per LLM-target fault kind:

* ``llm-transient`` / ``llm-timeout`` — an affected ``call_id`` fails its
  first *k* physical attempts (``k`` drawn in ``[1, param]``) and then
  heals, modelling rate limits and slow backends.  With a retry policy
  allowing more than *k* attempts the call recovers; with a tight budget
  it surfaces, and per-fragment isolation in the pipeline absorbs it.
* ``llm-permanent`` — every attempt of an affected call raises; these are
  what trips the breaker in the ``describe-outage`` plan.
* ``llm-garble`` — the attempt *succeeds* but its text is mangled
  (:func:`~repro.resilience.faults.garble_text`), exercising the fact
  extractors' tolerance and counted as a ``garbled`` fault event.
"""

from __future__ import annotations

from typing import Callable

from repro.llm.client import FaultEvent, LLMClient
from repro.llm.models import ModelProfile
from repro.resilience.errors import LLMTimeoutError, PermanentLLMError, TransientLLMError
from repro.resilience.faults import FaultPlan, garble_text
from repro.resilience.retry import CircuitBreaker, RetryPolicy
from repro.util.rng import rng_for

__all__ = ["FaultyLLMClient"]


def _no_sleep(_seconds: float) -> None:
    """Chaos runs never really sleep; backoff is still computed and counted."""


class FaultyLLMClient(LLMClient):
    """An :class:`LLMClient` whose backend misbehaves per a :class:`FaultPlan`."""

    def __init__(
        self,
        plan: FaultPlan,
        seed: int = 0,
        *,
        retry_policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        timeout_s: float = 1.0,
        sleep: Callable[[float], None] | None = None,
    ) -> None:
        super().__init__(
            seed=seed,
            retry_policy=retry_policy,
            breaker=breaker,
            timeout_s=timeout_s,
            sleep=sleep if sleep is not None else _no_sleep,
        )
        self.plan = plan

    def _attempt(
        self, text: str, profile: ModelProfile, call_id: str, attempt: int
    ) -> tuple[str, bool, int]:
        for spec in self.plan.specs_for("llm"):
            if not spec.fires_for(self.plan.seed, call_id):
                continue
            if spec.kind == "llm-permanent":
                raise PermanentLLMError(
                    f"injected permanent failure for call {call_id!r} ({self.plan.name})"
                )
            if spec.kind in ("llm-transient", "llm-timeout"):
                depth = spec.depth_for(self.plan.seed, call_id)
                if attempt <= depth:
                    if spec.kind == "llm-timeout":
                        raise LLMTimeoutError(
                            f"injected timeout (> {self.timeout_s:g}s) on attempt "
                            f"{attempt} of call {call_id!r} ({self.plan.name})"
                        )
                    raise TransientLLMError(
                        f"injected transient failure on attempt {attempt} of call "
                        f"{call_id!r} ({self.plan.name})"
                    )
        response, truncated, visible_tokens = super()._attempt(
            text, profile, call_id, attempt
        )
        for spec in self.plan.specs_for("llm"):
            if spec.kind == "llm-garble" and spec.fires_for(self.plan.seed, call_id):
                rng = rng_for(self.plan.seed, "garble", call_id)
                response = garble_text(response, rng)
                self._note_fault(
                    "garbled", FaultEvent("garbled", call_id, profile.name, attempt)
                )
        return response, truncated, visible_tokens
