"""Chat-completions-style client over the SimLLM engine.

The rest of the codebase talks to language models exclusively through
:class:`LLMClient` — the same narrow interface a production IOAgent would
use against OpenAI/vLLM — so swapping the simulated engine for a real API
client is a one-class change.  The client also does usage and cost
accounting per model, which the cost-focused parts of the paper (§I, §III)
rely on.

Since the resilience PR the client owns the *recovery layer* as well: one
logical :meth:`LLMClient.complete` may place several physical attempts
(:meth:`LLMClient._attempt`, the chaos plane's override point) under a
:class:`~repro.resilience.retry.RetryPolicy`, behind an optional
:class:`~repro.resilience.retry.CircuitBreaker`.  Failures follow the
taxonomy in :mod:`repro.resilience.errors`: transient errors and timeouts
are retried with deterministic backoff, permanent errors surface at once,
and an open breaker fast-fails the call without placing it.  Every
recovery action is counted (:meth:`resilience_metrics`) and published as a
:class:`FaultEvent` to the :func:`call_scope` the call runs in.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.llm.engine import SimLLMEngine
from repro.llm.models import ModelProfile, get_model
from repro.llm.tokenizer import approx_tokens
from repro.resilience.errors import (
    CircuitOpenError,
    LLMTimeoutError,
    PermanentLLMError,
    TransientLLMError,
)
from repro.resilience.retry import CircuitBreaker, ResilienceMetrics, RetryPolicy

__all__ = [
    "ChatMessage",
    "Usage",
    "Completion",
    "LLMClient",
    "UsageListener",
    "FaultEvent",
    "FaultListener",
    "call_scope",
]


@dataclass(frozen=True, slots=True)
class ChatMessage:
    """One message in a chat transcript."""

    role: str  # 'system' | 'user' | 'assistant'
    content: str


@dataclass(slots=True)
class Usage:
    """Token/cost accounting (mutable accumulator)."""

    prompt_tokens: int = 0
    completion_tokens: int = 0
    cost_usd: float = 0.0
    calls: int = 0

    def add(self, other: "Usage") -> None:
        self.prompt_tokens += other.prompt_tokens
        self.completion_tokens += other.completion_tokens
        self.cost_usd += other.cost_usd
        self.calls += other.calls


@dataclass(frozen=True, slots=True)
class Completion:
    """One model response."""

    text: str
    model: str
    usage: Usage
    truncated: bool  # whether the prompt overflowed the context window


# Callback fired after every completion: (model_name, usage, call_id).
UsageListener = Callable[[str, Usage, str], None]


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One recovery-layer incident, published to the call's :func:`call_scope`.

    ``kind`` is one of ``transient``, ``timeout``, ``permanent``,
    ``retry``, ``circuit-trip``, ``circuit-fast-fail``, ``garbled``,
    ``listener-error``.
    """

    kind: str
    call_id: str
    model: str
    attempt: int = 0
    detail: str = ""


# Callback fired for every FaultEvent (isolated: its own crashes are dropped).
FaultListener = Callable[[FaultEvent], None]

# The callbacks of the innermost open call_scope in the current context.
_CALL_SCOPE: ContextVar[tuple[UsageListener | None, FaultListener | None]] = ContextVar(
    "llm_call_scope", default=(None, None)
)


@contextmanager
def call_scope(
    on_usage: UsageListener | None = None, on_fault: FaultListener | None = None
) -> Iterator[None]:
    """Hand the events of every call made in this context to the callbacks.

    Covers calls from any client, here and in worker threads that run in
    a copy of this context; an inner scope replaces the outer one until
    it closes.  A crashing ``on_usage`` is counted in
    ``resilience_metrics().listener_errors``; a crashing ``on_fault`` is
    dropped.
    """
    token = _CALL_SCOPE.set((on_usage, on_fault))
    try:
        yield
    finally:
        _CALL_SCOPE.reset(token)


class LLMClient:
    """Routes prompts to the engine; tracks usage per model.

    Observers (the pipeline's telemetry layer, cost dashboards, tests) see
    the calls made inside a :func:`call_scope`; its callbacks are invoked
    synchronously after accounting, under no lock, with
    ``(model_name, usage, call_id)``.  A crashing usage callback is
    isolated — the completion still returns, and the crash is counted in
    ``resilience_metrics().listener_errors``.  Accounting itself is guarded
    by a lock because the server's worker threads share one client.

    ``retry_policy`` governs transient-failure recovery; the default base
    client never fails (the sim engine is deterministic), so the policy
    only bites in subclasses that inject faults or wrap flaky backends.
    ``breaker`` (optional) fast-fails calls after repeated failures;
    ``timeout_s`` is the per-attempt deadline a backend must honor (the
    fault plane enforces it by raising ``LLMTimeoutError``); ``sleep``
    lets harnesses replace real backoff sleeping with a no-op so chaos
    runs stay fast and byte-reproducible.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        retry_policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        timeout_s: float = 1.0,
        sleep: Callable[[float], None] | None = None,
    ) -> None:
        self.engine = SimLLMEngine(seed=seed)
        self.seed = seed
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.breaker = breaker
        self.timeout_s = timeout_s
        self._sleep = sleep if sleep is not None else time.sleep
        self.usage_by_model: dict[str, Usage] = {}
        self._usage_lock = threading.Lock()
        self._fault_counts: dict[str, int] = {}

    # -- fault observation -------------------------------------------------

    def resilience_metrics(self) -> ResilienceMetrics:
        """Immutable snapshot of the recovery/fault counters."""
        with self._usage_lock:
            counts = dict(self._fault_counts)
        return ResilienceMetrics(**counts)

    def _note_fault(self, counter: str, event: FaultEvent) -> None:
        """Count one incident and publish it to the call's scope (crashes dropped)."""
        with self._usage_lock:
            self._fault_counts[counter] = self._fault_counts.get(counter, 0) + 1
        on_fault = _CALL_SCOPE.get()[1]
        if on_fault is not None:
            try:
                on_fault(event)
            except Exception:  # noqa: BLE001 - observers must never break recovery
                pass

    # -- completion --------------------------------------------------------

    def _attempt(
        self, text: str, profile: ModelProfile, call_id: str, attempt: int
    ) -> tuple[str, bool, int]:
        """Place one physical attempt; the fault plane's override point.

        Returns ``(response, truncated, visible_tokens)`` or raises from
        the :mod:`repro.resilience.errors` taxonomy.  The base engine is
        deterministic and never fails.
        """
        return self.engine.run(text, profile, call_id)

    def _record_failure(self, call_id: str, model: str, attempt: int) -> None:
        """Feed the breaker (if any); publishes the trip event."""
        if self.breaker is not None and self.breaker.record_failure():
            self._note_fault(
                "circuit_trips", FaultEvent("circuit-trip", call_id, model, attempt)
            )

    def complete(
        self,
        prompt: str | list[ChatMessage],
        model: str | ModelProfile,
        call_id: str = "",
    ) -> Completion:
        """Run one logical completion (possibly several physical attempts).

        ``call_id`` scopes the deterministic RNG — both the engine's and
        the backoff jitter's.  Raises :class:`CircuitOpenError` when the
        breaker refuses the call, :class:`PermanentLLMError` immediately on
        a non-retryable failure, or the last transient error once the
        retry policy's attempt/budget limits are exhausted.
        """
        profile = model if isinstance(model, ModelProfile) else get_model(model)
        if isinstance(prompt, list):
            text = "\n\n".join(f"[{m.role}]\n{m.content}" for m in prompt)
        else:
            text = prompt

        policy = self.retry_policy
        last_error: TransientLLMError | None = None
        slept = 0.0
        for attempt in range(1, policy.max_attempts + 1):
            if self.breaker is not None and not self.breaker.allow():
                self._note_fault(
                    "circuit_fast_fails",
                    FaultEvent("circuit-fast-fail", call_id, profile.name, attempt),
                )
                raise CircuitOpenError(
                    f"circuit open: call {call_id!r} to {profile.name} fast-failed"
                )
            try:
                response, truncated, visible_tokens = self._attempt(
                    text, profile, call_id, attempt
                )
            except PermanentLLMError as exc:
                self._note_fault(
                    "permanent_errors",
                    FaultEvent("permanent", call_id, profile.name, attempt, repr(exc)),
                )
                self._record_failure(call_id, profile.name, attempt)
                raise
            except TransientLLMError as exc:
                counter, kind = (
                    ("timeouts", "timeout")
                    if isinstance(exc, LLMTimeoutError)
                    else ("transient_errors", "transient")
                )
                self._note_fault(
                    counter, FaultEvent(kind, call_id, profile.name, attempt, repr(exc))
                )
                self._record_failure(call_id, profile.name, attempt)
                last_error = exc
                if attempt >= policy.max_attempts:
                    break
                delay = policy.backoff(attempt, seed=self.seed, call_id=call_id)
                if slept + delay > policy.budget:
                    break  # budget exhausted: surface the last error
                slept += delay
                self._note_fault(
                    "retries", FaultEvent("retry", call_id, profile.name, attempt)
                )
                self._sleep(delay)
                continue
            if self.breaker is not None:
                self.breaker.record_success()
            return self._account(response, profile, call_id, truncated, visible_tokens)
        assert last_error is not None  # loop only falls through after a failure
        raise last_error

    def _account(
        self,
        response: str,
        profile: ModelProfile,
        call_id: str,
        truncated: bool,
        visible_tokens: int,
    ) -> Completion:
        """Book usage for a successful attempt and publish it to the call's scope."""
        out_tokens = approx_tokens(response)
        usage = Usage(
            prompt_tokens=visible_tokens,
            completion_tokens=out_tokens,
            cost_usd=(
                visible_tokens * profile.usd_per_mtok_in
                + out_tokens * profile.usd_per_mtok_out
            )
            / 1e6,
            calls=1,
        )
        with self._usage_lock:
            self.usage_by_model.setdefault(profile.name, Usage()).add(usage)
        on_usage = _CALL_SCOPE.get()[0]
        if on_usage is not None:
            try:
                on_usage(profile.name, usage, call_id)
            except Exception as exc:  # noqa: BLE001 - observers must never abort completions
                self._note_fault(
                    "listener_errors",
                    FaultEvent("listener-error", call_id, profile.name, detail=repr(exc)),
                )
        return Completion(text=response, model=profile.name, usage=usage, truncated=truncated)

    def total_usage(self) -> Usage:
        """Aggregate usage across all models."""
        total = Usage()
        with self._usage_lock:
            for usage in self.usage_by_model.values():
                total.add(usage)
        return total
