"""Recovery policy primitives: retry/backoff, circuit breaking, metrics.

All three classes are backend-agnostic and deterministic:

* :class:`RetryPolicy` — exponential backoff with *deterministic* jitter
  (derived from ``(seed, call_id, attempt)`` via :func:`repro.util.rng.
  rng_for`, never from wall clock or a global RNG) and a per-call sleep
  budget, so a chaos run replays byte-identically across processes;
* :class:`CircuitBreaker` — a call-count-based breaker (consecutive
  failures trip it, a fixed number of fast-failed calls later a half-open
  probe is allowed through).  Counting *calls* instead of wall-clock
  seconds keeps the state machine deterministic under a serial driver,
  which is what the chaos gate pins;
* :class:`ResilienceMetrics` — the counter block every
  :class:`~repro.llm.client.LLMClient` maintains (retries, trips,
  injected faults, isolated usage-callback crashes), snapshotted by the
  service layer and asserted by the chaos gate.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.util.rng import rng_for

__all__ = ["RetryPolicy", "CircuitBreaker", "ResilienceMetrics"]


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter and a sleep budget.

    ``backoff(attempt, ...)`` returns the delay *before* retry number
    ``attempt`` (1-based: the delay after the first failed attempt is
    ``backoff(1, ...)``).  The raw curve is ``base_delay * multiplier**
    (attempt-1)`` capped at ``max_delay``; jitter then scales it into
    ``[raw * (1 - jitter), raw]``.  ``budget`` caps the *total* seconds a
    single logical call may spend sleeping — once the next delay would
    exceed what remains, the caller gives up and surfaces the last error.
    """

    max_attempts: int = 4
    base_delay: float = 0.005
    multiplier: float = 2.0
    max_delay: float = 0.05
    jitter: float = 0.5
    budget: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0 or self.budget < 0:
            raise ValueError("delays and budget must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1.0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def backoff(self, attempt: int, *, seed: int = 0, call_id: str = "") -> float:
        """Deterministic delay before retry ``attempt`` of ``call_id``."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        raw = min(self.base_delay * self.multiplier ** (attempt - 1), self.max_delay)
        if self.jitter == 0.0 or raw == 0.0:
            return raw
        rng = rng_for(seed, "backoff", call_id, attempt)
        return raw * (1.0 - self.jitter * float(rng.random()))


class CircuitBreaker:
    """Trip after consecutive failures; fast-fail, then probe half-open.

    States: **closed** (calls flow; ``failure_threshold`` *consecutive*
    failures trip it), **open** (the next ``cooldown_calls`` calls are
    refused without being placed), **half-open** (one probe call is
    allowed; success closes the breaker, failure re-opens it for another
    cooldown).  Thread-safe; deterministic when calls arrive in a
    deterministic order (the chaos gate drives everything serially).
    """

    def __init__(self, failure_threshold: int = 5, cooldown_calls: int = 8) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown_calls < 1:
            raise ValueError("cooldown_calls must be >= 1")
        self.failure_threshold = failure_threshold
        self.cooldown_calls = cooldown_calls
        self._lock = threading.Lock()
        self._consecutive_failures = 0
        self._open_remaining = 0  # >0: open; fast-fail this many calls
        self._half_open = False
        self.trips = 0

    def allow(self) -> bool:
        """Whether the next call may be placed (False = fast-fail it)."""
        with self._lock:
            if self._open_remaining > 0:
                self._open_remaining -= 1
                if self._open_remaining == 0:
                    self._half_open = True  # the *next* call is the probe
                return False
            return True

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._half_open = False

    def record_failure(self) -> bool:
        """Count a failure; returns True when this one tripped the breaker."""
        with self._lock:
            if self._half_open:  # failed probe: straight back to open
                self._half_open = False
                self._open_remaining = self.cooldown_calls
                self.trips += 1
                return True
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.failure_threshold:
                self._consecutive_failures = 0
                self._open_remaining = self.cooldown_calls
                self.trips += 1
                return True
            return False

    @property
    def state(self) -> str:
        with self._lock:
            if self._open_remaining > 0:
                return "open"
            return "half-open" if self._half_open else "closed"


@dataclass(frozen=True)
class ResilienceMetrics:
    """Immutable snapshot of a client's recovery/fault counters."""

    retries: int = 0
    transient_errors: int = 0
    timeouts: int = 0
    permanent_errors: int = 0
    circuit_trips: int = 0
    circuit_fast_fails: int = 0
    garbled: int = 0
    listener_errors: int = 0

    @property
    def total_faults(self) -> int:
        """Injected/observed failures (excluding the recovery actions)."""
        return (
            self.transient_errors
            + self.timeouts
            + self.permanent_errors
            + self.circuit_fast_fails
            + self.garbled
        )

    def as_dict(self) -> dict[str, int]:
        return {
            "retries": self.retries,
            "transient_errors": self.transient_errors,
            "timeouts": self.timeouts,
            "permanent_errors": self.permanent_errors,
            "circuit_trips": self.circuit_trips,
            "circuit_fast_fails": self.circuit_fast_fails,
            "garbled": self.garbled,
            "listener_errors": self.listener_errors,
        }
