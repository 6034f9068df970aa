"""The seeded fault-injection plane: fault kinds, fault plans, trace damage.

Mirrors the scenario registry (:mod:`repro.workloads.scenarios`): where a
``Scenario`` is "nothing in, one labeled trace out", a :class:`FaultPlan`
is "one healthy system in, one *specific weather pattern* out" — a named,
seeded bundle of :class:`FaultSpec` entries that the chaos harness applies
to the LLM client (:class:`~repro.resilience.client.FaultyLLMClient`), the
trace ingest path (:func:`corrupt_trace_text`), and the pipeline stages
(the ``stage-crash`` kind).  Every injection decision derives from
``rng_for(plan.seed, kind, ..., key)``, so a chaos run is byte-reproducible
across processes for the same seed — the gate pins exactly that.

Fault *kinds* are themselves registered (:func:`register_fault_kind`), so
a future failure mode ships with one call and the knowledge-base analyzer
(``resilience-contract`` check) verifies that every registered kind is
exercised by at least one pinned plan and that every plan references only
registered kinds.

Built-in kinds:

========================  =======  ==============================================
kind                      target   behavior (``param`` meaning)
========================  =======  ==============================================
``llm-transient``         llm      fail the first *k* attempts of an affected
                                   call, *k* drawn in ``[1, param]`` — guaranteed
                                   to heal within a retry policy allowing
                                   ``param + 1`` attempts
``llm-timeout``           llm      same shape, raising ``LLMTimeoutError``
``llm-permanent``         llm      every attempt of an affected call fails
``llm-garble``            llm      the completion text is deterministically
                                   mangled (a slice replaced by noise)
``trace-truncate``        trace    keep only the leading ``param`` fraction of
                                   the trace text, cutting mid-line
``trace-truncate-dxt``    trace    same, but only inside the DXT section
``trace-garble-lines``    trace    mangle a ``param`` fraction of data lines
``stage-crash``           stage    the scoped pipeline stage raises
                                   ``InjectedStageError`` for affected traces
========================  =======  ==============================================

``rate`` is the fraction of *keys* (call ids, traces) a spec affects;
``scope`` is a substring filter on the key (``"/describe"`` hits only
describe-stage calls; for ``stage-crash`` it names the stage).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util.lookup import Registry, RegistryLookupError
from repro.util.rng import rng_for

__all__ = [
    "FaultKind",
    "FaultSpec",
    "FaultPlan",
    "FaultPlanNotFoundError",
    "FAULT_TARGETS",
    "register_fault_kind",
    "unregister_fault_kind",
    "available_fault_kinds",
    "get_fault_kind",
    "register_fault_plan",
    "unregister_fault_plan",
    "available_fault_plans",
    "get_fault_plan",
    "iter_fault_plans",
    "corrupt_trace_text",
    "garble_text",
]

# Where a fault kind bites: the LLM call path, the trace ingest path, or a
# pipeline stage.  The analyzer's resilience-contract check leans on this.
FAULT_TARGETS = ("llm", "trace", "stage")


@dataclass(frozen=True)
class FaultKind:
    """One registered failure mode."""

    name: str
    target: str
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("fault kind name must be non-empty")
        if self.target not in FAULT_TARGETS:
            raise ValueError(
                f"unknown fault target {self.target!r}; expected one of {FAULT_TARGETS}"
            )


class FaultKindNotFoundError(RegistryLookupError):
    """Raised for a fault kind nobody registered."""

    noun = "fault kind"
    available_label = "available"


_KINDS: Registry[FaultKind] = Registry(FaultKindNotFoundError)
get_fault_kind = _KINDS.__getitem__
unregister_fault_kind = _KINDS.unregister


def register_fault_kind(
    name: str, target: str, description: str = "", *, replace: bool = False
) -> FaultKind:
    """Register a failure mode; mirrors ``register_scenario`` semantics."""
    return _KINDS.register(name, FaultKind(name, target, description), replace=replace)


def available_fault_kinds() -> tuple[str, ...]:
    """Registered fault kind names, registration order."""
    return tuple(_KINDS)


# -- built-in kinds --------------------------------------------------------

register_fault_kind(
    "llm-transient", "llm", "call fails the first k attempts, then heals (rate-limit/5xx)"
)
register_fault_kind("llm-timeout", "llm", "call exceeds its deadline for the first k attempts")
register_fault_kind("llm-permanent", "llm", "call fails on every attempt (auth/invalid-request)")
register_fault_kind("llm-garble", "llm", "completion text is deterministically mangled")
register_fault_kind("trace-truncate", "trace", "trace text cut mid-line at a fraction")
register_fault_kind("trace-truncate-dxt", "trace", "DXT section cut mid-line at a fraction")
register_fault_kind("trace-garble-lines", "trace", "a fraction of data lines mangled")
register_fault_kind("stage-crash", "stage", "the scoped pipeline stage raises for affected traces")


@dataclass(frozen=True)
class FaultSpec:
    """One failure mode inside a plan, with its intensity and scope."""

    kind: str
    rate: float = 1.0  # fraction of keys (call ids / traces) affected
    scope: str = ""  # substring filter on the key; stage name for stage-crash
    param: float = 0.0  # kind-specific knob (see module docstring table)

    def __post_init__(self) -> None:
        get_fault_kind(self.kind)  # unknown kinds fail at construction
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")

    @property
    def target(self) -> str:
        return get_fault_kind(self.kind).target

    def affects(self, key: str) -> bool:
        """Scope filter: does this spec even consider ``key``?"""
        return self.scope in key

    def fires_for(self, plan_seed: int, key: str) -> bool:
        """Deterministic per-key decision: is ``key`` in the affected set?

        Independent of call order and thread schedule — the draw is keyed
        purely by ``(plan_seed, kind, scope, key)``.
        """
        if not self.affects(key):
            return False
        if self.rate >= 1.0:
            return True
        rng = rng_for(plan_seed, "fault", self.kind, self.scope, key)
        return float(rng.random()) < self.rate

    def depth_for(self, plan_seed: int, key: str) -> int:
        """How many leading attempts fail (transient/timeout kinds)."""
        limit = max(1, int(self.param))
        rng = rng_for(plan_seed, "fault-depth", self.kind, self.scope, key)
        return 1 + int(rng.integers(0, limit))


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded weather pattern: which faults, how hard, where."""

    name: str
    specs: tuple[FaultSpec, ...]
    seed: int = 0
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("fault plan name must be non-empty")
        if not self.specs:
            raise ValueError(f"fault plan {self.name!r} has no fault specs")

    def specs_for(self, target: str) -> tuple[FaultSpec, ...]:
        """The plan's specs aimed at one target family."""
        return tuple(s for s in self.specs if s.target == target)

    @property
    def kinds(self) -> tuple[str, ...]:
        """Every fault kind the plan uses, first-seen order."""
        seen: dict[str, None] = {}
        for spec in self.specs:
            seen.setdefault(spec.kind, None)
        return tuple(seen)


class FaultPlanNotFoundError(RegistryLookupError):
    """Raised for a plan name nobody registered."""

    noun = "fault plan"
    available_label = "available fault plans"


_PLANS: Registry[FaultPlan] = Registry(FaultPlanNotFoundError)
get_fault_plan = _PLANS.__getitem__
unregister_fault_plan = _PLANS.unregister


def register_fault_plan(plan: FaultPlan, *, replace: bool = False) -> FaultPlan:
    """Register a plan; a silently shadowed plan would un-pin a chaos gate."""
    return _PLANS.register(plan.name, plan, replace=replace)


def available_fault_plans() -> tuple[str, ...]:
    """Registered plan names, registration order."""
    return tuple(_PLANS)


def iter_fault_plans() -> tuple[FaultPlan, ...]:
    return _PLANS.entries()


# -- built-in pinned plans (the chaos gate sweeps exactly these) -----------

register_fault_plan(
    FaultPlan(
        name="flaky-llm",
        specs=(
            FaultSpec("llm-transient", rate=0.45, param=2),
            FaultSpec("llm-timeout", rate=0.2, param=1),
        ),
        description="garden-variety flakiness: rate limits and slow calls that heal on retry",
    )
)
register_fault_plan(
    FaultPlan(
        name="llm-brownout",
        specs=(
            FaultSpec("llm-transient", rate=0.7, param=3),
            FaultSpec("llm-garble", rate=0.3),
        ),
        description="degraded backend: heavy transient failures plus mangled completions",
    )
)
register_fault_plan(
    FaultPlan(
        name="describe-outage",
        specs=(FaultSpec("llm-permanent", rate=1.0, scope="/describe"),),
        description="hard outage of every describe call: trips the breaker, drops fragments",
    )
)
register_fault_plan(
    FaultPlan(
        name="merge-outage",
        specs=(FaultSpec("llm-permanent", rate=1.0, scope="/merge"),),
        description="merge calls hard-fail: the report falls back to concatenation",
    )
)
register_fault_plan(
    FaultPlan(
        name="temporal-crash",
        specs=(FaultSpec("stage-crash", rate=1.0, scope="temporal"),),
        description="the temporal stage crashes: the DXT channel is lost, diagnosis continues",
    )
)
register_fault_plan(
    FaultPlan(
        name="truncated-dxt",
        specs=(FaultSpec("trace-truncate-dxt", rate=1.0, param=0.5),),
        description="the DXT section of the ingested trace is cut mid-line at 50%",
    )
)
register_fault_plan(
    FaultPlan(
        name="garbled-trace",
        specs=(
            FaultSpec("trace-garble-lines", rate=1.0, param=0.1),
            FaultSpec("trace-truncate", rate=1.0, param=0.95),
        ),
        description="ingest damage: mangled counter lines plus a mid-line tail truncation",
    )
)


# -- deterministic damage primitives ---------------------------------------


def garble_text(text: str, rng: np.random.Generator) -> str:
    """Deterministically mangle ``text``: replace a slice with noise.

    Mimics a provider returning a half-encoded or truncated body: a
    contiguous chunk (up to half the text) is replaced by a replacement-
    character run, so downstream fact extraction loses whatever the chunk
    carried while the rest still parses.
    """
    if not text:
        return text
    start = int(rng.integers(0, max(1, len(text) // 2)))
    width = int(rng.integers(1, max(2, len(text) // 2)))
    return text[:start] + "�" * min(width, 16) + text[start + width :]


_DXT_MARKER = "# DXT trace"


def _truncate_lines(lines: list[str], fraction: float, rng: np.random.Generator) -> list[str]:
    """Keep the leading ``fraction`` of lines, cutting the last kept line mid-way."""
    keep = max(1, int(len(lines) * fraction))
    kept = lines[:keep]
    if kept and len(kept[-1]) > 1:
        cut = int(rng.integers(1, len(kept[-1])))
        kept[-1] = kept[-1][:cut]
    return kept


@dataclass(frozen=True)
class TraceDamage:
    """What :func:`corrupt_trace_text` actually did to one trace."""

    text: str
    applied: tuple[str, ...] = field(default_factory=tuple)

    @property
    def damaged(self) -> bool:
        return bool(self.applied)


def corrupt_trace_text(text: str, plan: FaultPlan, trace_id: str) -> TraceDamage:
    """Apply the plan's trace-target faults to darshan-parser text.

    Deterministic per ``(plan.seed, trace_id)``; returns the damaged text
    plus the list of fault kinds that actually fired, so the chaos harness
    can assert the lenient parser skipped-and-counted rather than crashed.
    """
    applied: list[str] = []
    for spec in plan.specs_for("trace"):
        if not spec.fires_for(plan.seed, trace_id):
            continue
        rng = rng_for(plan.seed, "trace-damage", spec.kind, trace_id)
        lines = text.splitlines()
        if spec.kind == "trace-truncate":
            fraction = spec.param if spec.param > 0 else 0.7
            lines = _truncate_lines(lines, fraction, rng)
        elif spec.kind == "trace-truncate-dxt":
            marker = next((i for i, ln in enumerate(lines) if ln.startswith(_DXT_MARKER)), None)
            if marker is None:
                continue  # counter-only trace: nothing to truncate
            fraction = spec.param if spec.param > 0 else 0.5
            lines = lines[:marker] + _truncate_lines(lines[marker:], fraction, rng)
        elif spec.kind == "trace-garble-lines":
            fraction = spec.param if spec.param > 0 else 0.1
            data_idx = [
                i for i, ln in enumerate(lines) if ln.strip() and not ln.startswith("#")
            ]
            n_damage = max(1, int(len(data_idx) * fraction))
            chosen = rng.choice(len(data_idx), size=min(n_damage, len(data_idx)), replace=False)
            for j in sorted(int(c) for c in chosen):
                idx = data_idx[j]
                line = lines[idx]
                cut = int(rng.integers(0, max(1, len(line))))
                lines[idx] = line[:cut] + "�<corrupt>"
        else:  # pragma: no cover - unreachable while kinds and targets agree
            raise ValueError(f"unhandled trace fault kind {spec.kind!r}")
        text = "\n".join(lines) + ("\n" if text.endswith("\n") else "")
        applied.append(spec.kind)
    return TraceDamage(text=text, applied=tuple(applied))
