"""The check registry: named static checks the analysis suite runs.

A *check* is a named, pure function from a :class:`~repro.analysis.context.
CheckContext` to a list of :class:`~repro.analysis.diagnostics.Diagnostic`.
Built-in checks live in :mod:`repro.analysis.invariants` (registry/domain
invariants) and :mod:`repro.analysis.lint` (AST convention rules) and load
lazily on first use, so a future evidence channel ships its own checks
with one ``register_check`` call and CI runs them for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, overload

from repro.analysis.diagnostics import Diagnostic
from repro.util.lookup import Registry, RegistryLookupError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.context import CheckContext

__all__ = [
    "Check",
    "CheckFn",
    "CheckNotFoundError",
    "register_check",
    "unregister_check",
    "get_check",
    "available_checks",
    "iter_checks",
    "run_checks",
]

CheckFn = Callable[["CheckContext"], "list[Diagnostic]"]


@dataclass(frozen=True)
class Check:
    """One registered static check."""

    name: str
    fn: CheckFn
    description: str = ""
    tags: tuple[str, ...] = ()

    def run(self, ctx: "CheckContext") -> list[Diagnostic]:
        return list(self.fn(ctx))


class CheckNotFoundError(RegistryLookupError):
    """Raised for a check name nobody registered."""

    noun = "check"
    available_label = "available checks"


# Built-in checks resolve lazily so importing the registry stays cheap and
# cycle-free (invariants imports the registries it inspects).
_CHECKS: Registry[Check] = Registry(
    CheckNotFoundError,
    builtins=("repro.analysis.invariants", "repro.analysis.lint"),
    tokens=lambda check: check.tags,
)
get_check = _CHECKS.__getitem__
unregister_check = _CHECKS.unregister


@overload
def register_check(
    name: str,
    fn: CheckFn,
    *,
    description: str = ...,
    tags: Iterable[str] = ...,
    replace: bool = ...,
) -> CheckFn: ...


@overload
def register_check(
    name: str,
    fn: None = ...,
    *,
    description: str = ...,
    tags: Iterable[str] = ...,
    replace: bool = ...,
) -> Callable[[CheckFn], CheckFn]: ...


def register_check(
    name: str,
    fn: CheckFn | None = None,
    *,
    description: str = "",
    tags: Iterable[str] = (),
    replace: bool = False,
) -> Callable[[CheckFn], CheckFn] | CheckFn:
    """Register a check function under ``name``; usable as a decorator.

    Registering an existing name raises unless ``replace=True`` — a check
    silently shadowed is an invariant silently un-enforced.
    """

    def _register(fn: CheckFn) -> CheckFn:
        _CHECKS.register(name, Check(name, fn, description, tuple(tags)), replace=replace)
        return fn

    if fn is not None:
        return _register(fn)
    return _register


def available_checks(tag: str | None = None) -> tuple[str, ...]:
    """Registered check names in registration order."""
    return tuple(c.name for c in iter_checks(tag))


def iter_checks(tag: str | None = None) -> tuple[Check, ...]:
    """Registered :class:`Check` objects, optionally filtered by tag."""
    return _CHECKS.entries(tag)


def run_checks(
    ctx: "CheckContext",
    names: Iterable[str] | None = None,
) -> dict[str, list[Diagnostic]]:
    """Run the named checks (default: all) and collect their diagnostics.

    A check that *raises* is itself a finding: the exception is reported
    as an error diagnostic for that check instead of aborting the run, so
    one broken checker cannot mask the others' results.
    """
    selected = [get_check(n) for n in names] if names is not None else list(iter_checks())
    results: dict[str, list[Diagnostic]] = {}
    for check in selected:
        try:
            results[check.name] = check.run(ctx)
        except Exception as exc:  # noqa: BLE001 - a crashing check is a finding
            results[check.name] = [
                Diagnostic(
                    check=check.name,
                    message=f"check crashed: {type(exc).__name__}: {exc}",
                    severity="error",
                )
            ]
    return results
