"""The one registry implementation and its shared failure shape.

Eight registries hand out objects by short name — diagnosis tools
(:mod:`repro.core.registry`), workload scenarios and run series
(:mod:`repro.workloads.scenarios`), fault kinds and fault plans
(:mod:`repro.resilience.faults`), analysis checks
(:mod:`repro.analysis.registry`), SimLLM task handlers
(:mod:`repro.llm.engine`) and model profiles (:mod:`repro.llm.models`).
Each is one :class:`Registry`, and each fails the same way: someone
asked for a name nobody registered.  :class:`RegistryLookupError` is the
one base class for that failure, so callers can catch "any unknown
registry name" generically and the CLI renders every variant through one
formatter (:meth:`RegistryLookupError.render_cli`) and exits 2.

Subclasses customize three class attributes — ``noun`` (what kind of name
was unknown), ``available_label`` (the label on the options list), and
``cli_noun`` (the noun the CLI error line uses, when it differs) — plus
optionally :meth:`hints` for domain-specific guidance lines and
:meth:`available_cli_line` when the options list is too long to inline.
"""

from __future__ import annotations

import importlib
import threading
from typing import Callable, Iterable, Iterator, Mapping, TypeVar

__all__ = ["RegistryLookupError"]

T = TypeVar("T")


class RegistryLookupError(KeyError):
    """A registry was asked for one or more names nobody registered.

    ``unknown`` is the tuple of unmatched names (a single-name lookup
    wraps it); ``available`` is the registry's current offering, in the
    registry's canonical order.
    """

    #: What kind of name was unknown ("tool", "scenario", "fault plan", ...).
    noun = "entry"
    #: Label introducing the options list in ``str(exc)``.
    available_label = "available entries"
    #: Noun used on the CLI error line when it differs from ``noun``
    #: (e.g. scenario lookups speak of "selectors").  Empty → ``noun``.
    cli_noun = ""

    def __init__(self, unknown: str | Iterable[str], available: Iterable[str]) -> None:
        names = (unknown,) if isinstance(unknown, str) else tuple(unknown)
        super().__init__(", ".join(names))
        self.unknown: tuple[str, ...] = names
        self.available: tuple[str, ...] = tuple(available)

    # -- shared rendering --------------------------------------------------

    def _pluralized(self, noun: str) -> str:
        return noun if len(self.unknown) == 1 else noun + "s"

    def options(self) -> str:
        """The options list as one comma-joined string (``<none>`` if empty)."""
        return ", ".join(self.available) or "<none>"

    def __str__(self) -> str:
        names = ", ".join(repr(n) for n in self.unknown)
        return f"unknown {self._pluralized(self.noun)} {names}; {self.available_label}: {self.options()}"

    # -- CLI rendering (one formatter for every registry) ------------------

    def hints(self) -> tuple[str, ...]:
        """Domain-specific guidance lines for the CLI block (none by default)."""
        return ()

    def available_cli_line(self) -> str:
        """The final "here are your options" line of the CLI block."""
        return f"{self.available_label}: {self.options()}"

    def render_cli(self) -> str:
        """The friendly multi-line error block every CLI surface prints.

        Shape: an ``error:`` line naming the unknown name(s), any
        subclass hints, then where to find the valid options.  Callers
        print this to stderr and exit 2.
        """
        noun = self._pluralized(self.cli_noun or self.noun)
        lines = [f"error: unknown {noun}: {', '.join(self.unknown)}"]
        lines.extend(self.hints())
        lines.append(self.available_cli_line())
        return "\n".join(lines)


class Registry(Mapping[str, T]):
    """An ordered name -> entry table: the one implementation of a registry.

    Iteration is registration order.  ``builtins`` names the modules whose
    import registers the built-in entries; they are imported once, on the
    first registration or lookup, so importing a registry stays cheap and
    free of cycles.  ``tokens`` gives an entry's selector tokens (tags,
    sources, ...) for :meth:`entries`.  An unknown name raises ``error``.
    """

    def __init__(
        self,
        error: type[RegistryLookupError],
        builtins: tuple[str, ...] = (),
        tokens: Callable[[T], Iterable[str]] = lambda entry: (),
    ) -> None:
        self.error = error
        self._builtins = builtins
        self._tokens = tokens
        self._entries: dict[str, T] = {}
        self._loaded = not builtins
        self._loading: set[int] = set()  # threads importing the built-ins

    def _load(self) -> None:
        if self._loaded:
            return
        thread = threading.get_ident()
        if thread in self._loading:
            return  # a built-in module registering while it imports
        self._loading.add(thread)
        try:
            for module in self._builtins:
                importlib.import_module(module)
            # Set only once every built-in imported cleanly, so a failed
            # import surfaces again instead of leaving the registry partial.
            self._loaded = True
        finally:
            self._loading.discard(thread)

    def register(self, name: str, entry: T, *, replace: bool = False) -> T:
        """Add ``entry`` under ``name``; a taken name raises unless ``replace=True``.

        The built-ins load first, so a name that collides with one fails
        here, at the caller's line, not at a later lookup.
        """
        self._load()
        if not replace and name in self._entries:
            raise ValueError(
                f"{self.error.noun} {name!r} is already registered (pass replace=True)"
            )
        self._entries[name] = entry
        return entry

    def unregister(self, name: str) -> None:
        """Remove a registration (no-op if absent)."""
        self._entries.pop(name, None)

    def entries(self, token: str | None = None) -> tuple[T, ...]:
        """Entries in registration order; ``token`` keeps those it names or tags."""
        self._load()
        return tuple(
            entry
            for name, entry in tuple(self._entries.items())
            if token is None or token == name or token in self._tokens(entry)
        )

    def __getitem__(self, name: str) -> T:
        """The entry registered under ``name``; an unknown name raises ``error``."""
        self._load()
        try:
            return self._entries[name]
        except KeyError:
            raise self.error(name, tuple(self._entries)) from None

    def __iter__(self) -> Iterator[str]:
        self._load()
        return iter(tuple(self._entries))

    def __len__(self) -> int:
        self._load()
        return len(self._entries)
