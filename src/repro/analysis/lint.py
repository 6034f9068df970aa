"""AST convention rules that ruff's generic rule set cannot express.

Four repo-specific rules, each scanning ``ctx.src_root``:

* ``unseeded-random`` — stochastic code must draw from a seeded generator
  (``util.rng.derive_seed`` feeding ``numpy.random.default_rng``); the
  stdlib ``random`` module and legacy global numpy RNG are banned outside
  ``repro/util/rng.py``, as is a zero-argument ``default_rng()``.
* ``segtable-private`` — code outside ``repro/darshan/`` must not reach
  into ``_``-prefixed internals of the segment store or the counter table
  (column layout is an implementation detail of :class:`SegmentTable` and
  :class:`CounterTable`), and must not import the scalar ``dxt_reference``
  module (it is the spec oracle, not a fast path).
* ``service-locked-mutation`` — ``DiagnosisService`` cache state may only
  be mutated under ``self._cache_lock`` (outside ``__init__``).
* ``threads-in-serve`` — threads start only in ``repro/serve/``: a
  ``threading.Thread``/``Timer`` call or import, ``concurrent.futures`` or
  ``multiprocessing`` anywhere else is flagged, so the server's worker
  pool stays the one concurrency knob.

Rules point at exact file:line positions.  They deliberately run on the
*source tree path* (not imported modules) so tests can aim them at
fixture trees containing seeded violations.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from repro.analysis.context import CheckContext
from repro.analysis.diagnostics import Diagnostic, error
from repro.analysis.registry import register_check

__all__ = [
    "check_unseeded_random",
    "check_segtable_private",
    "check_service_locked_mutation",
    "check_threads_in_serve",
]

# numpy.random attributes that are fine: constructing an explicitly seeded
# generator is the sanctioned pattern, everything else is hidden global state.
_NP_RANDOM_ALLOWED = frozenset({"default_rng", "Generator", "BitGenerator", "SeedSequence"})

# Modules whose private names are off-limits outside repro/darshan/.
_SEGMENT_MODULES = ("repro.darshan.segtable", "repro.darshan.dxt", "repro.darshan.countertable")
_REFERENCE_MODULE = "repro.darshan.dxt_reference"


def _iter_py_files(src_root: Path) -> Iterator[tuple[Path, str]]:
    """Yield (path, repo-relative posix path) for every repro source file."""
    pkg_root = src_root / "repro"
    if not pkg_root.is_dir():
        return
    repo_root = src_root.parent
    for path in sorted(pkg_root.rglob("*.py")):
        try:
            rel = path.relative_to(repo_root).as_posix()
        except ValueError:  # pragma: no cover - src_root outside repo root
            rel = path.as_posix()
        yield path, rel


def _parse(path: Path, rel: str, check: str) -> ast.Module | Diagnostic:
    try:
        return ast.parse(path.read_text(encoding="utf-8"))
    except SyntaxError as exc:
        return error(check, f"cannot parse: {exc.msg}", file=rel, line=exc.lineno)


def _is_np_random(node: ast.expr) -> bool:
    """True for the expression ``np.random`` / ``numpy.random``."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "random"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    )


@register_check(
    "unseeded-random",
    description="no stdlib random or unseeded numpy global RNG outside repro/util/rng.py",
    tags=("lint", "determinism"),
)
def check_unseeded_random(ctx: CheckContext) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for path, rel in _iter_py_files(ctx.src_root):
        if rel.endswith("repro/util/rng.py"):
            continue
        tree = _parse(path, rel, "unseeded-random")
        if isinstance(tree, Diagnostic):
            out.append(tree)
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        out.append(
                            error(
                                "unseeded-random",
                                "stdlib random is banned: derive a seed with "
                                "repro.util.rng.derive_seed and use "
                                "numpy.random.default_rng",
                                file=rel,
                                line=node.lineno,
                            )
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" and node.level == 0:
                    out.append(
                        error(
                            "unseeded-random",
                            "stdlib random is banned: derive a seed with "
                            "repro.util.rng.derive_seed and use "
                            "numpy.random.default_rng",
                            file=rel,
                            line=node.lineno,
                        )
                    )
            elif isinstance(node, ast.Attribute) and _is_np_random(node.value):
                if node.attr not in _NP_RANDOM_ALLOWED:
                    out.append(
                        error(
                            "unseeded-random",
                            f"numpy.random.{node.attr} uses the hidden global RNG; "
                            f"construct numpy.random.default_rng(derive_seed(...)) "
                            f"instead",
                            file=rel,
                            line=node.lineno,
                        )
                    )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "default_rng"
                and not node.args
                and not node.keywords
            ):
                out.append(
                    error(
                        "unseeded-random",
                        "default_rng() without a seed is entropy-seeded and "
                        "non-reproducible; pass derive_seed(...)",
                        file=rel,
                        line=node.lineno,
                    )
                )
    return out


@register_check(
    "segtable-private",
    description="no access to segment-store or counter-table internals outside repro/darshan/",
    tags=("lint", "encapsulation"),
)
def check_segtable_private(ctx: CheckContext) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for path, rel in _iter_py_files(ctx.src_root):
        if "repro/darshan/" in rel:
            continue
        tree = _parse(path, rel, "segtable-private")
        if isinstance(tree, Diagnostic):
            out.append(tree)
            continue
        # Names that alias a segment-store module in this file.
        module_aliases: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in _SEGMENT_MODULES:
                        module_aliases.add(alias.asname or alias.name.rsplit(".", 1)[-1])
                    if alias.name == _REFERENCE_MODULE or (
                        alias.name.startswith(_REFERENCE_MODULE + ".")
                    ):
                        out.append(
                            error(
                                "segtable-private",
                                "dxt_reference is the scalar spec oracle; production "
                                "code must use the vectorized SegmentTable kernels",
                                file=rel,
                                line=node.lineno,
                            )
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == _REFERENCE_MODULE:
                    out.append(
                        error(
                            "segtable-private",
                            "dxt_reference is the scalar spec oracle; production "
                            "code must use the vectorized SegmentTable kernels",
                            file=rel,
                            line=node.lineno,
                        )
                    )
                elif node.module in _SEGMENT_MODULES:
                    for alias in node.names:
                        if alias.name.startswith("_"):
                            out.append(
                                error(
                                    "segtable-private",
                                    f"{alias.name!r} is a private name of "
                                    f"{node.module}; use the public table API",
                                    file=rel,
                                    line=node.lineno,
                                )
                            )
        if not module_aliases:
            continue
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr.startswith("_")
                and not node.attr.startswith("__")
                and isinstance(node.value, ast.Name)
                and node.value.id in module_aliases
            ):
                out.append(
                    error(
                        "segtable-private",
                        f"{node.value.id}.{node.attr} reaches into table "
                        f"internals; use the public table API",
                        file=rel,
                        line=node.lineno,
                    )
                )
    return out


# (relative path, class, lock attribute, guarded attributes)
_LOCK_RULES = (
    (
        "repro/core/service.py",
        "DiagnosisService",
        "_cache_lock",
        frozenset({"_cache", "cache_hits", "cache_misses", "store_hits"}),
    ),
)


def _is_self_attr(node: ast.expr, attrs: frozenset[str]) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and node.attr in attrs
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _with_holds_lock(node: ast.With, lock: str) -> bool:
    for item in node.items:
        expr = item.context_expr
        if (
            isinstance(expr, ast.Attribute)
            and expr.attr == lock
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
        ):
            return True
    return False


_MUTATING_METHODS = frozenset(
    {"clear", "pop", "popitem", "setdefault", "update", "__setitem__", "move_to_end"}
)


class _LockVisitor(ast.NodeVisitor):
    """Flag mutations of guarded ``self.<attr>`` outside ``with self.<lock>``."""

    def __init__(self, lock: str, attrs: frozenset[str], rel: str) -> None:
        self.lock = lock
        self.attrs = attrs
        self.rel = rel
        self.locked = 0
        self.diagnostics: list[Diagnostic] = []

    def _flag(self, attr: str, node: ast.AST, how: str) -> None:
        if not self.locked:
            self.diagnostics.append(
                error(
                    "service-locked-mutation",
                    f"self.{attr} {how} outside `with self.{self.lock}`",
                    file=self.rel,
                    line=getattr(node, "lineno", None),
                )
            )

    def visit_With(self, node: ast.With) -> None:
        if _with_holds_lock(node, self.lock):
            self.locked += 1
            self.generic_visit(node)
            self.locked -= 1
        else:
            self.generic_visit(node)

    def _flag_target(self, target: ast.expr, node: ast.AST) -> None:
        attr = _is_self_attr(target, self.attrs)
        if attr is not None:
            self._flag(attr, node, "assigned")
        elif isinstance(target, ast.Subscript):
            # self._cache[key] = ... mutates through a subscript.
            inner = _is_self_attr(target.value, self.attrs)
            if inner is not None:
                self._flag(inner, node, "item-assigned")
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._flag_target(element, node)
        elif isinstance(target, ast.Starred):
            self._flag_target(target.value, node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._flag_target(target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        attr = _is_self_attr(node.target, self.attrs)
        if attr is not None:
            self._flag(attr, node, "augmented")
        if isinstance(node.target, ast.Subscript):
            inner = _is_self_attr(node.target.value, self.attrs)
            if inner is not None:
                self._flag(inner, node, "item-augmented")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _MUTATING_METHODS:
            attr = _is_self_attr(func.value, self.attrs)
            if attr is not None:
                self._flag(attr, node, f"mutated via .{func.attr}()")
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            attr = _is_self_attr(target, self.attrs)
            if attr is not None:
                self._flag(attr, node, "deleted")
            if isinstance(target, ast.Subscript):
                inner = _is_self_attr(target.value, self.attrs)
                if inner is not None:
                    self._flag(inner, node, "item-deleted")
        self.generic_visit(node)


@register_check(
    "service-locked-mutation",
    description="DiagnosisService cache state is only mutated under _cache_lock",
    tags=("lint", "concurrency"),
)
def check_service_locked_mutation(ctx: CheckContext) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for rel_path, class_name, lock, attrs in _LOCK_RULES:
        path = ctx.src_root / rel_path
        if not path.is_file():
            continue
        rel = f"src/{rel_path}"
        tree = _parse(path, rel, "service-locked-mutation")
        if isinstance(tree, Diagnostic):
            out.append(tree)
            continue
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ClassDef) and node.name == class_name):
                continue
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if item.name == "__init__":
                    continue  # construction happens before the object is shared
                visitor = _LockVisitor(lock, attrs, rel)
                for stmt in item.body:
                    visitor.visit(stmt)
                out.extend(visitor.diagnostics)
    return out


# Qualified names that start threads or processes (a module covers its members).
_THREAD_STARTS = ("threading.Thread", "threading.Timer", "concurrent.futures", "multiprocessing")


def _thread_start(node: ast.AST, threading_names: set[str]) -> str | None:
    """The thread-starting name ``node`` imports or calls, or None."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        names = [f"{node.module}.{alias.name}" for alias in node.names]
    elif (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in threading_names
    ):
        names = [f"threading.{node.func.attr}"]
    else:
        return None
    for name in names:
        if any(name == s or name.startswith(s + ".") for s in _THREAD_STARTS):
            return name
    return None


@register_check(
    "threads-in-serve",
    description="threads, thread pools and processes start only in repro/serve/",
    tags=("lint", "concurrency"),
)
def check_threads_in_serve(ctx: CheckContext) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for path, rel in _iter_py_files(ctx.src_root):
        if "repro/serve/" in rel:
            continue
        tree = _parse(path, rel, "threads-in-serve")
        if isinstance(tree, Diagnostic):
            out.append(tree)
            continue
        threading_names = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
            if alias.name == "threading"
        }
        for node in ast.walk(tree):
            name = _thread_start(node, threading_names)
            if name is not None:
                out.append(
                    error(
                        "threads-in-serve",
                        f"{name} outside repro/serve/: run the work in order; "
                        f"the server's worker pool is the one concurrency knob",
                        file=rel,
                        line=getattr(node, "lineno", None),
                    )
                )
    return out
