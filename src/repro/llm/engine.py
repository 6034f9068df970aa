"""The SimLLM engine: context fitting + task dispatch.

A prompt declares its task with a leading ``TASK: <name>`` line (our
prompt templates all do; a real LLM infers the task from instructions, the
marker is simply the deterministic stand-in).  The engine fits the prompt
to the model's context window — applying lost-in-the-middle truncation —
and dispatches the *visible* text to the task handler.  Handlers never see
anything the window dropped.
"""

from __future__ import annotations

import re
from typing import Callable

import numpy as np

from repro.llm.context import fit_prompt
from repro.llm.models import ModelProfile
from repro.util.lookup import Registry, RegistryLookupError
from repro.util.rng import derive_seed

__all__ = ["SimLLMEngine", "register_task"]

_TASK_RE = re.compile(r"^TASK:\s*([a-z_]+)\s*$", re.MULTILINE)

Handler = Callable[[str, ModelProfile, np.random.Generator], str]


class TaskNotFoundError(RegistryLookupError):
    """Raised when a prompt names a task no handler is registered for."""

    noun = "task"
    available_label = "available tasks"


# Importing repro.llm.tasks registers the handlers; deferred against import cycles.
_TASKS: Registry[Handler] = Registry(TaskNotFoundError, builtins=("repro.llm.tasks",))


def register_task(name: str) -> Callable[[Handler], Handler]:
    """Decorator registering a task handler under ``name``."""
    return lambda fn: _TASKS.register(name, fn)


class SimLLMEngine:
    """Deterministic engine: same (prompt, model, call_id, seed) → same text."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def run(self, prompt: str, model: ModelProfile, call_id: str) -> tuple[str, bool, int]:
        """Returns (response_text, prompt_was_truncated, visible_tokens)."""
        fitted = fit_prompt(prompt, model)
        visible = fitted.visible_text
        m = _TASK_RE.search(visible[:2000])
        task = m.group(1) if m else "plain"
        handler = _TASKS[task]
        rng = np.random.default_rng(derive_seed(self.seed, model.name, call_id, task))
        response = handler(visible, model, rng)
        return response, fitted.truncated, fitted.visible_tokens
