"""ION: LLM diagnosis by direct prompting (Egersdoerfer et al., HotStorage'24).

The proof-of-concept predecessor of IOAgent: take ``darshan-parser``
output, wrap it in an engineered prompt, and send the whole thing to the
model.  Everything the paper criticizes follows from that design — the
trace may vastly exceed the context window (lost-in-the-middle losses),
there is no injected domain knowledge (misconceptions go unchecked), and
no references can be produced.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.registry import register_tool
from repro.core.report import DiagnosisReport
from repro.darshan.log import DarshanLog
from repro.darshan.writer import render_darshan_text
from repro.llm.client import LLMClient, Usage
from repro.llm.tasks.plain import build_plain_prompt

__all__ = ["IONConfig", "IONTool"]


@dataclass(frozen=True)
class IONConfig:
    """What an ION report depends on; its ``repr`` keys cached results."""

    model: str
    seed: int


class IONTool:
    """Plain-prompt LLM baseline (a `DiagnosticTool`)."""

    name = "ion"

    def __init__(self, client: LLMClient | None = None, model: str = "gpt-4o", seed: int = 0) -> None:
        self.client = client or LLMClient(seed=seed)
        self.config = IONConfig(model=model, seed=self.client.seed)

    @property
    def model(self) -> str:
        return self.config.model

    def diagnose(self, log: DarshanLog, trace_id: str = "trace") -> DiagnosisReport:
        """Diagnose one Darshan log by direct prompting."""
        text = render_darshan_text(log)
        prompt = build_plain_prompt(text)
        answer = self.client.complete(prompt, model=self.model, call_id=f"ion/{trace_id}").text
        return DiagnosisReport(trace_id=trace_id, model=self.model, text=answer)

    def usage(self) -> Usage:
        """Cumulative LLM spend across every diagnosis this tool ran."""
        return self.client.total_usage()


register_tool("ion", IONTool, replace=True)
