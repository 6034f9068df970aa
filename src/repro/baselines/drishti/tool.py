"""The Drishti tool wrapper: triggers → the familiar insight report."""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.drishti.triggers import run_triggers
from repro.core.registry import register_tool
from repro.core.report import DiagnosisReport
from repro.darshan.log import DarshanLog
from repro.llm.client import Usage

__all__ = ["DrishtiConfig", "DrishtiTool"]

_LEVEL_MARK = {"HIGH": "▶ HIGH", "WARN": "▶ WARN", "OK": "✓ OK  ", "INFO": "i INFO"}
_LEVEL_ORDER = {"HIGH": 0, "WARN": 1, "INFO": 2, "OK": 3}


@dataclass(frozen=True)
class DrishtiConfig:
    """What a Drishti report depends on; its ``repr`` keys cached results."""

    include_ok: bool = False


class DrishtiTool:
    """Heuristic baseline (a `DiagnosticTool`): fixed triggers, canned
    text, no LLM, no interaction."""

    name = "drishti"

    def __init__(self, include_ok: bool = False) -> None:
        self.config = DrishtiConfig(include_ok=include_ok)

    def render_insights(self, log: DarshanLog) -> str:
        """Produce the insight-report text for one Darshan log."""
        results = run_triggers(log)
        if not self.config.include_ok:
            results = [r for r in results if r.level != "OK"]
        results.sort(key=lambda r: _LEVEL_ORDER.get(r.level, 9))
        lines = [
            "DRISHTI v.reproduction — insights from Darshan counters",
            "=" * 60,
        ]
        for r in results:
            lines.append(f"{_LEVEL_MARK.get(r.level, r.level)} [{r.code}] {r.message}")
            if r.recommendation:
                lines.append(f"        Recommendation: {r.recommendation}")
        if not results:
            lines.append("No insights triggered.")
        return "\n".join(lines)

    def diagnose(self, log: DarshanLog, trace_id: str = "trace") -> DiagnosisReport:
        """Diagnose one Darshan log (DiagnosticTool protocol)."""
        return DiagnosisReport(trace_id=trace_id, model="heuristic", text=self.render_insights(log))

    def usage(self) -> Usage:
        """Heuristic tool: no LLM spend, ever."""
        return Usage()


register_tool("drishti", DrishtiTool, replace=True)
