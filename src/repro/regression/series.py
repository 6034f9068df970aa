"""The series diagnostic tool: fleet-level regression as a `DiagnosticTool`.

:class:`SeriesDiagnosticTool` wraps any registered single-trace tool
(IOAgent by default) and adds the longitudinal evidence channel on top:
profile every run, freeze a baseline from the first K, score drift, find
the inflection run, and — when the series regressed — merge a
``trend_regression`` finding into the diagnosis of the inflection run.

The trend fact goes through the same NL round trip as every other fact
kind (render → extract → expert rules), so the longitudinal channel is
graded by exactly the machinery that grades counter and temporal
evidence; nothing here writes findings by hand.

Registered under the tool name ``series``; the wrapped tool runs through
a :class:`~repro.core.service.DiagnosisService`, and per-trace
``diagnose`` calls pass straight through to it, so the protocol contract
("one trace in, one report out") holds even for the series tool and a
trace gets the text any other caller gets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.registry import get_tool, register_tool
from repro.core.report import DiagnosisReport
from repro.core.service import DiagnosisService
from repro.darshan.log import DarshanLog
from repro.llm.client import Usage
from repro.llm.facts import extract_facts, render_fact
from repro.llm.findings import render_findings
from repro.llm.reasoning import infer_findings
from repro.regression.baseline import Baseline, build_baseline
from repro.regression.drift import (
    DRIFT_THRESHOLD,
    DriftScore,
    InflectionPoint,
    find_inflection,
    score_series,
    trend_regression_fact,
)
from repro.regression.profile import TraceProfile, profile_trace

__all__ = ["SeriesReport", "SeriesDiagnosticTool"]


@dataclass(frozen=True)
class SeriesReport:
    """The longitudinal verdict for one run series."""

    series_id: str
    profiles: tuple[TraceProfile, ...]
    baseline: Baseline
    scores: tuple[DriftScore, ...]
    inflection: InflectionPoint | None
    report: DiagnosisReport

    def render(self) -> str:
        """Human-facing rendering: per-run drift table, then the diagnosis."""
        lines = [
            f"Run series '{self.series_id}': {len(self.profiles)} runs, "
            f"baseline frozen over the first {self.baseline.n_runs}."
        ]
        for index, score in enumerate(self.scores):
            at_inflection = self.inflection is not None and index == self.inflection.run_index
            marker = " <-- inflection" if at_inflection else ""
            lines.append(
                f"  run {index:2d}  drift {score.total:7.3f}  top {score.top_feature}{marker}"
            )
        if self.inflection is None:
            lines.append("No run crossed the drift threshold: series is steady.")
        return "\n".join(lines) + "\n\n" + self.report.render()


class SeriesDiagnosticTool:
    """Longitudinal regression monitoring over a trace series.

    ``inner`` names the wrapped tool (built with ``inner_kwargs``) or is
    the :class:`DiagnosisService` to diagnose through.  ``baseline`` pins
    a previously serialized :class:`Baseline` (loaded with
    ``Baseline.from_json``) so a long-lived fleet monitor never
    recomputes — or accidentally re-anchors — its reference window.
    """

    def __init__(
        self,
        inner: str | DiagnosisService = "ioagent",
        baseline_runs: int = 3,
        threshold: float = DRIFT_THRESHOLD,
        baseline: Baseline | None = None,
        **inner_kwargs: object,
    ) -> None:
        if baseline_runs < 1:
            raise ValueError("baseline_runs must be positive")
        self.baseline_runs = baseline_runs
        self.threshold = threshold
        self.baseline = baseline
        if isinstance(inner, str):
            inner = DiagnosisService(tool=get_tool(inner, **inner_kwargs))
        self._service = inner

    @property
    def name(self) -> str:
        return "series"

    @property
    def config(self) -> object:
        """The wrapped tool's settings (None if it has none): what keys its reports."""
        return getattr(self._service.tool, "config", None)

    def usage(self) -> Usage:
        return self._service.tool.usage()

    def diagnose(self, log: DarshanLog, trace_id: str = "trace") -> DiagnosisReport:
        """Single-trace passthrough to the wrapped tool's service (protocol contract)."""
        return self._service.diagnose(log, trace_id=trace_id)

    def diagnose_series(
        self,
        logs: Sequence[DarshanLog],
        series_id: str = "series",
        trace_ids: Sequence[str] | None = None,
    ) -> SeriesReport:
        """Profile, score, and diagnose a whole run series.

        Requires strictly more runs than the baseline window (a pinned
        ``baseline`` lifts that floor to one run).  The returned report's
        ``DiagnosisReport`` is the wrapped tool's diagnosis of the
        inflection run — or of the last run, for a steady series — with
        the ``trend_regression`` finding appended when drift crossed the
        threshold.
        """
        floor = 1 if self.baseline is not None else self.baseline_runs + 1
        if len(logs) < floor:
            raise ValueError(
                f"a series needs at least {floor} runs "
                f"(got {len(logs)}; baseline window is {self.baseline_runs})"
            )
        if trace_ids is None:
            trace_ids = [f"{series_id}/run{i:02d}" for i in range(len(logs))]
        if len(trace_ids) != len(logs):
            raise ValueError("trace_ids must match logs one-to-one")

        profiles = tuple(
            profile_trace(log, trace_id) for log, trace_id in zip(logs, trace_ids)
        )
        baseline = self.baseline or build_baseline(profiles[: self.baseline_runs])
        scores = tuple(score_series(profiles, baseline))
        inflection = find_inflection(profiles, baseline, self.threshold)

        focus = inflection.run_index if inflection is not None else len(logs) - 1
        report = self._service.diagnose(logs[focus], trace_id=trace_ids[focus])

        if inflection is not None:
            fact = trend_regression_fact(
                inflection, n_runs=len(logs), baseline_runs=baseline.n_runs
            )
            # Through the NL grammar and back: the longitudinal evidence is
            # graded by the same describe -> extract -> rules path as any
            # counter or temporal fact.
            trend_findings = infer_findings(extract_facts(render_fact(fact)))
            if trend_findings:
                report = DiagnosisReport(
                    trace_id=series_id,
                    model=report.model,
                    text=report.text + "\n\n" + render_findings(trend_findings),
                    n_fragments=report.n_fragments,
                    sources_retrieved=report.sources_retrieved,
                    sources_kept=report.sources_kept,
                )

        return SeriesReport(
            series_id=series_id,
            profiles=profiles,
            baseline=baseline,
            scores=scores,
            inflection=inflection,
            report=report,
        )


register_tool("series", SeriesDiagnosticTool, replace=True)
