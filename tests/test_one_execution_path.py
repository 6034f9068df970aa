"""A report is a function of its content, tool and config.

Every caller diagnoses through ``DiagnosisService.execute``, which runs the
tool under a name derived from the trace digest and applies the caller's
``trace_id`` last.  So the service, the server, batches, the Table IV
harness, the series tool and the CLI give byte-identical text for identical
content, whatever the label and whatever the service saw before.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cli import main
from repro.core.agent import IOAgentConfig
from repro.core.batch import diagnose_batch
from repro.core.registry import get_tool
from repro.core.service import DiagnosisService
from repro.darshan.parser import parse_darshan_text
from repro.darshan.writer import render_darshan_text
from repro.evaluation.harness import evaluate_tools
from repro.regression.series import SeriesDiagnosticTool
from repro.serve import DiagnosisServer
from repro.tracebench.dataset import TraceBench
from repro.workloads.scenarios import build_scenario, select_scenarios

LABELS = ("alpha", "beta")
SCENARIOS = ("sb01-small-writes", *(s.name for s in select_scenarios(["pathology"])))


def _service() -> DiagnosisService:
    return DiagnosisService(config=IOAgentConfig(seed=0))


@pytest.fixture(scope="module")
def traces():
    return {name: build_scenario(name, seed=0) for name in SCENARIOS}


@pytest.mark.parametrize("name", SCENARIOS)
def test_every_label_and_history_gets_one_text(traces, name):
    trace = traces[name]
    reports = []
    for first, second in (LABELS, LABELS[::-1]):
        service = _service()
        reports.append(service.diagnose(trace.log, trace_id=first))  # fresh service
        reports.append(service.diagnose(trace.log, trace_id=second))  # after the other label
    with DiagnosisServer(_service(), autostart=False) as server:
        reports.extend(server.serve_all([(trace.log, label) for label in LABELS]))
    batch = diagnose_batch(
        _service(), [dataclasses.replace(trace, trace_id=label) for label in LABELS]
    )
    reports.extend(batch.reports[label] for label in LABELS)

    assert [r.trace_id for r in reports] == ["alpha", "beta", "beta", "alpha", *LABELS * 2]
    assert {r.text for r in reports} == {reports[0].text}


@pytest.mark.parametrize("name", ("sb01-small-writes", "path14-lock-convoy"))
def test_harness_series_and_cli_get_the_service_text(traces, name, tmp_path, capsys):
    trace = traces[name]
    text = _service().diagnose(trace.log, trace_id="reference").text
    for label in LABELS:
        labeled = dataclasses.replace(trace, trace_id=label)
        tool = get_tool("ioagent", model="gpt-4o", seed=0)
        result = evaluate_tools(TraceBench(traces=[labeled], seed=0), tools=[tool])
        assert result.texts[label][tool.name] == text
        report = SeriesDiagnosticTool().diagnose(trace.log, trace_id=label)
        assert (report.trace_id, report.text) == (label, text)

    file_text = render_darshan_text(trace.log, include_dxt=True)
    file_report = _service().diagnose(parse_darshan_text(file_text), trace_id="file")
    outputs = []
    for directory in ("a", "b"):
        path = tmp_path / directory / f"{name}.darshan.txt"
        path.parent.mkdir()
        path.write_text(file_text, encoding="utf-8")
        assert main(["diagnose", str(path)]) == 0
        header, body = capsys.readouterr().out.split("\n", 1)
        assert f"'{path}'" in header
        outputs.append(body)
    assert outputs[0] == outputs[1] == f"\n{file_report.text}\n"
