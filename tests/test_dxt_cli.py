"""Tests for the DXT extension (paper future work) and the CLI."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.darshan.dxt import (
    DxtCollector,
    collect_segments,
    dxt_timeline_facts,
    render_dxt_text,
)
from repro.darshan.writer import render_darshan_text
from repro.sim.filesystem import LustreFileSystem
from repro.sim.ops import API, IOOp, OpKind
from repro.sim.runtime import IORuntime, JobSpec
from repro.util.units import MiB


def _run_with_dxt(ops, nprocs=4, max_segments=1_000_000):
    """Run ``ops``; the DXT segments of the run and how many were dropped."""
    fs = LustreFileSystem(seed=3)
    spec = JobSpec(exe="/bin/x", nprocs=nprocs)
    return collect_segments(IORuntime(spec, fs).run(ops).ops, max_segments)


class TestDxtCollector:
    def test_captures_data_ops_only(self):
        ops = [
            IOOp(kind=OpKind.OPEN, api=API.POSIX, rank=0, path="/scratch/f"),
            IOOp(kind=OpKind.WRITE, api=API.POSIX, rank=0, path="/scratch/f", offset=0, size=4096),
            IOOp(kind=OpKind.READ, api=API.POSIX, rank=0, path="/scratch/f", offset=0, size=4096),
            IOOp(kind=OpKind.CLOSE, api=API.POSIX, rank=0, path="/scratch/f"),
        ]
        segments, _ = _run_with_dxt(ops, nprocs=1)
        assert len(segments) == 2
        assert [s.operation for s in segments] == ["write", "read"]
        assert all(s.end_time > s.start_time for s in segments)

    def test_segment_fields(self):
        ops = [IOOp(kind=OpKind.WRITE, api=API.MPIIO, rank=2, path="/scratch/f", offset=1024, size=4096)]
        segments, _ = _run_with_dxt(ops)
        mpiio = [s for s in segments if s.module == "X_MPIIO"]
        assert mpiio and mpiio[0].rank == 2 and mpiio[0].offset == 1024
        # Independent MPI-IO also lowers to a POSIX segment.
        assert any(s.module == "X_POSIX" for s in segments)

    def test_segment_cap_counts_drops(self):
        ops = (
            IOOp(kind=OpKind.WRITE, api=API.POSIX, rank=0, path="/scratch/f", offset=i * 100, size=100)
            for i in range(10)
        )
        segments, dropped = _run_with_dxt(ops, nprocs=1, max_segments=5)
        assert len(segments) == 5
        assert dropped == 5

    def test_by_rank_grouping(self):
        ops = [
            IOOp(kind=OpKind.WRITE, api=API.POSIX, rank=r, path="/scratch/f", offset=r * 100, size=100)
            for r in (0, 1, 0)
        ]
        dxt = DxtCollector()
        for i, op in enumerate(ops):
            dxt.on_op(op, float(i), float(i) + 0.5, None)
        groups = dxt.by_rank()
        assert len(groups[0]) == 2 and len(groups[1]) == 1

    def test_invalid_cap(self):
        with pytest.raises(ValueError):
            DxtCollector(max_segments=0)


class TestDxtAnalysis:
    def test_render_text_format(self):
        segments, _ = _run_with_dxt(
            [IOOp(kind=OpKind.WRITE, api=API.POSIX, rank=0, path="/scratch/f", offset=0, size=4096)]
        )
        text = render_dxt_text(segments)
        assert "X_POSIX" in text and "/scratch/f" in text
        assert text.startswith("# DXT trace")

    def test_timeline_phase_detection(self):
        ops = []
        for i in range(50):
            ops.append(IOOp(kind=OpKind.READ, api=API.POSIX, rank=0, path="/scratch/in", offset=i * MiB, size=MiB))
        for i in range(50):
            ops.append(IOOp(kind=OpKind.WRITE, api=API.POSIX, rank=0, path="/scratch/out", offset=i * MiB, size=MiB))
        facts = dxt_timeline_facts(_run_with_dxt(ops, nprocs=1)[0])
        assert facts[0].get("phase") == "read-then-write"
        assert facts[0].get("n_segments") == 100

    def test_burst_detection(self):
        ops = []
        # Quiet phase: tiny log writes separated by compute gaps...
        for i in range(40):
            ops.append(IOOp(kind=OpKind.WRITE, api=API.POSIX, rank=0, path="/scratch/log", offset=i * 4096, size=4096))
            ops.append(IOOp(kind=OpKind.COMPUTE, api=API.POSIX, rank=0, duration=0.005))
        # ... then a dense checkpoint burst at the end.
        for i in range(20):
            ops.append(IOOp(kind=OpKind.WRITE, api=API.POSIX, rank=0, path="/scratch/ckpt", offset=i * MiB, size=MiB))
        facts = dxt_timeline_facts(_run_with_dxt(ops, nprocs=1)[0])
        assert facts[0].get("n_bursts") >= 1
        assert facts[0].get("peak_to_mean") > 3.0

    def test_empty_segments(self):
        assert dxt_timeline_facts([]) == []

    def test_timeline_fact_round_trips_through_nl(self):
        from repro.llm.facts import extract_facts, render_fact

        ops = [IOOp(kind=OpKind.WRITE, api=API.POSIX, rank=0, path="/scratch/f", offset=0, size=4096)]
        facts = dxt_timeline_facts(_run_with_dxt(ops, nprocs=1)[0])
        text = render_fact(facts[0])
        recovered = extract_facts(text)
        assert any(f.kind == "dxt_timeline" for f in recovered)


class TestCli:
    @pytest.fixture()
    def trace_file(self, sb01_trace, tmp_path):
        path = tmp_path / "sb01.darshan.txt"
        path.write_text(render_darshan_text(sb01_trace.log), encoding="utf-8")
        return str(path)

    def test_parser_commands(self):
        parser = build_parser()
        args = parser.parse_args(["diagnose", "t.txt", "--model", "llama-3.1-70b"])
        assert args.command == "diagnose" and args.model == "llama-3.1-70b"
        args = parser.parse_args(["tracebench", "table3"])
        assert args.tb_command == "table3"

    def test_diagnose_command(self, trace_file, capsys):
        assert main(["diagnose", trace_file]) == 0
        out = capsys.readouterr().out
        assert "small_write" in out and "References" in out

    def test_diagnose_no_rag(self, trace_file, capsys):
        assert main(["diagnose", trace_file, "--no-rag"]) == 0
        assert "References:" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command, nprocs",
        [
            *((command, "four") for command in ("diagnose", "drishti", "chat", "series", "serve")),
            ("diagnose", "0"),  # parses as an int, but JobHeader rejects it
        ],
        ids=["diagnose", "drishti", "chat", "series", "serve", "diagnose-nprocs-0"],
    )
    def test_malformed_trace_file_exits_2(self, trace_file, tmp_path, capsys, command, nprocs):
        bad = tmp_path / "bad.darshan.txt"
        text = open(trace_file, encoding="utf-8").read()
        bad.write_text(text.replace("# nprocs: 4\n", f"# nprocs: {nprocs}\n"), encoding="utf-8")
        argv = [command, str(bad)] + ([str(bad)] if command == "series" else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {bad}: header field 'nprocs': invalid value '{nprocs}'\n"

    def test_missing_trace_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.txt"
        assert main(["diagnose", str(missing)]) == 2
        assert capsys.readouterr().err == f"error: {missing}: No such file or directory\n"

    def test_drishti_command(self, trace_file, capsys):
        assert main(["drishti", trace_file]) == 0
        assert "DRISHTI" in capsys.readouterr().out

    def test_ion_command(self, trace_file, capsys):
        assert main(["ion", trace_file]) == 0
        assert "assessment" in capsys.readouterr().out.lower()

    def test_table3_command(self, capsys):
        assert main(["tracebench", "table3"]) == 0
        assert "182" in capsys.readouterr().out

    def test_export_command(self, tmp_path, capsys):
        out_dir = tmp_path / "tb"
        assert main(["tracebench", "export", str(out_dir)]) == 0
        assert (out_dir / "labels.tsv").exists()
        assert len(list(out_dir.glob("*.darshan.txt"))) == 40

    def test_export_dxt_flag_preserves_the_channel(self, tmp_path, capsys):
        from repro.darshan.parser import parse_darshan_text

        plain_dir, dxt_dir = tmp_path / "plain", tmp_path / "dxt"
        assert main(["tracebench", "export", str(plain_dir)]) == 0
        assert main(["tracebench", "export", str(dxt_dir), "--dxt"]) == 0
        name = "sb01-small-writes.darshan.txt"
        plain = parse_darshan_text((plain_dir / name).read_text(encoding="utf-8"))
        restored = parse_darshan_text((dxt_dir / name).read_text(encoding="utf-8"))
        assert plain.dxt_segments is None  # default export unchanged
        assert restored.has_dxt
        assert len(restored.dxt_segments) > 0

    def test_evaluate_subset(self, capsys):
        assert main(["evaluate", "--traces", "sb01-small-writes,ra01-amrex"]) == 0
        out = capsys.readouterr().out
        assert "IOAgent-gpt-4o" in out and "Overall" in out

    def test_evaluate_unknown_trace_ids(self, capsys):
        code = main(["evaluate", "--traces", "sb01-small-writes,nope-1,nope-2"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: unknown trace ids: nope-1, nope-2" in err
        assert "sb01-small-writes" in err  # the available ids are listed

    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_list_tools(self, capsys):
        assert main(["--list-tools"]) == 0
        listed = capsys.readouterr().out.split()
        assert {"ioagent", "drishti", "ion"} <= set(listed)

    def test_ioagent_alias_and_max_workers(self, trace_file, capsys):
        assert main(["ioagent", trace_file]) == 0
        assert "small_write" in capsys.readouterr().out
        # Runs are serial; the thread-pool flag is gone.
        with pytest.raises(SystemExit) as exc:
            main(["ioagent", trace_file, "--max-workers", "1"])
        assert exc.value.code == 2

    def test_no_command_errors(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_list_scenarios_flag(self, capsys):
        assert main(["--list-scenarios"]) == 0
        listed = capsys.readouterr().out.split()
        assert "sb01-small-writes" in listed and "path12-clean-baseline" in listed
        assert len(listed) >= 52

    def test_list_scenarios_subcommand(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "sb01-small-writes" in out and "path09-fsync-per-write" in out
        assert "<clean>" in out  # the control's empty ground truth

    def test_list_scenarios_tag_filter(self, capsys):
        assert main(["list-scenarios", "--tag", "pathology"]) == 0
        out = capsys.readouterr().out
        assert "path01-random-small-reads" in out
        assert "sb01-small-writes" not in out

    def test_list_scenarios_unknown_tag(self, capsys):
        assert main(["list-scenarios", "--tag", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario selector: nope" in err
        assert "available tags:" in err

    def test_evaluate_scenarios_selector(self, capsys):
        assert main(["evaluate", "--scenarios", "control"]) == 0
        out = capsys.readouterr().out
        assert "Pathology" in out and "IOAgent-gpt-4o" in out

    def test_evaluate_unknown_scenario_selector(self, capsys):
        code = main(["evaluate", "--scenarios", "pathology,bogus-tag"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown scenario selector: bogus-tag" in err
        assert "available tags:" in err and "pathology" in err

    def test_evaluate_difficulty_selector(self, capsys):
        """`--scenarios <difficulty>` works like any tag selector and the
        output carries the per-difficulty accuracy split."""
        assert main(["evaluate", "--scenarios", "control"]) == 0
        out = capsys.readouterr().out
        assert "Accuracy by scenario difficulty" in out
        assert "control" in out

    def test_evaluate_unknown_difficulty_hint(self, capsys):
        code = main(["evaluate", "--scenarios", "HARD"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown scenario selector: HARD" in err
        assert "did you mean 'hard'" in err
        assert "difficulty tiers: easy, medium, hard, control" in err

    def test_evaluate_unknown_selector_lists_difficulties(self, capsys):
        code = main(["evaluate", "--scenarios", "nightmare"])
        assert code == 2
        err = capsys.readouterr().err
        assert "difficulty tiers: easy, medium, hard, control" in err

    def test_evaluate_scenarios_and_traces_combine(self, capsys):
        code = main(
            ["evaluate", "--scenarios", "control", "--traces", "sb01-small-writes"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Pathology" in out and "Simple-Bench" in out
