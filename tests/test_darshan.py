"""Tests for the Darshan substrate: counters, instrumentation, text I/O."""

from __future__ import annotations

import hashlib
import re

import pytest
from darshan_oracle import oracle_parse_dxt_text, oracle_parse_with_report
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.service import DiagnosisService, trace_digest
from repro.darshan.counters import (
    MODULE_COUNTERS,
    SIZE_BIN_EDGES,
    SIZE_BIN_SUFFIXES,
    size_bin_index,
    size_counters,
)
from repro.darshan import parser as parser_module
from repro.darshan.dxt import collect_segments, dxt_digest, parse_dxt_text
from repro.darshan.instrument import DarshanInstrument
from repro.darshan.log import MODULE_ORDER, DarshanLog, JobHeader
from repro.darshan.parser import (
    DarshanParseError,
    parse_darshan_text,
    parse_darshan_text_with_report,
)
from repro.darshan.records import DarshanRecord, record_id_for
from repro.darshan.writer import iter_darshan_text, render_darshan_text
from repro.resilience.faults import FaultPlan, FaultSpec, corrupt_trace_text
from repro.sim.filesystem import LustreFileSystem
from repro.sim.ops import API, IOOp, OpKind
from repro.sim.runtime import IORuntime, JobSpec
from repro.util.units import MiB
from repro.workloads.scenarios import build_scenario, get_scenario


class TestCounters:
    def test_size_bins_cover_examples(self):
        assert SIZE_BIN_SUFFIXES[size_bin_index(0)] == "0_100"
        assert SIZE_BIN_SUFFIXES[size_bin_index(47008)] == "10K_100K"
        assert SIZE_BIN_SUFFIXES[size_bin_index(MiB)] == "1M_4M"
        assert SIZE_BIN_SUFFIXES[size_bin_index(2 * 1024**3)] == "1G_PLUS"

    @given(st.integers(min_value=0, max_value=2**40))
    def test_size_bin_index_in_range(self, size):
        idx = size_bin_index(size)
        assert 0 <= idx < len(SIZE_BIN_SUFFIXES)
        # Lower bin edges are inclusive (bisect_right semantics).
        if idx > 0:
            assert size >= SIZE_BIN_EDGES[idx - 1]
        if idx < len(SIZE_BIN_EDGES):
            assert size < SIZE_BIN_EDGES[idx]

    def test_size_bin_rejects_negative(self):
        with pytest.raises(ValueError):
            size_bin_index(-1)

    def test_size_counters_naming(self):
        names = size_counters("POSIX", "READ")
        assert names[0] == "POSIX_SIZE_READ_0_100"
        assert len(names) == 10
        agg = size_counters("MPIIO", "WRITE", agg=True)
        assert agg[-1] == "MPIIO_SIZE_WRITE_AGG_1G_PLUS"

    def test_every_module_declares_counters(self):
        for module in MODULE_ORDER:
            assert MODULE_COUNTERS[module]


class TestRecords:
    def test_record_id_stable_and_positive(self):
        assert record_id_for("/scratch/a") == record_id_for("/scratch/a")
        assert record_id_for("/scratch/a") > 0

    def test_shared_flag(self):
        assert DarshanRecord(module="POSIX", path="/f", rank=-1).shared
        assert not DarshanRecord(module="POSIX", path="/f", rank=0).shared

    def test_get_spans_both_tables(self):
        rec = DarshanRecord(module="POSIX", path="/f", rank=0)
        rec.counters["POSIX_READS"] = 3
        rec.fcounters["POSIX_F_READ_TIME"] = 1.5
        assert rec.get("POSIX_READS") == 3
        assert rec.get("POSIX_F_READ_TIME") == 1.5
        assert rec.get("MISSING", 7) == 7


def _run_instrumented(ops, nprocs=4, **fs_kwargs):
    fs = LustreFileSystem(seed=2, **fs_kwargs)
    spec = JobSpec(exe="/bin/x", nprocs=nprocs, jobid=9)
    result = IORuntime(spec, fs).run(ops)
    return DarshanInstrument(spec, fs).finalize(result.runtime, result.ops)


class TestInstrument:
    def test_root_mounted_filesystem_owns_its_files(self):
        fs = LustreFileSystem(mount_point="/", seed=2)
        spec = JobSpec(exe="/bin/x", nprocs=1)
        write = IOOp(kind=OpKind.WRITE, api=API.POSIX, rank=0, path="/data/x", size=4096)
        result = IORuntime(spec, fs).run([write])
        log = DarshanInstrument(spec, fs).finalize(result.runtime, result.ops)
        (posix,) = log.records_for("POSIX")
        assert (posix.mount_point, posix.fs_type) == ("/", "lustre")
        assert [r.path for r in log.records_for("LUSTRE")] == ["/data/x"]
        segments, _ = collect_segments(result.ops)
        assert segments[0].ost == fs.layout_for("/data/x").ost_ids[0]

    def test_sequential_and_consecutive_detection(self):
        ops = [IOOp(kind=OpKind.WRITE, api=API.POSIX, rank=0, path="/scratch/f", offset=i * 4096, size=4096) for i in range(10)]
        log = _run_instrumented(ops, nprocs=1)
        rec = log.records_for("POSIX")[0]
        assert rec.counters["POSIX_WRITES"] == 10
        assert rec.counters["POSIX_CONSEC_WRITES"] == 9  # first op has no predecessor
        assert rec.counters["POSIX_SEQ_WRITES"] == 9

    def test_gapped_writes_are_seq_but_not_consec(self):
        ops = [IOOp(kind=OpKind.WRITE, api=API.POSIX, rank=0, path="/scratch/f", offset=i * 8192, size=4096) for i in range(10)]
        log = _run_instrumented(ops, nprocs=1)
        rec = log.records_for("POSIX")[0]
        assert rec.counters["POSIX_SEQ_WRITES"] == 9
        assert rec.counters["POSIX_CONSEC_WRITES"] == 0

    def test_rw_switch_counting(self):
        ops = []
        for i in range(4):
            kind = OpKind.WRITE if i % 2 == 0 else OpKind.READ
            ops.append(IOOp(kind=kind, api=API.POSIX, rank=0, path="/scratch/f", offset=i * 4096, size=4096))
        log = _run_instrumented(ops, nprocs=1)
        assert log.records_for("POSIX")[0].counters["POSIX_RW_SWITCHES"] == 3

    def test_alignment_counters(self):
        ops = [
            IOOp(kind=OpKind.WRITE, api=API.POSIX, rank=0, path="/scratch/f", offset=17, size=100, mem_aligned=False),
            IOOp(kind=OpKind.WRITE, api=API.POSIX, rank=0, path="/scratch/f", offset=4096, size=100),
        ]
        log = _run_instrumented(ops, nprocs=1)
        rec = log.records_for("POSIX")[0]
        assert rec.counters["POSIX_FILE_NOT_ALIGNED"] == 1
        assert rec.counters["POSIX_MEM_NOT_ALIGNED"] == 1
        assert rec.counters["POSIX_FILE_ALIGNMENT"] == 4096

    def test_size_histogram_binning(self):
        ops = [
            IOOp(kind=OpKind.WRITE, api=API.POSIX, rank=0, path="/scratch/f", offset=0, size=50),
            IOOp(kind=OpKind.WRITE, api=API.POSIX, rank=0, path="/scratch/f", offset=50, size=47008),
        ]
        log = _run_instrumented(ops, nprocs=1)
        rec = log.records_for("POSIX")[0]
        assert rec.counters["POSIX_SIZE_WRITE_0_100"] == 1
        assert rec.counters["POSIX_SIZE_WRITE_10K_100K"] == 1

    def test_shared_file_reduction(self):
        ops = []
        for r in range(4):
            ops.append(IOOp(kind=OpKind.WRITE, api=API.POSIX, rank=r, path="/scratch/s", offset=r * MiB, size=MiB))
        log = _run_instrumented(ops)
        rec = log.records_for("POSIX")[0]
        assert rec.rank == -1  # shared record
        assert rec.counters["POSIX_FASTEST_RANK_BYTES"] == MiB
        assert rec.fcounters["POSIX_F_SLOWEST_RANK_TIME"] > 0

    def test_single_rank_record_keeps_rank(self):
        ops = [IOOp(kind=OpKind.WRITE, api=API.POSIX, rank=2, path="/scratch/own", offset=0, size=100)]
        log = _run_instrumented(ops)
        assert log.records_for("POSIX")[0].rank == 2

    def test_common_access_sizes(self):
        ops = [IOOp(kind=OpKind.WRITE, api=API.POSIX, rank=0, path="/scratch/f", offset=i * 1000, size=1000) for i in range(5)]
        ops.append(IOOp(kind=OpKind.WRITE, api=API.POSIX, rank=0, path="/scratch/f", offset=5000, size=77))
        log = _run_instrumented(ops, nprocs=1)
        rec = log.records_for("POSIX")[0]
        assert rec.counters["POSIX_ACCESS1_ACCESS"] == 1000
        assert rec.counters["POSIX_ACCESS1_COUNT"] == 5

    def test_lustre_record_created_with_layout(self):
        ops = [IOOp(kind=OpKind.WRITE, api=API.POSIX, rank=0, path="/scratch/f", offset=0, size=MiB)]
        log = _run_instrumented(ops, nprocs=1, default_stripe_width=2, num_osts=8)
        lrec = log.records_for("LUSTRE")[0]
        assert lrec.counters["LUSTRE_STRIPE_WIDTH"] == 2
        assert lrec.counters["LUSTRE_OSTS"] == 8
        assert "LUSTRE_OST_ID_1" in lrec.counters

    def test_metadata_time_accumulates(self):
        ops = [
            IOOp(kind=OpKind.OPEN, api=API.POSIX, rank=0, path="/scratch/f"),
            IOOp(kind=OpKind.STAT, api=API.POSIX, rank=0, path="/scratch/f"),
            IOOp(kind=OpKind.CLOSE, api=API.POSIX, rank=0, path="/scratch/f"),
        ]
        log = _run_instrumented(ops, nprocs=1)
        rec = log.records_for("POSIX")[0]
        assert rec.fcounters["POSIX_F_META_TIME"] > 0
        assert rec.counters["POSIX_OPENS"] == 1
        assert rec.counters["POSIX_STATS"] == 1

    def test_mpiio_collective_counters(self):
        ops = [
            IOOp(kind=OpKind.WRITE, api=API.MPIIO, rank=r, path="/scratch/c", offset=r * MiB, size=MiB, collective=True)
            for r in range(4)
        ]
        log = _run_instrumented(ops)
        rec = log.records_for("MPIIO")[0]
        assert rec.counters["MPIIO_COLL_WRITES"] == 4
        assert rec.counters["MPIIO_INDEP_WRITES"] == 0


class TestTextRoundTrip:
    def test_round_trip_preserves_everything(self, sb01_trace):
        text = render_darshan_text(sb01_trace.log)
        log2 = parse_darshan_text(text)
        assert log2.header.nprocs == sb01_trace.log.header.nprocs
        assert log2.header.jobid == sb01_trace.log.header.jobid
        assert len(log2.records) == len(sb01_trace.log.records)
        orig = {(r.module, r.path): r for r in sb01_trace.log.records}
        for rec in log2.records:
            o = orig[(rec.module, rec.path)]
            assert rec.rank == o.rank
            assert rec.counters == o.counters

    def test_module_section_order(self, sb01_trace):
        text = render_darshan_text(sb01_trace.log)
        posix_pos = text.index("POSIX module data")
        mpiio_pos = text.index("MPI-IO module data")
        lustre_pos = text.index("LUSTRE module data")
        assert posix_pos < mpiio_pos < lustre_pos  # MPI-IO in the latter half

    def test_parser_rejects_malformed_rows(self):
        with pytest.raises(DarshanParseError):
            parse_darshan_text("POSIX\t0\tbroken line without enough fields\n")

    def test_parser_requires_header(self):
        with pytest.raises(DarshanParseError):
            parse_darshan_text("# exe: /bin/x\n")

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("nprocs", "four"),
            ("uid", "1001x"),
            ("run time", ""),
            ("jobid", "1.5"),
            ("nprocs", "0"),
            ("run time", "-1.0000"),
        ],
    )
    @pytest.mark.parametrize("lenient", [False, True])
    def test_malformed_header_value_names_the_field(self, sb01_trace, field, bad, lenient):
        text = render_darshan_text(sb01_trace.log)
        damaged = re.sub(rf"^# {field}: .*$", f"# {field}: {bad}", text, count=1, flags=re.M)
        assert damaged != text
        with pytest.raises(DarshanParseError, match=f"header field '{field}'"):
            parse_darshan_text(damaged, lenient=lenient)

    def test_header_cut_at_any_offset_yields_a_log_or_a_typed_error(self, sb01_trace):
        text = render_darshan_text(sb01_trace.log)
        header_end = text.index("\nPOSIX\t")
        for lenient in (False, True):
            for cut in range(header_end + 1):
                try:
                    log = parse_darshan_text(text[:cut], lenient=lenient)
                except DarshanParseError:
                    continue
                assert log.header.exe == sb01_trace.log.header.exe

    def test_parser_tolerates_comments_and_blanks(self, sb01_trace):
        text = render_darshan_text(sb01_trace.log)
        noisy = text.replace("\n\n", "\n# stray comment\n\n", 1)
        assert parse_darshan_text(noisy).header.exe == sb01_trace.log.header.exe


def _whole_text_digest(log) -> str:
    """The digest as defined before streaming: sha256 of the whole text + DXT."""
    digest = hashlib.sha256(render_darshan_text(log).encode("utf-8"))
    if log.dxt_segments:
        digest.update(dxt_digest(log.dxt_segments).encode("ascii"))
    return digest.hexdigest()


def _hand_built_log() -> DarshanLog:
    """Non-ASCII path, float counters, MPIIO without records, no mounts."""
    header = JobHeader(
        exe="/opt/app/naïve", uid=7, jobid=42, nprocs=2,
        start_time=1_700_000_000, end_time=1_700_000_010, run_time=10.0,
    )
    records = [
        DarshanRecord(
            "POSIX", "/scratch/données/ファイル.dat", rank=0,
            counters={"POSIX_WRITES": 3, "POSIX_BYTES_WRITTEN": 12_288},
            fcounters={"POSIX_F_WRITE_TIME": 0.1234567, "POSIX_F_META_TIME": 2.5e-7},
            mount_point="/scratch", fs_type="lustre",
        ),
        DarshanRecord(
            "STDIO", "/home/ü/log.txt", rank=-1,
            counters={"STDIO_WRITES": 1}, fcounters={"STDIO_F_WRITE_TIME": 1e-3},
        ),
    ]
    return DarshanLog(header=header, records=records)


class TestStreamedDigest:
    """trace_digest hashes the text chunk by chunk; the bytes must not move."""

    # sha256 of render_darshan_text(sb01-small-writes at seed 0), taken
    # from the whole-text renderer the chunked one replaced.
    SB01_TEXT_SHA256 = "ca2d0642f78de171aac47926400a08e9c686336b0f3582e334ce4b8781749887"

    def test_sb01_rendering_is_pinned(self, sb01_trace):
        text = render_darshan_text(sb01_trace.log)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == self.SB01_TEXT_SHA256

    def test_counter_only_scenario(self, sb01_trace):
        log = parse_darshan_text(render_darshan_text(sb01_trace.log))
        assert log.dxt_segments is None
        assert trace_digest(log) == _whole_text_digest(log)

    def test_dxt_scenario(self):
        log = build_scenario(get_scenario("path14-lock-convoy"), seed=0).log
        assert log.dxt_segments
        assert trace_digest(log) == _whole_text_digest(log)

    def test_hand_built_log(self):
        log = _hand_built_log()
        text = render_darshan_text(log)
        assert "# mount entry" not in text and "MPI-IO module data" not in text
        assert "0.123457\t/scratch/données/ファイル.dat" in text
        assert trace_digest(log) == _whole_text_digest(log)

    def test_chunks_are_records(self, sb01_trace):
        chunks = list(iter_darshan_text(sb01_trace.log))
        assert "".join(chunks) == render_darshan_text(sb01_trace.log)
        # header + per module (section header, its records, blank line)
        modules = sb01_trace.log.modules()
        assert len(chunks) == 1 + 2 * len(modules) + len(sb01_trace.log.records)


class TestDamagedText:
    """Edge cases for both parser postures: strict raises, lenient counts."""

    def test_empty_dxt_section(self, sb01_trace):
        # A DXT marker with no segment lines is valid in both postures:
        # the temporal channel is simply absent, not an error.
        text = render_darshan_text(sb01_trace.log) + "# DXT trace\n"
        for lenient in (False, True):
            log, report = parse_darshan_text_with_report(text, lenient=lenient)
            assert log.dxt_segments is None
            assert report.dxt_lines == 0
            assert report.clean

    def test_trailing_garbage_after_last_record(self, sb01_trace):
        text = render_darshan_text(sb01_trace.log) + "?? trailing garbage ??\n"
        with pytest.raises(DarshanParseError):
            parse_darshan_text(text)
        log, report = parse_darshan_text_with_report(text, lenient=True)
        assert len(log.records) == len(sb01_trace.log.records)
        assert report.skipped_count == 1
        assert report.skipped[0].text == "?? trailing garbage ??"
        assert "8 tab-separated fields" in report.skipped[0].reason

    def test_mid_line_truncation(self, sb01_trace):
        text = render_darshan_text(sb01_trace.log).rstrip("\n")
        truncated = text[: len(text) - len(text.rsplit("\t", 2)[-1]) - 4]
        with pytest.raises(DarshanParseError):
            parse_darshan_text(truncated)
        log, report = parse_darshan_text_with_report(truncated, lenient=True)
        # Only the cut line is lost; every intact record survives.
        assert report.skipped_count == 1
        assert len(log.records) >= len(sb01_trace.log.records) - 1

    def test_dxt_garbage_lineno_offsets_into_full_text(self, sb01_trace):
        text = render_darshan_text(sb01_trace.log, include_dxt=True)
        assert "# DXT trace" in text  # the fixture trace carries segments
        damaged = text + "POSIX garbled \x00 segment line\n"
        with pytest.raises(DarshanParseError):
            parse_darshan_text(damaged)
        log, report = parse_darshan_text_with_report(damaged, lenient=True)
        assert log.dxt_segments is not None
        assert report.skipped_count == 1
        # The skipped lineno is positioned in the *full* text, not the
        # DXT sub-text, so diagnostics point at the real line.
        assert report.skipped[0].lineno == len(damaged.splitlines())

    def test_strict_round_trip_report_is_clean(self, sb01_trace):
        text = render_darshan_text(sb01_trace.log, include_dxt=True)
        log, report = parse_darshan_text_with_report(text)
        assert report.clean
        assert report.record_lines > 0
        assert report.dxt_lines == len(log.dxt_segments)

    def test_missing_header_raises_even_lenient(self):
        with pytest.raises(DarshanParseError, match="missing header fields"):
            parse_darshan_text_with_report("# exe: /bin/x\n", lenient=True)


# -- the bulk parser against the line-by-line oracle ------------------------


def _outcome(parse, text: str, lenient: bool):
    """A parse's observable result: the log's content and report, or the error."""
    try:
        result = parse(text, lenient=lenient)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return ("raised", type(exc), str(exc))
    log, report = result[0], result[-1]
    records = result[1] if len(result) == 3 else log.records
    h = log.header
    header = (h.exe, h.uid, h.jobid, h.nprocs, h.start_time, h.end_time, h.run_time)
    header += (h.log_version, h.mounts)
    dxt = dxt_digest(log.dxt_segments) if log.dxt_segments else None
    return header, [_row_content(r) for r in records], dxt, report


def _row_content(r) -> tuple:
    """A record's fields, with its counters in order and with value types."""
    counters = [(k, v, type(v)) for k, v in r.counters.items()]
    fcounters = [(k, v, type(v)) for k, v in r.fcounters.items()]
    return (r.module, r.path, r.rank, r.mount_point, r.fs_type, counters, fcounters)


def _assert_matches_oracle(text: str) -> None:
    for lenient in (False, True):
        new = _outcome(parse_darshan_text_with_report, text, lenient)
        assert new == _outcome(oracle_parse_with_report, text, lenient)
        if new[0] != "raised":
            log = parse_darshan_text(text, lenient=lenient)
            assert trace_digest(log) == _whole_text_digest(log)


_EDITS = ("blank", "comment", "move", "repeat", "record-id", "spelling", "tab", "rank")
_SPELLINGS = ("007", "+5", "1e3", "2.50", "-0", "-12", "-3.250000", "1_000", " 7", "0.000000", "x")


@st.composite
def _edited_traces(draw):
    """A rendered trace with edits the parser accepts, and maybe damage."""
    base = draw(st.sampled_from(sorted(_BASE_TEXTS)))
    lines = _BASE_TEXTS[base]().split("\n")
    records = [i for i, line in enumerate(lines) if line.count("\t") == 7 and line[0] != "#"]
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(_EDITS))
        i = draw(st.sampled_from(records))
        fields = lines[i].split("\t")
        if op == "blank":
            lines.insert(i, "")
        elif op == "comment":
            lines.insert(i, "# an extra comment")
        elif op == "move":
            # Reorders counters or records, or splits a record into two runs.
            lines.insert(draw(st.sampled_from(records)), lines.pop(i))
        elif op == "repeat":
            lines.insert(i, lines[i])
        elif op == "record-id":
            fields[2] = str(draw(st.integers(0, 2**63 - 1)))
            lines[i] = "\t".join(fields)
        elif op == "spelling":
            fields[4] = draw(st.sampled_from(_SPELLINGS))
            lines[i] = "\t".join(fields)
        elif op == "rank":  # at, around and past each base text's nprocs
            fields[1] = draw(st.sampled_from(["-1", "0", "1", "3", "4", "9", "99"]))
            lines[i] = "\t".join(fields)
        else:
            at = draw(st.integers(0, len(lines[i])))
            if draw(st.booleans()) and "\t" in lines[i]:
                lines[i] = lines[i].replace("\t", "", 1)
            else:
                lines[i] = lines[i][:at] + "\t" + lines[i][at:]
        records = [j for j, line in enumerate(lines) if line.count("\t") == 7 and line[:1] != "#"]
    text = ("\r\n" if draw(st.booleans()) else "\n").join(lines)
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    return text


def _rendered(name: str, dxt: bool):
    def build() -> str:
        if name not in _RENDERED:
            log = build_scenario(get_scenario(name), seed=0).log
            _RENDERED[name] = render_darshan_text(log, include_dxt=dxt)
        return _RENDERED[name]

    return build


_RENDERED: dict[str, str] = {}
_BASE_TEXTS = {
    "sb01": _rendered("sb01-small-writes", dxt=False),
    "path14": _rendered("path14-lock-convoy", dxt=True),
    "hand-built": lambda: render_darshan_text(_hand_built_log()),
}


class TestBulkParserMatchesOracle:
    """The bulk parser reads every text exactly as the line-by-line oracle does."""

    @pytest.mark.parametrize("base", sorted(_BASE_TEXTS))
    def test_rendered_text_round_trips_with_its_digest(self, base):
        text = _BASE_TEXTS[base]()
        _assert_matches_oracle(text)
        log = parse_darshan_text(text)
        assert log.counter_table.memo is not None  # the writer's bytes: no re-render
        assert render_darshan_text(log, include_dxt=True) == text
        row = log.records[0]
        with pytest.raises(AttributeError):
            row.rank = 3
        with pytest.raises(TypeError):
            row.counters["POSIX_WRITES"] = 1
        left_to_right = sum(r.get("POSIX_F_WRITE_TIME", 0) for r in log.records)
        assert log.total("POSIX_F_WRITE_TIME") == float(left_to_right)

    @settings(max_examples=150, deadline=None)
    @given(_edited_traces())
    def test_edited_and_damaged_text(self, text):
        _assert_matches_oracle(text)


class TestRankBelowShared:
    """A rank below -1, the shared-record rank, is rejected like one that does not parse.

    Accepted, rank -7 crashed the rank summary with an IndexError and
    rank -2 booked rank 0's bytes to rank 2.
    """

    @staticmethod
    def _text(sb01_trace, rank: int) -> tuple[str, list[int]]:
        """sb01 with its rank-0 POSIX lines moved to ``rank``, and their line numbers."""
        lines = render_darshan_text(sb01_trace.log).split("\n")
        moved = [i for i, line in enumerate(lines) if line.startswith("POSIX\t0\t")]
        assert moved
        for i in moved:
            lines[i] = lines[i].replace("POSIX\t0\t", f"POSIX\t{rank}\t", 1)
        return "\n".join(lines), [i + 1 for i in moved]

    @pytest.mark.parametrize("rank", [-2, -7])
    def test_strict_names_the_line(self, sb01_trace, rank):
        text, linenos = self._text(sb01_trace, rank)
        message = f"rank {rank} is below -1, the shared-record rank"
        with pytest.raises(DarshanParseError, match=f"^line {linenos[0]}: {message}$"):
            parse_darshan_text(text)
        _assert_matches_oracle(text)

    @pytest.mark.parametrize("rank", [-2, -7])
    def test_lenient_skips_and_counts_the_lines(self, sb01_trace, rank):
        text, linenos = self._text(sb01_trace, rank)
        log, report = parse_darshan_text_with_report(text, lenient=True)
        assert [s.lineno for s in report.skipped] == linenos
        assert {s.reason for s in report.skipped} == {
            f"rank {rank} is below -1, the shared-record rank"
        }
        assert min(r.rank for r in log.records) >= -1


class TestNegativeCount:
    """A byte, operation or size-bin count below 0 is rejected like a value that does not parse.

    Accepted, a negative rank-0 ``POSIX_BYTES_WRITTEN`` failed the whole
    diagnosis in the rank summary (``gini is defined for non-negative values``).
    """

    @staticmethod
    def _text(sb01_trace, counter: str, value: str) -> tuple[str, int]:
        """sb01 with its rank-0 POSIX ``counter`` set to ``value``, and that line's number."""
        lines = render_darshan_text(sb01_trace.log).split("\n")
        head, name = "POSIX\t0\t", f"\t{counter}\t"
        i = next(i for i, line in enumerate(lines) if line.startswith(head) and name in line)
        fields = lines[i].split("\t")
        fields[4] = value
        lines[i] = "\t".join(fields)
        return "\n".join(lines), i + 1

    @pytest.mark.parametrize(
        "counter", ["POSIX_BYTES_WRITTEN", "POSIX_WRITES", "POSIX_OPENS", "POSIX_SIZE_WRITE_0_100"]
    )
    def test_strict_names_the_line(self, sb01_trace, counter):
        text, lineno = self._text(sb01_trace, counter, "-12")
        message = f"{counter} is -12, but a byte, operation or size-bin count is never negative"
        with pytest.raises(DarshanParseError, match=f"^line {lineno}: {message}$"):
            parse_darshan_text(text)
        _assert_matches_oracle(text)

    def test_lenient_skips_and_counts_the_line(self, sb01_trace):
        text, lineno = self._text(sb01_trace, "POSIX_BYTES_WRITTEN", "-12")
        log, report = parse_darshan_text_with_report(text, lenient=True)
        assert [s.lineno for s in report.skipped] == [lineno]
        assert "POSIX_BYTES_WRITTEN" not in log.records_for("POSIX")[0].counters
        DiagnosisService().diagnose(log, "negative-bytes")  # the rank summary holds

    @pytest.mark.parametrize("value", ["-0", "0", "-3.250000"])
    def test_zero_and_floats_pass(self, sb01_trace, value):
        text, _ = self._text(sb01_trace, "POSIX_BYTES_WRITTEN", value)
        _, report = parse_darshan_text_with_report(text)
        assert report.clean
        _assert_matches_oracle(text)

    def test_other_counters_may_be_negative(self, sb01_trace):
        text, _ = self._text(sb01_trace, "POSIX_FILE_ALIGNMENT", "-1")
        assert parse_darshan_text_with_report(text)[1].clean
        _assert_matches_oracle(text)


class TestRankPastNprocs:
    """A record whose rank is not below the header's nprocs is rejected, every line of it.

    Accepted, sb01's rank-0 POSIX record moved to rank 9 (of 4 processes)
    was dropped from the rank summary, which read a POSIX Gini of 0.25
    instead of 0.0.
    """

    @pytest.mark.parametrize("rank", [4, 9])
    def test_strict_names_the_first_line(self, sb01_trace, rank):
        text, linenos = TestRankBelowShared._text(sb01_trace, rank)
        message = re.escape(f"rank {rank} is not below the job's nprocs (4)")
        with pytest.raises(DarshanParseError, match=f"^line {linenos[0]}: {message}$"):
            parse_darshan_text(text)
        _assert_matches_oracle(text)

    def test_lenient_skips_and_counts_the_lines(self, sb01_trace):
        text, linenos = TestRankBelowShared._text(sb01_trace, 9)
        log, report = parse_darshan_text_with_report(text, lenient=True)
        assert [s.lineno for s in report.skipped] == linenos
        assert report.record_lines == parse_darshan_text_with_report(
            render_darshan_text(sb01_trace.log)
        )[1].record_lines - len(linenos)
        assert max(r.rank for r in log.records) < log.header.nprocs
        assert log.counter_table.memo is None  # not the writer's text for this log

    def test_lenient_keeps_the_other_records(self, sb01_trace, monkeypatch):
        text, _ = TestRankBelowShared._text(sb01_trace, 9)
        kept = parse_darshan_text(text, lenient=True).records
        whole = [r for r in sb01_trace.log.records if not (r.module == "POSIX" and r.rank == 0)]
        assert [(r.module, r.path, r.rank) for r in kept] == [
            (r.module, r.path, r.rank) for r in whole
        ]
        monkeypatch.setattr(parser_module, "_BLOCK_CHARS", 64)  # records across blocks
        _assert_matches_oracle(text)


class TestNegativeSegmentRank:
    """A DXT segment rank below 0 is rejected: a segment has no shared rank.

    Accepted, path14's rank-0 segments moved to rank -7 made
    ``dxt_rank_skew`` name ``slowest_rank: -7``.
    """

    @staticmethod
    def _text() -> tuple[str, list[int]]:
        """path14 with its DXT section, rank-0 X_POSIX/X_MPIIO segments at -7."""
        lines = _BASE_TEXTS["path14"]().split("\n")
        marker = next(i for i, line in enumerate(lines) if line.startswith("# DXT trace"))
        moved = []
        for i in range(marker + 1, len(lines)):
            fields = lines[i].split()
            if len(fields) == 10 and fields[0] in ("X_POSIX", "X_MPIIO") and fields[1] == "0":
                lines[i] = lines[i].replace(" 0 ", " -7 ", 1)
                moved.append(i + 1)
        assert moved
        return "\n".join(lines), moved

    def test_strict_raises(self):
        text, _ = self._text()
        message = "rank -7 is below 0; a DXT segment belongs to one process"
        with pytest.raises(DarshanParseError, match=f"^{message}$"):
            parse_darshan_text(text)
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_dxt_text(text[text.index("# DXT trace") :])
        _assert_matches_oracle(text)

    def test_lenient_skips_and_counts(self):
        from repro.darshan.dxt import dxt_temporal_facts

        text, moved = self._text()
        log, report = parse_darshan_text_with_report(text, lenient=True)
        assert [s.lineno for s in report.skipped] == moved
        assert int(log.dxt_segments.rank.min()) >= 0
        ranks = [f.get("slowest_rank") for f in dxt_temporal_facts(log.dxt_segments)]
        assert -7 not in ranks
        section = text[text.index("# DXT trace") :]
        skipped: list = []
        table = parse_dxt_text(section, lenient=True, skipped=skipped)
        oracle_skipped: list = []
        oracle = oracle_parse_dxt_text(section, lenient=True, skipped=oracle_skipped)
        assert dxt_digest(table) == dxt_digest(oracle)
        assert skipped == oracle_skipped and len(skipped) == len(moved)


class TestLenientDamageSweep:
    """Every trace fault of corrupt_trace_text, parsed as the oracle parses it."""

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("kind", ["trace-truncate", "trace-truncate-dxt", "trace-garble-lines"])
    @pytest.mark.parametrize("base", ["sb01", "path14"])
    def test_damage(self, base, kind, seed):
        plan = FaultPlan(name=f"sweep-{kind}", specs=(FaultSpec(kind),), seed=seed)
        damaged = corrupt_trace_text(_BASE_TEXTS[base](), plan, f"{base}/{seed}").text
        lenient = _outcome(parse_darshan_text_with_report, damaged, True)
        assert lenient[0] != "raised" or lenient[1] is DarshanParseError
        assert lenient == _outcome(oracle_parse_with_report, damaged, True)
        strict = _outcome(parse_darshan_text_with_report, damaged, False)
        assert strict == _outcome(oracle_parse_with_report, damaged, False)


# -- block edges and DXT lines under the oracle -------------------------------


_BLOCK_SIZES = (1, 64, 4096, 1 << 15)


class TestBlockEdges:
    """Record runs, the order check and the DXT marker straddling block edges.

    Every text above fits in one 1 MiB block; with blocks of 1, 64, 4096
    and 32768 characters a run, a record or the DXT marker line meets an
    edge, in blocks of one line up to a few hundred.
    """

    @pytest.mark.parametrize("block", _BLOCK_SIZES)
    @pytest.mark.parametrize("base", sorted(_BASE_TEXTS))
    def test_rendered_text(self, base, block, monkeypatch):
        monkeypatch.setattr(parser_module, "_BLOCK_CHARS", block)
        text = _BASE_TEXTS[base]()
        _assert_matches_oracle(text)
        assert parse_darshan_text(text).counter_table.memo is not None

    @settings(max_examples=100, deadline=None)
    @given(_edited_traces(), st.sampled_from(_BLOCK_SIZES))
    def test_edited_and_damaged_text(self, text, block):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(parser_module, "_BLOCK_CHARS", block)
            _assert_matches_oracle(text)


_DXT_EDITS = ("legacy", "spaced-path", "separators", "int", "float", "operation", "ost", "line")


@st.composite
def _edited_dxt_traces(draw):
    """path14 rendered with its DXT section, some segment lines edited."""
    lines = _BASE_TEXTS["path14"]().split("\n")
    marker = next(i for i, line in enumerate(lines) if line.startswith("# DXT trace"))
    segments = range(marker + 1, len(lines) - 1)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.sampled_from(segments))
        fields = lines[i].split()
        separator = " "
        op = draw(st.sampled_from(_DXT_EDITS))
        if len(fields) < 10:  # already edited down: leave it
            continue
        if op == "legacy":  # the pre-ost nine-field line
            del fields[8]
        elif op == "spaced-path":
            fields[-1] += draw(st.sampled_from([" copy", "  b  c", " 7", " -", "\tx"]))
        elif op == "separators":
            separator = draw(st.sampled_from(["\t", "   ", " \t ", "\t\t"]))
        elif op == "int":
            at = draw(st.sampled_from([1, 4, 5]))
            bad = ["x", "1.5", "+3", "1_0", "--1", "-7", "007", "\u0663"]
            fields[at] = draw(st.sampled_from(bad))
        elif op == "float":
            at = draw(st.sampled_from([6, 7]))
            fields[at] = draw(st.sampled_from(["x", "1e3", "nan", "-.5", "1..2", "7", "-0.0000"]))
        elif op == "operation":
            fields[2] = draw(st.sampled_from(["READ", "wr", "writes", "read.", "r"]))
        elif op == "ost":
            fields[8] = draw(st.sampled_from(["-", "0", "7", "12", "007", "-3", "x"]))
        else:  # a shorter line, a comment, a blank or a CR line end
            crlf = fields[:-1] + [fields[-1] + "\r"]
            fields = draw(st.sampled_from([fields[:5], ["#", "note"], [" "], crlf]))
        lines[i] = separator.join(fields)
    return "\n".join(lines)


class TestDxtLinesMatchOracle:
    """The DXT reader reads edited segment lines as the oracle does."""

    @settings(max_examples=150, deadline=None)
    @given(_edited_dxt_traces())
    def test_edited_segment_lines(self, text):
        _assert_matches_oracle(text)
        section = text[text.index("# DXT trace") :]
        for lenient in (False, True):
            outcomes = []
            for parse in (parse_dxt_text, oracle_parse_dxt_text):
                skipped: list = []
                try:
                    table = parse(section, lenient=lenient, skipped=skipped)
                except ValueError as exc:
                    outcomes.append(("raised", type(exc), str(exc)))
                    continue
                outcomes.append((dxt_digest(table), len(table), skipped))
            assert outcomes[0] == outcomes[1]


class TestEmptyValueField:
    """A counter line whose value field is empty fails as int('') does."""

    TEXT = (
        "# exe: /bin/x\n# uid: 1\n# jobid: 1\n# start_time: 1\n# end_time: 2\n"
        "# nprocs: 1\n# run time: 1.0\n"
        "POSIX\t0\t1\tPOSIX_READS\t\t/p\t/m\tfs\n"
        "POSIX\t0\t1\tPOSIX_WRITES\t12\t/p\t/m\tfs\n"
    )

    def test_strict_and_lenient(self):
        _assert_matches_oracle(self.TEXT)
        with pytest.raises(DarshanParseError, match="line 8: invalid literal for int"):
            parse_darshan_text(self.TEXT)
        log, report = parse_darshan_text_with_report(self.TEXT, lenient=True)
        assert report.skipped_count == 1
        assert log.records[0].counters == {"POSIX_WRITES": 12}


class TestRunsSplitAtTails:
    """Lines that share a head but not a tail belong to different records."""

    @pytest.mark.parametrize("lines_kept", [1, None])  # one line of record 1, or all
    @pytest.mark.parametrize("block", [4096, 1 << 20])  # about 40 lines a block; one block
    def test_shared_head(self, block, lines_kept, monkeypatch):
        monkeypatch.setattr(parser_module, "_BLOCK_CHARS", block)
        lines = _BASE_TEXTS["sb01"]().split("\n")
        heads = list(
            dict.fromkeys("\t".join(line.split("\t")[:3]) for line in lines if line[:6] == "POSIX\t")
        )
        second = [i for i, line in enumerate(lines) if line.startswith(heads[1] + "\t")]
        for i in reversed(second[lines_kept:] if lines_kept else []):
            del lines[i]
        # Record 1 now opens with record 0's head, right after record 0's lines.
        text = "\n".join(lines).replace(heads[1] + "\t", heads[0] + "\t")
        _assert_matches_oracle(text)
        assert len(parse_darshan_text(text).records_for("POSIX")) == len(heads)


class TestOneOddLineBreak:
    """A text without a final newline and with one other line break splits there."""

    @pytest.mark.parametrize("brk", ["\x1c", "\r", "\x0b"])
    def test_unterminated_text(self, brk):
        text = _BASE_TEXTS["sb01"]().rstrip("\n")
        at = text.index("POSIX_WRITES")
        _assert_matches_oracle(text[:at] + brk + text[at:])


class TestJobTimeOutOfRange:
    """A job time the writer cannot render is a malformed header field."""

    @staticmethod
    def _sb01_starting(value: str) -> str:
        text = _BASE_TEXTS["sb01"]()
        return re.sub(r"^# start_time: .*$", f"# start_time: {value}", text, count=1, flags=re.M)

    def test_start_time_beyond_int64(self):
        text = self._sb01_starting("1" + "0" * 20)
        for lenient in (False, True):  # the digest could not render its header
            new = _outcome(parse_darshan_text_with_report, text, lenient)
            assert new == _outcome(oracle_parse_with_report, text, lenient)
            with pytest.raises(DarshanParseError, match="header field 'start_time'"):
                parse_darshan_text(text, lenient=lenient)

    # gmtime refuses the first and last; strftime refuses the middle one.
    @pytest.mark.parametrize("start", ["1" + "0" * 17, "67768036191676799", "-67768040609740801"])
    def test_times_the_platform_cannot_date(self, start):
        with pytest.raises(DarshanParseError, match="header field 'start_time'"):
            parse_darshan_text(self._sb01_starting(start))

    def test_far_but_datable_time_parses_and_digests(self):
        log = parse_darshan_text(self._sb01_starting("253402300800"))
        assert log.header.start_time_ascii.endswith(" 10000")
        assert trace_digest(log) == hashlib.sha256(render_darshan_text(log).encode()).hexdigest()


class TestLoneSurrogatePath:
    """A path holding a lone surrogate parses, digests and keys like any other."""

    @staticmethod
    def _assert_keyed(text: str, clean: str) -> None:
        log = parse_darshan_text(text)
        digest = trace_digest(log)
        assert digest != trace_digest(parse_darshan_text(clean))
        assert DiagnosisService(tool="drishti").cache_key(log)[0] == digest

    def test_counter_path(self):
        clean = _BASE_TEXTS["sb01"]()
        path = parse_darshan_text(clean).records[0].path
        text = clean.replace(f"\t{path}\t", f"\t{path}\udc80\t")
        assert any("\udc80" in r.path for r in parse_darshan_text(text).records)
        self._assert_keyed(text, clean)

    def test_dxt_path(self):
        clean = _BASE_TEXTS["path14"]()
        marker = clean.index("# DXT")
        path = parse_darshan_text(clean).dxt_segments[0].path
        text = clean[:marker] + clean[marker:].replace(path, path + "\udc80")
        self._assert_keyed(text, clean)
