"""Scalar reference parsers: the line-by-line readings the bulk parser must equal.

``oracle_parse_with_report`` reads darshan-parser text one line at a time
into per-record dicts, and ``oracle_parse_dxt_text`` reads a DXT section
one segment at a time; both are the implementations the bulk parsers in
:mod:`repro.darshan.parser` and :mod:`repro.darshan.dxt` replaced.  Tests
compare the two on rendered traces, hand edits and damage.
"""

from __future__ import annotations

import re
from typing import Callable, TypeVar

from repro.darshan.counters import NONNEGATIVE_COUNTERS
from repro.darshan.dxt import _NEGATIVE_SEGMENT_RANK
from repro.darshan.log import DarshanLog, JobHeader
from repro.darshan.parser import (
    _NEGATIVE_COUNT,
    _RANK_BELOW_SHARED,
    _RANK_PAST_NPROCS,
    DarshanParseError,
    ParseReport,
    SkippedLine,
    _renders,
)
from repro.darshan.records import DarshanRecord
from repro.darshan.segtable import SegmentTable, SegmentTableBuilder

__all__ = ["oracle_parse_with_report", "oracle_parse_dxt_text"]

_T = TypeVar("_T")

_HEADER_RE = re.compile(r"^# ([a-z_ ]+): (.*)$")
_MOUNT_RE = re.compile(r"^# mount entry:\t(\S+)\t(\S+)$")


def _parse_record_line(
    line: str,
    lineno: int,
    records: dict[tuple[str, str], DarshanRecord],
    lines_of: dict[tuple[str, str], list[tuple[int, str]]],
) -> None:
    """Fold one tab-separated counter line into ``records`` (or raise)."""
    parts = line.split("\t")
    if len(parts) != 8:
        raise DarshanParseError(
            f"line {lineno}: expected 8 tab-separated fields, got {len(parts)}"
        )
    module, rank_s, _rid, counter, value_s, path, mount, fs_type = parts
    if "." in value_s or "e" in value_s or "E" in value_s:
        value: int | float = float(value_s)
    else:
        value = int(value_s)
        if value < 0 and counter in NONNEGATIVE_COUNTERS:
            raise ValueError(_NEGATIVE_COUNT.format(counter, value))
    rank = int(rank_s)
    if rank < -1:
        raise ValueError(_RANK_BELOW_SHARED.format(rank))
    key = (module, path)
    rec = records.get(key)
    if rec is None:
        rec = DarshanRecord(
            module=module,
            path=path,
            rank=rank,
            mount_point=mount,
            fs_type=fs_type,
        )
        records[key] = rec
    lines_of.setdefault(key, []).append((lineno, line))
    if isinstance(value, float):
        rec.fcounters[counter] = value
    else:
        rec.counters[counter] = value


def _header_value(
    fields: dict[str, str],
    name: str,
    convert: Callable[[str], _T],
    valid: Callable[[_T], bool] = lambda value: True,
) -> _T:
    try:
        value = convert(fields[name])
    except ValueError:
        raise DarshanParseError(f"header field {name!r}: invalid value {fields[name]!r}") from None
    if not valid(value):
        raise DarshanParseError(f"header field {name!r}: invalid value {fields[name]!r}")
    return value


def oracle_parse_with_report(
    text: str, *, lenient: bool = False
) -> tuple[DarshanLog, list[DarshanRecord], ParseReport]:
    """The line-by-line parse: the log, its records as built, and the report."""
    header_fields: dict[str, str] = {}
    mounts: list[tuple[str, str]] = []
    records: dict[tuple[str, str], DarshanRecord] = {}
    lines_of: dict[tuple[str, str], list[tuple[int, str]]] = {}
    dxt_text: str | None = None
    dxt_start = 0
    record_lines = 0
    skipped: list[SkippedLine] = []

    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if line.startswith("# DXT trace"):
            dxt_text = "\n".join(lines[lineno - 1 :])
            dxt_start = lineno - 1
            break
        if not line.strip():
            continue
        if line.startswith("#"):
            m = _MOUNT_RE.match(line)
            if m:
                mounts.append((m.group(1), m.group(2)))
                continue
            m = _HEADER_RE.match(line)
            if m:
                header_fields[m.group(1).strip()] = m.group(2).strip()
            continue
        try:
            _parse_record_line(line, lineno, records, lines_of)
        except (DarshanParseError, ValueError) as exc:
            if not lenient:
                if isinstance(exc, DarshanParseError):
                    raise
                raise DarshanParseError(f"line {lineno}: {exc}") from exc
            skipped.append(SkippedLine(lineno=lineno, text=line, reason=str(exc)))
            continue
        record_lines += 1

    required = ("exe", "uid", "jobid", "start_time", "end_time", "nprocs", "run time")
    missing = [k for k in required if k not in header_fields]
    if missing:
        raise DarshanParseError(f"missing header fields: {missing}")
    header = JobHeader(
        exe=header_fields["exe"],
        uid=_header_value(header_fields, "uid", int),
        jobid=_header_value(header_fields, "jobid", int),
        nprocs=_header_value(header_fields, "nprocs", int, lambda n: n > 0),
        start_time=_header_value(header_fields, "start_time", int, _renders),
        end_time=_header_value(header_fields, "end_time", int),
        run_time=_header_value(header_fields, "run time", float, lambda t: not t < 0),
        log_version=header_fields.get("darshan log version", "3.41"),
        mounts=mounts,
    )

    # A record whose rank is not below nprocs: every line of it is rejected.
    past = sorted(
        (lineno, line, rec.rank, key)
        for key, rec in records.items()
        if rec.rank >= header.nprocs
        for lineno, line in lines_of[key]
    )
    if past and not lenient:
        lineno, _, rank, _ = past[0]
        raise DarshanParseError(f"line {lineno}: {_RANK_PAST_NPROCS.format(rank, header.nprocs)}")
    for lineno, line, rank, key in past:
        records.pop(key, None)
        record_lines -= 1
        reason = _RANK_PAST_NPROCS.format(rank, header.nprocs)
        skipped.append(SkippedLine(lineno=lineno, text=line, reason=reason))
    skipped.sort(key=lambda skip: skip.lineno)

    dxt_segments = None
    dxt_lines = 0
    if dxt_text is not None:
        dxt_skipped: list[tuple[int, str, str]] = []
        try:
            table = oracle_parse_dxt_text(
                dxt_text, lenient=lenient, skipped=dxt_skipped if lenient else None
            )
        except DarshanParseError:
            raise
        except ValueError as exc:
            raise DarshanParseError(str(exc)) from exc
        for sub_lineno, sub_text, reason in dxt_skipped:
            skipped.append(
                SkippedLine(lineno=dxt_start + sub_lineno, text=sub_text, reason=reason)
            )
        dxt_lines = len(table)
        dxt_segments = table if len(table) else None

    built = list(records.values())
    log = DarshanLog(header=header, records=built, dxt_segments=dxt_segments)
    report = ParseReport(
        total_lines=len(lines),
        record_lines=record_lines,
        dxt_lines=dxt_lines,
        skipped=tuple(skipped),
    )
    return log, built, report


def oracle_parse_dxt_text(
    text: str,
    *,
    lenient: bool = False,
    skipped: list[tuple[int, str, str]] | None = None,
) -> SegmentTable:
    """The segment-at-a-time DXT parse."""

    def _is_ost_token(token: str) -> bool:
        return token == "-" or token.isdigit()

    def _parse_line(line: str, lineno: int) -> tuple:
        parts = line.split(None, 9)
        if len(parts) == 9 or (len(parts) == 10 and not _is_ost_token(parts[8])):
            legacy = line.split(None, 8)
            parts = legacy[:8] + ["-"] + legacy[8:]
        if len(parts) != 10:
            raise ValueError(
                f"DXT line {lineno}: expected 9 or 10 whitespace-separated fields, "
                f"got {len(parts)}"
            )
        module, rank, operation, _index, offset, length, start, end, ost, path = parts
        if operation not in ("read", "write"):
            raise ValueError(
                f"DXT line {lineno}: unknown operation {operation!r} (expected read/write)"
            )
        rank_value = int(rank)
        if rank_value < 0:
            raise ValueError(_NEGATIVE_SEGMENT_RANK.format(rank_value))
        return (
            module,
            rank_value,
            path,
            operation,
            int(offset),
            int(length),
            float(start),
            float(end),
            None if ost == "-" else int(ost),
        )

    builder = SegmentTableBuilder()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            fields = _parse_line(line, lineno)
        except ValueError as exc:
            if not lenient:
                raise
            if skipped is not None:
                skipped.append((lineno, line, str(exc)))
            continue
        builder.append(*fields)
    return builder.build()
