"""Serialize a :class:`DarshanLog` to darshan-parser text format.

This is the format plain LLMs are fed in the paper's preliminary study
(§III): a header with job metadata and mount table, then one section per
module with tab-separated ``<module> <rank> <record id> <counter> <value>
<file name> <mount pt> <fs type>`` lines.  The MPIIO section follows POSIX,
which is why mid-trace truncation makes plain models miss MPI-IO facts.
"""

from __future__ import annotations

from typing import Iterator

from repro.darshan.log import MODULE_ORDER, DarshanLog, JobHeader
from repro.darshan.records import record_id_for

__all__ = ["iter_darshan_text", "render_darshan_text", "render_header", "section_header"]

_MODULE_TITLES = {
    "POSIX": "POSIX module data",
    "MPIIO": "MPI-IO module data",
    "STDIO": "STDIO module data",
    "LUSTRE": "LUSTRE module data",
}

_RULE = "# " + "*" * 55 + "\n"
_COLUMNS = (
    "#<module>\t<rank>\t<record id>\t<counter>\t<value>"
    "\t<file name>\t<mount pt>\t<fs type>\n"
)


def render_header(h: JobHeader) -> str:
    """The header chunk: job metadata, mount table, trailing blank line."""
    mounts = "".join(f"# mount entry:\t{mount}\t{fs_type}\n" for mount, fs_type in h.mounts)
    return (
        f"# darshan log version: {h.log_version}\n"
        "# compression method: ZLIB\n"
        f"# exe: {h.exe}\n"
        f"# uid: {h.uid}\n"
        f"# jobid: {h.jobid}\n"
        f"# start_time: {h.start_time}\n"
        f"# start_time_asci: {h.start_time_ascii}\n"
        f"# end_time: {h.end_time}\n"
        f"# nprocs: {h.nprocs}\n"
        f"# run time: {h.run_time:.4f}\n"
        "\n"
        "# mounted file systems (mount point and fs type)\n"
        "# -------------------------------------------------------\n"
        f"{mounts}\n"
    )


def section_header(module: str) -> str:
    """The banner and column legend that open one module's section."""
    title = _MODULE_TITLES.get(module, module + " module data")
    return f"{_RULE}# {title}\n{_RULE}\n{_COLUMNS}"


def iter_darshan_text(log: DarshanLog, include_dxt: bool = False) -> Iterator[str]:
    """The parser text of ``log`` as a stream of chunks, one per record.

    The chunks concatenate to :func:`render_darshan_text`, so a consumer
    that only folds the text (the content digest) never holds all of it.
    Records are rendered straight from the log's counter columns; no
    record objects are built.
    """
    yield render_header(log.header)
    for module in MODULE_ORDER:
        columns = log.counter_table.module(module)
        if columns is None:
            continue
        yield section_header(module)
        for rank, path, mount, fs_type, ints, floats in columns.iter_rows():
            head = f"{module}\t{rank}\t{record_id_for(path)}\t"
            tail = f"\t{path}\t{mount}\t{fs_type}\n"
            yield "".join(
                [f"{head}{name}\t{value}{tail}" for name, value in ints]
                + [f"{head}{name}\t{value:.6f}{tail}" for name, value in floats]
            )
        yield "\n"
    if include_dxt and log.dxt_segments:
        from repro.darshan.dxt import render_dxt_text

        lines = render_dxt_text(log.dxt_segments).splitlines()
        yield "".join(f"{line}\n" for line in lines) + "\n"


def render_darshan_text(log: DarshanLog, include_dxt: bool = False) -> str:
    """Render ``log`` exactly once; output is stable for identical logs.

    ``include_dxt=True`` appends the DXT segment table in
    ``darshan-dxt-parser`` format (when the log carries one), so the export
    preserves the temporal evidence channel and
    :func:`~repro.darshan.parser.parse_darshan_text` restores it.  The
    default matches real deployments (and the paper's plain-LLM inputs):
    counter text only, DXT dropped.
    """
    return "".join(iter_darshan_text(log, include_dxt))
