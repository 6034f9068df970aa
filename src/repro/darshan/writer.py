"""Serialize a :class:`DarshanLog` to darshan-parser text format.

This is the format plain LLMs are fed in the paper's preliminary study
(§III): a header with job metadata and mount table, then one section per
module with tab-separated ``<module> <rank> <record id> <counter> <value>
<file name> <mount pt> <fs type>`` lines.  The MPIIO section follows POSIX,
which is why mid-trace truncation makes plain models miss MPI-IO facts.
"""

from __future__ import annotations

from typing import Iterator

from repro.darshan.log import MODULE_ORDER, DarshanLog

__all__ = ["iter_darshan_text", "render_darshan_text"]

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


def iter_darshan_text(log: DarshanLog, include_dxt: bool = False) -> Iterator[str]:
    """The parser text of ``log`` as a stream of chunks, one per record.

    The chunks concatenate to :func:`render_darshan_text`, so a consumer
    that only folds the text (the content digest) never holds all of it.
    """
    h = log.header
    mounts = "".join(f"# mount entry:\t{mount}\t{fs_type}\n" for mount, fs_type in h.mounts)
    yield (
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
    for module in MODULE_ORDER:
        records = log.records_for(module)
        if not records:
            continue
        title = _MODULE_TITLES.get(module, module + " module data")
        yield f"{_RULE}# {title}\n{_RULE}\n{_COLUMNS}"
        for rec in records:
            head = f"{module}\t{rec.rank}\t{rec.record_id}\t"
            tail = f"\t{rec.path}\t{rec.mount_point}\t{rec.fs_type}\n"
            yield "".join(
                [f"{head}{name}\t{value}{tail}" for name, value in rec.counters.items()]
                + [f"{head}{name}\t{value:.6f}{tail}" for name, value in rec.fcounters.items()]
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
