"""The fact grammar: typed quantitative observations about a trace.

A :class:`Fact` is a typed, numeric statement extracted from Darshan
counters (by :mod:`repro.core.summaries`) or asserted in natural language.
Each fact kind has exactly one NL sentence template and one extraction
regex, defined side by side so the two can never drift apart: the describe
task renders facts into prose, and the diagnose task recovers facts *from
that prose* (or from whatever other text survives context truncation).

This is the mechanism that keeps the SimLLM honest: a fact that was
truncated away, or that a low-recall model fails to extract, is simply not
available to the diagnostic reasoning.
"""

from __future__ import annotations

import importlib
import re
from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "Fact",
    "render_fact",
    "extract_facts",
    "example_fact",
    "FACT_KINDS",
    "FACT_EXAMPLES",
    "FACT_PHRASES",
    "CONTEXT_ONLY_KINDS",
]


@dataclass(frozen=True, slots=True)
class Fact:
    """One typed observation.  ``data`` field names match the templates."""

    kind: str
    data: dict = field(default_factory=dict)

    def get(self, name: str, default: object = None) -> object:
        return self.data.get(name, default)


def _pct(x: float) -> str:
    return f"{100.0 * x:.1f}"


# ---------------------------------------------------------------------------
# Templates and extractors.  Each entry: kind -> (render_fn, regex, parse_fn,
# example payload).  Numbers are rendered in fixed formats (plain integers,
# one-decimal percentages, three-decimal seconds) so the regexes are exact
# inverses.  The example payload is part of the grammar contract: it must
# survive a render -> extract round-trip unchanged, which the static
# analyzer (`python -m repro.analysis`) verifies for every kind without
# running a simulation.
# ---------------------------------------------------------------------------

RenderFn = Callable[[dict], str]
ParseFn = Callable[["re.Match[str]"], dict]

_SPEC: dict[str, tuple[RenderFn, "re.Pattern[str]", ParseFn, dict]] = {}

# The stdlib's regex parser: ``re._parser`` since Python 3.11, ``sre_parse`` before.
try:
    _regex_parser = importlib.import_module("re._parser")
except ImportError:  # pragma: no cover - Python 3.10
    _regex_parser = importlib.import_module("sre_parse")


def _required_phrase(pattern: "re.Pattern[str]") -> str | None:
    """The longest literal text that every match of ``pattern`` contains.

    The parsed pattern's top level is a sequence every match passes
    through in order, so a run of consecutive literal items there is text
    each match holds verbatim.  Literals inside groups, alternatives or
    repeats are not required and end a run.  A pattern that ignores case,
    or has no top-level literal, has no phrase.
    """
    if pattern.flags & re.IGNORECASE:
        return None
    runs = [""]
    for op, arg in _regex_parser.parse(pattern.pattern, pattern.flags):
        if op is _regex_parser.LITERAL:
            runs[-1] += chr(arg)
        elif runs[-1]:
            runs.append("")
    return max(runs, key=len) or None


def _register(kind: str, render: RenderFn, pattern: str, parse: ParseFn, *, example: dict) -> None:
    _SPEC[kind] = (render, re.compile(pattern), parse, example)


_register(
    "app_context",
    lambda d: (
        f"The application ran for {d['runtime_s']:.1f} seconds with "
        f"{d['nprocs']} processes and moved {d['total_bytes']} bytes in total."
    ),
    r"application ran for (?P<runtime>[0-9.]+) seconds with (?P<nprocs>\d+) "
    r"processes and moved (?P<total>\d+) bytes",
    lambda m: {
        "runtime_s": float(m["runtime"]),
        "nprocs": int(m["nprocs"]),
        "total_bytes": int(m["total"]),
    },
    example={"runtime_s": 12.5, "nprocs": 16, "total_bytes": 1048576},
)

_register(
    "mpi_presence",
    lambda d: (
        f"MPI-IO was {'used' if d['mpiio_used'] else 'not used'} by the "
        f"{d['nprocs']} processes (MPI-IO volume {d['mpiio_bytes']} bytes versus "
        f"{d['posix_bytes']} bytes through POSIX)."
    ),
    r"MPI-IO was (?P<used>used|not used) by the (?P<nprocs>\d+) processes "
    r"\(MPI-IO volume (?P<mb>\d+) bytes versus (?P<pb>\d+) bytes through POSIX\)",
    lambda m: {
        "mpiio_used": m["used"] == "used",
        "nprocs": int(m["nprocs"]),
        "mpiio_bytes": int(m["mb"]),
        "posix_bytes": int(m["pb"]),
    },
    example={"mpiio_used": True, "nprocs": 16, "mpiio_bytes": 1048576, "posix_bytes": 2048},
)

_register(
    "size_hist",
    lambda d: (
        f"In the {d['module']} module, the median {d['direction']} request size is "
        f"{d['p50_bytes']} bytes across {d['n_requests']} {d['direction']} requests, "
        f"with {_pct(d['small_fraction'])}% of them below 128 KiB."
    ),
    r"In the (?P<module>POSIX|MPIIO|STDIO) module, the median "
    r"(?P<direction>read|write) request size is (?P<p50>\d+) bytes across "
    r"(?P<n>\d+) (?:read|write) requests, with (?P<small>[0-9.]+)% of them below 128 KiB",
    lambda m: {
        "module": m["module"],
        "direction": m["direction"],
        "p50_bytes": int(m["p50"]),
        "n_requests": int(m["n"]),
        "small_fraction": float(m["small"]) / 100.0,
    },
    example={
        "module": "POSIX",
        "direction": "read",
        "p50_bytes": 4096,
        "n_requests": 1200,
        "small_fraction": 0.75,
    },
)

_register(
    "volume",
    lambda d: (
        f"The {d['module']} module read {d['bytes_read']} bytes and wrote "
        f"{d['bytes_written']} bytes."
    ),
    r"The (?P<module>POSIX|MPIIO|STDIO) module read (?P<br>\d+) bytes and wrote "
    r"(?P<bw>\d+) bytes",
    lambda m: {
        "module": m["module"],
        "bytes_read": int(m["br"]),
        "bytes_written": int(m["bw"]),
    },
    example={"module": "POSIX", "bytes_read": 1048576, "bytes_written": 2097152},
)

_register(
    "counts",
    lambda d: (
        f"The {d['module']} module performed {d['reads']} read operations and "
        f"{d['writes']} write operations over {d['n_files']} files."
    ),
    r"The (?P<module>POSIX|MPIIO|STDIO) module performed (?P<r>\d+) read "
    r"operations and (?P<w>\d+) write operations over (?P<f>\d+) files",
    lambda m: {
        "module": m["module"],
        "reads": int(m["r"]),
        "writes": int(m["w"]),
        "n_files": int(m["f"]),
    },
    example={"module": "POSIX", "reads": 1200, "writes": 300, "n_files": 4},
)

_register(
    "mpi_ops",
    lambda d: (
        f"The MPIIO module records {d['indep_reads']} independent reads, "
        f"{d['indep_writes']} independent writes, {d['coll_reads']} collective reads, "
        f"and {d['coll_writes']} collective writes."
    ),
    r"MPIIO module records (?P<ir>\d+) independent reads, (?P<iw>\d+) independent "
    r"writes, (?P<cr>\d+) collective reads, and (?P<cw>\d+) collective writes",
    lambda m: {
        "indep_reads": int(m["ir"]),
        "indep_writes": int(m["iw"]),
        "coll_reads": int(m["cr"]),
        "coll_writes": int(m["cw"]),
    },
    example={"indep_reads": 64, "indep_writes": 32, "coll_reads": 0, "coll_writes": 16},
)

_register(
    "meta",
    lambda d: (
        f"The {d['module']} module spent {d['meta_time_s']:.3f} seconds in "
        f"{d['meta_ops']} metadata operations against {d['data_time_s']:.3f} seconds "
        f"of data transfer time ({_pct(d['meta_fraction'])}% metadata share)."
    ),
    r"The (?P<module>POSIX|MPIIO|STDIO) module spent (?P<mt>[0-9.]+) seconds in "
    r"(?P<ops>\d+) metadata operations against (?P<dt>[0-9.]+) seconds of data "
    r"transfer time \((?P<frac>[0-9.]+)% metadata share\)",
    lambda m: {
        "module": m["module"],
        "meta_time_s": float(m["mt"]),
        "meta_ops": int(m["ops"]),
        "data_time_s": float(m["dt"]),
        "meta_fraction": float(m["frac"]) / 100.0,
    },
    example={
        "module": "POSIX",
        "meta_time_s": 1.25,
        "meta_ops": 4000,
        "data_time_s": 0.75,
        "meta_fraction": 0.625,
    },
)

_register(
    "alignment",
    lambda d: (
        f"Approximately {_pct(d['unaligned_fraction'])}% of {d['module']} "
        f"{d['direction']} requests are not aligned with the file system block size "
        f"of {d['alignment']} bytes; the most common {d['direction']} request size is "
        f"{d['common_size']} bytes."
    ),
    r"Approximately (?P<frac>[0-9.]+)% of (?P<module>POSIX|MPIIO) "
    r"(?P<direction>read|write) requests are not aligned with the file system block "
    r"size of (?P<align>\d+) bytes; the most common (?:read|write) request size is "
    r"(?P<common>\d+) bytes",
    lambda m: {
        "module": m["module"],
        "direction": m["direction"],
        "unaligned_fraction": float(m["frac"]) / 100.0,
        "alignment": int(m["align"]),
        "common_size": int(m["common"]),
    },
    example={
        "module": "POSIX",
        "direction": "write",
        "unaligned_fraction": 0.75,
        "alignment": 1048576,
        "common_size": 5000,
    },
)

_register(
    "order",
    lambda d: (
        f"About {_pct(d['seq_fraction'])}% of {d['module']} {d['direction']} requests "
        f"are sequential and {_pct(d['consec_fraction'])}% are consecutive."
    ),
    r"About (?P<seq>[0-9.]+)% of (?P<module>POSIX|MPIIO) (?P<direction>read|write) "
    r"requests are sequential and (?P<consec>[0-9.]+)% are consecutive",
    lambda m: {
        "module": m["module"],
        "direction": m["direction"],
        "seq_fraction": float(m["seq"]) / 100.0,
        "consec_fraction": float(m["consec"]) / 100.0,
    },
    example={
        "module": "POSIX",
        "direction": "read",
        "seq_fraction": 0.25,
        "consec_fraction": 0.125,
    },
)

_register(
    "shared",
    lambda d: (
        f"{d['n_shared_files']} file(s) were accessed concurrently by multiple ranks, "
        f"accounting for {d['shared_bytes']} of {d['total_bytes']} total bytes; the "
        f"largest is {d['example_path']}."
    ),
    r"(?P<n>\d+) file\(s\) were accessed concurrently by multiple ranks, accounting "
    r"for (?P<sb>\d+) of (?P<tb>\d+) total bytes; the largest is (?P<path>\S+)\.",
    lambda m: {
        "n_shared_files": int(m["n"]),
        "shared_bytes": int(m["sb"]),
        "total_bytes": int(m["tb"]),
        "example_path": m["path"],
    },
    example={
        "n_shared_files": 2,
        "shared_bytes": 33554432,
        "total_bytes": 67108864,
        "example_path": "/scratch/app/shared.dat",
    },
)

_register(
    "rank_balance",
    lambda d: (
        f"Per-rank {d['module']} I/O volume has a Gini coefficient of "
        f"{d['gini']:.3f} and a normalized cross-rank variance of {d['norm_variance']:.3f} "
        f"over {d['nprocs']} ranks."
    ),
    r"Per-rank (?P<module>POSIX|MPIIO) I/O volume has a Gini coefficient of "
    r"(?P<gini>[0-9.]+) and a normalized cross-rank variance of (?P<nv>[0-9.]+) over "
    r"(?P<np>\d+) ranks",
    lambda m: {
        "module": m["module"],
        "gini": float(m["gini"]),
        "norm_variance": float(m["nv"]),
        "nprocs": int(m["np"]),
    },
    example={"module": "MPIIO", "gini": 0.625, "norm_variance": 2.5, "nprocs": 16},
)

_register(
    "repetition",
    lambda d: (
        f"The file {d['path']} shows a re-read ratio of {d['ratio']:.1f}: "
        f"{d['bytes_read']} bytes were read from an extent of only {d['extent']} bytes."
    ),
    r"The file (?P<path>\S+) shows a re-read ratio of (?P<ratio>[0-9.]+): "
    r"(?P<br>\d+) bytes were read from an extent of only (?P<ext>\d+) bytes",
    lambda m: {
        "path": m["path"],
        "ratio": float(m["ratio"]),
        "bytes_read": int(m["br"]),
        "extent": int(m["ext"]),
    },
    example={
        "path": "/scratch/app/mesh.dat",
        "ratio": 4.5,
        "bytes_read": 4194304,
        "extent": 1048576,
    },
)

_register(
    "stdio_share",
    lambda d: (
        f"STDIO accounts for {_pct(d['share'])}% of all bytes {d['direction']} "
        f"({d['stdio_bytes']} of {d['total_bytes']} bytes)."
    ),
    r"STDIO accounts for (?P<share>[0-9.]+)% of all bytes "
    r"(?P<direction>read|written) \((?P<sb>\d+) of (?P<tb>\d+) bytes\)",
    lambda m: {
        "direction": m["direction"],
        "share": float(m["share"]) / 100.0,
        "stdio_bytes": int(m["sb"]),
        "total_bytes": int(m["tb"]),
    },
    example={
        "direction": "written",
        "share": 0.5,
        "stdio_bytes": 1048576,
        "total_bytes": 2097152,
    },
)

_register(
    "stripe",
    lambda d: (
        f"{d['n_files']} file(s) on {d['mount']} use a stripe width of "
        f"{d['stripe_width']} with a stripe size of {d['stripe_size']} bytes."
    ),
    r"(?P<n>\d+) file\(s\) on (?P<mount>\S+) use a stripe width of (?P<w>\d+) with "
    r"a stripe size of (?P<s>\d+) bytes",
    lambda m: {
        "n_files": int(m["n"]),
        "mount": m["mount"],
        "stripe_width": int(m["w"]),
        "stripe_size": int(m["s"]),
    },
    example={"n_files": 3, "mount": "/scratch", "stripe_width": 1, "stripe_size": 1048576},
)

_register(
    "server_usage",
    lambda d: (
        f"I/O traffic touches an effective {d['eff_osts']:.1f} of {d['num_osts']} "
        f"available OSTs ({_pct(d['utilization'])}% utilization); the busiest OST "
        f"serves {_pct(d['top_share'])}% of {d['total_bytes']} bytes."
    ),
    r"I/O traffic touches an effective (?P<eff>[0-9.]+) of (?P<n>\d+) available "
    r"OSTs \((?P<util>[0-9.]+)% utilization\); the busiest OST serves "
    r"(?P<top>[0-9.]+)% of (?P<tb>\d+) bytes",
    lambda m: {
        "eff_osts": float(m["eff"]),
        "num_osts": int(m["n"]),
        "utilization": float(m["util"]) / 100.0,
        "top_share": float(m["top"]) / 100.0,
        "total_bytes": int(m["tb"]),
    },
    example={
        "eff_osts": 2.0,
        "num_osts": 16,
        "utilization": 0.125,
        "top_share": 0.5,
        "total_bytes": 67108864,
    },
)

_register(
    "mount",
    lambda d: f"The application's files reside on the {d['fs_type']} file system mounted at {d['mount']}.",
    r"files reside on the (?P<fs>\w+) file system mounted at (?P<mount>\S+)\.",
    lambda m: {"fs_type": m["fs"], "mount": m["mount"]},
    example={"fs_type": "lustre", "mount": "/scratch"},
)

_register(
    "dxt_timeline",
    lambda d: (
        f"Extended tracing recorded {d['n_segments']} I/O segments over "
        f"{d['span_s']:.3f} seconds in a {d['phase']} phase structure, with "
        f"{d['n_bursts']} traffic burst(s) peaking at {d['peak_to_mean']:.1f}x "
        f"the mean slice traffic."
    ),
    r"Extended tracing recorded (?P<n>\d+) I/O segments over (?P<span>[0-9.]+) "
    r"seconds in a (?P<phase>[a-z\-]+) phase structure, with (?P<bursts>\d+) "
    r"traffic burst\(s\) peaking at (?P<peak>[0-9.]+)x",
    lambda m: {
        "n_segments": int(m["n"]),
        "span_s": float(m["span"]),
        "phase": m["phase"],
        "n_bursts": int(m["bursts"]),
        "peak_to_mean": float(m["peak"]),
    },
    example={
        "n_segments": 4096,
        "span_s": 2.5,
        "phase": "burst-gap",
        "n_bursts": 3,
        "peak_to_mean": 4.5,
    },
)

_register(
    "dxt_rank_skew",
    lambda d: (
        f"Extended tracing shows rank {d['slowest_rank']} occupies an I/O window "
        f"{d['span_skew']:.1f}x the median rank's and spends {d['time_skew']:.1f}x "
        f"the median I/O time while moving {d['bytes_ratio']:.2f}x the median "
        f"per-rank volume across {d['nprocs']} ranks."
    ),
    r"Extended tracing shows rank (?P<rank>\d+) occupies an I/O window "
    r"(?P<span>[0-9.]+)x the median rank's and spends (?P<time>[0-9.]+)x the "
    r"median I/O time while moving (?P<bytes>[0-9.]+)x the median per-rank "
    r"volume across (?P<np>\d+) ranks",
    lambda m: {
        "slowest_rank": int(m["rank"]),
        "span_skew": float(m["span"]),
        "time_skew": float(m["time"]),
        "bytes_ratio": float(m["bytes"]),
        "nprocs": int(m["np"]),
    },
    example={
        "slowest_rank": 3,
        "span_skew": 3.5,
        "time_skew": 4.5,
        "bytes_ratio": 1.25,
        "nprocs": 16,
    },
)

_register(
    "dxt_concurrency",
    lambda d: (
        f"Extended tracing shows a mean of {d['mean_inflight']:.2f} I/O operations "
        f"in flight (peak {d['peak_inflight']}) across {d['active_ranks']} ranks "
        f"performing I/O."
    ),
    r"Extended tracing shows a mean of (?P<mean>[0-9.]+) I/O operations in flight "
    r"\(peak (?P<peak>\d+)\) across (?P<ranks>\d+) ranks performing I/O",
    lambda m: {
        "mean_inflight": float(m["mean"]),
        "peak_inflight": int(m["peak"]),
        "active_ranks": int(m["ranks"]),
    },
    example={"mean_inflight": 1.25, "peak_inflight": 2, "active_ranks": 8},
)

_register(
    "dxt_idle",
    lambda d: (
        f"Extended tracing shows the I/O stream pausing {d['n_gaps']} time(s) for "
        f"{_pct(d['idle_fraction'])}% of its {d['span_s']:.3f}-second span, with the "
        f"longest pause lasting {d['longest_gap_s']:.3f} seconds and "
        f"{d['stalled_ranks']} rank(s) stalled while their peers kept doing I/O."
    ),
    r"Extended tracing shows the I/O stream pausing (?P<gaps>\d+) time\(s\) for "
    r"(?P<idle>[0-9.]+)% of its (?P<span>[0-9.]+)-second span, with the longest "
    r"pause lasting (?P<longest>[0-9.]+) seconds and (?P<stalled>\d+) rank\(s\) "
    r"stalled while their peers kept doing I/O",
    lambda m: {
        "n_gaps": int(m["gaps"]),
        "idle_fraction": float(m["idle"]) / 100.0,
        "span_s": float(m["span"]),
        "longest_gap_s": float(m["longest"]),
        "stalled_ranks": int(m["stalled"]),
    },
    example={
        "n_gaps": 7,
        "idle_fraction": 0.375,
        "span_s": 2.5,
        "longest_gap_s": 0.125,
        "stalled_ranks": 2,
    },
)

_register(
    "dxt_file_skew",
    lambda d: (
        f"Extended tracing shows {d['slow_path']} sustaining {d['slow_mbps']:.1f} MiB/s "
        f"against a median of {d['median_mbps']:.1f} MiB/s over {d['n_files']} "
        f"comparably-accessed files ({d['ratio']:.1f}x slower than its peers)."
    ),
    r"Extended tracing shows (?P<path>\S+) sustaining (?P<slow>[0-9.]+) MiB/s "
    r"against a median of (?P<median>[0-9.]+) MiB/s over (?P<n>\d+) "
    r"comparably-accessed files \((?P<ratio>[0-9.]+)x slower than its peers\)",
    lambda m: {
        "slow_path": m["path"],
        "slow_mbps": float(m["slow"]),
        "median_mbps": float(m["median"]),
        "n_files": int(m["n"]),
        "ratio": float(m["ratio"]),
    },
    example={
        "slow_path": "/scratch/app/block07.dat",
        "slow_mbps": 12.5,
        "median_mbps": 50.0,
        "n_files": 8,
        "ratio": 4.0,
    },
)

_register(
    "dxt_ost_skew",
    lambda d: (
        f"Extended tracing attributes {_pct(d['time_share'])}% of server service time "
        f"to OST {d['hot_ost']} against {_pct(d['bytes_share'])}% of the bytes "
        f"({d['skew']:.1f}x its byte share) across {d['n_osts']} active OSTs."
    ),
    r"Extended tracing attributes (?P<ts>[0-9.]+)% of server service time to "
    r"OST (?P<ost>\d+) against (?P<bs>[0-9.]+)% of the bytes \((?P<skew>[0-9.]+)x "
    r"its byte share\) across (?P<n>\d+) active OSTs",
    lambda m: {
        "time_share": float(m["ts"]) / 100.0,
        "hot_ost": int(m["ost"]),
        "bytes_share": float(m["bs"]) / 100.0,
        "skew": float(m["skew"]),
        "n_osts": int(m["n"]),
    },
    example={
        "time_share": 0.5,
        "hot_ost": 3,
        "bytes_share": 0.125,
        "skew": 4.0,
        "n_osts": 8,
    },
)

_register(
    "dxt_ost_latency",
    lambda d: (
        f"Extended tracing shows OST(s) {', '.join(str(o) for o in d['slow_osts'])} "
        f"sustaining {d['slow_mbps']:.1f} MiB/s against a median OST rate of "
        f"{d['median_mbps']:.1f} MiB/s over {d['n_osts']} active OSTs "
        f"({d['ratio']:.1f}x slower than their peers)."
    ),
    r"Extended tracing shows OST\(s\) (?P<ids>\d+(?:, \d+)*) sustaining "
    r"(?P<slow>[0-9.]+) MiB/s against a median OST rate of (?P<median>[0-9.]+) "
    r"MiB/s over (?P<n>\d+) active OSTs \((?P<ratio>[0-9.]+)x slower than their peers\)",
    lambda m: {
        "slow_osts": [int(o) for o in m["ids"].split(", ")],
        "slow_mbps": float(m["slow"]),
        "median_mbps": float(m["median"]),
        "n_osts": int(m["n"]),
        "ratio": float(m["ratio"]),
    },
    example={
        "slow_osts": [3, 7],
        "slow_mbps": 12.5,
        "median_mbps": 50.0,
        "n_osts": 8,
        "ratio": 4.0,
    },
)

_register(
    "trend_regression",
    lambda d: (
        f"Longitudinal monitoring of {d['n_runs']} runs shows the I/O profile "
        f"departing from its {d['baseline_runs']}-run baseline at run "
        f"{d['run_index']}: drift score {d['drift']:.3f} against a threshold of "
        f"{d['threshold']:.3f}, dominated by the {d['top_feature']} feature."
    ),
    r"Longitudinal monitoring of (?P<n>\d+) runs shows the I/O profile "
    r"departing from its (?P<k>\d+)-run baseline at run (?P<r>\d+): drift "
    r"score (?P<drift>[0-9.]+) against a threshold of (?P<thr>[0-9.]+), "
    r"dominated by the (?P<feat>[a-z0-9_.]+) feature",
    lambda m: {
        "n_runs": int(m["n"]),
        "baseline_runs": int(m["k"]),
        "run_index": int(m["r"]),
        "drift": float(m["drift"]),
        "threshold": float(m["thr"]),
        "top_feature": m["feat"],
    },
    example={
        "n_runs": 8,
        "baseline_runs": 3,
        "run_index": 5,
        "drift": 4.5,
        "threshold": 1.0,
        "top_feature": "dxt.idle_fraction",
    },
)

FACT_KINDS: tuple[str, ...] = tuple(_SPEC)

FACT_EXAMPLES: dict[str, dict] = {kind: spec[3] for kind, spec in _SPEC.items()}

# Per kind, the literal phrase every match of its regex contains (None: no
# such phrase, and the regex always runs).
FACT_PHRASES: dict[str, str | None] = {
    kind: _required_phrase(spec[1]) for kind, spec in _SPEC.items()
}

# Kinds that set the scene for the LLM (and for the judge's relevance
# scoring) but deliberately ground no expert rule: they carry context, not
# evidence.  The static analyzer enforces that this set plus the kinds
# consumed by :mod:`repro.llm.reasoning` exactly partitions ``FACT_KINDS``,
# so a new kind must either gain a rule or be declared here on purpose.
CONTEXT_ONLY_KINDS: frozenset[str] = frozenset(
    {"counts", "volume", "mount", "stripe", "dxt_timeline"}
)


def render_fact(fact: Fact) -> str:
    """Render a fact to its canonical NL sentence."""
    try:
        render, _, _, _ = _SPEC[fact.kind]
    except KeyError:
        raise ValueError(f"unknown fact kind {fact.kind!r}") from None
    return render(fact.data)


def example_fact(kind: str) -> Fact:
    """The grammar's canonical example fact for ``kind``."""
    try:
        example = _SPEC[kind][3]
    except KeyError:
        raise ValueError(f"unknown fact kind {kind!r}") from None
    return Fact(kind=kind, data=dict(example))


def extract_facts(text: str) -> list[Fact]:
    """Recover every recognizable fact from ``text``.

    Order of appearance in the text is preserved so recall sampling is
    deterministic given the text.  A kind's regex runs only when the text
    holds its phrase (:data:`FACT_PHRASES`), which every match contains,
    so skipping it drops no hit; a prompt holds a few of the kinds.
    """
    hits: list[tuple[int, Fact]] = []
    for kind, (_, pattern, parse, _) in _SPEC.items():
        phrase = FACT_PHRASES[kind]
        if phrase is not None and phrase not in text:
            continue
        for m in pattern.finditer(text):
            hits.append((m.start(), Fact(kind=kind, data=parse(m))))
    hits.sort(key=lambda pair: pair[0])
    return [fact for _, fact in hits]
