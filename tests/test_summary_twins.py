"""Summaries read counter columns, and a diagnosis builds no record rows.

Each Table I category has a published extractor (the row-reading text a
fragment shows as its ``code``) and a columnar twin (what the pipeline
runs).  The twin must give the published facts exactly, floats bit for
bit, because facts are rendered into prompts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from summary_oracle import fragments_key, oracle_fragments
from test_darshan import _edited_traces

from repro.core.agent import IOAgentConfig
from repro.core.service import DiagnosisService
from repro.core.summaries import (
    CATEGORY_EXTRACTORS,
    SUMMARY_COVERAGE,
    SummaryFragment,
    app_context_facts,
    extract_fragments,
)
from repro.darshan.counters import SIZE_BIN_SUFFIXES
from repro.darshan.log import DarshanLog, JobHeader
from repro.darshan.parser import DarshanParseError, parse_darshan_text
from repro.darshan.records import DarshanRecord
from repro.darshan.writer import render_darshan_text
from repro.serve import DiagnosisServer
from repro.util.units import MiB
from repro.workloads.scenarios import (
    available_scenarios,
    available_series_scenarios,
    build_scenario,
    build_series,
)


def _outcome(fn, *args):
    """The facts' ``repr``s, or the error, that ``fn(*args)`` ends with."""
    try:
        result = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return ("raised", type(exc), str(exc))
    if result and isinstance(result[0], SummaryFragment):
        return fragments_key(result)
    return [repr(fact) for fact in result]


def assert_twins_match(log: DarshanLog) -> None:
    """Every category's twin ends as its published extractor does on ``log``.

    Runs each (module, category) cell of the table on its own, so a cell
    whose facts are empty is compared too, then the whole fragment list
    and the application context.  A log the published extractor fails on
    (a negative byte count makes ``gini`` raise) must fail the twin alike.
    """
    table = log.counter_table
    for module, categories in SUMMARY_COVERAGE.items():
        columns = table.module(module)
        if columns is None:
            continue
        for category in categories:
            published, twin = CATEGORY_EXTRACTORS[category]
            expected = _outcome(published, log, module)
            assert _outcome(twin, log, columns) == expected, (module, category)
    assert _outcome(extract_fragments, log) == _outcome(oracle_fragments, log)
    mpiio_used = bool(log.records_for("MPIIO"))
    assert app_context_facts(log)[1].get("mpiio_used") is mpiio_used


def _with_rows_unbuilt(log: DarshanLog) -> DarshanLog:
    """The same content in a fresh log, so the twins run before any row exists."""
    return DarshanLog(log.header, dxt_segments=log.dxt_segments, counter_table=log.counter_table)


def test_every_category_has_a_twin_and_a_cell():
    covered = {category for categories in SUMMARY_COVERAGE.values() for category in categories}
    assert covered == set(CATEGORY_EXTRACTORS)
    for published, twin in CATEGORY_EXTRACTORS.values():
        assert published.__name__.startswith("extract_") and twin is not published


def test_fragments_build_no_rows_and_show_the_published_code(sb01_trace):
    log = _with_rows_unbuilt(sb01_trace.log)
    fragments = extract_fragments(log)
    app_context_facts(log)
    assert log._rows is None
    codes = {f.category: f.code for f in fragments}
    assert codes["io_size"].startswith("def extract_io_size(log: DarshanLog, module: str)")


class TestTwinsMatchPublished:
    def test_tracebench(self, bench):
        assert len(bench) == 40
        for trace in bench:
            assert_twins_match(_with_rows_unbuilt(trace.log))
            assert_twins_match(parse_darshan_text(render_darshan_text(trace.log)))

    def test_other_registered_scenarios(self):
        names = [n for n in available_scenarios() if n not in set(available_scenarios("tracebench"))]
        assert len(names) == 77 - 40
        for name in names:
            log = build_scenario(name, seed=0).log
            assert_twins_match(_with_rows_unbuilt(log))
            assert_twins_match(parse_darshan_text(render_darshan_text(log)))

    def test_series_runs(self):
        runs = [trace for name in available_series_scenarios() for trace in build_series(name, seed=0)]
        assert len(runs) == 40
        for trace in runs:
            assert_twins_match(_with_rows_unbuilt(trace.log))

    @settings(max_examples=60, deadline=None)
    @given(_edited_traces())
    def test_edited_and_damaged_text(self, text):
        # Reordered and repeated counters, odd value spellings, damage.
        try:
            log = parse_darshan_text(text, lenient=True)
        except ValueError:
            return  # no header left to read
        assert_twins_match(log)


def _header(nprocs: int = 4) -> JobHeader:
    return JobHeader(
        exe="/bin/hand", uid=1, jobid=2, nprocs=nprocs,
        start_time=1_700_000_000, end_time=1_700_000_100, run_time=100.0,
    )


def _posix(path: str, rank: int, **counters) -> DarshanRecord:
    fcounters = {k: counters.pop(k) for k in list(counters) if "_F_" in k}
    return DarshanRecord("POSIX", path, rank, counters, fcounters, "/scratch", "lustre")


def _lustre(path: str, rank: int = -1, **counters) -> DarshanRecord:
    return DarshanRecord("LUSTRE", path, rank, counters, {}, "/scratch", "lustre")


BIG = 2**70  # beyond int64: the column holds Python ints


HAND_BUILT = {
    "absent counters": [
        _posix("/a", 0, POSIX_READS=30, POSIX_BYTES_READ=3 * MiB),
        _posix("/b", 1, POSIX_WRITES=5),
        _posix("/c", 2, POSIX_SIZE_WRITE_0_100=7, POSIX_F_META_TIME=0.25),
        _lustre("/a", LUSTRE_OSTS=8),  # no stripe width: the published default is 1
        _lustre("/b", LUSTRE_OSTS=8, LUSTRE_STRIPE_WIDTH=2, LUSTRE_OST_ID_1=5),
    ],
    "shared records": [
        _posix(
            "/shared", -1, POSIX_READS=400, POSIX_SEQ_READS=300, POSIX_BYTES_READ=64 * MiB,
            POSIX_BYTES_WRITTEN=3, POSIX_MAX_BYTE_READ=16 * MiB, POSIX_F_VARIANCE_RANK_BYTES=1e12,
            POSIX_F_READ_TIME=0.1, POSIX_F_WRITE_TIME=0.2,
        ),
        _posix("/own", 1, POSIX_WRITES=50, POSIX_BYTES_WRITTEN=17 * MiB, POSIX_F_WRITE_TIME=0.3),
        _posix("/also", -1, POSIX_WRITES=70, POSIX_BYTES_WRITTEN=40 * MiB, POSIX_CONSEC_WRITES=9),
    ],
    "ranks at or past nprocs": [
        _posix("/r3", 3, POSIX_WRITES=2, POSIX_BYTES_WRITTEN=100),
        _posix("/r4", 4, POSIX_WRITES=2, POSIX_BYTES_WRITTEN=900),
        _posix("/r9", 9, POSIX_READS=1, POSIX_BYTES_READ=50),
    ],
    "MPI-IO paths without POSIX records": [
        _posix("/m1", 0, POSIX_WRITES=4, POSIX_FILE_NOT_ALIGNED=3, POSIX_ACCESS1_ACCESS=100,
               POSIX_ACCESS1_COUNT=4, POSIX_FILE_ALIGNMENT=0),
        _posix("/p", 1, POSIX_READS=9, POSIX_FILE_ALIGNMENT=512, POSIX_FILE_NOT_ALIGNED=1),
        DarshanRecord("MPIIO", "/m1", -1, {"MPIIO_COLL_WRITES": 4, "MPIIO_BYTES_WRITTEN": 400,
                                           "MPIIO_SIZE_WRITE_AGG_100_1K": 4}),
        DarshanRecord("MPIIO", "/m2", 0, {"MPIIO_INDEP_READS": 2, "MPIIO_NB_READS": 1}),
    ],
    "LUSTRE OST id counts and a repeated path": [
        _posix("/w1", 0, POSIX_WRITES=3, POSIX_BYTES_WRITTEN=3_000_001),
        _posix("/w4", 1, POSIX_READS=3, POSIX_BYTES_READ=7_777_777),
        _posix("/w0", 2, POSIX_READS=1, POSIX_BYTES_READ=10),
        DarshanRecord("STDIO", "/w4", 0, {"STDIO_BYTES_WRITTEN": 123}),
        _lustre("/w1", LUSTRE_OSTS=6, LUSTRE_STRIPE_WIDTH=1, LUSTRE_OST_ID_0=4),
        _lustre("/w4", LUSTRE_OSTS=6, LUSTRE_STRIPE_WIDTH=4, LUSTRE_OST_ID_0=1,
                LUSTRE_OST_ID_1=2, LUSTRE_OST_ID_2=3, LUSTRE_OST_ID_3=9),
        _lustre("/w0", LUSTRE_OSTS=6, LUSTRE_STRIPE_WIDTH=0),
        # The same path again: the last LUSTRE record of a path wins.
        _lustre("/w1", 0, LUSTRE_OSTS=7, LUSTRE_STRIPE_WIDTH=2, LUSTRE_OST_ID_0=2,
                LUSTRE_OST_ID_1=3),
    ],
    "ints beyond int64": [
        _posix("/huge", 0, POSIX_READS=BIG, POSIX_SEQ_READS=BIG - 1, POSIX_BYTES_READ=BIG,
               POSIX_MAX_BYTE_READ=BIG // 3, POSIX_SIZE_READ_100_1K=BIG, POSIX_WRITES=3),
        _posix("/odd", 1, POSIX_READS=2**53 + 1, POSIX_SIZE_READ_100_1K=2**53 + 1,
               POSIX_SIZE_READ_1K_10K=2**62 + 3, POSIX_BYTES_READ=2**62 + 5),
        _lustre("/huge", LUSTRE_OSTS=4, LUSTRE_STRIPE_WIDTH=1, LUSTRE_OST_ID_0=BIG + 1),
    ],
}


@pytest.mark.parametrize("case", sorted(HAND_BUILT))
def test_hand_built_logs(case):
    log = DarshanLog(_header(), records=HAND_BUILT[case])
    assert_twins_match(log)
    text = render_darshan_text(log)
    if any(r.rank >= log.header.nprocs for r in log.records):
        # The parser rejects a record ranked past the job's processes;
        # lenient parsing drops it.
        with pytest.raises(DarshanParseError, match="not below the job's nprocs"):
            parse_darshan_text(text)
        assert_twins_match(parse_darshan_text(text, lenient=True))
    else:
        assert_twins_match(parse_darshan_text(text))


def test_large_int64_counts_add_as_floats_in_record_order():
    # Partial sums past 2**53 round, so the histogram must add in record
    # order; every size bin is present, so the int64 columns take numpy.
    bins = [f"POSIX_SIZE_{d}_{s}" for d in ("READ", "WRITE") for s in SIZE_BIN_SUFFIXES]
    values = (2**53, 1, 1, 2**60 + 1, -(2**60), 3, 2**62 + 2**9 + 1, 5)
    records = [
        _posix(f"/f{i}", 0, POSIX_READS=1, **{**dict.fromkeys(bins, 0), bins[0]: v})
        for i, v in enumerate(values)
    ]
    log = DarshanLog(_header(), records=records)
    assert log.counter_table.module("POSIX").ints.values.dtype == np.int64
    assert_twins_match(log)


# -- no record rows on the diagnosis path ----------------------------------------

# perfbench's serving mix: (scenario, the text carries its DXT section).
SERVING_MIX = (
    ("sb05-metadata-storm", False),
    ("ra07-montage", False),
    ("path19-mds-vs-oss", True),
    ("path04-straggler-rank", True),
    ("path14-lock-convoy", True),
    ("path17-producer-consumer", True),
    ("sb03-misaligned-writes", False),
    ("sb09-stdio-write", False),
    ("io500-06-posix-random-1m", False),
    ("io500-11-posix-tuned-4m-32p", False),
    ("io500-19-mpiio-random-1m", False),
    ("ra01-amrex", False),
    ("ra05-openpmd-recollected", False),
    ("path09-fsync-per-write", False),
    ("fuzz-adv-smallwrite-masked", False),
)


@pytest.fixture(scope="module")
def mix_texts():
    return [
        render_darshan_text(build_scenario(name, seed=0).log, include_dxt=dxt)
        for name, dxt in SERVING_MIX
    ]


def test_service_execute_builds_no_rows(mix_texts):
    service = DiagnosisService(config=IOAgentConfig(seed=0))
    for text in mix_texts:
        log = parse_darshan_text(text)
        report, _ = service.execute(service.cache_key(log), log, "t")
        assert report.text and log._rows is None


def test_server_builds_no_rows(mix_texts, tmp_path):
    logs = [parse_darshan_text(text) for text in mix_texts]
    with DiagnosisServer(config=IOAgentConfig(seed=0), store=str(tmp_path), autostart=False) as server:
        reports = server.serve_all([(log, f"t{i}") for i, log in enumerate(logs)])
    assert len(reports) == len(logs)
    assert [log._rows for log in logs] == [None] * len(logs)
