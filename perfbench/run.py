"""The benchmark's one command.

    python3 perfbench/run.py --workload cold-diagnose --seed 0 --seconds 25 --trace 0

Run from the repository root.  ``--workload`` is one of
``cold-diagnose``, ``warm-resubmit`` or ``suite-build`` (see
``README.md`` beside this file).  The command

1. makes the workload's inputs from ``--seed`` in this process
   (``workloads.py``) and, for ``warm-resubmit``, fills the result store
   with one cold pass in a separate process;
2. with ``--trace 0``, times ``SETUP_PROBES`` fresh interpreters from
   spawn to ready, then measures the workload untraced in one more fresh
   interpreter (``client.py``) for about ``--seconds``;
   with ``--trace 1``, the measured process spends half the time
   untraced and half traced, and the per-layer table is printed;
3. checks every output, counting each failed check as a failed
   operation, and prints every metric by name with unit, direction and
   sample count, two digests for byte-for-byte comparison between
   commits, and, as its last line, one JSON object.

The exit code is 0 when every check passed, 1 when one failed, and 2
when the benchmark could not run (e.g. outside a repository checkout).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

PERFBENCH = Path(__file__).resolve().parent
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import spec  # noqa: E402
from tracer import layer_table  # noqa: E402
from workloads import SERVING_MIX, SUITE_SELECTOR, MixEntry, generate_inputs  # noqa: E402

SETUP_PROBES = 6
# Every run must end well inside the three minutes a run is allowed.
DEADLINE_S = 170.0
# The measured processes use one glibc malloc arena.  With the default
# (up to 8 per core), which arena each pipeline thread lands in depends
# on thread timing, and the peak RSS of cold-diagnose read 193-258 MB
# over ten seeds (188-210 MB for one seed); with one arena, 156-159 MB.
CHILD_ENV = {"MALLOC_ARENA_MAX": "1"}
# Set-up is mostly interpreter work (imports, unmarshalling, module
# code), so its speed is taken from bare interpreter starts run right
# before it: ``setup_s`` is the spawn-to-ready time scaled by
# ``INTERPRETER_S`` (a bare start on a quiet host) over the median of
# ``INTERPRETER_STARTS`` of them.  Over 207 set-ups spanning the host's
# fast and slow spells, this read with a spread of 0.07; scaled by the
# reference chunks instead, 0.25, and unscaled, 0.29.
INTERPRETER_S = 0.055
INTERPRETER_STARTS = 3


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a failed check)."""


# -- child processes ----------------------------------------------------------


class _Jobs:
    """Starts ``client.py`` jobs one at a time and collects their results."""

    def __init__(self, root: Path, work: Path, deadline: float) -> None:
        self.root = root
        self.work = work
        self.deadline = deadline
        self.count = 0

    def run(self, job: dict[str, Any]) -> dict[str, Any]:
        self.count += 1
        out = self.work / f"result-{self.count}.json"
        job_path = self.work / f"job-{self.count}.json"
        job_path.write_text(json.dumps(dict(job, out=str(out), work=str(self.work))))
        interpreter = statistics.median(self._bare_start() for _ in range(INTERPRETER_STARTS))
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"no time left for the {job['mode']} process")
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(PERFBENCH / "client.py"), str(job_path)],
            cwd=self.root,
            env=dict(os.environ, **CHILD_ENV),
            stdout=subprocess.DEVNULL,
        )
        try:
            code = proc.wait(timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"the {job['mode']} process ran out of time") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0:
            raise BenchError(f"the {job['mode']} process exited with code {code}")
        result = json.loads(out.read_text())
        result["setup_wall_s"] = result["ready"] - spawned
        result["setup_s"] = result["setup_wall_s"] * INTERPRETER_S / interpreter
        return result

    def _bare_start(self) -> float:
        """Wall seconds to start and end an interpreter that does nothing."""
        started = time.monotonic()
        subprocess.run(
            [sys.executable, "-c", "pass"], cwd=self.root, env=dict(os.environ, **CHILD_ENV),
            check=True, timeout=max(1.0, self.deadline - started),
        )
        return time.monotonic() - started

    def setup_times(self, kind: str, base: dict[str, Any]) -> list[dict[str, Any]]:
        return [
            self.run(dict(base, mode=f"setup-{kind}", store=str(self.work / f"probe-{i}")))
            for i in range(SETUP_PROBES)
        ]


# -- statistics ---------------------------------------------------------------


def percentile(values: list[float], q: float, steps: int = 20_000) -> float:
    """Harrell-Davis estimate of the ``q`` quantile (``q`` in (0, 1)).

    A weighted mean of every order statistic, with weights from the
    Beta(q(n+1), (1-q)(n+1)) distribution.  Its run-to-run spread is
    lower than that of one or two order statistics, which matters when a
    workload has few samples (40 scenario builds) or bursts of host
    noise land on single samples.  The Beta density is integrated at
    ``steps`` cell midpoints.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [0.0]
    for k in range(steps):
        t = (k + 0.5) / steps
        cdf.append(cdf[-1] + math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t)))
    edges = [cdf[round(i * steps / n)] / cdf[-1] for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(edges, edges[1:], ordered))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- output checks ------------------------------------------------------------


def check_serving(
    workload: str, part: dict[str, Any], expected: dict[str, str], items: int
) -> list[str]:
    """Mark every failed request in ``part``; returns the failure reasons.

    ``expected`` maps a trace file to the report text sha it must get:
    the priming pass's for ``warm-resubmit``, and for ``cold-diagnose``
    the first one seen in the run (it is filled in here), so every pass
    must reproduce the first byte for byte.
    """
    reasons: list[str] = []
    for request in part["requests"]:
        problem = None
        if "error" in request:
            problem = request["error"]
        elif request["report_trace_id"] != request["trace_id"]:
            problem = f"report labelled {request['report_trace_id']!r}"
        elif request["degraded"]:
            problem = f"degraded report ({', '.join(request['degraded'])})"
        elif workload == "warm-resubmit" and not request["cached"]:
            problem = "not served at submit (the pipeline ran)"
        elif workload == "warm-resubmit" and expected.get(request["file"]) != request["sha"]:
            problem = "report text differs from the cold-diagnose text for the same content"
        elif workload == "cold-diagnose" and request["cached"]:
            problem = "served from cache although its content is new to this server"
        elif expected.setdefault(request["file"], request["sha"]) != request["sha"]:
            problem = "report text differs from the first pass for the same content"
        if problem is not None:
            request["failure"] = problem
            reasons.append(f"{request['trace_id']}: {problem}")
    for number, summary in enumerate(part["passes"]):
        if workload == "cold-diagnose" and summary["store_entries"] != items:
            reasons.append(
                f"pass {number}: store holds {summary['store_entries']} entries, "
                f"expected {items}"
            )
        if workload == "warm-resubmit" and summary["llm_calls"]:
            reasons.append(f"pass {number}: {summary['llm_calls']} LLM calls, expected 0")
    return reasons


def check_suite(part: dict[str, Any]) -> list[str]:
    """Mark every failed scenario build; the same scenario must digest alike."""
    reasons: list[str] = []
    first: dict[str, str] = {}
    for build in part["requests"]:
        problem = None
        if "error" in build:
            problem = build["error"]
        elif not build["records"]:
            problem = "trace has no file records"
        elif first.setdefault(build["scenario"], build["digest"]) != build["digest"]:
            problem = "trace digest differs between builds at the same seed"
        if problem is not None:
            build["failure"] = problem
            reasons.append(f"{build['scenario']}: {problem}")
    return reasons


# -- metrics ------------------------------------------------------------------


def _latency_metrics(part: dict[str, Any]) -> tuple[dict[str, float], dict[str, str]]:
    """Pooled latency percentiles and the median per-pass throughput.

    Each is given twice: at reference speed (``norm_`` metrics, see
    ``client._measured_pass``) and in wall-clock time as measured.
    """
    ok = [r for r in part["requests"] if "failure" not in r]
    per_pass = len(part["requests"]) // len(part["passes"])
    completed = [
        sum("failure" not in r for r in part["requests"][i * per_pass:(i + 1) * per_pass])
        for i in range(len(part["passes"]))
    ]
    values: dict[str, float] = {}
    notes: dict[str, str] = {}
    for prefix, clock, rate in (
        ("norm_", "norm_seconds", "norm_throughput_per_s"), ("", "seconds", "throughput_per_s")
    ):
        measured = sum(p[clock] for p in part["passes"])
        values[rate] = statistics.median(
            _ratio(n, p[clock]) for n, p in zip(completed, part["passes"])
        )
        notes[rate] = (f"median of {len(completed)} pass(es); "
                       f"{len(ok)} completed in {measured:.3f} s")
        if ok:
            samples = [r[clock] for r in ok]
            p50, p90 = percentile(samples, 0.5), percentile(samples, 0.9)
            values[f"{prefix}latency_p50_s"] = p50
            values[f"{prefix}latency_p90_s"] = p90
            notes[f"{prefix}latency_p50_s"] = f"n={len(ok)}, Harrell-Davis"
            notes[f"{prefix}latency_p90_s"] = f"n={len(ok)}, {sum(v > p90 for v in samples)} beyond"
    return values, notes


def _f1(part: dict[str, Any], labels: dict[str, list[str]]) -> float:
    from repro.evaluation.accuracy import match_stats

    scores = [
        match_stats(part["texts"][r["sha"]], frozenset(labels[r["file"]])).f1
        for r in part["requests"]
        if "failure" not in r
    ]
    return _ratio(sum(scores), len(scores))


def _spend(part: dict[str, Any]) -> dict[str, float]:
    passes = part["passes"]
    runs = sum(p["counters"]["executed"] for p in passes)
    return {
        "runs": runs,
        "calls": _ratio(sum(p["llm_calls"] for p in passes), runs),
        "prompt": _ratio(sum(p["prompt_tokens"] for p in passes), runs),
        "completion": _ratio(sum(p["completion_tokens"] for p in passes), runs),
    }


def layer_metrics(
    workload: str, traced: dict[str, Any], untraced: dict[str, Any],
    labels: dict[str, list[str]],
) -> tuple[dict[str, float], dict[str, list[float]]]:
    """The per-layer metrics of a traced run, and the table they come from.

    A layer the workload never enters reads 0.
    """
    table = layer_table(traced["trace"])
    empty = [0, 0.0, 0.0]
    root = "workloads.build_scenario" if workload == "suite-build" else "request"
    roots, total = table.get(root, empty)[:2]
    values = {metric.name: 0.0 for metric in spec.LAYER_METRICS}
    for name in values:
        if name.endswith(".self_pct"):
            values[name] = 100.0 * _ratio(table.get(name[: -len(".self_pct")], empty)[2], total)
    values["serve.server.queue_wait_pct"] = 100.0 * _ratio(
        table.get("serve.server.queue_wait", empty)[1], total
    )
    untraced_rate = _latency_metrics(untraced)[0]["norm_throughput_per_s"]
    traced_rate = _latency_metrics(traced)[0]["norm_throughput_per_s"]
    values["trace.overhead_pct"] = 100.0 * (1.0 - _ratio(traced_rate, untraced_rate))
    if workload == "suite-build":
        values["sim.ops_per_scenario"] = _ratio(traced["trace"]["counters"].get("sim.ops", 0), roots)
        return values, table
    passes = traced["passes"]
    counters = {k: sum(p["counters"][k] for p in passes) for k in passes[0]["counters"]}
    hits = sum(p["cache_hits"] + p["store_hits"] for p in passes)
    spend = _spend(traced)
    executed = [r for r in traced["requests"] if "failure" not in r and not r["cached"]]
    values.update({
        "core.service.cache_key.calls_per_request": _ratio(
            table.get("core.service.cache_key", empty)[0], roots
        ),
        "core.service.hit_ratio": _ratio(hits, hits + sum(p["cache_misses"] for p in passes)),
        "serve.store.get.calls": table.get("serve.store.get", empty)[0],
        "serve.store.put.calls": table.get("serve.store.put", empty)[0],
        "serve.server.runs_per_request": _ratio(counters["executed"], counters["submitted"]),
        "serve.server.cache_served": counters["cache_served"],
        "serve.server.coalesced": counters["coalesced"],
        "serve.server.rejected": counters["rejected"],
        "core.pipeline.integrate.kept_ratio": _ratio(
            sum(r["sources_kept"] for r in executed),
            sum(r["sources_retrieved"] for r in executed),
        ),
        "llm.client.calls_per_diagnosis": spend["calls"],
        "llm.client.prompt_tokens_per_diagnosis": spend["prompt"],
        "llm.client.completion_tokens_per_diagnosis": spend["completion"],
        "llm.client.retries": sum(p["retries"] for p in passes),
        "rag.retriever.calls_per_diagnosis": _ratio(
            table.get("rag.retriever", empty)[0], spend["runs"]
        ),
        "core.report.diagnosis_f1": _f1(traced, labels),
    })
    return values, table


# -- the workloads ------------------------------------------------------------


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    root: Path,
    mix: tuple[MixEntry, ...] = SERVING_MIX,
    roster: tuple[str, ...] = (SUITE_SELECTOR,),
) -> dict[str, Any]:
    """Measure one workload; returns the outcome ``report()`` prints."""
    if str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))
    work = root / ".perfbench-work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    jobs = _Jobs(root, work, time.monotonic() + DEADLINE_S)
    base: dict[str, Any] = {"seed": seed, "seconds": seconds, "trace": trace}
    try:
        if workload == "suite-build":
            base["roster"] = list(roster)
            setups = [] if trace else jobs.setup_times("suite", base)
            result = jobs.run(dict(base, mode="suite"))
            return _evaluate(workload, result, setups, {}, [], trace)
        items = generate_inputs(mix, seed, work / "inputs")
        base["manifest"] = str(work / "inputs" / "manifest.json")
        expected: dict[str, str] = {}
        if workload == "warm-resubmit":
            base["store"] = str(work / "store")
            prime = jobs.run(dict(base, mode="prime"))["untraced"]
            expected = {
                r["file"]: r["sha"] for r in prime["requests"] if "error" not in r
            }
        setups = [] if trace else jobs.setup_times("serve", base)
        mode = "cold" if workload == "cold-diagnose" else "warm"
        result = jobs.run(dict(base, mode=mode))
        return _evaluate(workload, result, setups, expected, items, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def _evaluate(
    workload: str, result: dict[str, Any], setups: list[dict[str, Any]],
    expected: dict[str, str], items: list[dict[str, Any]], trace: bool,
) -> dict[str, Any]:
    parts = [result[name] for name in ("warmup", "untraced", "traced") if name in result]
    reasons: list[str] = []
    for part in parts:
        if workload == "suite-build":
            reasons += check_suite(part)
        else:
            reasons += check_serving(workload, part, expected, len(items))
    attempted = sum(len(part["requests"]) for part in parts)
    # One reason per failed request plus one per failed pass-level check.
    failed = len(reasons)
    labels = {item["file"]: item["labels"] for item in items}
    untraced = result["untraced"]
    e2e, notes = _latency_metrics(untraced)
    probes = setups + [result]
    e2e["setup_s"] = statistics.median(p["setup_s"] for p in probes)
    e2e["setup_wall_s"] = statistics.median(p["setup_wall_s"] for p in probes)
    notes["setup_s"] = notes["setup_wall_s"] = f"median of {len(probes)} fresh interpreter(s)"
    # Every pass does the same work; later passes only add allocator
    # fragmentation, and how many passes fit depends on machine speed.
    e2e["peak_rss_mb"] = untraced["passes"][0]["rss_mb"]
    notes["peak_rss_mb"] = "high-water mark at the end of the first timed pass"
    reported: dict[str, float] = {"failed_ratio": _ratio(failed, attempted)}
    if workload != "suite-build":
        spend = _spend(untraced)
        reported["llm_calls_per_diagnosis"] = spend["calls"]
        reported["llm_tokens_per_diagnosis"] = spend["prompt"] + spend["completion"]
        reported["diagnosis_f1"] = _f1(untraced, labels)
    outcome: dict[str, Any] = {
        "workload": workload,
        "trace": trace,
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons,
        "e2e": e2e,
        "notes": notes,
        "reported": reported,
        "items": items,
        "digest": _digest(workload, untraced),
    }
    if trace:
        outcome["layers"], outcome["table"] = layer_metrics(
            workload, result["traced"], untraced, labels
        )
        outcome["rates"] = _rates(result["traced"], outcome["table"], items)
    return outcome


def _rates(traced: dict[str, Any], table: dict[str, list[float]], items: list) -> dict:
    sizes = {item["file"]: item["bytes"] for item in items}
    parsed = sum(sizes.get(r.get("file"), 0) for r in traced["requests"])
    ops = traced["trace"]["counters"].get("sim.ops", 0.0)
    return {
        "darshan.parser.mb_per_s": _ratio(parsed / 1e6, table.get("darshan.parser", [0, 0])[1]),
        "sim.ops_per_s": _ratio(ops, table.get("sim.runtime", [0, 0])[1]),
    }


def _digest(workload: str, part: dict[str, Any]) -> tuple[str, list[str]]:
    """One sha256 over every output, plus the per-trace lines it covers."""
    if workload == "suite-build":
        builds = part["requests"][: len({b["scenario"] for b in part["requests"]})]
        lines = [f"{b['scenario']} {b.get('digest', 'FAILED')}" for b in builds]
    else:
        first: dict[str, str] = {}
        for request in part["requests"]:
            first.setdefault(Path(request["file"]).name, request.get("sha", "FAILED"))
        lines = [f"{name} {sha}" for name, sha in sorted(first.items())]
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return digest, lines


# -- printing -----------------------------------------------------------------


def report(outcome: dict[str, Any], seed: int, seconds: float) -> dict[str, Any]:
    """Print the human-readable result; returns the JSON result object."""
    workload, trace = outcome["workload"], outcome["trace"]
    info = next(w for w in spec.WORKLOADS if w.name == workload)
    print(f"perfbench {workload}  seed={seed}  seconds={seconds:g}  trace={int(trace)}")
    print(f"  why: {info.why}")
    print(f"  load: {info.loop}; record-heavy: {info.heavy_share}; DXT: {info.dxt_share}; "
          f"duplicates: {info.duplicate_share}")
    if outcome["items"]:
        total = sum(item["bytes"] for item in outcome["items"]) / 1e6
        print(f"  inputs: {len(outcome['items'])} trace files, {total:.1f} MB of text")
    print("end-to-end (untraced):")
    for metric in spec.GATED_E2E:
        value = outcome["e2e"].get(metric.name, float("nan"))
        note = outcome["notes"].get(metric.name, "")
        print(f"  {metric.name:<26} {value:>12.6f} {metric.unit:<6} {metric.better:<7} {note}")
    measured = {**outcome["e2e"], **outcome["reported"]}
    for metric in spec.REPORTED_E2E:
        if metric.name in measured:
            note = outcome["notes"].get(metric.name, "")
            print(f"  {metric.name:<26} {measured[metric.name]:>12.6f} {metric.unit:<6} "
                  f"{metric.better:<7} reported, no bound; {note}".rstrip("; "))
    print(f"  operations: {outcome['attempted']} attempted, {outcome['failed']} failed")
    for reason in outcome["reasons"][:20]:
        print(f"  FAILED {reason}")
    digest, lines = outcome["digest"]
    label = "suite_digest" if workload == "suite-build" else "report_digest"
    print(f"{label}: {digest}")
    for line in lines:
        print(f"  {line}")
    metrics: dict[str, dict[str, Any]] = {}
    if trace:
        _print_layers(outcome)
        for metric in spec.LAYER_METRICS:
            metrics[metric.name] = {"value": outcome["layers"][metric.name], "unit": metric.unit}
    else:
        for metric in spec.GATED_E2E:
            metrics[metric.name] = {"value": outcome["e2e"][metric.name], "unit": metric.unit}
    return {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }


def _print_layers(outcome: dict[str, Any]) -> None:
    table = outcome["table"]
    root = "workloads.build_scenario" if outcome["workload"] == "suite-build" else "request"
    total = table.get(root, [0, 0.0, 0.0])[1]
    print(f"per-layer (traced; {table.get(root, [0])[0]} {root} spans, "
          f"{total:.3f} s; tracing overhead "
          f"{outcome['layers']['trace.overhead_pct']:.1f} % of untraced throughput):")
    print(f"  {'layer':<30} {'count':>9} {'busy_s':>10} {'self_s':>10} {'share':>7}")
    for name in spec.LAYER_ROWS:
        if name in table:
            count, busy, self_time = table[name]
            print(f"  {name:<30} {int(count):>9} {busy:>10.4f} {self_time:>10.4f} "
                  f"{100.0 * _ratio(self_time, total):>6.1f}%")
    for name, value in outcome["rates"].items():
        print(f"  {name:<30} {value:>12.3f}")
    print("per-layer metrics (value, unit, better, end-to-end metric it should move):")
    for metric in spec.LAYER_METRICS:
        print(f"  {metric.name:<46} {outcome['layers'][metric.name]:>12.4f} "
              f"{metric.unit:<6} {metric.better:<7} {metric.moves}")


# -- command line -------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro is missing)", file=sys.stderr)
        return 2
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result = report(outcome, args.seed, args.seconds)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
