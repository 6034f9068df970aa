#!/usr/bin/env python3
"""DXT extended tracing: the paper's future-work extension in action.

Runs a bursty checkpoint workload, reduces the executed-op table the
runtime returns to BOTH evidence channels (the standard Darshan counters
and the DXT per-operation segments), prints an excerpt of the DXT segment
table, and shows the timeline facts (phase structure, burst detection)
that counters alone cannot express.

Usage:  python examples/dxt_timeline.py
"""

from __future__ import annotations

from repro.darshan.dxt import collect_segments, dxt_temporal_facts, render_dxt_text
from repro.darshan.instrument import DarshanInstrument
from repro.llm.facts import render_fact
from repro.sim.filesystem import LustreFileSystem
from repro.sim.ops import API, IOOp, OpKind
from repro.sim.runtime import IORuntime, JobSpec
from repro.util.units import MiB


def checkpoint_workload(nprocs: int = 4):
    """Read phase, long compute with trickling logs, checkpoint burst."""
    for r in range(nprocs):
        for i in range(20):
            yield IOOp(kind=OpKind.READ, api=API.POSIX, rank=r,
                       path=f"/scratch/ckpt/input.{r:03d}", offset=i * MiB, size=MiB)
    for step in range(10):
        for r in range(nprocs):
            yield IOOp(kind=OpKind.COMPUTE, api=API.POSIX, rank=r, duration=0.02)
            yield IOOp(kind=OpKind.WRITE, api=API.POSIX, rank=r,
                       path=f"/scratch/ckpt/log.{r:03d}", offset=step * 512, size=512)
    for r in range(nprocs):
        for i in range(30):
            yield IOOp(kind=OpKind.WRITE, api=API.POSIX, rank=r,
                       path=f"/scratch/ckpt/dump.{r:03d}", offset=i * MiB, size=MiB)


def main() -> None:
    fs = LustreFileSystem(seed=0)
    spec = JobSpec(exe="/home/demo/checkpointer", nprocs=4)
    result = IORuntime(spec, fs).run(checkpoint_workload())
    log = DarshanInstrument(spec, fs).finalize(result.runtime, result.ops)
    segments, dropped = collect_segments(result.ops)

    print(f"simulated {result.ops_executed} operations in {result.runtime:.3f} s")
    print(f"Darshan counters: {len(log.records)} records")
    print(f"DXT captured {len(segments)} segments (dropped {dropped})")
    print()
    print("---- DXT segment table (first 8 rows) ----")
    print("\n".join(render_dxt_text(segments).splitlines()[:9]))
    print()
    print("---- temporal facts (LLM-ready) ----")
    for fact in dxt_temporal_facts(segments):
        print(render_fact(fact))


if __name__ == "__main__":
    main()
