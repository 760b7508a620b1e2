#!/usr/bin/env python3
"""The repository's benchmark: one command, four workloads.

    python3 perfbench/run.py --workload analyze-corpus --seed 1 --seconds 20 --trace 0

runs one workload from the repository root against the sources in
``src/``. Inputs come from ``--seed``. A run lasts ``--seconds``:
whole passes while one more fits (serve-edit: requests until the time
is up). Every output is checked. Human
notes go to stdout first; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
measures the end-to-end metrics, ``--trace 1`` wraps every layer's
entry points and reports per-layer self time and work counts instead.
``manifest.json`` beside this file documents the workloads, the
metrics and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORKLOADS = ("analyze-corpus", "check-litmus", "lint-confirm", "serve-edit")

#: Set-up is measured this many times per run; the median is reported.
SETUP_SAMPLES = 5
#: Speed-reference samples after each set-up spawn.
SPEED_SAMPLES = 10

_PROBE = (
    "import sys; sys.path.insert(0, {src!r}); "
    "from repro.api import Session; Session(); print('ready', flush=True)"
)


def in_process_setup_s() -> float:
    """Median wall time from interpreter start to a ready ``Session``,
    divided by the slowness the speed reference saw right after each
    spawn (see reference.py)."""
    from reference import SpeedProbe

    speed = SpeedProbe()
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", _PROBE.format(src=str(SRC))],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe failed")
        for _ in range(SPEED_SAMPLES):
            speed.sample()
    return statistics.median(samples) / speed.slowness()


def run_in_process(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from layers import LayerTracer, family_totals, layer_metrics, sample_deltas
    from layers import installed, registry_payload, wrapper_cost_s
    from report import end_to_end, note, result
    from workloads import IN_PROCESS, RECORDED, run_passes

    setup_s = None if trace else in_process_setup_s()
    tracer = LayerTracer() if trace else None
    reg_start = registry_payload()
    with installed(tracer) if trace else nullcontext():
        workload = IN_PROCESS[name]
        record = run_passes(workload, seed, seconds=seconds, tracer=tracer)
    attempted = len(record.latencies)
    failed = len(record.failed_ops)
    passes = len(record.pass_walls)
    note(f"workload {name}: seed {seed}, {passes} passes, "
         f"{attempted} ops in {record.wall:.2f} s")
    note(f"error_rate {failed / attempted:.4f} ({failed}/{attempted})")
    for failure in record.failures[:20]:
        note(f"FAIL {failure}")
    if name == "analyze-corpus":
        cost = sum(
            json.loads(payload)["fence_cost"] or 0
            for payload in record.first_reports.values()
        )
        note(f"fence_cost (arm optimal, whole corpus): {cost}")
    if trace:
        counters = record.counters[0]
        note("work counters per pass: " + json.dumps(counters, sort_keys=True))
        # A later change may move these on purpose, so a difference is
        # reported here and fails in test_perfbench.py until recorded.json
        # is updated; passes within a run must agree exactly.
        recorded = RECORDED["work_counters_per_pass"][name]
        moved = sorted(k for k in set(counters) | set(recorded)
                       if counters.get(k) != recorded.get(k))
        note("work counters match recorded.json" if not moved
             else "work counters differ from recorded.json: " + ", ".join(moved))
        families = family_totals(sample_deltas(reg_start, registry_payload()))
        metrics = layer_metrics(
            tracer.snapshot(), families, attempted, sum(record.latencies),
            wrapper_cost_s(),
        )
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # One pass made of every op's mean latency: its rate, median and
        # tail, on the quiet machine's clock (see reference.py).
        slowness = record.speed.slowness()
        means = [x / slowness for x in record.mean_latencies()]
        note(f"{len(means)} distinct ops, each timed {passes} times; machine slowness "
             f"{slowness:.3f} (unscaled p50 {statistics.median(means) * slowness * 1000:.1f} ms)")
        metrics = end_to_end(
            setup_s, len(means) / sum(means), statistics.median(means), means, peak_rss_mb
        )
    return result(not record.failures, attempted, failed, metrics)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    if args.workload == "serve-edit":
        from serveload import run_serve_edit

        outcome = run_serve_edit(ROOT, SRC, args.seed, args.seconds, bool(args.trace))
    else:
        outcome = run_in_process(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(outcome, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
