"""Serving-layer load benchmark: one worker vs a worker cluster.

Drives ``repro serve`` the way a fleet would: N concurrent JSON-lines
clients, each cycling through M corpus programs with a warm-edit mix
(steady-state repeats plus periodic inline source edits under the same
program name, so requests stay pinned to their warm shard). The same
load runs against two cluster sizes —

* ``--workers 1``: a single analysis process (baseline; every request
  queues behind one worker), and
* ``--workers N``: the sharded multi-process cluster,

and the artifact records per-size throughput and latency percentiles
(p50/p95/p99) plus the N-worker/1-worker speedup. Timings are
machine-dependent, so the committed ``BENCH_serve.json`` is a record,
not a replay gate; CI regenerates it on a fixed budget and enforces
``--min-speedup`` on a known multi-core runner::

    PYTHONPATH=src python benchmarks/bench_serve.py --out BENCH_serve.json
    PYTHONPATH=src python benchmarks/bench_serve.py --clients 8 \\
        --requests 12 --workers 4 --min-speedup 1.5 --out BENCH_serve.json

:func:`check_determinism` sends the same analyze requests to a
one-worker and an N-worker server and fails unless the reports are
identical once timing and cache fields are dropped::

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'benchmarks'); \\
        import bench_serve; sys.exit(bench_serve.check_determinism(4))"
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import AnalyzeRequest, ProgramSpec  # noqa: E402
from repro.programs import all_programs, get_program  # noqa: E402

#: Small, fast corpus subset: enough shard diversity to spread across
#: workers without making one request dominate the percentiles.
DEFAULT_PROGRAMS = ("fft", "matrix", "spanningtree", "canneal", "radix",
                    "lu-con")

#: Every EDIT_EVERY-th request per client sends an edited inline source
#: under the same program name (the daemon's warm-edit path).
EDIT_EVERY = 3


def _request_line(name: str, iteration: int) -> str:
    if iteration % EDIT_EVERY:
        spec = ProgramSpec(kind="corpus", name=name)
    else:
        edit = iteration // EDIT_EVERY
        source = get_program(name).source + (
            f"\nfn warm_edit_{edit}(tid) {{ local t = 0; t = t + 1; }}\n"
        )
        spec = ProgramSpec.inline(source, name=name)
    return json.dumps(AnalyzeRequest(program=spec).to_payload())


class ServeProcess:
    """One ``repro serve`` subprocess, announced port and all."""

    def __init__(self, workers: int) -> None:
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--serial",
             "--workers", str(workers)],
            stdout=subprocess.PIPE,
            cwd=root,
            env=env,
        )
        announce = json.loads(self.proc.stdout.readline())
        self.host = announce["serving"]["host"]
        self.port = announce["serving"]["port"]

    def stop(self) -> None:
        try:
            with socket.create_connection((self.host, self.port), 10) as sock:
                sock.sendall(b'{"op": "shutdown"}\n')
                sock.makefile("r").readline()
            self.proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait(timeout=10)
        finally:
            self.proc.stdout.close()


def _drive_client(host, port, lines, latencies, errors, barrier):
    with socket.create_connection((host, port), timeout=600) as sock:
        stream = sock.makefile("rw", encoding="utf-8", newline="\n")
        barrier.wait(timeout=120)
        for line in lines:
            start = time.perf_counter()
            stream.write(line + "\n")
            stream.flush()
            response = json.loads(stream.readline())
            latencies.append(time.perf_counter() - start)
            if not response.get("ok"):
                errors.append(response.get("error", "?"))


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, round(q / 100 * (len(sorted_values) - 1)))
    return sorted_values[index]


def run_load(workers: int, clients: int, requests: int,
             programs: tuple[str, ...]) -> dict:
    """One mode's measurement: clients × requests against one server."""
    server = ServeProcess(workers)
    try:
        # Pre-build request lines so client threads measure serving, not
        # JSON assembly; each client walks the corpus at its own offset
        # so shards are exercised concurrently, not in lockstep.
        per_client = []
        for client in range(clients):
            lines = [
                _request_line(programs[(client + i) % len(programs)], i)
                for i in range(requests)
            ]
            per_client.append(lines)
        barrier = threading.Barrier(clients)
        latencies: list[float] = []
        errors: list[str] = []
        threads = [
            threading.Thread(
                target=_drive_client,
                args=(server.host, server.port, lines, latencies, errors,
                      barrier),
            )
            for lines in per_client
        ]
        wall = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - wall
    finally:
        server.stop()
    latencies.sort()
    total = clients * requests
    return {
        "workers": workers,
        "requests": total,
        "errors": len(errors),
        "error_samples": sorted(set(errors))[:5],
        "wall_s": round(wall, 3),
        "throughput_rps": round(total / wall, 2) if wall else 0.0,
        "latency_ms": {
            "p50": round(_percentile(latencies, 50) * 1e3, 2),
            "p95": round(_percentile(latencies, 95) * 1e3, 2),
            "p99": round(_percentile(latencies, 99) * 1e3, 2),
            "mean": round(statistics.fmean(latencies) * 1e3, 2)
            if latencies else 0.0,
        },
    }


def _determinism_lines() -> list[str]:
    """Every corpus program, plain and with an inline edit, planned
    greedily on x86-tso and optimally on arm, fenced IR included."""
    lines = []
    for name in sorted(all_programs()):
        edited = get_program(name).source + (
            "\nfn warm_edit_0(tid) { local t = 0; t = t + 1; }\n"
        )
        for spec in (ProgramSpec.corpus(name), ProgramSpec.inline(edited, name=name)):
            for model, arch, synthesis in (
                ("x86-tso", None, "greedy"),
                ("arm", "arm", "optimal"),
            ):
                request = AnalyzeRequest(
                    program=spec, model=model, arch=arch, synthesis=synthesis,
                    emit_ir=True, stats=True,
                )
                lines.append(json.dumps(request.to_payload()))
    return lines


def _stable(answer: dict) -> dict:
    """``answer`` without its report's cache counters, which depend on
    what the worker served before (analyze reports carry no timings)."""
    report = dict(answer.get("report") or {})
    report.pop("cache_stats", None)
    return {**answer, "report": report}


def _collect(host, port, lines, indices, answers):
    with socket.create_connection((host, port), timeout=600) as sock:
        stream = sock.makefile("rw", encoding="utf-8", newline="\n")
        for index in indices:
            stream.write(lines[index] + "\n")
            stream.flush()
            answers[index] = json.loads(stream.readline())


def serve_answers(workers: int, lines: list[str], clients: int = 4) -> list[dict]:
    """The responses of a ``workers``-process server to ``lines``, sent
    round-robin over ``clients`` concurrent connections."""
    server = ServeProcess(workers)
    answers: list = [None] * len(lines)
    try:
        threads = [
            threading.Thread(
                target=_collect,
                args=(server.host, server.port, lines,
                      range(client, len(lines), clients), answers),
            )
            for client in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        server.stop()
    return answers


def check_determinism(workers: int) -> int:
    """0 iff a one-worker and a ``workers``-worker server answer every
    :func:`_determinism_lines` request with the same stable report."""
    lines = _determinism_lines()
    single = serve_answers(1, lines)
    cluster = serve_answers(workers, lines)
    failed = [
        index for index, (one, many) in enumerate(zip(single, cluster))
        if not (one and many and one.get("ok")) or _stable(one) != _stable(many)
    ]
    for index in failed[:5]:
        request = json.loads(lines[index])
        program = request["program"]
        print(
            f"differs: {program['kind']} {program['name']} on "
            f"{request['model']} ({request['synthesis']})",
            file=sys.stderr,
        )
    print(
        f"{len(lines) - len(failed)}/{len(lines)} reports identical "
        f"between 1 and {workers} workers"
    )
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clients", type=int, default=8,
                        help="concurrent client connections")
    parser.add_argument("--requests", type=int, default=12,
                        help="requests per client")
    parser.add_argument("--workers", type=int,
                        default=max(2, os.cpu_count() or 2),
                        help="cluster size for the multi-process mode")
    parser.add_argument("--programs", nargs="*", default=list(DEFAULT_PROGRAMS),
                        help="corpus subset to cycle through")
    parser.add_argument("--out", default=None,
                        help="write the JSON artifact here")
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="fail unless cluster throughput is at least "
                             "this multiple of the one-worker baseline")
    args = parser.parse_args(argv)

    programs = tuple(args.programs)
    single = run_load(1, args.clients, args.requests, programs)
    cluster = run_load(args.workers, args.clients, args.requests, programs)
    speedup = (
        cluster["throughput_rps"] / single["throughput_rps"]
        if single["throughput_rps"] else 0.0
    )
    report = {
        "config": {
            "clients": args.clients,
            "requests_per_client": args.requests,
            "programs": list(programs),
            "edit_every": EDIT_EVERY,
            "cpus": os.cpu_count(),
            "python": sys.version.split()[0],
        },
        "modes": {"single": single, "cluster": cluster},
        "speedup": round(speedup, 2),
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    if single["errors"] or cluster["errors"]:
        print("FAIL: load run answered errors", file=sys.stderr)
        return 1
    if args.min_speedup and speedup < args.min_speedup:
        print(
            f"FAIL: cluster speedup {speedup:.2f}x is below the "
            f"{args.min_speedup}x gate on {os.cpu_count()} CPUs",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
