"""The serve-edit workload: analyze requests over sockets to ``repro serve``.

A closed loop: one connection per CPU, each sending its next request
only after the previous reply (the protocol is strictly
request/response per connection). The server is measured warm: every
program is analyzed once before timing. Each connection walks its own
seeded order of the corpus; every third request sends the program's source
with an added function, inline, under the same name, so the server's
warm facts meet edit-driven invalidation. Every reply is compared with
the report a fresh in-process ``Session`` gives for the same request.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import select
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from reference import watched

#: Every EDIT_EVERY-th request of a connection is an edit.
EDIT_EVERY = 3
#: Distinct edits per program, so the reference set stays small.
EDIT_VARIANTS = 2
#: Server spawns per run; set-up time is their median.
SETUP_SAMPLES = 3
STARTUP_TIMEOUT_S = 60.0


def request_payload(name: str, edit: int | None) -> dict:
    from repro.api import AnalyzeRequest, ProgramSpec
    from repro.programs import get_program

    if edit is None:
        spec = ProgramSpec.corpus(name)
    else:
        source = get_program(name).source + (
            f"\nfn bench_edit_{edit}(tid) {{ local t = {edit}; t = t + 1; }}\n"
        )
        spec = ProgramSpec.inline(source, name=name)
    return AnalyzeRequest(program=spec).to_payload()


def connection_plan(seed: int, connection: int):
    """The request keys of one connection, endlessly: (name, edit).

    The connection walks the corpus in a fresh seeded order every cycle,
    so which programs meet on one worker at the same time, and which
    get edited, averages out over a run instead of being fixed by the
    seed."""
    from repro.programs import all_programs

    rng = random.Random(seed * 1000 + connection)
    index = 0
    while True:
        order = sorted(all_programs())
        rng.shuffle(order)
        for name in order:
            edit = None
            if index % EDIT_EVERY == EDIT_EVERY - 1:
                edit = (index // EDIT_EVERY) % EDIT_VARIANTS
            yield name, edit
            index += 1


def digest(report: dict) -> str:
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


class Server:
    """One ``repro serve`` process, from spawn until its workers answer."""

    def __init__(self, argv: list[str], root: Path, src: Path, log: Path) -> None:
        env = dict(os.environ, PYTHONPATH=str(src))
        start = time.perf_counter()
        self.log = open(log, "ab")
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=self.log, cwd=root, env=env,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], STARTUP_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else b""
            if not line:
                raise RuntimeError(f"server did not announce; see {log}")
            serving = json.loads(line)["serving"]
            self.host, self.port, self.workers = (
                serving["host"], serving["port"], serving["workers"]
            )
            self.sock = socket.create_connection((self.host, self.port), timeout=120)
            self.stream = self.sock.makefile("rw", encoding="utf-8", newline="\n")
            while True:
                stats = self.op("stats")
                rows = stats["cluster"]["workers"]
                if len(rows) == self.workers and all(r.get("session") for r in rows):
                    break
                if time.perf_counter() - start > STARTUP_TIMEOUT_S:
                    raise RuntimeError("server workers did not answer")
                time.sleep(0.01)
            self.setup_s = time.perf_counter() - start
            self.worker_pids = [row["pid"] for row in rows]
        except BaseException:
            self.stop()
            raise

    def request(self, line: str) -> dict:
        self.stream.write(line + "\n")
        self.stream.flush()
        response = json.loads(self.stream.readline())
        if not response.get("ok"):
            raise RuntimeError(f"request failed: {response}")
        return response

    def op(self, name: str) -> dict:
        return self.request(json.dumps({"op": name}))

    def peak_rss_mb(self) -> float:
        """Summed peak resident set of the server and its live workers
        (a forked worker's pages shared with the server count twice)."""
        total_kb = 0
        for pid in [self.proc.pid, *self.worker_pids]:
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except FileNotFoundError:
                continue  # a crashed worker: its requests already failed
            line = next(x for x in status.splitlines() if x.startswith("VmHWM:"))
            total_kb += int(line.split()[1])
        return total_kb / 1024

    def stop(self) -> None:
        """Graceful shutdown over the wire; kill if that fails."""
        try:
            if getattr(self, "stream", None) is None:
                raise OSError("no connection")
            self.stream.write(json.dumps({"op": "shutdown"}) + "\n")
            self.stream.flush()
            self.stream.readline()
            self.proc.wait(timeout=30)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait(timeout=30)
        finally:
            for handle in (getattr(self, "stream", None), getattr(self, "sock", None)):
                if handle is not None:
                    handle.close()
            self.proc.stdout.close()
            self.log.close()


def _drive(host, port, plan, deadline, lines, out) -> None:
    """One closed-loop connection sending requests until ``deadline``.
    Replies are kept raw and decoded after the run, so the client spends
    as little CPU as possible beside the server it measures."""
    with socket.create_connection((host, port), timeout=120) as sock:
        stream = sock.makefile("rw", encoding="utf-8", newline="\n")
        for key in plan:
            start = time.perf_counter()
            if start >= deadline:
                break
            stream.write(lines[key] + "\n")
            stream.flush()
            reply = stream.readline()
            out["latencies"].append(time.perf_counter() - start)
            out["done"].append(time.perf_counter())
            out["replies"].append((key, reply))
        stream.close()


def session_total(stats: dict, block: str, field: str) -> int:
    """Sum one session counter over the workers of a ``stats`` reply."""
    return sum(
        ((row.get("session") or {}).get(block) or {}).get(field, 0)
        for row in stats["cluster"]["workers"]
    )


def median_cycle_rate(outs: list[dict], started: float, cycle: int) -> float:
    """Requests per second: each connection's median rate over its
    cycles through the corpus, summed over connections. A slow spell on
    a shared machine during a minority of cycles does not move it."""
    total = 0.0
    for out in outs:
        marks = [started, *out["done"][cycle - 1::cycle]]
        total += statistics.median(
            cycle / (end - begin) for begin, end in zip(marks, marks[1:])
        )
    return total


def run_serve_edit(root: Path, src: Path, seed: int, seconds: float, trace: bool) -> dict:
    from layers import (
        family_totals,
        layer_metrics,
        sample_deltas,
        tracer_totals_from,
        wrapper_cost_s,
    )
    from report import end_to_end, note, result

    from repro.api import AnalyzeRequest, Session
    from repro.programs import all_programs

    connections = len(os.sched_getaffinity(0))
    work = root / ".perfbench_work" / f"serve-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    here = Path(__file__).resolve().parent
    entry = [sys.executable, str(here / "traced_serve.py")] if trace else [
        sys.executable, "-m", "repro",
    ]
    argv = entry + [
        "serve", "--workers", str(connections), "--query-cache-dir", str(work / "store"),
    ]
    # Every key either plan can reach, encoded once, before timing.
    lines = {
        (name, edit): json.dumps(request_payload(name, edit))
        for name in all_programs()
        for edit in (None, *range(EDIT_VARIANTS))
    }
    try:
        setups = []
        with watched() as setup_speed:
            for _ in range(SETUP_SAMPLES):
                # Each spawn starts from an empty artifact store.
                shutil.rmtree(work / "store", ignore_errors=True)
                server = Server(argv, root, src, work / "server.log")
                setups.append(server.setup_s)
                server.stop()
        # The server the requests go to, from an empty store as well.
        shutil.rmtree(work / "store", ignore_errors=True)
        server = Server(argv, root, src, work / "server.log")
        try:
            # Steady state: each program's first, cold analysis happens
            # once per server life, so it is paid before timing.
            for name in sorted(all_programs()):
                server.request(lines[(name, None)])
            before = server.op("metrics")["metrics"]
            stats_before = server.op("stats")
            outs = [
                {"latencies": [], "done": [], "replies": []} for _ in range(connections)
            ]
            with watched() as speed:
                started = time.perf_counter()
                threads = [
                    threading.Thread(
                        target=_drive,
                        args=(server.host, server.port, connection_plan(seed, c),
                              started + seconds, lines, outs[c]),
                    )
                    for c in range(connections)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            wall = max(out["done"][-1] for out in outs) - started
            after = server.op("metrics")["metrics"]
            stats = server.op("stats")
            peak_rss_mb = server.peak_rss_mb()
        finally:
            server.stop()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any((root / ".perfbench_work").iterdir()):
            (root / ".perfbench_work").rmdir()

    latencies = [x for out in outs for x in out["latencies"]]
    refused = []
    replies: dict = {}
    for out in outs:
        for key, reply in out["replies"]:
            response = json.loads(reply)
            if response.get("ok"):
                replies.setdefault(key, []).append(digest(response["report"]))
            else:
                refused.append(f"{key}: {response.get('error')}")
    # The reference: a fresh session per request, so no incremental
    # state is shared with the server's path.
    mismatched = 0
    for key, digests in replies.items():
        request = AnalyzeRequest.from_payload(json.loads(lines[key]))
        expected = digest(Session().analyze(request).to_payload())
        bad = sum(1 for d in digests if d != expected)
        if bad:
            note(f"FAIL {key}: {bad} replies differ from the in-process report")
        mismatched += bad
    attempted = len(latencies)
    failed = len(refused) + mismatched
    for problem in refused[:20]:
        note(f"FAIL refused {problem}")
    note(
        f"workload serve-edit: seed {seed}, {connections} connections, "
        f"{attempted} requests in {wall:.2f} s, {len(replies)} distinct requests"
    )
    note(f"error_rate {failed / max(attempted, 1):.4f} ({failed}/{attempted})")
    if trace:
        deltas = sample_deltas(before, after)
        families = family_totals(deltas)
        def grew(block: str, field: str) -> int:
            return session_total(stats, block, field) - session_total(
                stats_before, block, field
            )

        restored, computes = grew("query_cache", "restored"), grew("query_cache", "computes")
        hits = grew("query_stats", "hits")
        serve = {
            "queue_wait_s": families.get("repro_cluster_queue_wait_seconds", 0.0),
            "link_rtt_s": families.get("repro_cluster_link_rtt_seconds", 0.0),
            "store_hit_ratio": restored / (restored + computes) if restored + computes else 0.0,
            "restarts": stats["server"]["restarts"] - stats_before["server"]["restarts"],
            "query_hits": hits,
            "query_computes": computes,
        }
        metrics = layer_metrics(
            tracer_totals_from(deltas), families, attempted, sum(latencies),
            wrapper_cost_s(), serve=serve,
        )
    else:
        cycle = len(all_programs())
        # The median of each full cycle's median latency: a slow spell
        # on the shared machine during a minority of cycles does not
        # move it. Times are divided by the slowness the watcher saw
        # while the requests ran (see reference.py).
        cycle_medians = [
            statistics.median(out["latencies"][i:i + cycle])
            for out in outs
            for i in range(0, len(out["latencies"]) - cycle + 1, cycle)
        ]
        slowness = speed.slowness()
        note(f"machine slowness {slowness:.3f} (unscaled p50 "
             f"{statistics.median(cycle_medians) * 1000:.1f} ms)")
        metrics = end_to_end(
            statistics.median(setups) / setup_speed.slowness(),
            median_cycle_rate(outs, started, cycle) * slowness,
            statistics.median(cycle_medians) / slowness,
            [x / slowness for x in latencies], peak_rss_mb,
        )
    return result(failed == 0 and attempted > 0, attempted, failed, metrics)
