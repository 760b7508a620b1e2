"""Tests for the sharded multi-process analysis service (repro.cluster)."""

import asyncio
import io
import json
import os
import signal
import socket
import struct
import threading
import time

import pytest

from repro.api import AnalyzeRequest, CheckRequest, ProgramSpec, Session
from repro.cluster import (
    ClusterConfig,
    ClusterServer,
    FrameDecodeError,
    HashRing,
    ProtocolError,
    WorkerLoop,
    frame_bytes,
    read_frame,
    recv_frame,
    render_stats,
    routing_key,
    run_worker,
    send_frame,
)
from repro.cluster.frontend import _Pending, _WorkerHandle
from repro.serve import serve_stdio
from repro.util.store import SUFFIX, BlobStore

MP = """
global int flag;
global int data;

fn producer(tid) { data = 1; flag = 1; }
fn consumer(tid) {
  local r = 0;
  while (flag == 0) { }
  r = data;
  observe("r", r);
}

thread producer(0);
thread consumer(1);
"""

SPEC = ProgramSpec.inline(MP, name="mp")


# --- consistent-hash router --------------------------------------------------


def test_ring_basics():
    ring = HashRing([0, 1, 2])
    assert len(ring) == 3 and 1 in ring and 9 not in ring
    assert ring.nodes() == frozenset({0, 1, 2})
    assert ring.locate("mp") in {0, 1, 2}
    ring.add(1)  # idempotent
    assert len(ring) == 3
    ring.remove(9)  # unknown: no-op
    assert len(ring) == 3


def test_ring_empty_and_validation():
    assert HashRing().locate("anything") is None
    with pytest.raises(ValueError):
        HashRing(replicas=0)


def test_ring_assignment_is_stable():
    ring = HashRing([0, 1, 2, 3])
    keys = [f"program-{i}" for i in range(100)]
    assert [ring.locate(k) for k in keys] == [ring.locate(k) for k in keys]


def test_ring_removal_remaps_only_the_dead_nodes_keys():
    ring = HashRing([0, 1, 2])
    keys = [f"program-{i}" for i in range(300)]
    before = {k: ring.locate(k) for k in keys}
    assert set(before.values()) == {0, 1, 2}  # all shards used
    ring.remove(2)
    for key in keys:
        if before[key] != 2:
            # The whole point of consistent hashing: surviving shards
            # keep every one of their warm programs.
            assert ring.locate(key) == before[key]
        else:
            assert ring.locate(key) in {0, 1}
    ring.add(2)
    assert {k: ring.locate(k) for k in keys} == before


def test_routing_key_shapes():
    assert routing_key({"program": {"name": "mp"}}) == "mp"
    assert routing_key({"program": {"name": None, "path": "x/y.c"}}) == "x/y.c"
    inline = routing_key({"program": {"source": "fn f() {}"}})
    assert inline is not None and inline.startswith("inline:")
    assert inline == routing_key({"program": {"source": "fn f() {}"}})
    # Not program-addressed: batch/fuzz sweeps may run anywhere.
    assert routing_key({"kind": "batch-request"}) is None
    assert routing_key({"program": "mp"}) is None
    assert routing_key({"program": {"name": "", "source": None}}) is None


# --- framing protocol --------------------------------------------------------


def test_frame_roundtrip_blocking():
    a, b = socket.socketpair()
    with a, b:
        payload = {"t": "req", "payload": {"text": "line1\nline2", "n": 3}}
        send_frame(a, payload)
        send_frame(a, {"t": "op"})
        assert recv_frame(b) == payload
        assert recv_frame(b) == {"t": "op"}
        a.close()
        assert recv_frame(b) is None  # clean EOF between frames


def test_frame_errors_blocking():
    with pytest.raises(ProtocolError):
        frame_bytes({"blob": "x" * 64}, max_frame=16)
    a, b = socket.socketpair()
    with a, b:
        a.sendall(struct.pack(">I", 2**31))  # absurd length word
        with pytest.raises(ProtocolError):
            recv_frame(b)
    a, b = socket.socketpair()
    with a, b:
        a.sendall(frame_bytes({"k": 1})[:-2])  # truncated body
        a.close()
        with pytest.raises(ProtocolError):
            recv_frame(b)
    a, b = socket.socketpair()
    with a, b:
        a.sendall(struct.pack(">I", 3) + b"{{{")  # not JSON
        with pytest.raises(FrameDecodeError):
            recv_frame(b)
    a, b = socket.socketpair()
    with a, b:
        a.sendall(struct.pack(">I", 7) + b"[1,2,3]")  # not an object
        with pytest.raises(FrameDecodeError):
            recv_frame(b)


def test_frame_roundtrip_async():
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(frame_bytes({"ok": True}))
        reader.feed_eof()
        assert await read_frame(reader) == {"ok": True}
        assert await read_frame(reader) is None  # clean EOF

        truncated = asyncio.StreamReader()
        truncated.feed_data(frame_bytes({"k": "v"})[:-1])
        truncated.feed_eof()
        with pytest.raises(ProtocolError):
            await read_frame(truncated)

        mid_header = asyncio.StreamReader()
        mid_header.feed_data(b"\x00\x00")
        mid_header.feed_eof()
        with pytest.raises(ProtocolError):
            await read_frame(mid_header)

        oversized = asyncio.StreamReader()
        oversized.feed_data(struct.pack(">I", 2**31))
        oversized.feed_eof()
        with pytest.raises(ProtocolError):
            await read_frame(oversized)

    asyncio.run(scenario())


# --- worker loop (in-process, over a socketpair) -----------------------------


@pytest.fixture
def worker_link(tmp_path):
    ours, theirs = socket.socketpair()
    result: dict = {}

    def _serve():
        result["code"] = run_worker(
            theirs, 7,
            {"parallel": False, "query_cache_dir": str(tmp_path / "store")},
        )

    thread = threading.Thread(target=_serve, daemon=True)
    thread.start()
    yield ours, result
    ours.close()
    thread.join(timeout=30)
    theirs.close()


def test_worker_answers_ops_and_requests(worker_link, tmp_path):
    sock, result = worker_link
    send_frame(sock, {"t": "op", "op": "ping"})
    pong = recv_frame(sock)
    assert pong["t"] == "res"
    assert pong["payload"]["pong"] and pong["payload"]["worker"] == 7

    request = AnalyzeRequest(program=SPEC)
    send_frame(sock, {"t": "req", "payload": request.to_payload()})
    res = recv_frame(sock)["payload"]
    assert res["ok"]
    # Byte-identical to the one-shot path: same Session, same report.
    assert res["report"] == Session(parallel=False).analyze(request).to_payload()

    send_frame(sock, {"t": "op", "op": "stats"})
    stats = recv_frame(sock)["payload"]
    assert stats["ok"] and stats["server"] == {"served": 1, "errors": 0}
    assert stats["worker"] == 7 and stats["pid"] == os.getpid()
    assert stats["session"]["query_cache"]["computes"] > 0
    # The worker's persistent cache landed in the shared store dir.
    assert list((tmp_path / "store").glob(f"*{SUFFIX}"))

    sock.close()
    time.sleep(0.1)
    assert result.get("code") == 0  # EOF is the graceful shutdown


def test_worker_survives_recoverable_frames(worker_link):
    sock, _result = worker_link
    sock.sendall(struct.pack(">I", 3) + b"{{{")  # body not JSON
    assert "not valid JSON" in recv_frame(sock)["payload"]["error"]
    send_frame(sock, {"t": "mystery"})
    assert "unknown frame type" in recv_frame(sock)["payload"]["error"]
    send_frame(sock, {"t": "op", "op": "mystery"})
    assert recv_frame(sock)["payload"]["error"] == "unknown op 'mystery'"
    # EOF on the link is a worker's only shutdown signal.
    send_frame(sock, {"t": "op", "op": "shutdown"})
    assert "link closes" in recv_frame(sock)["payload"]["error"]
    send_frame(sock, {"t": "req", "payload": "not-a-dict"})
    assert "JSON object" in recv_frame(sock)["payload"]["error"]
    # After all that abuse the worker still answers real work.
    send_frame(sock, {"t": "op", "op": "ping"})
    assert recv_frame(sock)["payload"]["pong"]


def test_worker_drops_link_on_fatal_framing(tmp_path):
    ours, theirs = socket.socketpair()
    result: dict = {}

    def _serve():
        result["code"] = run_worker(theirs, 0, {"parallel": False})

    thread = threading.Thread(target=_serve, daemon=True)
    thread.start()
    with ours:
        ours.sendall(struct.pack(">I", 2**31))  # unrecoverable framing
        thread.join(timeout=30)
    theirs.close()
    assert result.get("code") == 1


def test_worker_loop_reports_stats_failure_as_error(tmp_path):
    loop = WorkerLoop(0, {"parallel": False, "query_cache_dir": str(tmp_path)})

    class _Boom:
        def stats(self):
            raise RuntimeError("stats exploded")

    loop.dispatcher.session = _Boom()
    res = loop.handle_frame({"t": "op", "op": "stats"})
    assert not res["payload"]["ok"]
    assert "stats exploded" in res["payload"]["error"]


# --- shared store ------------------------------------------------------------


def test_artifact_store_lifecycle(tmp_path):
    shared = BlobStore.create(tmp_path / "shared")
    assert not shared.owned
    shared.put("a", "fp", "{}")
    stats = shared.stats()
    entry = shared.path("a", "fp").stat().st_size
    assert stats["entries"] == 1 and stats["bytes"] == entry
    assert stats["rejected"] == 0
    shared.close()
    assert shared.directory.is_dir()  # explicit dirs are kept

    owned = BlobStore.create(None)
    assert owned.owned and owned.directory.is_dir()
    owned.close()
    assert not owned.directory.exists()


# --- frontend unit behavior (no real workers) --------------------------------


class _FakeProc:
    def __init__(self, alive=True):
        self.alive = alive

    def is_alive(self):
        return self.alive

    def join(self, timeout=None):
        pass

    def terminate(self):
        self.alive = False


def _bare_server(**overrides) -> ClusterServer:
    config = ClusterConfig(
        workers=1, session={"parallel": False}, **overrides
    )
    return ClusterServer(config=config)


def test_config_validation():
    with pytest.raises(ValueError):
        ClusterConfig(workers=0)
    with pytest.raises(ValueError):
        ClusterConfig(workers=1, queue_limit=0)


def test_request_deadline_and_backpressure():
    async def scenario():
        server = _bare_server(request_timeout=0.05, queue_limit=2)
        server._loop = asyncio.get_running_loop()
        handle = _WorkerHandle(0, _FakeProc(), None, None, 1234)
        server._handles[0] = handle
        server._ring.add(0)
        # No pump drains the queue, so the deadline must fire.
        response = await server._request({"kind": "x"}, "mp")
        assert not response["ok"]
        assert response["error"].startswith("deadline exceeded")
        # One abandoned entry sits queued; one more fills the limit.
        handle.submit(_Pending({}, None, server._loop.create_future()))
        overloaded = await server._request({"kind": "x"}, "mp")
        assert overloaded["error"] == "overloaded"
        # Jittered hint: uniform over [0.5x, 1.5x) of the configured base.
        base = server.config.retry_after
        # round(..., 4) may land exactly on the band edges -> inclusive bounds
        assert 0.5 * base <= overloaded["retry_after"] <= 1.5 * base
        # With no workers at all the refusal is immediate and explicit.
        server._handles.clear()
        server._ring.remove(0)
        refused = await server._request({"kind": "x"}, "mp")
        assert "no analysis workers" in refused["error"]

    asyncio.run(scenario())


def test_redispatch_semantics():
    async def scenario():
        server = _bare_server(queue_limit=1)
        server._loop = asyncio.get_running_loop()

        def entry(**kw):
            pending = _Pending(
                {"t": "req", "payload": {}}, "mp",
                server._loop.create_future(),
                control=kw.get("control", False),
            )
            pending.retried = kw.get("retried", False)
            return pending

        # Control probes are never forwarded.
        probe = entry(control=True)
        server._redispatch(probe)
        assert "connection lost" in probe.future.result()["error"]
        # A twice-crashed request fails cleanly instead of looping.
        twice = entry(retried=True)
        server._redispatch(twice)
        assert "crashed twice" in twice.future.result()["error"]
        # No surviving worker: explicit failure.
        orphan = entry()
        server._redispatch(orphan)
        assert "no replacement" in orphan.future.result()["error"]
        # A survivor at capacity refuses rather than queues unboundedly.
        handle = _WorkerHandle(0, _FakeProc(), None, None, 1)
        handle.submit(entry())
        server._handles[0] = handle
        server._ring.add(0)
        full = entry()
        server._redispatch(full)
        assert full.future.result()["error"] == "overloaded"
        # With room, the entry is forwarded exactly once.
        handle.queue.get_nowait()
        moved = entry()
        server._redispatch(moved)
        assert moved.retried and handle.queue.qsize() == 1
        # Deadline-answered entries are left alone.
        done = entry()
        done.future.set_result({"ok": False, "error": "deadline"})
        server._redispatch(done)
        assert handle.queue.qsize() == 1

    asyncio.run(scenario())


def test_render_stats_shapes():
    payload = {
        "server": {"workers": 2, "configured_workers": 2, "served": 5,
                   "errors": 1, "restarts": 1},
        "cluster": {
            "workers": [
                {"worker": 0, "pid": 11, "queue_depth": 0, "inflight": 1,
                 "served": 3, "restarts": 1,
                 "session": {"query_cache": {"hit_rate": 0.25}}},
                {"worker": 1, "pid": 12, "queue_depth": 2, "inflight": 0,
                 "answered": 2, "restarts": 0, "session": None},
            ],
            "shard_map": {"mp": 0, "sb": 1},
            "store": {"entries": 4, "bytes": 128, "directory": "/tmp/s"},
        },
    }
    text = render_stats(payload)
    assert "2 worker(s) alive" in text
    assert "worker 0 (pid 11)" in text and "cache-hit-rate=0.25" in text
    assert "cache-hit-rate=n/a" in text  # worker 1 had no session probe
    assert "mp->w0" in text and "4 artifact(s)" in text
    assert render_stats({}).startswith("cluster: 0 worker(s)")


# --- end-to-end cluster ------------------------------------------------------


@pytest.fixture(scope="module")
def cluster():
    server = ClusterServer(
        config=ClusterConfig(
            workers=2, session={"parallel": False}, health_interval=0.1
        )
    )
    server.start_in_thread()
    yield server
    server.stop_threaded()


def _connect(server):
    sock = socket.create_connection((server.host, server.port), timeout=60)
    return sock, sock.makefile("rw", encoding="utf-8", newline="\n")


def _roundtrip(server, lines):
    sock, stream = _connect(server)
    with sock:
        responses = []
        for line in lines:
            stream.write(line + "\n")
            stream.flush()
            responses.append(json.loads(stream.readline()))
        return responses


def test_cluster_ping(cluster):
    (pong,) = _roundtrip(cluster, ['{"op": "ping", "id": 3}'])
    assert pong["ok"] and pong["pong"] and pong["id"] == 3
    assert pong["workers"] == 2


def test_cluster_reports_byte_identical_to_one_shot(cluster):
    analyze = AnalyzeRequest(program=SPEC)
    check = CheckRequest(program=SPEC, max_states=200_000)
    responses = _roundtrip(
        cluster,
        [
            json.dumps({"id": 1, "request": analyze.to_payload()}),
            json.dumps(check.to_payload()),
        ],
    )
    assert all(r["ok"] for r in responses)
    assert responses[0]["id"] == 1 and responses[1]["id"] is None
    one_shot = Session(parallel=False)
    assert responses[0]["report"] == one_shot.analyze(analyze).to_payload()
    assert responses[1]["report"] == one_shot.check(check).to_payload()
    # Byte-level: the cluster serializes exactly what the CLI would.
    assert json.dumps(responses[0]["report"], indent=2, sort_keys=True) == (
        one_shot.analyze(analyze).to_json()
    )


def test_cluster_warm_edit_stays_on_the_owning_shard(cluster):
    warm = _roundtrip(
        cluster,
        [json.dumps(AnalyzeRequest(program=SPEC, stats=True).to_payload())],
    )[0]
    assert warm["ok"]
    edited = ProgramSpec.inline(MP.replace("data = 1;", "data = 3;"), name="mp")
    incremental = _roundtrip(
        cluster,
        [json.dumps(AnalyzeRequest(program=edited, stats=True).to_payload())],
    )[0]
    assert incremental["ok"]
    # The edit landed on the worker holding the warm context: sibling
    # functions' facts stayed cached across the wire edit.
    assert incremental["report"]["cache_stats"]["hits"] > 0


def test_cluster_concurrent_clients_and_same_program_edits(cluster):
    clients = 4
    barrier = threading.Barrier(clients)
    results: list = [None] * clients

    def client(slot):
        edited = ProgramSpec.inline(
            MP.replace("data = 1;", f"data = {slot + 10};"), name="mp"
        )
        request = AnalyzeRequest(program=edited)
        barrier.wait(timeout=30)
        results[slot] = _roundtrip(
            cluster, [json.dumps({"id": slot, "request": request.to_payload()})]
        )[0]

    threads = [
        threading.Thread(target=client, args=(i,)) for i in range(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    for slot, response in enumerate(results):
        assert response is not None and response["ok"]
        assert response["id"] == slot


def test_cluster_answers_errors_without_dropping_the_connection(cluster):
    responses = _roundtrip(
        cluster,
        [
            "not-json",
            "[1, 2, 3]",
            '{"id": 5, "request": "nope"}',
            '{"op": "mystery"}',
            '{"kind": "bogus-request"}',
            '{"op": "ping"}',
        ],
    )
    assert not responses[0]["ok"] and "not valid JSON" in responses[0]["error"]
    assert not responses[1]["ok"] and "JSON object" in responses[1]["error"]
    assert not responses[2]["ok"] and responses[2]["id"] == 5
    assert not responses[3]["ok"] and "unknown op" in responses[3]["error"]
    # A request without a program key round-robins to a worker, whose
    # dispatcher answers the schema error.
    assert not responses[4]["ok"]
    assert "not a servable request kind" in responses[4]["error"]
    # The stream stayed in sync through all of it.
    assert responses[5]["ok"] and responses[5]["pong"]


_bonus = AnalyzeRequest(program=SPEC).to_payload()
_bonus["bonus"] = 1

#: One line of each kind the two transports must answer alike.
PARITY_LINES = [
    "{nope",
    "[1, 2]",
    '{"id": 7, "request": [1]}',
    '{"id": 8, "request": {"kind": "mystery-request"}}',
    '{"id": 9, "op": "dance"}',
    json.dumps({"id": 10, "request": _bonus}),
    # An op inside ``request`` is a payload without a servable kind.
    '{"id": 11, "request": {"op": "shutdown"}}',
    '{"request": {"op": "stats"}}',
    '{"id": 12, "op": "ping"}',
]


def test_stdio_and_cluster_answer_every_line_alike():
    stdin = io.BytesIO("".join(line + "\n" for line in PARITY_LINES).encode())
    stdout = io.StringIO()
    assert serve_stdio(Session(parallel=False), stdin, stdout) == 0
    stdio = [json.loads(line) for line in stdout.getvalue().splitlines()]
    server = ClusterServer(
        config=ClusterConfig(workers=1, session={"parallel": False})
    )
    server.start_in_thread()
    try:
        clustered = _roundtrip(server, PARITY_LINES)
    finally:
        server.stop_threaded()
    assert len(stdio) == len(clustered) == len(PARITY_LINES)
    for line, alone, fleet in zip(PARITY_LINES, stdio, clustered):
        assert fleet.pop("workers", 1) == 1, line
        assert alone == fleet, line
    assert [r["ok"] for r in stdio] == [False] * 8 + [True]
    assert stdio[6]["error"].startswith("not a servable request kind: None")
    assert stdio[7]["error"] == stdio[6]["error"]


def test_cluster_half_closed_client_still_gets_its_answer(cluster):
    sock, stream = _connect(cluster)
    with sock:
        line = json.dumps(AnalyzeRequest(program=SPEC).to_payload())
        sock.sendall((line + "\n").encode("utf-8"))
        sock.shutdown(socket.SHUT_WR)  # half-close: no more requests
        response = json.loads(stream.readline())
        assert response["ok"]


def test_cluster_oversized_line_is_answered_then_closed():
    server = ClusterServer(
        config=ClusterConfig(
            workers=1, session={"parallel": False}, max_line=4096
        )
    )
    server.start_in_thread()
    try:
        sock, stream = _connect(server)
        with sock:
            sock.sendall(b'{"pad": "' + b"x" * 8192 + b'"}\n')
            response = json.loads(stream.readline())
            assert not response["ok"] and "exceeds" in response["error"]
            assert stream.readline() == ""  # stream closed: no resync
    finally:
        server.stop_threaded()


def test_cluster_stats_exposes_per_worker_state(cluster):
    (stats,) = _roundtrip(cluster, ['{"op": "stats", "id": 9}'])
    assert stats["ok"] and stats["id"] == 9
    server_row = stats["server"]
    assert server_row["workers"] == 2 and not server_row["draining"]
    assert server_row["served"] > 0
    rows = stats["cluster"]["workers"]
    assert [row["worker"] for row in rows] == [0, 1]
    for row in rows:
        assert row["alive"] and isinstance(row["pid"], int)
        assert row["queue_depth"] == 0 and row["inflight"] == 0
        session = row["session"]
        assert session is not None and "query_cache" in session
        assert 0.0 <= session["query_cache"]["hit_rate"] <= 1.0
    # mp was analyzed earlier in the module: its shard is pinned.
    shard_map = stats["cluster"]["shard_map"]
    assert shard_map.get("mp") in {0, 1}
    store = stats["cluster"]["store"]
    assert store["owned"] and store["entries"] > 0
    assert "worker 0" in render_stats(stats)


def test_cluster_rejects_stranger_on_internal_port(cluster):
    with socket.create_connection(
        ("127.0.0.1", cluster._internal_port), timeout=10
    ) as sock:
        send_frame(sock, {"t": "hello", "worker": 0, "token": "wrong"})
        sock.settimeout(10)
        assert sock.recv(1) == b""  # frontend hangs up on bad tokens


def test_cluster_worker_crash_recovers_and_restarts(cluster):
    # Seat the shard, then find out who owns it.
    seed = _roundtrip(
        cluster, [json.dumps(AnalyzeRequest(program=SPEC).to_payload())]
    )[0]
    assert seed["ok"]
    (stats,) = _roundtrip(cluster, ['{"op": "stats"}'])
    owner = stats["cluster"]["shard_map"]["mp"]
    victim_pid = next(
        row["pid"] for row in stats["cluster"]["workers"]
        if row["worker"] == owner
    )
    restarts_before = stats["server"]["restarts"]

    sock, stream = _connect(cluster)
    with sock:
        os.kill(victim_pid, signal.SIGKILL)
        # The very next request for the dead worker's shard must still
        # be answered — forwarded to a survivor or served post-restart —
        # over the same connection.
        line = json.dumps(AnalyzeRequest(program=SPEC).to_payload())
        stream.write(line + "\n")
        stream.flush()
        response = json.loads(stream.readline())
        assert response["ok"]
        # And the slot comes back: restart-on-crash.
        deadline = time.time() + 30
        while time.time() < deadline:
            stream.write('{"op": "stats"}\n')
            stream.flush()
            stats = json.loads(stream.readline())
            if (
                stats["server"]["workers"] == 2
                and stats["server"]["restarts"] > restarts_before
            ):
                break
            time.sleep(0.2)
        assert stats["server"]["workers"] == 2
        assert stats["server"]["restarts"] > restarts_before
        pids = {row["pid"] for row in stats["cluster"]["workers"]}
        assert victim_pid not in pids


def test_cluster_shutdown_op_drains_and_stops():
    server = ClusterServer(
        config=ClusterConfig(workers=1, session={"parallel": False})
    )
    server.start_in_thread()
    (bye,) = _roundtrip(server, ['{"op": "shutdown"}'])
    assert bye["ok"] and bye["bye"]
    server._thread.join(timeout=60)
    assert not server._thread.is_alive()
    # The owned artifact store is removed on the way out.
    assert not server.store.directory.exists()


# --- observability -----------------------------------------------------------


def test_retry_hint_jitter_spread():
    server = _bare_server()
    base = server.config.retry_after
    hints = {server._retry_hint() for _ in range(500)}
    # round(..., 4) may land exactly on the band edges -> inclusive bounds
    assert all(0.5 * base <= hint <= 1.5 * base for hint in hints)
    assert len(hints) > 50  # genuinely spread, not quantized to a point
    assert max(hints) - min(hints) > 0.5 * base  # covers most of the band


def test_stats_op_surfaces_restarting_slots():
    async def scenario():
        server = ClusterServer(config=ClusterConfig(
            workers=2, session={"parallel": False}, stats_timeout=0.05
        ))
        server._loop = asyncio.get_running_loop()
        server._restarts[1] = 3
        server._handles[0] = _WorkerHandle(0, _FakeProc(), None, None, 77)
        stats = await server._stats_op(None)
        rows = stats["cluster"]["workers"]
        assert [row["worker"] for row in rows] == [0, 1]
        live, respawning = rows
        assert live["pid"] == 77 and not live.get("restarting")
        assert respawning["restarting"] and respawning["pid"] is None
        assert not respawning["alive"] and respawning["restarts"] == 3

    asyncio.run(scenario())


def test_render_stats_shows_restarting_workers():
    payload = {
        "server": {"workers": 1, "configured_workers": 2, "served": 3,
                   "errors": 0, "restarts": 2},
        "cluster": {"workers": [
            {"worker": 0, "pid": 11, "queue_depth": 0, "inflight": 0,
             "served": 3, "restarts": 0, "session": None},
            {"worker": 1, "pid": None, "alive": False, "restarting": True,
             "queue_depth": 0, "inflight": 0, "answered": 0, "restarts": 2,
             "session": None},
        ]},
    }
    text = render_stats(payload)
    assert "worker 0 (pid 11)" in text
    assert "worker 1 (restarting): restarts=2" in text


def test_cluster_metrics_op_aggregates_workers(cluster):
    request = json.dumps(AnalyzeRequest(program=SPEC).to_payload())
    analyze, response = _roundtrip(cluster, [request, '{"op": "metrics"}'])
    assert analyze["ok"] and response["ok"]
    counters = response["metrics"]["counters"]
    # Frontend-side per-op accounting...
    assert any(
        key.startswith("repro_cluster_requests_total") for key in counters
    )
    # ...merged with worker-side query-engine counters over the link.
    assert counters.get("repro_query_lookups_total", 0) > 0
    assert response["workers"], "per-worker payloads ride along"
    assert "# TYPE repro_query_lookups_total counter" in response["text"]


def test_cluster_trace_propagates_one_id_end_to_end(tmp_path):
    from repro.obs import trace as obs_trace

    obs_trace.disable()
    tracer = obs_trace.enable()
    server = ClusterServer(config=ClusterConfig(
        workers=1, session={"parallel": False}, trace=True
    ))
    try:
        server.start_in_thread()
        (response,) = _roundtrip(
            server, [json.dumps(AnalyzeRequest(program=SPEC).to_payload())]
        )
        assert response["ok"]
    finally:
        server.stop_threaded()
        obs_trace.disable()

    by_name: dict[str, list[dict]] = {}
    for event in tracer.events():
        by_name.setdefault(event["name"], []).append(event)
    for name in ("cluster.request", "cluster.dispatch", "cluster.link",
                 "worker.dispatch", "query.eval"):
        assert name in by_name, f"missing {name} span"

    request_span = by_name["cluster.request"][0]
    trace_id = request_span["args"]["trace"]
    assert trace_id
    # One trace id spans the frontend accept, the ring dispatch, the
    # framed link, and the worker-side dispatch + query evaluations.
    for name in ("cluster.dispatch", "cluster.link", "worker.dispatch",
                 "query.eval"):
        assert all(
            event["args"]["trace"] == trace_id for event in by_name[name]
        ), f"{name} spans left the trace"
    # Two processes, one flame: worker spans keep their own pid.
    assert by_name["worker.dispatch"][0]["pid"] != request_span["pid"]

    out = tmp_path / "trace.json"
    obs_trace.export_chrome(out, tracer.events())
    data = json.loads(out.read_text(encoding="utf-8"))
    assert set(data) == {"traceEvents", "displayTimeUnit"}
    timestamps = [event["ts"] for event in data["traceEvents"]]
    assert timestamps == sorted(timestamps)
    for event in data["traceEvents"]:
        assert {"name", "cat", "ph", "ts", "dur", "pid", "tid"} <= set(event)
        assert event["ph"] == "X"
