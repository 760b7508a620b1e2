"""The async cluster frontend: many connections, few worker processes.

This is the fleet-scale half of ``repro serve``. One asyncio event
loop multiplexes every client connection (JSON lines, the existing
schema-versioned ``*Request`` envelopes, unchanged), and a pool of
:mod:`~repro.cluster.worker` processes does the actual analysis:

* the **router** (:class:`~repro.cluster.router.HashRing`) pins each
  program name to one worker, so warm ``QueryEngine`` contexts and
  compiled-program LRUs stay worker-local across edits;
* each worker link is a length-prefixed framed pipe with strict FIFO
  response matching; per-worker outstanding work is bounded
  (``queue_limit``) and excess requests are refused immediately with
  ``{"ok": false, "error": "overloaded", "retry_after": ...}``;
* per-request **deadlines** abandon stragglers (the client gets a
  deadline error; the worker's eventual answer is dropped);
* worker **death** is detected by link EOF or the health loop; its
  queued and in-flight requests are forwarded once to the surviving
  shards (mid-flight resharding), the ring rebalances, and the slot is
  respawned — client connections never drop because a worker did;
* **graceful drain** (SIGTERM/SIGINT or the ``shutdown`` op) stops
  accepting, lets in-flight requests finish within ``drain_timeout``,
  closes the worker links (EOF is the workers' shutdown signal), and
  exits 0.

Client lines are decoded by :func:`~repro.serve.server.decode_line`,
the decoder ``repro serve --stdio`` uses, and each request object is
answered by a worker's ``ServeDispatcher.answer``, so responses are
byte-identical to ``repro serve --stdio`` and the one-shot CLI. Only
the top-level ops are the frontend's own: they answer for the fleet.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import random
import secrets
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

import repro
from repro.cluster.protocol import (
    MAX_FRAME,
    ProtocolError,
    frame_bytes,
    read_frame,
)
from repro.cluster.router import HashRing, routing_key
from repro.cluster.worker import spawn_worker
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.serve.server import WireError, decode_line, encode_response
from repro.util.store import BlobStore


@dataclass
class ClusterConfig:
    """Operational knobs for one cluster frontend."""

    workers: int = 2
    #: Max outstanding (queued + in-flight) requests per worker before
    #: new ones are refused with an ``overloaded`` error.
    queue_limit: int = 64
    #: Per-request deadline in seconds (``None`` disables).
    request_timeout: float | None = 300.0
    #: How long graceful shutdown waits for in-flight work.
    drain_timeout: float = 10.0
    #: Base backoff hint returned with ``overloaded`` responses; the
    #: actual hint is jittered over [0.5x, 1.5x) so a burst of refused
    #: clients does not retry in lockstep.
    retry_after: float = 0.25
    health_interval: float = 0.5
    hello_timeout: float = 60.0
    stats_timeout: float = 5.0
    worker_join_timeout: float = 5.0
    #: Longest accepted client request line, in bytes.
    max_line: int = 8 * 1024 * 1024
    max_frame: int = MAX_FRAME
    #: Keyword arguments for each worker's ``Session``. Every worker
    #: shares one query store: ``query_cache_dir``, or when that is
    #: ``None`` a cluster-owned temporary directory removed at shutdown.
    session: dict[str, Any] = field(default_factory=dict)
    #: Enable span tracing in every worker process (spans ship back in
    #: response frames and merge into the frontend's tracer).
    trace: bool = False
    #: Slow-query log threshold (seconds) applied in every worker.
    slow_query: float | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("a cluster needs at least one worker")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")


class _Pending:
    """One request waiting in a worker's FIFO."""

    __slots__ = (
        "frame", "key", "future", "retried", "control",
        "created", "sent", "sent_wall_us",
    )

    def __init__(self, frame: dict, key: str | None,
                 future: asyncio.Future, control: bool = False) -> None:
        self.frame = frame
        self.key = key
        self.future = future
        #: Monotonic enqueue time (queue-wait metric baseline).
        self.created = time.perf_counter()
        #: Monotonic + wall time the frame hit the link (RTT baseline).
        self.sent = 0.0
        self.sent_wall_us = 0
        #: Set once the request has been forwarded after a crash;
        #: a second crash fails it cleanly instead of looping.
        self.retried = False
        #: Control frames (stats probes) are never forwarded.
        self.control = control


class _WorkerHandle:
    """Frontend-side state for one live worker link."""

    def __init__(self, worker_id: int, process, reader, writer, pid) -> None:
        self.id = worker_id
        self.process = process
        self.reader = reader
        self.writer = writer
        self.pid = pid
        self.queue: asyncio.Queue = asyncio.Queue()
        self.inflight: deque[_Pending] = deque()
        self.served = 0
        self.dead = False
        self.pump_task: asyncio.Task | None = None
        self.reader_task: asyncio.Task | None = None

    def outstanding(self) -> int:
        return self.queue.qsize() + len(self.inflight)

    def submit(self, entry: _Pending) -> None:
        self.queue.put_nowait(entry)


class _ClientConn:
    __slots__ = ("writer", "busy")

    def __init__(self, writer) -> None:
        self.writer = writer
        self.busy = False


class ClusterServer:
    """Sharded multi-process analysis service (see module docstring)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        config: ClusterConfig | None = None,
    ) -> None:
        self.request_host = host
        self.request_port = port
        self.config = config if config is not None else ClusterConfig()
        self.host = host
        self.port: int | None = None
        self.served = 0
        self.errors = 0
        self.store: BlobStore | None = None
        self._token = secrets.token_hex(16)
        self._handles: dict[int, _WorkerHandle] = {}
        self._ring = HashRing()
        self._restarts: dict[int, int] = {}
        self._procs: list = []
        self._pending_hello: dict[int, asyncio.Future] = {}
        self._conns: set[_ClientConn] = set()
        self._seen_keys: dict[str, None] = {}
        self._rr = 0
        self._draining = False
        self._server: asyncio.base_events.Server | None = None
        self._internal: asyncio.base_events.Server | None = None
        self._internal_port: int | None = None
        self._health_task: asyncio.Task | None = None
        self._bg_tasks: set[asyncio.Task] = set()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stopping: asyncio.Event | None = None
        self._thread: threading.Thread | None = None

    # --- lifecycle --------------------------------------------------------
    async def run(
        self,
        on_ready: Callable[["ClusterServer"], None] | None = None,
        install_signals: bool = False,
    ) -> int:
        """Bring the cluster up, serve until drained, tear down; 0."""
        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        self.store = BlobStore.create(self.config.session.get("query_cache_dir"))
        started = False
        try:
            self._internal = await asyncio.start_server(
                self._handle_worker_conn, "127.0.0.1", 0
            )
            self._internal_port = self._internal.sockets[0].getsockname()[1]
            await asyncio.gather(
                *(self._launch_worker(w) for w in range(self.config.workers))
            )
            self._server = await asyncio.start_server(
                self._handle_client,
                self.request_host,
                self.request_port,
                limit=self.config.max_line,
            )
            bound = self._server.sockets[0].getsockname()
            self.host, self.port = bound[0], bound[1]
            if install_signals:
                for signum in (signal.SIGTERM, signal.SIGINT):
                    with contextlib.suppress(NotImplementedError, RuntimeError):
                        self._loop.add_signal_handler(signum, self.begin_drain)
            self._health_task = asyncio.ensure_future(self._health_loop())
            started = True
        finally:
            if not started:
                await self._teardown(force=True)
        if on_ready is not None:
            on_ready(self)
        await self._stopping.wait()
        return await self._teardown()

    def begin_drain(self) -> None:
        """Stop accepting, finish in-flight work, then exit (idempotent;
        safe to call from signal handlers on the loop thread)."""
        if self._draining:
            return
        self._draining = True
        # Idle connections are parked in readline(); closing them is
        # the only way they learn the fleet is going away. Busy ones
        # finish their current request first (the handler loop checks
        # the drain flag after each response).
        for conn in list(self._conns):
            if not conn.busy:
                conn.writer.close()
        if self._stopping is not None:
            self._stopping.set()

    async def _teardown(self, force: bool = False) -> int:
        self._draining = True
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
        if not force and self._loop is not None:
            deadline = self._loop.time() + self.config.drain_timeout
            while (
                any(conn.busy for conn in self._conns)
                and self._loop.time() < deadline
            ):
                await asyncio.sleep(0.02)
        for conn in list(self._conns):
            with contextlib.suppress(Exception):
                conn.writer.close()
        if self._health_task is not None:
            self._health_task.cancel()
        for task in list(self._bg_tasks):
            task.cancel()
        handles = list(self._handles.values())
        self._handles.clear()
        for handle in handles:
            for task in (handle.pump_task, handle.reader_task):
                if task is not None:
                    task.cancel()
            # EOF on the link is the workers' graceful-shutdown signal.
            with contextlib.suppress(Exception):
                handle.writer.close()
        await self._join_processes()
        if self._internal is not None:
            self._internal.close()
            with contextlib.suppress(Exception):
                await self._internal.wait_closed()
        if self.store is not None:
            self.store.close()
        return 0

    async def _join_processes(self) -> None:
        if self._loop is None:
            return
        procs = [p for p in self._procs if p.is_alive()]
        deadline = self._loop.time() + self.config.worker_join_timeout
        while any(p.is_alive() for p in procs) and self._loop.time() < deadline:
            await asyncio.sleep(0.05)
        for proc in procs:
            if proc.is_alive():  # straggler past the drain deadline
                proc.terminate()
        await asyncio.sleep(0)
        for proc in procs:
            if proc.is_alive():
                with contextlib.suppress(Exception):
                    proc.join(timeout=1.0)
            if proc.is_alive():  # pragma: no cover - terminate() ignored
                with contextlib.suppress(Exception):
                    proc.kill()
        for proc in self._procs:
            with contextlib.suppress(Exception):
                proc.join(timeout=0.1)

    # --- worker pool ------------------------------------------------------
    async def _launch_worker(self, worker_id: int) -> None:
        future = self._loop.create_future()
        self._pending_hello[worker_id] = future
        process = spawn_worker(
            worker_id,
            "127.0.0.1",
            self._internal_port,
            self._token,
            {**self.config.session, "query_cache_dir": str(self.store.directory)},
            trace_enabled=self.config.trace,
            slow_query=self.config.slow_query,
        )
        self._procs.append(process)
        try:
            reader, writer, hello = await asyncio.wait_for(
                future, self.config.hello_timeout
            )
        except Exception:
            self._pending_hello.pop(worker_id, None)
            with contextlib.suppress(Exception):
                process.terminate()
            raise
        handle = _WorkerHandle(
            worker_id, process, reader, writer, hello.get("pid")
        )
        handle.pump_task = asyncio.ensure_future(self._pump(handle))
        handle.reader_task = asyncio.ensure_future(self._read_responses(handle))
        self._handles[worker_id] = handle
        self._ring.add(worker_id)

    async def _handle_worker_conn(self, reader, writer) -> None:
        """Accept one worker dialing back; match it to its launch."""
        try:
            hello = await asyncio.wait_for(
                read_frame(reader, self.config.max_frame), 10.0
            )
        except (asyncio.TimeoutError, ProtocolError):
            hello = None
        if (
            not isinstance(hello, dict)
            or hello.get("t") != "hello"
            or hello.get("token") != self._token
        ):
            writer.close()
            return
        future = self._pending_hello.pop(hello.get("worker"), None)
        if future is None or future.done():
            writer.close()
            return
        future.set_result((reader, writer, hello))

    async def _pump(self, handle: _WorkerHandle) -> None:
        """Feed one worker's FIFO down its framed link."""
        try:
            while True:
                entry = await handle.queue.get()
                try:
                    data = frame_bytes(entry.frame, self.config.max_frame)
                except ProtocolError as exc:
                    # Oversized toward the worker: refuse this request
                    # only, the link itself is fine.
                    self._finish(entry, {"ok": False, "error": str(exc)})
                    continue
                obs_metrics.REGISTRY.observe(
                    "repro_cluster_queue_wait_seconds",
                    time.perf_counter() - entry.created,
                    worker=str(handle.id),
                )
                entry.sent = time.perf_counter()
                entry.sent_wall_us = time.time_ns() // 1000
                handle.inflight.append(entry)
                handle.writer.write(data)
                await handle.writer.drain()
        except asyncio.CancelledError:
            raise
        except (ConnectionError, OSError):
            self._worker_died(handle)

    async def _read_responses(self, handle: _WorkerHandle) -> None:
        """Match one worker's in-order responses to its FIFO."""
        try:
            while True:
                frame = await read_frame(handle.reader, self.config.max_frame)
                if frame is None:
                    break
                if frame.get("t") != "res" or not handle.inflight:
                    continue  # stray frame: ignore rather than desync
                entry = handle.inflight.popleft()
                handle.served += 1
                if entry.sent:
                    rtt = time.perf_counter() - entry.sent
                    obs_metrics.REGISTRY.observe(
                        "repro_cluster_link_rtt_seconds", rtt,
                        worker=str(handle.id),
                    )
                    self._note_link(handle, entry, rtt, frame.get("spans"))
                payload = frame.get("payload")
                if not isinstance(payload, dict):
                    payload = {"ok": False, "error": "malformed worker response"}
                self._finish(entry, payload)
        except asyncio.CancelledError:
            raise
        except (ProtocolError, ConnectionError, OSError):
            pass
        self._worker_died(handle)

    @staticmethod
    def _finish(entry: _Pending, response: dict) -> None:
        if not entry.future.done():
            entry.future.set_result(response)

    def _note_link(
        self, handle: _WorkerHandle, entry: _Pending, rtt: float, spans
    ) -> None:
        """Merge a worker's shipped spans and synthesize the link span
        (send -> response) on the frontend's own timeline."""
        tracer = obs_trace.active()
        if tracer is None:
            return
        if isinstance(spans, list):
            tracer.ingest(spans)
        args: dict[str, Any] = {"worker": handle.id}
        trace_id = entry.frame.get("trace")
        if trace_id is not None:
            args["trace"] = trace_id
        tracer.record({
            "name": "cluster.link",
            "cat": "cluster",
            "ph": "X",
            "ts": entry.sent_wall_us,
            "dur": int(rtt * 1e6),
            "pid": os.getpid(),
            "tid": threading.get_native_id(),
            "args": args,
        })

    def _retry_hint(self) -> float:
        """Jittered ``retry_after``: uniform over [0.5x, 1.5x) of the
        configured base, so refused clients don't retry in lockstep."""
        return round(self.config.retry_after * (0.5 + random.random()), 4)

    def _worker_died(self, handle: _WorkerHandle) -> None:
        """Rebalance away from a dead worker and respawn its slot."""
        if handle.dead:
            return
        handle.dead = True
        if self._handles.get(handle.id) is handle:
            del self._handles[handle.id]
        self._ring.remove(handle.id)
        current = asyncio.current_task()
        for task in (handle.pump_task, handle.reader_task):
            if task is not None and task is not current:
                task.cancel()
        with contextlib.suppress(Exception):
            handle.writer.close()
        with contextlib.suppress(Exception):
            handle.process.join(timeout=0)
        entries = list(handle.inflight)
        handle.inflight.clear()
        while True:
            try:
                entries.append(handle.queue.get_nowait())
            except asyncio.QueueEmpty:
                break
        for entry in entries:
            self._redispatch(entry)
        if not self._draining:
            self._restarts[handle.id] = self._restarts.get(handle.id, 0) + 1
            task = asyncio.ensure_future(self._respawn(handle.id))
            self._bg_tasks.add(task)
            task.add_done_callback(self._bg_tasks.discard)

    def _redispatch(self, entry: _Pending) -> None:
        """Forward a crashed worker's request to the resharded owner —
        once; a second crash fails it cleanly."""
        if entry.future.done():
            return  # deadline already answered the client
        if entry.control:
            self._finish(entry, {"ok": False, "error": "worker connection lost"})
            return
        if entry.retried:
            self._finish(
                entry,
                {"ok": False, "error": "analysis worker crashed twice on this request"},
            )
            return
        entry.retried = True
        handle = self._route(entry.key)
        if handle is None:
            self._finish(
                entry,
                {"ok": False, "error": "analysis worker crashed and no replacement is available"},
            )
            return
        if handle.outstanding() >= self.config.queue_limit:
            self._finish(
                entry,
                {
                    "ok": False,
                    "error": "overloaded",
                    "retry_after": self._retry_hint(),
                },
            )
            return
        handle.submit(entry)

    async def _respawn(self, worker_id: int) -> None:
        for attempt in range(3):
            if self._draining:
                return
            try:
                await self._launch_worker(worker_id)
            except Exception:  # noqa: BLE001 - keep trying, then give up
                await asyncio.sleep(0.2 * (attempt + 1))
            else:
                return
        # The slot stays down; stats shows fewer alive workers.

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.health_interval)
            for handle in list(self._handles.values()):
                if not handle.process.is_alive():
                    self._worker_died(handle)

    # --- request routing --------------------------------------------------
    def _route(self, key: str | None) -> _WorkerHandle | None:
        if key is not None:
            worker_id = self._ring.locate(key)
            return None if worker_id is None else self._handles.get(worker_id)
        alive = sorted(self._handles)
        if not alive:
            return None
        self._rr = (self._rr + 1) % len(alive)
        return self._handles[alive[self._rr]]

    def _note_key(self, key: str) -> None:
        self._seen_keys.pop(key, None)
        self._seen_keys[key] = None
        while len(self._seen_keys) > 1024:
            self._seen_keys.pop(next(iter(self._seen_keys)))

    async def _request(self, payload: dict, key: str | None) -> dict:
        handle = self._route(key)
        if handle is None:
            return {"ok": False, "error": "no analysis workers available"}
        if handle.outstanding() >= self.config.queue_limit:
            return {
                "ok": False,
                "error": "overloaded",
                "retry_after": self._retry_hint(),
            }
        frame = {"t": "req", "payload": payload}
        trace_id = obs_trace.current_trace_id()
        if trace_id is not None:
            frame["trace"] = trace_id
        entry = _Pending(frame, key, self._loop.create_future())
        handle.submit(entry)
        timeout = self.config.request_timeout
        dispatch_span = obs_trace.span(
            "cluster.dispatch", cat="cluster", worker=handle.id
        )
        try:
            with dispatch_span:
                if timeout is None:
                    return await entry.future
                return await asyncio.wait_for(entry.future, timeout)
        except asyncio.TimeoutError:
            # wait_for cancelled the future: the reader task will drop
            # the straggler's eventual response on the floor.
            return {
                "ok": False,
                "error": f"deadline exceeded after {timeout:g}s; request abandoned",
            }

    async def _submit_control(
        self, handle: _WorkerHandle, frame: dict
    ) -> dict | None:
        entry = _Pending(frame, None, self._loop.create_future(), control=True)
        handle.submit(entry)
        try:
            return await asyncio.wait_for(entry.future, self.config.stats_timeout)
        except asyncio.TimeoutError:
            return None  # busy worker: report frontend-side state only

    # --- client protocol --------------------------------------------------
    async def _handle_client(self, reader, writer) -> None:
        conn = _ClientConn(writer)
        self._conns.add(conn)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Line exceeded the buffer limit: answer, then close
                    # (the stream cannot be resynchronized).
                    conn.busy = True
                    await self._send(
                        writer,
                        self._client_error(
                            f"request line exceeds {self.config.max_line} bytes", None
                        ),
                    )
                    break
                except (ConnectionError, OSError):
                    break
                if not line:
                    break  # client EOF
                text = line.decode("utf-8", "replace").strip()
                if not text:
                    continue
                conn.busy = True
                try:
                    response, stop = await self._dispatch_line(text)
                finally:
                    conn.busy = False
                if not await self._send(writer, response):
                    break
                if stop or self._draining:
                    break
        finally:
            self._conns.discard(conn)
            with contextlib.suppress(Exception):
                writer.close()

    async def _send(self, writer, response: dict) -> bool:
        try:
            writer.write((encode_response(response) + "\n").encode("utf-8"))
            await writer.drain()
        except (ConnectionError, OSError):
            return False
        return True

    def _client_error(self, message: str, req_id) -> dict:
        self.errors += 1
        return {"ok": False, "id": req_id, "error": message}

    async def _dispatch_line(self, text: str) -> tuple[dict, bool]:
        try:
            decoded = decode_line(text)
        except WireError as exc:
            return self._client_error(str(exc), exc.req_id), False
        if decoded.op:
            return await self._handle_op(decoded.payload)
        payload, req_id = decoded.payload, decoded.req_id
        key = routing_key(payload)
        if key is not None:
            self._note_key(key)
        kind = str(payload.get("kind"))
        started = time.perf_counter()
        with obs_trace.request_scope(), obs_trace.span(
            "cluster.request", cat="cluster", kind=kind
        ):
            response = dict(await self._request(payload, key))
        ok = bool(response.get("ok"))
        registry = obs_metrics.REGISTRY
        registry.observe(
            "repro_cluster_request_seconds",
            time.perf_counter() - started,
            kind=kind,
        )
        registry.inc(
            "repro_cluster_requests_total",
            kind=kind, ok="true" if ok else "false",
        )
        response["id"] = req_id
        if ok:
            self.served += 1
        else:
            self.errors += 1
        return response, False

    async def _handle_op(self, payload: dict) -> tuple[dict, bool]:
        op = payload.get("op")
        req_id = payload.get("id")
        if op == "ping":
            return {
                "ok": True,
                "id": req_id,
                "pong": True,
                "version": repro.__version__,
                "workers": len(self._handles),
            }, False
        if op == "stats":
            return await self._stats_op(req_id), False
        if op == "metrics":
            return await self._metrics_op(req_id), False
        if op == "shutdown":
            self.begin_drain()
            return {"ok": True, "id": req_id, "bye": True}, True
        return self._client_error(f"unknown op {op!r}", req_id), False

    async def _stats_op(self, req_id) -> dict:
        handles = sorted(self._handles.items())
        probes: list[dict | None] = []
        if handles:
            probes = await asyncio.gather(
                *(
                    self._submit_control(handle, {"t": "op", "op": "stats"})
                    for _, handle in handles
                )
            )
        rows = []
        for (worker_id, handle), probe in zip(handles, probes):
            row = {
                "worker": worker_id,
                "pid": handle.pid,
                "alive": handle.process.is_alive(),
                "queue_depth": handle.queue.qsize(),
                "inflight": len(handle.inflight),
                "answered": handle.served,
                "restarts": self._restarts.get(worker_id, 0),
                "session": None,
            }
            if isinstance(probe, dict) and probe.get("ok"):
                row.update(probe["server"], session=probe["session"])
            rows.append(row)
        # Slots mid-restart have no handle yet; surface them instead of
        # silently shrinking the table.
        present = {worker_id for worker_id, _handle in handles}
        for worker_id in range(self.config.workers):
            if worker_id in present:
                continue
            rows.append({
                "worker": worker_id,
                "pid": None,
                "alive": False,
                "restarting": True,
                "queue_depth": 0,
                "inflight": 0,
                "answered": 0,
                "restarts": self._restarts.get(worker_id, 0),
                "session": None,
            })
        rows.sort(key=lambda row: row["worker"])
        shard_map = {
            key: self._ring.locate(key) for key in sorted(self._seen_keys)
        }
        return {
            "ok": True,
            "id": req_id,
            "server": {
                "served": self.served,
                "errors": self.errors,
                "workers": len(self._handles),
                "configured_workers": self.config.workers,
                "restarts": sum(self._restarts.values()),
                "queue_limit": self.config.queue_limit,
                "request_timeout": self.config.request_timeout,
                "draining": self._draining,
            },
            "cluster": {
                "workers": rows,
                "shard_map": shard_map,
                "store": self.store.stats() if self.store is not None else None,
            },
        }

    async def _metrics_op(self, req_id) -> dict:
        """Scrape every worker's registry and aggregate with our own.

        Histograms share one fixed bucket ladder, so cross-worker
        aggregation is a per-bucket sum; counters and gauges add.
        """
        handles = sorted(self._handles.items())
        probes: list[dict | None] = []
        if handles:
            probes = await asyncio.gather(
                *(
                    self._submit_control(handle, {"t": "op", "op": "metrics"})
                    for _, handle in handles
                )
            )
        payloads = [obs_metrics.REGISTRY.to_payload()]
        per_worker = []
        slow = list(obs_trace.SLOW_QUERIES.entries())
        for (worker_id, _handle), probe in zip(handles, probes):
            if not (isinstance(probe, dict) and probe.get("ok")):
                continue
            worker_metrics = probe.get("metrics")
            if isinstance(worker_metrics, dict):
                payloads.append(worker_metrics)
                per_worker.append({
                    "worker": worker_id,
                    "pid": probe.get("pid"),
                    "metrics": worker_metrics,
                })
            for entry in probe.get("slow_queries") or ():
                if isinstance(entry, dict):
                    slow.append(dict(entry, worker=worker_id))
        merged = obs_metrics.merge_payloads(payloads)
        return {
            "ok": True,
            "id": req_id,
            "metrics": merged,
            "text": obs_metrics.render_prometheus(merged),
            "workers": per_worker,
            "slow_queries": slow,
        }

    # --- threaded embedding (tests, examples) -----------------------------
    def start_in_thread(self, timeout: float = 120.0) -> tuple[str, int]:
        """Run the cluster on a dedicated event-loop thread; returns the
        bound (host, port) once it accepts clients."""
        ready = threading.Event()

        def _main() -> None:
            asyncio.run(self.run(on_ready=lambda _server: ready.set()))

        self._thread = threading.Thread(
            target=_main, name="repro-cluster", daemon=True
        )
        self._thread.start()
        if not ready.wait(timeout):
            raise RuntimeError("cluster did not come up in time")
        return self.host, self.port

    def stop_threaded(self, timeout: float = 60.0) -> None:
        """Drain and join a ``start_in_thread`` cluster."""
        if self._thread is None:
            return
        if self._loop is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self.begin_drain)
        self._thread.join(timeout)


def render_stats(stats: dict) -> str:
    """Human-readable rendering of the cluster ``stats`` op response."""
    server = stats.get("server", {})
    cluster = stats.get("cluster", {})
    lines = [
        "cluster: {workers} worker(s) alive / {configured} configured, "
        "{served} served, {errors} errors, {restarts} restart(s)".format(
            workers=server.get("workers", 0),
            configured=server.get("configured_workers", 0),
            served=server.get("served", 0),
            errors=server.get("errors", 0),
            restarts=server.get("restarts", 0),
        )
    ]
    for row in cluster.get("workers", ()):
        if row.get("restarting"):
            lines.append(
                "  worker {worker} (restarting): restarts={restarts}".format(
                    worker=row.get("worker"), restarts=row.get("restarts"),
                )
            )
            continue
        session = row.get("session") or {}
        query_cache = session.get("query_cache") or {}
        hit_rate = query_cache.get("hit_rate")
        lines.append(
            "  worker {worker} (pid {pid}): queue={queue} inflight={inflight} "
            "served={served} restarts={restarts} cache-hit-rate={rate}".format(
                worker=row.get("worker"),
                pid=row.get("pid"),
                queue=row.get("queue_depth"),
                inflight=row.get("inflight"),
                served=row.get("served", row.get("answered")),
                restarts=row.get("restarts"),
                rate="n/a" if hit_rate is None else f"{hit_rate:.2f}",
            )
        )
    shard_map = cluster.get("shard_map") or {}
    if shard_map:
        assignments = ", ".join(
            f"{key}->w{worker}" for key, worker in sorted(shard_map.items())
        )
        lines.append(f"  shards: {assignments}")
    store = cluster.get("store") or {}
    if store:
        lines.append(
            "  store: {entries} artifact(s), {size} bytes at {where}".format(
                entries=store.get("entries"),
                size=store.get("bytes"),
                where=store.get("directory"),
            )
        )
    return "\n".join(lines)
