"""One analysis worker: a process owning one warm, single-threaded Session.

A worker dials the frontend's internal listener, introduces itself
with a ``hello`` frame (worker id + shared-secret token + pid), then
serves framed requests strictly in order — the frontend relies on
FIFO response matching, and a single-threaded loop per process is the
whole point: the GIL stops costing anything once every worker has its
own interpreter.

The frontend decodes each client line with
:func:`~repro.serve.server.decode_line` and ships the request object
as a ``req`` frame's ``payload``; the worker hands that dict straight
to :meth:`ServeDispatcher.answer
<repro.serve.server.ServeDispatcher.answer>`, the request path
``repro serve --stdio`` drives too — so cluster-path reports are
byte-identical to one-shot CLI reports by construction, not by
re-implementation. ``op`` frames (``ping``, ``stats``, ``metrics``)
are answered by the same dispatcher's op code, with the worker's id
and pid added; a worker refuses ``shutdown``, since EOF on its link is
its one shutdown signal.

Every worker's session config names the same ``query_cache_dir``
(the frontend resolves it, to a temporary directory it owns when none
is configured), so query results any worker persisted warm-start every
other worker: a freshly restarted process, or a sibling that inherited
a shard after a rebalance, restores facts instead of recomputing them.
The hash ring makes each program single-writer in steady state, and
the :class:`~repro.util.store.BlobStore` publishes entries atomically
and checks each one it reads, so the multi-writer windows around
resharding are harmless.

``run_worker`` is transport-agnostic (any connected socket), so tests
drive a worker in-process over a socketpair; ``worker_main`` is the
thin subprocess entry around it.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal
import socket
from typing import Any

from repro.cluster.protocol import (
    MAX_FRAME,
    FrameDecodeError,
    ProtocolError,
    recv_frame,
    send_frame,
)
from repro.obs import trace as obs_trace

#: Fork keeps worker start-up at milliseconds on POSIX; spawn is the
#: portable fallback (every ``worker_main`` argument is picklable).
START_METHOD = (
    "fork"
    if "fork" in multiprocessing.get_all_start_methods()
    else "spawn"
)


def _error_response(message: str) -> dict:
    return {"ok": False, "id": None, "error": message}


class WorkerLoop:
    """The framed request loop around one dispatcher."""

    def __init__(
        self,
        worker_id: int,
        session_config: dict[str, Any] | None = None,
        max_frame: int = MAX_FRAME,
        trace_enabled: bool = False,
        slow_query: float | None = None,
    ) -> None:
        from repro.api.session import Session
        from repro.serve.server import ServeDispatcher

        self.worker_id = worker_id
        self.max_frame = max_frame
        if trace_enabled:
            obs_trace.enable()
        if slow_query is not None:
            obs_trace.SLOW_QUERIES.threshold = slow_query
        self.dispatcher = ServeDispatcher(Session(**(session_config or {})))
        # Session construction may have buffered spans; drop them so the
        # first request's response frame ships only its own spans.
        tracer = obs_trace.active()
        if tracer is not None:
            tracer.drain()

    def handle_frame(self, frame: dict) -> dict:
        """Answer one decoded frame with one response frame."""
        kind = frame.get("t")
        if kind == "op":
            return {"t": "res", "payload": self._answer_op(frame)}
        if kind == "req":
            payload = frame.get("payload")
            trace_id = frame.get("trace")
            scope = obs_trace.request_scope(
                trace_id if isinstance(trace_id, str) else None
            )
            with scope, obs_trace.span(
                "worker.dispatch", cat="worker", worker=self.worker_id
            ):
                if not isinstance(payload, dict):
                    response = _error_response("'payload' must be a JSON object")
                else:
                    response = self.dispatcher.answer(payload)
            out = {"t": "res", "payload": response}
            tracer = obs_trace.active()
            if tracer is not None:
                # The loop is single-threaded, so everything buffered
                # since the last drain belongs to this request.
                out["spans"] = tracer.drain()
            return out
        return {
            "t": "res",
            "payload": _error_response(f"unknown frame type {kind!r}"),
        }

    def _answer_op(self, frame: dict) -> dict:
        if frame.get("op") == "shutdown":
            return _error_response("a worker shuts down only when its link closes")
        response, _stop = self.dispatcher.handle_op(frame)
        if response["ok"]:
            response.update(worker=self.worker_id, pid=os.getpid())
        return response

    def serve(self, sock: socket.socket) -> int:
        """Serve frames until EOF (the frontend closing the link is the
        graceful-shutdown signal) or an unrecoverable framing error."""
        while True:
            try:
                frame = recv_frame(sock, self.max_frame)
            except FrameDecodeError as exc:
                # The stream is still in sync: answer and keep serving.
                send_frame(
                    sock,
                    {"t": "res", "payload": _error_response(str(exc))},
                    self.max_frame,
                )
                continue
            except ProtocolError:
                return 1  # framing broke; no way to resynchronize
            if frame is None:
                return 0
            try:
                send_frame(sock, self.handle_frame(frame), self.max_frame)
            except (ConnectionError, OSError):
                return 0  # frontend went away mid-response


def run_worker(
    sock: socket.socket,
    worker_id: int,
    session_config: dict[str, Any] | None = None,
    max_frame: int = MAX_FRAME,
    trace_enabled: bool = False,
    slow_query: float | None = None,
) -> int:
    """Build a session and serve one connected frontend link."""
    loop = WorkerLoop(
        worker_id,
        session_config,
        max_frame,
        trace_enabled=trace_enabled,
        slow_query=slow_query,
    )
    return loop.serve(sock)


def worker_main(
    worker_id: int,
    host: str,
    port: int,
    token: str,
    session_config: dict[str, Any] | None,
    trace_enabled: bool = False,
    slow_query: float | None = None,
) -> int:  # pragma: no cover - subprocess entry (loop covered in-process)
    # The frontend owns signal-driven shutdown: it drains and then
    # closes the link (EOF) or, past the deadline, terminates us.
    # Reacting to a fleet-wide SIGINT/SIGTERM here would kill workers
    # mid-request before the frontend's drain finishes.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    sock = socket.create_connection((host, port), timeout=30)
    sock.settimeout(None)
    send_frame(
        sock,
        {"t": "hello", "worker": worker_id, "token": token, "pid": os.getpid()},
    )
    try:
        return run_worker(
            sock,
            worker_id,
            session_config,
            trace_enabled=trace_enabled,
            slow_query=slow_query,
        )
    finally:
        with contextlib.suppress(OSError):
            sock.close()


def spawn_worker(
    worker_id: int,
    host: str,
    port: int,
    token: str,
    session_config: dict[str, Any] | None,
    trace_enabled: bool = False,
    slow_query: float | None = None,
) -> multiprocessing.process.BaseProcess:
    """Start one worker process dialing back to the frontend."""
    ctx = multiprocessing.get_context(START_METHOD)
    process = ctx.Process(
        target=worker_main,
        args=(
            worker_id, host, port, token, session_config,
            trace_enabled, slow_query,
        ),
        name=f"repro-cluster-worker-{worker_id}",
        daemon=True,  # never outlive a crashed frontend
    )
    process.start()
    return process
