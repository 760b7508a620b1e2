"""The request dispatcher behind ``repro serve``.

A :class:`ServeDispatcher` answers one request line at a time against
one warm :class:`~repro.api.session.Session`, so the query cache stays
hot across requests: re-analyzing an edited program touches only the
changed functions' query subgraph. The wire protocol is JSON lines —
one request per line, one response per line:

* a bare schema-versioned request payload (any ``*-request`` kind from
  :mod:`repro.api.reports`), or an envelope ``{"id": ..., "request":
  {...}}`` when the client wants responses correlated;
* control operations ``{"op": "ping"}``, ``{"op": "stats"}`` and
  ``{"op": "shutdown"}``;
* responses are ``{"ok": true, "id": ..., "report": <payload>}`` with
  the *identical* payload the one-shot CLI would serialize, or
  ``{"ok": false, "id": ..., "error": "..."}``.

Two transports drive the dispatcher, both single-threaded: each
:mod:`repro.cluster` worker process runs one behind its framed link
(``repro serve --workers N``), and :func:`serve_stdio` runs one
in-process for subprocess embedding (``repro serve --stdio``).
"""

from __future__ import annotations

import json
import sys
import time
from typing import IO

import repro
from repro.api.reports import (
    REPORT_KINDS,
    AnalyzeRequest,
    BatchRequest,
    CheckRequest,
    FuzzRequest,
    LintRequest,
    SchemaError,
    SimulateRequest,
)
from repro.api.session import Session
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

#: request kind -> the Session method that answers it.
REQUEST_DISPATCH = {
    AnalyzeRequest.KIND: "analyze",
    CheckRequest.KIND: "check",
    SimulateRequest.KIND: "simulate",
    BatchRequest.KIND: "batch",
    FuzzRequest.KIND: "fuzz",
    LintRequest.KIND: "lint",
}


def encode_response(response: dict) -> str:
    """One wire line (no trailing newline), key-sorted for stability."""
    return json.dumps(response, sort_keys=True)


class ServeDispatcher:
    """Maps one decoded request line to one response dict.

    Stateless apart from served/error counters; like its session, it
    belongs to one thread.
    """

    def __init__(self, session: Session) -> None:
        self.session = session
        self.served = 0
        self.errors = 0

    def _error(self, message: str, req_id=None) -> dict:
        self.errors += 1
        return {"ok": False, "id": req_id, "error": message}

    def handle_line(self, line: str) -> tuple[dict, bool]:
        """Answer one request line; returns ``(response, shutdown)``."""
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            return self._error(f"request line is not valid JSON: {exc}"), False
        if not isinstance(payload, dict):
            return self._error("request line must be a JSON object"), False

        if "op" in payload:
            return self._handle_op(payload)

        req_id = None
        if "request" in payload:
            req_id = payload.get("id")
            payload = payload["request"]
            if not isinstance(payload, dict):
                return self._error("'request' must be a JSON object", req_id), False

        kind = payload.get("kind")
        method = REQUEST_DISPATCH.get(kind)
        if method is None:
            known = ", ".join(sorted(REQUEST_DISPATCH))
            return self._error(
                f"not a servable request kind: {kind!r}; known: {known}", req_id
            ), False
        started = time.perf_counter()
        request_span = obs_trace.span("serve.request", cat="serve", kind=kind)
        with obs_trace.request_scope(), request_span:
            try:
                request = REPORT_KINDS.get(kind).from_payload(payload)
                report = getattr(self.session, method)(request)
            except Exception as exc:  # noqa: BLE001 - daemon boundary: a
                # bad request (e.g. type-confused field values that pass
                # the name-level schema gate) must answer {"ok": false},
                # never kill the worker or the stdio loop.
                request_span.set(ok=False)
                self._observe_request(kind, started, ok=False)
                detail = exc.args[0] if exc.args else exc
                return self._error(f"{type(exc).__name__}: {detail}", req_id), False
        self.served += 1
        self._observe_request(kind, started, ok=True)
        return {"ok": True, "id": req_id, "report": report.to_payload()}, False

    @staticmethod
    def _observe_request(kind: str, started: float, ok: bool) -> None:
        registry = obs_metrics.REGISTRY
        registry.observe(
            "repro_serve_request_seconds", time.perf_counter() - started, kind=kind
        )
        registry.inc(
            "repro_serve_requests_total", kind=kind, ok="true" if ok else "false"
        )

    def metrics_payload(self) -> dict:
        """Registry snapshot with query-engine counters derived from
        :meth:`Session.stats` at scrape time — the derived counts match
        the session's own accounting exactly, by construction."""
        payload = obs_metrics.REGISTRY.to_payload()
        obs_metrics.merge_counters(
            payload, obs_metrics.query_engine_counters(self.session.stats())
        )
        return payload

    def _handle_op(self, payload: dict) -> tuple[dict, bool]:
        op = payload.get("op")
        req_id = payload.get("id")
        if op == "ping":
            return {
                "ok": True, "id": req_id, "pong": True,
                "version": repro.__version__,
            }, False
        if op == "stats":
            counters = {"served": self.served, "errors": self.errors}
            try:
                session_stats = self.session.stats()
            except Exception as exc:  # noqa: BLE001 - same daemon
                # boundary as the request path: never kill the loop.
                detail = exc.args[0] if exc.args else exc
                return self._error(f"{type(exc).__name__}: {detail}", req_id), False
            return {
                "ok": True, "id": req_id,
                "server": counters,
                "session": session_stats,
            }, False
        if op == "metrics":
            try:
                metrics = self.metrics_payload()
            except Exception as exc:  # noqa: BLE001 - same daemon
                # boundary as the request path: never kill the loop.
                detail = exc.args[0] if exc.args else exc
                return self._error(f"{type(exc).__name__}: {detail}", req_id), False
            return {
                "ok": True, "id": req_id,
                "metrics": metrics,
                "text": obs_metrics.render_prometheus(metrics),
                "slow_queries": obs_trace.SLOW_QUERIES.entries(),
            }, False
        if op == "shutdown":
            return {"ok": True, "id": req_id, "bye": True}, True
        return self._error(f"unknown op {op!r}", req_id), False


def serve_stdio(
    session: Session | None = None,
    stdin: IO | None = None,
    stdout: IO[str] | None = None,
) -> int:
    """Serve one client over stdin/stdout (for subprocess embedding).

    Requests are answered in arrival order; the loop ends on EOF or a
    ``shutdown`` op (exit code 0). A request line longer than
    ``ClusterConfig.max_line`` bytes is answered with an error and ends
    the loop (exit code 1), as on the socket transport: the reader
    cannot resynchronize. ``stdin`` may be a binary or a text stream.
    """
    from repro.cluster.frontend import ClusterConfig

    limit = ClusterConfig.max_line
    dispatcher = ServeDispatcher(session if session is not None else Session())
    # Read bytes where the stream has them, so the bound counts bytes.
    inp = stdin if stdin is not None else getattr(sys.stdin, "buffer", sys.stdin)
    out = stdout if stdout is not None else sys.stdout

    def reply(response: dict) -> bool:
        try:
            out.write(encode_response(response) + "\n")
            out.flush()
        except OSError:
            return False
        return True

    while True:
        raw = inp.readline(limit + 1)
        if not raw:
            return 0
        text = raw.decode("utf-8", "replace") if isinstance(raw, bytes) else raw
        if len(raw) > limit and not text.endswith("\n"):
            reply(dispatcher._error(f"request line exceeds {limit} bytes"))
            return 1
        line = text.strip()
        if not line:
            continue
        response, stop = dispatcher.handle_line(line)
        if not reply(response):
            return 1
        if stop:
            return 0
