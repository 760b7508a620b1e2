"""The request dispatcher behind ``repro serve``, and its wire decoder.

A :class:`ServeDispatcher` answers requests against one warm
:class:`~repro.api.session.Session`, so the query cache stays hot
across requests: re-analyzing an edited program touches only the
changed functions' query subgraph. The wire protocol is JSON lines —
one request per line, one response per line:

* a bare schema-versioned request payload (any ``*-request`` kind from
  :mod:`repro.api.reports`), or an envelope ``{"id": ..., "request":
  {...}}`` when the client wants responses correlated;
* control operations ``{"op": "ping"}``, ``{"op": "stats"}``,
  ``{"op": "metrics"}`` and ``{"op": "shutdown"}``, recognized only at
  the top level of a line (inside ``request`` an op is just a payload
  without a servable kind);
* responses are ``{"ok": true, "id": ..., "report": <payload>}`` with
  the *identical* payload the one-shot CLI would serialize, or
  ``{"ok": false, "id": ..., "error": "..."}``.

:func:`decode_line` is the one decoder of a client line, used by both
transports: :func:`serve_stdio` runs a dispatcher in-process for
subprocess embedding (``repro serve --stdio``) and feeds it whole lines
(:meth:`ServeDispatcher.handle_line`); the :mod:`repro.cluster`
frontend (``repro serve --workers N``) decodes each line itself,
answers ops from fleet-wide state and forwards the request dict to a
worker process, whose dispatcher answers it with
:meth:`ServeDispatcher.answer` — no re-encoding on the way. Both are
single-threaded per dispatcher.
"""

from __future__ import annotations

import json
import sys
import time
from typing import IO, Any, NamedTuple

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


class WireError(ValueError):
    """A client line that is not a request; ``req_id`` is the envelope's
    ``id`` when the line got that far."""

    def __init__(self, message: str, req_id: Any = None) -> None:
        super().__init__(message)
        self.req_id = req_id


class ClientLine(NamedTuple):
    """One decoded client line: a control op (``payload`` is the whole
    line object) or a request (``payload`` is the request object)."""

    payload: dict
    req_id: Any = None
    op: bool = False


def decode_line(line: str) -> ClientLine:
    """Decode one client line; raises :class:`WireError` for a line
    that is not valid JSON, not an object, or whose ``request`` is not
    an object."""
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise WireError(f"request line is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise WireError("request line must be a JSON object")
    if "op" in payload:
        return ClientLine(payload, payload.get("id"), op=True)
    if "request" not in payload:
        return ClientLine(payload)
    req_id = payload.get("id")
    request = payload["request"]
    if not isinstance(request, dict):
        raise WireError("'request' must be a JSON object", req_id)
    return ClientLine(request, req_id)


def _describe_exception(exc: Exception) -> str:
    """The error a daemon answers for an exception it caught: a bad
    request (e.g. type-confused field values that pass the name-level
    schema gate) answers ``{"ok": false}``, never kills the loop."""
    detail = exc.args[0] if exc.args else exc
    return f"{type(exc).__name__}: {detail}"


class ServeDispatcher:
    """Answers decoded requests and ops with response dicts.

    Stateless apart from served/error counters; like its session, it
    belongs to one thread.
    """

    def __init__(self, session: Session) -> None:
        self.session = session
        self.served = 0
        self.errors = 0

    def _error(self, message: str, req_id: Any = None) -> dict:
        self.errors += 1
        return {"ok": False, "id": req_id, "error": message}

    def handle_line(self, line: str) -> tuple[dict, bool]:
        """Answer one request line; returns ``(response, shutdown)``."""
        try:
            decoded = decode_line(line)
        except WireError as exc:
            return self._error(str(exc), exc.req_id), False
        if decoded.op:
            return self.handle_op(decoded.payload)
        return self.answer(decoded.payload, decoded.req_id), False

    def answer(self, payload: dict, req_id: Any = None) -> dict:
        """Answer one request payload (no op detection: an op here is a
        payload without a servable kind)."""
        kind = payload.get("kind")
        method = REQUEST_DISPATCH.get(kind)
        if method is None:
            known = ", ".join(sorted(REQUEST_DISPATCH))
            return self._error(
                f"not a servable request kind: {kind!r}; known: {known}", req_id
            )
        started = time.perf_counter()
        request_span = obs_trace.span("serve.request", cat="serve", kind=kind)
        with obs_trace.request_scope(), request_span:
            try:
                request = REPORT_KINDS.get(kind).from_payload(payload)
                report = getattr(self.session, method)(request)
            except Exception as exc:  # noqa: BLE001 - daemon boundary
                request_span.set(ok=False)
                self._observe_request(kind, started, ok=False)
                return self._error(_describe_exception(exc), req_id)
        self.served += 1
        self._observe_request(kind, started, ok=True)
        return {"ok": True, "id": req_id, "report": report.to_payload()}

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

    def handle_op(self, payload: dict) -> tuple[dict, bool]:
        """Answer one control op; returns ``(response, shutdown)``."""
        op = payload.get("op")
        req_id = payload.get("id")
        if op == "ping":
            return {
                "ok": True, "id": req_id, "pong": True,
                "version": repro.__version__,
            }, False
        if op == "shutdown":
            return {"ok": True, "id": req_id, "bye": True}, True
        if op not in ("stats", "metrics"):
            return self._error(f"unknown op {op!r}", req_id), False
        try:
            if op == "stats":
                response = {
                    "server": {"served": self.served, "errors": self.errors},
                    "session": self.session.stats(),
                }
            else:
                metrics = self.metrics_payload()
                response = {
                    "metrics": metrics,
                    "text": obs_metrics.render_prometheus(metrics),
                    "slow_queries": obs_trace.SLOW_QUERIES.entries(),
                }
        except Exception as exc:  # noqa: BLE001 - daemon boundary
            return self._error(_describe_exception(exc), req_id), False
        return {"ok": True, "id": req_id, **response}, False


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
