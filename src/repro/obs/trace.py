"""Span-based tracing with Chrome ``trace_event`` export.

One module-level :class:`Tracer` (installed by :func:`enable`) buffers
*complete* events: every ``with span(...)`` that finishes while
tracing is on appends one ``ph: "X"`` record with wall-clock ``ts``
and monotonic-measured ``dur`` (both in microseconds, the trace_event
convention). Nesting falls out of the format: Chrome's viewer stacks
events whose ``ts``/``dur`` ranges contain each other on the same
``pid``/``tid`` row, so spans opened inside the query engine's
dependency frames nest without any explicit parent ids.

Disabled — the default — the whole layer is a deterministic no-op:
:func:`span` reads one module global and returns one shared singleton
context manager whose enter/exit do nothing. No allocation, no
timestamp, no lock. ``tools/check_obs_overhead.py`` holds this path to
<2% of a cold ``bench_query`` run.

A **trace id** rides a :class:`contextvars.ContextVar`, so it scopes
correctly per task on the asyncio cluster frontend and per request in
a worker's single-threaded loop. The frontend stamps the id into the worker request frame; the worker sets
it around dispatch and ships its buffered spans back in the response
frame, so one client request yields a single coherent flame across
processes.

The :data:`SLOW_QUERIES` log is tracing-independent: the query engine
always times misses, and any evaluation at or over the configured
threshold is recorded (query name, key, fingerprint, seconds) and
logged via :mod:`logging` — visible even when no tracer is installed.
"""

from __future__ import annotations

import contextvars
import json
import logging
import os
import secrets
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any

_log = logging.getLogger("repro.obs")

#: Installed tracer, or ``None`` (the no-op fast path checks only this).
_tracer: "Tracer | None" = None

_trace_id: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "repro_trace_id", default=None
)


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace id."""
    return secrets.token_hex(8)


def current_trace_id() -> str | None:
    """The trace id bound to the current thread/task context."""
    return _trace_id.get()


class Tracer:
    """Thread-safe bounded buffer of completed trace events."""

    def __init__(self, buffer: int = 65536) -> None:
        self._lock = threading.Lock()
        self._events: deque[dict] = deque(maxlen=buffer)
        #: Total spans *started* against this tracer, never decremented
        #: (unlike the bounded buffer) — the overhead tool uses it to
        #: count how many ``span()`` calls a workload makes.
        self.started = 0

    def record(self, event: dict) -> None:
        with self._lock:
            self._events.append(event)

    def ingest(self, events: list[dict]) -> None:
        """Adopt pre-built events (a worker's spans shipped over the
        link) preserving their original pid/tid/ts."""
        with self._lock:
            self._events.extend(e for e in events if isinstance(e, dict))

    def events(self) -> list[dict]:
        with self._lock:
            return list(self._events)

    def drain(self) -> list[dict]:
        """Pop and return everything buffered so far."""
        with self._lock:
            events = list(self._events)
            self._events.clear()
            return events

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


class _NoopSpan:
    """The shared do-nothing span (tracing disabled)."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **args: Any) -> None:
        """Discard late-bound span args."""


#: Singleton returned by :func:`span` whenever tracing is off.
NOOP_SPAN = _NoopSpan()


class _Span:
    """One live span; records a complete ("X") event on exit."""

    __slots__ = ("_tracer", "name", "cat", "args", "_wall_us", "_t0")

    def __init__(self, tracer: Tracer, name: str, cat: str, args: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args

    def set(self, **args: Any) -> None:
        """Attach args discovered after the span opened."""
        self.args.update(args)

    def __enter__(self) -> "_Span":
        self._tracer.started += 1
        self._wall_us = time.time_ns() // 1000
        self._t0 = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        dur_us = (time.perf_counter_ns() - self._t0) // 1000
        args = self.args
        trace_id = _trace_id.get()
        if trace_id is not None:
            args = dict(args)
            args["trace"] = trace_id
        if exc_type is not None:
            args = dict(args)
            args["error"] = exc_type.__name__
        self._tracer.record(
            {
                "name": self.name,
                "cat": self.cat,
                "ph": "X",
                "ts": self._wall_us,
                "dur": dur_us,
                "pid": os.getpid(),
                "tid": threading.get_native_id(),
                "args": args,
            }
        )
        return False


def span(name: str, cat: str = "repro", **args: Any):
    """A context manager timing one named span.

    With tracing disabled this returns :data:`NOOP_SPAN` after a single
    global read — the deterministic fast path.
    """
    tracer = _tracer
    if tracer is None:
        return NOOP_SPAN
    return _Span(tracer, name, cat, args)


def enabled() -> bool:
    return _tracer is not None


def active() -> Tracer | None:
    return _tracer


def enable(buffer: int = 65536) -> Tracer:
    """Install (or return the already-installed) module tracer."""
    global _tracer
    if _tracer is None:
        _tracer = Tracer(buffer)
    return _tracer


def disable() -> Tracer | None:
    """Uninstall the tracer; returns it so callers can still export."""
    global _tracer
    tracer = _tracer
    _tracer = None
    return tracer


# --- request scoping ------------------------------------------------------
class _RequestScope:
    """Binds a trace id for the extent of one request."""

    __slots__ = ("id", "_token")

    def __init__(self, trace_id: str | None) -> None:
        self.id = trace_id

    def __enter__(self) -> str | None:
        self._token = _trace_id.set(self.id)
        return self.id

    def __exit__(self, *exc) -> bool:
        _trace_id.reset(self._token)
        return False


class _NoopScope:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NOOP_SCOPE = _NoopScope()


def request_scope(trace_id: str | None = None):
    """Scope a trace id over one request's dispatch.

    * tracing off → a no-op scope yielding ``None``;
    * ``trace_id`` given (a propagated id from the wire) → bind it;
    * otherwise → keep the already-bound id, or mint a fresh one.
    """
    if _tracer is None:
        return _NOOP_SCOPE
    if trace_id is None:
        trace_id = _trace_id.get() or new_trace_id()
    return _RequestScope(trace_id)


# --- Chrome trace_event export --------------------------------------------
def chrome_trace(events: list[dict]) -> dict:
    """The Chrome ``trace_event`` JSON object for ``events``."""
    return {
        "traceEvents": sorted(events, key=lambda e: e.get("ts", 0)),
        "displayTimeUnit": "ms",
    }


def export_chrome(path: str | Path, events: list[dict]) -> None:
    """Write ``events`` as a ``chrome://tracing`` / Perfetto file."""
    Path(path).write_text(
        json.dumps(chrome_trace(events), sort_keys=True), encoding="utf-8"
    )


# --- slow-query log -------------------------------------------------------
class SlowQueryLog:
    """Bounded record of query evaluations over a configured threshold.

    ``threshold`` is seconds (``None`` disables, the default). The
    query engine calls :meth:`note` with every miss's elapsed time;
    entries name the query, its key, the input fingerprint (when the
    engine knows one), and the duration.
    """

    def __init__(self, threshold: float | None = None, capacity: int = 256) -> None:
        self.threshold = threshold
        self._lock = threading.Lock()
        self._entries: deque[dict] = deque(maxlen=capacity)

    def note(
        self,
        query: str,
        key: str,
        fingerprint: str | None,
        seconds: float,
    ) -> None:
        entry = {
            "query": query,
            "key": key,
            "fingerprint": fingerprint,
            "seconds": round(seconds, 6),
        }
        with self._lock:
            self._entries.append(entry)
        _log.warning(
            "slow query %s(%s) took %.3fs (fingerprint %s)",
            query, key, seconds, fingerprint or "-",
        )

    def entries(self) -> list[dict]:
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


#: The process-wide slow-query log; ``repro serve --slow-query`` and
#: the cluster config set its threshold.
SLOW_QUERIES = SlowQueryLog()
