"""``repro obs top`` / ``repro obs metrics``: live views over the wire.

Both commands speak ``repro serve``'s JSON-lines protocol — one
``{"op": "metrics"}`` (and, for ``top``, one ``{"op": "stats"}``) per
refresh — and the cluster frontend answers with cross-worker-aggregated
metrics plus per-worker rows.

``top`` renders a per-op latency table (count, error count, p50/p95/
p99 from the fixed-bucket histograms) and, against a cluster, a
per-worker table (queue depth, in-flight, served, restarts), then the
tail of the slow-query log. ``--once`` renders a single frame (tests,
scripting); otherwise it refreshes every ``--interval`` seconds until
interrupted.
"""

from __future__ import annotations

import json
import re
import socket
import sys
import time

from repro.obs.metrics import render_prometheus, split_sample
from repro.util.text import format_table

_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def _labels_of(sample: str) -> dict[str, str]:
    _, raw = split_sample(sample)
    return {m.group(1): m.group(2) for m in _LABEL.finditer(raw)}


def fetch_ops(host: str, port: int, ops: list[dict],
              timeout: float = 10.0) -> list[dict]:
    """Send JSON-lines ops over one connection; one response per op."""
    responses: list[dict] = []
    with socket.create_connection((host, port), timeout=timeout) as sock:
        reader = sock.makefile("r", encoding="utf-8")
        writer = sock.makefile("w", encoding="utf-8")
        for op in ops:
            writer.write(json.dumps(op) + "\n")
            writer.flush()
            line = reader.readline()
            if not line:
                raise ConnectionError("server closed the connection")
            responses.append(json.loads(line))
    return responses


def _ms(seconds: float) -> str:
    return f"{seconds * 1000:.1f}"


def render_ops_table(metrics_payload: dict) -> str | None:
    """Per-op latency table from the request-latency histograms.

    A cluster's merged payload carries *two* views of every request —
    the frontend's ``repro_cluster_*`` (client-perceived, includes
    queueing) and the workers' ``repro_serve_*`` (dispatch only) — so
    prefer the client-facing family and only fall back to the serve
    family for a payload without it (one dispatcher's own registry).
    """
    histograms = metrics_payload.get("histograms") or {}
    counters = metrics_payload.get("counters") or {}
    layer = "cluster" if any(
        split_sample(s)[0] == "repro_cluster_request_seconds" for s in histograms
    ) else "serve"
    errors: dict[str, float] = {}
    for sample, value in counters.items():
        name, _ = split_sample(sample)
        if name == f"repro_{layer}_requests_total":
            labels = _labels_of(sample)
            if labels.get("ok") == "false":
                kind = labels.get("kind", "?")
                errors[kind] = errors.get(kind, 0) + value
    rows = []
    for sample, hist in sorted(histograms.items()):
        name, _ = split_sample(sample)
        if name != f"repro_{layer}_request_seconds":
            continue
        kind = _labels_of(sample).get("kind", "?")
        rows.append([
            kind,
            hist.get("count", 0),
            int(errors.get(kind, 0)),
            _ms(hist.get("p50", 0.0)),
            _ms(hist.get("p95", 0.0)),
            _ms(hist.get("p99", 0.0)),
        ])
    if not rows:
        return None
    return format_table(
        ["op", "count", "errors", "p50 ms", "p95 ms", "p99 ms"],
        rows,
        title="request latency by op",
    )


def render_workers_table(stats: dict) -> str | None:
    """Per-worker table from a cluster ``stats`` op response."""
    workers = (stats.get("cluster") or {}).get("workers") or ()
    if not workers:
        return None
    rows = []
    for row in workers:
        session = row.get("session") or {}
        query_cache = session.get("query_cache") or {}
        hit_rate = query_cache.get("hit_rate")
        rows.append([
            row.get("worker"),
            "(restarting)" if row.get("restarting") else row.get("pid"),
            row.get("queue_depth"),
            row.get("inflight"),
            row.get("served", row.get("answered")),
            row.get("restarts"),
            "n/a" if hit_rate is None else f"{hit_rate:.2f}",
        ])
    return format_table(
        ["worker", "pid", "queue", "inflight", "served", "restarts",
         "store-hit"],
        rows,
        title="workers",
    )


def render_slow_queries(slow: list[dict], limit: int = 8) -> str | None:
    if not slow:
        return None
    rows = [
        [e.get("query"), e.get("key"), e.get("fingerprint") or "-",
         f"{e.get('seconds', 0):.3f}"]
        for e in slow[-limit:]
    ]
    return format_table(
        ["query", "key", "fingerprint", "seconds"],
        rows,
        title=f"slow queries (last {len(rows)})",
    )


def render_frame(metrics_response: dict, stats_response: dict | None) -> str:
    """One full ``top`` frame from the two op responses."""
    payload = metrics_response.get("metrics") or {}
    parts = [render_ops_table(payload)]
    if stats_response is not None:
        parts.append(render_workers_table(stats_response))
    parts.append(render_slow_queries(metrics_response.get("slow_queries") or []))
    rendered = [p for p in parts if p]
    if not rendered:
        return "(no samples yet — send the server some requests)"
    return "\n\n".join(rendered)


def run_top(host: str, port: int, interval: float = 2.0,
            once: bool = False, out=None) -> int:
    """The ``repro obs top`` loop; returns a process exit code."""
    stream = out if out is not None else sys.stdout
    while True:
        try:
            metrics_response, stats_response = fetch_ops(
                host, port, [{"op": "metrics"}, {"op": "stats"}]
            )
        except (OSError, ValueError) as exc:
            print(f"cannot reach {host}:{port}: {exc}", file=sys.stderr)
            return 2
        if not metrics_response.get("ok"):
            print(
                f"metrics op failed: {metrics_response.get('error')}",
                file=sys.stderr,
            )
            return 2
        frame = render_frame(metrics_response, stats_response)
        if not once and stream.isatty():  # pragma: no cover - interactive
            stream.write("\x1b[2J\x1b[H")
        stream.write(frame + "\n")
        stream.flush()
        if once:
            return 0
        try:
            time.sleep(interval)  # pragma: no cover - interactive loop
        except KeyboardInterrupt:  # pragma: no cover
            return 0


def run_metrics(host: str, port: int, as_json: bool = False,
                out=None) -> int:
    """``repro obs metrics``: dump one exposition (text or JSON)."""
    stream = out if out is not None else sys.stdout
    try:
        (response,) = fetch_ops(host, port, [{"op": "metrics"}])
    except (OSError, ValueError) as exc:
        print(f"cannot reach {host}:{port}: {exc}", file=sys.stderr)
        return 2
    if not response.get("ok"):
        print(f"metrics op failed: {response.get('error')}", file=sys.stderr)
        return 2
    if as_json:
        stream.write(
            json.dumps(response.get("metrics"), indent=2, sort_keys=True) + "\n"
        )
    else:
        text = response.get("text")
        if text is None:
            text = render_prometheus(response.get("metrics") or {})
        stream.write(text)
    stream.flush()
    return 0
