"""Process-wide metrics: counters, gauges, fixed-bucket histograms.

One :class:`MetricsRegistry` (the module-level :data:`REGISTRY`)
collects everything a process observes. Samples are identified by a
Prometheus-style sample name — ``name{label="value",...}`` with labels
key-sorted — which doubles as the JSON payload key, so cross-worker
aggregation is a key-wise sum over identically-shaped payloads.

Histograms use one fixed exponential bucket ladder
(:data:`DEFAULT_BUCKETS`, seconds): fixed bounds make per-worker
histograms mergeable by summing bucket counts, after which
p50/p95/p99 are re-derived by linear interpolation inside the target
bucket. The overflow bucket reports its lower bound (there is nothing
to interpolate toward).

Exposition is dual: :func:`render_prometheus` emits text format v0
(``# TYPE`` headers, ``_bucket``/``_sum``/``_count`` histogram
series, cumulative ``le`` labels ending at ``+Inf``), and the payload
itself is the JSON form. ``tools/check_prom_format.py`` validates the
text in CI.

Everything here is stdlib-only and thread-safe under one lock; the
hot-path cost of one ``inc``/``observe`` is a dict update.
"""

from __future__ import annotations

import bisect
import threading
from typing import Iterable

#: Histogram bucket upper bounds, in seconds. Fixed across the fleet
#: so worker payloads merge by summing counts.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def sample_name(name: str, labels: dict[str, str]) -> str:
    """``name{k="v",...}`` with labels key-sorted (no braces if none)."""
    if not labels:
        return name
    inner = ",".join(
        f'{key}="{_escape_label(str(value))}"'
        for key, value in sorted(labels.items())
    )
    return f"{name}{{{inner}}}"


def split_sample(sample: str) -> tuple[str, str]:
    """``name{labels}`` -> ``(name, labels)`` (labels without braces,
    empty string when the sample is unlabelled)."""
    if "{" not in sample:
        return sample, ""
    name, _, rest = sample.partition("{")
    return name, rest.rstrip("}")


class _Histogram:
    """Cumulative fixed-bucket histogram with an overflow bucket."""

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1: overflow (> last)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def to_payload(self) -> dict:
        payload = {
            "buckets": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }
        for q, key in ((0.5, "p50"), (0.95, "p95"), (0.99, "p99")):
            payload[key] = histogram_quantile(payload, q)
        return payload


def histogram_quantile(payload: dict, q: float) -> float:
    """Quantile ``q`` of a histogram payload, by linear interpolation
    within the target bucket (0.0 on an empty histogram)."""
    total = payload.get("count", 0)
    if not total:
        return 0.0
    bounds = payload["buckets"]
    target = q * total
    cumulative = 0
    for i, bucket_count in enumerate(payload["counts"]):
        if not bucket_count:
            continue
        lo = bounds[i - 1] if i else 0.0
        if i >= len(bounds):
            return round(bounds[-1], 6)  # overflow: report the ladder top
        cumulative += bucket_count
        if cumulative >= target:
            hi = bounds[i]
            fraction = 1.0 - (cumulative - target) / bucket_count
            return round(lo + (hi - lo) * fraction, 6)
    return round(bounds[-1], 6)


class MetricsRegistry:
    """Thread-safe registry of counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, _Histogram] = {}

    def inc(self, name: str, value: float = 1, **labels: str) -> None:
        key = sample_name(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value

    def set_gauge(self, name: str, value: float, **labels: str) -> None:
        key = sample_name(name, labels)
        with self._lock:
            self._gauges[key] = value

    def observe(self, name: str, value: float, **labels: str) -> None:
        key = sample_name(name, labels)
        with self._lock:
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = _Histogram()
            hist.observe(value)

    def to_payload(self) -> dict:
        """JSON-ready snapshot of every sample."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    key: hist.to_payload()
                    for key, hist in self._histograms.items()
                },
            }

    def reset(self) -> None:
        """Forget everything (tests and the overhead harness)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


#: The process-wide registry every instrumentation point writes to.
REGISTRY = MetricsRegistry()


# --- aggregation ----------------------------------------------------------
def merge_payloads(payloads: Iterable[dict]) -> dict:
    """Sum payloads sample-wise (cross-worker aggregation).

    Counters, gauges, and histogram bucket counts/sums add; histogram
    percentiles are re-derived from the merged buckets. Histograms
    with mismatched bucket ladders (a version skew that cannot happen
    within one fleet) keep the first ladder and fold in sum/count only.
    """
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    histograms: dict[str, dict] = {}
    for payload in payloads:
        if not isinstance(payload, dict):
            continue
        for key, value in (payload.get("counters") or {}).items():
            counters[key] = counters.get(key, 0) + value
        for key, value in (payload.get("gauges") or {}).items():
            gauges[key] = gauges.get(key, 0) + value
        for key, hist in (payload.get("histograms") or {}).items():
            merged = histograms.get(key)
            if merged is None:
                histograms[key] = {
                    "buckets": list(hist["buckets"]),
                    "counts": list(hist["counts"]),
                    "sum": hist["sum"],
                    "count": hist["count"],
                }
                continue
            if merged["buckets"] == list(hist["buckets"]):
                merged["counts"] = [
                    a + b for a, b in zip(merged["counts"], hist["counts"])
                ]
            merged["sum"] += hist["sum"]
            merged["count"] += hist["count"]
    for hist in histograms.values():
        for q, key in ((0.5, "p50"), (0.95, "p95"), (0.99, "p99")):
            hist[key] = histogram_quantile(hist, q)
    return {"counters": counters, "gauges": gauges, "histograms": histograms}


def merge_counters(payload: dict, counters: dict[str, float]) -> dict:
    """Fold extra counter samples into ``payload`` (in place)."""
    bucket = payload.setdefault("counters", {})
    for key, value in counters.items():
        bucket[key] = bucket.get(key, 0) + value
    return payload


def query_engine_counters(session_stats: dict) -> dict[str, float]:
    """Counter samples derived from a ``Session.stats()`` payload.

    Sampled at scrape time from the engine's own ``QueryStats``, so the
    ``metrics`` op's per-query-kind hit/miss counts match
    ``Session.stats()`` exactly — by construction, not by parallel
    bookkeeping.
    """
    query_stats = session_stats.get("query_stats") or {}
    counters: dict[str, float] = {}
    for total in ("lookups", "hits", "misses", "computes", "restored",
                  "evictions"):
        counters[f"repro_query_{total}_total"] = query_stats.get(total, 0)
    for stat, by_kind_key in (
        ("hits", "by_query_hits"),
        ("misses", "by_query_misses"),
        ("computes", "by_query"),
        ("evictions", "by_query_evictions"),
    ):
        for kind, value in (query_stats.get(by_kind_key) or {}).items():
            counters[
                sample_name(f"repro_query_{stat}_total", {"query": kind})
            ] = value
    # The shared query store's effectiveness: restores are disk hits,
    # computes the misses a warmer store would have avoided, and
    # rejections the entries that failed the store's check.
    cache = session_stats.get("query_cache") or {}
    counters["repro_store_hits_total"] = cache.get("restored", 0)
    counters["repro_store_misses_total"] = cache.get("computes", 0)
    counters["repro_store_rejected_total"] = cache.get("rejected", 0)
    return counters


# --- Prometheus text exposition (format v0) -------------------------------
def render_prometheus(payload: dict) -> str:
    """Text format v0 for a metrics payload (own or merged)."""
    families: dict[str, list[str]] = {}
    types: dict[str, str] = {}

    def family(name: str, metric_type: str) -> list[str]:
        if name not in families:
            families[name] = []
            types[name] = metric_type
        return families[name]

    for sample, value in sorted((payload.get("counters") or {}).items()):
        name, _labels = split_sample(sample)
        family(name, "counter").append(f"{sample} {_format_value(value)}")
    for sample, value in sorted((payload.get("gauges") or {}).items()):
        name, _labels = split_sample(sample)
        family(name, "gauge").append(f"{sample} {_format_value(value)}")
    for sample, hist in sorted((payload.get("histograms") or {}).items()):
        name, labels = split_sample(sample)
        lines = family(name, "histogram")
        cumulative = 0
        for bound, count in zip(hist["buckets"], hist["counts"]):
            cumulative += count
            lines.append(
                f"{name}_bucket{{{_with_le(labels, format(bound, 'g'))}}}"
                f" {cumulative}"
            )
        cumulative += hist["counts"][len(hist["buckets"])]
        lines.append(f"{name}_bucket{{{_with_le(labels, '+Inf')}}} {cumulative}")
        suffix = f"{{{labels}}}" if labels else ""
        lines.append(f"{name}_sum{suffix} {_format_value(hist['sum'])}")
        lines.append(f"{name}_count{suffix} {cumulative}")

    out: list[str] = []
    for name, lines in sorted(families.items()):
        out.append(f"# TYPE {name} {types[name]}")
        out.extend(lines)
    return "\n".join(out) + "\n"


def _with_le(labels: str, le: str) -> str:
    return f'{labels},le="{le}"' if labels else f'le="{le}"'


def _format_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)
