"""Latency summaries and the result line every workload prints."""

from __future__ import annotations

import statistics


def note(message: str) -> None:
    print(message, flush=True)


def tail_summary(latencies: list[float]) -> dict:
    """The tail: the highest percentile with at least ten samples beyond
    it, i.e. the 11th-largest latency (the largest with ten or fewer)."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = n - 11 if n > 10 else n - 1
    return {
        "tail": ordered[index],
        "tail_pct": 100.0 * (index + 1) / n,
        "beyond": n - index - 1,
        "samples": n,
    }


def end_to_end(setup_s: float, ops_per_s: float, p50_s: float,
               tail_of: list[float], peak_rss_mb: float) -> dict:
    """The end-to-end metrics as ``name -> (value, unit)``; the tail is
    taken over the latencies ``tail_of``, and a note says how."""
    summary = tail_summary(tail_of)
    note(
        f"op_tail_ms is p{summary['tail_pct']:.1f} of {summary['samples']} latencies "
        f"({summary['beyond']} beyond it)"
    )
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_ms": (p50_s * 1000, "ms"),
        "op_tail_ms": (summary["tail"] * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    """The final JSON line: ``metrics`` maps names to (value, unit)."""
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
