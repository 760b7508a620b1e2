"""Lint-pipeline benchmarks: cold vs warm over the whole corpus.

Measures what the query-backed race detector buys a long-lived
session: a cold ``repro lint`` of every corpus program computes the
whole fact/race subgraph; a warm re-lint of the same programs through
the same :class:`~repro.api.Session` must be pure memo hits.

Runs two ways: under pytest-benchmark like the other bench modules, or
as a script emitting the machine-readable trajectory artifact::

    PYTHONPATH=src python benchmarks/bench_lint.py --out BENCH_lint.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import LintRequest, ProgramSpec, Session  # noqa: E402
from repro.programs import all_programs  # noqa: E402


def _lint(session: Session, name: str) -> tuple[float, dict, object]:
    start = time.perf_counter()
    report = session.lint(
        LintRequest(
            program=ProgramSpec.corpus(name), confirm=False, stats=True
        )
    )
    elapsed = time.perf_counter() - start
    stats = report.cache_stats
    return elapsed, {"hits": stats.hits, "misses": stats.misses}, report


def run_suite() -> dict:
    """Cold then warm lint passes over every corpus program."""
    session = Session(parallel=False)
    per_program = []
    totals = {
        "cold_s": 0.0, "warm_s": 0.0,
        "cold_misses": 0, "warm_misses": 0, "warm_hits": 0,
        "findings": 0,
    }
    for name in sorted(all_programs()):
        cold_s, cold, cold_report = _lint(session, name)
        warm_s, warm, warm_report = _lint(session, name)
        assert warm_report.findings == cold_report.findings
        per_program.append({
            "program": name,
            "cold_s": cold_s,
            "warm_s": warm_s,
            "cold_misses": cold["misses"],
            "warm_misses": warm["misses"],
            "warm_hits": warm["hits"],
            "findings": len(cold_report.findings),
            "warnings": cold_report.warnings,
            "errors": cold_report.errors,
        })
        totals["cold_s"] += cold_s
        totals["warm_s"] += warm_s
        totals["cold_misses"] += cold["misses"]
        totals["warm_misses"] += warm["misses"]
        totals["warm_hits"] += warm["hits"]
        totals["findings"] += len(cold_report.findings)

    speedup = (
        totals["cold_s"] / totals["warm_s"] if totals["warm_s"] else 0.0
    )
    return {
        "corpus_programs": len(per_program),
        "totals": totals,
        "warm_speedup": speedup,
        "per_program": per_program,
    }


# --- pytest-benchmark entry point --------------------------------------------


def test_lint_cold_vs_warm(benchmark):
    report = benchmark.pedantic(run_suite, rounds=1, iterations=1)
    totals = report["totals"]
    assert totals["warm_misses"] == 0  # a warm re-lint recomputes nothing
    assert totals["warm_hits"] > 0


# --- script entry point ------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_lint.json",
                        help="output artifact path (default BENCH_lint.json)")
    args = parser.parse_args(argv)

    report = run_suite()
    Path(args.out).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    totals = report["totals"]
    print(
        f"{report['corpus_programs']} programs: "
        f"cold {totals['cold_s']:.3f}s ({totals['cold_misses']} computes), "
        f"warm {totals['warm_s']:.3f}s ({totals['warm_hits']} hits, "
        f"{totals['warm_misses']} computes, {report['warm_speedup']:.0f}x)"
    )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
