"""Query-engine benchmarks: cold vs warm vs one-function-edited.

Measures what the demand-driven engine buys on the 17-program corpus:

* **cold** — first analysis, every fact computed;
* **warm** — re-analysis with nothing changed: pure memo hits, and
  every function's orderings, pruned set and plan reused;
* **edited** — re-analysis after a single-function in-place edit plus
  ``refresh()``: only the edited function's query subgraph recomputes.

Runs two ways: under pytest-benchmark like the other bench modules, or
as a script emitting the machine-readable trajectory artifact::

    PYTHONPATH=src python benchmarks/bench_query.py --out BENCH_query.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.pipeline import PipelineVariant, analyze_program  # noqa: E402
from repro.frontend import compile_source  # noqa: E402
from repro.ir.instructions import Observe  # noqa: E402
from repro.ir.values import Constant  # noqa: E402
from repro.programs import all_programs  # noqa: E402
from repro.query.engine import QueryEngine  # noqa: E402


def _edit_first_function(program) -> str:
    func = next(iter(program.functions.values()))
    func.blocks[0].insert(0, Observe("__bench_edit__", Constant(0)))
    func.finalize()
    return func.name


def run_suite() -> dict:
    """Cold/warm/edited passes over every corpus program."""
    per_program = []
    totals = {
        "cold_s": 0.0, "warm_s": 0.0, "edited_s": 0.0,
        "cold_computes": 0, "warm_computes": 0, "edited_computes": 0,
    }
    for name, entry in sorted(all_programs().items()):
        program = compile_source(entry.source, name)
        engine = QueryEngine(program)

        start = time.perf_counter()
        analyze_program(program, PipelineVariant.CONTROL, context=engine)
        cold_s = time.perf_counter() - start
        cold_computes = engine.stats.computes

        start = time.perf_counter()
        analyze_program(program, PipelineVariant.CONTROL, context=engine)
        warm_s = time.perf_counter() - start
        warm_computes = engine.stats.computes - cold_computes

        edited = _edit_first_function(program)
        engine.refresh()
        before = engine.stats.computes
        start = time.perf_counter()
        analyze_program(program, PipelineVariant.CONTROL, context=engine)
        edited_s = time.perf_counter() - start
        edited_computes = engine.stats.computes - before

        per_program.append({
            "program": name,
            "functions": len(program.functions),
            "edited_function": edited,
            "cold_s": cold_s,
            "warm_s": warm_s,
            "edited_s": edited_s,
            "cold_computes": cold_computes,
            "warm_computes": warm_computes,
            "edited_computes": edited_computes,
        })
        totals["cold_s"] += cold_s
        totals["warm_s"] += warm_s
        totals["edited_s"] += edited_s
        totals["cold_computes"] += cold_computes
        totals["warm_computes"] += warm_computes
        totals["edited_computes"] += edited_computes

    recompute_fraction = (
        totals["edited_computes"] / totals["cold_computes"]
        if totals["cold_computes"]
        else 0.0
    )
    return {
        "corpus_programs": len(per_program),
        "totals": totals,
        "edited_recompute_fraction": recompute_fraction,
        "per_program": per_program,
    }


# --- pytest-benchmark entry points ------------------------------------------


def test_query_cold_vs_warm_vs_edited(benchmark):
    report = benchmark.pedantic(run_suite, rounds=1, iterations=1)
    assert report["edited_recompute_fraction"] < 0.5
    assert report["totals"]["warm_computes"] == 0


# --- script entry point ------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_query.json",
                        help="output artifact path (default BENCH_query.json)")
    args = parser.parse_args(argv)

    report = run_suite()
    Path(args.out).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    totals = report["totals"]
    print(
        f"{report['corpus_programs']} programs: "
        f"cold {totals['cold_s']:.3f}s ({totals['cold_computes']} computes), "
        f"warm {totals['warm_s']:.3f}s ({totals['warm_computes']} computes), "
        f"edited {totals['edited_s']:.3f}s ({totals['edited_computes']} "
        f"computes, {report['edited_recompute_fraction']:.1%} of cold)"
    )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
