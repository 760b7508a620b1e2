"""Fence-synthesis benchmarks: greedy vs optimal lowering cost.

Sweeps every (corpus program, arch backend) cell through both fence
planners — the count-first greedy stab lowered per-fence
(:func:`repro.arch.lowering.lower_analysis`) and the min-cost DP
(:func:`repro.synth.synthesize_analysis`) — and records both cycle
totals. Costs are deterministic (no timing lands in the artifact), so
the committed ``BENCH_synth.json`` doubles as a regression gate: CI
regenerates it (freshness) and replays ``--check`` against the
committed baseline, failing when any cell's optimal cost exceeds its
greedy cost, when no cell improves strictly, or when an optimal cost
regresses over the baseline.

Runs two ways: under pytest-benchmark like the other bench modules, or
as a script emitting the machine-readable artifact::

    PYTHONPATH=src python benchmarks/bench_synth.py --out BENCH_synth.json
    PYTHONPATH=src python benchmarks/bench_synth.py --check BENCH_synth.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.arch import backend_keys, get_backend  # noqa: E402
from repro.arch.lowering import lower_analysis  # noqa: E402
from repro.core.machine_models import MODELS  # noqa: E402
from repro.programs import all_programs  # noqa: E402
from repro.registry.variants import get_variant  # noqa: E402
from repro.synth import synthesize_analysis  # noqa: E402

#: Detection variant the sweep analyzes under — the paper's headline
#: configuration, matching the lint and batch defaults.
VARIANT = "address+control"


def _synth_cell(name: str, arch_key: str) -> dict:
    backend = get_backend(arch_key)
    model = MODELS[backend.model_key]
    analysis = get_variant(VARIANT).analyze(
        all_programs()[name].compile(), model
    )
    _, greedy = lower_analysis(analysis, backend)
    _, optimal = synthesize_analysis(analysis, backend)
    return {
        "program": name,
        "arch": arch_key,
        "greedy_cost": greedy.cost,
        "optimal_cost": optimal.cost,
        "saved": greedy.cost - optimal.cost,
    }


def run_suite() -> dict:
    entries = [
        _synth_cell(name, arch_key)
        for name in sorted(all_programs())
        for arch_key in sorted(backend_keys())
    ]
    arches = {}
    for arch_key in sorted(backend_keys()):
        cells = [e for e in entries if e["arch"] == arch_key]
        arches[arch_key] = {
            "greedy_cost": sum(e["greedy_cost"] for e in cells),
            "optimal_cost": sum(e["optimal_cost"] for e in cells),
            "strict_cells": sum(1 for e in cells if e["saved"] > 0),
        }
    return {
        "schema": 1,
        "variant": VARIANT,
        "arches": arches,
        "entries": entries,
    }


def verify(report: dict) -> list[str]:
    """Internal consistency of one suite run: the hard optimality gate."""
    problems = []
    for e in report["entries"]:
        if e["optimal_cost"] > e["greedy_cost"]:
            problems.append(
                f"{e['program']}/{e['arch']}: optimal cost "
                f"{e['optimal_cost']} exceeds greedy {e['greedy_cost']} "
                "(optimizer is not optimal)"
            )
    if not any(e["saved"] > 0 for e in report["entries"]):
        problems.append(
            "no cell improves strictly over greedy — the synthesizer "
            "is buying nothing on the whole corpus"
        )
    return problems


def check_against(baseline: dict, current: dict) -> list[str]:
    """Compare a fresh run against the committed artifact."""
    problems = verify(current)
    recorded = {
        (e["program"], e["arch"]): e for e in baseline.get("entries", [])
    }
    for e in current["entries"]:
        old = recorded.get((e["program"], e["arch"]))
        if old is None:
            continue  # new cell: no baseline to regress from
        if e["optimal_cost"] > old["optimal_cost"]:
            problems.append(
                f"{e['program']}/{e['arch']}: optimal cost "
                f"{e['optimal_cost']} regressed over committed baseline "
                f"{old['optimal_cost']}"
            )
    return problems


# --- pytest-benchmark entry point --------------------------------------------


def test_synth_costs(benchmark):
    report = benchmark.pedantic(run_suite, rounds=1, iterations=1)
    assert verify(report) == []


# --- script entry point ------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default=None,
        help="write the artifact here (e.g. BENCH_synth.json)",
    )
    parser.add_argument(
        "--check", default=None, metavar="BASELINE",
        help="re-run the sweep and fail when any cell's optimal cost "
        "exceeds greedy, no cell improves strictly, or an optimal "
        "cost regressed against BASELINE",
    )
    args = parser.parse_args(argv)

    start = time.perf_counter()
    report = run_suite()
    elapsed = time.perf_counter() - start
    for e in report["entries"]:
        flag = f"  saved {e['saved']}" if e["saved"] else ""
        print(
            f"{e['program']:16s} {e['arch']:6s} "
            f"greedy {e['greedy_cost']:6d}  optimal "
            f"{e['optimal_cost']:6d}{flag}"
        )
    for arch_key, totals in report["arches"].items():
        print(
            f"total {arch_key:6s} greedy {totals['greedy_cost']:6d} -> "
            f"optimal {totals['optimal_cost']:6d} "
            f"({totals['strict_cells']} strict cells)"
        )
    print(f"solved {len(report['entries'])} cells in {elapsed:.2f}s")

    if args.check is not None:
        baseline = json.loads(Path(args.check).read_text(encoding="utf-8"))
        problems = check_against(baseline, report)
        if problems:
            for p in problems:
                print(f"FAIL: {p}", file=sys.stderr)
            return 1
        print(f"check OK against {args.check}")

    if args.out is not None:
        problems = verify(report)
        if problems:
            for p in problems:
                print(f"FAIL: {p}", file=sys.stderr)
            return 1
        Path(args.out).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
