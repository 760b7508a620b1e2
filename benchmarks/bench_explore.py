"""Exploration-core benchmarks: exhaustive vs reduced state counts.

Measures what the shared DPOR core (:mod:`repro.memmodel.explore`)
buys on the litmus corpus: every entry explores one program on one
model twice — once exhaustively (reduction and canonical hashing off)
and once through the default reduced path — and records both state
counts plus an outcome-agreement verdict. State counts are
deterministic (no timing lands in the artifact), so the committed
``BENCH_explore.json`` doubles as a regression gate: CI regenerates it
(freshness) and replays ``--check`` against the committed baseline,
failing when any reduced count regresses by more than 20% or a
headline dekker-/MP-class reduction falls below 10x.

Runs two ways: under pytest-benchmark like the other bench modules, or
as a script emitting the machine-readable artifact::

    PYTHONPATH=src python benchmarks/bench_explore.py --out BENCH_explore.json
    PYTHONPATH=src python benchmarks/bench_explore.py --check BENCH_explore.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.memmodel.litmus import LITMUS_TESTS  # noqa: E402
from repro.registry.models import EXPLORERS  # noqa: E402

#: (litmus program, model) cells. The scaled dekker-/MP-class entries
#: (dekker-scoreboard, mp-chain) are the headline workloads; the plain
#: litmus shapes pin the small end so a reduction pessimization shows
#: up even where the absolute counts are tiny.
WORKLOADS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("mp", ("sc", "x86-tso", "pso")),
    ("dekker", ("sc", "x86-tso", "pso")),
    ("iriw", ("x86-tso", "pso", "arm")),
    ("mp-chain", ("pso", "arm", "power")),
    ("dekker-scoreboard", ("x86-tso", "pso", "arm")),
)

#: Headline acceptance: on these cells the reduced exploration must be
#: at least MIN_HEADLINE_REDUCTION times smaller than exhaustive.
HEADLINE: tuple[tuple[str, str], ...] = (
    ("mp-chain", "pso"),
    ("mp-chain", "arm"),
    ("dekker-scoreboard", "x86-tso"),
    ("dekker-scoreboard", "pso"),
)
MIN_HEADLINE_REDUCTION = 10.0

#: --check fails when a recomputed reduced count exceeds the committed
#: baseline by more than this factor.
REGRESSION_TOLERANCE = 1.20

MAX_STATES = 3_000_000


def _explore_cell(program_name: str, model: str) -> dict:
    cls = EXPLORERS.get(model)
    test = LITMUS_TESTS[program_name]
    exhaustive = cls(
        test.compile(), max_states=MAX_STATES,
        reduction=False, canonicalize=False,
    ).explore()
    reduced = cls(test.compile(), max_states=MAX_STATES).explore()
    return {
        "program": program_name,
        "model": model,
        "exhaustive_states": exhaustive.states_explored,
        "reduced_states": reduced.states_explored,
        "reduction": round(
            exhaustive.states_explored / max(1, reduced.states_explored), 2
        ),
        "outcomes": len(reduced.outcomes),
        "agrees": (
            reduced.outcomes == exhaustive.outcomes
            and reduced.complete == exhaustive.complete
        ),
    }


def run_suite() -> dict:
    entries = [
        _explore_cell(program, model)
        for program, models in WORKLOADS
        for model in models
    ]
    by_cell = {(e["program"], e["model"]): e for e in entries}
    headline = {
        f"{program}/{model}": by_cell[(program, model)]["reduction"]
        for program, model in HEADLINE
    }
    return {
        "schema": 1,
        "max_states": MAX_STATES,
        "min_headline_reduction": MIN_HEADLINE_REDUCTION,
        "headline": headline,
        "entries": entries,
    }


def verify(report: dict) -> list[str]:
    """Internal consistency of one suite run: agreement + headline."""
    problems = []
    for e in report["entries"]:
        if not e["agrees"]:
            problems.append(
                f"{e['program']}/{e['model']}: reduced exploration "
                "disagrees with exhaustive (soundness bug)"
            )
    for cell, reduction in report["headline"].items():
        if reduction < MIN_HEADLINE_REDUCTION:
            problems.append(
                f"headline {cell}: reduction {reduction}x is below the "
                f"{MIN_HEADLINE_REDUCTION}x floor"
            )
    return problems


def check_against(baseline: dict, current: dict) -> list[str]:
    """Compare a fresh run against the committed artifact."""
    problems = verify(current)
    recorded = {
        (e["program"], e["model"]): e for e in baseline.get("entries", [])
    }
    for e in current["entries"]:
        old = recorded.get((e["program"], e["model"]))
        if old is None:
            continue  # new cell: no baseline to regress from
        limit = old["reduced_states"] * REGRESSION_TOLERANCE
        if e["reduced_states"] > limit:
            problems.append(
                f"{e['program']}/{e['model']}: reduced states "
                f"{e['reduced_states']} regressed >20% over committed "
                f"baseline {old['reduced_states']}"
            )
    return problems


# --- pytest-benchmark entry point --------------------------------------------


def test_explore_reduction(benchmark):
    report = benchmark.pedantic(run_suite, rounds=1, iterations=1)
    assert verify(report) == []


# --- script entry point ------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default=None,
        help="write the artifact here (e.g. BENCH_explore.json)",
    )
    parser.add_argument(
        "--check", default=None, metavar="BASELINE",
        help="re-run the suite and fail on disagreement, a headline "
        "reduction below 10x, or a >20% reduced-state regression "
        "against BASELINE",
    )
    args = parser.parse_args(argv)

    report = run_suite()
    for e in report["entries"]:
        flag = "" if e["agrees"] else "  DISAGREES"
        print(
            f"{e['program']:18s} {e['model']:8s} "
            f"{e['exhaustive_states']:8d} -> {e['reduced_states']:6d} "
            f"({e['reduction']:5.1f}x){flag}"
        )

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
    sys.exit(main())
