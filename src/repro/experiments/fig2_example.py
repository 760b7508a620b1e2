"""The Fig. 2 worked example: Delay-set places 5 fences, pruning leaves 2.

The program is the paper's legacy-DRF snippet: P1 produces ``x``/``y``
and raises ``flag``; P2 writes/reads through pointers that may alias
``x`` and ``y`` (but provably not ``flag``), spins on the flag, then
reads the produced data. Exact Shasha-Snir delay-set analysis over the
may-alias conflict graph yields the paper's delay pairs; Table-I
pruning with Control-detected acquires removes everything except the
orderings into/out of the flag synchronization.

Full fences are counted under the RMO machine model, matching the
paper's model-agnostic presentation of the example ("(full) fence
placement").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.delay_set import DelaySetAnalysis
from repro.core.fence_min import plan_fences
from repro.core.machine_models import RMO
from repro.core.pruning import prune_orderings
from repro.core.signatures import Variant
from repro.experiments import expected
from repro.frontend import compile_source
from repro.ir.function import Program
from repro.query.engine import QueryEngine

FIG2_SOURCE = """
global int x;
global int y;
global int flag;
global int sel;

fn p1(tid) {
  local r = 0;
  x = 1;         // a1
  r = y;         // a2
  flag = 1;      // a3
}

fn p2(tid) {
  local p1v = 0;
  local p2v = 0;
  local r2 = 0;
  local r3 = 0;
  // p1v / p2v may alias x and y, but provably not flag.
  if (sel == 0) { p1v = &x; } else { p1v = &y; }
  if (sel == 1) { p2v = &x; } else { p2v = &y; }
  *p1v = 5;               // b1
  r2 = *p2v;              // b2
  while (flag != 1) { }   // b3
  y = 2;                  // b4
  r3 = x;                 // b5
}

thread p1(0);
thread p2(1);
"""


@dataclass
class Fig2Result:
    program: Program
    delay_count: int
    delay_set_fences: int
    pruned_fences: int
    acquires_per_function: dict[str, int]

    @property
    def matches_paper(self) -> bool:
        return (
            self.delay_set_fences == expected.FIG2_DELAY_SET_FENCES
            and self.pruned_fences == expected.FIG2_PRUNED_FENCES
        )


def run() -> Fig2Result:
    program = compile_source(FIG2_SOURCE, "fig2-example")
    # Delay-set analysis and acquire detection share one query engine,
    # so the per-function facts are computed exactly once.
    engine = QueryEngine(program)
    delays = DelaySetAnalysis(program, context=engine).compute()

    total_unpruned = 0
    total_pruned = 0
    acquires = {}
    for fn_name in ("p1", "p2"):
        func = program.functions[fn_name]
        orderings = delays.ordering_set(fn_name)
        plan = plan_fences(func, orderings, RMO, entry_fence=False)
        total_unpruned += len(plan.fences)
        sync_reads = engine.get("acquires", (func, Variant.CONTROL)).sync_reads
        acquires[fn_name] = len(sync_reads)
        pruned, _ = prune_orderings(orderings, sync_reads)
        pruned_plan = plan_fences(func, pruned, RMO, entry_fence=False)
        total_pruned += len(pruned_plan.fences)

    return Fig2Result(
        program=program,
        delay_count=delays.total_delays,
        delay_set_fences=total_unpruned,
        pruned_fences=total_pruned,
        acquires_per_function=acquires,
    )


def render(result: Fig2Result | None = None) -> str:
    result = result if result is not None else run()
    lines = [
        "Fig. 2 worked example (legacy DRF busy-wait synchronization)",
        "=" * 60,
        f"delay pairs found by exact Shasha-Snir analysis: {result.delay_count}",
        f"full fences to enforce all delays:        {result.delay_set_fences}"
        f"  (paper: {expected.FIG2_DELAY_SET_FENCES})",
        f"full fences after Table-I pruning:        {result.pruned_fences}"
        f"  (paper: {expected.FIG2_PRUNED_FENCES})",
        f"detected acquires: {result.acquires_per_function}",
        f"matches paper: {result.matches_paper}",
    ]
    return "\n".join(lines)
