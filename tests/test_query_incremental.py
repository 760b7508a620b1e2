"""Incremental-correctness properties of warm re-analysis.

The paper's pipeline is deterministic, so the query engine's contract
is checkable end to end: after editing exactly one function of a
program, a warm re-analysis must (a) recompute only that function's
query subgraph — sibling functions are 100% memo hits, their fact
objects surviving by identity — and (b) produce results byte-identical
to a cold analysis of the edited program. Aggregated over the whole
17-program corpus, the warm pass must recompute fewer than half the
queries a cold pass runs (the ISSUE-4 acceptance bar).
"""

import json

import pytest

from repro.core.pipeline import PipelineVariant, analyze_program
from repro.frontend import compile_source
from repro.ir.instructions import Observe
from repro.ir.values import Constant
from repro.programs import all_programs
from repro.query.engine import QueryEngine

CORPUS = sorted(all_programs())


def _edit_target(program):
    """The function a hypothetical developer edits: the first one."""
    return next(iter(program.functions.values()))


def _edit_in_place(func):
    func.blocks[0].insert(0, Observe("__edit__", Constant(0)))
    func.finalize()


def _summarize(analysis):
    """Canonical byte-comparable form of a whole-program analysis."""
    return json.dumps(
        {
            "functions": {
                name: {
                    "escaping_reads": len(fa.escape_info.escaping_reads),
                    "sync_reads": len(fa.sync_reads),
                    "orderings": len(fa.orderings),
                    "pruned": len(fa.pruned),
                    "full_fences": fa.plan.full_count,
                    "compiler_fences": fa.plan.compiler_count,
                }
                for name, fa in analysis.functions.items()
            },
            "surviving_fraction": analysis.surviving_fraction,
            "full_fences": analysis.full_fence_count,
        },
        sort_keys=True,
    )


def _run_incremental(name):
    """Cold-analyze, edit one function, warm-re-analyze.

    Returns (cold computes, warm computes, sibling identity ok,
    warm summary, fresh-cold summary).
    """
    source = all_programs()[name].source
    program = compile_source(source, name)
    engine = QueryEngine(program)
    analyze_program(program, PipelineVariant.CONTROL, context=engine)
    cold = engine.stats.computes

    target = _edit_target(program)
    siblings = {
        fname: engine.get("points_to", func)
        for fname, func in program.functions.items()
        if func is not target
    }
    _edit_in_place(target)
    assert engine.refresh() == (target.name,)

    before = engine.stats.computes
    warm_analysis = analyze_program(program, PipelineVariant.CONTROL, context=engine)
    warm = engine.stats.computes - before

    siblings_ok = all(
        engine.get("points_to", program.functions[fname]) is fact
        for fname, fact in siblings.items()
    )
    fresh = analyze_program(
        program, PipelineVariant.CONTROL, context=QueryEngine(program)
    )
    return cold, warm, siblings_ok, _summarize(warm_analysis), _summarize(fresh)


@pytest.mark.parametrize("name", CORPUS)
def test_edit_one_function_siblings_hit_and_results_byte_identical(name):
    cold, warm, siblings_ok, warm_summary, fresh_summary = _run_incremental(name)
    assert siblings_ok, "sibling functions must be 100% cache hits"
    assert warm_summary == fresh_summary, (
        "warm incremental results must be byte-identical to a cold analysis"
    )
    # The edited function's own facts did recompute.
    assert warm > 0
    assert warm <= cold


MP = """
global int flag;
global int data;

fn producer(tid) { data = 1; flag = 1; }
fn consumer(tid) {
  local r = 0;
  while (flag == 0) { }
  r = data;
  observe("r", r);
}

thread producer(0);
thread consumer(1);
"""


def test_place_refreshes_supplied_context_for_reuse():
    """Fence insertion mutates the IR; place() now refreshes the
    context, so reusing it afterwards is correct (not stale)."""
    from repro.core.pipeline import FencePlacer

    program = compile_source(MP, "mp")
    engine = QueryEngine(program)
    FencePlacer(PipelineVariant.CONTROL).place(program, context=engine)
    assert len(program.fences()) > 0
    reused = analyze_program(program, PipelineVariant.CONTROL, context=engine)
    fresh = analyze_program(
        program, PipelineVariant.CONTROL, context=QueryEngine(program)
    )
    assert _summarize(reused) == _summarize(fresh)


def test_corpus_warm_reanalysis_recomputes_under_half_the_queries():
    total_cold = total_warm = 0
    for name in CORPUS:
        cold, warm, _, _, _ = _run_incremental(name)
        total_cold += cold
        total_warm += warm
    assert total_cold > 0
    fraction = total_warm / total_cold
    assert fraction < 0.5, (
        f"warm re-analysis recomputed {fraction:.1%} of the corpus's "
        f"queries ({total_warm}/{total_cold}); the bar is < 50%"
    )
