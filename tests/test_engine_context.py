"""Tests for a program's shared QueryEngine as every consumer's fact source."""

import pytest

from repro.core.delay_set import DelaySetAnalysis
from repro.core.interprocedural import detect_acquires_interprocedural
from repro.core.pipeline import FencePlacer, PipelineVariant, analyze_program
from repro.core.signatures import Variant, detect_acquires
from repro.frontend import compile_source
from repro.query.engine import QueryEngine

SRC = """
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


@pytest.fixture
def program():
    return compile_source(SRC, "ctx")


def test_facts_memoized_per_function(program):
    engine = QueryEngine(program)
    func = program.functions["consumer"]
    assert engine.get("points_to", func) is engine.get("points_to", func)
    assert engine.get("escape_info", func) is engine.get("escape_info", func)
    assert engine.get("reachability", func) is engine.get("reachability", func)
    assert engine.get("writers_cache", func) is engine.get("writers_cache", func)
    assert engine.stats.hits > 0 and engine.stats.misses > 0


def test_facts_distinct_across_functions(program):
    engine = QueryEngine(program)
    p = program.functions["producer"]
    c = program.functions["consumer"]
    assert engine.get("points_to", p) is not engine.get("points_to", c)


def test_escape_info_shares_points_to(program):
    engine = QueryEngine(program)
    func = program.functions["consumer"]
    assert engine.get("escape_info", func).points_to is engine.get(
        "points_to", func
    )


def test_acquires_memoized_per_variant(program):
    engine = QueryEngine(program)
    func = program.functions["consumer"]
    a = engine.get("acquires", (func, Variant.CONTROL))
    assert engine.get("acquires", (func, Variant.CONTROL)) is a
    b = engine.get("acquires", (func, Variant.ADDRESS_CONTROL))
    assert b is not a


def test_context_acquires_match_standalone(program):
    engine = QueryEngine(program)
    func = program.functions["consumer"]
    via_engine = engine.get("acquires", (func, Variant.CONTROL)).sync_reads
    standalone = detect_acquires(func, Variant.CONTROL).sync_reads
    assert list(via_engine) == list(standalone)


def test_pipeline_uses_supplied_context(program):
    engine = QueryEngine(program)
    analysis = FencePlacer(PipelineVariant.CONTROL).analyze(
        program, context=engine
    )
    for name, fa in analysis.functions.items():
        func = program.functions[name]
        # The analysis result holds exactly the engine's memoized facts.
        assert fa.points_to is engine.get("points_to", func)
        assert fa.escape_info is engine.get("escape_info", func)


def test_shared_context_across_variants_same_results(program):
    engine = QueryEngine(program)
    shared = [
        analyze_program(program, v, context=engine).full_fence_count
        for v in PipelineVariant
    ]
    fresh = [
        analyze_program(compile_source(SRC, "ctx"), v).full_fence_count
        for v in PipelineVariant
    ]
    assert shared == fresh


def test_delay_set_with_shared_context(program):
    engine = QueryEngine(program)
    shared = DelaySetAnalysis(program, context=engine).compute()
    fresh = DelaySetAnalysis(program).compute()
    assert shared.total_delays == fresh.total_delays
    # The pipeline afterwards reuses the delay-set run's facts.
    misses_before = engine.stats.by_query_misses.get("points_to", 0)
    analyze_program(program, PipelineVariant.CONTROL, context=engine)
    assert engine.stats.by_query_misses.get("points_to", 0) == misses_before


def test_interprocedural_with_shared_context(program):
    engine = QueryEngine(program)
    shared = detect_acquires_interprocedural(
        program, Variant.CONTROL, context=engine
    )
    fresh = detect_acquires_interprocedural(program, Variant.CONTROL)
    assert {k: len(v) for k, v in shared.acquires.items()} == {
        k: len(v) for k, v in fresh.acquires.items()
    }


def test_context_interprocedural_memoized(program):
    engine = QueryEngine(program)
    first = engine.get("interprocedural", Variant.CONTROL)
    assert engine.get("interprocedural", Variant.CONTROL) is first


def test_interprocedural_requires_program():
    engine = QueryEngine()
    with pytest.raises(ValueError):
        engine.get("interprocedural", Variant.CONTROL)


def test_interprocedural_pipeline_shares_context(program):
    engine = QueryEngine(program)
    placer = FencePlacer(PipelineVariant.CONTROL, interprocedural=True)
    analysis = placer.analyze(program, context=engine)
    assert analysis.total_sync_reads >= 0
    # The fixpoint result was cached on the engine.
    assert engine.cached("interprocedural", Variant.CONTROL)
    assert engine.get("interprocedural", Variant.CONTROL) is engine.get(
        "interprocedural", Variant.CONTROL
    )


def test_context_rejects_foreign_program(program):
    other = compile_source(SRC, "other")
    engine = QueryEngine(other)
    with pytest.raises(ValueError):
        analyze_program(program, PipelineVariant.CONTROL, context=engine)
