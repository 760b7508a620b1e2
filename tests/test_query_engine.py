"""Tests for the demand-driven query engine (repro.query)."""


import pytest

from repro.core.signatures import Variant
from repro.engine.context import AnalysisContext
from repro.frontend import compile_source
from repro.ir.instructions import Observe
from repro.ir.values import Constant
from repro.query import (
    QUERIES,
    QueryEngine,
    QuerySpec,
    fingerprint_function,
)
from repro.query.facts import FACT_QUERIES
from repro.registry.core import Registry

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
    return compile_source(SRC, "qe")


def edit_in_place(func):
    """A real single-function IR edit: content fingerprint changes."""
    func.blocks[0].insert(0, Observe("__probe__", Constant(0)))
    func.finalize()


def test_all_fact_kinds_are_registered_queries():
    import repro.query  # noqa: F401  (registration side effect)

    for name in FACT_QUERIES:
        assert name in QUERIES
    assert set(FACT_QUERIES) <= set(QUERIES.keys())


def test_dependency_edges_recorded_during_evaluation(program):
    ctx = AnalysisContext(program)
    consumer = program.functions["consumer"]
    ctx.escape_info(consumer)
    deps = ctx.engine.deps_of("escape_info", consumer)
    assert ("points_to", consumer) in deps
    assert ("fn", consumer) in deps
    # acquires pulled its facts through the same engine.
    ctx.acquires(consumer, Variant.CONTROL)
    acq_deps = ctx.engine.deps_of("acquires", (consumer, Variant.CONTROL))
    assert ("points_to", consumer) in acq_deps
    assert ("fn", consumer) in acq_deps


def test_refresh_without_edit_evicts_nothing(program):
    ctx = AnalysisContext(program)
    consumer = program.functions["consumer"]
    fact = ctx.points_to(consumer)
    assert ctx.refresh() == ()
    assert ctx.engine.stats.evictions == 0
    assert ctx.points_to(consumer) is fact


def test_single_function_edit_invalidates_only_its_subgraph(program):
    ctx = AnalysisContext(program)
    producer = program.functions["producer"]
    consumer = program.functions["consumer"]
    for func in (producer, consumer):
        ctx.points_to(func)
        ctx.escape_info(func)
        ctx.reachability(func)
        ctx.acquires(func, Variant.CONTROL)
    sibling_points_to = ctx.points_to(producer)
    sibling_acquires = ctx.acquires(producer, Variant.CONTROL)

    edit_in_place(consumer)
    assert ctx.refresh() == ("consumer",)

    assert not ctx.engine.cached("points_to", consumer)
    assert not ctx.engine.cached("escape_info", consumer)
    assert not ctx.engine.cached("acquires", (consumer, Variant.CONTROL))
    # Sibling facts survive by identity.
    assert ctx.points_to(producer) is sibling_points_to
    assert ctx.acquires(producer, Variant.CONTROL) is sibling_acquires
    # The edited function recomputes fresh facts.
    assert ctx.points_to(consumer) is ctx.points_to(consumer)


def test_edit_invalidates_interprocedural_fixpoint(program):
    ctx = AnalysisContext(program)
    first = ctx.interprocedural(Variant.CONTROL)
    assert ctx.interprocedural(Variant.CONTROL) is first
    edit_in_place(program.functions["producer"])
    changed = ctx.refresh()
    assert changed == ("producer",)
    assert not ctx.engine.cached("interprocedural", Variant.CONTROL)
    second = ctx.interprocedural(Variant.CONTROL)
    assert second is not first
    assert {k: len(v) for k, v in second.acquires.items()} == {
        k: len(v) for k, v in first.acquires.items()
    }


def test_writers_cache_replaced_after_edit(program):
    ctx = AnalysisContext(program)
    consumer = program.functions["consumer"]
    writers = ctx.writers_cache(consumer)
    writers[1234] = []
    edit_in_place(consumer)
    ctx.refresh()
    fresh = ctx.writers_cache(consumer)
    assert fresh is not writers and 1234 not in fresh


def test_invalidate_function_force_evicts(program):
    ctx = AnalysisContext(program)
    consumer = program.functions["consumer"]
    fact = ctx.points_to(consumer)
    ctx.invalidate_function(consumer)
    assert ctx.points_to(consumer) is not fact


def test_fingerprint_tracks_content_not_identity():
    a = compile_source(SRC, "a").functions["consumer"]
    b = compile_source(SRC, "b").functions["consumer"]
    assert a is not b
    assert fingerprint_function(a) == fingerprint_function(b)
    edit_in_place(b)
    assert fingerprint_function(a) != fingerprint_function(b)


def test_acquires_persist_across_engines(tmp_path):
    p1 = compile_source(SRC, "p1")
    ctx1 = AnalysisContext(p1, cache_dir=tmp_path)
    first = ctx1.acquires(p1.functions["consumer"], Variant.CONTROL)
    assert ctx1.engine.stats.by_query.get("acquires") == 1
    assert ctx1.engine.stats.restored == 0

    # A new engine (fresh compile, new Function objects, same content)
    # restores the persisted result instead of re-slicing.
    p2 = compile_source(SRC, "p2")
    ctx2 = AnalysisContext(p2, cache_dir=tmp_path)
    consumer2 = p2.functions["consumer"]
    restored = ctx2.acquires(consumer2, Variant.CONTROL)
    assert ctx2.engine.stats.restored == 1
    assert "acquires" not in ctx2.engine.stats.by_query
    assert [i.uid for i in restored.sync_reads] == [
        i.uid for i in first.sync_reads
    ]
    own = set(map(id, consumer2.instructions()))
    assert all(id(inst) in own for inst in restored.sync_reads)
    # Per-variant entries stay distinct on disk.
    ctx2.acquires(consumer2, Variant.ADDRESS_CONTROL)
    assert ctx2.engine.stats.by_query.get("acquires") == 1


def test_persisted_entry_still_invalidates_on_edit(tmp_path):
    program = compile_source(SRC, "p")
    ctx = AnalysisContext(program, cache_dir=tmp_path)
    consumer = program.functions["consumer"]
    ctx.acquires(consumer, Variant.CONTROL)
    edit_in_place(consumer)
    assert ctx.refresh() == ("consumer",)
    # The changed fingerprint keys a different disk entry: recompute.
    ctx.acquires(consumer, Variant.CONTROL)
    assert ctx.engine.stats.by_query.get("acquires") == 2
    assert ctx.engine.stats.restored == 0


def test_corrupt_persistent_entry_is_a_miss(tmp_path):
    program = compile_source(SRC, "p")
    ctx = AnalysisContext(program, cache_dir=tmp_path)
    ctx.acquires(program.functions["consumer"], Variant.CONTROL)
    for path in tmp_path.glob("acquires.*.json"):
        path.write_text("{corrupt", encoding="utf-8")
    fresh = AnalysisContext(compile_source(SRC, "p"), cache_dir=tmp_path)
    fresh.acquires(fresh.program.functions["consumer"], Variant.CONTROL)
    assert fresh.engine.stats.restored == 0
    assert fresh.engine.stats.by_query.get("acquires") == 1


def test_query_cycle_detected():
    registry = Registry("query")
    registry.register(
        "loop", QuerySpec(name="loop", compute=lambda e, k: e.get("loop", k))
    )
    engine = QueryEngine(registry=registry)
    with pytest.raises(RuntimeError, match="cycle"):
        engine.get("loop", 0)


def test_engine_len_and_known_functions(program):
    ctx = AnalysisContext(program)
    assert len(ctx.engine) == 0
    consumer = program.functions["consumer"]
    ctx.points_to(consumer)
    assert len(ctx.engine) == 1
    assert consumer in ctx.engine.known_functions()
