"""Tests for the demand-driven query engine (repro.query)."""


import pytest

from repro.core.signatures import Variant
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
    engine = QueryEngine(program)
    consumer = program.functions["consumer"]
    engine.get("escape_info", consumer)
    deps = engine.deps_of("escape_info", consumer)
    assert ("points_to", consumer) in deps
    assert ("fn", consumer) in deps
    # acquires pulled its facts through the same engine.
    engine.get("acquires", (consumer, Variant.CONTROL))
    acq_deps = engine.deps_of("acquires", (consumer, Variant.CONTROL))
    assert ("points_to", consumer) in acq_deps
    assert ("fn", consumer) in acq_deps


def test_refresh_without_edit_evicts_nothing(program):
    engine = QueryEngine(program)
    consumer = program.functions["consumer"]
    fact = engine.get("points_to", consumer)
    assert engine.refresh() == ()
    assert engine.stats.evictions == 0
    assert engine.get("points_to", consumer) is fact


def test_single_function_edit_invalidates_only_its_subgraph(program):
    engine = QueryEngine(program)
    producer = program.functions["producer"]
    consumer = program.functions["consumer"]
    for func in (producer, consumer):
        engine.get("points_to", func)
        engine.get("escape_info", func)
        engine.get("reachability", func)
        engine.get("acquires", (func, Variant.CONTROL))
    sibling_points_to = engine.get("points_to", producer)
    sibling_acquires = engine.get("acquires", (producer, Variant.CONTROL))

    edit_in_place(consumer)
    assert engine.refresh() == ("consumer",)

    assert not engine.cached("points_to", consumer)
    assert not engine.cached("escape_info", consumer)
    assert not engine.cached("acquires", (consumer, Variant.CONTROL))
    # Sibling facts survive by identity.
    assert engine.get("points_to", producer) is sibling_points_to
    assert engine.get("acquires", (producer, Variant.CONTROL)) is sibling_acquires
    # The edited function recomputes fresh facts.
    assert engine.get("points_to", consumer) is engine.get("points_to", consumer)


def test_edit_invalidates_interprocedural_fixpoint(program):
    engine = QueryEngine(program)
    first = engine.get("interprocedural", Variant.CONTROL)
    assert engine.get("interprocedural", Variant.CONTROL) is first
    edit_in_place(program.functions["producer"])
    changed = engine.refresh()
    assert changed == ("producer",)
    assert not engine.cached("interprocedural", Variant.CONTROL)
    second = engine.get("interprocedural", Variant.CONTROL)
    assert second is not first
    assert {k: len(v) for k, v in second.acquires.items()} == {
        k: len(v) for k, v in first.acquires.items()
    }


def test_writers_cache_replaced_after_edit(program):
    engine = QueryEngine(program)
    consumer = program.functions["consumer"]
    writers = engine.get("writers_cache", consumer)
    writers[1234] = []
    edit_in_place(consumer)
    engine.refresh()
    fresh = engine.get("writers_cache", consumer)
    assert fresh is not writers and 1234 not in fresh


def test_invalidate_function_force_evicts(program):
    engine = QueryEngine(program)
    consumer = program.functions["consumer"]
    fact = engine.get("points_to", consumer)
    engine.invalidate_function(consumer)
    assert engine.get("points_to", consumer) is not fact


def test_fingerprint_tracks_content_not_identity():
    a = compile_source(SRC, "a").functions["consumer"]
    b = compile_source(SRC, "b").functions["consumer"]
    assert a is not b
    assert fingerprint_function(a) == fingerprint_function(b)
    edit_in_place(b)
    assert fingerprint_function(a) != fingerprint_function(b)


def test_acquires_persist_across_engines(tmp_path):
    p1 = compile_source(SRC, "p1")
    engine1 = QueryEngine(p1, cache_dir=tmp_path)
    first = engine1.get("acquires", (p1.functions["consumer"], Variant.CONTROL))
    assert engine1.stats.by_query.get("acquires") == 1
    assert engine1.stats.restored == 0

    # A new engine (fresh compile, new Function objects, same content)
    # restores the persisted result instead of re-slicing.
    p2 = compile_source(SRC, "p2")
    engine2 = QueryEngine(p2, cache_dir=tmp_path)
    consumer2 = p2.functions["consumer"]
    restored = engine2.get("acquires", (consumer2, Variant.CONTROL))
    assert engine2.stats.restored == 1
    assert "acquires" not in engine2.stats.by_query
    assert [i.uid for i in restored.sync_reads] == [
        i.uid for i in first.sync_reads
    ]
    own = set(map(id, consumer2.instructions()))
    assert all(id(inst) in own for inst in restored.sync_reads)
    # Per-variant entries stay distinct on disk.
    engine2.get("acquires", (consumer2, Variant.ADDRESS_CONTROL))
    assert engine2.stats.by_query.get("acquires") == 1


def test_persisted_entry_still_invalidates_on_edit(tmp_path):
    program = compile_source(SRC, "p")
    engine = QueryEngine(program, cache_dir=tmp_path)
    consumer = program.functions["consumer"]
    engine.get("acquires", (consumer, Variant.CONTROL))
    edit_in_place(consumer)
    assert engine.refresh() == ("consumer",)
    # The changed fingerprint keys a different disk entry: recompute.
    engine.get("acquires", (consumer, Variant.CONTROL))
    assert engine.stats.by_query.get("acquires") == 2
    assert engine.stats.restored == 0


def test_corrupt_persistent_entry_is_a_miss(tmp_path):
    program = compile_source(SRC, "p")
    engine = QueryEngine(program, cache_dir=tmp_path)
    engine.get("acquires", (program.functions["consumer"], Variant.CONTROL))
    for path in tmp_path.glob("acquires.*.json"):
        path.write_text("{corrupt", encoding="utf-8")
    fresh = QueryEngine(compile_source(SRC, "p"), cache_dir=tmp_path)
    fresh.get("acquires", (fresh.program.functions["consumer"], Variant.CONTROL))
    assert fresh.stats.restored == 0
    assert fresh.stats.by_query.get("acquires") == 1


def test_query_cycle_detected():
    registry = Registry("query")
    registry.register(
        "loop", QuerySpec(name="loop", compute=lambda e, k: e.get("loop", k))
    )
    engine = QueryEngine(registry=registry)
    with pytest.raises(RuntimeError, match="cycle"):
        engine.get("loop", 0)


def test_engine_len_and_known_functions(program):
    engine = QueryEngine(program)
    assert len(engine) == 0
    consumer = program.functions["consumer"]
    engine.get("points_to", consumer)
    assert len(engine) == 1
    assert consumer in engine.known_functions()
