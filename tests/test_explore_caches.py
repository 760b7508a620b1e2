"""Cached explorer facts never go stale.

A thread state placed in an explorer state caches its key, symmetry
key, future footprint and probe, and a ``SharedMap`` caches its sorted
items. Both are sound only because placed objects are never mutated
afterwards. These tests recompute every cached fact from scratch at
each state the DFS pops and require equality, on every litmus entry
under every explorer model.
"""

from __future__ import annotations

import pytest

from repro.frontend import compile_source
from repro.memmodel.explore import (
    FutureFootprints,
    SharedMap,
    _CanonBail,
    _compute_norm_key,
    _norm_thread_key,
)
from repro.memmodel.interpreter import ThreadExecutor
from repro.memmodel.litmus import LITMUS_TESTS
from repro.registry.models import get_model

MODELS = ("sc", "x86-tso", "pso", "arm", "power")


def _checking(explorer_cls):
    class Checking(explorer_cls):
        """Recomputes every cached fact of each popped state."""

        checked = 0

        def _canon_key(self, state, classes):
            key = super()._canon_key(state, classes)  # fills the caches
            fresh_oracle = FutureFootprints(self.program, self.layout)
            for ts in self.threads_of(state):
                assert ts.key() == ts._compute_key()
                if ts._norm is not None:
                    try:
                        fresh_norm = _compute_norm_key(ts)
                    except _CanonBail:
                        fresh_norm = False
                    assert ts._norm == fresh_norm
                if ts._future is not None:
                    assert ts._future == (fresh_oracle.thread_future(ts.clone()),)
                if ts._probe is not None:
                    fresh_ready = ts.clone()
                    fresh_pending = self.executor.next_action(fresh_ready, self.max_steps)
                    ready, pending = ts._probe
                    assert ready.key() == fresh_ready.key()
                    assert ready == fresh_ready
                    assert pending == fresh_pending
            maps = [part for part in state if isinstance(part, SharedMap)]
            assert maps, "memory must be a SharedMap"
            for shared in maps:
                assert shared.sorted_items() == tuple(sorted(shared.items()))
            type(self).checked += 1
            return key

    return Checking


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("name", sorted(LITMUS_TESTS))
def test_cached_facts_match_fresh_ones(name, model):
    explorer_cls = _checking(get_model(model).explorer_cls())
    program = LITMUS_TESTS[name].compile()
    result = explorer_cls(program).explore()
    assert result.complete
    # Every popped state is keyed, including ones already visited.
    assert explorer_cls.checked >= result.states_explored > 0


def test_clone_drops_every_cache():
    program = compile_source(
        "global int g; fn f(tid) { local r = 0; g = 1; r = g; observe(\"r\", r); }"
        " thread f(0); thread f(1);",
        "t",
    )
    executor = ThreadExecutor(program)
    ts = executor.start_all()[0]
    ts.key()
    _norm_thread_key(ts)
    FutureFootprints(program, executor.layout).thread_future(ts)
    executor.probe(ts)
    assert None not in (ts._key, ts._norm, ts._future, ts._probe)
    clone = ts.clone()
    assert (clone._key, clone._norm, clone._future, clone._probe) == (None,) * 4
    assert clone == ts  # caches are not compared


def test_probe_runs_once_and_leaves_the_state_alone():
    program = compile_source("global g; fn f(t) { g = 1; g = 2; } thread f(0);", "t")
    executor = ThreadExecutor(program)
    ts = executor.start_all()[0]
    before = ts.key()
    ready, pending = executor.probe(ts)
    assert executor.probe(ts) == (ready, pending)
    assert executor.probes == 1
    assert pending is not None and pending.kind == "store"
    assert ts.key() == ts._compute_key() == before
    assert ready is not ts


def test_shared_map_caches_sorted_items():
    shared = SharedMap({3: 1, 1: 2})
    assert shared.sorted_items() == ((1, 2), (3, 1))
    copy = SharedMap(shared)
    copy[0] = 5
    assert copy.sorted_items() == ((0, 5), (1, 2), (3, 1))
    assert shared.sorted_items() == ((1, 2), (3, 1))
