"""Cached explorer facts never go stale.

A thread state placed in an explorer state caches its key, symmetry
key, future footprint, probe and interned key id, a probe's ready
state memoizes its committed successors (``ThreadExecutor.step``), and
a ``SharedMap`` caches its sorted items. All are sound only because
placed objects are never mutated afterwards. The explorer memoizes a
step transition per distinct thread state, drain transitions per
buffer, and the transitions and persistent singletons of each control
configuration (threads plus buffers); those are sound only because a
transition depends on nothing else. These tests recompute every cached
fact and every memoized expansion from scratch at each state the DFS
pops and require equality, on every litmus entry under every explorer
model, check that sharing memoized steps leaves every work count and
outcome of the DFS as it was with a fresh clone per step, and check
that an exploration leaves no cyclic garbage behind.
"""

from __future__ import annotations

import gc

import pytest

from repro.api import CheckRequest, ProgramSpec, Session
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

        def _canon_key(self, state, classes, ids):
            key = super()._canon_key(state, classes, ids)  # fills the caches
            fresh_oracle = FutureFootprints(self.program, self.layout)
            for n, ts in zip(ids, self.threads_of(state)):
                assert ts.key() == ts._compute_key()
                assert self._ids[ts.key()] == ts._id == n
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
                    for value, nxt in (ready._next or {}).items():
                        fresh_next = ready.clone()
                        self.executor.commit(fresh_next, pending, value)
                        assert nxt == fresh_next  # steps included
                        assert nxt.key() == nxt._compute_key()
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
    explorer = get_model("sc").explorer_cls()(program)
    executor = explorer.executor
    ts = executor.start_all()[0]
    ts.key()
    _norm_thread_key(ts)
    FutureFootprints(program, executor.layout).thread_future(ts)
    explorer._thread_ids((ts,))
    ready, pending = executor.probe(ts)
    executor.step(ready, pending)
    assert None not in (ts._key, ts._norm, ts._future, ts._probe, ts._id, ready._next)
    clone = ts.clone()
    assert (clone._key, clone._norm, clone._future, clone._probe, clone._id) == (None,) * 5
    assert clone == ts  # caches are not compared
    ready_clone = ready.clone()
    assert ready_clone._next is None
    assert ready_clone == ready


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


def test_step_is_memoized_per_load_result():
    program = compile_source(
        "global int g; fn f(tid) { local r = 0; r = g; observe(\"r\", r); }"
        " thread f(0);",
        "t",
    )
    executor = ThreadExecutor(program)
    ts = executor.start_all()[0]
    ts_before = ts.clone()
    ready, pending = executor.probe(ts)
    assert pending is not None and pending.kind == "load"
    ready_before = ready.clone()
    zero = executor.step(ready, pending, 0)
    one = executor.step(ready, pending, 1)
    assert executor.step(ready, pending, 0) is zero
    assert executor.step(ready, pending, 1) is one
    assert zero is not one and zero != one
    assert ready._next == {0: zero, 1: one}
    # Neither the ready state nor the state it was probed from moved.
    assert ready == ready_before and ready.key() == ready_before._compute_key()
    assert ts == ts_before and ts.key() == ts_before._compute_key()
    assert executor.probe(ts) == (ready, pending)


def _clone_per_step(explorer_cls):
    class ClonePerStep(explorer_cls):
        """Commits every step on a fresh clone: the unmemoized reference."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            executor = self.executor

            def step(ready, pending, load_result=None):
                ready = ready.clone()
                executor.commit(ready, pending, load_result)
                return ready

            executor.step = step

    return ClonePerStep


def _work(explorer):
    result = explorer.explore()
    return (
        result.states_explored,
        explorer.sleep_blocked,
        explorer.pruned_transitions,
        explorer.successors_built,
        result.verdict,
        result.outcomes,
    )


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("name", sorted(LITMUS_TESTS))
def test_memoized_steps_match_a_clone_per_step(name, model):
    explorer_cls = get_model(model).explorer_cls()
    program = LITMUS_TESTS[name].compile()
    memoized = _work(explorer_cls(program))
    assert memoized == _work(_clone_per_step(explorer_cls)(program))


def test_shared_map_caches_sorted_items():
    shared = SharedMap({3: 1, 1: 2})
    assert shared.sorted_items() == ((1, 2), (3, 1))
    copy = SharedMap(shared)
    copy[0] = 5
    assert copy.sorted_items() == ((0, 5), (1, 2), (3, 1))
    assert shared.sorted_items() == ((1, 2), (3, 1))


def _pick_safe(explorer, state, explorable, oracle):
    """The persistent singleton the DFS took before expansions were
    memoized: recomputed from the explorable transitions alone."""
    for t in explorable:
        if t.fp.local and t.is_step:
            return t
    threads = explorer.threads_of(state)
    for t in explorable:
        fp = t.fp
        if fp.top or fp.local:
            continue
        ok = True
        for j, ts in enumerate(threads):
            if j == t.tid:
                continue
            fut = oracle.thread_future(ts)
            if fut is None:
                ok = False
                break
            future_reads, future_writes = fut
            future_writes = future_writes | explorer.buffered_addrs(state, j)
            if fp.global_read:
                if future_writes:
                    ok = False
                    break
                continue
            if (fp.reads | fp.writes) & future_writes or fp.writes & future_reads:
                ok = False
                break
        if ok:
            return t
    return None


def _successor_keys(explorer, succs):
    return [
        (explorer.state_parts(s), [ts.key() for ts in explorer.threads_of(s)])
        for s in succs
    ]


def _checking_expansions(explorer_cls):
    class CheckingExpansions(explorer_cls):
        """Recomputes each popped state's transitions and safe choice
        with no memo and compares them with the memoized expansion."""

        checked = 0

        def _expand(self, state, ids, oracle):
            trans, singles = super()._expand(state, ids, oracle)
            fresh = explorer_cls(self.program).transitions(state)
            assert [(t.key, t.tid, t.is_step, t.fp, t.wait) for t in trans] == [
                (t.key, t.tid, t.is_step, t.fp, t.wait) for t in fresh
            ]
            for t, f in zip(trans, fresh):
                assert _successor_keys(self, t.build(state)) == _successor_keys(
                    self, f.build(state)
                )
            if oracle is not None:
                # The memoized preference order is the order in which
                # the fresh choice picks them as earlier picks fall
                # asleep, so every sleep set gets the fresh choice.
                fresh_oracle = FutureFootprints(self.program, self.layout)
                left, picks = list(fresh), []
                while (pick := _pick_safe(self, state, left, fresh_oracle)) is not None:
                    picks.append(pick.key)
                    left.remove(pick)
                assert [t.key for t in singles] == picks
            type(self).checked += 1
            return trans, singles

    return CheckingExpansions


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("name", sorted(LITMUS_TESTS))
def test_memoized_expansions_match_fresh_ones(name, model):
    explorer_cls = _checking_expansions(get_model(model).explorer_cls())
    explorer = explorer_cls(LITMUS_TESTS[name].compile())
    result = explorer.explore()
    assert result.complete
    assert explorer_cls.checked >= result.states_explored > 0
    # Control configurations recur: fewer expansions than states.
    assert 0 < explorer.expansions <= result.states_explored


@pytest.mark.parametrize("model", MODELS)
def test_exploration_leaves_no_cyclic_garbage(model):
    """Memoized transitions hold the executor, never the explorer, so
    an exploration and a check free everything by reference counting."""
    program = LITMUS_TESTS["mp-chain"].compile()
    session = Session()
    gc.collect()
    gc.disable()
    try:
        get_model(model).explorer_cls()(program).explore()
        if model != "sc":  # a check explores SC and one weak model
            session.check(
                CheckRequest(program=ProgramSpec.litmus("mp-chain"), model=model)
            )
        assert gc.collect() == 0
    finally:
        gc.enable()
