"""The trace layers against their copy-based references.

``_trace_oracle`` keeps the recursive enumerator that copied every
thread, memory and the action list at each DFS node, and the
happens-before that closed a bitset graph. The backtracking enumerator
must produce the same traces in the same order — cut to ``max_traces``,
which the reference overshoots — and the vector clocks the same
``happens_before`` answer on every pair and the same race list, in the
same order, under every marking tried.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import _trace_oracle as oracle
from repro.analysis.escape import EscapeInfo
from repro.core.signatures import Variant, detect_acquires
from repro.frontend import compile_source
from repro.memmodel.hb import HappensBefore, all_sync, sync_from_instructions
from repro.memmodel.interpreter import GlobalLayout
from repro.memmodel.litmus import LITMUS_TESTS, sync_marking_for, sync_marking_for_globals
from repro.memmodel.sc import enumerate_sc_traces
from repro.programs import all_programs
from repro.validate.generator import SHAPES, generate_program

#: The owner publishes a stack cell's address; the writer reads and
#: stores through it. That cell is not in the initial memory, so undoing
#: the store must remove it again, or a later branch's read sees it.
STACK_HANDOFF = """
global int slot;
global int ready;

fn owner(tid) {
  local box = 0;
  local r = 0;
  slot = &box;
  ready = 1;
  while (ready == 1) { }
  r = box;
  observe("r", r);
}
fn writer(tid) {
  local p = 0;
  local w = 0;
  while (ready == 0) { }
  p = slot;
  w = *p;
  *p = w + 7;
  observe("w", w);
  ready = 2;
}

thread owner(0);
thread writer(1);
"""

#: (max_traces, max_actions) cells swept over the litmus suite.
BOUNDS = [(t, a) for t in (1, 2, 3, 5, 17, 60) for a in (1, 2, 3, 5, 9, 40, 200)]


def _action_rows(trace):
    return [(a.index, a.tid, a.is_write, a.addr, a.value, a.inst) for a in trace.actions]


def assert_same_traces(traces, expected):
    assert len(traces) == len(expected)
    for trace, ref in zip(traces, expected):
        rows, ref_rows = _action_rows(trace), _action_rows(ref)
        assert [r[:5] for r in rows] == [r[:5] for r in ref_rows]
        assert all(r[5] is s[5] for r, s in zip(rows, ref_rows))
        assert trace.outcome.observations == ref.outcome.observations
        assert trace.outcome.final_globals == ref.outcome.final_globals
        assert trace.complete == ref.complete


def _race_rows(races):
    return [(r.first.index, r.second.index, r.first.addr) for r in races]


def assert_same_hb(trace, is_sync):
    hb = HappensBefore(trace, is_sync)
    ref = oracle.HappensBefore(trace, is_sync)
    n = len(trace.actions)
    assert [hb.happens_before(i, j) for i in range(n) for j in range(n)] == [
        ref.happens_before(i, j) for i in range(n) for j in range(n)
    ]
    assert _race_rows(hb.races()) == _race_rows(ref.races())


def compare(program, markings, max_traces, max_actions):
    expected = oracle.enumerate_sc_traces(
        program, max_traces=max_traces, max_actions=max_actions
    )
    traces = enumerate_sc_traces(program, max_traces=max_traces, max_actions=max_actions)
    assert_same_traces(traces, expected[:max_traces])
    for trace in traces:
        for is_sync in markings:
            assert_same_hb(trace, is_sync)
    return traces


def random_markings(program, seed, count=3):
    """Sync markings from random instruction subsets and random action bits."""
    rng = random.Random(seed)
    insts = [i for f in program.functions.values() for i in f.instructions()]
    markings = []
    for _ in range(count):
        share = rng.random()
        markings.append(sync_from_instructions(i for i in insts if rng.random() < share))
    salt = rng.getrandbits(32)
    markings.append(lambda a: hash((salt, a.index, a.tid, a.addr)) % 3 == 0)
    return markings


def detector_marking(program):
    """The paper's marking: detected acquires plus every escaping write."""
    sync = []
    for func in program.functions.values():
        sync.extend(detect_acquires(func, Variant.CONTROL).sync_reads)
        sync.extend(EscapeInfo(func).escaping_writes)
    return sync_from_instructions(sync)


@pytest.mark.parametrize("name", sorted(LITMUS_TESTS))
def test_litmus_traces_and_races_match_the_reference(name):
    test = LITMUS_TESTS[name]
    program = test.compile()
    markings = [
        all_sync,
        sync_marking_for(test, program),
        detector_marking(program),
        *random_markings(program, name),
    ]
    for max_traces, max_actions in BOUNDS:
        compare(program, markings, max_traces, max_actions)


def test_stores_outside_the_initial_memory_match_the_reference():
    program = compile_source(STACK_HANDOFF, "stack-handoff")
    layout = GlobalLayout(program)
    traces = compare(program, random_markings(program, "stack-handoff"), 400, 30)
    assert any(not layout.is_global(a.addr) for t in traces for a in t.actions)


@pytest.mark.parametrize("name", sorted(all_programs()))
def test_corpus_traces_and_races_match_the_reference(name):
    program = all_programs()[name].compile()
    markings = [detector_marking(program), *random_markings(program, name, count=1)]
    compare(program, markings, max_traces=4, max_actions=200)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    shape=st.sampled_from(SHAPES),
    max_traces=st.sampled_from((1, 3, 12)),
    max_actions=st.sampled_from((2, 7, 60)),
)
def test_generated_programs_match_the_reference(seed, shape, max_traces, max_actions):
    generated = generate_program(seed, shape)
    program = generated.compile()
    markings = [
        sync_marking_for_globals(program, generated.sync_globals),
        *random_markings(program, seed, count=1),
    ]
    compare(program, markings, max_traces, max_actions)


@pytest.mark.parametrize("name, max_traces, max_actions", [("mp", 1, 2), ("dekker", 3, 3)])
def test_truncated_branches_respect_the_trace_budget(name, max_traces, max_actions):
    program = LITMUS_TESTS[name].compile()
    kw = dict(max_traces=max_traces, max_actions=max_actions)
    assert len(oracle.enumerate_sc_traces(program, **kw)) > max_traces
    traces = enumerate_sc_traces(program, **kw)
    assert len(traces) == max_traces
    assert not any(t.complete for t in traces)


def test_long_traces_do_not_hit_the_recursion_limit():
    program = all_programs()["fft"].compile()
    (trace,) = enumerate_sc_traces(program, max_traces=1, max_actions=3000)
    assert len(trace.actions) == 3000
    assert not trace.complete
    assert HappensBefore(trace, detector_marking(program)).races() == []
