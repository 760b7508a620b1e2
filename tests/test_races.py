"""Tests for the static race detector (repro.races).

Covers the MHP thread structure (spawn reachability, barrier-phase
intervals, master-thread tid guards), the Eraser lockset analysis, the
detector's candidate pipeline (sync-read refinement, element
sensitivity, sync-runtime exclusion), and the explorer-backed verdict
machinery including the RACE002 missed-race path.
"""

import math

import pytest

from repro.frontend import compile_source
from repro.query.engine import QueryEngine
from repro.races import (
    ThreadStructure,
    callees_of,
    compute_locksets,
    confirm_candidates,
    detect_races,
)

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

SB = """
global int x;
global int y;

fn p1(tid) { local r1 = 0; x = 1; r1 = y; observe("r1", r1); }
fn p2(tid) { local r2 = 0; y = 1; r2 = x; observe("r2", r2); }

thread p1(0);
thread p2(1);
"""

# The three-thread handshake the static gate passes but the explorer
# breaks: the consumer's acquire can read the helper's flag write, so
# data is unordered. The canonical RACE002 / fuzz-seed shape.
BROKEN_HANDSHAKE = """
global int flag;
global int data;

fn producer(t) { data = 1; flag = 1; }
fn helper(t) { flag = 1; }
fn consumer(t) {
  local d = 0;
  while (flag == 0) { }
  d = data;
  observe("d", d);
}

thread producer(0);
thread helper(1);
thread consumer(2);
"""


def _context(source, name="test"):
    program = compile_source(source, name=name)
    return program, QueryEngine(program)


# --- call graph / MHP --------------------------------------------------------


def test_callees_of_is_transitive_and_inclusive():
    source = """
    global int x;
    fn a(t) { b(t); }
    fn b(t) { c(t); }
    fn c(t) { x = 1; }
    fn unrelated(t) { x = 2; }
    thread a(0);
    """
    program = compile_source(source, name="chain")
    assert callees_of(program, "a") == frozenset({"a", "b", "c"})


def test_mhp_distinct_spawns_and_self_parallelism():
    program = compile_source(MP, name="mp")
    s = ThreadStructure(program)
    assert s.may_happen_in_parallel("producer", "consumer")
    assert not s.may_happen_in_parallel("producer", "producer")

    twice = compile_source(SB.replace("thread p2(1);", "thread p1(1);"),
                           name="twice")
    s2 = ThreadStructure(twice)
    assert s2.may_happen_in_parallel("p1", "p1")


def test_mhp_unreached_function_never_parallel():
    source = MP + "\nfn idle(tid) { data = 3; }\n"
    program = compile_source(source, name="idle")
    s = ThreadStructure(program)
    assert not s.may_happen_in_parallel("idle", "producer")
    assert "idle" not in s.executed_functions()


# --- barrier phases ----------------------------------------------------------

BARRIERED = """
global int _bar_count;
global int _bar_sense;
global int a;
global int b;

fn barrier_wait(n) {
  local my = 0;
  local arrived = 0;
  my = _bar_sense;
  arrived = fadd(&_bar_count, 1);
  if (arrived == n - 1) {
    _bar_count = 0;
    _bar_sense = 1 - my;
  } else {
    while (_bar_sense == my) { }
  }
}

fn phase0(tid) { a = tid; }
fn phase1(tid) { local r = 0; r = a; b = r; observe("r", r); }

fn worker(tid) {
  phase0(tid);
  barrier_wait(2);
  phase1(tid);
}

thread worker(0);
thread worker(1);
"""


def test_barrier_phases_order_cross_phase_accesses():
    program, engine = _context(BARRIERED, "barriered")
    s = ThreadStructure(program)
    i0 = s.access_interval(0, "phase0", _first_access_uid(program, "phase0"))
    i1 = s.access_interval(1, "phase1", _first_access_uid(program, "phase1"))
    assert i0.hi < i1.lo  # phase0 completes before any phase1 access
    report = detect_races(program, engine)
    # The phase0 write and phase1 read of a are barrier-separated...
    assert not any(
        {c.first.function, c.second.function} == {"phase0", "phase1"}
        for c in report.candidates
    )
    # ...while the same-phase self-race of phase0 (both threads store
    # a concurrently) is correctly kept.
    assert any(
        c.first.function == c.second.function == "phase0"
        for c in report.candidates
    )


def test_barrier_in_loop_widens_to_inf():
    source = BARRIERED.replace(
        "  phase0(tid);\n  barrier_wait(2);\n  phase1(tid);",
        "  local i = 0;\n  while (i < 3) {\n    phase0(tid);\n"
        "    barrier_wait(2);\n    i = i + 1;\n  }\n  phase1(tid);",
    )
    program, _ = _context(source, "loop-barrier")
    s = ThreadStructure(program)
    interval = s.access_interval(0, "phase1",
                                 _first_access_uid(program, "phase1"))
    assert interval.lo >= 0
    summary = s.barrier_summary("worker")
    assert summary.hi == math.inf  # the loop makes the count unbounded


def _first_access_uid(program, func_name):
    for inst in program.functions[func_name].instructions():
        if inst.is_memory_access() and inst.address_operand() is not None:
            points_to_local = str(inst.address_operand()).startswith("%")
            if not points_to_local or "@" in str(inst):
                return inst.uid
    raise AssertionError(f"no global access in {func_name}")


# --- tid guards --------------------------------------------------------------

MASTER_INIT = """
global int shared;

fn setup(tid) {
  if (tid == 0) {
    shared = 1;
  }
}

fn worker(tid) {
  setup(tid);
}

thread worker(0);
thread worker(1);
"""


def test_master_thread_guard_suppresses_self_race():
    program, engine = _context(MASTER_INIT, "master")
    report = detect_races(program, engine)
    assert report.candidates == ()


def test_unguarded_version_of_the_same_store_is_racy():
    source = MASTER_INIT.replace("if (tid == 0) {\n    shared = 1;\n  }",
                                 "shared = 1;")
    program, engine = _context(source, "unguarded")
    report = detect_races(program, engine)
    assert any(c.location == "shared" for c in report.candidates)


# --- locksets ----------------------------------------------------------------

LOCKED = """
global int lock;
global int counter;

fn lock_acquire(l) {
  local old = 1;
  old = cas(l, 0, 1);
  while (old != 0) {
    old = cas(l, 0, 1);
  }
}

fn lock_release(l) {
  *l = 0;
}

fn worker(tid) {
  lock_acquire(&lock);
  counter = counter + 1;
  lock_release(&lock);
}

thread worker(0);
thread worker(1);
"""


def test_locksets_protect_critical_section_accesses():
    program, engine = _context(LOCKED, "locked")
    func = program.functions["worker"]
    locksets = compute_locksets(func, engine.get("points_to", func))
    counter_sets = [
        held
        for inst in func.instructions()
        if inst.is_memory_access() and "counter" in str(inst.operands)
        for held in [locksets.get(inst.uid)]
        if held is not None
    ]
    report = detect_races(program, engine)
    assert not any(c.location == "counter" for c in report.candidates)


def test_lock_runtime_internals_are_sync_accesses():
    program, engine = _context(LOCKED, "locked")
    report = detect_races(program, engine)
    # lock_release's *l = 0 is the release itself, never a candidate.
    assert not any(
        "lock_release" in (c.first.function, c.second.function)
        for c in report.candidates
    )


def test_locked_counter_survives_the_dynamic_sweep():
    """The lock cell is reached through a pointer, so it has no stable
    global name in sync_locations — the dynamic marking must still
    treat the CAS/release accesses as synchronization, or every
    correctly-locked program reports phantom RACE002 gaps."""
    program, engine = _context(LOCKED, "locked")
    report = detect_races(program, engine)
    assert report.candidates == ()
    verdicts = confirm_candidates(program, report)
    assert verdicts.missed == ()


def test_unlocked_counter_is_a_candidate():
    source = LOCKED.replace("  lock_acquire(&lock);\n", "").replace(
        "  lock_release(&lock);\n", ""
    )
    program, engine = _context(source, "unlocked")
    report = detect_races(program, engine)
    assert any(c.location == "counter" for c in report.candidates)


# --- element sensitivity -----------------------------------------------------

PARTITIONED = """
global int arr[8];

fn worker(tid) {
  arr[tid] = tid;
}

thread worker(0);
thread worker(1);
"""


def test_computed_array_indices_assumed_partitioned():
    program, engine = _context(PARTITIONED, "partitioned")
    assert detect_races(program, engine).candidates == ()


def test_same_constant_element_still_conflicts():
    source = PARTITIONED.replace("arr[tid] = tid;", "arr[3] = tid;")
    program, engine = _context(source, "clash")
    report = detect_races(program, engine)
    assert any(c.location == "arr" for c in report.candidates)


def test_distinct_constant_elements_are_disjoint():
    source = """
    global int arr[8];
    fn w0(tid) { arr[0] = 1; }
    fn w1(tid) { arr[1] = 2; }
    thread w0(0);
    thread w1(1);
    """
    program, engine = _context(source, "disjoint")
    assert detect_races(program, engine).candidates == ()


# --- sync-read refinement / detector end-to-end ------------------------------


def test_mp_gate_passes_via_sync_edge():
    program, engine = _context(MP, "mp")
    report = detect_races(program, engine)
    assert report.gate_passes
    assert "flag" in report.sync_locations


def test_null_variant_sees_the_raw_races():
    program, engine = _context(MP, "mp")
    report = detect_races(program, engine, variant="vanilla")
    assert not report.gate_passes  # no sync reads detected -> data races


def test_sb_candidates_confirmed_with_witnesses():
    program, engine = _context(SB, "sb")
    report = detect_races(program, engine)
    assert len(report.candidates) == 2
    verdicts = confirm_candidates(program, report)
    assert verdicts.complete
    for candidate in report.candidates:
        assert verdicts.verdict_of(candidate) == "confirmed"
        witness = verdicts.witnesses[candidate.key]
        assert "T0" in witness.rendering and "*" in witness.rendering


def test_dekker_precision_regression_all_refuted():
    """The z candidates are static false positives (the x/y protocol
    guards z under SC): the explorer must exhaustively refute all of
    them. If detector precision improves, this pins the new shape."""
    from repro.memmodel.litmus import LITMUS_TESTS

    program = compile_source(LITMUS_TESTS["dekker"].source, name="dekker")
    engine = QueryEngine(program)
    report = detect_races(program, engine)
    assert len(report.candidates) == 3
    assert all(c.location == "z" for c in report.candidates)
    verdicts = confirm_candidates(program, report)
    assert verdicts.complete
    assert verdicts.witnesses == {}
    assert verdicts.missed == ()


def test_broken_handshake_is_a_detector_gap():
    program, engine = _context(BROKEN_HANDSHAKE, "broken-handshake")
    report = detect_races(program, engine)
    assert report.gate_passes  # the static gate is fooled
    verdicts = confirm_candidates(program, report)
    assert len(verdicts.missed) == 1
    miss = verdicts.missed[0]
    assert miss.location == "data"
    assert {f for f, _ in miss.pair} == {"producer", "consumer"}
