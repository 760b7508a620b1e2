"""End-to-end integration: the pipeline's fences restore SC behaviour.

This is the operational statement of the paper's guarantee: for
well-synchronized (legacy DRF) programs, running the *fenced* program
on relaxed hardware produces exactly the SC outcomes of the original —
data reads included. Verified by exhaustive SC/TSO exploration on
litmus-scale programs, for all three pipeline variants.
"""

import pytest

from repro.core.pipeline import PipelineVariant, place_fences
from repro.frontend import compile_source
from repro.memmodel.litmus import LITMUS_TESTS
from repro.memmodel.sc import SCExplorer
from repro.memmodel.storebuf import TSOExplorer

ALL_VARIANTS = list(PipelineVariant)

WELL_SYNCED = [name for name, t in LITMUS_TESTS.items() if t.well_synchronized]


@pytest.mark.parametrize("variant", ALL_VARIANTS)
@pytest.mark.parametrize("name", WELL_SYNCED)
def test_fenced_drf_litmus_has_sc_behaviour(name, variant):
    test = LITMUS_TESTS[name]
    fenced = test.compile()
    place_fences(fenced, variant)
    sc = SCExplorer(test.compile()).explore()
    tso = TSOExplorer(fenced).explore()
    assert sc.complete and tso.complete
    assert tso.observation_sets() == sc.observation_sets(), name


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_fenced_dekker_mutual_exclusion(variant):
    # Under TSO with pipeline fences, at most one thread enters.
    test = LITMUS_TESTS["dekker"]
    fenced = test.compile()
    place_fences(fenced, variant)
    tso = TSOExplorer(fenced).explore()
    for outcome in tso.outcomes:
        entries = [v for (_, label, v) in outcome.observations if label == "in"]
        assert len(entries) <= 1, outcome


SMALL_SPINLOCK = """
global lock;
global data;

fn worker(tid) {
  local old = 1;
  old = cas(&lock, 0, 1);
  while (old != 0) { old = cas(&lock, 0, 1); }
  data = data + 1;
  lock = 0;
}

fn checker(tid) {
  local seen = 0;
  local old = 1;
  old = cas(&lock, 0, 1);
  while (old != 0) { old = cas(&lock, 0, 1); }
  seen = data;
  lock = 0;
  observe("seen", seen);
}

thread worker(0);
thread checker(1);
"""


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_cas_lock_program_sc_preserved(variant):
    fenced = compile_source(SMALL_SPINLOCK, "lock")
    place_fences(fenced, variant)
    sc = SCExplorer(compile_source(SMALL_SPINLOCK, "lock")).explore()
    tso = TSOExplorer(fenced).explore()
    assert tso.observation_sets() == sc.observation_sets()


HANDOFF = """
global mailbox[4];
global ready;

fn sender(tid) {
  mailbox[0] = 10;
  mailbox[1] = 20;
  mailbox[2] = 30;
  ready = 1;
}

fn receiver(tid) {
  local sum = 0;
  while (ready == 0) { }
  sum = mailbox[0] + mailbox[1] + mailbox[2];
  observe("sum", sum);
}

thread sender(0);
thread receiver(1);
"""


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_multiword_handoff_sc_preserved(variant):
    fenced = compile_source(HANDOFF, "handoff")
    place_fences(fenced, variant)
    sc = SCExplorer(compile_source(HANDOFF, "handoff")).explore()
    tso = TSOExplorer(fenced).explore()
    assert tso.observation_sets() == sc.observation_sets()
    # and the only outcome is the complete message
    assert sc.observation_sets() == {((1, "sum", 60),)}


def test_control_cheaper_than_pensieve_on_handoff():
    pen = compile_source(HANDOFF, "h1")
    ctl = compile_source(HANDOFF, "h2")
    pen_analysis = place_fences(pen, PipelineVariant.PENSIEVE)
    ctl_analysis = place_fences(ctl, PipelineVariant.CONTROL)
    assert ctl_analysis.full_fence_count <= pen_analysis.full_fence_count


def test_annotation_route_matches_fence_route():
    # Alternative application (Section 1.3): annotations name the same
    # acquires that drove the fence placement.
    from repro.core.annotations import suggest_annotations
    from repro.core.pipeline import analyze_program

    program = LITMUS_TESTS["dekker"].compile()
    analysis = analyze_program(program, PipelineVariant.CONTROL)
    annotations = suggest_annotations(analysis)
    acquire_count = sum(1 for a in annotations if a.order == "acquire")
    assert acquire_count == analysis.total_sync_reads


MCS_SMALL = """
global int mcs_nodes[4];
global int mcs_tail;
global int shared;

fn cs(me) {
  local mynode = 0;
  local pred = 0;
  local nxt = 0;
  local won = 0;
  mynode = &mcs_nodes[2 * me];
  mcs_nodes[2 * me + 1] = 0;
  pred = xchg(&mcs_tail, mynode);
  if (pred != 0) {
    *mynode = 1;
    *(pred + 1) = mynode;
    while (*mynode == 1) { }
  }
  shared = shared + 1;
  nxt = *(mynode + 1);
  if (nxt == 0) {
    won = cas(&mcs_tail, mynode, 0);
    if (won != mynode) {
      while (*(mynode + 1) == 0) { }
      nxt = *(mynode + 1);
      *nxt = 0;
    }
  } else {
    *nxt = 0;
  }
}

thread cs(0);
thread cs(1);
"""


@pytest.mark.parametrize("variant", [PipelineVariant.CONTROL, PipelineVariant.ADDRESS_CONTROL])
def test_mcs_lock_sc_preserved(variant):
    fenced = compile_source(MCS_SMALL, "mcs")
    place_fences(fenced, variant)
    sc = SCExplorer(compile_source(MCS_SMALL, "mcs"), max_states=2_000_000).explore()
    tso = TSOExplorer(fenced, max_states=2_000_000).explore()
    assert sc.complete and tso.complete
    sc_finals = {o.globals_dict()["shared"] for o in sc.outcomes}
    tso_finals = {o.globals_dict()["shared"] for o in tso.outcomes}
    assert sc_finals == tso_finals == {2}
