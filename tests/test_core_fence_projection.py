"""Tests for the cross-block interval projection ablation."""

import pytest

from repro.analysis.escape import EscapeInfo
from repro.core.fence_min import apply_plan, plan_fences
from repro.core.machine_models import X86_TSO
from repro.core.orderings import generate_orderings
from repro.core.pipeline import PipelineVariant, place_fences
from repro.frontend import compile_source
from repro.ir import Fence, FenceKind
from repro.memmodel.litmus import LITMUS_TESTS
from repro.memmodel.sc import SCExplorer
from repro.memmodel.storebuf import TSOExplorer

CROSS_BLOCK = """
global a; global b; global c;
fn f(tid) {
  a = 1;
  if (c) { local r = b; observe("r", r); }
}
thread f(0);
"""


def _plan(projection: str):
    func = compile_source(CROSS_BLOCK, "t").functions["f"]
    esc = EscapeInfo(func)
    orderings = generate_orderings(func, esc)
    return func, orderings, plan_fences(
        func, orderings, X86_TSO, projection=projection
    )


def test_source_projection_fences_source_block():
    _, _, plan = _plan("source")
    assert all(f.block_label == "entry" for f in plan.full_fences)


def test_target_projection_fences_target_block():
    # The same-block pair (a=1 -> the branch's c load) stays in entry;
    # the cross-block pair (a=1 -> b load) moves into the then-block.
    _, _, plan = _plan("target")
    labels = {f.block_label for f in plan.full_fences}
    assert any(l.startswith("then") for l in labels)
    source_labels = {f.block_label for f in _plan("source")[2].full_fences}
    assert source_labels == {"entry"}


def test_unknown_projection_rejected():
    func = compile_source(CROSS_BLOCK, "t").functions["f"]
    esc = EscapeInfo(func)
    orderings = generate_orderings(func, esc)
    with pytest.raises(ValueError, match="projection"):
        plan_fences(func, orderings, X86_TSO, projection="diagonal")


def _enforced_target_side(func, orderings) -> bool:
    """Target projection soundness: a barrier precedes the destination
    within its block (or sits between the endpoints when same-block)."""
    for ordering in orderings:
        if not X86_TSO.needs_full_fence(ordering.kind):
            continue
        if ordering.src.inst.is_atomic_rmw() or ordering.dst.inst.is_atomic_rmw():
            continue
        ub, ui = func.position(ordering.src.inst)
        vb, vi = func.position(ordering.dst.inst)
        if ub == vb and ui < vi:
            window = func.blocks[ub].instructions[ui + 1 : vi]
        else:
            window = func.blocks[vb].instructions[:vi]
        if not any(
            (isinstance(i, Fence) and i.kind is FenceKind.FULL) or i.is_atomic_rmw()
            for i in window
        ):
            return False
    return True


def test_target_projection_covers_all_orderings():
    func, orderings, plan = _plan("target")
    apply_plan(func, plan)
    assert _enforced_target_side(func, orderings)


@pytest.mark.parametrize("projection", ["source", "target"])
def test_both_projections_restore_sc_on_dekker(projection):
    # End-to-end soundness through the model checker, for both choices.
    from repro.analysis.reachability import ReachabilityTable
    from repro.core.pruning import prune_orderings
    from repro.core.signatures import Variant, detect_acquires

    test = LITMUS_TESTS["dekker"]
    fenced = test.compile()
    for func in fenced.functions.values():
        esc = EscapeInfo(func)
        orderings = generate_orderings(func, esc, ReachabilityTable(func))
        sync = detect_acquires(func, Variant.CONTROL).sync_reads
        pruned, _ = prune_orderings(orderings, sync)
        plan = plan_fences(
            func, pruned, X86_TSO, entry_fence=bool(sync), projection=projection
        )
        apply_plan(func, plan)
    sc = SCExplorer(test.compile()).explore()
    tso = TSOExplorer(fenced).explore()
    assert tso.observation_sets() == sc.observation_sets()


def test_projections_can_disagree_on_counts():
    # A shape where one fence (target side) covers two cross-block
    # orderings that source-side projection needs two fences for.
    src = """
    global a; global b; global c; global sel;
    fn f(tid) {
      if (sel) { a = 1; } else { b = 2; }
      local r = c;
      observe("r", r);
    }
    thread f(0);
    """
    func_s = compile_source(src, "s").functions["f"]
    esc_s = EscapeInfo(func_s)
    plan_s = plan_fences(
        func_s, generate_orderings(func_s, esc_s), X86_TSO, projection="source"
    )
    func_t = compile_source(src, "t").functions["f"]
    esc_t = EscapeInfo(func_t)
    plan_t = plan_fences(
        func_t, generate_orderings(func_t, esc_t), X86_TSO, projection="target"
    )
    assert len(plan_t.full_fences) < len(plan_s.full_fences)
