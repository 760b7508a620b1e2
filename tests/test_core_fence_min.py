"""Unit tests for locally-optimized fence minimization."""

import pytest

import _delay_core_oracle as oracle
from repro.analysis.escape import EscapeInfo
from repro.arch import get_backend
from repro.core.fence_min import (
    apply_plan,
    barrier_indices,
    binding_deadlines,
    deadline_records,
    plan_fences,
    round_slots,
    span_records,
)
from repro.core.machine_models import MODELS, PSO, RMO, SC, X86_TSO, MemoryModel, OrderKind
from repro.core.orderings import OrderingSet, generate_orderings
from repro.memmodel.litmus import LITMUS_TESTS
from repro.programs import all_programs
from repro.registry.variants import get_variant
from repro.frontend import compile_source
from repro.ir import CFG, Fence, FenceKind
from repro.synth import synthesize_plan


def _plan(src: str, model=X86_TSO, fn: str = "f", entry_fence: bool = False):
    func = compile_source(src, "t").functions[fn]
    esc = EscapeInfo(func)
    orderings = generate_orderings(func, esc)
    return func, orderings, plan_fences(func, orderings, model, entry_fence)


def test_single_wr_ordering_gets_one_full_fence():
    func, _, plan = _plan("global a; global b; fn f() { a = 1; local r = b; }")
    assert len(plan.full_fences) == 1
    assert plan.compiler_count >= 0


def test_shared_fence_covers_overlapping_intervals():
    # a=1; b=2; r=c : both w->r intervals can share one fence before the load.
    func, _, plan = _plan(
        "global a; global b; global c; fn f() { a = 1; b = 2; local r = c; }"
    )
    assert len(plan.full_fences) == 1


def test_disjoint_intervals_need_two_fences():
    src = """
    global a; global b; global c; global d;
    fn f() {
      a = 1;
      local r1 = b;
      c = 2;
      local r2 = d;
    }
    """
    func, _, plan = _plan(src)
    assert len(plan.full_fences) == 2


def test_tso_only_wr_needs_full_fence():
    # pure w->w orderings: compiler directives only on TSO
    func, _, plan = _plan("global a; global b; fn f() { a = 1; b = 2; }")
    assert len(plan.full_fences) == 0
    assert len(plan.compiler_fences) == 1


def test_sc_model_needs_no_full_fences():
    # SC hardware enforces everything, but compiler directives are still
    # required to stop the compiler reordering (paper Section 2.1).
    func, _, plan = _plan(
        "global a; global b; fn f() { a = 1; local r = b; }", model=SC
    )
    assert len(plan.full_fences) == 0
    assert len(plan.compiler_fences) >= 1


def test_rmo_fences_everything():
    func, _, plan = _plan(
        "global a; global b; fn f() { a = 1; b = 2; }", model=RMO
    )
    assert len(plan.full_fences) == 1
    assert len(plan.compiler_fences) == 0


def test_existing_manual_fence_satisfies_interval():
    src = "global a; global b; fn f() { a = 1; fence; local r = b; }"
    func = compile_source(src, "t", include_manual_fences=True).functions["f"]
    esc = EscapeInfo(func)
    orderings = generate_orderings(func, esc)
    plan = plan_fences(func, orderings, X86_TSO)
    assert len(plan.full_fences) == 0


def test_rmw_acts_as_fence_on_tso():
    src = "global a; global b; global l; fn f() { a = 1; local o = xchg(&l, 1); local r = b; }"
    func, orderings, plan = _plan(src)
    # a=1 -> r=b spans the xchg, which is a locked instruction: no mfence needed
    assert len(plan.full_fences) == 0


def test_rmw_not_a_fence_on_rmo():
    src = "global a; global b; global l; fn f() { a = 1; local o = xchg(&l, 1); local r = b; }"
    func, orderings, plan = _plan(src, model=RMO)
    assert len(plan.full_fences) >= 1


def test_cross_block_uses_source_side_projection():
    src = """
    global a; global b; global c;
    fn f() {
      a = 1;
      if (c) { local r = b; }
    }
    """
    func, orderings, plan = _plan(src)
    # fence must sit in the entry block (between a=1 and the branch)
    assert all(f.block_label == "entry" for f in plan.full_fences)


def test_entry_fence_counted():
    func, _, plan = _plan(
        "global a; fn f() { local r = a; }", entry_fence=True
    )
    assert plan.entry_fence
    assert plan.full_count == len(plan.full_fences) + 1


def test_apply_plan_inserts_fences():
    func, orderings, plan = _plan(
        "global a; global b; fn f() { a = 1; local r = b; }"
    )
    inserted = apply_plan(func, plan)
    fences = [i for i in func.instructions() if isinstance(i, Fence)]
    assert inserted == len(fences)
    assert any(f.kind is FenceKind.FULL for f in fences)


def test_apply_plan_positions_are_between_endpoints():
    src = "global a; global b; fn f() { a = 1; local r = b; }"
    func, orderings, plan = _plan(src)
    apply_plan(func, plan)
    entry = func.entry
    kinds = [type(i).__name__ for i in entry.instructions]
    store_idx = kinds.index("Store")
    fence_idx = next(i for i, k in enumerate(kinds) if k == "Fence")
    load_idx = max(i for i, k in enumerate(kinds) if k == "Load")
    assert store_idx < fence_idx < load_idx


def _every_ordering_enforced(func, orderings, model) -> bool:
    """Check: every full-fence-needing ordering has an enforcement
    instruction between its endpoints (same block) or after the source
    (cross-block)."""
    for ordering in orderings:
        if not model.needs_full_fence(ordering.kind):
            continue
        if model.rmw_is_full_fence and (
            ordering.src.inst.is_atomic_rmw() or ordering.dst.inst.is_atomic_rmw()
        ):
            continue  # enforced by the endpoint's own barrier
        ub, ui = func.position(ordering.src.inst)
        vb, vi = func.position(ordering.dst.inst)
        block = func.blocks[ub]
        span_end = vi if (ub == vb and ui < vi) else len(block.instructions) - 1
        window = block.instructions[ui + 1 : span_end + 1]
        ok = any(
            (isinstance(i, Fence) and i.kind is FenceKind.FULL)
            or (i.is_atomic_rmw() and model.rmw_is_full_fence)
            for i in window
        )
        if not ok:
            return False
    return True


def test_all_orderings_enforced_after_apply():
    sources = [
        "global a; global b; fn f() { a = 1; local r = b; }",
        "global a; global b; global c; fn f() { a = 1; local r = b; c = 2; local s = a; }",
        "global g; fn f() { local i = 0; while (i < 3) { g = g + 1; i = i + 1; } }",
    ]
    for src in sources:
        func = compile_source(src, "t").functions["f"]
        esc = EscapeInfo(func)
        orderings = generate_orderings(func, esc)
        plan = plan_fences(func, orderings, X86_TSO)
        apply_plan(func, plan)
        assert _every_ordering_enforced(func, orderings, X86_TSO), src


def test_every_delay_plan_fences_every_access():
    from repro.core.fence_min import plan_every_delay_fences

    src = "global a; global b; fn f() { a = 1; local r = b; b = r + a; }"
    func = compile_source(src, "t").functions["f"]
    plan = plan_every_delay_fences(func)
    accesses = sum(
        1
        for block in func.blocks
        for inst in block.instructions
        if inst.is_memory_access()
    )
    assert plan.entry_fence
    assert len(plan.full_fences) == accesses
    assert plan.compiler_count == 0
    assert plan.full_count == accesses + 1


def test_every_delay_apply_covers_all_orderings_on_rmo():
    """Stronger than TSO: on RMO every ordering kind needs a fence, and
    the every-delay placement must still enforce them all."""
    from repro.core.fence_min import plan_every_delay_fences

    src = (
        "global a; global b; global c; "
        "fn f() { a = 1; local r = b; c = 2; local s = a; }"
    )
    func = compile_source(src, "t").functions["f"]
    esc = EscapeInfo(func)
    orderings = generate_orderings(func, esc)
    apply_plan(func, plan_every_delay_fences(func))
    assert _every_ordering_enforced(func, orderings, RMO)


# --- the memo on the ordering set -------------------------------------------

MEMO_SRC = """
global a; global b; global c;
fn f() {
  a = 1;
  local r = b;
  if (r == 0) { c = 2; }
  local s = a;
}
"""


def test_plans_and_intervals_are_memoized_per_input():
    func, orderings, plan = _plan(MEMO_SRC)
    assert plan_fences(func, orderings, X86_TSO) is plan
    assert plan_fences(func, orderings, PSO) is not plan
    assert plan_fences(func, orderings, X86_TSO, entry_fence=True) is not plan
    assert plan_fences(func, orderings, X86_TSO, projection="target") is not plan
    for build in (span_records, deadline_records):
        built = build(func, orderings, X86_TSO)
        assert build(func, orderings, X86_TSO) is built
        assert build(func, orderings, X86_TSO, "source") is built
        assert build(func, orderings, PSO) is not built
        assert build(func, orderings, PSO) is build(func, orderings, PSO)
        assert build(func, orderings, X86_TSO, "target") is not built
        assert build(func, orderings, X86_TSO, "target") is build(func, orderings, X86_TSO, "target")
    assert ("spans", X86_TSO, "source") in orderings.memo
    assert ("deadlines", X86_TSO, "source") in orderings.memo


def test_bad_projection_raises_and_caches_nothing():
    func, orderings, _ = _plan(MEMO_SRC)
    memo = dict(orderings.memo)
    with pytest.raises(ValueError, match="unknown projection"):
        plan_fences(func, orderings, X86_TSO, projection="diagonal")
    with pytest.raises(ValueError, match="unknown projection"):
        span_records(func, orderings, X86_TSO, "diagonal")
    with pytest.raises(ValueError, match="unknown projection"):
        deadline_records(func, orderings, X86_TSO, "diagonal")
    assert orderings.memo == memo


def test_another_function_is_planned_but_not_memoized():
    func, orderings, plan = _plan(MEMO_SRC)
    twin = compile_source(MEMO_SRC, "t").functions["f"]
    memo = dict(orderings.memo)
    other = plan_fences(twin, orderings, X86_TSO)
    assert other is not plan and other.function is twin
    assert other.fences == plan.fences
    assert plan_fences(twin, orderings, X86_TSO) is not other
    spans = span_records(twin, orderings, PSO, "target")
    assert span_records(twin, orderings, PSO, "target") is not spans
    deadlines = deadline_records(twin, orderings, PSO, "target")
    assert deadline_records(twin, orderings, PSO, "target") is not deadlines
    assert orderings.memo == memo
    assert span_records(func, orderings, PSO, "target") == spans
    assert deadline_records(func, orderings, PSO, "target") == deadlines


@pytest.mark.parametrize("name", sorted(all_programs()))
def test_memo_hits_equal_a_fresh_set(name):
    """Every memo hit equals what a fresh set over the same masks builds."""
    program = all_programs()[name].compile()
    for variant in ("pensieve", "control", "address+control"):
        for model_name in ("x86-tso", "pso", "arm", "power"):
            model = MODELS[model_name]
            analysis = get_variant(variant).analyze(program, model)
            for fa in analysis.functions.values():
                func, pruned, entry = fa.function, fa.pruned, fa.plan.entry_fence
                assert plan_fences(func, pruned, model, entry) is fa.plan
                fresh = OrderingSet.from_masks(func, pruned.layout, list(pruned.succ))
                for projection in ("source", "target"):
                    plan = plan_fences(func, pruned, model, entry, projection)
                    spans = span_records(func, pruned, model, projection)
                    assert span_records(func, fresh, model, projection) == spans
                    deadlines = deadline_records(func, pruned, model, projection)
                    assert deadline_records(func, fresh, model, projection) == deadlines
                    assert plan_fences(func, fresh, model, entry, projection) == plan


# --- span records ------------------------------------------------------------

SOURCES = {
    **{f"corpus/{name}": program for name, program in all_programs().items()},
    **{f"litmus/{name}": test for name, test in LITMUS_TESTS.items()},
}


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_span_records_are_the_narrowest_intervals(name):
    """Every record slot is the smallest ``hi`` among the intervals with
    that block, ``lo`` and kind, under every model and projection."""
    program = SOURCES[name].compile()
    for variant in ("pensieve", "control", "address+control"):
        for model in MODELS.values():
            analysis = get_variant(variant).analyze(program, model)
            for fa in analysis.functions.values():
                for projection in ("source", "target"):
                    by_block = oracle.collect_intervals(
                        fa.function, list(fa.pruned), model, projection
                    )
                    spans = span_records(fa.function, fa.pruned, model, projection)
                    assert spans == oracle.span_records(by_block), (
                        fa.function.name, model.name, projection
                    )


def _covers(src, model, manual=True):
    func = compile_source(src, "t", include_manual_fences=manual).functions["f"]
    orderings = generate_orderings(func, EscapeInfo(func))
    plan = plan_fences(func, orderings, model)
    # The same plan as stabbing every interval one by one.
    intervals = oracle.collect_intervals(func, list(orderings), model)
    assert plan == oracle.plan_fences(func, intervals, model)
    return [(f.gap, f.kind, set(f.covers)) for f in plan.fences]


def test_manual_fence_inside_a_source_leaves_only_the_narrower_kind():
    # a = 1 orders before c = 2 (w->w) and, across the fence, r = b (w->r).
    src = "global a; global b; global c; fn f() { a = 1; c = 2; fence; local r = b; }"
    assert _covers(src, PSO, manual=False) == [
        (1, FenceKind.FULL, {OrderKind.WW, OrderKind.WR}),
        (3, FenceKind.FULL, {OrderKind.WR}),
    ]
    assert _covers(src, PSO) == [(1, FenceKind.FULL, {OrderKind.WW})]


def test_locked_rmw_inside_a_source_leaves_only_the_narrower_kind():
    src = (
        "global a; global b; global c; global l; "
        "fn f() { a = 1; c = 2; local o = xchg(&l, 1); local r = b; }"
    )
    assert _covers(src, PSO) == [(1, FenceKind.FULL, {OrderKind.WW})]
    # Without fence semantics the RMW stops nothing.
    assert {OrderKind.WW, OrderKind.WR} <= _covers(src, RMO)[0][2]


def test_credited_full_fence_inside_a_source_leaves_only_the_narrower_kind():
    # r = x orders before c = 2 (r->w) and s = b (r->r); the full fence
    # before s = b already enforces the wider r->r interval.
    src = "global a; global b; global c; global x; fn f() { local r = x; c = 2; a = 1; local s = b; }"
    assert _covers(src, X86_TSO) == [
        (6, FenceKind.FULL, {OrderKind.WR}),
        (3, FenceKind.COMPILER, {OrderKind.RW}),
        (4, FenceKind.COMPILER, {OrderKind.WW}),
    ]


def test_barrier_at_the_destination_does_not_enforce_it():
    # An RMW that is a compiler barrier but no fence: the orderings into
    # it end at its own index, which it does not separate them from.
    unlocked = MemoryModel(
        "pso-unlocked", frozenset({OrderKind.RR, OrderKind.RW}), rmw_is_full_fence=False
    )
    src = "global x; global l; fn f() { local r = x; local o = xchg(&l, 1); }"
    assert _covers(src, unlocked) == [
        (4, FenceKind.COMPILER, {OrderKind.RR, OrderKind.RW}),
    ]


# --- deadline records --------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_deadline_records_are_the_narrowest_intervals_per_end(name):
    """Every record slot is the largest ``lo`` among the intervals with
    that block, ``hi`` and kind, under every model and projection, with
    the expert ``fence;`` placements kept."""
    program = compile_source(SOURCES[name].source, name, include_manual_fences=True)
    for variant in ("pensieve", "control", "address+control"):
        for model in MODELS.values():
            analysis = get_variant(variant).analyze(program, model)
            for fa in analysis.functions.values():
                for projection in ("source", "target"):
                    by_block = oracle.collect_intervals(
                        fa.function, list(fa.pruned), model, projection
                    )
                    deadlines = deadline_records(fa.function, fa.pruned, model, projection)
                    assert deadlines == oracle.deadline_records(by_block), (
                        fa.function.name, model.name, projection
                    )


def _deadlines(src):
    func = compile_source(src, "t", include_manual_fences=True).functions["f"]
    orderings = generate_orderings(func, EscapeInfo(func))
    records = deadline_records(func, orderings, X86_TSO)[0]
    full_slots, _compiler_slots = round_slots(X86_TSO)
    barriers = barrier_indices(func.blocks[0].instructions, X86_TSO, for_full=True)
    plan = synthesize_plan(func, orderings, X86_TSO, get_backend("x86"))
    return records, binding_deadlines(records, full_slots, barriers), plan


def test_manual_fence_inside_the_narrowest_interval_drops_the_column():
    # x = 1 and y = 2 both order before r = z (w->r, ending at gap 4):
    # [1, 4] and [2, 4]. The fence at index 2 is inside both.
    records, binding, plan = _deadlines(
        "global x; global y; global z; fn f() { x = 1; y = 2; fence; local r = z; }"
    )
    assert records[4] == [-1, -1, 2, -1]
    assert binding == []
    assert plan.full_count == 0


def test_manual_fence_inside_only_a_wider_interval_keeps_the_column():
    # Now [1, 4] and [3, 4]: the fence at index 1 is inside the wider
    # interval only, so the narrower one still binds the DP.
    records, binding, plan = _deadlines(
        "global x; global y; global z; fn f() { x = 1; fence; y = 2; local r = z; }"
    )
    assert records[4] == [-1, -1, 3, -1]
    assert binding == [(4, ((2, 3),))]
    assert [(f.gap, f.flavor) for f in plan.fences if f.kind is FenceKind.FULL] == [
        (4, "mfence")
    ]


@pytest.mark.parametrize(
    "barrier, binds",
    [(1, True), (2, False), (3, False), (4, True)],
)
def test_a_barrier_enforces_a_deadline_only_from_its_lo_to_before_its_hi(barrier, binds):
    # The narrowest w->r interval ending at gap 4 is [2, 4]; an
    # instruction at index b enforces it iff 2 <= b <= 3.
    records = {4: [-1, -1, 2, -1]}
    expected = [(4, ((2, 2),))] if binds else []
    assert binding_deadlines(records, (2,), [barrier]) == expected
