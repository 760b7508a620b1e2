"""Unit tests for ordering generation (Section 4.3) and Table-I pruning."""

import pytest

from repro.analysis.escape import EscapeInfo
from repro.core.machine_models import OrderKind
from repro.core.orderings import Access, Ordering, generate_orderings, logical_accesses
from repro.core.pruning import prune_orderings
from repro.core.signatures import Variant, detect_acquires
from repro.frontend import compile_source
from repro.util.orderedset import OrderedSet


def _orderings(src: str, fn: str = "f"):
    func = compile_source(src, "t").functions[fn]
    esc = EscapeInfo(func)
    return func, esc, generate_orderings(func, esc)


def test_straightline_pairs():
    func, esc, o = _orderings("global a; global b; fn f() { a = 1; b = 2; }")
    assert len(o) == 1
    assert o.orderings[0].kind is OrderKind.WW


def test_kind_classification():
    func, esc, o = _orderings(
        "global a; global b; fn f() { a = 1; local r = b; b = r; local s = a; }"
    )
    counts = o.count_by_kind()
    assert counts[OrderKind.WW] >= 1
    assert counts[OrderKind.WR] >= 1
    assert counts[OrderKind.RW] >= 1
    assert counts[OrderKind.RR] >= 1


def test_loop_generates_both_directions():
    src = "global a; global b; fn f() { local i = 0; while (i < 2) { a = b; i = i + 1; } }"
    func, esc, o = _orderings(src)
    kinds = {x.kind for x in o}
    # b read -> a write and a write -> b read (around the back edge)
    assert OrderKind.RW in kinds
    assert OrderKind.WR in kinds


def test_no_path_no_ordering():
    src = """
    global a; global b; global c;
    fn f() {
      if (c) { a = 1; } else { b = 2; }
    }
    """
    func, esc, o = _orderings(src)
    pairs = {
        (str(x.src.inst.addr), str(x.dst.inst.addr))
        for x in o
        if x.src.inst.is_store() and x.dst.inst.is_store()
    }
    assert ("@a", "@b") not in pairs
    assert ("@b", "@a") not in pairs


def test_rmw_expands_to_read_and_write():
    accesses = logical_accesses(
        compile_source(
            "global g; fn f() { local r = fadd(&g, 1); }", "t"
        ).functions["f"].memory_accesses()
    )
    rmw_parts = [a for a in accesses if a.inst.is_atomic_rmw()]
    assert [a.part for a in rmw_parts] == ["r", "w"]


def test_rmw_halves_not_ordered_against_each_other():
    func, esc, o = _orderings("global g; fn f() { local r = fadd(&g, 1); }")
    assert len(o) == 0  # single RMW: internal halves skipped


def test_rmw_orderings_against_other_accesses():
    func, esc, o = _orderings(
        "global g; global h; fn f() { local r = fadd(&g, 1); h = r; }"
    )
    kinds = sorted(x.kind.value for x in o)
    # rmw.r -> h.w and rmw.w -> h.w
    assert kinds == ["r->w", "w->w"]


def test_self_pairs_excluded_by_default():
    src = "global g; fn f() { local i = 0; while (i < 2) { g = g + 1; i = i + 1; } }"
    func = compile_source(src, "t").functions["f"]
    esc = EscapeInfo(func)
    without = generate_orderings(func, esc, include_self_pairs=False)
    with_self = generate_orderings(func, esc, include_self_pairs=True)
    assert len(with_self) > len(without)
    assert all(x.src.inst is not x.dst.inst or x.src.part != x.dst.part for x in without)


# --- pruning ---------------------------------------------------------------------


MP_CONSUMER = """
global int flag;
global int data;

fn f(tid) {
  local r = 0;
  while (flag == 0) { }
  r = data;
}
"""


def test_prune_keeps_acquire_chains():
    func = compile_source(MP_CONSUMER, "t").functions["f"]
    esc = EscapeInfo(func)
    orderings = generate_orderings(func, esc)
    sync = detect_acquires(func, Variant.CONTROL).sync_reads
    pruned, stats = prune_orderings(orderings, sync)
    # flag read -> data read survives (r_acq -> r)
    assert any(
        x.kind is OrderKind.RR and str(x.src.inst.addr) == "@flag" for x in pruned
    )
    assert stats.total_after <= stats.total_before


def test_prune_drops_data_to_data_reads():
    src = """
    global a; global b; global flag;
    fn f() {
      local r1 = a;    // data read (no branch, no address use)
      local r2 = b;    // data read
      while (flag == 0) { }
    }
    """
    func = compile_source(src, "t").functions["f"]
    esc = EscapeInfo(func)
    orderings = generate_orderings(func, esc)
    sync = detect_acquires(func, Variant.CONTROL).sync_reads
    pruned, _ = prune_orderings(orderings, sync)
    for x in pruned:
        if x.kind is OrderKind.RR:
            assert x.src.inst in sync  # only acquire-sourced r->r survive


def test_prune_always_keeps_into_writes():
    # every ordering into a write is kept (all writes are releases)
    func = compile_source(
        "global a; global b; fn f() { local r = a; b = r; }", "t"
    ).functions["f"]
    esc = EscapeInfo(func)
    orderings = generate_orderings(func, esc)
    pruned, stats = prune_orderings(orderings, OrderedSet())  # no acquires at all
    assert stats.after[OrderKind.RW] == stats.before[OrderKind.RW]
    assert stats.after[OrderKind.WW] == stats.before[OrderKind.WW]


def test_prune_wr_requires_acquire_target():
    func = compile_source(
        "global a; global b; fn f() { a = 1; local r = b; }", "t"
    ).functions["f"]
    esc = EscapeInfo(func)
    orderings = generate_orderings(func, esc)
    no_acq, _ = prune_orderings(orderings, OrderedSet())
    assert all(x.kind is not OrderKind.WR for x in no_acq)
    # making the read an acquire keeps the w->r
    read = list(esc.escaping_reads)[0]
    with_acq, _ = prune_orderings(orderings, OrderedSet([read]))
    assert any(x.kind is OrderKind.WR for x in with_acq)


def test_keep_ordering_rmw_write_half_always_kept():
    src = "global g; global l; fn f() { g = 1; local r = fadd(&l, 1); }"
    func = compile_source(src, "t").functions["f"]
    esc = EscapeInfo(func)
    orderings = generate_orderings(func, esc)
    # g.w -> rmw.w is into a release: kept without any acquires
    pruned, _ = prune_orderings(orderings, OrderedSet())
    assert any(
        x.dst.part == "w" and x.dst.inst.is_atomic_rmw() for x in pruned
    )


def test_pensieve_marking_prunes_nothing():
    func = compile_source(MP_CONSUMER, "t").functions["f"]
    esc = EscapeInfo(func)
    orderings = generate_orderings(func, esc)
    pruned, stats = prune_orderings(orderings, esc.escaping_reads)
    assert stats.total_after == stats.total_before


def test_pruned_is_subset():
    func = compile_source(MP_CONSUMER, "t").functions["f"]
    esc = EscapeInfo(func)
    orderings = generate_orderings(func, esc)
    sync = detect_acquires(func, Variant.CONTROL).sync_reads
    pruned, _ = prune_orderings(orderings, sync)
    base = {(id(x.src.inst), x.src.part, id(x.dst.inst), x.dst.part) for x in orderings}
    sub = {(id(x.src.inst), x.src.part, id(x.dst.inst), x.dst.part) for x in pruned}
    assert sub <= base


# --- RMW and self-pair branches of generate_orderings ----------------------


LOOPED_RMW = """
global g;
fn f() {
  local i = 0;
  while (i < 4) {
    local r = fadd(&g, 1);
    i = i + 1;
  }
}
"""


def test_self_pairs_in_loop_generate_loop_carried_orderings():
    src = "global g; fn f() { local i = 0; while (i < 2) { g = g + 1; i = i + 1; } }"
    func = compile_source(src, "t").functions["f"]
    esc = EscapeInfo(func)
    with_self = generate_orderings(func, esc, include_self_pairs=True)
    self_pairs = [
        x for x in with_self
        if x.src.inst is x.dst.inst and x.src.part == x.dst.part
    ]
    # The loop body reads and writes g: both accesses reach their own
    # next dynamic instance around the back edge.
    assert {x.kind for x in self_pairs} == {OrderKind.RR, OrderKind.WW}


def test_self_pairs_require_a_cycle():
    func = compile_source(
        "global g; fn f() { g = 1; local r = g; }", "t"
    ).functions["f"]
    esc = EscapeInfo(func)
    with_self = generate_orderings(func, esc, include_self_pairs=True)
    without = generate_orderings(func, esc, include_self_pairs=False)
    # Straight-line code: no access reaches itself, so self-pair mode
    # adds nothing.
    assert len(with_self) == len(without)


def test_rmw_halves_excluded_even_with_self_pairs():
    func = compile_source(LOOPED_RMW, "t").functions["f"]
    esc = EscapeInfo(func)
    with_self = generate_orderings(func, esc, include_self_pairs=True)
    # The two halves of one RMW are never ordered against each other —
    # hardware atomicity orders them — not even as a loop-carried
    # r-half -> w-half pair.
    assert not any(
        x.src.inst is x.dst.inst and x.src.part != x.dst.part for x in with_self
    )


def test_rmw_self_pairs_per_half_in_loop():
    func = compile_source(LOOPED_RMW, "t").functions["f"]
    esc = EscapeInfo(func)
    with_self = generate_orderings(func, esc, include_self_pairs=True)
    rmw_self = [
        x for x in with_self
        if x.src.inst is x.dst.inst and x.src.inst.is_atomic_rmw()
    ]
    # Each half self-pairs with its own next-iteration instance only.
    assert {(x.src.part, x.dst.part) for x in rmw_self} == {("r", "r"), ("w", "w")}


# --- weighted surviving-fraction aggregation --------------------------------


def test_surviving_fraction_vacuous_function():
    from repro.core.pruning import PruneStats

    empty = PruneStats(
        before={k: 0 for k in OrderKind}, after={k: 0 for k in OrderKind}
    )
    assert empty.is_vacuous
    assert empty.surviving_fraction == 1.0


def test_aggregate_surviving_fraction_ignores_vacuous_functions():
    from repro.core.pruning import PruneStats, aggregate_surviving_fraction

    def stats(before_rr, after_rr):
        before = {k: 0 for k in OrderKind}
        after = {k: 0 for k in OrderKind}
        before[OrderKind.RR] = before_rr
        after[OrderKind.RR] = after_rr
        return PruneStats(before=before, after=after)

    empty = stats(0, 0)
    half = stats(10, 5)
    # An unweighted mean of per-function fractions would give 0.75;
    # the empty function must carry no weight.
    assert aggregate_surviving_fraction([empty, half]) == 0.5
    # Weighted by ordering count, not averaged per function.
    assert aggregate_surviving_fraction([stats(90, 90), stats(10, 0)]) == 0.9
    # Nothing anywhere to prune: vacuously all survived.
    assert aggregate_surviving_fraction([empty, empty]) == 1.0
    assert aggregate_surviving_fraction([]) == 1.0


def test_program_analysis_surviving_fraction_weighted():
    from repro.core.pipeline import PipelineVariant, analyze_program
    from repro.core.pruning import aggregate_surviving_fraction
    from repro.programs import get_program

    analysis = analyze_program(
        get_program("fft").compile(), PipelineVariant.CONTROL
    )
    expected = aggregate_surviving_fraction(
        fa.prune_stats for fa in analysis.functions.values()
    )
    assert analysis.surviving_fraction == expected
    assert 0.0 < analysis.surviving_fraction < 1.0
