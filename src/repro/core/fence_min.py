"""Locally-optimized fence minimization (after Fang et al. 2003).

Given the surviving orderings of one function, place as few fences as
possible so that every ordering (u, v) has an enforcement point on
every path from u to v (paper Section 4.4).

Reconstruction of the locally-optimized algorithm:

* Every ordering becomes an *interval* of legal fence gaps inside u's
  basic block. A "gap" ``g`` in a block is the insertion point before
  the instruction at index ``g``. For a same-block ordering with
  ``u`` at index ``iu`` and ``v`` at ``iv > iu``, the interval is
  ``[iu+1, iv]``. For a cross-block (or loop wrap-around) ordering the
  source-side projection is used: ``[iu+1, t]``, where ``t`` is the
  terminator's index — sound, because every path from u to v leaves
  through the end of u's block.
* Per block, minimum-cardinality stabbing of the intervals is the
  classic greedy: sort by right endpoint, place a fence at the right
  endpoint of the first uncovered interval. This is optimal per block
  ("locally optimized").
* A placed fence is a **full** fence if it covers at least one interval
  whose ordering kind the machine model does not enforce in hardware
  (on x86-TSO: only ``w->r``); otherwise it is a zero-cost compiler
  directive. This mirrors the paper exactly: "the decision as to
  whether to place a full fence or a compiler directive determined by
  whether the set of orderings that would be enforced contains one of
  the form w -> r".
* Pre-existing full fences and (on models where they are locked
  instructions) atomic RMWs act as enforcement points: intervals
  already containing one are dropped before stabbing.
* Function-entry fences enforce interprocedural ``w->r`` orderings.
  Pensieve places one in every function with escaping reads; the
  paper's modification places one only if the function contains
  *synchronizing* reads (Section 4.4). The pipeline passes the
  appropriate read set in via ``entry_fence``.

Intervals come straight from the ordering masks of
:mod:`repro.core.orderings`, never from per-pair objects. For source
``i`` with destination mask ``succ[i]``, the bits also in the layout's
``forward[i]`` (same block, later) each give one ``[iu+1, iv]``; the
remaining bits all project to the same interval for a given kind, so
they collapse to at most one interval per kind: ``[iu+1, t]`` in u's
block, or, under the target projection, ``[0, iv]`` once per
destination. RMW endpoints and qualifier-discharged orderings are
masked off per source and per destination before projecting.

Greedy stabbing does not need every interval, only one *span record*
per block and gap start ``lo``: for each of the four ordering kinds,
the smallest ``hi`` among the intervals starting at ``lo``
(:func:`span_records`). Among intervals sharing ``lo``, the one with
the smallest ``hi`` is stabbed first; the gap it lands on is the
leftmost placed gap at or after ``lo``, and since gaps are only ever
appended to the right, every later interval with that ``lo`` lands on
the same gap. So one record stands for all of them: its surviving
kinds join that gap's ``covers`` as one 4-bit mask. A barrier or a
credited gap turns into one ``hi`` threshold per ``lo``, and a kind
survives iff its smallest ``hi`` is within it, exactly as its
narrowest interval does.

The optimal DP (:mod:`repro.synth.optimal`) reads the mirror image,
one *deadline record* per block and gap end ``hi``: for each kind, the
largest ``lo`` among the intervals ending at ``hi``
(:func:`deadline_records`). A placement stabs every interval ending at
``hi`` iff it stabs that narrowest one, and a barrier that enforces
the narrowest one enforces every wider one too, so the record's
binding slots (:func:`binding_deadlines`) are all the DP checks there.
Neither planner ever builds one object per interval.

A function's span and deadline records and greedy plan are pure
functions of its ordering set, the model, the projection and (for
the plan) the entry fence, so each is memoized in the set's ``memo``:
the pipeline's plan, optimal synthesis over the same set and the
greedy plan that synthesis prices all build the delay graph once.
Results are shared and must be treated as read-only; a call passing a
function other than the set's own computes afresh and caches nothing.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from repro.core.machine_models import MemoryModel, OrderKind
from repro.core.orderings import Access, OrderingSet, bits
from repro.ir.function import Function
from repro.ir.instructions import (
    Fence,
    FenceKind,
    FenceOrigin,
    Instruction,
    Load,
    Store,
)


@dataclass(frozen=True)
class PlannedFence:
    """A fence to insert: before instruction index ``gap`` of a block.

    ``covers`` records the ordering kinds this fence is relied on to
    enforce (the kinds of every interval the greedy stabbing assigned to
    this gap). Flavored lowering (:mod:`repro.arch.lowering`) uses it to
    pick the cheapest ISA fence flavor that kills exactly those kinds;
    plain :func:`apply_plan` ignores it and inserts generic full fences.
    """

    block_label: str
    gap: int
    kind: FenceKind
    covers: frozenset[OrderKind] = frozenset()


@dataclass
class FencePlan:
    """The minimized fence placement for one function.

    A planner builds a plan in full before returning it; its fence
    counts are taken once, on first read, and kept."""

    function: Function
    fences: list[PlannedFence] = field(default_factory=list)
    entry_fence: bool = False

    @property
    def full_fences(self) -> list[PlannedFence]:
        return [f for f in self.fences if f.kind is FenceKind.FULL]

    @property
    def compiler_fences(self) -> list[PlannedFence]:
        return [f for f in self.fences if f.kind is FenceKind.COMPILER]

    @cached_property
    def _counts(self) -> tuple[int, int]:
        """Full fences (the entry fence included) and compiler fences."""
        kinds = [f.kind for f in self.fences]
        return kinds.count(FenceKind.FULL) + self.entry_fence, kinds.count(FenceKind.COMPILER)

    @property
    def full_count(self) -> int:
        """Full fences including the function-entry fence, if any."""
        return self._counts[0]

    @property
    def compiler_count(self) -> int:
        return self._counts[1]


def barrier_indices(
    block_insts: list[Instruction], model: MemoryModel, for_full: bool
) -> list[int]:
    """Indices of instructions that already act as enforcement points.

    Full enforcement: existing *unflavored* full fences, plus RMWs when
    the model gives them fence semantics. A flavored fence (a manual
    ``fence eieio;``) kills only its declared subset of ordering kinds,
    which this backend-agnostic planner cannot resolve — crediting it
    as a full barrier would let a weak store fence silently satisfy a
    ``w->r`` delay cut, so flavored fences are conservatively not
    credited (the worst case is a redundant fence next to them, never
    a missing one). Compiler-level enforcement: any fence (every
    hardware fence is at least a compiler barrier) plus RMWs.
    """
    indices = []
    for i, inst in enumerate(block_insts):
        if isinstance(inst, Fence):
            if not for_full:
                indices.append(i)
            elif inst.kind is FenceKind.FULL and inst.flavor is None:
                indices.append(i)
        elif inst.is_atomic_rmw():
            if model.rmw_is_full_fence or not for_full:
                indices.append(i)
    return indices


def _acquire_read(access: Access) -> bool:
    inst = access.inst
    return isinstance(inst, Load) and inst.ordering == "acquire" and access.part == "r"


def _release_write(access: Access) -> bool:
    inst = access.inst
    return isinstance(inst, Store) and inst.ordering == "release" and access.part == "w"


def count_discharged(orderings: OrderingSet) -> int:
    """Orderings a C11-style access qualifier already enforces.

    A ``release`` store kills every ordering *into* its write part
    (those are exactly the ``r->w``/``w->w`` obligations a store-release
    discharges); an ``acquire`` load kills every ordering *out of* its
    read part (``r->r``/``r->w``). Discharged orderings never reach the
    delay graph, so qualified code needs fewer (often zero) fences —
    this is an analysis-level fact shared by the greedy planner and the
    optimal synthesizer alike.
    """
    acquires = orderings.layout.mask(_acquire_read)
    releases = orderings.layout.mask(_release_write)
    return sum(
        (dsts if acquires >> i & 1 else dsts & releases).bit_count()
        for i, dsts in enumerate(orderings.succ)
    )


#: Ordering kinds by index 2 * (source is a write) + (destination is a write).
_KINDS = (OrderKind.RR, OrderKind.RW, OrderKind.WR, OrderKind.WW)
#: The kind set of each 4-bit kind mask (bit ``k`` is ``_KINDS[k]``).
KIND_SETS = tuple(
    frozenset(kind for k, kind in enumerate(_KINDS) if mask >> k & 1) for mask in range(16)
)
#: A span record's ``hi`` for a kind no interval at its ``lo`` has.
NO_SPAN = 1 << 62


def _check_projection(projection: str) -> None:
    if projection not in ("source", "target"):
        raise ValueError(f"unknown projection {projection!r}")


def _memoized(func: Function, orderings: OrderingSet, key: tuple, build):
    """``build()``, kept in ``orderings.memo`` under ``key`` when
    ``func`` is the set's own function (another function's IR may
    differ, so its result is computed and not kept)."""
    if func is not orderings.function:
        return build()
    memo = orderings.memo
    result = memo.get(key)
    if result is None:
        result = memo[key] = build()
    return result


def _endpoint_masks(orderings: OrderingSet, model: MemoryModel) -> tuple[int, int]:
    """The sources to skip and the destinations to keep.

    An ordering whose endpoint is itself a locked RMW is enforced by
    that instruction's own barrier semantics (x86 LOCK prefix); one
    whose endpoint is a suitably-qualified atomic access is enforced
    by the access itself.
    """
    layout = orderings.layout
    locked = layout.mask(lambda a: a.inst.is_atomic_rmw()) if model.rmw_is_full_fence else 0
    return locked | layout.mask(_acquire_read), ~(locked | layout.mask(_release_write))


def span_records(
    func: Function,
    orderings: OrderingSet,
    model: MemoryModel,
    projection: str = "source",
) -> dict[int, dict[int, list[int]]]:
    """Per block and gap start ``lo``: the smallest ``hi`` of each kind.

    Returns ``{block_index: {lo: his}}`` where ``his[k]`` is the
    smallest ``hi`` among the block's delay intervals ``[lo, hi]`` of
    kind ``_KINDS[k]``, or :data:`NO_SPAN` if there is none. Memoized
    on ``orderings``; callers must not mutate it.

    The records come straight from the masks. Accesses are numbered in
    program order, so the nearest same-block destination of a kind is
    the lowest set bit of ``ahead & writes`` (or ``ahead & ~writes``);
    the other destinations give the terminator, or under the target
    projection one ``[0, iv]`` per destination, of which only the
    nearest per block and kind is kept. The two halves of an RMW share
    a ``lo`` and fill different slots of one record.
    """
    _check_projection(projection)
    return _memoized(
        func,
        orderings,
        ("spans", model, projection),
        lambda: _span_records(func, orderings, model, projection),
    )


def _span_records(
    func: Function,
    orderings: OrderingSet,
    model: MemoryModel,
    projection: str,
) -> dict[int, dict[int, list[int]]]:
    layout = orderings.layout
    positions, forward, writes = layout.positions, layout.forward, layout.writes
    reads = ~writes
    skip_sources, keep_dsts = _endpoint_masks(orderings, model)
    by_block: dict[int, dict[int, list[int]]] = {}

    # Target projection: the other destinations, by source part.
    elsewhere = [0, 0]
    for i, dsts in enumerate(orderings.succ):
        dsts &= keep_dsts
        if not dsts or skip_sources >> i & 1:
            continue
        block, index = positions[i]
        src_write = writes >> i & 1
        ahead = dsts & forward[i]
        rest = dsts ^ ahead
        if projection == "target":
            elsewhere[src_write] |= rest
            rest = 0
        if not (ahead or rest):
            continue
        records = by_block.setdefault(block, {})
        his = records.get(index + 1)
        if his is None:
            his = records[index + 1] = [NO_SPAN] * 4
        slot = 2 * src_write
        # Every same-block destination lies before the terminator.
        terminator = len(func.blocks[block].instructions) - 1
        into = ahead & reads
        if into:
            his[slot] = positions[(into & -into).bit_length() - 1][1]
        elif rest & reads:
            his[slot] = terminator
        into = ahead & writes
        if into:
            his[slot + 1] = positions[(into & -into).bit_length() - 1][1]
        elif rest & writes:
            his[slot + 1] = terminator
    for src_write, dsts in enumerate(elsewhere):
        if not dsts:
            continue
        for block, members in layout.block_masks.items():
            into_block = dsts & members
            if not into_block:
                continue
            his = by_block.setdefault(block, {}).setdefault(0, [NO_SPAN] * 4)
            for slot, into in enumerate((into_block & reads, into_block & writes), 2 * src_write):
                if into:
                    his[slot] = positions[(into & -into).bit_length() - 1][1]
    return by_block


def deadline_records(
    func: Function,
    orderings: OrderingSet,
    model: MemoryModel,
    projection: str = "source",
) -> dict[int, dict[int, list[int]]]:
    """Per block and gap end ``hi``: the largest ``lo`` of each kind.

    Returns ``{block_index: {hi: los}}`` where ``los[k]`` is the
    largest ``lo`` among the block's delay intervals ``[lo, hi]`` of
    kind ``_KINDS[k]``, or -1 if there is none — the mirror image of
    :func:`span_records`, and all the optimal DP
    (:mod:`repro.synth.optimal`) reads of the intervals. Memoized on
    ``orderings``; callers must not mutate it.

    The records come straight from the masks, in one reverse
    program-order sweep: the latest source of a part ordered before a
    same-block destination gives that destination's largest ``lo``, so
    a source claims only the destinations no later source of its part
    has claimed. A terminator span, and under the target projection a
    ``[0, iv]`` span, fills a slot only while it is empty: every later
    source's ``lo`` is larger, and every same-block ``lo`` is at least 1.
    """
    _check_projection(projection)
    return _memoized(
        func,
        orderings,
        ("deadlines", model, projection),
        lambda: _deadline_records(func, orderings, model, projection),
    )


def _deadline_records(
    func: Function,
    orderings: OrderingSet,
    model: MemoryModel,
    projection: str,
) -> dict[int, dict[int, list[int]]]:
    layout = orderings.layout
    positions, forward, writes = layout.positions, layout.forward, layout.writes
    skip_sources, keep_dsts = _endpoint_masks(orderings, model)
    succ = orderings.succ
    by_block: dict[int, dict[int, list[int]]] = {}

    # Per source part: the same-block destinations a later source of
    # that part already claimed, and (target projection) the others.
    claimed = [0, 0]
    elsewhere = [0, 0]
    for i in range(len(succ) - 1, -1, -1):
        dsts = succ[i] & keep_dsts
        if not dsts or skip_sources >> i & 1:
            continue
        block, index = positions[i]
        src_write = writes >> i & 1
        ahead = dsts & forward[i]
        rest = dsts ^ ahead
        if projection == "target":
            elsewhere[src_write] |= rest
            rest = 0
        fresh = ahead & ~claimed[src_write]
        claimed[src_write] |= ahead
        if not (fresh or rest):
            continue
        records = by_block.setdefault(block, {})
        lo = index + 1
        slot = 2 * src_write
        for j in bits(fresh):
            hi = positions[j][1]
            los = records.get(hi)
            if los is None:
                los = records[hi] = [-1] * 4
            los[slot + (writes >> j & 1)] = lo
        if rest:
            terminator = len(func.blocks[block].instructions) - 1
            los = records.setdefault(terminator, [-1] * 4)
            if rest & ~writes and los[slot] < 0:
                los[slot] = lo
            if rest & writes and los[slot + 1] < 0:
                los[slot + 1] = lo
    for src_write, dsts in enumerate(elsewhere):
        for j in bits(dsts):
            block, index = positions[j]
            los = by_block.setdefault(block, {}).setdefault(index, [-1] * 4)
            slot = 2 * src_write + (writes >> j & 1)
            if los[slot] < 0:
                los[slot] = 0
    return by_block


def round_slots(model: MemoryModel) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The kind slots needing a full fence on ``model``, and the rest."""
    full = tuple(k for k, kind in enumerate(_KINDS) if model.needs_full_fence(kind))
    return full, tuple(k for k in range(len(_KINDS)) if k not in full)


def surviving_spans(
    records: dict[int, list[int]],
    slots: Sequence[int],
    barriers: Sequence[int],
    credited: Sequence[int] = (),
) -> list[tuple[int, int, int]]:
    """``(smallest hi, lo, kind mask)`` of one block's span records,
    keeping the kinds in ``slots`` that some interval still needs.

    An instruction at index ``k`` of the sorted ``barriers`` enforces
    ``[lo, hi]`` iff ``lo <= k <= hi - 1``, and a gap ``c`` of the
    sorted ``credited`` list (fences placed earlier) iff
    ``lo <= c <= hi``. Both only depend on the first one at or after
    ``lo``, so together they give one threshold per record: an
    interval survives iff its ``hi`` is within it, and a kind survives
    iff its narrowest interval does. Records with no surviving kind are
    left out.
    """
    result = []
    for lo, his in records.items():
        limit = NO_SPAN - 1
        if barriers:
            k = bisect_left(barriers, lo)
            if k < len(barriers):
                limit = barriers[k]
        if credited:
            k = bisect_left(credited, lo)
            if k < len(credited) and credited[k] <= limit:
                limit = credited[k] - 1
        mask = 0
        first = NO_SPAN
        for slot in slots:
            hi = his[slot]
            if hi <= limit:
                mask |= 1 << slot
                if hi < first:
                    first = hi
        if mask:
            result.append((first, lo, mask))
    return result


def binding_deadlines(
    records: dict[int, list[int]],
    slots: Sequence[int],
    barriers: Sequence[int],
) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """``(hi, ((slot, largest lo), ...))`` of one block's deadline
    records in ``hi`` order, keeping the slots in ``slots`` that some
    interval still needs.

    An instruction at index ``b`` of the sorted ``barriers`` enforces
    ``[lo, hi]`` iff ``lo <= b <= hi - 1``. If it enforces the
    narrowest interval at ``hi``, it enforces every wider one there
    too, so a slot binds iff its largest ``lo`` lies after the last
    barrier before ``hi``. Records with no binding slot are left out.
    """
    result = []
    for hi in sorted(records):
        los = records[hi]
        k = bisect_left(barriers, hi)
        last = barriers[k - 1] if k else -1
        due = tuple((slot, los[slot]) for slot in slots if los[slot] > last)
        if due:
            result.append((hi, due))
    return result


def stab_spans(
    records: dict[int, list[int]],
    slots: Sequence[int],
    barriers: Sequence[int],
    credited: Sequence[int] = (),
) -> dict[int, int]:
    """Minimum-cardinality stabbing of one block's intervals of the
    kinds in ``slots`` (classic greedy), one span record at a time.

    Sort by right endpoint and place a fence at the right endpoint of
    the first record no placed fence covers; barriers and credited gaps
    are as in :func:`surviving_spans`. Returns ``{gap: kind mask}`` in
    gap order: each record's surviving kinds join the leftmost placed
    gap at or after its ``lo`` — the kill-set a lowered fence flavor
    must provide.
    """
    if not slots:
        return {}
    covers: dict[int, int] = {}
    gaps: list[int] = []
    for hi, lo, mask in sorted(surviving_spans(records, slots, barriers, credited)):
        # Every placed gap is an earlier record's hi <= hi.
        k = bisect_left(gaps, lo)
        if k < len(gaps):
            covers[gaps[k]] |= mask
        else:
            gaps.append(hi)
            covers[hi] = mask
    return covers


def plan_fences(
    func: Function,
    orderings: OrderingSet,
    model: MemoryModel,
    entry_fence: bool = False,
    projection: str = "source",
) -> FencePlan:
    """Run locally-optimized minimization; returns the plan (no mutation).

    ``projection`` picks which block a cross-block ordering's interval
    lands in: ``"source"`` (Fang-style, the default) or ``"target"`` —
    both sound. The plan is memoized on ``orderings``; callers must not
    mutate it.
    """
    _check_projection(projection)
    return _memoized(
        func,
        orderings,
        ("plan", model, entry_fence, projection),
        lambda: _plan_fences(func, orderings, model, entry_fence, projection),
    )


def _plan_fences(
    func: Function,
    orderings: OrderingSet,
    model: MemoryModel,
    entry_fence: bool,
    projection: str,
) -> FencePlan:
    plan = FencePlan(func, entry_fence=entry_fence)
    spans = span_records(func, orderings, model, projection)
    full_slots, compiler_slots = round_slots(model)

    for block_index in sorted(spans):
        block = func.blocks[block_index]
        records = spans[block_index]

        # Round 1: kinds that require hardware enforcement.
        full_covers = stab_spans(
            records, full_slots, barrier_indices(block.instructions, model, for_full=True)
        )
        for gap, kinds in full_covers.items():
            plan.fences.append(
                PlannedFence(block.label, gap, FenceKind.FULL, covers=KIND_SETS[kinds])
            )

        # Round 2: compiler-only kinds; full fences placed above and
        # existing compiler barriers both count as coverage. (Their
        # kinds are hardware-enforced already, so they never widen a
        # full fence's ``covers`` set.)
        compiler_covers = stab_spans(
            records,
            compiler_slots,
            barrier_indices(block.instructions, model, for_full=False),
            list(full_covers),
        )
        for gap, kinds in compiler_covers.items():
            plan.fences.append(
                PlannedFence(block.label, gap, FenceKind.COMPILER, covers=KIND_SETS[kinds])
            )

    return plan


def plan_every_delay_fences(func: Function) -> FencePlan:
    """The maximally conservative placement: a full fence before every
    memory access, plus a function-entry fence.

    Every ordered pair of accesses then has a full fence between them on
    every path (the fence in front of the later access), so a weak
    machine collapses to SC regardless of which orderings actually
    matter. This is the "every delay enforced" upper bound the
    differential validator (:mod:`repro.validate`) compares detected
    placements against, both for soundness (if even this placement
    cannot restore SC, no fence placement can) and for precision
    (fences saved = this plan's count minus the variant's).
    """
    plan = FencePlan(func, entry_fence=True)
    for block in func.blocks:
        for index, inst in enumerate(block.instructions):
            if inst.is_memory_access():
                plan.fences.append(
                    PlannedFence(block.label, index, FenceKind.FULL)
                )
    return plan


def apply_plan(func: Function, plan: FencePlan) -> int:
    """Insert the planned fences into ``func``; returns fences inserted.

    The function is re-finalized afterwards (instruction uids shift).
    """
    inserted = 0
    by_block: dict[str, list[PlannedFence]] = {}
    for fence in plan.fences:
        by_block.setdefault(fence.block_label, []).append(fence)
    for label, fences in by_block.items():
        block = func.block(label)
        # Insert from the highest gap down so indices stay valid.
        for fence in sorted(fences, key=lambda f: f.gap, reverse=True):
            block.insert(fence.gap, Fence(fence.kind, FenceOrigin.INSERTED))
            inserted += 1
    if plan.entry_fence:
        func.entry.insert(0, Fence(FenceKind.FULL, FenceOrigin.INSERTED))
        inserted += 1
    func.finalize()
    return inserted
