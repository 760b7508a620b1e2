"""Pairwise reference implementation of the delay-set core (test-only).

These are the one-object-per-pair versions of ordering generation,
Table I pruning, delay-interval collection, greedy stabbing and optimal
synthesis that the bitmask core in :mod:`repro.core.orderings` replaced.
They are kept verbatim in spirit — nested loops over access pairs, one
:class:`DelayInterval` per ordering, list-scan stabbing — so the tests
can check the mask core against them field by field. The span and
deadline records the mask core plans from are checked against
:func:`span_records` and :func:`deadline_records` of these intervals.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.backend import ArchBackend
from repro.arch.lowering import LoweredFence, lower_plan
from repro.core.fence_min import NO_SPAN, FencePlan, PlannedFence, barrier_indices
from repro.core.machine_models import MemoryModel, OrderKind
from repro.core.orderings import Ordering, logical_accesses
from repro.ir.function import Function
from repro.ir.instructions import FenceKind, Load, Store
from repro.synth.optimal import SynthesisPlan, _flavor_options

_KINDS = tuple(OrderKind)
_KIDX = {kind: i for i, kind in enumerate(_KINDS)}


@dataclass(frozen=True)
class DelayInterval:
    """Gap interval [lo, hi] in one block, tagged with its ordering kind."""

    block_index: int
    lo: int
    hi: int
    needs_full: bool
    kind: OrderKind


def generate_orderings(func, escape_info, reach, include_self_pairs=False) -> list[Ordering]:
    accesses = logical_accesses(escape_info.escaping)
    orderings: list[Ordering] = []
    for u in accesses:
        for v in accesses:
            if u.inst is v.inst:
                if u.part == v.part and not include_self_pairs:
                    continue
                if u.part == v.part:
                    if reach.exists_path(u.inst, v.inst):
                        orderings.append(Ordering(u, v))
                    continue
                continue
            if reach.exists_path(u.inst, v.inst):
                orderings.append(Ordering(u, v))
    return orderings


def keep_ordering(ordering: Ordering, sync_reads) -> bool:
    if ordering.dst.is_write:
        return True
    if not ordering.src.is_write:
        return ordering.src.inst in sync_reads
    return ordering.dst.inst in sync_reads


def count_by_kind(orderings: list[Ordering]) -> dict[OrderKind, int]:
    counts = {kind: 0 for kind in OrderKind}
    for o in orderings:
        counts[o.kind] += 1
    return counts


def discharged_by_qualifier(ordering: Ordering) -> bool:
    dst = ordering.dst
    if isinstance(dst.inst, Store) and dst.inst.ordering == "release" and dst.part == "w":
        return True
    src = ordering.src
    return isinstance(src.inst, Load) and src.inst.ordering == "acquire" and src.part == "r"


def _ordering_interval(func, ordering, model, projection) -> DelayInterval:
    u_block, u_index = func.position(ordering.src.inst)
    v_block, v_index = func.position(ordering.dst.inst)
    kind = ordering.kind
    needs_full = model.needs_full_fence(kind)
    if u_block == v_block and u_index < v_index:
        return DelayInterval(u_block, u_index + 1, v_index, needs_full, kind)
    if projection == "source":
        terminator_index = len(func.blocks[u_block].instructions) - 1
        return DelayInterval(u_block, u_index + 1, terminator_index, needs_full, kind)
    return DelayInterval(v_block, 0, v_index, needs_full, kind)


def collect_intervals(func, orderings, model, projection="source"):
    relevant = [
        o
        for o in orderings
        if not (
            model.rmw_is_full_fence
            and (o.src.inst.is_atomic_rmw() or o.dst.inst.is_atomic_rmw())
        )
        and not discharged_by_qualifier(o)
    ]
    unique: dict = {}
    for o in relevant:
        iv = _ordering_interval(func, o, model, projection)
        unique.setdefault((iv.block_index, iv.lo, iv.hi, iv.kind), iv)
    by_block: dict[int, list[DelayInterval]] = {}
    for iv in unique.values():
        by_block.setdefault(iv.block_index, []).append(iv)
    return by_block


def span_records(by_block):
    """Per block and ``lo``, the smallest ``hi`` of each kind's intervals."""
    spans: dict = {}
    for block, ivs in by_block.items():
        for iv in ivs:
            his = spans.setdefault(block, {}).setdefault(iv.lo, [NO_SPAN] * 4)
            k = _KIDX[iv.kind]
            his[k] = min(his[k], iv.hi)
    return spans


def deadline_records(by_block):
    """Per block and ``hi``, the largest ``lo`` of each kind's intervals."""
    deadlines: dict = {}
    for block, ivs in by_block.items():
        for iv in ivs:
            los = deadlines.setdefault(block, {}).setdefault(iv.hi, [-1] * 4)
            k = _KIDX[iv.kind]
            los[k] = max(los[k], iv.lo)
    return deadlines


def satisfied_by_instruction(interval: DelayInterval, barrier_index: int) -> bool:
    return interval.lo <= barrier_index <= interval.hi - 1


def _stab(intervals, barriers, credited):
    needed = [
        iv for iv in intervals
        if not any(satisfied_by_instruction(iv, k) for k in barriers)
    ]
    placed: dict[int, set[OrderKind]] = {}
    gaps: list[int] = []
    for iv in sorted(needed, key=lambda iv: (iv.hi, iv.lo)):
        if any(iv.lo <= g <= iv.hi for g in credited):
            continue
        covering = [g for g in gaps if iv.lo <= g <= iv.hi]
        if covering:
            placed[covering[0]].add(iv.kind)
            continue
        gaps.append(iv.hi)
        placed[iv.hi] = {iv.kind}
    return placed


def plan_fences(func, by_block, model, entry_fence=False) -> FencePlan:
    """The greedy plan over ``collect_intervals``'s output."""
    plan = FencePlan(func, entry_fence=entry_fence)
    for block_index in sorted(by_block):
        block = func.blocks[block_index]
        ivs = by_block[block_index]
        full = _stab(
            [iv for iv in ivs if iv.needs_full],
            barrier_indices(block.instructions, model, for_full=True),
            [],
        )
        for gap, kinds in full.items():
            plan.fences.append(
                PlannedFence(block.label, gap, FenceKind.FULL, covers=frozenset(kinds))
            )
        compiler = _stab(
            [iv for iv in ivs if not iv.needs_full],
            barrier_indices(block.instructions, model, for_full=False),
            list(full),
        )
        for gap, kinds in compiler.items():
            plan.fences.append(
                PlannedFence(block.label, gap, FenceKind.COMPILER, covers=frozenset(kinds))
            )
    return plan


def solve_block(intervals, backend):
    if not intervals:
        return 0, []
    options = _flavor_options(backend.flavors)
    positions = sorted({iv.hi for iv in intervals})
    deadlines: dict[int, list[DelayInterval]] = {}
    for iv in intervals:
        deadlines.setdefault(iv.hi, []).append(iv)
    states = {(-1,) * len(_KINDS): (0, None, ())}
    layers = []
    for pos in positions:
        due = deadlines[pos]
        nxt: dict = {}

        def consider(state, cost, prev, placed):
            if any(state[_KIDX[iv.kind]] < iv.lo for iv in due):
                return
            cur = nxt.get(state)
            if cur is None or cost < cur[0]:
                nxt[state] = (cost, prev, placed)

        for state, (cost, _prev, _placed) in states.items():
            consider(state, cost, state, ())
            for opt_cost, opt_kills, opt_flavors in options:
                placed_state = tuple(
                    pos if kind in opt_kills else r for kind, r in zip(_KINDS, state)
                )
                consider(placed_state, cost + opt_cost, state, opt_flavors)
        if len(nxt) > 1:
            kept: list = []
            for state, value in sorted(nxt.items(), key=lambda kv: kv[1][0]):
                if not any(
                    all(ks >= s for ks, s in zip(k_state, state)) for k_state, _ in kept
                ):
                    kept.append((state, value))
            nxt = dict(kept)
        layers.append(nxt)
        states = nxt
    best_state = min(states, key=lambda s: states[s][0])
    best_cost = states[best_state][0]
    placements = []
    state = best_state
    for pos, layer in zip(reversed(positions), reversed(layers)):
        _cost, prev, placed = layer[state]
        for flavor in placed:
            placements.append((pos, flavor))
        state = prev
    placements.sort(key=lambda pf: (pf[0], pf[1].name))
    return best_cost, placements


def synthesize_plan(
    func: Function,
    orderings: list[Ordering],
    by_block: dict,
    model: MemoryModel,
    backend: ArchBackend,
    greedy: FencePlan,
) -> SynthesisPlan:
    """Optimal synthesis over ``collect_intervals``'s output; ``greedy``
    is the greedy plan of the same intervals."""
    plan = SynthesisPlan(func, backend.key)
    plan.discharged = sum(1 for o in orderings if discharged_by_qualifier(o))
    for block_index in sorted(by_block):
        block = func.blocks[block_index]
        ivs = by_block[block_index]
        full_barriers = barrier_indices(block.instructions, model, for_full=True)
        full_needed = [
            iv for iv in ivs
            if iv.needs_full and not any(satisfied_by_instruction(iv, k) for k in full_barriers)
        ]
        _cost, placements = solve_block(full_needed, backend)
        covers: dict[int, set[OrderKind]] = {}
        for gap, flavor in placements:
            covers.setdefault(gap, set())
        for iv in full_needed:
            for gap, flavor in placements:
                if iv.lo <= gap <= iv.hi and iv.kind in flavor.kills:
                    covers[gap].add(iv.kind)
                    break
        for gap, flavor in placements:
            plan.fences.append(
                LoweredFence(
                    block.label, gap, FenceKind.FULL, flavor.name, flavor.cost,
                    covers=frozenset(k for k in covers[gap] if k in flavor.kills),
                )
            )
        compiler = _stab(
            [iv for iv in ivs if not iv.needs_full],
            barrier_indices(block.instructions, model, for_full=False),
            [gap for gap, _flavor in placements],
        )
        for gap in sorted(compiler):
            plan.fences.append(
                LoweredFence(
                    block.label, gap, FenceKind.COMPILER, None, 0,
                    covers=frozenset(compiler[gap]),
                )
            )
    if greedy.entry_fence:
        full = backend.full_flavor()
        plan.entry_fence = True
        plan.entry_flavor = full.name
        plan.entry_cost = full.cost
    plan.greedy_cost = lower_plan(greedy, backend).cost
    return plan
