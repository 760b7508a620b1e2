"""Optimal min-cost fence synthesis over the shared delay graph.

The greedy planner (:func:`repro.core.fence_min.plan_fences`)
minimizes fence *count* per block and only then prices each placed
fence with the cheapest sufficient flavor. On flavored ISAs that
two-step can lose: splitting one expensive full fence into two cheap
partial fences (two ``lwsync`` at 66 instead of one ``sync`` at 80)
is never visible to a cardinality objective. This module minimizes
*cost* directly, over the same per-block delay intervals whose span
records the greedy stabs, so any difference between the two plans is
purely better stabbing or better flavoring — never a different delay
graph. The DP reads those intervals as their deadline records
(:func:`~repro.core.fence_min.deadline_records`), built straight from
the ordering masks; the span and deadline records and the greedy plan
that synthesis prices are all memoized on the ordering set, so each
function's delay graph is built once.

Solver structure, per basic block:

* **Candidate positions** are the interval right endpoints: a fence at
  any gap can slide right to the smallest ``hi`` among the intervals
  it stabs without uncovering any of them, and gap costs do not depend
  on position — so an optimal placement using only right endpoints
  always exists.
* **Exact dynamic program** over candidates in left-to-right order.
  The state is, per ordering kind, the rightmost position where a
  fence killing that kind has been placed (4-vector); a transition
  places any subset of the backend's flavors at the current position
  (same-gap stacking is legal and occasionally modeled, though real
  catalogs never reward it). When the scan passes a right endpoint
  the state must already kill each kind at or after the largest
  ``lo`` of that kind's intervals ending there (the deadline record's
  binding slots) — otherwise the branch dies; a flavor option's
  kill-set is a 4-bit mask, so one test per option against the missed
  slots decides it. Dominated states (pointwise older fences, no
  cheaper) are pruned. The greedy plan is one feasible point of this
  program, so the DP result is never costlier than greedy.

The DP is exact on crossing interval families too, where one min-cut
over a delay network must pay inside every pairwise overlap (the
reason Alglave et al., CAV 2014, use an ILP): gap costs do not depend
on position here, so the per-kind state above is all a placement needs
to remember.

Compiler-only intervals are stabbed exactly as in the greedy round 2,
over span records (they cost nothing, so cardinality greedy is already
optimal), and the function-entry fence is priced identically on both
sides, so ``SynthesisPlan.cost <= greedy cost`` holds function-wide,
which the oracle-gated tests assert across the whole corpus.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from repro.arch.backend import ArchBackend, FenceFlavor
from repro.arch.lowering import LoweredFence, LoweredPlan, lower_plan, summarize_lowerings
from repro.core.fence_min import (
    KIND_SETS,
    barrier_indices,
    binding_deadlines,
    count_discharged,
    deadline_records,
    plan_fences,
    round_slots,
    span_records,
    stab_spans,
    surviving_spans,
)
from repro.core.machine_models import MemoryModel, OrderKind
from repro.core.orderings import OrderingSet
from repro.ir.function import Function
from repro.ir.instructions import FenceKind
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

_KINDS = tuple(OrderKind)
#: Each kind's bit in a 4-bit kind mask (bit ``k`` is ``_KINDS[k]``).
_KIND_BITS = {kind: 1 << i for i, kind in enumerate(_KINDS)}


def _kind_mask(kinds: frozenset[OrderKind]) -> int:
    """``kinds`` as a 4-bit kind mask."""
    return sum(_KIND_BITS[kind] for kind in kinds)


@dataclass
class SynthesisPlan(LoweredPlan):
    """An optimal lowered placement, comparable field-by-field with the
    greedy :class:`~repro.arch.lowering.LoweredPlan` (it *is* one:
    ``apply_lowered_plan`` and ``summarize_lowerings`` take it as-is).
    """

    #: Cost of the greedy plan lowered on the same backend — the
    #: baseline this plan improves on (``cost <= greedy_cost`` always).
    greedy_cost: int = 0
    #: Orderings discharged by C11-style acquire/release qualifiers
    #: before the delay graph was built.
    discharged: int = 0

    @property
    def savings(self) -> int:
        """Cycles saved over the greedy placement (>= 0)."""
        return self.greedy_cost - self.cost


def _flavor_options(
    flavors: tuple[FenceFlavor, ...],
) -> list[tuple[int, frozenset[OrderKind], tuple[FenceFlavor, ...]]]:
    """Undominated subsets of the fence ISA placeable at one gap.

    Each option is ``(cost, union kill-set, flavors)``; a subset is
    dropped when another kills at least as much for no more cost. The
    empty subset (place nothing) is not an option — the DP models it
    as a separate transition.
    """
    subsets: list[tuple[int, frozenset[OrderKind], tuple[FenceFlavor, ...]]] = []
    for mask in range(1, 1 << len(flavors)):
        chosen = tuple(f for i, f in enumerate(flavors) if mask >> i & 1)
        cost = sum(f.cost for f in chosen)
        kills = frozenset().union(*(f.kills for f in chosen))
        subsets.append((cost, kills, chosen))
    return [
        (cost, kills, chosen)
        for cost, kills, chosen in subsets
        if not any(
            (o_cost < cost and o_kills >= kills)
            or (o_cost <= cost and o_kills > kills)
            for o_cost, o_kills, _ in subsets
        )
    ]


@lru_cache(maxsize=None)
def _mask_options(
    flavors: tuple[FenceFlavor, ...],
) -> tuple[tuple[int, int, tuple[FenceFlavor, ...]], ...]:
    """:func:`_flavor_options` with each kill-set as a 4-bit kind mask."""
    return tuple(
        (cost, _kind_mask(kills), chosen) for cost, kills, chosen in _flavor_options(flavors)
    )


def _solve_block(
    records: dict[int, list[int]],
    slots: Sequence[int],
    barriers: Sequence[int],
    backend: ArchBackend,
) -> tuple[int, list[tuple[int, FenceFlavor]]]:
    """Exact min-cost placement stabbing every interval of the kinds in
    ``slots`` that no barrier enforces, read from one block's
    :func:`~repro.core.fence_min.deadline_records`.

    Returns ``(cost, [(gap, flavor), ...])`` sorted by gap.
    """
    # A state passes a right endpoint iff each binding slot's latest
    # killing fence is at or after the slot's largest lo.
    deadlines = binding_deadlines(records, slots, barriers)
    if not deadlines:
        return 0, []
    options = _mask_options(backend.flavors)

    start = (-1,) * len(_KINDS)
    # Per position: state -> (cost, predecessor state, flavors placed).
    states: dict[tuple[int, ...], tuple[int, tuple[int, ...] | None, tuple]] = {
        start: (0, None, ())
    }
    layers: list[dict] = []
    for pos, due in deadlines:
        nxt: dict[tuple[int, ...], tuple[int, tuple[int, ...], tuple]] = {}
        for state, (cost, _prev, _placed) in states.items():
            # The slots whose deadline this state misses: only a
            # placement killing all of them keeps the branch alive.
            missed = 0
            for slot, lo in due:
                if state[slot] < lo:
                    missed |= 1 << slot
            if not missed:
                cur = nxt.get(state)
                if cur is None or cost < cur[0]:
                    nxt[state] = (cost, state, ())
            r0, r1, r2, r3 = state
            for opt_cost, kills, opt_flavors in options:
                if missed & ~kills:
                    continue
                placed_state = (
                    pos if kills & 1 else r0,
                    pos if kills & 2 else r1,
                    pos if kills & 4 else r2,
                    pos if kills & 8 else r3,
                )
                total = cost + opt_cost
                cur = nxt.get(placed_state)
                if cur is None or total < cur[0]:
                    nxt[placed_state] = (total, state, opt_flavors)

        # Dominance pruning: a state with pointwise-older fences and no
        # cheaper cost can never win later.
        if len(nxt) > 1:
            kept: list[tuple[int, ...]] = []
            pruned = {}
            for state, value in sorted(nxt.items(), key=lambda kv: kv[1][0]):
                s0, s1, s2, s3 = state
                for k0, k1, k2, k3 in kept:
                    if k0 >= s0 and k1 >= s1 and k2 >= s2 and k3 >= s3:
                        break
                else:
                    kept.append(state)
                    pruned[state] = value
            nxt = pruned
        layers.append(nxt)
        states = nxt

    best_state = min(states, key=lambda s: states[s][0])
    best_cost = states[best_state][0]

    # Walk the parent chain backwards to recover the placements.
    placements: list[tuple[int, FenceFlavor]] = []
    state = best_state
    for (pos, _due), layer in zip(reversed(deadlines), reversed(layers)):
        cost, prev, placed = layer[state]
        for flavor in placed:
            placements.append((pos, flavor))
        state = prev
    placements.sort(key=lambda pf: (pf[0], pf[1].name))
    return best_cost, placements


def synthesize_plan(
    func: Function,
    orderings: OrderingSet,
    model: MemoryModel,
    backend: ArchBackend,
    entry_fence: bool = False,
    projection: str = "source",
) -> SynthesisPlan:
    """Whole-function optimal synthesis; no IR mutation.

    Consumes exactly the inputs :func:`~repro.core.fence_min
    .plan_fences` consumes and returns a :class:`SynthesisPlan` whose
    ``cost`` is minimal for the delay graph and never exceeds
    ``greedy_cost`` (the greedy plan lowered on the same backend).
    """
    plan = SynthesisPlan(func, backend.key)
    plan.discharged = count_discharged(orderings)
    spans = span_records(func, orderings, model, projection)
    deadlines = deadline_records(func, orderings, model, projection)
    full_slots, compiler_slots = round_slots(model)
    dp_seconds = 0.0

    with obs_trace.span(
        "synth.plan", cat="synth", function=func.name, arch=backend.key
    ) as synth_span:
        for block_index in sorted(spans):
            block = func.blocks[block_index]
            records = spans[block_index]
            full_barriers = barrier_indices(block.instructions, model, for_full=True)
            started = time.perf_counter()
            _cost, placements = _solve_block(
                deadlines[block_index], full_slots, full_barriers, backend
            )
            dp_seconds += time.perf_counter() - started

            # Report each fence's kill-set the same way greedy does: a
            # kind some interval at ``lo`` still needs joins the first
            # placement at or after ``lo`` whose flavor kills it. The DP
            # stabs every such interval, so that placement is within it.
            full_gaps = [gap for gap, _flavor in placements]
            kills = [_kind_mask(flavor.kills) for _gap, flavor in placements]
            covers = dict.fromkeys(full_gaps, 0)
            for _hi, lo, mask in surviving_spans(records, full_slots, full_barriers):
                start = bisect_left(full_gaps, lo)
                for k in range(start, len(placements)):
                    if kills[k] & mask:
                        covers[full_gaps[k]] |= kills[k] & mask
                        mask &= ~kills[k]
                        if not mask:
                            break
            for (gap, flavor), kill in zip(placements, kills):
                plan.fences.append(
                    LoweredFence(
                        block.label,
                        gap,
                        FenceKind.FULL,
                        flavor.name,
                        flavor.cost,
                        covers=KIND_SETS[covers[gap] & kill],
                    )
                )

            # Compiler-only intervals cost nothing, so greedy cardinality
            # stabbing (the greedy planner's round 2) is optimal for them.
            if not compiler_slots:
                continue
            compiler = stab_spans(
                records,
                compiler_slots,
                barrier_indices(block.instructions, model, for_full=False),
                full_gaps,
            )
            for gap, kinds in compiler.items():
                plan.fences.append(
                    LoweredFence(
                        block.label, gap, FenceKind.COMPILER, None, 0, covers=KIND_SETS[kinds]
                    )
                )

        if entry_fence:
            full = backend.full_flavor()
            plan.entry_fence = True
            plan.entry_flavor = full.name
            plan.entry_cost = full.cost

        greedy = lower_plan(
            plan_fences(func, orderings, model, entry_fence, projection), backend
        )
        plan.greedy_cost = greedy.cost
        synth_span.set(
            cost=plan.cost,
            greedy_cost=plan.greedy_cost,
            dp_us=int(dp_seconds * 1e6),
        )
    obs_metrics.REGISTRY.observe(
        "repro_synth_dp_seconds", dp_seconds, arch=backend.key
    )
    return plan


def synthesize_analysis(analysis, backend: ArchBackend):
    """Optimal synthesis for a whole
    :class:`~repro.core.pipeline.ProgramAnalysis` — the drop-in
    counterpart of :func:`repro.arch.lowering.lower_analysis`.

    Returns ``(per-function SynthesisPlans, ArchLoweringSummary)``; no
    IR mutation — pair with
    :func:`~repro.arch.lowering.apply_lowered_plan` to insert.
    """
    plans = {
        name: synthesize_plan(
            fa.function,
            fa.pruned,
            analysis.model,
            backend,
            entry_fence=fa.plan.entry_fence,
        )
        for name, fa in analysis.functions.items()
    }
    return plans, summarize_lowerings(backend.key, plans)
