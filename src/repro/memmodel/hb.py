"""Happens-before and data-race analysis over execution traces.

Follows the paper's Section 3 definitions (after Gharachorloo):

* conflict order: ``w`` is conflict-ordered before ``r`` when both
  access the same address, the write precedes the read in the trace;
* ``u`` happens-before ``v`` iff ``u po v`` or
  ``u po w1 con r1 po w2 con r2 ... po v`` — i.e. reachability in the
  graph whose edges are program order plus write->read conflict edges
  *through synchronization accesses*.

The paper's chains run through synchronization operations; which
accesses count as synchronization is supplied by the caller (ground
truth or detected acquires + conservative releases), so the same
machinery checks both "is this program well-synchronized under the
intended marking" and "is the detected marking sufficient".

That reachability is computed with vector clocks in one forward pass
over the trace, as linear-time race predictors do. Each thread has a
clock; each address keeps the join of the clocks of its sync writes;
a sync read joins its address's clock into its thread's clock. Every
action records its thread's clock, so ``u`` happens-before ``v`` iff
``u`` precedes ``v`` and ``u``'s trace position is at most ``v``'s
clock entry for ``u``'s thread. The marking predicate runs once per
action.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.ir.instructions import Instruction
from repro.memmodel.sc import Trace, TraceAction

SyncPredicate = Callable[[TraceAction], bool]


def all_sync(_: TraceAction) -> bool:
    """Marking where every access synchronizes (trivially race-free)."""
    return True


def sync_from_instructions(
    sync_insts: Iterable[Instruction],
) -> SyncPredicate:
    """Marking from a static instruction set (e.g. detected acquires +
    escaping writes)."""
    ids = {id(i) for i in sync_insts}

    def predicate(action: TraceAction) -> bool:
        return id(action.inst) in ids

    return predicate


@dataclass(frozen=True)
class Race:
    """Two conflicting, hb-unordered data actions."""

    first: TraceAction
    second: TraceAction

    def __repr__(self) -> str:
        return (
            f"Race(addr={self.first.addr:#x}, "
            f"T{self.first.tid}#{self.first.index} vs "
            f"T{self.second.tid}#{self.second.index})"
        )


class HappensBefore:
    """Happens-before for one trace under a sync marking, by vector clocks.

    One forward pass gives every action a clock: entry ``u`` of action
    ``j``'s clock is the trace position of the last thread-``u`` action
    that happens-before ``j`` (or is ``j``), or -1 if none does.
    """

    def __init__(self, trace: Trace, is_sync: SyncPredicate) -> None:
        self.trace = trace
        self.is_sync = is_sync
        self.actions = trace.actions
        self._sync = [bool(is_sync(a)) for a in self.actions]
        slots: dict[int, int] = {}
        for a in self.actions:
            slots.setdefault(a.tid, len(slots))
        self._slot_of = [slots[a.tid] for a in self.actions]
        self._clocks = self._build_clocks(len(slots))

    def _build_clocks(self, width: int) -> list[tuple[int, ...]]:
        # Joining a same-thread write's clock adds nothing: program
        # order already covers it.
        thread_clock = [[-1] * width for _ in range(width)]
        released: dict[int, list[int]] = {}
        clocks: list[tuple[int, ...]] = []
        for k, (a, sync, slot) in enumerate(
            zip(self.actions, self._sync, self._slot_of)
        ):
            clock = thread_clock[slot]
            clock[slot] = k
            if sync:
                writes = released.get(a.addr)
                if a.is_write:
                    released[a.addr] = (
                        list(clock)
                        if writes is None
                        else [max(x, y) for x, y in zip(writes, clock)]
                    )
                elif writes is not None:
                    clock[:] = [max(x, y) for x, y in zip(clock, writes)]
            clocks.append(tuple(clock))
        return clocks

    def happens_before(self, i: int, j: int) -> bool:
        """Does action ``i`` happen-before action ``j``?"""
        if i >= j:
            return False  # edges only point forward in an SC trace
        return i <= self._clocks[j][self._slot_of[i]]

    def races(self) -> list[Race]:
        """All conflicting, hb-unordered pairs of *data* (non-sync) actions.

        Following the paper's data-race definition: two accesses to the
        same address from different threads, at least one a write,
        neither ordered by happens-before, where both are data accesses
        under the marking. Pairs come in ``(i, j)`` trace order.
        """
        actions = self.actions
        clocks = self._clocks
        slot_of = self._slot_of
        # Data actions grouped by address, each group in trace order;
        # walking the data actions in order with a cursor per group
        # yields the pairs in (i, j) order without sorting.
        data: list[int] = []
        groups: dict[int, list[int]] = {}
        for k, a in enumerate(actions):
            if not self._sync[k]:
                data.append(k)
                groups.setdefault(a.addr, []).append(k)
        cursor = dict.fromkeys(groups, 0)
        races: list[Race] = []
        for i in data:
            a = actions[i]
            slot = slot_of[i]
            after = cursor[a.addr] = cursor[a.addr] + 1
            for j in groups[a.addr][after:]:
                b = actions[j]
                if slot_of[j] == slot or not (a.is_write or b.is_write):
                    continue
                if i > clocks[j][slot]:
                    races.append(Race(a, b))
        return races


def find_races(trace: Trace, is_sync: SyncPredicate) -> list[Race]:
    """Convenience wrapper: races of one trace under a marking."""
    return HappensBefore(trace, is_sync).races()
