"""Copy-based reference implementations of the trace layers (test-only).

These are the versions of SC trace enumeration and happens-before that
the backtracking enumerator and the vector-clock construction replaced:
a recursive DFS that clones every thread, copies memory and the action
list, and re-runs every thread to its next visible action at every
node; and a happens-before that closes a bitset graph of program-order
and sync write -> sync read edges. The tests check the new code against
them field by field.

The enumerator keeps its one known defect — a truncated branch appends
its trace without checking the ``max_traces`` budget — so callers
compare against its output cut to ``max_traces``.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.ir.function import Program
from repro.memmodel.hb import Race, SyncPredicate
from repro.memmodel.interpreter import ThreadExecutor, ThreadState
from repro.memmodel.sc import Trace, TraceAction, make_outcome


def enumerate_sc_traces(
    program: Program,
    max_traces: int = 2_000,
    max_actions: int = 200,
    max_steps_per_thread: int = 100_000,
    schedule_filter: Optional[Callable[[int], bool]] = None,
) -> list[Trace]:
    executor = ThreadExecutor(program)
    layout = executor.layout
    traces: list[Trace] = []

    def dfs(
        memory: dict[int, int],
        threads: list[ThreadState],
        actions: list[TraceAction],
    ) -> None:
        if len(traces) >= max_traces:
            return
        progressed = False
        for i, ts in enumerate(threads):
            if ts.done:
                continue
            if schedule_filter is not None and not schedule_filter(i):
                continue
            new_threads = [t.clone() for t in threads]
            new_memory = dict(memory)
            clone = new_threads[i]
            pending = executor.next_action(clone, max_steps_per_thread)
            if pending is None:
                dfs(new_memory, new_threads, actions)
                progressed = True
                continue
            new_actions = list(actions)
            if len(new_actions) >= max_actions:
                traces.append(
                    Trace(
                        new_actions,
                        make_outcome(layout, new_memory, new_threads),
                        complete=False,
                    )
                )
                return
            index = len(new_actions)
            if pending.kind == "load":
                value = new_memory.get(pending.addr, 0)
                new_actions.append(
                    TraceAction(index, clone.tid, False, pending.addr, value, pending.inst)
                )
                executor.commit(clone, pending, value)
            elif pending.kind == "store":
                new_memory[pending.addr] = pending.value
                new_actions.append(
                    TraceAction(
                        index, clone.tid, True, pending.addr, pending.value, pending.inst
                    )
                )
                executor.commit(clone, pending)
            elif pending.kind == "rmw":
                old = new_memory.get(pending.addr, 0)
                result, new = pending.rmw_result(old)
                new_actions.append(
                    TraceAction(index, clone.tid, False, pending.addr, old, pending.inst)
                )
                if new is not None:
                    new_memory[pending.addr] = new
                    new_actions.append(
                        TraceAction(
                            index + 1, clone.tid, True, pending.addr, new, pending.inst
                        )
                    )
                executor.commit(clone, pending, result)
            else:  # fence
                executor.commit(clone, pending)
            dfs(new_memory, new_threads, new_actions)
            progressed = True
        if not progressed and len(traces) < max_traces:
            traces.append(
                Trace(
                    list(actions),
                    make_outcome(layout, memory, threads),
                    complete=True,
                )
            )

    dfs(layout.initial_memory(), executor.start_all(), [])
    return traces


class HappensBefore:
    """Happens-before as the transitive closure of a bitset graph."""

    def __init__(self, trace: Trace, is_sync: SyncPredicate) -> None:
        self.actions = trace.actions
        self.is_sync = is_sync
        self._succ: list[int] = [0] * len(self.actions)
        self._build_edges()
        self._reach: list[int] | None = None

    def _build_edges(self) -> None:
        actions = self.actions
        last_of_thread: dict[int, int] = {}
        for i, a in enumerate(actions):
            prev = last_of_thread.get(a.tid)
            if prev is not None:
                self._succ[prev] |= 1 << i
            last_of_thread[a.tid] = i
        for i, w in enumerate(actions):
            if not w.is_write or not self.is_sync(w):
                continue
            for j in range(i + 1, len(actions)):
                r = actions[j]
                if (
                    not r.is_write
                    and r.addr == w.addr
                    and r.tid != w.tid
                    and self.is_sync(r)
                ):
                    self._succ[i] |= 1 << j

    def _transitive_closure(self) -> list[int]:
        if self._reach is not None:
            return self._reach
        reach = list(self._succ)
        for i in range(len(self.actions) - 1, -1, -1):
            successors = reach[i]
            combined = successors
            j = 0
            while successors:
                if successors & 1:
                    combined |= reach[j]
                successors >>= 1
                j += 1
            reach[i] = combined
        self._reach = reach
        return reach

    def happens_before(self, i: int, j: int) -> bool:
        if i >= j:
            return False
        return bool(self._transitive_closure()[i] & (1 << j))

    def races(self) -> list[Race]:
        races: list[Race] = []
        actions = self.actions
        for i, a in enumerate(actions):
            if self.is_sync(a):
                continue
            for j in range(i + 1, len(actions)):
                b = actions[j]
                if self.is_sync(b):
                    continue
                if a.tid == b.tid or a.addr != b.addr:
                    continue
                if not (a.is_write or b.is_write):
                    continue
                if not self.happens_before(i, j):
                    races.append(Race(a, b))
        return races
