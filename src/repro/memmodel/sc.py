"""Sequentially-consistent execution exploration.

:class:`SCExplorer` is the store-buffer machine of
:mod:`repro.memmodel.storebuf` with buffering switched off: a store
writes memory when it executes, so the machine interleaves visible
actions only. It explores them through the shared DPOR core
(:class:`repro.memmodel.explore.CoreExplorer`, so spin loops terminate
and commuting actions are explored once) and collects the set of final
outcomes. This defines the paper's reference behaviour: "the intended
behavior of the program [is] the set of data read actions of any
possible sequentially consistent execution" — exposed here through
``observe`` results plus final global values.

Also provides bounded *trace* enumeration without state merging, which
the happens-before/race machinery consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.ir.function import Program
from repro.ir.instructions import Instruction
from repro.memmodel.explore import Outcome, make_outcome
from repro.memmodel.interpreter import ThreadExecutor, ThreadState
from repro.memmodel.storebuf import StoreBufferExplorer


class SCExplorer(StoreBufferExplorer):
    """SC: the store-buffer machine that never buffers. A store writes
    memory at once, so every buffer stays empty and no step waits."""

    MODEL_KEY = "sc"
    DEFAULT_MAX_STATES = 500_000
    BUFFERS_STORES = False


# --- bounded trace enumeration (no state merging) ----------------------------


@dataclass(frozen=True)
class TraceAction:
    """One memory action in an execution trace."""

    index: int
    tid: int
    is_write: bool
    addr: int
    value: int
    inst: Instruction = field(hash=False, compare=False)


@dataclass
class Trace:
    actions: list[TraceAction]
    outcome: Outcome
    complete: bool  # False if truncated at ``max_actions``


class _Node:
    """One DFS node of :func:`enumerate_sc_traces`, with its undo record."""

    __slots__ = ("threads", "next", "progressed", "depth", "saved")

    def __init__(self, threads: tuple[ThreadState, ...], depth: int) -> None:
        self.threads = threads
        self.next = 0  # the next thread to try stepping
        self.progressed = False
        #: Action-list length before the step.
        self.depth = depth
        #: (address, value before the step, or None if it was unset).
        self.saved: Optional[tuple[int, Optional[int]]] = None

    def save(self, memory: dict[int, int], addr: int) -> None:
        self.saved = (addr, memory.get(addr))

    def undo(self, memory: dict[int, int], actions: list[TraceAction]) -> None:
        """Take back the step that created this node."""
        if self.saved is not None:
            addr, old = self.saved
            if old is None:
                del memory[addr]
            else:
                memory[addr] = old
        del actions[self.depth :]


def enumerate_sc_traces(
    program: Program,
    max_traces: int = 2_000,
    max_actions: int = 200,
    max_steps_per_thread: int = 100_000,
) -> list[Trace]:
    """Enumerate SC traces by DFS (no state merging), at most ``max_traces``.

    Exponential in general — intended for litmus-scale programs. Each
    RMW contributes a read action then a write action (atomically
    adjacent), matching the paper's read-followed-by-write treatment.
    A branch reaching ``max_actions`` actions ends in a trace marked
    incomplete.

    The DFS backtracks over one memory dict and one action list with an
    explicit stack, so trace length is bounded by ``max_actions``, not
    by the recursion limit. Stepping a thread replaces only that thread:
    a placed :class:`ThreadState` is never mutated, so siblings are
    shared, and each one's probe (its next visible action) is computed
    once, rather than at every node below it. The step itself is the
    explorers' memoized :meth:`ThreadExecutor.step`, so a thread taking
    the same step (same value read) in different traces is committed
    once and its successor shared.
    """
    executor = ThreadExecutor(program)
    layout = executor.layout
    traces: list[Trace] = []
    memory = layout.initial_memory()
    actions: list[TraceAction] = []
    root = _Node(tuple(executor.start_all()), 0)
    if max_traces <= 0:
        return traces
    stack = [root]
    while stack:
        node = stack[-1]
        threads = node.threads
        child: Optional[_Node] = None
        while node.next < len(threads) and child is None:
            i = node.next
            node.next += 1
            ts = threads[i]
            if ts.done:
                continue
            ready, pending = executor.probe(ts, max_steps_per_thread)
            if pending is not None and len(actions) >= max_actions:
                if len(traces) < max_traces:
                    stepped = threads[:i] + (ready,) + threads[i + 1 :]
                    traces.append(
                        Trace(
                            list(actions),
                            make_outcome(layout, memory, stepped),
                            complete=False,
                        )
                    )
                node.progressed = True  # no complete trace ends here
                break
            node.progressed = True
            if len(traces) >= max_traces:
                continue  # the child would end at once
            if pending is None:
                # The thread finished without another visible action.
                child = _Node(threads[:i] + (ready,) + threads[i + 1 :], len(actions))
                continue
            index = len(actions)
            addr = pending.addr
            load_result: Optional[int] = None
            written: Optional[int] = None
            if pending.kind == "load":
                load_result = memory.get(addr, 0)
                actions.append(TraceAction(index, ts.tid, False, addr, load_result, pending.inst))
            elif pending.kind == "store":
                written = pending.value
            elif pending.kind == "rmw":
                old = memory.get(addr, 0)
                load_result, written = pending.rmw_result(old)
                actions.append(TraceAction(index, ts.tid, False, addr, old, pending.inst))
            if written is not None:
                actions.append(
                    TraceAction(len(actions), ts.tid, True, addr, written, pending.inst)
                )
            stepped = executor.step(ready, pending, load_result)
            child = _Node(threads[:i] + (stepped,) + threads[i + 1 :], index)
            if written is not None:
                child.save(memory, addr)
                memory[addr] = written
        if child is not None:
            stack.append(child)
            continue
        if not node.progressed and len(traces) < max_traces:
            traces.append(
                Trace(list(actions), make_outcome(layout, memory, threads), complete=True)
            )
        stack.pop()
        node.undo(memory, actions)
    return traces
