"""Sequentially-consistent execution exploration.

Explores interleavings of visible actions (with dynamic partial-order
reduction and state-key memoization via
:class:`repro.memmodel.explore.CoreExplorer`, so spin loops terminate
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
from functools import partial
from typing import Callable, Iterable, Optional

from repro.ir.function import Program
from repro.ir.instructions import Instruction
from repro.memmodel.explore import LOCAL_FP, CoreExplorer, SharedMap, Transition, advance
from repro.memmodel.interpreter import (
    ExecutionError,
    GlobalLayout,
    PendingAction,
    ThreadExecutor,
    ThreadState,
)


@dataclass(frozen=True)
class Outcome:
    """A final program outcome: observations plus (scalar) global values."""

    observations: tuple[tuple[int, str, int], ...]  # (tid, label, value), sorted
    final_globals: tuple[tuple[str, int], ...]  # sorted name/value pairs

    def observation_dict(self) -> dict[str, int]:
        return {f"{tid}:{label}": value for tid, label, value in self.observations}

    def globals_dict(self) -> dict[str, int]:
        return dict(self.final_globals)


@dataclass
class ExplorationResult:
    outcomes: set[Outcome]
    states_explored: int
    complete: bool
    #: "complete" | "bounded:max-states" | "bounded:depth" — why the
    #: exploration stopped (principled truncation reporting).
    verdict: str = "complete"
    #: Whether partial-order reduction was active for this run.
    reduced: bool = False
    #: Iterative-deepening passes taken (1 for a plain bounded DFS).
    rounds: int = 1

    def __post_init__(self) -> None:
        if not self.complete and self.verdict == "complete":
            self.verdict = "bounded:max-states"

    def observation_sets(self) -> set[tuple[tuple[int, str, int], ...]]:
        return {o.observations for o in self.outcomes}


def make_outcome(
    layout: GlobalLayout,
    memory: dict[int, int],
    threads: Iterable[ThreadState],
    observe_globals: Optional[list[str]] = None,
) -> Outcome:
    observations = tuple(
        sorted(
            (ts.tid, label, value)
            for ts in threads
            for label, value in ts.observations
        )
    )
    final = layout.final_globals(memory)
    if observe_globals is not None:
        final = {k: v for k, v in final.items() if k in observe_globals}
    return Outcome(observations, tuple(sorted(final.items())))


class SCExplorer(CoreExplorer):
    """DPOR DFS over the SC state graph. State = (memory, threads)."""

    MODEL_KEY = "sc"
    DEFAULT_MAX_STATES = 500_000

    def initial_state(self) -> tuple:
        return (
            SharedMap(self.layout.initial_memory()),
            tuple(self.executor.start_all()),
        )

    def threads_of(self, state: tuple) -> tuple[ThreadState, ...]:
        return state[1]

    def state_parts(self, state: tuple) -> tuple[tuple, tuple]:
        memory, threads = state
        return memory.sorted_items(), ((),) * len(threads)

    def outcome_of(self, state: tuple) -> Outcome:
        memory, threads = state
        return make_outcome(self.layout, memory, threads, self.observe_globals)

    def buffers_of(self, state: tuple) -> tuple:
        return ()

    def transitions(self, state: tuple) -> list[Transition]:
        return [self._thread_step(ts) for ts in state[1] if not ts.done]

    def make_step(self, ts: ThreadState) -> Transition:
        ready, pending = self.executor.probe(ts, self.max_steps)
        if pending is None or pending.kind == "fence":
            # A finished thread, or a fence (no-op under SC).
            fp = LOCAL_FP
        elif pending.kind == "load":
            fp = self._addr_fp(pending.addr, reads=True)
        elif pending.kind == "store":
            fp = self._addr_fp(pending.addr, writes=True)
        elif pending.kind == "rmw":
            fp = self._addr_fp(pending.addr, reads=True, writes=True)
        else:  # pragma: no cover
            raise ExecutionError(f"unknown action {pending.kind}")
        i = ts.tid
        return Transition(
            ("t", i), i, True, fp,
            partial(self._successors, self.executor, i, ready, pending),
        )

    @staticmethod
    def _successors(
        executor: ThreadExecutor,
        i: int,
        ready: ThreadState,
        pending: Optional[PendingAction],
        state: tuple,
    ) -> tuple:
        """Thread ``i``'s step builder: ``state`` after the thread
        performs ``pending`` from its probe's ``ready`` state."""
        memory, threads = state
        if pending is None or pending.kind == "fence":
            return ((memory, advance(executor, threads, i, ready, pending)),)
        if pending.kind == "load":
            value = memory.get(pending.addr, 0)
            return ((memory, advance(executor, threads, i, ready, pending, value)),)
        if pending.kind == "store":
            result, new = None, pending.value
        else:
            result, new = pending.rmw_result(memory.get(pending.addr, 0))
        if new is not None:
            memory = SharedMap(memory)
            memory[pending.addr] = new
        return ((memory, advance(executor, threads, i, ready, pending, result)),)


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
    complete: bool  # False if truncated by the depth bound


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
    schedule_filter: Optional[Callable[[int], bool]] = None,
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
            if ts.done or (schedule_filter is not None and not schedule_filter(i)):
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
