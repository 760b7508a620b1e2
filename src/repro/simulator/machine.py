"""Deterministic event-driven multi-core x86-TSO timed simulator.

Executes a whole IR program (all static threads) once, charging cycle
costs per the :class:`~repro.simulator.costmodel.CostModel`, with
per-thread FIFO store buffers whose entries become globally visible
``drain_period`` cycles apart. The scheduler always advances the thread
with the smallest local clock, and memory commits are applied in global
time order, so a run is fully deterministic — the Fig. 10 experiment
needs reproducible relative execution times, not wall-clock noise.

TSO semantics mirror the exhaustive explorer: loads forward from the
own buffer; ``mfence`` and RMWs stall until the buffer drains; compiler
directives are free.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.ir.function import Program
from repro.ir.instructions import FenceKind
from repro.memmodel.interpreter import (
    ExecutionError,
    PendingAction,
    ThreadExecutor,
    ThreadState,
)
from repro.simulator.costmodel import DEFAULT_COSTS, CostModel


@dataclass
class SimStats:
    """Counters from one simulated run."""

    cycles: int = 0  # makespan: max thread completion time
    per_thread_cycles: dict[int, int] = field(default_factory=dict)
    instructions: int = 0
    shared_loads: int = 0
    shared_stores: int = 0
    rmws: int = 0
    full_fences_executed: int = 0
    compiler_fences_executed: int = 0
    fence_stall_cycles: int = 0
    observations: dict[int, tuple] = field(default_factory=dict)
    final_globals: dict[str, int] = field(default_factory=dict)


@dataclass
class _Buffer:
    """Store buffer state for one thread."""

    entries: list[tuple[int, int, int]] = field(default_factory=list)  # (visible, addr, val)
    last_visible: int = 0

    def enqueue(self, now: int, addr: int, value: int, drain_period: int) -> int:
        visible = max(self.last_visible, now) + drain_period
        self.last_visible = visible
        self.entries.append((visible, addr, value))
        return visible

    def lookup(self, addr: int) -> int | None:
        for visible, entry_addr, value in reversed(self.entries):
            if entry_addr == addr:
                return value
        return None

    def drained_before(self, now: int) -> list[tuple[int, int, int]]:
        """Pop entries visible at or before ``now``."""
        ready = [e for e in self.entries if e[0] <= now]
        self.entries = [e for e in self.entries if e[0] > now]
        return ready


class TSOSimulator:
    """Runs one program to completion under the timed TSO model.

    A thread that runs more than ``max_instructions_per_thread`` steps
    is a runaway (``ExecutionError``). The default is 23 times the
    busiest thread of any corpus, litmus or example simulation (43,294
    steps: ``matrix`` under pensieve fences) and 5.8 times the most
    instructions any of them runs in total (171,186), so ``repro
    simulate`` rejects a spin loop in about two seconds.
    """

    def __init__(
        self,
        program: Program,
        costs: CostModel = DEFAULT_COSTS,
        max_instructions_per_thread: int = 1_000_000,
    ) -> None:
        self.program = program
        self.costs = costs
        self.max_instructions = max_instructions_per_thread
        self.executor = ThreadExecutor(program)
        self.layout = self.executor.layout

    def run(self) -> SimStats:
        stats = SimStats()
        memory = self.layout.initial_memory()
        threads = self.executor.start_all()
        buffers = {ts.tid: _Buffer() for ts in threads}
        # Global commit queue: (visible_time, seq, addr, value). ``seq``
        # preserves issue order among same-time commits.
        commits: list[tuple[int, int, int, int]] = []
        self._commit_seq = 0
        # Ready queue: (clock, tid).
        ready: list[tuple[int, int]] = [(0, ts.tid) for ts in threads]
        heapq.heapify(ready)
        clocks = {ts.tid: 0 for ts in threads}
        by_tid = {ts.tid: ts for ts in threads}

        while ready:
            clock, tid = heapq.heappop(ready)
            ts = by_tid[tid]
            # Apply every commit visible at or before this thread's time.
            while commits and commits[0][0] <= clock:
                _, _, addr, value = heapq.heappop(commits)
                memory[addr] = value

            before_steps = ts.steps
            pending = self.executor.next_action(ts, self.max_instructions)
            invisible = ts.steps - before_steps - (1 if pending is not None else 0)
            clock += invisible * self.costs.alu
            stats.instructions += ts.steps - before_steps

            if pending is None:
                clocks[tid] = clock
                stats.per_thread_cycles[tid] = clock
                stats.observations[tid] = ts.observations
                continue  # thread finished; do not requeue

            clock = self._execute(
                stats, memory, buffers[tid], ts, pending, clock, commits
            )
            clocks[tid] = clock
            heapq.heappush(ready, (clock, tid))

        # Flush any remaining buffered stores into final memory.
        for buffer in buffers.values():
            for _, addr, value in buffer.entries:
                memory[addr] = value
        while commits:
            _, _, addr, value = heapq.heappop(commits)
            memory[addr] = value

        stats.cycles = max(stats.per_thread_cycles.values(), default=0)
        stats.final_globals = self.layout.final_globals(memory)
        return stats

    def _push_commit(
        self, commits: list, visible: int, addr: int, value: int
    ) -> None:
        heapq.heappush(commits, (visible, self._commit_seq, addr, value))
        self._commit_seq += 1

    @staticmethod
    def _apply_commits(
        memory: dict[int, int], commits: list, clock: int
    ) -> None:
        """Make every store whose drain time has passed globally visible."""
        while commits and commits[0][0] <= clock:
            _, _, addr, value = heapq.heappop(commits)
            memory[addr] = value

    def _execute(
        self,
        stats: SimStats,
        memory: dict[int, int],
        buffer: _Buffer,
        ts: ThreadState,
        pending: PendingAction,
        clock: int,
        commits: list[tuple[int, int, int, int]],
    ) -> int:
        costs = self.costs
        if pending.kind == "load":
            stats.shared_loads += 1
            # Commits up to now must reach memory before the buffer is
            # trimmed, or a just-drained own store would become invisible.
            self._apply_commits(memory, commits, clock)
            buffer.drained_before(clock)
            value = buffer.lookup(pending.addr)
            if value is None:
                value = memory.get(pending.addr, 0)
            self.executor.commit(ts, pending, value)
            cost = costs.load
            if getattr(pending.inst, "ordering", "relaxed") == "acquire":
                cost += costs.acquire_load
            return clock + cost

        if pending.kind == "store":
            stats.shared_stores += 1
            buffer.drained_before(clock)
            if len(buffer.entries) >= costs.buffer_capacity:
                # Stall until the oldest entry drains.
                oldest_visible = buffer.entries[0][0]
                stall = max(0, oldest_visible - clock)
                stats.fence_stall_cycles += stall
                clock += stall
                buffer.drained_before(clock)
            visible = buffer.enqueue(clock, pending.addr, pending.value, costs.drain_period)
            self._push_commit(commits, visible, pending.addr, pending.value)
            self.executor.commit(ts, pending)
            cost = costs.store
            if getattr(pending.inst, "ordering", "relaxed") == "release":
                cost += costs.release_store
            return clock + cost

        if pending.kind == "rmw":
            stats.rmws += 1
            clock = self._drain_stall(stats, buffer, clock)
            # Apply pending commits up to now so the RMW sees fresh memory.
            self._apply_commits(memory, commits, clock)
            old = memory.get(pending.addr, 0)
            result, new = pending.rmw_result(old)
            if new is not None:
                memory[pending.addr] = new
            self.executor.commit(ts, pending, result)
            return clock + costs.rmw

        if pending.kind == "fence":
            if pending.fence_kind is FenceKind.FULL:
                stats.full_fences_executed += 1
                clock = self._drain_stall(stats, buffer, clock)
                self.executor.commit(ts, pending)
                return clock + costs.fence_cost(
                    getattr(pending.inst, "flavor", None)
                )
            stats.compiler_fences_executed += 1
            self.executor.commit(ts, pending)
            return clock + costs.compiler_fence

        raise ExecutionError(f"unknown action {pending.kind}")  # pragma: no cover

    def _drain_stall(self, stats: SimStats, buffer: _Buffer, clock: int) -> int:
        """Wait for this thread's buffer to drain completely."""
        if buffer.entries:
            drain_time = buffer.entries[-1][0]
            stall = max(0, drain_time - clock)
            stats.fence_stall_cycles += stall
            clock += stall
            buffer.entries.clear()
        return clock


def simulate(program: Program, costs: CostModel = DEFAULT_COSTS) -> SimStats:
    """Run a program once on the timed TSO machine."""
    return TSOSimulator(program, costs).run()
