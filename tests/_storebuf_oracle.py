"""The separate TSO and PSO explorers, kept as a test-only reference.

These are the two explorers that ``repro.memmodel.storebuf``'s single
store-buffer explorer replaced: TSO with a FIFO of ``(addr, value)``
per thread and PSO with a sorted address -> FIFO map per thread. The
code below is unchanged apart from its imports (the per-address map
helpers are inlined) and one cross-reference comment, so ``tests/test_storebuf_oracle.py`` can check
that the merged explorer visits the same number of states and reaches
the same outcomes.

The explorers build their successor states eagerly, through a thread
advance the shared core no longer has (it probes each thread state
once and builds successors lazily, from the state a builder is handed).
The small adapter below restores both for this file: ``Transition``
takes the successor tuple and wraps it in a builder that ignores the
state it is given, and ``CoreExplorer`` adds the old ``_advance``. The
core expands each control configuration once and reuses its
transitions; eager successors depend on the whole state, so the
adapter's ``buffers_of`` returns the whole state (memory included) and
the control key is the whole raw state key. None of this changes what
the explorers compute.
"""

from __future__ import annotations

from typing import Optional

from repro.ir.instructions import FenceKind
from repro.memmodel import explore
from repro.memmodel.explore import LOCAL_FP
from repro.memmodel.interpreter import ExecutionError, ThreadState
from repro.memmodel.sc import Outcome, make_outcome


def Transition(key: tuple, tid: int, is_step: bool, fp, successors: tuple):
    """An eager transition: its builder returns the ready-made states."""
    return explore.Transition(key, tid, is_step, fp, lambda _state: successors)


class CoreExplorer(explore.CoreExplorer):
    def buffers_of(self, state: tuple) -> tuple:
        """The whole state but the threads: eager transitions depend
        on all of it."""
        return self.state_parts(state)

    def _advance(self, threads: tuple[ThreadState, ...], i: int):
        """Clone thread ``i`` only and run it to its next visible
        action; siblings are shared structurally (states never mutate
        a thread in place)."""
        new_threads = list(threads)
        clone = threads[i].clone()
        new_threads[i] = clone
        pending = self.executor.next_action(clone, self.max_steps)
        return tuple(new_threads), clone, pending

AddrFifoMap = tuple[tuple[int, tuple[int, ...]], ...]


def fifo_get(buffer: AddrFifoMap, addr: int) -> tuple[int, ...]:
    for entry_addr, values in buffer:
        if entry_addr == addr:
            return values
    return ()


def fifo_set(buffer: AddrFifoMap, addr: int, values: tuple[int, ...]) -> AddrFifoMap:
    rest = tuple((a, v) for a, v in buffer if a != addr)
    if not values:
        return rest
    return tuple(sorted(rest + ((addr, values),)))


Buffer = tuple[tuple[int, int], ...]  # FIFO of (addr, value); oldest first


class TSOExplorer(CoreExplorer):
    """DPOR DFS over the TSO state graph (threads x buffers x memory).

    State = (memory, threads, buffers)."""

    MODEL_KEY = "x86-tso"

    @staticmethod
    def _buffer_lookup(buffer: Buffer, addr: int) -> Optional[int]:
        """Newest buffered value for ``addr``, if any (store forwarding)."""
        for entry_addr, entry_value in reversed(buffer):
            if entry_addr == addr:
                return entry_value
        return None

    def initial_state(self) -> tuple:
        threads = tuple(self.executor.start_all())
        return (
            self.layout.initial_memory(),
            threads,
            tuple(() for _ in threads),
        )

    def threads_of(self, state: tuple) -> tuple[ThreadState, ...]:
        return state[1]

    def state_parts(self, state: tuple) -> tuple[tuple, tuple]:
        memory, _threads, buffers = state
        return tuple(sorted(memory.items())), buffers

    def buffered_addrs(self, state: tuple, tid: int) -> frozenset[int]:
        return frozenset(addr for addr, _value in state[2][tid])

    def outcome_of(self, state: tuple) -> Outcome:
        memory, threads, _buffers = state
        return make_outcome(self.layout, memory, threads, self.observe_globals)

    def check_final(self, state: tuple) -> None:
        if any(state[2]):  # pragma: no cover - flushes always enabled
            raise ExecutionError("deadlock with non-empty buffer")

    def transitions(self, state: tuple) -> list[Transition]:
        memory, threads, buffers = state
        out: list[Transition] = []

        # (a) buffer flush transitions (oldest entry drains first).
        for i, buffer in enumerate(buffers):
            if not buffer:
                continue
            (addr, value), rest = buffer[0], buffer[1:]
            new_memory = dict(memory)
            new_memory[addr] = value
            new_buffers = buffers[:i] + (rest,) + buffers[i + 1 :]
            out.append(
                Transition(
                    ("f", i),
                    i,
                    False,
                    self._addr_fp(addr, writes=True),
                    ((new_memory, threads, new_buffers),),
                )
            )

        # (b) thread step transitions.
        for i, ts in enumerate(threads):
            if ts.done:
                continue
            new_threads, clone, pending = self._advance(threads, i)
            if pending is None:
                out.append(
                    Transition(
                        ("t", i), i, True, LOCAL_FP, ((memory, new_threads, buffers),)
                    )
                )
                continue
            buffer = buffers[i]
            if pending.kind == "load":
                forwarded = self._buffer_lookup(buffer, pending.addr)
                if forwarded is not None:
                    self.executor.commit(clone, pending, forwarded)
                    # Still a shared-memory read for reduction purposes:
                    # whether it forwards depends on the own flush having
                    # drained, so treating it as invisible would let a
                    # rival flush slip between "own flush; load" unseen.
                    fp = self._addr_fp(pending.addr, reads=True)
                else:
                    self.executor.commit(
                        clone, pending, memory.get(pending.addr, 0)
                    )
                    fp = self._addr_fp(pending.addr, reads=True)
                succ = (memory, new_threads, buffers)
            elif pending.kind == "store":
                new_buffers = (
                    buffers[:i]
                    + (buffer + ((pending.addr, pending.value),),)
                    + buffers[i + 1 :]
                )
                self.executor.commit(clone, pending)
                fp = LOCAL_FP  # buffered: invisible until flushed
                succ = (memory, new_threads, new_buffers)
            elif pending.kind == "rmw":
                if buffer:
                    continue  # LOCK-prefixed: drains the buffer first
                new_memory = dict(memory)
                old = new_memory.get(pending.addr, 0)
                result, new = pending.rmw_result(old)
                if new is not None:
                    new_memory[pending.addr] = new
                self.executor.commit(clone, pending, result)
                fp = self._addr_fp(pending.addr, reads=True, writes=True)
                succ = (new_memory, new_threads, buffers)
            elif pending.kind == "fence":
                if pending.fence_kind is FenceKind.FULL and buffer:
                    continue  # mfence waits for the buffer to drain
                self.executor.commit(clone, pending)
                fp = LOCAL_FP
                succ = (memory, new_threads, buffers)
            else:  # pragma: no cover
                raise ExecutionError(f"unknown action {pending.kind}")
            out.append(Transition(("t", i), i, True, fp, (succ,)))
        return out


# Per-thread buffer: address -> FIFO of pending values (oldest first).
PsoBuffer = AddrFifoMap

_buffer_get = fifo_get
_buffer_set = fifo_set


def _buffer_empty(buffer: PsoBuffer) -> bool:
    return not buffer


class PSOExplorer(CoreExplorer):
    """DPOR DFS over the PSO state graph (threads x per-address
    buffers). State = (memory, threads, buffers)."""

    MODEL_KEY = "pso"

    def initial_state(self) -> tuple:
        threads = tuple(self.executor.start_all())
        return (
            self.layout.initial_memory(),
            threads,
            tuple(() for _ in threads),
        )

    def threads_of(self, state: tuple) -> tuple[ThreadState, ...]:
        return state[1]

    def state_parts(self, state: tuple) -> tuple[tuple, tuple]:
        memory, _threads, buffers = state
        return tuple(sorted(memory.items())), buffers

    def buffered_addrs(self, state: tuple, tid: int) -> frozenset[int]:
        return frozenset(addr for addr, _values in state[2][tid])

    def outcome_of(self, state: tuple) -> Outcome:
        memory, threads, _buffers = state
        return make_outcome(self.layout, memory, threads, self.observe_globals)

    def check_final(self, state: tuple) -> None:
        if any(state[2]):  # pragma: no cover - flushes always enabled
            raise ExecutionError("deadlock with non-empty buffer")

    def transitions(self, state: tuple) -> list[Transition]:
        memory, threads, buffers = state
        out: list[Transition] = []

        # (a) flush the oldest entry of ANY per-address queue: this is
        # where PSO differs from TSO — each address drains
        # independently, so differently-addressed stores reorder.
        for i, buffer in enumerate(buffers):
            for addr, values in buffer:
                new_memory = dict(memory)
                new_memory[addr] = values[0]
                new_buffers = (
                    buffers[:i]
                    + (_buffer_set(buffer, addr, values[1:]),)
                    + buffers[i + 1 :]
                )
                out.append(
                    Transition(
                        ("f", i, addr),
                        i,
                        False,
                        self._addr_fp(addr, writes=True),
                        ((new_memory, threads, new_buffers),),
                    )
                )

        # (b) thread steps.
        for i, ts in enumerate(threads):
            if ts.done:
                continue
            new_threads, clone, pending = self._advance(threads, i)
            if pending is None:
                out.append(
                    Transition(
                        ("t", i), i, True, LOCAL_FP, ((memory, new_threads, buffers),)
                    )
                )
                continue
            buffer = buffers[i]
            if pending.kind == "load":
                values = _buffer_get(buffer, pending.addr)
                if values:
                    self.executor.commit(clone, pending, values[-1])
                    # Shared read for reduction purposes (see TSOExplorer):
                    # forwarding status flips once the own queue drains.
                    fp = self._addr_fp(pending.addr, reads=True)
                else:
                    self.executor.commit(
                        clone, pending, memory.get(pending.addr, 0)
                    )
                    fp = self._addr_fp(pending.addr, reads=True)
                succ = (memory, new_threads, buffers)
            elif pending.kind == "store":
                # A release store orders every earlier store before
                # itself (the w->w obligation PSO relaxes): it waits for
                # the whole buffer to drain, then buffers normally — so
                # the release itself can still be delayed past later
                # reads (w->r stays relaxed, as on hardware).
                if (
                    getattr(pending.inst, "ordering", None) == "release"
                    and not _buffer_empty(buffer)
                ):
                    continue
                values = _buffer_get(buffer, pending.addr)
                new_buffers = (
                    buffers[:i]
                    + (_buffer_set(buffer, pending.addr, values + (pending.value,)),)
                    + buffers[i + 1 :]
                )
                self.executor.commit(clone, pending)
                fp = LOCAL_FP
                succ = (memory, new_threads, new_buffers)
            elif pending.kind == "rmw":
                if not _buffer_empty(buffer):
                    continue
                new_memory = dict(memory)
                old = new_memory.get(pending.addr, 0)
                result, new = pending.rmw_result(old)
                if new is not None:
                    new_memory[pending.addr] = new
                self.executor.commit(clone, pending, result)
                fp = self._addr_fp(pending.addr, reads=True, writes=True)
                succ = (new_memory, new_threads, buffers)
            elif pending.kind == "fence":
                if pending.fence_kind is FenceKind.FULL and not _buffer_empty(
                    buffer
                ):
                    continue
                self.executor.commit(clone, pending)
                fp = LOCAL_FP
                succ = (memory, new_threads, buffers)
            else:  # pragma: no cover
                raise ExecutionError(f"unknown action {pending.kind}")
            out.append(Transition(("t", i), i, True, fp, (succ,)))
        return out
