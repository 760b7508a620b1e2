"""Store buffers for the explorers, and the SC/TSO/PSO explorer.

Every weak explorer buffers a thread's stores in one format: a tuple of
*groups*, oldest first, where each group is a sorted, hashable
``((addr, (v0, v1, ...)), ...)`` map from address to FIFO of pending
values, oldest value first. Only the oldest group drains, and inside it
each address drains on its own. The module owns every operation on that
format — forwarding, appending, sealing, the emptiness and address
queries, and the drain iterator — so no explorer indexes into a buffer.

Whether and where a machine seals decides what it reorders:

* never buffering writes each store to memory when it executes, so
  nothing reorders — SC (:mod:`repro.memmodel.sc`);
* sealing before every store leaves one store per group, so the buffer
  drains as a single FIFO — x86-TSO;
* never sealing leaves one group, so differently-addressed stores drain
  in any order while same-address stores stay ordered — PSO;
* sealing at store-ordering fences (and release stores) gives the
  grouped buffers of the relaxed ARM/POWER explorer
  (:mod:`repro.memmodel.relaxed`).

:class:`StoreBufferExplorer` is the operational SC/TSO/PSO machine:

* stores enqueue into the own buffer (on SC they write memory);
* loads forward from the newest own buffered value, else read memory;
* buffered values drain to memory nondeterministically (see above);
* ``mfence`` and atomic RMWs (LOCK-prefixed on x86) execute only with
  an empty buffer — RMWs then act directly and atomically on memory;
* on PSO, a release store also waits for an empty buffer, then buffers
  normally (``w->w`` into the release is the obligation PSO relaxes);
* compiler directives have no hardware effect.

Exploration runs through the shared DPOR core
(:mod:`repro.memmodel.explore`): buffered stores are thread-local, and
drains of different addresses commute unless some thread may still
access them, so the interleaving blowup collapses to the orderings that
conflict. Final outcomes (all threads done, all
buffers drained) are comparable with the SC machine's
outcomes — the paper's correctness criterion (checked by
:class:`repro.validate.oracle.DifferentialCheck`): a fence placement is good
if the weak outcome set of the fenced program equals the SC outcome set
of the original for the data reads.
"""

from __future__ import annotations

from functools import partial
from typing import Iterator, Optional

from repro.ir.instructions import FenceKind
from repro.memmodel.explore import (
    LOCAL_FP,
    CoreExplorer,
    Outcome,
    SharedMap,
    Transition,
    advance,
    make_outcome,
)
from repro.memmodel.interpreter import ExecutionError, PendingAction, ThreadExecutor, ThreadState

#: One group: address -> FIFO of pending values, sorted by address.
AddrFifoMap = tuple[tuple[int, tuple[int, ...]], ...]
#: A thread's buffer: its groups, oldest first.
Buffer = tuple[AddrFifoMap, ...]


def _fifo_get(group: AddrFifoMap, addr: int) -> tuple[int, ...]:
    for entry_addr, values in group:
        if entry_addr == addr:
            return values
    return ()


def _fifo_set(group: AddrFifoMap, addr: int, values: tuple[int, ...]) -> AddrFifoMap:
    rest = tuple((a, v) for a, v in group if a != addr)
    if not values:
        return rest
    return tuple(sorted(rest + ((addr, values),)))


def forward(buffer: Buffer, addr: int) -> Optional[int]:
    """Newest own-buffered value for ``addr`` (store forwarding)."""
    for group in reversed(buffer):
        values = _fifo_get(group, addr)
        if values:
            return values[-1]
    return None


def append(buffer: Buffer, addr: int, value: int) -> Buffer:
    """Buffer a store into the newest group."""
    if not buffer:
        buffer = ((),)
    newest = buffer[-1]
    newest = _fifo_set(newest, addr, _fifo_get(newest, addr) + (value,))
    return buffer[:-1] + (newest,)


def seal(buffer: Buffer) -> Buffer:
    """Start a new group (no-op when the newest group is empty)."""
    if not buffer or not buffer[-1]:
        return buffer
    return buffer + ((),)


def empty(buffer: Buffer) -> bool:
    # Only seal opens a group, never after an empty one, and drains
    # drop emptied groups: a buffer holding no store is ``()``.
    return not buffer


def holds(buffer: Buffer, addr: int) -> bool:
    """Is a store to ``addr`` still buffered?"""
    return any(_fifo_get(group, addr) for group in buffer)


def addresses(buffer: Buffer) -> frozenset[int]:
    """Every address with a buffered store."""
    return frozenset(addr for group in buffer for addr, _values in group)


#: A step's ``wait`` (:class:`~repro.memmodel.explore.Transition`) for
#: an empty buffer; otherwise it names the one address whose buffered
#: stores must drain first, or is None.
ALL = -1


def blocks(buffer: Buffer, wait: Optional[int]) -> bool:
    """Must a step with blocking condition ``wait`` wait for ``buffer``
    to drain (all of it, or the stores to one address)?"""
    if wait is None or not buffer:
        return False
    return wait == ALL or holds(buffer, wait)


def drains(buffer: Buffer) -> Iterator[tuple[int, int, Buffer]]:
    """Every enabled drain as ``(addr, value, buffer_after)``: the
    oldest value of each address in the oldest group, in address
    order."""
    if not buffer:
        return
    oldest, rest = buffer[0], buffer[1:]
    for addr, values in oldest:
        group = _fifo_set(oldest, addr, values[1:])
        after = ((group,) + rest) if group else rest
        # An emptied oldest group may expose an empty sealed group;
        # drop those too.
        while after and not after[0]:
            after = after[1:]
        yield addr, values[0], after


class BufferedExplorer(CoreExplorer):
    """The transitions of every store-buffer machine: each buffer's
    drains, then each running thread's step unless its blocking
    condition (``Transition.wait``) holds on its own buffer.
    Subclasses make the steps (``make_step``) and the drain builder
    (the static ``_drain``); drain transitions are made once per
    ``(tid, buffer)``."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._drains: dict[tuple[int, Buffer], list[Transition]] = {}

    def buffered_addrs(self, state: tuple, tid: int) -> frozenset[int]:
        return addresses(self.buffers_of(state)[tid])

    def check_final(self, state: tuple) -> None:
        if not all(empty(b) for b in self.buffers_of(state)):  # pragma: no cover
            raise ExecutionError("deadlock with non-empty buffer")

    def transitions(self, state: tuple) -> list[Transition]:
        buffers = self.buffers_of(state)
        out: list[Transition] = []
        for i, buffer in enumerate(buffers):
            if buffer:
                out += self._drains_of(i, buffer)
        for ts in self.threads_of(state):
            if not ts.done:
                t = self._thread_step(ts)
                if not blocks(buffers[ts.tid], t.wait):
                    out.append(t)
        return out

    def _drains_of(self, i: int, buffer: Buffer) -> list[Transition]:
        memo_key = (i, buffer)
        out = self._drains.get(memo_key)
        if out is None:
            out = self._drains[memo_key] = [
                Transition(
                    ("f", i, addr), i, False,
                    self._addr_fp(addr, writes=True),
                    partial(self._drain, i, addr, value, after),
                )
                for addr, value, after in drains(buffer)
            ]
        return out

    @staticmethod
    def _drain(i: int, addr: int, value: int, after: Buffer, state: tuple) -> tuple:
        """``state`` after thread ``i`` drains ``value`` to ``addr``,
        leaving ``after`` in its buffer."""
        raise NotImplementedError


class StoreBufferExplorer(BufferedExplorer):
    """DPOR DFS over a store-buffer machine (threads x buffers x
    memory). State = (memory, threads, buffers)."""

    #: Buffer stores; when False a store writes memory at once (SC).
    BUFFERS_STORES = True
    #: Seal before every store, so the buffer is one FIFO (TSO).
    SEAL_EACH_STORE = True
    #: A release store waits for an empty buffer (PSO).
    RELEASE_DRAINS = False

    def initial_state(self) -> tuple:
        threads = tuple(self.executor.start_all())
        return (
            SharedMap(self.layout.initial_memory()),
            threads,
            tuple(() for _ in threads),
        )

    def threads_of(self, state: tuple) -> tuple[ThreadState, ...]:
        return state[1]

    def buffers_of(self, state: tuple) -> tuple:
        return state[2]

    def state_parts(self, state: tuple) -> tuple[tuple, tuple]:
        memory, _threads, buffers = state
        return memory.sorted_items(), buffers

    def outcome_of(self, state: tuple) -> Outcome:
        memory, threads, _buffers = state
        return make_outcome(self.layout, memory, threads, self.observe_globals)

    def make_step(self, ts: ThreadState) -> Transition:
        ready, pending = self.executor.probe(ts, self.max_steps)
        wait: Optional[int] = None
        if pending is None:
            fp = LOCAL_FP
        elif pending.kind == "load":
            # A forwarded load is still a shared-memory read for
            # reduction purposes: whether it forwards depends on the
            # own drain having happened, so treating it as invisible
            # would let a rival drain slip between "own drain; load"
            # unseen.
            fp = self._addr_fp(pending.addr, reads=True)
        elif pending.kind == "store" and not self.BUFFERS_STORES:
            fp = self._addr_fp(pending.addr, writes=True)
        elif pending.kind == "store":
            if (
                self.RELEASE_DRAINS
                and getattr(pending.inst, "ordering", None) == "release"
            ):
                wait = ALL
            fp = LOCAL_FP  # buffered: invisible until drained
        elif pending.kind == "rmw":
            wait = ALL  # LOCK-prefixed: drains the buffer first
            fp = self._addr_fp(pending.addr, reads=True, writes=True)
        elif pending.kind == "fence":
            if pending.fence_kind is FenceKind.FULL:
                wait = ALL  # mfence waits for the buffer to drain
            fp = LOCAL_FP
        else:  # pragma: no cover
            raise ExecutionError(f"unknown action {pending.kind}")
        i = ts.tid
        return Transition(
            ("t", i), i, True, fp,
            partial(
                self._successors, self.executor, self.BUFFERS_STORES,
                self.SEAL_EACH_STORE, i, ready, pending,
            ),
            wait,
        )

    @staticmethod
    def _drain(i: int, addr: int, value: int, after: Buffer, state: tuple) -> tuple:
        memory, threads, buffers = state
        new_memory = SharedMap(memory)
        new_memory[addr] = value
        return ((new_memory, threads, buffers[:i] + (after,) + buffers[i + 1 :]),)

    @staticmethod
    def _successors(
        executor: ThreadExecutor,
        buffers_stores: bool,
        seal_each_store: bool,
        i: int,
        ready: ThreadState,
        pending: Optional[PendingAction],
        state: tuple,
    ) -> tuple:
        """Thread ``i``'s step builder: ``state`` after the thread
        performs ``pending`` from its probe's ``ready`` state."""
        memory, threads, buffers = state
        if pending is None or pending.kind == "fence":
            return ((memory, advance(executor, threads, i, ready, pending), buffers),)
        buffer = buffers[i]
        if pending.kind == "load":
            value = forward(buffer, pending.addr)
            if value is None:
                value = memory.get(pending.addr, 0)
            return (
                (memory, advance(executor, threads, i, ready, pending, value), buffers),
            )
        if pending.kind == "store" and buffers_stores:
            if seal_each_store:
                buffer = seal(buffer)
            new_buffers = (
                buffers[:i]
                + (append(buffer, pending.addr, pending.value),)
                + buffers[i + 1 :]
            )
            return ((memory, advance(executor, threads, i, ready, pending), new_buffers),)
        # An unbuffered store, or an rmw on an empty buffer.
        if pending.kind == "store":
            result, new = None, pending.value
        else:
            result, new = pending.rmw_result(memory.get(pending.addr, 0))
        if new is not None:
            memory = SharedMap(memory)
            memory[pending.addr] = new
        return ((memory, advance(executor, threads, i, ready, pending, result), buffers),)


class TSOExplorer(StoreBufferExplorer):
    """x86-TSO: one FIFO store buffer per thread."""

    MODEL_KEY = "x86-tso"
    SEAL_EACH_STORE = True
    RELEASE_DRAINS = False


class PSOExplorer(StoreBufferExplorer):
    """PSO: per-address FIFOs, so ``w->w`` to different addresses
    reorders; a release store drains the buffer first."""

    MODEL_KEY = "pso"
    SEAL_EACH_STORE = False
    RELEASE_DRAINS = True
