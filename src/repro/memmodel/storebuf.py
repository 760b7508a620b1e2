"""Store buffers for the weak-model explorers, and the TSO/PSO explorer.

Every weak explorer buffers a thread's stores in one format: a tuple of
*groups*, oldest first, where each group is a sorted, hashable
``((addr, (v0, v1, ...)), ...)`` map from address to FIFO of pending
values, oldest value first. Only the oldest group drains, and inside it
each address drains on its own. The module owns every operation on that
format — forwarding, appending, sealing, the emptiness and address
queries, and the drain iterator — so no explorer indexes into a buffer.

Where a machine seals decides what it reorders:

* sealing before every store leaves one store per group, so the buffer
  drains as a single FIFO — x86-TSO;
* never sealing leaves one group, so differently-addressed stores drain
  in any order while same-address stores stay ordered — PSO;
* sealing at store-ordering fences (and release stores) gives the
  grouped buffers of the relaxed ARM/POWER explorer
  (:mod:`repro.memmodel.relaxed`).

:class:`StoreBufferExplorer` is the operational TSO/PSO machine:

* stores enqueue into the own buffer;
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
buffers drained) are comparable with :class:`repro.memmodel.sc.SCExplorer`
outcomes — the paper's correctness criterion: a fence placement is good
if the weak outcome set of the fenced program equals the SC outcome set
of the original for the data reads.
"""

from __future__ import annotations

from functools import partial
from typing import Iterator, Optional

from repro.ir.function import Program
from repro.ir.instructions import FenceKind
from repro.memmodel.explore import LOCAL_FP, CoreExplorer, SharedMap, Transition
from repro.memmodel.interpreter import ExecutionError, PendingAction, ThreadState
from repro.memmodel.sc import Outcome, SCExplorer, make_outcome

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


class StoreBufferExplorer(CoreExplorer):
    """DPOR DFS over a store-buffer machine (threads x buffers x
    memory). State = (memory, threads, buffers)."""

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

    def state_parts(self, state: tuple) -> tuple[tuple, tuple]:
        memory, _threads, buffers = state
        return memory.sorted_items(), buffers

    def buffered_addrs(self, state: tuple, tid: int) -> frozenset[int]:
        return addresses(state[2][tid])

    def outcome_of(self, state: tuple) -> Outcome:
        memory, threads, _buffers = state
        return make_outcome(self.layout, memory, threads, self.observe_globals)

    def check_final(self, state: tuple) -> None:
        if not all(empty(b) for b in state[2]):  # pragma: no cover
            raise ExecutionError("deadlock with non-empty buffer")

    def transitions(self, state: tuple) -> list[Transition]:
        _memory, threads, buffers = state
        out: list[Transition] = []

        # (a) buffer drains.
        for i, buffer in enumerate(buffers):
            for addr, value, after in drains(buffer):
                out.append(
                    Transition(
                        ("f", i, addr),
                        i,
                        False,
                        self._addr_fp(addr, writes=True),
                        partial(self._drain, state, i, addr, value, after),
                    )
                )

        # (b) thread steps.
        for i, ts in enumerate(threads):
            if ts.done:
                continue
            ready, pending = self.executor.probe(ts, self.max_steps)
            buffer = buffers[i]
            if pending is None:
                fp = LOCAL_FP
            elif pending.kind == "load":
                # A forwarded load is still a shared-memory read for
                # reduction purposes: whether it forwards depends on the
                # own drain having happened, so treating it as invisible
                # would let a rival drain slip between "own drain; load"
                # unseen.
                fp = self._addr_fp(pending.addr, reads=True)
            elif pending.kind == "store":
                if (
                    self.RELEASE_DRAINS
                    and getattr(pending.inst, "ordering", None) == "release"
                    and not empty(buffer)
                ):
                    continue
                fp = LOCAL_FP  # buffered: invisible until drained
            elif pending.kind == "rmw":
                if not empty(buffer):
                    continue  # LOCK-prefixed: drains the buffer first
                fp = self._addr_fp(pending.addr, reads=True, writes=True)
            elif pending.kind == "fence":
                if pending.fence_kind is FenceKind.FULL and not empty(buffer):
                    continue  # mfence waits for the buffer to drain
                fp = LOCAL_FP
            else:  # pragma: no cover
                raise ExecutionError(f"unknown action {pending.kind}")
            out.append(
                Transition(
                    ("t", i), i, True, fp,
                    partial(self._successors, state, i, ready, pending),
                )
            )
        return out

    @staticmethod
    def _drain(
        state: tuple, i: int, addr: int, value: int, after: Buffer
    ) -> tuple:
        memory, threads, buffers = state
        new_memory = SharedMap(memory)
        new_memory[addr] = value
        return ((new_memory, threads, buffers[:i] + (after,) + buffers[i + 1 :]),)

    def _successors(
        self,
        state: tuple,
        i: int,
        ready: ThreadState,
        pending: Optional[PendingAction],
    ) -> tuple:
        """Thread ``i``'s step builder: the state after it performs
        ``pending`` from its probe's ``ready`` state."""
        memory, threads, buffers = state
        if pending is None or pending.kind == "fence":
            return ((memory, self._commit(threads, i, ready, pending), buffers),)
        buffer = buffers[i]
        if pending.kind == "load":
            value = forward(buffer, pending.addr)
            if value is None:
                value = memory.get(pending.addr, 0)
            return ((memory, self._commit(threads, i, ready, pending, value), buffers),)
        if pending.kind == "store":
            if self.SEAL_EACH_STORE:
                buffer = seal(buffer)
            new_buffers = (
                buffers[:i]
                + (append(buffer, pending.addr, pending.value),)
                + buffers[i + 1 :]
            )
            return ((memory, self._commit(threads, i, ready, pending), new_buffers),)
        # rmw, on an empty buffer
        result, new = pending.rmw_result(memory.get(pending.addr, 0))
        if new is not None:
            memory = SharedMap(memory)
            memory[pending.addr] = new
        return ((memory, self._commit(threads, i, ready, pending, result), buffers),)


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


def tso_equals_sc_for_observations(
    program_unfenced: Program,
    program_fenced: Program,
    max_states: int = 1_000_000,
) -> tuple[bool, set, set]:
    """Compare observation sets: SC of the original program vs TSO of
    the fenced program (the paper's correctness criterion for data
    reads). Returns (equal, sc_only, tso_only)."""
    sc = SCExplorer(program_unfenced, max_states=max_states).explore()
    tso = TSOExplorer(program_fenced, max_states=max_states).explore()
    if not (sc.complete and tso.complete):
        raise ExecutionError("state-space bound hit; raise max_states")
    sc_obs = sc.observation_sets()
    tso_obs = tso.observation_sets()
    return sc_obs == tso_obs, sc_obs - tso_obs, tso_obs - sc_obs
