"""Exhaustive exploration of ARM/POWER-style relaxed memory models.

The TSO/PSO explorer (:mod:`repro.memmodel.storebuf`) models
store-side relaxation only (FIFO / per-address store buffers). ARMv7
and POWER additionally reorder the *load* side: a later load may be
satisfied before an earlier one (``r->r``), which is what makes
unfenced message passing break on real hardware even though it is
TSO-safe. This explorer composes two bounded mechanisms:

* **Grouped per-address store buffers** (``w->w`` / ``w->r``): the
  buffers of :mod:`repro.memmodel.storebuf`, shared with TSO/PSO. Like
  PSO, differently-addressed stores drain in any order *within a
  group*. A store-ordering fence flavor (``lwsync``, ``dmbst``,
  ``eieio``) seals the current group — groups drain oldest-first, so
  pre-fence stores reach memory before post-fence stores — without
  waiting for a drain the way a full fence (``sync``, ``dmb``, generic
  FULL) must.
* **Bounded stale reads** (``r->r`` / ``r->w``): memory keeps one
  previous value per address, and each thread tracks the addresses it
  has observed at their current version. A load of an unobserved
  address may nondeterministically return the previous value — the
  operational image of a load satisfied early out of a stale cache
  line. Per-location coherence holds: once a thread reads the current
  value it can never read the older one. A fence flavor killing
  ``r->r`` marks every address observed, forcing fresh reads.

Load buffering proper (the LB litmus shape) is *not* producible: a
load's value is needed to continue executing, so it can never be
delayed past a dependent store. The model is therefore slightly
stronger than the ISA on pure ``r->w``; placement still fences those
delays (the machine model declares them reorderable), the explorer
just cannot witness their absence — the conservative direction.

RMWs are LL/SC-style: they act on coherent memory (own buffered stores
to the same address must drain first) but carry no implicit barrier —
``rmw_is_full_fence=False`` on these models, so the placement
machinery fences around them rather than leaning on them.

Fence flavors resolve through the explorer's arch backend
(:mod:`repro.arch.backend`); a flavor the backend does not know (a
cross-compiled program) conservatively acts as a full fence.

State is bounded like PSO's: buffers are finite because programs are,
and the stale dimension holds at most one old value per address.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Optional

from repro.arch.backend import ALL_KINDS, get_backend
from repro.core.machine_models import OrderKind
from repro.ir.function import Program
from repro.ir.instructions import Fence, FenceKind
from repro.memmodel import storebuf
from repro.memmodel.explore import (
    LOCAL_FP,
    Footprint,
    Outcome,
    SharedMap,
    Transition,
    advance,
    make_outcome,
)
from repro.memmodel.interpreter import ExecutionError, PendingAction, ThreadExecutor, ThreadState

#: A thread's has-seen-current marks: the addresses it has observed at
#: their current version, kept sorted so the tuple is its state-key part.
Marks = tuple[int, ...]


def _mark(marks: Marks, addrs: Iterable[int]) -> Marks:
    """``marks`` plus ``addrs`` (distinct addresses)."""
    added = tuple(a for a in addrs if a not in marks)
    return tuple(sorted(marks + added)) if added else marks


def _unmark(marks: Marks, addr: int) -> Marks:
    return tuple(a for a in marks if a != addr) if addr in marks else marks


def _replace(parts: tuple, i: int, part) -> tuple:
    """``parts`` with entry ``i`` set to ``part`` (shared if unchanged)."""
    if parts[i] is part:
        return parts
    return parts[:i] + (part,) + parts[i + 1 :]


class RelaxedExplorer(storebuf.BufferedExplorer):
    """DPOR DFS over the relaxed state graph for one arch backend.

    State = (memory, prev, threads, buffers, fresh)."""

    MODEL_KEY = "relaxed"
    #: Arch whose flavor catalog gives fences their kill-sets.
    arch = "arm"
    #: This explorer gives flavored fences their declared (weaker)
    #: kill-set semantics, so differential validation of *flavored*
    #: placements is meaningful here. Flavor-blind explorers (TSO/PSO
    #: treat every full fence as mfence-strength) must not claim this,
    #: or the oracle would validate flavor selections it cannot model.
    HONORS_FLAVORS = True

    def __init__(
        self,
        program: Program,
        max_states: Optional[int] = None,
        max_steps_per_thread: int = 100_000,
        observe_globals: Optional[list[str]] = None,
        **core_opts,
    ) -> None:
        super().__init__(
            program,
            max_states,
            max_steps_per_thread,
            observe_globals,
            **core_opts,
        )
        self.backend = get_backend(self.arch)
        self._kills_memo: dict[tuple, frozenset[OrderKind]] = {}

    # --- fence semantics --------------------------------------------------
    def _fence_kills(self, inst: Fence) -> frozenset[OrderKind]:
        memo_key = (inst.kind, inst.flavor)
        kills = self._kills_memo.get(memo_key)
        if kills is None:
            if inst.kind is not FenceKind.FULL:
                kills = frozenset()
            elif inst.flavor is None:
                kills = ALL_KINDS
            elif self.backend.has_flavor(inst.flavor):
                kills = self.backend.flavor(inst.flavor).kills
            else:
                kills = ALL_KINDS  # foreign flavor: act as a full fence
            self._kills_memo[memo_key] = kills
        return kills

    # --- state plumbing ---------------------------------------------------
    def initial_state(self) -> tuple:
        threads = tuple(self.executor.start_all())
        return (
            SharedMap(self.layout.initial_memory()),
            SharedMap(),  # prev: one stale candidate value per address
            threads,
            tuple(() for _ in threads),
            tuple(() for _ in threads),  # fresh: sorted address tuples
        )

    def threads_of(self, state: tuple) -> tuple[ThreadState, ...]:
        return state[2]

    def state_parts(self, state: tuple) -> tuple[tuple, tuple]:
        memory, prev, _threads, buffers, fresh = state
        return (memory.sorted_items(), prev.sorted_items()), tuple(zip(buffers, fresh))

    def buffers_of(self, state: tuple) -> tuple:
        return state[3]

    def outcome_of(self, state: tuple) -> Outcome:
        memory, _prev, threads, _buffers, _fresh = state
        return make_outcome(self.layout, memory, threads, self.observe_globals)

    @staticmethod
    def _publish(
        prev: SharedMap,
        memory: SharedMap,
        fresh: tuple[Marks, ...],
        writer: int,
        addr: int,
        value: int,
    ) -> tuple[SharedMap, SharedMap, tuple[Marks, ...]]:
        """Make ``value`` the current value of ``addr`` (written by
        thread ``writer``): the old value becomes the stale candidate,
        every *other* thread loses its has-seen-current mark, and the
        writer (who must never read older than its own store) gains it.
        Returns the new ``(prev, memory, fresh)``.
        """
        prev = SharedMap(prev)
        memory = SharedMap(memory)
        prev[addr] = memory.get(addr, 0)
        memory[addr] = value
        fresh = tuple(
            _mark(marks, (addr,)) if t == writer else _unmark(marks, addr)
            for t, marks in enumerate(fresh)
        )
        return prev, memory, fresh

    # --- transitions ------------------------------------------------------
    @staticmethod
    def _drain(
        i: int, addr: int, value: int, after: storebuf.Buffer, state: tuple
    ) -> tuple:
        """Drains publish: addresses drain independently (PSO-style),
        groups in order (store-fence seals)."""
        memory, prev, threads, buffers, fresh = state
        prev, memory, fresh = RelaxedExplorer._publish(prev, memory, fresh, i, addr, value)
        return ((memory, prev, threads, _replace(buffers, i, after), fresh),)

    def make_step(self, ts: ThreadState) -> Transition:
        """Thread ``ts``'s next action as one transition (several
        successors for a load with a stale-value choice), waiting on
        the buffer for an RMW or full fence."""
        ready, pending = self.executor.probe(ts, self.max_steps)
        wait: Optional[int] = None
        kills: frozenset[OrderKind] = frozenset()
        if pending is None:
            fp = LOCAL_FP
        elif pending.kind == "load":
            # Forwarded loads still count as shared reads for reduction
            # purposes: forwarding status flips once the own buffer
            # drains, so an "invisible" classification would hide the
            # dependence on rival writes landing after the drain.
            fp = self._addr_fp(pending.addr, reads=True)
            if pending.inst.ordering == "acquire" and not fp.top:  # type: ignore[union-attr]
                # Like the stale-killing fence: observes the whole
                # previous-value map, so it orders against every publish.
                fp = Footprint(reads=fp.reads, global_read=True)
        elif pending.kind == "store":
            fp = LOCAL_FP
        elif pending.kind == "rmw":
            # LL/SC-style: needs the coherent current value, so own
            # buffered stores to this address must drain first — but no
            # implicit barrier: the rest of the buffer stays put.
            wait = pending.addr
            fp = self._addr_fp(pending.addr, reads=True, writes=True)
        elif pending.kind == "fence":
            kills = self._fence_kills(pending.inst)  # type: ignore[arg-type]
            if OrderKind.WR in kills:
                wait = storebuf.ALL  # full fence: wait for the buffer to drain
            # A stale-killing fence observes the whole previous-value
            # map, so it orders against every publish; a seal-only or
            # no-op fence is invisible to other threads.
            stale_kill = OrderKind.RR in kills or OrderKind.RW in kills
            fp = Footprint(global_read=True) if stale_kill else LOCAL_FP
        else:  # pragma: no cover
            raise ExecutionError(f"unknown action {pending.kind}")
        i = ts.tid
        return Transition(
            ("t", i), i, True, fp,
            partial(self._successors, self.executor, kills, i, ready, pending),
            wait,
        )

    @staticmethod
    def _successors(
        executor: ThreadExecutor,
        kills: frozenset[OrderKind],
        i: int,
        ready: ThreadState,
        pending: Optional[PendingAction],
        state: tuple,
    ) -> tuple:
        """Thread ``i``'s step builder: the states after it performs
        ``pending`` from its probe's ``ready`` state in ``state``
        (``kills``: a fence's kill-set, empty for other actions)."""
        memory, prev, threads, buffers, fresh = state
        if pending is None:
            return ((memory, prev, advance(executor, threads, i, ready, None), buffers, fresh),)

        if pending.kind == "load":
            addr = pending.addr
            # An acquire load orders itself before every later access
            # of its thread: like a stale-killing fence immediately
            # after it, no post-acquire read may be satisfied stale
            # (r->r / r->w killed). The acquire itself may still read
            # the stale value — acquire means "ordered", not "latest".
            acquire = pending.inst.ordering == "acquire"  # type: ignore[union-attr]
            forwarded = storebuf.forward(buffers[i], addr)
            choices: list[tuple[int, bool]] = []  # (value, marks_fresh)
            if forwarded is not None:
                choices.append((forwarded, False))
            else:
                current = memory.get(addr, 0)
                choices.append((current, True))
                if addr in prev and addr not in fresh[i] and prev[addr] != current:
                    choices.append((prev[addr], False))
            successors = []
            for value, marks_fresh in choices:
                marks = fresh[i]
                if marks_fresh:
                    marks = _mark(marks, (addr,))
                if acquire:
                    marks = _mark(marks, prev)
                successors.append(
                    (
                        memory,
                        prev,
                        advance(executor, threads, i, ready, pending, value),
                        buffers,
                        _replace(fresh, i, marks),
                    )
                )
            return tuple(successors)

        if pending.kind == "store":
            # A release store seals the current store group first, like
            # a store-ordering fence immediately before it: every
            # earlier buffered store publishes before this one (w->w
            # killed). Earlier reads already committed — this machine
            # cannot delay a satisfied read past a later store (see the
            # LB note above) — so sealing is the entire obligation; the
            # release itself stays buffered (w->r remains relaxed).
            buffer = buffers[i]
            if pending.inst.ordering == "release":  # type: ignore[union-attr]
                buffer = storebuf.seal(buffer)
            buffer = storebuf.append(buffer, pending.addr, pending.value)
            return (
                (
                    memory,
                    prev,
                    advance(executor, threads, i, ready, pending),
                    _replace(buffers, i, buffer),
                    fresh,
                ),
            )

        if pending.kind == "rmw":
            result, new = pending.rmw_result(memory.get(pending.addr, 0))
            if new is not None:
                prev, memory, fresh = RelaxedExplorer._publish(
                    prev, memory, fresh, i, pending.addr, new
                )
            else:
                fresh = _replace(fresh, i, _mark(fresh[i], (pending.addr,)))
            return ((memory, prev, advance(executor, threads, i, ready, pending, result), buffers, fresh),)

        # fence
        if OrderKind.WW in kills and OrderKind.WR not in kills:
            buffers = _replace(buffers, i, storebuf.seal(buffers[i]))
        if OrderKind.RR in kills or OrderKind.RW in kills:
            # No pre-fence read may be satisfied stale anymore.
            fresh = _replace(fresh, i, _mark(fresh[i], prev))
        return ((memory, prev, advance(executor, threads, i, ready, pending), buffers, fresh),)


class ARMExplorer(RelaxedExplorer):
    """ARMv7-style relaxed exploration (``dmb`` flavor catalog)."""

    MODEL_KEY = "arm"
    arch = "arm"


class POWERExplorer(RelaxedExplorer):
    """POWER relaxed exploration (``sync``/``lwsync``/``eieio`` catalog)."""

    MODEL_KEY = "power"
    arch = "power"
